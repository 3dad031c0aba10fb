"""Halfspace (Tukey) depth of a query point relative to a finite sample.

The depth of q is the smallest fraction of sample points contained in a
closed halfspace whose boundary passes through q. Equivalently it is the
minimum over unit directions of the empirical CDF of the projected sample
evaluated at the projected query. All counting here uses the closed
convention: points on the boundary hyperplane belong to both sides.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

import numpy as np

from .geometry import SphericalCover
from .population import DistributionSpec, _phi, _phi_inverse, _standardised

# Boundary membership is decided up to TIE_RTOL * R_q, R_q = max_i |x_i - q|
# the spread of the sample about the query, so that ties do not depend on
# the units or the offset of the data; anything within it is treated as
# lying on the hyperplane (and counted on both sides, per the closed
# convention).
TIE_RTOL = 1e-12

# Angular nudge used to probe both open sides of a candidate hyperplane
# that touches sample points.
NUDGE_RADIANS = 1e-7

TWO_PI = 2.0 * math.pi

# Polar angles within TIE_ANGLE of each other are one direction in the
# planar sweep. The rounded antipode of one point's angle misses the
# rounded angle of an exactly antipodal point by up to 1 ulp(2 pi), as
# for q +- (4, 1) or q +- (2, 1); 8 ulp(2 pi), about 7e-15 rad, covers that.
TIE_ANGLE = 8.0 * math.ulp(TWO_PI)


@dataclass(frozen=True)
class DepthValue:
    """Exact sample depth as an integer count over n."""

    count: int
    n: int

    def __post_init__(self):
        if not (0 <= self.count <= self.n):
            raise ValueError(f"count {self.count} outside [0, {self.n}]")

    @property
    def value(self) -> float:
        return self.count / self.n

    def to_dict(self) -> dict:
        return {"count": self.count, "n": self.n, "value": self.value}


@dataclass(frozen=True)
class DepthInterval:
    """Certified enclosure of the exact depth from a cover-based evaluation."""

    lower: float
    upper: float
    psi: float
    radius: float

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError(f"lower {self.lower} exceeds upper {self.upper}")

    def to_dict(self) -> dict:
        return {"lower": self.lower, "upper": self.upper, "psi": self.psi, "R": self.radius}


@dataclass(frozen=True, eq=False)
class Sample:
    """An immutable (n, d) array of sample points.

    A sample keeps its projection onto the last cover its certified depth
    was taken over (see _projection), so the queries of a trial share one
    projection and one sort.
    """

    points: np.ndarray
    _kept: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        arr = np.array(self.points, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"sample must be a nonempty (n, d) array, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("sample contains non-finite coordinates")
        arr.setflags(write=False)
        object.__setattr__(self, "points", arr)

    @property
    def n(self) -> int:
        return int(self.points.shape[0])

    @property
    def dim(self) -> int:
        return int(self.points.shape[1])

    def _projection(self, cover: SphericalCover) -> tuple:
        """The sample's projection onto the cover, kept for its last cover.

        Returns (cover, columns, keys, template, offsets). columns is the
        (d, n) transpose of the points, rows contiguous. keys is flat: row
        j of its (m, n) form holds j + 1j * z, z the sorted projections
        (x - x0).c_j about x0 = points[0]. numpy orders complex numbers by
        real part and then imaginary part, so the flat keys are sorted, and
        one searchsorted of j + 1j * t counts, for any set of centers j in
        one call, the points with (x - x0).c_j <= t; offsets = n * arange(m)
        takes the earlier rows back off, and keys.imag[k + offsets] gathers
        every center's (k+1)-th smallest projection. template is a (2, m)
        complex array with real parts 0..m-1, for a query's two threshold
        rows. The tuple is replaced whole, so threads that share the sample
        at worst build it twice.
        """
        kept = self._kept
        if kept is not None and kept[0] is cover:
            return kept
        m, n = cover.centers.shape[0], self.n
        z = cover.centers @ (self.points - self.points[0]).T
        z.sort(axis=1)
        keys = np.empty((m, n), dtype=complex)
        keys.real = np.arange(m)[:, None]
        keys.imag = z
        template = np.zeros((2, m), dtype=complex)
        template.real = np.arange(m)
        columns, offsets = np.ascontiguousarray(self.points.T), n * np.arange(m)
        for a in (columns, keys, template, offsets):
            a.setflags(write=False)
        kept = (cover, columns, keys.reshape(-1), template, offsets)
        object.__setattr__(self, "_kept", kept)
        return kept

    @classmethod
    def from_csv(cls, path) -> "Sample":
        """Load one point per line, comma-separated coordinates, no header."""
        rows = []
        width = None
        text = Path(path).read_text()
        for i, line in enumerate(text.splitlines()):
            if not line.strip():
                continue
            tokens = line.split(",")
            if width is None:
                width = len(tokens)
            elif len(tokens) != width:
                raise ValueError(
                    f"sample CSV row {i + 1}: expected {width} columns, found {len(tokens)}"
                )
            row = []
            for j, tok in enumerate(tokens):
                try:
                    row.append(float(tok))
                except ValueError:
                    raise ValueError(
                        f"sample CSV row {i + 1}, column {j + 1}: cannot parse {tok.strip()!r}"
                    ) from None
            rows.append(row)
        if not rows:
            raise ValueError("sample CSV contains no data rows")
        return cls(np.asarray(rows))

    @classmethod
    def from_json(cls, path) -> "Sample":
        """Load from a JSON object with a "points" list of coordinate lists."""
        data = json.loads(Path(path).read_text())
        if not isinstance(data, dict) or "points" not in data:
            raise ValueError('sample JSON must be an object with a "points" key')
        pts = data["points"]
        if not isinstance(pts, list) or not pts:
            raise ValueError('sample JSON "points" must be a nonempty list')
        first = pts[0]
        width = len(first) if isinstance(first, list) else 1
        for i, row in enumerate(pts):
            got = len(row) if isinstance(row, list) else 1
            if got != width:
                raise ValueError(f"sample JSON point {i}: expected {width} coordinates, found {got}")
        return cls(np.asarray(pts, dtype=float))


def _query_radii(queries: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """R_q = max_i |x_i - q| for each row q of a (Q, d) block of queries,
    from the sample's (d, n) coordinate rows. The rows are made contiguous
    first: numpy runs the (Q, d, n) differences along n, and strided rows
    made that about 3x slower."""
    squares = np.ascontiguousarray(columns) - queries[:, :, None]
    squares *= squares
    total = squares[:, 0]
    for k in range(1, len(columns)):
        total += squares[:, k]
    return np.sqrt(total.max(axis=1))


def _check_finite(queries: np.ndarray) -> None:
    if not np.isfinite(queries).all():
        raise ValueError("query contains non-finite coordinates")


def depth_1d(q: float, sample: Sample) -> DepthValue:
    """Depth on the line: the smaller of the closed left and right counts."""
    if sample.dim != 1:
        raise ValueError(f"depth_1d requires a 1-dimensional sample, got d={sample.dim}")
    x = sample.points[:, 0]
    q = float(q)
    if not math.isfinite(q):
        raise ValueError("query contains non-finite coordinates")
    tol = TIE_RTOL * float(np.abs(x - q).max())
    left = int(np.count_nonzero(x <= q + tol))
    right = int(np.count_nonzero(x >= q - tol))
    return DepthValue(count=min(left, right), n=sample.n)


def _planar_depth_counts(y0: np.ndarray, y1: np.ndarray) -> np.ndarray:
    """Closed-halfplane depth counts of the origin in a stack of planar point sets.

    y0 and y1 are (B, n) coordinates, row b a point set centred on its
    query. The complement of a closed half-circle of polar angles is an
    open one, so the depth is the live count less the most an open
    half-circle holds. Turned until it opens on a point, that is
    max_i #{theta in [theta_i, theta_i + pi)} mod 2 pi: one left search of
    each angle's antipode, n per row, O(n log n).

    Ties: points within TIE_RTOL * R of the origin, R the row's largest
    norm, count on every side. Angles within TIE_ANGLE are one direction:
    a tie run (sorted angles with gaps of at most TIE_ANGLE, across the
    0 / 2 pi seam too) opens one window, and a point within TIE_ANGLE
    below an antipode counts as antipodal, outside it.
    """
    b, n = y0.shape
    norms = np.sqrt(y0 * y0 + y1 * y1)
    coincident = norms <= TIE_RTOL * norms.max(axis=1, keepdims=True)
    live = n - np.count_nonzero(coincident, axis=1)
    # Row b holds its live angles in [0, 2 pi], sorted, then its coincident
    # points parked at 4 pi, past every search key.
    angles = np.arctan2(y1, y0)
    angles = np.where(coincident, 2.0 * TWO_PI, np.where(angles < 0, angles + TWO_PI, angles))
    angles.sort(axis=1)
    ends = angles + (math.pi - TIE_ANGLE)
    wrapped = ends >= TWO_PI
    ends = np.where(wrapped, ends - TWO_PI, ends)
    inside = np.empty((b, n), dtype=np.intp)
    for row, key, found in zip(angles, ends, inside):
        found[:] = np.searchsorted(row, key, side="left")
    # A tie run starts where the gap to the previous angle exceeds
    # TIE_ANGLE; the first angle's previous one is the last live angle,
    # less 2 pi. A run that crosses the seam starts at the last run's
    # start, less live. Window i runs from its run's start to ends[i], so
    # it holds inside - starts points, plus live if it wraps past 2 pi.
    rows, column = np.arange(b), np.arange(n)
    previous = np.concatenate([angles[rows, live - 1, None] - TWO_PI, angles[:, :-1]], axis=1)
    starts = np.maximum.accumulate(np.where(angles - previous > TIE_ANGLE, column, -1), axis=1)
    starts = np.where(starts < 0, starts[rows, live - 1, None] - live[:, None], starts)
    counts = inside - starts + live[:, None] * wrapped
    return n - np.where(column < live[:, None], counts, 0).max(axis=1)


def depth_exact_2d_many(queries, sample: Sample) -> np.ndarray:
    """Exact planar depth counts for a (Q, 2) block of queries: the sweep of
    Rousseeuw & Ruts (1996) over the sample centred on each query; see
    _planar_depth_counts for the method and the tie rule."""
    if sample.dim != 2:
        raise ValueError(f"depth_exact_2d requires a 2-dimensional sample, got d={sample.dim}")
    queries = np.asarray(queries, dtype=float)
    if queries.ndim != 2 or queries.shape[1] != 2:
        raise ValueError(f"queries must be a (Q, 2) array, got shape {queries.shape}")
    _check_finite(queries)
    return _planar_depth_counts(sample.points[:, 0] - queries[:, :1], sample.points[:, 1] - queries[:, 1:])


def depth_exact_2d(q, sample: Sample) -> DepthValue:
    """Exact planar depth by the angular sweep of depth_exact_2d_many."""
    count = depth_exact_2d_many(np.reshape(q, (1, -1)), sample)[0]
    return DepthValue(count=int(count), n=sample.n)


def _brute_candidates(y: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Candidate normals: null directions of <= d-1 point subsets, nudged off contact.

    y is in units of R_q (rows of norm at most 1), so the thresholds here are relative.
    """
    n, d = y.shape
    generic = np.random.default_rng(0xD1CE).standard_normal((d, d))
    live = np.nonzero(norms > 0)[0]
    normals = []
    for size in range(0, d):
        for subset in combinations(live, size):
            rows = y[list(subset)]
            basis = []
            ok = True
            for row in rows:
                v = row.copy()
                for b in basis:
                    v -= (v @ b) * b
                nv = np.linalg.norm(v)
                if nv <= 1e-10:
                    ok = False  # affinely degenerate subset, smaller ones cover it
                    break
                basis.append(v / nv)
            if not ok:
                continue
            for g in generic:
                if len(basis) == d - 1:
                    break
                v = g.copy()
                for b in basis:
                    v -= (v @ b) * b
                nv = np.linalg.norm(v)
                if nv > 1e-10:
                    basis.append(v / nv)
            if len(basis) != d - 1:
                continue
            span = np.vstack(basis)
            _, _, vt = np.linalg.svd(span)
            normal = vt[-1]
            normals.append(normal)
            if subset:
                touch = y[list(subset)] / norms[list(subset), None]
                cos_e, sin_e = math.cos(NUDGE_RADIANS), math.sin(NUDGE_RADIANS)
                # Probe every open region around the contact set: rotate a
                # little toward each signed combination of touching points.
                for signs in np.ndindex(*(2,) * len(subset)):
                    shift = sum((1.0 if s else -1.0) * t for s, t in zip(signs, touch))
                    shift_norm = np.linalg.norm(shift)
                    if shift_norm == 0.0:
                        continue
                    nudged = cos_e * normal + sin_e * shift / shift_norm
                    normals.append(nudged / np.linalg.norm(nudged))
    return np.asarray(normals)


def depth_brute(q, sample: Sample) -> DepthValue:
    """Reference depth by enumerating candidate halfspace normals.

    The minimizing closed halfspace can be rotated until its boundary
    touches at most d-1 sample points, so normals orthogonal to every
    subset of that size (completed with fixed generic directions when the
    subset is small) catch the optimum up to boundary contact. Nudging
    each contact normal by a tiny rotation in every signed combination of
    the touching points probes the adjacent open regions, and counting
    both closed sides of every candidate yields the exact minimum. Meant
    for small n as an oracle; cost grows like n^(d-1).
    """
    q = np.asarray(q, dtype=float).reshape(-1)
    if q.shape[0] != sample.dim:
        raise ValueError(f"query has dimension {q.shape[0]}, sample has {sample.dim}")
    _check_finite(q)
    if sample.dim == 1:
        return depth_1d(q[0], sample)
    y = sample.points - q
    norms = np.linalg.norm(y, axis=1)
    radius = norms.max()
    if radius == 0.0:
        return DepthValue(count=sample.n, n=sample.n)
    y = y / radius
    norms = norms / radius
    on_query = norms <= TIE_RTOL
    normals = _brute_candidates(y, np.where(on_query, 0.0, norms))
    proj = y @ normals.T
    below = np.count_nonzero(proj <= TIE_RTOL, axis=0)
    above = np.count_nonzero(proj >= -TIE_RTOL, axis=0)
    best = int(min(below.min(), above.min()))
    return DepthValue(count=best, n=sample.n)


_EPS = float(np.finfo(float).eps)

# Both pruned extrema start from an exact bound over every
# _BOUND_STRIDE-th direction: sup_deviation's lower bound is the KS over
# those directions, and _certified_counts's upper bound is the count
# minimum over those centers.
_BOUND_STRIDE = 8


def _certified_counts(
    queries: np.ndarray, sample: Sample, cover: SphericalCover
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lower, upper, R) of a validated (Q, d) block of queries as intp,
    intp and float arrays; see depth_certified. This is the one certified
    kernel: every entry calls it once, whatever the size of its block.

    Each count is a minimum over the centers of a closed count below a
    threshold. A query has two threshold rows, one per bound: row i holds
    query i's lower thresholds and row Q + i its upper ones, 2Q rows of m
    in all. It searches the thresholds of every _BOUND_STRIDE-th center,
    gathers every center's sorted projection at one index per row, and
    searches only the centers that gather cannot rule out, each step one
    numpy call for the whole block, so the result is the minimum over all
    2Qm searches bit for bit. When every center ties at that bound, as for
    a sample whose points all coincide, every center is searched.

    Off the main thread, as on the harness's thread pool, it searches all
    2Qm thresholds in one call instead, for a block of any size. numpy
    releases the GIL for a search, and only a long release lets the other
    threads run meanwhile: on a 2-vCPU host a 2-thread pool ran d=3 trials
    faster than one thread with the one search, and slower with the pruned
    one, whose searches are short.
    """
    _, columns, keys, template, offsets = sample._projection(cover)
    radii = _query_radii(queries, columns)
    # Projections are taken about x0 = points[0]. (x - x0).c and (q - x0).c
    # are rounded separately, so their difference is off from the exact
    # (x - q).c by at most about (d + 1) u (|x - x0| + |q - x0|), u = eps / 2.
    # Rounding R and the thresholds adds at most (2 + (d + 5) psi) u
    # (|x - x0| + |q - x0|), and psi < pi / 2. With |x - x0| <= R + |q - x0|,
    # slack = 4 (d + 4) u (R + 2 |q - x0|) keeps each lower count below the
    # exact count at -R psi and each point on a boundary inside the upper
    # count, in any dimension, and scales with the spread of the data, not
    # with its offset. Each row's slack is Python float arithmetic, with one
    # product per query: for a one-row block, the harness's call, that costs
    # less than array operations over the block.
    nq = len(queries)
    thresholds = template.repeat(nq, 0)
    values, x0, scale = thresholds.imag, sample.points[0], 2.0 * (sample.dim + 4) * _EPS
    for i, radius in enumerate(radii.tolist()):
        offset = queries[i] - x0
        distance = math.sqrt(np.add.reduce(offset * offset))
        slack = scale * (radius + 2.0 * distance)
        at = cover.centers @ offset
        np.subtract(at, radius * cover.psi + slack, out=values[i])
        np.add(at, TIE_RTOL * radius + slack, out=values[nq + i])
    if threading.current_thread() is not threading.main_thread():
        counts = np.searchsorted(keys, thresholds, side="right")
        counts -= offsets
        bound = counts.min(axis=1)
    else:
        # Each row's minimum over every _BOUND_STRIDE-th center is an exact
        # upper bound U on its minimum. A center whose sorted projection at
        # index min(U, n - 1) is at most its threshold counts more than
        # min(U, n - 1) points, so at least U, and cannot beat U; only the
        # rest, less the centers already searched, are searched.
        bound = np.searchsorted(keys, thresholds[:, ::_BOUND_STRIDE], side="right")
        bound -= offsets[::_BOUND_STRIDE]
        bound = bound.min(axis=1)
        probe = keys.imag[np.minimum(bound, sample.n - 1)[:, None] + offsets]
        candidates = probe > values
        candidates[:, ::_BOUND_STRIDE] = False
        rows, centers = np.nonzero(candidates)
        counts = np.searchsorted(keys, thresholds[rows, centers], side="right")
        counts -= offsets[centers]
        np.minimum.at(bound, rows, counts)
    return bound[:nq], bound[nq:], radii


def depth_certified_many(
    queries, sample: Sample, cover: SphericalCover
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Certified depth counts (lower, upper, radius) for a (Q, d) block of
    queries, from one call of the certified kernel (_certified_counts):
    lower and upper are intp arrays and radius a float array, one entry per
    query. A row's entries do not depend on the other rows of the block."""
    queries = np.asarray(queries, dtype=float)
    if queries.ndim != 2 or queries.shape[1] != sample.dim or cover.d != sample.dim:
        raise ValueError(
            f"dimension mismatch: sample d={sample.dim}, queries {queries.shape}, cover {cover.d}"
        )
    _check_finite(queries)
    return _certified_counts(queries, sample, cover)


def depth_approx(q, sample: Sample, cover: SphericalCover) -> DepthValue:
    """Depth minimized over the cover's directions only.

    Always an upper bound for the exact depth (the minimum over all
    directions), whatever the directions; exact whenever the cover happens
    to contain a minimizing direction. It is the upper end of
    depth_certified: a one-row depth_certified_many.
    """
    _, upper, _ = depth_certified_many(np.asarray(q, dtype=float).reshape(1, -1), sample, cover)
    return DepthValue(count=upper.item(), n=sample.n)


def depth_certified(q, sample: Sample, cover: SphericalCover) -> DepthInterval:
    """Two-sided enclosure of the exact depth of one query from a cover.

    With q at the origin, projections onto directions within psi of a
    cover center differ by at most R*psi, where R is the largest sample
    distance from q. The closed count at q.c over the centers
    upper-bounds the exact depth; the count at q.c - R*psi lower-bounds
    it. It is a one-row depth_certified_many. The sample's projection onto
    the cover is sorted once and kept (Sample._projection); a block of Q
    queries then costs Q products with the centers, binary searches into
    the flat keys for the thresholds of every 8th center and of the k
    centers whose count can still beat theirs, O((Qm/8 + k) log(mn)), and
    one O(Qm) gather that finds those k (_certified_counts). Off the main
    thread a call of any size makes one search of all 2Qm thresholds,
    O(Qm log(mn)), which lets other threads run.
    """
    lower, upper, radius = depth_certified_many(np.asarray(q, dtype=float).reshape(1, -1), sample, cover)
    n = sample.n
    return DepthInterval(lower=lower.item() / n, upper=upper.item() / n, psi=cover.psi, radius=radius.item())


def ks_statistic(values: np.ndarray, cdf_values: np.ndarray) -> float:
    """Exact two-sided Kolmogorov-Smirnov statistic from order statistics.

    values are the sample points (any order); cdf_values must be the
    population CDF evaluated at the corresponding points. The sup over all
    thresholds of |F_n - F| is attained at the jumps, i.e. at
    max(F(x_(i)) - (i-1)/n, i/n - F(x_(i))).
    """
    values = np.asarray(values, dtype=float).reshape(-1)
    cdf_values = np.asarray(cdf_values, dtype=float).reshape(-1)
    if values.shape != cdf_values.shape or values.size == 0:
        raise ValueError("values and cdf_values must be equal-length nonempty arrays")
    return float(_ks_per_column(cdf_values[np.argsort(values)][:, None])[0])


def _ks_per_column(f: np.ndarray) -> np.ndarray:
    """KS statistic of each column of f, the CDF at the sorted sample (n, m).

    f is overwritten. Working in place keeps the large temporaries to
    one; each fresh one costs page faults on every call.
    """
    n = f.shape[0]
    return _ks_terms(f, np.arange(1, n + 1, dtype=float)[:, None], n).max(axis=0)


def _ks_terms(f: np.ndarray, i: np.ndarray, n: int) -> np.ndarray:
    """The larger KS term max(F - (i-1)/n, i/n - F) of each entry of f.

    f holds the CDF at order statistics of a sample of n, and i (a column)
    their 1-based ranks. f is overwritten.
    """
    below = f - (i - 1.0) / n
    above = np.subtract(i / n, f, out=f)
    return np.maximum(below, above, out=below)


# Probability margin of the rank thresholds, far above the rounding of
# ndtr and ndtri.
_KS_MARGIN = 1e-9


def _ks_rank_thresholds(n: int, bound: float) -> tuple[np.ndarray, np.ndarray]:
    """Standardised values past which rank i's KS terms can exceed bound.

    With L' = bound - _KS_MARGIN, F(u) - (i-1)/n > bound needs
    u > Phi^-1((i-1)/n + L') = high[i-1], and i/n - F(u) > bound needs
    u < Phi^-1(i/n - L') = low[i-1]. The arguments are clipped to [0, 1],
    so a term that cannot exceed the bound at any u gets +inf or -inf.
    """
    i = np.arange(1, n + 1, dtype=float)
    margin = bound - _KS_MARGIN
    high = _phi_inverse(np.clip((i - 1.0) / n + margin, 0.0, 1.0))
    low = _phi_inverse(np.clip(i / n - margin, 0.0, 1.0))
    return high, low


def sup_deviation(sample: Sample, dist: DistributionSpec, cover: SphericalCover | None) -> float:
    """Largest exact KS distance between projected sample and projected law.

    The maximum runs over the cover's directions (for d=1 over the single
    axis direction, where reflection gives the same statistic and no cover
    is needed). This is a lower estimate of the supremum over all
    directions; the gap is controlled by the cover radius and the
    distribution's Lipschitz constants.

    Phi is evaluated only where a term can beat a lower bound L, the exact
    KS over every 8th direction. With u the sorted projections standardised
    by each direction's moments (the argument of Phi in
    `cdf_projected_many`) and L' = L - 1e-9, rank i's terms
    F(u) - (i-1)/n and i/n - F(u) can exceed L only if
    u > Phi^-1((i-1)/n + L') or u < Phi^-1(i/n - L'), with the arguments
    clipped to [0, 1]. The 1e-9 margin is far above the rounding of ndtr
    and ndtri. Only the ranks with an entry past either threshold are
    scored. The winning term is always among the terms computed, so the
    result is the maximum over all n*m terms bit for bit.
    """
    if sample.dim != dist.d:
        raise ValueError(f"sample has dimension {sample.dim}, distribution has {dist.d}")
    if sample.dim == 1:
        centers = np.array([[1.0]])
    elif cover is None:
        raise ValueError(f"a cover is required for d={sample.dim}")
    elif cover.d != sample.dim:
        raise ValueError(f"cover has dimension {cover.d}, sample has {sample.dim}")
    else:
        centers = cover.centers
    z = sample.points @ centers.T
    z.sort(axis=0)
    u = _standardised(dist, centers, z)
    n = sample.n
    bound = float(_ks_per_column(_phi(u[:, ::_BOUND_STRIDE])).max())
    high, low = _ks_rank_thresholds(n, bound)
    rows = np.flatnonzero((u.max(axis=1) > high) | (u.min(axis=1) < low))
    return float(_ks_terms(_phi(u[rows]), rows[:, None] + 1.0, n).max(initial=bound))
