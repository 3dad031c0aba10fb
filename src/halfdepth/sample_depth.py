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
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

import numpy as np

from .geometry import SphericalCover
from .population import DistributionSpec, cdf_projected_many

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
    """An immutable (n, d) array of sample points."""

    points: np.ndarray
    _keys: tuple | None = field(default=None, init=False, repr=False)

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

    def _projection_keys(self, cover: SphericalCover) -> np.ndarray:
        """Search keys for the projections onto the cover's centers, an (m, n) array.

        Row j holds j + 1j * z, with z running over the sorted projections
        (x - x0).c_j about x0 = points[0]. numpy orders complex numbers by
        real part and then imaginary part, so the flattened keys are sorted,
        and one searchsorted of j + 1j * t counts, for every center j at
        once, the points with (x - x0).c_j <= t. The keys for the most
        recent cover are kept, so that a trial's queries share one
        projection and one sort.
        """
        kept = self._keys
        if kept is not None and kept[0] is cover:
            return kept[1]
        keys = np.empty((cover.centers.shape[0], self.n), dtype=complex)
        keys.real = np.arange(keys.shape[0])[:, None]
        np.matmul(cover.centers, (self.points - self.points[0]).T, out=keys.imag)
        keys.imag.sort(axis=1)
        keys.setflags(write=False)
        object.__setattr__(self, "_keys", (cover, keys))
        return keys

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


def _query_radii(queries: np.ndarray, sample: Sample) -> np.ndarray:
    """R_q = max_i |x_i - q| for each row q of a (Q, d) block of queries."""
    squares = sum((sample.points[:, k] - queries[:, k, None]) ** 2 for k in range(sample.dim))
    return np.sqrt(squares.max(axis=1))


def depth_1d(q: float, sample: Sample) -> DepthValue:
    """Depth on the line: the smaller of the closed left and right counts."""
    if sample.dim != 1:
        raise ValueError(f"depth_1d requires a 1-dimensional sample, got d={sample.dim}")
    x = sample.points[:, 0]
    q = float(q)
    tol = TIE_RTOL * float(np.abs(x - q).max())
    left = int(np.count_nonzero(x <= q + tol))
    right = int(np.count_nonzero(x >= q - tol))
    return DepthValue(count=min(left, right), n=sample.n)


def depth_exact_2d_many(queries, sample: Sample) -> np.ndarray:
    """Exact planar depth counts for a (Q, 2) block of queries.

    Translate q to the origin and reduce each closed halfplane through q
    to a closed half-circle of polar angles. The count of angles in a
    closed arc of length pi is piecewise constant as the arc rotates and
    only changes where an arc endpoint crosses a data angle, so the
    minimum over all halfplanes is attained strictly between consecutive
    critical angles. Evaluating the count at every such midpoint (via
    binary search on the sorted angles) gives the exact minimum in
    O(n log n) per query. Points within TIE_RTOL * R_q of q lie in every
    closed halfplane and contribute a constant offset.
    """
    if sample.dim != 2:
        raise ValueError(f"depth_exact_2d requires a 2-dimensional sample, got d={sample.dim}")
    queries = np.asarray(queries, dtype=float)
    if queries.ndim != 2 or queries.shape[1] != 2:
        raise ValueError(f"queries must be a (Q, 2) array, got shape {queries.shape}")
    y0 = sample.points[:, 0] - queries[:, :1]
    y1 = sample.points[:, 1] - queries[:, 1:]
    norms = np.sqrt(y0 * y0 + y1 * y1)
    coincident = norms <= TIE_RTOL * norms.max(axis=1, keepdims=True)
    live = sample.n - np.count_nonzero(coincident, axis=1)
    # Row r holds query r's live angles, sorted, then its coincident points
    # parked at +inf. Angles are reduced to [0, 2 pi] by adding or
    # subtracting 2 pi once, which gives exactly what np.mod gives on these
    # ranges, in less time.
    angles = np.arctan2(y1, y0)
    angles = np.where(coincident, np.inf, np.where(angles < 0, angles + TWO_PI, angles))
    angles.sort(axis=1)
    antipodes = angles - math.pi
    breaks = np.concatenate([angles, np.where(antipodes < 0, antipodes + TWO_PI, antipodes)], axis=1)
    breaks.sort(axis=1)
    # The arc after each distinct break runs to the next distinct one; the
    # last live break wraps around to the first. Of a run of equal breaks
    # only the last is evaluated, which is what np.unique would leave.
    rows = np.arange(queries.shape[0])
    last = 2 * live - 1
    following = np.roll(breaks, -1, axis=1)
    following[rows, last] = breaks[:, 0] + TWO_PI
    column = np.arange(breaks.shape[1])
    evaluated = (column <= last[:, None]) & ((following != breaks) | (column == last[:, None]))
    with np.errstate(invalid="ignore"):
        starts = breaks + 0.5 * (following - breaks)
    starts = np.where(starts >= TWO_PI, starts - TWO_PI, starts)
    ends = starts + math.pi
    wrap = ends > TWO_PI
    ends = np.where(wrap, ends - TWO_PI, ends)
    lo = np.array([np.searchsorted(a, t, side="left") for a, t in zip(angles, starts)], dtype=np.intp)
    hi = np.array([np.searchsorted(a, t, side="right") for a, t in zip(angles, ends)], dtype=np.intp)
    lo, hi = lo.reshape(breaks.shape), hi.reshape(breaks.shape)
    counts = np.where(wrap, (live[:, None] - lo) + hi, hi - lo)
    least = np.where(evaluated, counts, sample.n).min(axis=1)
    return (sample.n - live) + np.where(live > 0, least, 0)


def depth_exact_2d(q, sample: Sample) -> DepthValue:
    """Exact planar depth by a rotating sweep over critical angles
    (Rousseeuw & Ruts 1996); see depth_exact_2d_many."""
    count = depth_exact_2d_many(np.reshape(q, (1, -1)), sample)[0]
    return DepthValue(count=int(count), n=sample.n)


def _brute_candidates(y: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Candidate normals: null directions of <= d-1 point subsets, nudged off contact."""
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
                if nv <= 1e-10 * max(1.0, np.linalg.norm(row)):
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
    if sample.dim == 1:
        return depth_1d(q[0], sample)
    y = sample.points - q
    norms = np.linalg.norm(y, axis=1)
    tol = TIE_RTOL * norms.max()
    on_query = norms <= tol
    if bool(on_query.all()):
        return DepthValue(count=sample.n, n=sample.n)
    normals = _brute_candidates(y, np.where(on_query, 0.0, norms))
    proj = y @ normals.T
    below = np.count_nonzero(proj <= tol, axis=0)
    above = np.count_nonzero(proj >= -tol, axis=0)
    best = int(min(below.min(), above.min()))
    return DepthValue(count=best, n=sample.n)


def depth_certified_many(
    queries, sample: Sample, cover: SphericalCover
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Certified depth counts for a (Q, d) block of queries from one cover pass.

    Returns (lower, upper, radius), one entry per query. With q at the
    origin, projections onto directions within psi of a cover center
    differ by at most R*psi, where R is the largest sample distance from
    q. The closed count at q.c over the centers upper-bounds the exact
    depth; the count at q.c - R*psi lower-bounds it. Every count is a
    binary search of a threshold into the sample's sorted projection onto
    a center, so a sample costs O(m n log n) once plus O(m log n) per query.
    """
    queries = np.asarray(queries, dtype=float)
    if queries.ndim != 2 or queries.shape[1] != sample.dim or cover.d != sample.dim:
        raise ValueError(
            f"dimension mismatch: sample d={sample.dim}, queries {queries.shape}, cover {cover.d}"
        )
    d, m = sample.dim, cover.centers.shape[0]
    radius = _query_radii(queries, sample)
    # Projections are taken about x0 = points[0]. (x - x0).c and (q - x0).c
    # are rounded separately, so their difference is off from the exact
    # (x - q).c by at most about (d + 1) u (|x - x0| + |q - x0|), u = eps / 2.
    # Rounding R and the thresholds adds at most (2 + (d + 5) psi) u
    # (|x - x0| + |q - x0|), and psi < pi / 2. With |x - x0| <= R + |q - x0|,
    # slack = 4 (d + 4) u (R + 2 |q - x0|) keeps each lower count below the
    # exact count at -R psi and each point on a boundary inside the upper
    # count, in any dimension, and scales with the spread of the data, not
    # with its offset.
    offset = queries - sample.points[0]
    slack = 2.0 * (d + 4) * np.finfo(float).eps * (radius + 2.0 * np.linalg.norm(offset, axis=1))
    at = offset @ cover.centers.T
    thresholds = np.empty((len(queries), 2, m), dtype=complex)
    thresholds.real = np.arange(m)
    thresholds.imag[:, 0] = at - (radius * cover.psi + slack)[:, None]
    thresholds.imag[:, 1] = at + (TIE_RTOL * radius + slack)[:, None]
    keys = sample._projection_keys(cover)
    counts = np.searchsorted(keys.reshape(-1), thresholds, side="right") - sample.n * np.arange(m)
    lower, upper = counts.min(axis=2).T
    return lower, upper, radius


def depth_approx(q, sample: Sample, cover: SphericalCover) -> DepthValue:
    """Depth minimized over the cover's directions only.

    Always an upper bound for the exact depth (the minimum over all
    directions); exact whenever the cover happens to contain a minimizing
    direction. It is the upper end of depth_certified.
    """
    _, upper, _ = depth_certified_many(np.reshape(q, (1, -1)), sample, cover)
    return DepthValue(count=int(upper[0]), n=sample.n)


def depth_certified(q, sample: Sample, cover: SphericalCover) -> DepthInterval:
    """Two-sided enclosure of the exact depth from a single cover pass;
    see depth_certified_many."""
    lower, upper, radius = depth_certified_many(np.reshape(q, (1, -1)), sample, cover)
    n = sample.n
    return DepthInterval(
        lower=int(lower[0]) / n, upper=int(upper[0]) / n, psi=cover.psi, radius=float(radius[0])
    )


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
    i = np.arange(1, n + 1, dtype=float)[:, None]
    below = f - (i - 1.0) / n
    above = np.subtract(i / n, f, out=f)
    return np.maximum(below, above, out=below).max(axis=0)


def sup_deviation(sample: Sample, dist: DistributionSpec, cover: SphericalCover | None) -> float:
    """Largest exact KS distance between projected sample and projected law.

    The maximum runs over the cover's directions (for d=1 over the single
    axis direction, where reflection gives the same statistic and no cover
    is needed). This is a lower estimate of the supremum over all
    directions; the gap is controlled by the cover radius and the
    distribution's Lipschitz constants.
    """
    if sample.dim != dist.d:
        raise ValueError(f"sample has dimension {sample.dim}, distribution has {dist.d}")
    if sample.dim == 1:
        axis = np.array([[1.0]])
        z = np.sort(sample.points, axis=0)
        f = cdf_projected_many(dist, axis, z)
        return float(_ks_per_column(f)[0])
    if cover is None:
        raise ValueError(f"a cover is required for d={sample.dim}")
    if cover.d != sample.dim:
        raise ValueError(f"cover has dimension {cover.d}, sample has {sample.dim}")
    z = np.sort(sample.points @ cover.centers.T, axis=0)
    f = cdf_projected_many(dist, cover.centers, z)
    return float(_ks_per_column(f).max())
