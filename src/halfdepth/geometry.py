"""Uniform directions and constructive coverings of the sphere.

Halfspace depth is a minimum over directions, so everything downstream
leans on two facts implemented here: projections onto nearby directions
differ by at most ``|x| * angle`` (chords are shorter than arcs), and the
sphere of directions can be covered by finitely many caps of a chosen
angular radius.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from decimal import Decimal

import numpy as np

# Unit-norm validation tolerance, relative to 1.
UNIT_NORM_RTOL = 1e-12

# Directions verify_cover samples per matrix product, bounding its memory.
_VERIFY_CHUNK = 20_000

# Largest dimension with an exact covering radius: Qhull's facet count grows
# like m^floor(d/2), so higher dimensions fall back to sampling.
_EXACT_RADIUS_MAX_D = 4

# Margin by which an exact radius must stay under psi to certify a cover;
# it absorbs the rounding of Qhull's facet offsets in the safe direction.
_RADIUS_ATOL = 1e-12

# Most centers build_cover allocates; a psi that needs more fails with a
# ValueError before any array is made.
_MAX_COVER_CENTERS = 1_000_000

# The ranges that _number checks, by the words of its message.
_WITHIN = {">= 1": lambda x: x >= 1, "positive": lambda x: x > 0, "nonnegative": lambda x: x >= 0}

# int() and float() read a bool as 1 or 0, so no number may be one.
_BOOLS = frozenset({bool, np.bool_})


def _number(name: str, value, integer: bool = False, within: str | None = None):
    """value (a number, a numeric string or a numpy scalar) as an int if
    integer, else a float, in the range _WITHIN[within]. Anything else, a
    bool included, raises a ValueError that names the field."""
    try:
        if type(value) in _BOOLS:
            raise TypeError
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must be a number, got {value!r}") from None
    if integer:
        if not number.is_integer():
            raise ValueError(f"{name} must be an integer, got {number}")
        # float() rounds an integer past 2^53; int() and Decimal keep every digit
        number = int(Decimal(value)) if isinstance(value, str) else int(value)
    if within is not None and not _WITHIN[within](number):
        raise ValueError(f"{name} must be {within}, got {number}")
    return number


def _points(name: str, value, width: int | None = None, rows: int = 1) -> np.ndarray:
    """value as a 2-d float array of points: at least rows rows, width
    columns when given (else at least one), every entry finite. Anything
    else raises a ValueError that names the array, the coordinate count
    expected and what was given. A float array comes back as it is, not
    copied."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is None or arr.ndim != 2 or len(arr) < rows or not arr.shape[1]:
        given = repr(value) if arr is None else f"shape {arr.shape}"
        cols = "d >= 1" if width is None else width
        raise ValueError(f"{name} must be an (n, {cols}) array of numbers with n >= {rows}, got {given}")
    if width is not None and arr.shape[1] != width:
        raise ValueError(f"{name} has {arr.shape[1]} coordinates, expected {width}")
    if not np.isfinite(arr).all():
        row = int(np.argmin(np.isfinite(arr).all(axis=1)))
        at = f" in row {row}" if len(arr) > 1 else ""
        raise ValueError(f"{name} has a non-finite coordinate{at}: {arr[row].tolist()}")
    return arr


# Dot products of unit vectors can land just outside [-1, 1] after
# floating-point rounding; clamp before arccos.
def _safe_arccos(x):
    return np.arccos(np.clip(x, -1.0, 1.0))


def max_cover_radius(d: int) -> float:
    """Largest admissible cap radius for covers of S^(d-1): arccos(d^-1/2)."""
    if d < 2:
        raise ValueError(f"covers require dimension >= 2, got d={d}")
    return math.acos(d ** -0.5)


@dataclass(frozen=True, eq=False)
class SphericalCover:
    """A finite set of directions meant to cover S^(d-1) at cap radius psi.

    The constructor only checks the centers (``_points``: a nonempty,
    finite (m, d) array), their unit norms and the admissible psi range.
    Covers from ``build_cover`` cover by construction, proven in closed
    form in every dimension, with no hull computed. A cover from
    elsewhere is checked by ``verify_cover``: exactly from the convex hull
    of the centers (``cover_radius``) for d <= 4, statistically by sampled
    directions above that.

    mirror is the number h of leading centers whose exact negations are
    the next h centers, centers[h:2h] == -centers[:h], with h = m // 2; it
    is 0 when they are not (any d=2 cover from build_cover, or shuffled
    centers). Every build_cover cover in d >= 3 is such a mirror [H; -H],
    and a loaded one keeps it, since the constructor finds it. Projections
    multiply and sort only ``unmirrored``, H and any unpaired rest, and
    take each -c row as the exact negation of its c row.
    """

    centers: np.ndarray
    psi: float
    mirror: int = field(default=0, init=False)

    def __post_init__(self):
        arr = _points("centers", self.centers).copy()
        d = arr.shape[1]
        psi = _number("psi", self.psi)
        if not (0.0 < psi < max_cover_radius(d)):
            raise ValueError(
                f"cover radius {psi} outside (0, arccos(d^-1/2)) = (0, {max_cover_radius(d):.6f}) for d={d}"
            )
        norms = np.linalg.norm(arr, axis=1)
        bad = np.nonzero(np.abs(norms - 1.0) > UNIT_NORM_RTOL)[0]
        if bad.size:
            raise ValueError(f"center {bad[0]} has norm {norms[bad[0]]!r}, expected 1")
        arr.setflags(write=False)
        half = len(arr) // 2
        object.__setattr__(self, "centers", arr)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "mirror", half if half and np.array_equal(arr[half:2 * half], -arr[:half]) else 0)

    @property
    def d(self) -> int:
        return int(self.centers.shape[1])

    @property
    def n_centers(self) -> int:
        return int(self.centers.shape[0])

    @property
    def unmirrored(self) -> np.ndarray:
        """The centers a projection computes: the first mirror centers and
        the unpaired rest after their negations (every center when mirror
        is 0)."""
        h = self.mirror
        return np.concatenate((self.centers[:h], self.centers[2 * h:])) if h else self.centers

    def to_dict(self) -> dict:
        return {"d": self.d, "psi": self.psi, "centers": self.centers.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "SphericalCover":
        if not isinstance(data, dict):
            raise ValueError(f"cover dictionary must be an object, got {data!r}")
        for key in ("centers", "psi"):
            if key not in data:
                raise ValueError(f"cover dictionary needs {key}")
        cover = cls(data["centers"], data["psi"])
        if "d" in data and cover.d != data["d"]:
            raise ValueError(f"cover dictionary says d={data['d']} but centers have {cover.d} coordinates")
        return cover


@dataclass(frozen=True)
class CoverCheck:
    """Covering report: the largest gap over sampled directions, and the
    exact covering radius where one is computed (method "hull"); passed
    rests on the exact radius when there is one, else on the sampled gap.
    """

    max_gap: float
    passed: bool
    trials: int
    psi: float
    exact_radius: float | None = None
    method: str = "sampled"

    def to_dict(self) -> dict:
        return {
            "max_gap": self.max_gap,
            "pass": self.passed,
            "trials": self.trials,
            "psi": self.psi,
            "exact_radius": self.exact_radius,
            "method": self.method,
        }


def sample_directions(d: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform directions on S^(d-1) via normalized iid Gaussians, shape (size, d)."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    v = rng.standard_normal((size, d))
    norms = np.linalg.norm(v, axis=1)
    # A zero draw has probability zero; redraw defensively if it happens.
    while np.any(norms == 0.0):
        bad = norms == 0.0
        v[bad] = rng.standard_normal((int(bad.sum()), d))
        norms = np.linalg.norm(v, axis=1)
    return v / norms[:, None]


def verify_cover(
    cover: SphericalCover,
    trials: int,
    rng: np.random.Generator | None = None,
) -> CoverCheck:
    """Sample uniform directions and report the largest gap to the nearest center.

    For d <= 4 the report also carries the exact covering radius
    (``cover_radius``), and the cover passes when that radius is at most
    psi, less a 1e-12 rounding margin. Above that dimension it passes when
    every sampled direction lies within psi of some center: a statistical
    check, not a proof, for which trials around 1e5 are adequate at the
    cap radii used here. The sampled gap never exceeds the exact radius.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if rng is None:
        rng = np.random.default_rng(0)
    centers_t = cover.centers.T
    min_best_dot = 1.0
    remaining = int(trials)
    while remaining > 0:
        k = min(_VERIFY_CHUNK, remaining)
        g = sample_directions(cover.d, k, rng)
        best = (g @ centers_t).max(axis=1)
        min_best_dot = min(min_best_dot, float(best.min()))
        remaining -= k
    max_gap = float(_safe_arccos(min_best_dot))
    exact = cover_radius(cover.centers) if cover.d <= _EXACT_RADIUS_MAX_D else None
    return CoverCheck(
        max_gap=max_gap,
        passed=max_gap <= cover.psi if exact is None else _certifies(exact, cover.psi),
        trials=int(trials),
        psi=cover.psi,
        exact_radius=exact,
        method="sampled" if exact is None else "hull",
    )


def cover_radius(centers) -> float:
    """Exact covering radius of unit directions on S^(d-1), for d in {2, 3, 4}.

    The radius is the largest angle from any direction to its nearest
    center. When the convex hull of the centers holds the origin strictly
    inside it, the farthest directions are the outward facet normals, so
    the radius is arccos of the smallest facet distance from the origin.
    Otherwise a hyperplane through the origin has every center on one
    closed side, so the pole of the other side is at least pi/2 from every
    center; pi/2 is returned as that lower bound, which fails every
    admissible psi. Flat inputs and fewer than d + 1 centers land here.

    build_cover never calls it: its covers are proven in closed form. It
    checks the covers that users supply (verify_cover, check_exact_cover),
    and it is the one place that imports scipy.spatial for them.
    """
    from scipy.spatial import ConvexHull, QhullError

    arr = _points("centers", centers, rows=0)
    if not 2 <= arr.shape[1] <= _EXACT_RADIUS_MAX_D:
        raise ValueError(f"exact covering radius needs (m, d) centers with 2 <= d <= {_EXACT_RADIUS_MAX_D}")
    try:
        offsets = -ConvexHull(arr).equations[:, -1]
    except QhullError:
        return math.pi / 2.0
    nearest = float(offsets.min())
    if nearest <= 0.0:
        return math.pi / 2.0
    return math.acos(min(nearest, 1.0))


def _certifies(radius: float, psi: float) -> bool:
    return radius <= psi - _RADIUS_ATOL


def check_exact_cover(cover: SphericalCover) -> None:
    """Raise ValueError unless the cover passes verify_cover's exact rule:
    its exact covering radius is at most psi, less 1e-12. Only d <= 4 has
    an exact radius, so a cover of a higher dimension is refused."""
    if cover.d > _EXACT_RADIUS_MAX_D:
        raise ValueError(f"no exact covering radius is computed for d={cover.d} (only d <= {_EXACT_RADIUS_MAX_D})")
    radius = cover_radius(cover.centers)
    if not _certifies(radius, cover.psi):
        raise ValueError(f"its exact covering radius {radius:.6g} exceeds psi {cover.psi:g} less {_RADIUS_ATOL:g}")


def _libm(fn, x, *consts) -> np.ndarray:
    """fn(element, *consts) for every element of x, as a float array of x's shape.

    Each call goes through Python's math (libm): numpy's vectorised exp,
    log and power are not bit-identical to libm, so array code that must
    match the scalar formulas takes its transcendentals from here.
    """
    x = np.asarray(x)
    values = map(fn, x.ravel().tolist(), *(itertools.repeat(c) for c in consts))
    return np.fromiter(values, float, x.size).reshape(x.shape)


def log_covering_count(d: int, psi):
    """Log of the covering lemma's cap count at unit leading constant:
    log((sqrt(d)/psi)^(d-1) (d-1)^(3/2) ln d), for d >= 2 and psi > 0
    (a float, or an array of them).

    The bounds' covering route multiplies the count by its constant c2.
    build_cover does not use it: its constructions have their own counts.
    """
    return (d - 1) * (0.5 * math.log(d) - _libm(math.log, psi)) + 1.5 * math.log(d - 1) + math.log(math.log(d))


def build_cover(
    d: int,
    psi: float,
    rng: np.random.Generator | None = None,
) -> SphericalCover:
    """Construct a cover of S^(d-1) by caps of radius psi, proven in every d.

    d=2 uses exactly ceil(pi/psi)+1 equally spaced angles, which covers the
    circle deterministically (covering radius pi/m, no check needed).

    d=3 uses zonal rings, with psi' = psi - 1e-12 and colatitudes in
    [0, pi]. The two poles cover colatitude <= psi' and >= pi - psi'.
    B = ceil((pi - 2 psi') / (sqrt(2) psi')) bands of height
    h = (pi - 2 psi') / B span [psi', pi - psi']. The band [a, b] gets
    one ring at colatitude c = arccos(cos psi' (sin b - sin a) / sin h),
    which makes both band edges equally hard, holding k >= 2 equally
    spaced centers, with k = max over t in {a, b} of ceil(pi / w(t)) and
    w(t) = arccos((cos psi' - cos t cos c) / (sin t sin c)), the widest
    longitude half-angle that keeps colatitude t within psi' of the
    center. Each center's cell [a, b] x [-pi/k, pi/k] about its longitude
    is farthest from it at a corner: the angle to the center grows with
    |longitude|, and on the edge meridian the cosine of that angle is
    A cos t + beta sin t with beta = sin c cos(pi/k) >= 0, which has no
    interior minimum on [0, pi]. Every corner lies within psi' by the
    choice of k, so no hull is computed. The proof holds band by band and
    does not change under rotation about the axis, so the southern half
    is the exact negation of the northern one: the band mirrored about
    the equator, [pi - b, pi - a], has its ring at colatitude pi - c with
    the same k, at longitudes shifted by pi. When B is odd, the middle
    band is its own mirror; its k is rounded up to an even number, so its
    first k/2 centers and their negations make the whole ring. The cover
    is [H; -H], H the north pole, the northern rings from longitude 0 and
    half the middle ring (72, 162 and 640 centers at psi = 0.3, 0.2 and
    0.1).

    d>=4 uses the cell-centred k^(d-1) grid on each of the 2d faces of the
    cube [-1, 1]^d, normalised: 2d k^(d-1) centers, with
    k = ceil(sqrt(d-1) / (2 tan((psi - 1e-12)/2))). For a unit vector u
    with largest coordinate |u_j|, the point u/|u_j| lies on a face, within
    sqrt(d-1)/k of a cell centre; both lie on a hyperplane at distance 1
    from the origin, so their angle is at most 2 arctan(sqrt(d-1)/(2k)),
    which k keeps under psi - 1e-12. The d faces with a +1 coordinate come
    first, then their exact negations, the faces with a -1 coordinate.

    Every cover in d >= 3 is thus an exact mirror, recorded in its
    ``mirror``, which halves the projections of a sample onto it.

    No construction consumes randomness. A psi whose cover would need more
    than _MAX_COVER_CENTERS centers raises ValueError before any array is
    allocated.

    Parameters
    ----------
    d : int
        Ambient dimension, >= 2.
    psi : float
        Cap radius, in (0, arccos(d^-1/2)).
    rng : numpy.random.Generator, optional
        Accepted for callers that still pass one, and ignored: the result is
        the same for every rng.
    """
    limit = max_cover_radius(d)
    if not (0.0 < psi < limit):
        raise ValueError(f"cover radius {psi} outside (0, {limit:.6f}) for d={d}")
    # Any cover needs the pi/psi caps that cover one great circle, so this
    # rejects the smallest psi before a count below is formed from it.
    _check_size(d, psi, math.pi / psi)
    if d == 2:
        count = int(math.ceil(math.pi / psi)) + 1
        _check_size(d, psi, count)
        angles = 2.0 * math.pi * np.arange(count) / count
        centers = np.column_stack([np.cos(angles), np.sin(angles)])
        return SphericalCover(centers, psi)
    if d == 3:
        return SphericalCover(_zonal_cover(psi), psi)
    side = math.ceil(math.sqrt(d - 1) / (2.0 * math.tan((psi - _RADIUS_ATOL) / 2.0)))
    _check_size(d, psi, 2 * d * side ** (d - 1))
    return SphericalCover(_cube_face_grid(d, side), psi)


def _check_size(d: int, psi: float, count: int | float) -> None:
    # Decimal formats counts of any size, where float() would overflow.
    if count > _MAX_COVER_CENTERS:
        raise ValueError(
            f"a cover of S^{d - 1} (d={d}) at psi={psi} would need {Decimal(count):.4g} centers, "
            f"more than the cap of {_MAX_COVER_CENTERS}; choose a larger psi"
        )


def _cube_face_grid(d: int, side: int) -> np.ndarray:
    """Cell centres (2i+1)/side - 1 of every face of [-1, 1]^d, normalised:
    the d faces with a +1 coordinate, then their exact negations."""
    ticks = (2.0 * np.arange(side) + 1.0) / side - 1.0
    face = np.stack(np.meshgrid(*([ticks] * (d - 1)), indexing="ij"), axis=-1).reshape(-1, d - 1)
    half = np.vstack([np.insert(face, j, 1.0, axis=1) for j in range(d)])
    half /= np.linalg.norm(half, axis=1)[:, None]
    return np.vstack([half, -half])


def _zonal_cover(psi: float) -> np.ndarray:
    """Centers of the d=3 zonal cover, [H; -H]: H holds the north pole,
    then per northern band k equally spaced centers on one ring from
    longitude 0, then, when the band count is odd, the first half of the
    middle ring, whose k is even. build_cover documents the construction
    and its proof."""
    # Fewer than 2/(1 - cos psi) caps of radius psi cannot cover the sphere's
    # area, which bounds the number of bands before they are formed.
    _check_size(3, psi, math.ceil(2.0 / (1.0 - math.cos(psi))))
    radius = psi - _RADIUS_ATOL
    span = math.pi - 2.0 * radius
    bands = math.ceil(span / (math.sqrt(2.0) * radius))
    height = span / bands
    rings = []
    for j in range((bands + 1) // 2):
        a, b = radius + j * height, radius + (j + 1) * height
        c = math.acos(math.cos(radius) * (math.sin(b) - math.sin(a)) / math.sin(height))
        # the widest longitude half-angle that keeps the corner at colatitude t within radius
        widths = [math.acos((math.cos(radius) - math.cos(t) * math.cos(c)) / (math.sin(t) * math.sin(c)))
                  for t in (a, b)]
        k = max(2, *(math.ceil(math.pi / w) for w in widths))
        middle = 2 * j + 1 == bands
        rings.append((c, k + k % 2 if middle else k, middle))
    _check_size(3, psi, 2 + sum(k if middle else 2 * k for _, k, middle in rings))
    parts = [np.array([[0.0, 0.0, 1.0]])]
    for c, k, middle in rings:
        lon = 2.0 * math.pi * np.arange(k // 2 if middle else k) / k
        ring = [math.sin(c) * np.cos(lon), math.sin(c) * np.sin(lon), np.full(lon.size, math.cos(c))]
        parts.append(np.column_stack(ring))
    half = np.vstack(parts)
    return np.vstack([half, -half])
