"""Evaluators for the convergence-rate bounds on uniform depth deviation.

Two routes bound Pr(sup over directions and thresholds of |F_n - F| > eps):
a VC shatter-count route with coefficient growing like n^(2d+2), and a
covering route (finitely many directions, a DKW bound per direction, a
Lipschitz bridge between directions, and a radial tail cutoff) whose
coefficient grows like n^(3(d-1)/2). evaluate_bound(kind, params) is the
one entry. It returns a BoundReport that records preconditions,
intermediate quantities, and whether the result says anything at all (a
probability lower bound <= 0, or a deviation upper bound >= 1, is vacuous
but never an error).

BOUND_TABLE holds each kind's evaluator, the inputs it reads and the
dimension at which it is proven. The kinds, with m(r) the number of
subsets that halfspaces cut from r points, at most 1.5 r^(d+1) / (d+1)!,
or exactly r^2 - r + 2 in the plane (exact_m):

- vc1: Pr(sup > eps) <= 4 m(2n) exp(-n eps^2 / 8), the double-sample
  trick.
- vc2: Pr(sup > eps) <= 4 m(n^2) exp(-2 n eps^2), the sharper-exponent
  variant.
- dkw: Pr(sup > eps) <= 2 exp(-2 n eps^2), the one-dimensional uniform
  CDF deviation bound.
- prop-r-delta, with the tail radius R and the margin delta free:
  Pr(sup <= eps) >= 1 - 2 count(psi_eff) exp(-2 n eps^2 / (1+delta)^2)
                       - c1 n R^(3d-5) exp(-lam R^2 / 2),
  where psi_eff = eps delta / ((1+delta) (ltheta + lpi R)) is the cover
  radius that the Lipschitz bridge allows and count(psi) =
  c2 (sqrt(d)/psi)^(d-1) (d-1)^(3/2) ln d. It holds when psi_eff is an
  admissible cover radius and R > 1. sharp2d replaces the count with the
  exact circle count pi/psi + 1, and the tail envelope with the exact
  planar Gaussian tail n exp(-lam R^2 / 2).
- cor-delta: prop-r-delta at R = 2 eps sqrt(n) / (sqrt(lam) (1+delta)),
  where both penalties fall under exp(-2 n eps^2 / (1+delta)^2):
  1 - (2 count + c1 (2 eps / (sqrt(lam) (1+delta)))^(3d-5) n^(3(d-1)/2))
      * exp(-2 n eps^2 / (1+delta)^2).
- theorem: cor-delta at delta = 1/n with the relaxed exponential
  e^4 exp(-2 n eps^2), which is at least exp(-2 n eps^2 (1+1/n)^-2) for
  eps <= 1:
  1 - (2 c2 ((ltheta sqrt(lam) (n+1) + 2 lpi n^(3/2) eps) sqrt(d)
             / (eps sqrt(lam)))^(d-1) (d-1)^(3/2) ln d
       + c1 (2 eps n / (sqrt(lam) (n+1)))^(3d-5) n^(3(d-1)/2))
      * e^4 exp(-2 n eps^2).
  Both penalties share their coefficients with the delta = 1/n cor-delta
  value, reported as strict_delta_value, so this value never exceeds it.
- bivariate: the sharp-2d theorem for the planar standard normal,
  1 - (2 sqrt(2 pi) n^(3/2) + n + 2) e^4 exp(-2 n eps^2).

The evaluators work on arrays first: n and eps may be equal-shape arrays
(a grid of points), and one call evaluates every point, with array fields
in the report. A scalar n and eps is a one-point grid whose report holds
Python floats and bools. Arithmetic runs in numpy; every log, exp, power
and lgamma goes through Python's math one element at a time, so a grid
point has exactly the bits of its scalar evaluation.

All products of large coefficients with tiny exponentials are evaluated
in log space, so sweeps over extreme parameters stay finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .geometry import _libm, log_covering_count, max_cover_radius
from .population import SQRT_2PI, DistributionSpec

# exp() clamp: beyond this the penalty is astronomically vacuous anyway,
# and clamping keeps sweep outputs finite and comparable.
_EXP_CLAMP = 700.0


def _exp_clamped(z) -> np.ndarray:
    return _libm(math.exp, np.minimum(z, _EXP_CLAMP))


def _first(values, bad):
    """The first element of values where bad holds, as a Python scalar."""
    return np.asarray(values).flat[int(np.argmax(bad))].item()


@dataclass(frozen=True)
class Precondition:
    """One recorded validity condition: satisfied iff lhs < rhs."""

    name: str
    satisfied: bool | np.ndarray
    lhs: float | np.ndarray
    rhs: float | np.ndarray

    def to_dict(self) -> dict:
        return {"name": self.name, "satisfied": self.satisfied, "lhs": self.lhs, "rhs": self.rhs}


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one bound evaluation, at one point or over a grid.

    bound_type is "probability_lower" (value lower-bounds Pr(sup <= eps))
    or "deviation_upper" (value upper-bounds Pr(sup > eps)). vacuous marks
    values with no content; applicable is the conjunction of the recorded
    preconditions. Values are still computed when preconditions fail.
    For a grid, value, the flags, the preconditions' satisfied, lhs and
    rhs, and every intermediate are arrays of the grid's shape; for a
    scalar point they are Python floats and bools.
    """

    kind: str
    bound_type: str
    value: float | np.ndarray
    vacuous: bool | np.ndarray
    applicable: bool | np.ndarray
    preconditions: tuple[Precondition, ...]
    intermediates: Mapping[str, float | np.ndarray]
    caveats: tuple[str, ...] = ()

    def exceedance_bound(self):
        """The implied upper bound on Pr(sup > eps), clipped into [0, 1]."""
        raw = self.value if self.bound_type == "deviation_upper" else 1.0 - np.asarray(self.value)
        raw = np.where(raw > 0.0, raw, 0.0)
        clipped = np.where(raw < 1.0, raw, 1.0)
        return clipped if clipped.ndim else clipped.item()

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "bound_type": self.bound_type,
            "value": self.value,
            "vacuous": self.vacuous,
            "applicable": self.applicable,
            "preconditions": [p.to_dict() for p in self.preconditions],
            "intermediates": dict(self.intermediates),
            "caveats": list(self.caveats),
        }


@dataclass(frozen=True)
class BoundParams:
    """Inputs shared by the bound evaluators.

    n and eps are one point (an integer and a float) or a grid of points
    (equal-shape arrays); the grid is validated once, and its first bad
    point is named in the error. lam, c1 describe the radial tail envelope
    c1 * R^(3d-5) * e^(-lam R^2/2); lpi bounds every projected density;
    ltheta the direction-Lipschitz constant of the projected CDF family; c2
    is the covering-count leading constant (default 1, uncalibrated, and
    reported in every evaluation). r and delta are the free radius and
    margin parameters where required.
    """

    n: int | np.ndarray
    eps: float | np.ndarray
    d: int = 2
    lam: float = 1.0
    c1: float = 1.0
    lpi: float = 1.0 / SQRT_2PI
    ltheta: float = 0.0
    c2: float = 1.0
    r: float | None = None
    delta: float | None = None

    def __post_init__(self):
        n, eps = np.asarray(self.n), np.asarray(self.eps)
        if n.shape != eps.shape:
            raise ValueError(f"n and eps must have one shape, got {n.shape} and {eps.shape}")
        with np.errstate(invalid="ignore"):  # inf % 1 is nan, so inf is no integer either
            fractional = (n.dtype == bool) | (n % 1 != 0)
        bad_n = fractional | (n < 1)
        bad = bad_n | ~((0.0 < eps) & (eps <= 1.0))
        if bad.any():
            if _first(fractional, bad):
                raise ValueError(f"n must be an integer, got {_first(n, bad)}")
            if _first(bad_n, bad):
                raise ValueError(f"n must be >= 1, got {_first(n, bad)}")
            raise ValueError(f"eps must be in (0, 1], got {_first(eps, bad)}")
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        for name in ("lam", "c1", "lpi", "c2"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.ltheta < 0:
            raise ValueError(f"ltheta must be nonnegative, got {self.ltheta}")
        if self.delta is not None and self.delta <= 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if self.r is not None and self.r <= 0:
            raise ValueError(f"r must be positive, got {self.r}")

    @classmethod
    def from_distribution(cls, dist: DistributionSpec, n: int, eps: float, **kwargs) -> "BoundParams":
        return cls(
            n=n,
            eps=eps,
            d=dist.d,
            lam=dist.lam,
            c1=dist.c1,
            lpi=dist.lpi,
            ltheta=dist.ltheta,
            **kwargs,
        )


def _flat(params: BoundParams) -> tuple[np.ndarray, np.ndarray]:
    """(n, eps) as flat float arrays over the grid, point by point."""
    return np.ravel(params.n).astype(float), np.ravel(params.eps).astype(float)


def _report(params: BoundParams, kind: str, bound_type: str, value, pre, inter, caveats) -> BoundReport:
    """A report shaped like params' grid from flat per-point arrays and
    constants; a scalar point gets Python scalars."""
    shape = np.shape(params.n)
    size = math.prod(shape)

    def shaped(x):
        if not shape:
            return np.asarray(x).item()
        if np.ndim(x) == 0:
            return np.full(shape, x)
        return x if x.shape == shape else x.reshape(shape)

    applicable = np.ones(size, dtype=bool)
    for p in pre:
        applicable = applicable & p.satisfied
    return BoundReport(
        kind=kind,
        bound_type=bound_type,
        value=shaped(value),
        vacuous=shaped(value >= 1.0 if bound_type == "deviation_upper" else value <= 0.0),
        applicable=shaped(applicable),
        preconditions=tuple(Precondition(p.name, shaped(p.satisfied), shaped(p.lhs), shaped(p.rhs)) for p in pre),
        intermediates={key: shaped(x) for key, x in inter.items()},
        caveats=caveats,
    )


def shatter_exact_2d(r: int) -> int:
    """Exact maximal halfplane subset count in the plane: r^2 - r + 2."""
    if r < 1:
        raise ValueError(f"need r >= 1, got r={r}")
    return r * r - r + 2


def halfplane_subset_count(points) -> int:
    """Count the distinct subsets a closed halfplane can cut from the points.

    Enumerates the normals where the projection order can change (the
    perpendiculars of all point pairs), nudged to both sides, plus the
    exact tie normals, and collects the prefix subsets at every threshold
    between consecutive distinct projections. Requires the points to be in
    convex position (every point a hull vertex) so the exact r^2 - r + 2
    formula applies; intended as a small-n oracle.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"points must be an (n, 2) array, got shape {pts.shape}")
    n = pts.shape[0]
    if n > 12:
        raise ValueError(f"subset enumeration is for small n (<= 12), got {n}")
    if n >= 3:
        # scipy.spatial costs most of the package's import time and only
        # this oracle needs it.
        from scipy.spatial import ConvexHull, QhullError

        try:
            hull = ConvexHull(pts)
        except QhullError as exc:
            raise ValueError(f"points are not in convex position: {exc}") from None
        if len(hull.vertices) != n:
            raise ValueError(
                f"points are not in convex position: only {len(hull.vertices)} of {n} are hull vertices"
            )
    elif n == 2 and np.allclose(pts[0], pts[1]):
        raise ValueError("points are not in convex position: duplicate point")

    angles = [0.0123, 1.2345]  # generic fallbacks so n < 2 still enumerates
    for i, j in combinations(range(n), 2):
        diff = pts[j] - pts[i]
        base = math.atan2(diff[1], diff[0]) + 0.5 * math.pi
        for offset in (0.0, 1e-6, -1e-6):
            angles.append(base + offset)
            angles.append(base + math.pi + offset)
    subsets = set()
    for ang in angles:
        normal = np.array([math.cos(ang), math.sin(ang)])
        proj = pts @ normal
        distinct = np.unique(proj)
        thresholds = np.concatenate(
            [[distinct[0] - 1.0], 0.5 * (distinct[:-1] + distinct[1:]), [distinct[-1] + 1.0]]
        )
        for t in thresholds:
            subsets.add(frozenset(np.nonzero(proj <= t)[0].tolist()))
    return len(subsets)


def regular_polygon(r: int, radius: float = 1.0) -> np.ndarray:
    """Vertices of a regular r-gon on a circle, one vertex on the x-axis."""
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    ang = 2.0 * math.pi * np.arange(r) / r
    return radius * np.column_stack([np.cos(ang), np.sin(ang)])


def improvement_factor(n, d: int):
    """Coefficient improvement n^((d+7)/2) of the covering route over the VC route,
    at one n or over an array of them.

    The VC coefficient degree is 2d+2 and the covering-route degree is
    3(d-1)/2; the difference is (d+7)/2 exactly. Like every other bound
    quantity, the factor is clamped at e^700 once its log passes 700.
    """
    if d < 2 or np.any(np.less(n, 1)):
        raise ValueError(f"need n >= 1 and d >= 2, got n={_first(n, np.less(n, 1))}, d={d}")
    power = (d + 7) / 2
    clamped = power * _libm(math.log, n) > _EXP_CLAMP
    base = np.where(clamped, 1.0, np.asarray(n, dtype=float))
    factor = np.where(clamped, math.exp(_EXP_CLAMP), _libm(pow, base, power))
    return factor if factor.ndim else factor.item()


# Each evaluator below takes (params, sharp2d, exact_m) and returns
# (bound_type, value, preconditions, intermediates, caveats) as flat
# per-point arrays; evaluate_bound shapes them into the report. Its
# formula is in the module docstring.


def _vc(params: BoundParams, r: list[int], exponent, exact_m: bool) -> tuple:
    """The VC bound 4 m(r) e^exponent, with m the exact planar count when
    exact_m, at each shatter argument in r, a list of Python ints so the
    exact count stays exact."""
    if exact_m:
        m = [shatter_exact_2d(v) for v in r]
        log_m, m_value = _libm(math.log, m), _libm(float, m)
    else:
        log_m = math.log(1.5) + (params.d + 1) * _libm(math.log, r) - math.lgamma(params.d + 2)
        m_value = _exp_clamped(log_m)
    value = _exp_clamped(math.log(4.0) + log_m + exponent)
    inter = {
        "shatter_argument": _libm(float, r),
        "shatter_count": m_value,
        "exponent": exponent,
        "probability_lower_bound": 1.0 - value,
        "coefficient_degree": float(2 * params.d + 2),
        "exact_shatter_2d": 1.0 if exact_m else 0.0,
    }
    return "deviation_upper", value, (), inter, ("asymptotic_in_n",)


def _vc1(params: BoundParams, sharp2d: bool, exact_m: bool) -> tuple:
    n, eps = _flat(params)
    return _vc(params, [2 * v for v in np.ravel(params.n).tolist()], -n * _libm(pow, eps, 2) / 8.0, exact_m)


def _vc2(params: BoundParams, sharp2d: bool, exact_m: bool) -> tuple:
    n, eps = _flat(params)
    return _vc(params, [v * v for v in np.ravel(params.n).tolist()], -2.0 * n * _libm(pow, eps, 2), exact_m)


def _dkw(params: BoundParams, sharp2d: bool, exact_m: bool) -> tuple:
    n, eps = _flat(params)
    value = 2.0 * _libm(math.exp, -2.0 * n * eps * eps)
    inter = {"exponent": -2.0 * n * _libm(pow, eps, 2), "probability_lower_bound": 1.0 - value}
    return "deviation_upper", value, (), inter, ("one_dimensional_statement",) if params.d > 1 else ()


def _covering_route(params: BoundParams, delta, sharp2d: bool, r=None, relaxed: bool = False) -> tuple:
    """The covering-route bound at margin delta and tail radius r (each a
    float or per-point array): prop-r-delta's form.

    With no r, r is the balanced radius, where the tail exponential equals
    the per-direction one, so both penalties share one exponent. relaxed
    (balanced, delta = 1/n): both penalties take the relaxed exponent
    4 - 2 n eps^2, which is at least -2 n eps^2 / (1+1/n)^2 for eps <= 1.
    The value at the strict exponent, from the same log-coefficients, is
    kept as strict_delta_value, so the relaxed value never exceeds it.
    """
    n, eps = _flat(params)
    d = params.d
    balanced = r is None
    if balanced:
        r = 2.0 * eps * np.sqrt(n) / (math.sqrt(params.lam) * (1.0 + delta))
    psi_eff = eps * delta / ((1.0 + delta) * (params.ltheta + params.lpi * r))
    limit = max_cover_radius(d)
    pre = (
        Precondition("cover_radius_in_range", psi_eff < limit, psi_eff, limit),
        Precondition("balanced_radius_above_one" if balanced else "tail_radius_above_one", r > 1.0, 1.0, r),
    )
    # The penalties' log-coefficients: 2 * count and the tail envelope's.
    if sharp2d:
        count = math.pi / psi_eff + 1.0
        log_cover_coef = math.log(2.0) + _libm(math.log, count)
        log_tail_coef = _libm(math.log, n)
    else:
        log_count = math.log(params.c2) + log_covering_count(d, psi_eff)
        log_cover_coef, count = math.log(2.0) + log_count, _exp_clamped(log_count)
        log_tail_coef = math.log(params.c1) + _libm(math.log, n) + (3 * d - 5) * _libm(math.log, r)
    exponent = -2.0 * n * eps * eps / _libm(pow, 1.0 + delta, 2)
    tail_exponent = exponent if balanced else -params.lam * r * r / 2.0
    inter = {"psi_eff": psi_eff, "cover_count": count, "C2": params.c2, "delta": delta}
    if relaxed:
        inter["strict_delta_value"] = (
            1.0 - _exp_clamped(log_cover_coef + exponent) - _exp_clamped(log_tail_coef + exponent)
        )
        exponent = tail_exponent = 4.0 - 2.0 * n * eps * eps
    pen_cover = _exp_clamped(log_cover_coef + exponent)
    pen_tail = _exp_clamped(log_tail_coef + tail_exponent)
    value = 1.0 - pen_cover - pen_tail
    inter["cover_penalty"] = pen_cover
    inter["tail_penalty"] = pen_tail
    if balanced:
        inter["exponent"] = exponent
        inter["balanced_radius"] = r
    else:
        inter["cover_exponent"] = exponent
        inter["tail_exponent"] = tail_exponent
        inter["R"] = r
    return "probability_lower", value, pre, inter, ()


def _prop_r_delta(params: BoundParams, sharp2d: bool, exact_m: bool) -> tuple:
    return _covering_route(params, params.delta, sharp2d, r=params.r)


def _cor_delta(params: BoundParams, sharp2d: bool, exact_m: bool) -> tuple:
    return _covering_route(params, params.delta, sharp2d)


def _theorem(params: BoundParams, sharp2d: bool, exact_m: bool) -> tuple:
    return _covering_route(params, 1.0 / _flat(params)[0], sharp2d, relaxed=True)


def _bivariate(params: BoundParams, sharp2d: bool, exact_m: bool) -> tuple:
    """The sharp-2d theorem at BoundParams(n, eps, d=2), whose defaults are
    the standard normal's constants, whatever params' other fields."""
    _, value, _, inter, _ = _theorem(BoundParams(n=params.n, eps=params.eps, d=2), True, False)
    planar = Precondition("planar", params.d == 2, float(abs(params.d - 2)), 0.5)
    inter = {"coefficient": 2.0 * inter["cover_count"] + _flat(params)[0], "exponent": inter["exponent"]}
    return "probability_lower", value, (planar,), inter, ("standard_bivariate_normal_only",)


class BoundKind(NamedTuple):
    """One kind of BOUND_TABLE: its evaluator, the inputs beyond n, eps and
    d that it reads (BoundParams fields and evaluate_bound flags), and the
    dimension at which it is a proven bound that the harness enforces
    (None for the covering kinds, which carry the uncalibrated C2, and for
    bivariate, which holds only for the standard normal)."""

    evaluate: Callable[[BoundParams, bool, bool], tuple]
    reads: frozenset[str]
    proven_d: int | None


_COVERING = frozenset({"lam", "c1", "c2", "lpi", "ltheta", "sharp2d"})

# Every bound kind, in the order of BOUND_KINDS. With sharp2d, the
# covering kinds read neither c1 nor c2: the exact circle count and the
# planar Gaussian tail replace them.
BOUND_TABLE: Mapping[str, BoundKind] = {
    "vc1": BoundKind(_vc1, frozenset({"exact_m"}), 2),
    "vc2": BoundKind(_vc2, frozenset({"exact_m"}), 2),
    "dkw": BoundKind(_dkw, frozenset(), 1),
    "prop-r-delta": BoundKind(_prop_r_delta, _COVERING | {"r", "delta"}, None),
    "cor-delta": BoundKind(_cor_delta, _COVERING | {"delta"}, None),
    "theorem": BoundKind(_theorem, _COVERING, None),
    "bivariate": BoundKind(_bivariate, frozenset(), None),
}
BOUND_KINDS = tuple(BOUND_TABLE)


def evaluate_bound(
    kind: str,
    params: BoundParams,
    sharp2d: bool = False,
    exact_m: bool = False,
) -> BoundReport:
    """Evaluate one bound kind at every point of params' grid; kinds are
    listed in BOUND_KINDS, and BOUND_TABLE says what each one reads.

    One call serves a whole grid: the report's value, flags, preconditions
    and intermediates are arrays of the grid's shape, each element bit for
    bit the scalar evaluation at its point. A scalar params is a one-point
    grid whose report holds Python floats and bools. A flag or field that
    the kind does not read is ignored. A kind that reads r or delta needs
    it; one that reads c2 needs d >= 2; sharp2d and exact_m need d = 2
    where the kind reads them. Each of these raises ValueError before any
    point is evaluated.
    """
    if kind not in BOUND_KINDS:
        raise ValueError(f"unknown bound kind {kind!r}; expected one of {BOUND_KINDS}")
    entry = BOUND_TABLE[kind]
    for name in ("r", "delta"):
        if name in entry.reads and getattr(params, name) is None:
            raise ValueError(f"this bound requires the parameter {name!r}")
    if "c2" in entry.reads and params.d < 2:
        raise ValueError(f"the covering-route bounds require d >= 2, got d={params.d}")
    if sharp2d and "sharp2d" in entry.reads and params.d != 2:
        raise ValueError("sharp-2d mode applies only to d=2")
    if exact_m and "exact_m" in entry.reads and params.d != 2:
        raise ValueError("the exact planar subset count applies only to d=2")
    return _report(params, kind, *entry.evaluate(params, sharp2d, exact_m))
