"""Evaluators for the convergence-rate bounds on uniform depth deviation.

Two routes bound Pr(sup over directions and thresholds of |F_n - F| > eps):
a VC shatter-count route with coefficient growing like n^(2d+2), and a
covering route (finitely many directions, a DKW bound per direction, a
Lipschitz bridge between directions, and a radial tail cutoff) whose
coefficient grows like n^(3(d-1)/2). Every evaluator returns a BoundReport
that records preconditions, intermediate quantities, and whether the
result says anything at all (a probability lower bound <= 0, or a
deviation upper bound >= 1, is vacuous but never an error).

All products of large coefficients with tiny exponentials are evaluated
in log space, so sweeps over extreme parameters stay finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Mapping

import numpy as np

from .population import DistributionSpec

# exp() clamp: beyond this the penalty is astronomically vacuous anyway,
# and clamping keeps sweep outputs finite and comparable.
_EXP_CLAMP = 700.0

_SQRT_2PI = math.sqrt(2.0 * math.pi)

BOUND_KINDS = ("vc1", "vc2", "dkw", "prop-r-delta", "cor-delta", "theorem", "bivariate")


def _exp_clamped(z: float) -> float:
    return math.exp(min(z, _EXP_CLAMP))


@dataclass(frozen=True)
class Precondition:
    """One recorded validity condition: satisfied iff lhs < rhs."""

    name: str
    satisfied: bool
    lhs: float
    rhs: float

    def to_dict(self) -> dict:
        return {"name": self.name, "satisfied": self.satisfied, "lhs": self.lhs, "rhs": self.rhs}


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one bound evaluation.

    bound_type is "probability_lower" (value lower-bounds Pr(sup <= eps))
    or "deviation_upper" (value upper-bounds Pr(sup > eps)). vacuous marks
    values with no content; applicable is the conjunction of the recorded
    preconditions. Values are still computed when preconditions fail.
    """

    kind: str
    bound_type: str
    value: float
    vacuous: bool
    applicable: bool
    preconditions: tuple[Precondition, ...]
    intermediates: Mapping[str, float]
    caveats: tuple[str, ...] = ()

    def exceedance_bound(self) -> float:
        """The implied upper bound on Pr(sup > eps), clipped into [0, 1]."""
        raw = self.value if self.bound_type == "deviation_upper" else 1.0 - self.value
        return float(min(1.0, max(0.0, raw)))

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

    lam, c1 describe the radial tail envelope c1 * R^(3d-5) * e^(-lam R^2/2);
    lpi bounds every projected density; ltheta the direction-Lipschitz
    constant of the projected CDF family; c2 is the covering-count leading
    constant (default 1, uncalibrated, and reported in every evaluation).
    r and delta are the free radius and margin parameters where required.
    """

    n: int
    eps: float
    d: int = 2
    lam: float = 1.0
    c1: float = 1.0
    lpi: float = 1.0 / _SQRT_2PI
    ltheta: float = 0.0
    c2: float = 1.0
    r: float | None = None
    delta: float | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not (0.0 < self.eps <= 1.0):
            raise ValueError(f"eps must be in (0, 1], got {self.eps}")
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


def shatter_upper(r: int, d: int) -> float:
    """Upper bound (3/2) r^(d+1) / (d+1)! on halfspace subset counts."""
    if r < 1 or d < 1:
        raise ValueError(f"need r >= 1 and d >= 1, got r={r}, d={d}")
    return 1.5 * float(r) ** (d + 1) / math.factorial(d + 1)


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


def _log_shatter(r: int, d: int, exact_m: bool) -> tuple[float, float]:
    """(log m, m clamped to float) for the chosen shatter count."""
    if exact_m:
        if d != 2:
            raise ValueError("the exact planar subset count applies only to d=2")
        m = shatter_exact_2d(r)
        return math.log(m), float(m)
    log_m = math.log(1.5) + (d + 1) * math.log(r) - math.lgamma(d + 2)
    return log_m, _exp_clamped(log_m)


def _vc_report(kind: str, params: BoundParams, r: int, exponent: float, exact_m: bool) -> BoundReport:
    log_m, m_value = _log_shatter(r, params.d, exact_m)
    log_value = math.log(4.0) + log_m + exponent
    value = _exp_clamped(log_value)
    return BoundReport(
        kind=kind,
        bound_type="deviation_upper",
        value=value,
        vacuous=value >= 1.0,
        applicable=True,
        preconditions=(),
        intermediates={
            "shatter_argument": float(r),
            "shatter_count": m_value,
            "exponent": exponent,
            "probability_lower_bound": 1.0 - value,
            "coefficient_degree": float(2 * params.d + 2),
            "exact_shatter_2d": 1.0 if exact_m else 0.0,
        },
        caveats=("asymptotic_in_n",),
    )


def vc_bound_double_sample(params: BoundParams, exact_m: bool = False) -> BoundReport:
    """Deviation bound 4 m(2n) exp(-n eps^2 / 8) from the double-sample trick."""
    if params.d < 2 and exact_m:
        raise ValueError("exact shatter count requires d=2")
    return _vc_report("vc1", params, 2 * params.n, -params.n * params.eps**2 / 8.0, exact_m)


def vc_bound_squared_sample(params: BoundParams, exact_m: bool = False) -> BoundReport:
    """Deviation bound 4 m(n^2) exp(-2 n eps^2), the sharper-exponent variant."""
    return _vc_report("vc2", params, params.n * params.n, -2.0 * params.n * params.eps**2, exact_m)


def dkw_bound(n: int, eps: float) -> float:
    """One-dimensional uniform CDF deviation bound 2 exp(-2 n eps^2)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if eps < 0:
        raise ValueError(f"eps must be nonnegative, got {eps}")
    return 2.0 * math.exp(-2.0 * n * eps * eps)


@dataclass(frozen=True)
class CoveringCount:
    """Cap counts needed to cover the sphere at radius psi, two forms.

    exact_form is the tighter expression
    c2 * (cos psi / sin^(d-1) psi) * (d-1)^(3/2) * ln(1 + (d-1) cos^2 psi);
    simplified is the looser closed form
    c2 * (sqrt(d)/psi)^(d-1) * (d-1)^(3/2) * ln(d), always at least as large.
    """

    exact_form: float
    simplified: float

    def to_dict(self) -> dict:
        return {"exact_form": self.exact_form, "simplified": self.simplified}


def covering_count(d: int, psi: float, c2: float = 1.0) -> CoveringCount:
    """Evaluate both covering-count forms; valid for 0 < psi < arccos(d^-1/2)."""
    if d < 2:
        raise ValueError(f"covering counts require d >= 2, got {d}")
    if c2 <= 0:
        raise ValueError(f"c2 must be positive, got {c2}")
    limit = math.acos(d ** -0.5)
    if not (0.0 < psi < limit):
        raise ValueError(f"psi {psi} outside (0, {limit:.6f}) for d={d}")
    cos_psi = math.cos(psi)
    sin_psi = math.sin(psi)
    exact = c2 * (cos_psi / sin_psi ** (d - 1)) * (d - 1) ** 1.5 * math.log1p((d - 1) * cos_psi**2)
    simplified = c2 * (math.sqrt(d) / psi) ** (d - 1) * (d - 1) ** 1.5 * math.log(d)
    return CoveringCount(exact_form=exact, simplified=simplified)


def _require(params: BoundParams, *names: str) -> None:
    for name in names:
        if getattr(params, name) is None:
            raise ValueError(f"this bound requires the parameter {name!r}")
    if params.d < 2:
        raise ValueError(f"the covering-route bounds require d >= 2, got d={params.d}")


def _cover_log_coef(params: BoundParams, psi_eff: float, sharp2d: bool) -> tuple[float, float]:
    """(log of 2*count, count) for the direction-cover penalty coefficient."""
    d = params.d
    if sharp2d:
        if d != 2:
            raise ValueError("sharp-2d mode applies only to d=2")
        count = math.pi / psi_eff + 1.0
        return math.log(2.0) + math.log(count), count
    log_count = (
        math.log(params.c2)
        + (d - 1) * (0.5 * math.log(d) - math.log(psi_eff))
        + 1.5 * math.log(d - 1)
        + math.log(math.log(d))
    )
    return math.log(2.0) + log_count, _exp_clamped(log_count)


def bound_free_params(params: BoundParams, sharp2d: bool = False) -> BoundReport:
    """Probability lower bound with both the tail radius R and margin delta free.

    value = 1 - 2 * count(psi_eff) * exp(-2 n eps^2 / (1+delta)^2)
              - c1 * n * R^(3d-5) * exp(-lam R^2 / 2)
    where psi_eff = eps * delta / ((1+delta) * (ltheta + lpi * R)) is the
    cover radius induced by the Lipschitz bridge. Valid when psi_eff is an
    admissible cover radius and R > 1. sharp2d replaces the generic cover
    count with the exact circle count pi/psi + 1 and the tail envelope
    with the exact planar Gaussian tail n * exp(-lam R^2 / 2).
    """
    _require(params, "r", "delta")
    n, eps, d = params.n, params.eps, params.d
    r, delta = params.r, params.delta
    psi_eff = eps * delta / ((1.0 + delta) * (params.ltheta + params.lpi * r))
    limit = math.acos(d ** -0.5)
    pre = (
        Precondition("cover_radius_in_range", psi_eff < limit, psi_eff, limit),
        Precondition("tail_radius_above_one", r > 1.0, 1.0, r),
    )
    exponent_cover = -2.0 * n * eps * eps / (1.0 + delta) ** 2
    log_cover_coef, count = _cover_log_coef(params, psi_eff, sharp2d)
    pen_cover = _exp_clamped(log_cover_coef + exponent_cover)
    exponent_tail = -params.lam * r * r / 2.0
    if sharp2d:
        log_tail_coef = math.log(n)
    else:
        log_tail_coef = math.log(params.c1) + math.log(n) + (3 * d - 5) * math.log(r)
    pen_tail = _exp_clamped(log_tail_coef + exponent_tail)
    value = 1.0 - pen_cover - pen_tail
    return BoundReport(
        kind="prop-r-delta",
        bound_type="probability_lower",
        value=value,
        vacuous=value <= 0.0,
        applicable=all(p.satisfied for p in pre),
        preconditions=pre,
        intermediates={
            "psi_eff": psi_eff,
            "cover_count": count,
            "cover_penalty": pen_cover,
            "tail_penalty": pen_tail,
            "cover_exponent": exponent_cover,
            "tail_exponent": exponent_tail,
            "C2": params.c2,
            "R": r,
            "delta": delta,
        },
    )


def _balanced_radius(params: BoundParams, delta: float) -> float:
    """R equating the tail exponential with the per-direction one."""
    return 2.0 * params.eps * math.sqrt(params.n) / (math.sqrt(params.lam) * (1.0 + delta))


def bound_balanced_tail(params: BoundParams, sharp2d: bool = False) -> BoundReport:
    """Probability lower bound with R chosen to equate both exponentials.

    Substituting R = 2 eps sqrt(n) / (sqrt(lam) (1+delta)) merges the two
    penalties under exp(-2 n eps^2 / (1+delta)^2):

    value = 1 - (2 * count + c1 * (2 eps / (sqrt(lam)(1+delta)))^(3d-5)
                 * n^(3(d-1)/2)) * exp(-2 n eps^2 / (1+delta)^2)

    This is evaluated from its own algebraic form and agrees with
    bound_free_params at the substituted R to floating-point accuracy.
    """
    _require(params, "delta")
    n, eps, d, delta = params.n, params.eps, params.d, params.delta
    lam_root = math.sqrt(params.lam)
    r_sub = _balanced_radius(params, delta)
    psi_eff = eps * delta / ((1.0 + delta) * (params.ltheta + params.lpi * r_sub))
    limit = math.acos(d ** -0.5)
    pre = (
        Precondition("cover_radius_in_range", psi_eff < limit, psi_eff, limit),
        Precondition("balanced_radius_above_one", 2.0 * eps * math.sqrt(n) > lam_root * (1.0 + delta),
                     lam_root * (1.0 + delta), 2.0 * eps * math.sqrt(n)),
    )
    exponent = -2.0 * n * eps * eps / (1.0 + delta) ** 2
    if sharp2d:
        log_cover_coef, count = _cover_log_coef(params, psi_eff, True)
        log_tail_coef = math.log(n)
    else:
        log_cover_coef = (
            math.log(2.0)
            + math.log(params.c2)
            + (d - 1)
            * math.log((params.ltheta * lam_root * (1.0 + delta) + 2.0 * params.lpi * math.sqrt(n) * eps)
                       * math.sqrt(d) / (eps * delta * lam_root))
            + 1.5 * math.log(d - 1)
            + math.log(math.log(d))
        )
        count = _exp_clamped(log_cover_coef - math.log(2.0))
        log_tail_coef = (
            math.log(params.c1)
            + (3 * d - 5) * (math.log(2.0 * eps) - math.log(lam_root * (1.0 + delta)))
            + 1.5 * (d - 1) * math.log(n)
        )
    pen_cover = _exp_clamped(log_cover_coef + exponent)
    pen_tail = _exp_clamped(log_tail_coef + exponent)
    value = 1.0 - pen_cover - pen_tail
    return BoundReport(
        kind="cor-delta",
        bound_type="probability_lower",
        value=value,
        vacuous=value <= 0.0,
        applicable=all(p.satisfied for p in pre),
        preconditions=pre,
        intermediates={
            "psi_eff": psi_eff,
            "cover_count": count,
            "cover_penalty": pen_cover,
            "tail_penalty": pen_tail,
            "exponent": exponent,
            "C2": params.c2,
            "balanced_radius": r_sub,
            "delta": delta,
        },
    )


def bound_parameter_free(params: BoundParams, sharp2d: bool = False) -> BoundReport:
    """Fully explicit probability lower bound, margin fixed at delta = 1/n.

    value = 1 - (2 c2 ((ltheta sqrt(lam) (n+1) + 2 lpi n^(3/2) eps) sqrt(d)
                 / (eps sqrt(lam)))^(d-1) (d-1)^(3/2) ln d
               + c1 (2 eps n / (sqrt(lam)(n+1)))^(3d-5) n^(3(d-1)/2))
              * e^4 * exp(-2 n eps^2)

    The relaxed exponential e^4 exp(-2 n eps^2) upper-bounds
    exp(-2 n eps^2 (1+1/n)^-2) for eps <= 1, so this value never exceeds
    the delta = 1/n balanced-tail value (both are reported).
    """
    _require(params)
    n, eps, d = params.n, params.eps, params.d
    lam_root = math.sqrt(params.lam)
    delta = 1.0 / n
    r_th = _balanced_radius(params, delta)
    psi_eff = eps / ((n + 1.0) * (params.ltheta + params.lpi * r_th))
    limit = math.acos(d ** -0.5)
    pre = (
        Precondition("cover_radius_in_range", psi_eff < limit, psi_eff, limit),
        Precondition("balanced_radius_above_one", 2.0 * eps * n ** 1.5 > lam_root * (n + 1.0),
                     lam_root * (n + 1.0), 2.0 * eps * n ** 1.5),
    )
    exponent = 4.0 - 2.0 * n * eps * eps
    if sharp2d:
        log_cover_coef, count = _cover_log_coef(params, psi_eff, True)
        log_tail_coef = math.log(n)
    else:
        log_cover_coef = (
            math.log(2.0)
            + math.log(params.c2)
            + (d - 1)
            * math.log((params.ltheta * lam_root * (n + 1.0) + 2.0 * params.lpi * n ** 1.5 * eps)
                       * math.sqrt(d) / (eps * lam_root))
            + 1.5 * math.log(d - 1)
            + math.log(math.log(d))
        )
        count = _exp_clamped(log_cover_coef - math.log(2.0))
        log_tail_coef = (
            math.log(params.c1)
            + (3 * d - 5) * (math.log(2.0 * eps * n) - math.log(lam_root * (n + 1.0)))
            + 1.5 * (d - 1) * math.log(n)
        )
    pen_cover = _exp_clamped(log_cover_coef + exponent)
    pen_tail = _exp_clamped(log_tail_coef + exponent)
    value = 1.0 - pen_cover - pen_tail
    strict = bound_balanced_tail(replace(params, delta=delta), sharp2d=sharp2d)
    return BoundReport(
        kind="theorem",
        bound_type="probability_lower",
        value=value,
        vacuous=value <= 0.0,
        applicable=all(p.satisfied for p in pre),
        preconditions=pre,
        intermediates={
            "psi_eff": psi_eff,
            "cover_count": count,
            "cover_penalty": pen_cover,
            "tail_penalty": pen_tail,
            "exponent": exponent,
            "C2": params.c2,
            "balanced_radius": r_th,
            "delta": delta,
            "strict_delta_value": strict.value,
        },
    )


def bound_bivariate_normal(n: int, eps: float) -> float:
    """Fully explicit bound for the planar standard normal:

    1 - (2 sqrt(2 pi) n^(3/2) + n + 2) e^4 exp(-2 n eps^2).

    This is the parameter-free bound specialized with the exact circle
    covering count and the exact planar Gaussian tail.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not (0.0 < eps <= 1.0):
        raise ValueError(f"eps must be in (0, 1], got {eps}")
    coef = 2.0 * _SQRT_2PI * float(n) ** 1.5 + n + 2.0
    return 1.0 - _exp_clamped(math.log(coef) + 4.0 - 2.0 * n * eps * eps)


def improvement_factor(n: int, d: int) -> float:
    """Coefficient improvement n^((d+7)/2) of the covering route over the VC route.

    The VC coefficient degree is 2d+2 and the covering-route degree is
    3(d-1)/2; the difference is (d+7)/2 exactly.
    """
    if n < 1 or d < 2:
        raise ValueError(f"need n >= 1 and d >= 2, got n={n}, d={d}")
    exponent = (2 * d + 2) - 1.5 * (d - 1)
    assert abs(exponent - (d + 7) / 2.0) < 1e-12
    return float(n) ** exponent


def _bivariate_report(params: BoundParams) -> BoundReport:
    pre = (Precondition("planar", params.d == 2, float(params.d), 2.0 + 1e-9),)
    value = bound_bivariate_normal(params.n, params.eps)
    return BoundReport(
        kind="bivariate",
        bound_type="probability_lower",
        value=value,
        vacuous=value <= 0.0,
        applicable=params.d == 2,
        preconditions=pre,
        intermediates={
            "coefficient": 2.0 * _SQRT_2PI * float(params.n) ** 1.5 + params.n + 2.0,
            "exponent": 4.0 - 2.0 * params.n * params.eps**2,
        },
        caveats=("standard_bivariate_normal_only",),
    )


def _dkw_report(params: BoundParams) -> BoundReport:
    value = dkw_bound(params.n, params.eps)
    caveats = ("one_dimensional_statement",) if params.d > 1 else ()
    return BoundReport(
        kind="dkw",
        bound_type="deviation_upper",
        value=value,
        vacuous=value >= 1.0,
        applicable=True,
        preconditions=(),
        intermediates={"exponent": -2.0 * params.n * params.eps**2,
                       "probability_lower_bound": 1.0 - value},
        caveats=caveats,
    )


def evaluate_bound(
    kind: str,
    params: BoundParams,
    sharp2d: bool = False,
    exact_m: bool = False,
) -> BoundReport:
    """Evaluate one bound kind; kinds are listed in BOUND_KINDS."""
    if kind == "vc1":
        return vc_bound_double_sample(params, exact_m=exact_m)
    if kind == "vc2":
        return vc_bound_squared_sample(params, exact_m=exact_m)
    if kind == "dkw":
        return _dkw_report(params)
    if kind == "prop-r-delta":
        return bound_free_params(params, sharp2d=sharp2d)
    if kind == "cor-delta":
        return bound_balanced_tail(params, sharp2d=sharp2d)
    if kind == "theorem":
        return bound_parameter_free(params, sharp2d=sharp2d)
    if kind == "bivariate":
        return _bivariate_report(params)
    raise ValueError(f"unknown bound kind {kind!r}; expected one of {BOUND_KINDS}")
