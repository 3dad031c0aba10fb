"""Closed-form halfspace depth for Gaussian and elliptical Gaussian laws.

For a radially symmetric law the depth of q is the Gaussian CDF at -|q|;
an elliptical Gaussian reduces to that case through an affine whitening
map. Each distribution also carries the constants that drive the
deviation bounds: a radial tail decay rate, a projected-density bound,
and a direction-Lipschitz bound for the projected CDF family.

The normal CDF is _ndtr, Cephes' ndtr in Python floats and bit for bit
scipy.special.ndtr, so no depth or experiment loads scipy; _phi maps it
over an array, and _phi_interpolated is a cheap table bracket of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache, cached_property

import numpy as np

from .geometry import _libm, _number, _points

SQRT_2PI = math.sqrt(2.0 * math.pi)

# Symmetry check tolerance for covariance input, absolute on entries
# relative to the largest entry.
_SYMMETRY_RTOL = 1e-10


_SQRT1_2 = 0.70710678118654752440
# Cephes' MAXLOG, ln(DBL_MAX): erfc underflows to 0 past exp(-MAXLOG).
_MAXLOG = 7.09782712893383996843e2


def _ndtr(a: float) -> float:
    """The standard normal CDF at one float: Cephes' ndtr in Python floats.

    It is the same function as scipy.special.ndtr, bit for bit, because it
    makes the same IEEE operations in the same order and its one
    transcendental, math.exp, is libm's exp, which Cephes calls too. With
    x = a/sqrt(2) and z = |x|: below z = 1 it is 0.5 + 0.5 erf(x) with erf
    from T/U; from 1 up it is 0.5 erfc(z), or 1 less that for x > 0, with
    erfc(z) = exp(-z^2) P(z)/Q(z) below 8 and exp(-z^2) R(z)/S(z) from 8
    up, and 0 once z^2 > MAXLOG (|a| > 37.677). (Cephes' ndtr switches at
    z = 1/sqrt(2), and its erfc takes 1 - erf(z) below z = 1; on [1/sqrt(2),
    1) both forms round to the same double, so one switch suffices.) nan
    gives nan.
    """
    x = a * _SQRT1_2
    z = abs(x)
    if z < 1.0:
        s = x * x
        return 0.5 + 0.5 * (x * ((((9.60497373987051638749e0 * s + 9.00260197203842689217e1) * s
                                   + 2.23200534594684319226e3) * s + 7.00332514112805075473e3) * s
                                 + 5.55923013010394962768e4)
                            / (((((s + 3.35617141647503099647e1) * s + 5.21357949780152679795e2) * s
                                 + 4.59432382970980127987e3) * s + 2.26290000613890934246e4) * s
                               + 4.92673942608635921086e4))
    w = -z * z
    if w < -_MAXLOG:
        y = 0.0
    elif z < 8.0:
        y = 0.5 * (math.exp(w) * ((((((((2.46196981473530512524e-10 * z + 5.64189564831068821977e-1) * z
                                         + 7.46321056442269912687e0) * z + 4.86371970985681366614e1) * z
                                       + 1.96520832956077098242e2) * z + 5.26445194995477358631e2) * z
                                     + 9.34528527171957607540e2) * z + 1.02755188689515710272e3) * z
                                   + 5.57535335369399327526e2)
                   / ((((((((z + 1.32281951154744992508e1) * z + 8.67072140885989742329e1) * z
                           + 3.54937778887819891062e2) * z + 9.75708501743205489753e2) * z
                         + 1.82390916687909736289e3) * z + 2.24633760818710981792e3) * z
                       + 1.65666309194161350182e3) * z + 5.57535340817727675546e2))
    else:
        y = 0.5 * (math.exp(w) * (((((5.64189583547755073984e-1 * z + 1.27536670759978104416e0) * z
                                     + 5.01905042251180477414e0) * z + 6.16021097993053585195e0) * z
                                   + 7.40974269950448939160e0) * z + 2.97886665372100240670e0)
                   / ((((((z + 2.26052863220117276590e0) * z + 9.39603524938001434673e0) * z
                         + 1.20489539808096656605e1) * z + 1.70814450747565897222e1) * z
                       + 9.60896809063285878198e0) * z + 3.36907645100081516050e0))
    return 1.0 - y if x > 0 else y


def _phi(x) -> np.ndarray:
    """The standard normal CDF at every element of x, as a float array of
    x's shape (0-d for a scalar): _ndtr through geometry._libm."""
    return _libm(_ndtr, x)


# The linear interpolant of Phi on [-9, 9] at step h = 1/64 (1,153 nodes),
# which sup_deviation scores its KS terms with before it takes _ndtr at the
# few that can win. Phi'' = -t phi(t) is largest in size at t = 1, so
# between nodes the interpolant of Phi is off by at most
# h^2/8 phi(1) < 7.39e-6; outside [-9, 9] it is an end node, off by at
# most Phi(-9) < 1.2e-19. The 1e-12 absorbs the nodes' roundings, _ndtr's
# own error and np.interp's arithmetic, each below 1e-15. At this step
# sorted arguments a few hundredths apart fall in the cell np.interp
# guesses first; at h = 1/256 it bisected, and on fresh data cost twice
# as much, while the harness's n = 300 still takes exact Phi at one rank
# pair, rarely two or three.
_TABLE_STEP = 1.0 / 64.0
_TABLE_NODES = np.arange(-576, 577) * _TABLE_STEP
_TABLE_MARGIN = _TABLE_STEP * _TABLE_STEP / 8.0 * math.exp(-0.5) / SQRT_2PI + 1e-12


@cache
def _phi_table() -> np.ndarray:
    """_ndtr at _TABLE_NODES, computed once per process on first use."""
    table = _phi(_TABLE_NODES)
    table.setflags(write=False)
    return table


def _phi_interpolated(x) -> np.ndarray:
    """The table's interpolant of Phi at x, within _TABLE_MARGIN of _ndtr."""
    return np.interp(x, _TABLE_NODES, _phi_table())


@dataclass(frozen=True)
class DistributionSpec:
    """A population the harness can sample from and score against.

    family is "standard_normal" or "elliptical_normal". mu and sigma are
    checked by _law and carried as nested tuples of floats, sigma made
    exactly symmetric, so the value is hashable and immutable; use
    ``mu_array`` / ``sigma_array`` for numerics. lam, c1 bound the radial
    tail by c1 * R^(3d-5) * exp(-lam R^2 / 2); lpi bounds every projected
    density; ltheta bounds the change of the projected CDF per radian of
    direction change.
    """

    family: str
    d: int
    mu: tuple[float, ...]
    sigma: tuple[tuple[float, ...], ...]
    lam: float
    c1: float
    lpi: float
    ltheta: float

    def __post_init__(self):
        if self.family not in ("standard_normal", "elliptical_normal"):
            raise ValueError(f"unknown family {self.family!r}")
        for name, within in _SPEC_RANGES.items():
            object.__setattr__(self, name, _number(name, getattr(self, name), name == "d", within))
        mu, sigma, _ = _law(self.mu, self.sigma, self.d)
        object.__setattr__(self, "mu", tuple(mu.tolist()))
        object.__setattr__(self, "sigma", tuple(map(tuple, sigma.tolist())))

    @property
    def mu_array(self) -> np.ndarray:
        return np.asarray(self.mu, dtype=float)

    @property
    def sigma_array(self) -> np.ndarray:
        return np.asarray(self.sigma, dtype=float)

    @cached_property
    def reduction(self) -> "AffineReduction":
        """The whitening map of this law, computed on first use and kept."""
        return affine_reduce(self.sigma_array, self.mu_array)

    def to_dict(self) -> dict:
        return {
            "family": self.family, "d": self.d, "mu": list(self.mu), "sigma": [list(row) for row in self.sigma],
            **{key: getattr(self, field) for key, field in _CONSTANT_KEYS},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DistributionSpec":
        if not isinstance(data, dict):
            raise ValueError(f"distribution spec must be an object, got {data!r}")
        family = data.get("family")
        for key in ("family", "d", "mu", "sigma") if family == "elliptical_normal" else ("family", "d"):
            if key not in data:
                raise ValueError(f"distribution spec needs {key}")
        if family == "standard_normal":
            dist = standard_normal(data["d"])
        elif family == "elliptical_normal":
            dist = elliptical_normal(data["mu"], data["sigma"])
        else:
            raise ValueError(f"unknown family {family!r}")
        # the constructor checks d against mu, and each given constant
        return replace(dist, d=data["d"], **{field: data[key] for key, field in _CONSTANT_KEYS if key in data})


# The range of each numeric DistributionSpec field, which BoundParams shares.
_SPEC_RANGES = {"d": ">= 1", "lam": "positive", "c1": "positive", "lpi": "positive", "ltheta": "nonnegative"}

# The constants of a spec dictionary, as (key, DistributionSpec field).
_CONSTANT_KEYS = (("lambda", "lam"), ("C1", "c1"), ("Lpi", "lpi"), ("Ltheta", "ltheta"))


def standard_normal(d: int) -> DistributionSpec:
    """Standard normal in dimension d: lam=1, Lpi=1/sqrt(2 pi), Ltheta=0."""
    d = _number("d", d, True)  # DistributionSpec checks its range
    eye = tuple(tuple(1.0 if i == j else 0.0 for j in range(d)) for i in range(d))
    return DistributionSpec(
        family="standard_normal",
        d=d,
        mu=(0.0,) * d,
        sigma=eye,
        lam=1.0,
        c1=1.0,
        lpi=1.0 / SQRT_2PI,
        ltheta=0.0,
    )


def _law(mu, sigma, d: int | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one check of a law's mean and covariance: mu, a finite vector of
    d coordinates (of its own length when d is None), and sigma, a finite
    d x d covariance, symmetric within _SYMMETRY_RTOL of its largest entry
    (or of 1) and positive definite. Returns mu, sigma made exactly
    symmetric, and its eigenvalues in ascending order; anything else raises
    a ValueError that names mu or sigma."""
    mu = _points("mu", np.reshape(mu, (1, -1)), d)[0]
    d = mu.size
    sigma = _points("sigma", sigma, d)
    if len(sigma) != d:
        raise ValueError(f"sigma must be {d}x{d}, got shape {sigma.shape}")
    scale = max(1.0, float(np.abs(sigma).max()))
    asym = float(np.abs(sigma - sigma.T).max())
    if asym > _SYMMETRY_RTOL * scale:
        raise ValueError(f"sigma is not symmetric: max asymmetry {asym}")
    sigma = 0.5 * (sigma + sigma.T)
    eigvals = np.linalg.eigvalsh(sigma)
    if not eigvals[0] > 0:
        raise ValueError(f"sigma is not positive definite: eigenvalue {float(eigvals[0])}")
    return mu, sigma, eigvals


def elliptical_normal(
    mu,
    sigma,
    lam: float | None = None,
    c1: float = 1.0,
    lpi: float | None = None,
    ltheta: float | None = None,
) -> DistributionSpec:
    """Gaussian with mean mu and SPD covariance sigma.

    Default constants when not supplied: lam = 1/max eigenvalue (radial
    decay of the dominant axis), lpi = 1/(sqrt(2 pi) * smallest projected
    standard deviation), and ltheta from differentiating the projected CDF
    Phi((t - <mu,u>)/sigma_u) along the sphere:
    (|mu| + (eig_max - eig_min)/(sqrt(e) * sigma_min)) / (sqrt(2 pi) * sigma_min).
    These are valid but not tight; pass explicit values to override.
    """
    mu, sigma, eigvals = _law(mu, sigma)
    eig_min, eig_max = float(eigvals[0]), float(eigvals[-1])
    sigma_min = math.sqrt(eig_min)
    if lam is None:
        lam = 1.0 / eig_max
    if lpi is None:
        lpi = 1.0 / (SQRT_2PI * sigma_min)
    if ltheta is None:
        mu_norm = float(np.linalg.norm(mu))
        ltheta = (mu_norm + (eig_max - eig_min) / (math.sqrt(math.e) * sigma_min)) / (
            SQRT_2PI * sigma_min
        )
    return DistributionSpec(
        family="elliptical_normal",
        d=mu.size,
        mu=mu,
        sigma=sigma,
        lam=lam,
        c1=c1,
        lpi=lpi,
        ltheta=ltheta,
    )


@dataclass(frozen=True, eq=False)
class AffineReduction:
    """Whitening map y = D^-1 Q^T (x - mu) with sigma = Q D^2 Q^T."""

    rotation: np.ndarray  # Q, orthogonal, columns are eigenvectors
    scales: np.ndarray    # diagonal of D, positive, nonincreasing
    mu: np.ndarray

    def __post_init__(self):
        for name in ("rotation", "scales", "mu"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def to_reduced(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return (x - self.mu) @ self.rotation / self.scales

    def from_reduced(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        return (y * self.scales) @ self.rotation.T + self.mu


def affine_reduce(sigma, mu) -> AffineReduction:
    """Eigendecompose an SPD covariance into a deterministic whitening map.

    Eigenvalues are sorted in decreasing order and each eigenvector's sign
    is fixed so that its first component of nontrivial magnitude is
    positive, making the reduction reproducible across runs.
    """
    mu, sigma, _ = _law(mu, sigma)
    eigvals, eigvecs = np.linalg.eigh(sigma)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    for j in range(eigvecs.shape[1]):
        col = eigvecs[:, j]
        nonzero = np.nonzero(np.abs(col) > 1e-12)[0]
        pivot = nonzero[0] if nonzero.size else 0
        if col[pivot] < 0:
            eigvecs[:, j] = -col
    return AffineReduction(rotation=eigvecs, scales=np.sqrt(eigvals), mu=mu)


def _projected_moments(dist: DistributionSpec, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard deviation of <X, u> for each row u of a (m, d) array."""
    loc = u @ dist.mu_array
    var = np.einsum("md,de,me->m", u, dist.sigma_array, u)
    return loc, np.sqrt(var)


def _standardised(dist: DistributionSpec, directions: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The argument of Phi in the projected CDF, (t - loc) / scale.

    loc and scale are the mean and standard deviation of <X, u> for each
    direction u: directions (m, d), t (..., m) -> same shape as t. The
    standard normal returns t itself.
    """
    directions = np.asarray(directions, dtype=float)
    if directions.shape[-1] != dist.d:
        raise ValueError(f"direction has dimension {directions.shape[-1]}, distribution has {dist.d}")
    t = np.asarray(t, dtype=float)
    if dist.family == "standard_normal":
        return t
    loc, scale = _projected_moments(dist, directions)
    return (t - loc) / scale


def cdf_projected_many(dist: DistributionSpec, directions: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Projected CDF: directions (m, d), t (..., m) -> same shape as t, with
    Phi from _phi (one _ndtr call per element)."""
    return _phi(_standardised(dist, directions, t))


def population_depth(dist: DistributionSpec, q) -> float:
    """Halfspace depth of q under the population law.

    Standard normal: Phi(-|q|). Elliptical: Phi(-|y|) where y is the
    whitened image of q; depth is affine invariant, so the reduction is
    exact, not an approximation.
    """
    q = _points("query", np.reshape(q, (1, -1)), dist.d)[0]
    if dist.family == "standard_normal":
        return _ndtr(-float(np.linalg.norm(q)))
    return _ndtr(-float(np.linalg.norm(dist.reduction.to_reduced(q))))


def tail_probability_bound(dist: DistributionSpec, radius: float) -> float:
    """Radial tail envelope c1 * R^(3d-5) * exp(-lam R^2 / 2), valid for R > 1."""
    if radius <= 1.0:
        raise ValueError(f"tail envelope requires R > 1, got {radius}")
    return dist.c1 * radius ** (3 * dist.d - 5) * math.exp(-dist.lam * radius * radius / 2.0)
