"""Checks of halfdepth's outputs against computations made here.

Nothing is compared with a stored copy of earlier output. Depth counts
are recomputed exactly, KS statistics come from scipy.stats, bound
values from their closed forms in mpmath, and the rest are properties
the method must have. Every check raises CheckFailed with the first
discrepancy it finds; a Tally runs checks and records which operations
they reject.

scipy.stats and mpmath are imported where they are used, so that the
checks which run between timed blocks do not load them into the
process whose peak memory is measured.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# Unit roundoff of float64.
_U = 2.0**-53

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# Queries, samples and trial outputs are compared to this absolute
# tolerance; one count out of n = 300 is 3.3e-3.
VALUE_ATOL = 1e-12

# Bound values must match their closed forms to this relative tolerance
# (relative to the larger of the value and its exponential penalty, so
# that values near 0 or 1 are judged on the digits the program can get
# right). A change in the 10th significant digit is far above it.
BOUND_RTOL = 1e-12


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's own computation."""


def require(ok: bool, message: str) -> None:
    """Raise CheckFailed(message) unless ok."""
    if not ok:
        raise CheckFailed(message)


class Tally:
    """The operations (trials or rows) that failed: their output was rejected
    by a check, or the call that should have produced it raised."""

    def __init__(self):
        self.rejected: set = set()
        self.raised: set = set()
        self.messages: list[str] = []

    def check(self, ops, fn, *args) -> None:
        """Run fn(*args); if it raises CheckFailed, every operation in ops failed."""
        try:
            fn(*args)
        except CheckFailed as exc:
            self.rejected.update(ops)
            self.messages.append(str(exc))

    def fail(self, ops, message: str) -> None:
        self.raised.update(ops)
        self.messages.append(message)

    @property
    def failed(self) -> int:
        return len(self.rejected | self.raised)


def split_seed(seed: int, index: int) -> int:
    """The documented per-trial stream: SplitMix64 of seed + (index + 1) * gamma."""
    x = (int(seed) + (index + 1) * _GAMMA) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def trial_sample(seed: int, index: int, n: int, d: int) -> np.ndarray:
    """The standard normal sample of trial `index` of an experiment seeded `seed`."""
    return np.random.default_rng(split_seed(seed, index)).standard_normal((n, d))


def normal_depth(q) -> float:
    """Halfspace depth of q under the standard normal: Phi(-|q|)."""
    return 0.5 * math.erfc(float(np.linalg.norm(q)) / math.sqrt(2.0))


def circle_cover(psi: float) -> np.ndarray:
    """The d=2 cover the harness documents: ceil(pi/psi) + 1 equally spaced angles."""
    m = math.ceil(math.pi / psi) + 1
    angles = 2.0 * math.pi * np.arange(m) / m
    return np.column_stack([np.cos(angles), np.sin(angles)])


def random_directions(rng: np.random.Generator, count: int, d: int) -> np.ndarray:
    v = rng.standard_normal((count, d))
    return v / np.linalg.norm(v, axis=1)[:, None]


def _exact_signs(values: np.ndarray, bound: np.ndarray, exact) -> np.ndarray:
    """Signs of float-evaluated values; entries within their error bound are redone exactly."""
    signs = np.sign(values).astype(int)
    for j, i in zip(*np.nonzero(np.abs(values) <= bound)):
        signs[j, i] = exact(j, i)
    return signs


def exact_depth_count_2d(points, q) -> int:
    """Closed halfplane depth count of q, exact in the rational values of the inputs.

    The count of {x : u.(x - q) >= 0} is smallest on open arcs of u between
    critical directions, the normals of the lines through q and a sample
    point. Next to the normal of the line through q and x_j it is the
    points strictly on one side (P or M) plus those on the line on one side
    of q (Z+ or Z-), so the depth is min over j of min(P, M) + min(Z+, Z-).
    Signs are taken from float products when they clear a rounding bound,
    and from Fractions otherwise. Points equal to q lie in every halfplane.
    """
    x = np.asarray(points, dtype=float)
    q = np.asarray(q, dtype=float).reshape(-1)
    coincident = np.all(x == q, axis=1)
    base = int(np.count_nonzero(coincident))
    x = x[~coincident]
    if x.shape[0] == 0:
        return base
    y = x - q
    a, b = y[:, 0], y[:, 1]
    cross = np.outer(a, b) - np.outer(b, a)  # cross[j, i] = y_j x y_i
    dot = np.outer(a, a) + np.outer(b, b)
    # Each y is (x - q)(1 + delta); three more roundings per term.
    cross_bound = 8.0 * _U * (np.abs(np.outer(a, b)) + np.abs(np.outer(b, a)))
    dot_bound = 8.0 * _U * (np.abs(np.outer(a, a)) + np.abs(np.outer(b, b)))
    # Each point lies on its own line, on its own side of q: exactly 0 and +.
    np.fill_diagonal(cross_bound, -1.0)
    exact_y = {}

    def rational(k):
        if k not in exact_y:
            exact_y[k] = tuple(Fraction(float(x[k, c])) - Fraction(float(q[c])) for c in range(2))
        return exact_y[k]

    def exact_cross(j, i):
        (aj, bj), (ai, bi) = rational(j), rational(i)
        v = aj * bi - bj * ai
        return (v > 0) - (v < 0)

    def exact_dot(j, i):
        (aj, bj), (ai, bi) = rational(j), rational(i)
        v = aj * ai + bj * bi
        return (v > 0) - (v < 0)

    side = _exact_signs(cross, cross_bound, exact_cross)
    on_line = side == 0
    along = _exact_signs(np.where(on_line, dot, 1.0), np.where(on_line, dot_bound, 0.0), exact_dot)
    plus = np.count_nonzero(side > 0, axis=1)
    minus = np.count_nonzero(side < 0, axis=1)
    z_plus = np.count_nonzero(on_line & (along > 0), axis=1)
    z_minus = np.count_nonzero(on_line & (along < 0), axis=1)
    return base + int((np.minimum(plus, minus) + np.minimum(z_plus, z_minus)).min())


def check_depth_count_2d(points, q, count: int) -> None:
    want = exact_depth_count_2d(points, q)
    require(count == want, f"depth count at q={list(q)}: program {count}, exact {want}")


def closed_counts(points, q, directions: np.ndarray, slack: float = 0.0) -> np.ndarray:
    """Points in the closed halfspace {x : u.(x - q) <= slack |x - q|} for each direction u."""
    y = np.asarray(points, dtype=float) - np.asarray(q, dtype=float)
    proj = y @ directions.T
    limit = slack * np.linalg.norm(y, axis=1)[:, None]
    return np.count_nonzero(proj <= limit, axis=0)


def check_interval(points, q, lower: int, upper: int, centers: np.ndarray, directions: np.ndarray) -> None:
    """A certified interval, as counts: lower <= upper, upper is the cover
    minimum, and lower is below the count along every extra direction
    (each of which is at least the exact depth)."""
    require(0 <= lower <= upper, f"interval [{lower}, {upper}] at q={list(q)} is not ordered")
    want_upper = int(closed_counts(points, q, centers).min())
    require(upper == want_upper, f"upper count at q={list(q)}: program {upper}, cover minimum {want_upper}")
    # The slack only widens each halfspace, so it can never reject a true lower bound.
    ceiling = int(closed_counts(points, q, directions, slack=1e-9).min())
    require(lower <= ceiling, f"lower count {lower} at q={list(q)} exceeds {ceiling}, a direction's count")


def check_query_error(error: float, value: float, population: float, label: str) -> None:
    want = abs(value - population)
    require(abs(error - want) <= VALUE_ATOL, f"{label}: query error {error!r}, expected {want!r}")


def check_population_depths(queries, depths) -> None:
    for q, got in zip(queries, depths):
        want = normal_depth(q)
        require(abs(got - want) <= VALUE_ATOL, f"population depth at q={list(q)}: {got!r}, expected {want!r}")


def check_sup_deviation(points, centers: np.ndarray, sup: float) -> None:
    """sup_deviation is the largest KS distance to N(0, 1) over the cover's directions."""
    from scipy import stats

    proj = np.asarray(points, dtype=float) @ centers.T
    want = max(stats.kstest(proj[:, k], "norm").statistic for k in range(centers.shape[0]))
    require(abs(sup - want) <= VALUE_ATOL, f"sup_deviation {sup!r}, kstest maximum {want!r}")


def check_cover(centers: np.ndarray, psi: float, directions: np.ndarray) -> None:
    norms = np.linalg.norm(centers, axis=1)
    require(bool(np.all(np.abs(norms - 1.0) <= 1e-12)), "cover centers are not unit vectors")
    gap = float(np.arccos(np.clip((directions @ centers.T).max(axis=1).min(), -1.0, 1.0)))
    require(gap <= psi, f"a direction lies {gap:.6f} from every center, above psi={psi}")


def check_same_trials(got, want) -> None:
    """Per-trial outputs of two runs of the same trials are identical."""
    require(len(got) == len(want), f"{len(got)} trials against {len(want)}")
    for a, b in zip(got, want):
        fields_a = (a.index, a.sup_deviation, a.query_errors, a.interval_widths, a.slack_margin)
        fields_b = (b.index, b.sup_deviation, b.query_errors, b.interval_widths, b.slack_margin)
        require(fields_a == fields_b, f"trial {a.index} differs from the serial run")


# Closed forms of the bounds, evaluated in 40-digit arithmetic.

def _mp(x):
    import mpmath

    return mpmath.mpf(float(x))


def dkw_closed_form(n: int, eps: float):
    """(value, penalty) of 2 exp(-2 n eps^2)."""
    import mpmath

    with mpmath.workdps(40):
        v = 2 * mpmath.exp(-2 * n * _mp(eps) ** 2)
        return v, v


def bivariate_closed_form(n: int, eps: float):
    """(value, penalty) of 1 - (2 sqrt(2 pi) n^1.5 + n + 2) e^4 exp(-2 n eps^2)."""
    import mpmath

    with mpmath.workdps(40):
        n_mp = mpmath.mpf(n)
        pen = (2 * mpmath.sqrt(2 * mpmath.pi) * n_mp**1.5 + n_mp + 2) * mpmath.exp(4 - 2 * n_mp * _mp(eps) ** 2)
        return 1 - pen, pen


def vc_exact_closed_form(kind: str, n: int, eps: float):
    """(value, penalty) of 4 m(r) exp(.) with the planar count m(r) = r^2 - r + 2."""
    import mpmath

    with mpmath.workdps(40):
        r = 2 * n if kind == "vc1" else n * n
        exponent = -n * _mp(eps) ** 2 / 8 if kind == "vc1" else -2 * n * _mp(eps) ** 2
        v = 4 * mpmath.mpf(r * r - r + 2) * mpmath.exp(exponent)
        return v, v


def check_bound_value(label: str, value: float, closed_form) -> None:
    import mpmath

    want, penalty = closed_form
    scale = max(abs(want), abs(penalty))
    require(
        abs(mpmath.mpf(value) - want) <= BOUND_RTOL * scale,
        f"{label}: value {value!r}, closed form {mpmath.nstr(want, 20)}",
    )


def check_theorem_row(row: dict, report) -> None:
    """A theorem row is the evaluator's value and never exceeds its delta = 1/n form."""
    label = f"theorem n={row['n']} eps={row['eps']!r}"
    require(row["value"] == report.value, f"{label}: row {row['value']!r}, evaluator {report.value!r}")
    strict = report.intermediates["strict_delta_value"]
    require(
        report.value <= strict + 1e-15 * max(1.0, abs(strict)),
        f"{label}: value {report.value!r} above its strict_delta_value {strict!r}",
    )
