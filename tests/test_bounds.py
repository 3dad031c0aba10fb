"""Unit tests for shatter counts, the covering count, and the deviation bounds."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfdepth.bounds import (
    BOUND_KINDS,
    BOUND_TABLE,
    BoundParams,
    evaluate_bound,
    halfplane_subset_count,
    improvement_factor,
    regular_polygon,
    shatter_exact_2d,
)
from halfdepth.experiments import run_bound_sweep
from halfdepth.geometry import log_covering_count
from halfdepth.population import standard_normal

SQRT_2PI = math.sqrt(2.0 * math.pi)


# ------------------------------------------------------------ shatter counts


def test_shatter_exact_2d_small_values():
    assert shatter_exact_2d(1) == 2
    assert shatter_exact_2d(2) == 4
    assert shatter_exact_2d(3) == 8
    assert shatter_exact_2d(4) == 14
    assert shatter_exact_2d(10) == 92


def test_shatter_upper_dominates_exact_2d():
    # the 1.5 r^(d+1)/(d+1)! envelope takes over from r=4 on; vc1 counts
    # at r = 2n and vc2 at r = n^2
    for kind, n in (("vc1", np.arange(2, 100)), ("vc2", np.arange(2, 15))):
        grid = BoundParams(n=n, eps=np.full(n.shape, 0.1), d=2)
        upper = evaluate_bound(kind, grid).intermediates
        exact = evaluate_bound(kind, grid, exact_m=True).intermediates
        r = upper["shatter_argument"].astype(int).tolist()
        assert exact["shatter_count"].tolist() == [shatter_exact_2d(v) for v in r]
        assert (upper["shatter_count"] >= exact["shatter_count"] - 1e-9).all()


def _shatter_upper(r: int, d: int) -> float:
    """The generic shatter count that vc1 takes at r = 2n."""
    inter = evaluate_bound("vc1", BoundParams(n=r // 2, eps=0.1, d=d)).intermediates
    assert inter["shatter_argument"] == r
    return inter["shatter_count"]


def test_shatter_upper_formula():
    # 1.5 r^(d+1) / (d+1)!
    assert _shatter_upper(10, 2) == pytest.approx(1.5 * 1000 / 6.0, rel=1e-12)
    assert _shatter_upper(4, 3) == pytest.approx(1.5 * 256 / 24.0, rel=1e-12)
    # stays finite for huge arguments thanks to log-space evaluation
    big = _shatter_upper(10 ** 8, 5)
    assert math.isfinite(math.log(big)) or big == math.inf


def test_regular_polygon_geometry():
    pts = regular_polygon(6, radius=2.0)
    assert pts.shape == (6, 2)
    np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 2.0, rtol=1e-12)


def test_halfplane_subset_count_regular_polygons():
    for r in range(3, 9):
        assert halfplane_subset_count(regular_polygon(r)) == r * r - r + 2


def test_halfplane_subset_count_rejects_non_convex_position():
    # an interior point cannot reach the formula, so the oracle refuses it
    square = regular_polygon(4)
    with_center = np.vstack([square, [0.0, 0.0]])
    with pytest.raises(ValueError, match="convex position"):
        halfplane_subset_count(with_center)


def test_halfplane_subset_count_tiny_inputs():
    assert halfplane_subset_count(np.array([[0.3, 0.4]])) == 2
    assert halfplane_subset_count(np.array([[0.0, 0.0], [1.0, 1.0]])) == 4
    with pytest.raises(ValueError, match="convex position"):
        halfplane_subset_count(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_halfplane_subset_count_rejects_collinear():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match="convex position"):
        halfplane_subset_count(pts)


def test_halfplane_subset_count_rejects_large_n():
    with pytest.raises(ValueError):
        halfplane_subset_count(np.zeros((13, 2)))
    with pytest.raises(ValueError):
        halfplane_subset_count(np.zeros((3, 3)))


# ------------------------------------------------------------------ vc / dkw


def test_dkw_bound_values():
    value = evaluate_bound("dkw", BoundParams(n=200, eps=0.1, d=1)).value
    assert value == pytest.approx(2.0 * math.exp(-4.0), rel=1e-14)
    with pytest.raises(ValueError):
        evaluate_bound("dkw", BoundParams(n=0, eps=0.1, d=1))
    with pytest.raises(ValueError):
        evaluate_bound("dkw", BoundParams(n=10, eps=-0.1, d=1))


def test_vc_double_sample_formula():
    p = BoundParams(n=100, eps=0.2, d=2)
    rep = evaluate_bound("vc1", p)
    expected = 4.0 * (1.5 * 200 ** 3 / 6.0) * math.exp(-100 * 0.04 / 8.0)
    assert rep.value == pytest.approx(expected, rel=1e-12)
    assert rep.kind == "vc1"
    assert rep.bound_type == "deviation_upper"


def test_vc_squared_sample_formula():
    p = BoundParams(n=50, eps=0.3, d=2)
    rep = evaluate_bound("vc2", p)
    expected = 4.0 * (1.5 * 2500 ** 3 / 6.0) * math.exp(-2 * 50 * 0.09)
    assert rep.value == pytest.approx(expected, rel=1e-12)
    assert rep.kind == "vc2"


def test_vc_exact_m_is_tighter_in_2d():
    p = BoundParams(n=400, eps=0.12, d=2)
    loose = evaluate_bound("vc2", p)
    tight = evaluate_bound("vc2", p, exact_m=True)
    expected = 4.0 * shatter_exact_2d(400 ** 2) * math.exp(-2 * 400 * 0.12 ** 2)
    assert tight.value == pytest.approx(expected, rel=1e-12)
    assert tight.value < loose.value


def test_vc_exact_m_requires_d2():
    p = BoundParams(n=10, eps=0.5, d=3)
    with pytest.raises(ValueError):
        evaluate_bound("vc2", p, exact_m=True)


def test_vc_bounds_monotone_in_n():
    values = [
        evaluate_bound("vc2", BoundParams(n=n, eps=0.15, d=2), exact_m=True).value
        for n in (200, 400, 800, 1600, 3200)
    ]
    # eventually decreasing once the exponential wins
    assert values[-1] < values[-2] < values[-3]


def test_vc_bounds_stay_finite_at_extremes():
    rep = evaluate_bound("vc2", BoundParams(n=10 ** 9, eps=1e-6, d=8))
    assert math.isfinite(rep.value)
    rep2 = evaluate_bound("vc1", BoundParams(n=10 ** 9, eps=0.9, d=8))
    assert rep2.value == 0.0 or rep2.value > 0.0  # no NaN


# ------------------------------------------------------------ covering count


def test_covering_count_simplified_d2():
    # (sqrt(d)/psi)^(d-1) (d-1)^(3/2) ln d at unit leading constant
    assert math.exp(log_covering_count(2, 0.5)) == pytest.approx(math.sqrt(2.0) / 0.5 * math.log(2.0), rel=1e-12)
    expected_3d = (math.sqrt(3.0) / 0.2) ** 2 * 2.0 ** 1.5 * math.log(3.0)
    assert math.exp(log_covering_count(3, 0.2)) == pytest.approx(expected_3d, rel=1e-12)


def test_covering_count_scales_with_c2():
    # the covering route counts c2 times as many caps at its psi_eff
    base = BoundParams(n=1000, eps=0.1, d=3, r=2.0, delta=0.5)
    for c2 in (1.0, 2.5):
        inter = evaluate_bound("prop-r-delta", replace(base, c2=c2)).intermediates
        expected = c2 * math.exp(log_covering_count(3, inter["psi_eff"]))
        assert inter["cover_count"] == pytest.approx(expected, rel=1e-12)


# -------------------------------------------------------- covering-route chain


def _random_params(rng) -> BoundParams:
    return BoundParams(
        n=int(rng.integers(10, 100_000)),
        eps=float(rng.uniform(0.01, 0.9)),
        d=int(rng.integers(2, 8)),
        lam=float(rng.uniform(0.2, 3.0)),
        c1=float(rng.uniform(0.5, 5.0)),
        lpi=float(rng.uniform(0.1, 1.0)),
        ltheta=float(rng.uniform(0.0, 2.0)),
        c2=float(rng.uniform(0.5, 3.0)),
        delta=float(rng.uniform(0.05, 2.0)),
    )


def test_balanced_tail_equals_free_params_at_substituted_radius():
    rng = np.random.default_rng(314)
    for _ in range(200):
        p = _random_params(rng)
        r_sub = 2.0 * p.eps * math.sqrt(p.n) / (math.sqrt(p.lam) * (1.0 + p.delta))
        a = evaluate_bound("prop-r-delta", replace(p, r=r_sub)).value
        b = evaluate_bound("cor-delta", p).value
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a), abs(b))


def test_balanced_tail_penalties_share_one_exponential():
    p = BoundParams(n=5000, eps=0.08, d=3, delta=0.5)
    rep = evaluate_bound("cor-delta", p)
    inter = rep.intermediates
    assert inter["exponent"] == pytest.approx(-2 * 5000 * 0.08 ** 2 / 1.5 ** 2, rel=1e-12)
    assert rep.value == pytest.approx(
        1.0 - inter["cover_penalty"] - inter["tail_penalty"], rel=1e-12
    )


def test_free_params_requires_r_and_delta():
    p = BoundParams(n=100, eps=0.1, d=2)
    with pytest.raises(ValueError):
        evaluate_bound("prop-r-delta", p)
    with pytest.raises(ValueError):
        evaluate_bound("cor-delta", p)


def test_free_params_precondition_flags():
    # enormous R pushes psi_eff below range but the value is still computed
    p = BoundParams(n=100, eps=0.1, d=2, r=0.5, delta=1.0)
    rep = evaluate_bound("prop-r-delta", p)
    assert not rep.applicable
    names = {pc.name: pc.satisfied for pc in rep.preconditions}
    assert names["tail_radius_above_one"] is False
    assert math.isfinite(rep.value)


def test_parameter_free_never_beats_balanced_at_matching_delta():
    rng = np.random.default_rng(271828)
    for _ in range(100):
        p = _random_params(rng)
        theorem = evaluate_bound("theorem", p)
        strict = evaluate_bound("cor-delta", replace(p, delta=1.0 / p.n))
        assert theorem.value <= strict.value + 1e-12
        assert theorem.intermediates["strict_delta_value"] == pytest.approx(
            strict.value, rel=1e-12, abs=1e-300
        )


def test_parameter_free_exponent_is_relaxed():
    p = BoundParams(n=1000, eps=0.1, d=2)
    rep = evaluate_bound("theorem", p)
    assert rep.intermediates["exponent"] == pytest.approx(4.0 - 2.0 * 1000 * 0.01, rel=1e-12)
    assert rep.intermediates["delta"] == pytest.approx(1e-3)


def test_theorem_approaches_one_for_large_n():
    p = BoundParams(n=10 ** 6, eps=0.05, d=2)
    rep = evaluate_bound("theorem", p)
    assert rep.applicable
    assert 1.0 - rep.value < 1e-100
    assert not rep.vacuous


def test_theorem_vacuous_for_small_n():
    rep = evaluate_bound("theorem", BoundParams(n=10, eps=0.1, d=2))
    assert rep.vacuous
    assert rep.value < 0.0
    assert math.isfinite(rep.value)


def test_covering_route_beats_vc_route_coefficient():
    # coefficient degrees: covering 3(d-1)/2 vs vc 2d+2
    for d in range(2, 11):
        assert 1.5 * (d - 1) < 2 * d + 2


# ------------------------------------------------- sharp 2d / bivariate forms


def _bivariate(n, eps) -> float:
    return evaluate_bound("bivariate", BoundParams(n=n, eps=eps)).value


def test_bivariate_reference_value():
    # 1 - (2 sqrt(2 pi) 10^6 + 10^4 + 2) e^4 e^-50
    coef = 2.0 * SQRT_2PI * 10 ** 6 + 10 ** 4 + 2.0
    expected = 1.0 - coef * math.exp(4.0 - 50.0)
    assert _bivariate(10 ** 4, 0.05) == pytest.approx(expected, rel=1e-14)


def test_bivariate_vacuous_small_n():
    assert _bivariate(10, 0.05) < 0.0
    assert math.isfinite(_bivariate(1, 0.01))


def test_sharp2d_theorem_matches_bivariate_closed_form():
    std = standard_normal(2)
    for n in (50, 500, 5000, 50_000, 10 ** 4):
        for eps in (0.02, 0.05, 0.2):
            params = BoundParams.from_distribution(std, n=n, eps=eps)
            rep = evaluate_bound("theorem", params, sharp2d=True)
            closed = _bivariate(n, eps)
            assert abs(rep.value - closed) <= 1e-12 * max(1.0, abs(closed))


def test_bivariate_is_the_sharp2d_theorem_bit_for_bit():
    # eps is drawn so that the penalty e^t lies between e^-30 and e^5, where
    # the value is neither vacuous by far nor rounded to 1
    rng = np.random.default_rng(2718)
    for _ in range(200):
        n = int(rng.integers(10, 10 ** 7))
        coef = 2.0 * SQRT_2PI * n ** 1.5 + n + 2.0
        eps = math.sqrt((math.log(coef) + 4.0 - rng.uniform(-30.0, 5.0)) / (2.0 * n))
        params = BoundParams(n=n, eps=min(eps, 1.0), d=2)
        theorem = evaluate_bound("theorem", params, sharp2d=True)
        assert evaluate_bound("bivariate", params).value == theorem.value
        assert _bivariate(params.n, params.eps) == theorem.value


def test_theorem_never_exceeds_its_strict_delta_value():
    rng = np.random.default_rng(161803)
    for _ in range(500):
        p = _random_params(rng)
        for sharp2d in (False, True) if p.d == 2 else (False,):
            rep = evaluate_bound("theorem", p, sharp2d=sharp2d)
            assert rep.value <= rep.intermediates["strict_delta_value"]


def test_sharp2d_rejects_other_dimensions():
    p = BoundParams(n=100, eps=0.1, d=3)
    with pytest.raises(ValueError):
        evaluate_bound("theorem", p, sharp2d=True)


def test_improvement_factor_values():
    assert improvement_factor(10, 2) == pytest.approx(10 ** 4.5, rel=1e-12)
    assert improvement_factor(100, 3) == pytest.approx(100 ** 5.0, rel=1e-12)
    for d in range(2, 11):
        n = 7
        assert improvement_factor(n, d) == pytest.approx(n ** ((d + 7) / 2.0), rel=1e-12)


def test_improvement_factor_is_clamped_once_its_log_passes_the_exp_clamp():
    # Below the clamp the factor keeps the bits of float(n) ** ((d+7)/2).
    for n, d in ((10, 2), (999, 5), (10 ** 9, 2), (10 ** 9, 60)):
        assert ((d + 7) / 2) * math.log(n) <= 700.0
        assert improvement_factor(n, d) == float(n) ** ((d + 7) / 2)
    # 1e9^53.5 overflows a float; like every other bound quantity the factor
    # is then clamped at e^700.
    for n in (999_999_990, 10 ** 9):
        assert improvement_factor(n, 100) == math.exp(700.0)
    grid = np.array([10, 999, 10 ** 9, 999_999_990])
    assert improvement_factor(grid, 100).tolist() == [improvement_factor(int(n), 100) for n in grid]
    with pytest.raises(ValueError, match="need n >= 1 and d >= 2"):
        improvement_factor(10, 1)


# -------------------------------------------------------------- evaluate_bound


def test_evaluate_bound_dispatch():
    p = BoundParams(n=500, eps=0.1, d=2, r=3.0, delta=0.5)
    for kind in BOUND_KINDS:
        rep = evaluate_bound(kind, p)
        assert rep.kind == kind
        assert math.isfinite(rep.value)
    with pytest.raises(ValueError):
        evaluate_bound("nope", p)


def test_evaluate_bound_exceedance_clipping():
    p = BoundParams(n=20, eps=0.1, d=2)
    vac = evaluate_bound("theorem", p)
    assert vac.exceedance_bound() == 1.0
    tight = evaluate_bound("dkw", BoundParams(n=10 ** 4, eps=0.1, d=1))
    assert 0.0 <= tight.exceedance_bound() < 1e-80


def test_evaluate_bound_dkw_caveat_above_d1():
    rep1 = evaluate_bound("dkw", BoundParams(n=100, eps=0.1, d=1))
    rep2 = evaluate_bound("dkw", BoundParams(n=100, eps=0.1, d=2))
    assert rep1.caveats == ()
    assert "one_dimensional_statement" in rep2.caveats
    assert rep1.value == rep2.value


def test_evaluate_bound_bivariate_requires_planar():
    rep = evaluate_bound("bivariate", BoundParams(n=100, eps=0.1, d=3))
    assert not rep.applicable
    rep2 = evaluate_bound("bivariate", BoundParams(n=100, eps=0.1, d=2))
    assert rep2.applicable


def test_recorded_preconditions_hold_iff_lhs_below_rhs():
    grid = [
        dict(n=500, eps=0.1, r=3.0, delta=0.5),
        dict(n=10, eps=0.05, r=0.5, delta=2.0),
        dict(n=10 ** 6, eps=0.9, r=1.0, delta=1e-3),
    ]
    for kind in BOUND_KINDS:
        for d in range(1, 5):
            for values in grid:
                for flags in ({}, {"sharp2d": True}, {"exact_m": True}):
                    try:
                        rep = evaluate_bound(kind, BoundParams(d=d, **values), **flags)
                    except ValueError:
                        continue  # this kind does not accept this d or flag
                    for pre in rep.preconditions:
                        assert pre.satisfied == (pre.lhs < pre.rhs), (kind, d, values, flags, pre)


def test_bound_params_validation():
    with pytest.raises(ValueError):
        BoundParams(n=0, eps=0.1)
    with pytest.raises(ValueError):
        BoundParams(n=10, eps=0.0)
    with pytest.raises(ValueError):
        BoundParams(n=10, eps=1.5)
    with pytest.raises(ValueError):
        BoundParams(n=10, eps=0.1, d=0)
    with pytest.raises(ValueError):
        BoundParams(n=10, eps=0.1, lam=-1.0)


def test_bound_params_from_distribution():
    dist = standard_normal(2)
    p = BoundParams.from_distribution(dist, n=100, eps=0.1, delta=0.5)
    assert p.d == 2
    assert p.lam == 1.0
    assert p.lpi == pytest.approx(1.0 / SQRT_2PI)
    assert p.ltheta == 0.0
    assert p.delta == 0.5


# --------------------------------------------------------- grids of points

_OTHER_CONSTANTS = dict(lam=0.7, c1=2.5, lpi=0.3, ltheta=0.2, c2=3.0)
_COVERING_KINDS = ("prop-r-delta", "cor-delta", "theorem")


def _fields(report, at=None):
    """Every field of a report; of a grid report, at one point."""
    def plain(x):
        return x if at is None else x[at].item()

    return {
        "kind": report.kind,
        "bound_type": report.bound_type,
        "value": plain(report.value),
        "vacuous": plain(report.vacuous),
        "applicable": plain(report.applicable),
        "exceedance_bound": plain(report.exceedance_bound()),
        "preconditions": [(p.name, plain(p.satisfied), plain(p.lhs), plain(p.rhs)) for p in report.preconditions],
        "intermediates": {key: plain(x) for key, x in report.intermediates.items()},
        "caveats": report.caveats,
    }


def _assert_plain_scalars(data):
    assert type(data["value"]) is float
    assert type(data["vacuous"]) is bool and type(data["applicable"]) is bool
    for pre in data["preconditions"]:
        assert type(pre["satisfied"]) is bool
        assert type(pre["lhs"]) is float and type(pre["rhs"]) is float
    assert all(type(x) is float for x in data["intermediates"].values())
    json.dumps(data)


@settings(max_examples=60)
@given(
    d=st.sampled_from([1, 2, 3, 5]),
    points=st.lists(
        st.tuples(
            # n > 2^26 takes the exact count r^2 - r + 2 of vc1 past 2^53
            st.one_of(st.integers(1, 10 ** 6), st.integers(2 ** 26, 2 ** 30)),
            st.floats(1e-9, 1.0),
        ),
        min_size=1,
        max_size=6,
    ),
    sharp2d=st.booleans(),
    exact_m=st.booleans(),
    other_constants=st.booleans(),
    r=st.floats(0.5, 5.0),
    delta=st.floats(1e-3, 3.0),
)
def test_grid_report_equals_the_scalar_report_at_every_point(
    d, points, sharp2d, exact_m, other_constants, r, delta
):
    flags = dict(sharp2d=sharp2d, exact_m=exact_m) if d == 2 else {}
    constants = dict(_OTHER_CONSTANTS if other_constants else {}, r=r, delta=delta)
    n = np.array([p[0] for p in points])
    eps = np.array([p[1] for p in points])
    grid = BoundParams(n=n, eps=eps, d=d, **constants)
    singles = [BoundParams(n=int(a), eps=float(b), d=d, **constants) for a, b in points]
    for kind in BOUND_KINDS:
        if d == 1 and kind in _COVERING_KINDS:
            continue
        reports = [evaluate_bound(kind, p, **flags) for p in singles]
        for rep in reports:
            _assert_plain_scalars(rep.to_dict())
        gridded = evaluate_bound(kind, grid, **flags)
        assert [_fields(gridded, at) for at in range(len(points))] == [_fields(rep) for rep in reports]
    # a two-dimensional grid keeps its shape
    column = evaluate_bound("theorem" if d > 1 else "dkw", replace(grid, n=n[:, None], eps=eps[:, None]))
    assert column.value.shape == (len(points), 1)


@pytest.mark.parametrize(
    "kind, d, flags, constants, message",
    [
        ("prop-r-delta", 1, {}, dict(r=3.0, delta=0.5), "the covering-route bounds require d >= 2, got d=1"),
        ("cor-delta", 1, {}, dict(delta=0.5), "the covering-route bounds require d >= 2, got d=1"),
        ("theorem", 1, {}, {}, "the covering-route bounds require d >= 2, got d=1"),
        ("vc1", 3, dict(exact_m=True), {}, "the exact planar subset count applies only to d=2"),
        ("vc2", 1, dict(exact_m=True), {}, "the exact planar subset count applies only to d=2"),
        ("theorem", 3, dict(sharp2d=True), {}, "sharp-2d mode applies only to d=2"),
        ("prop-r-delta", 5, dict(sharp2d=True), dict(r=3.0, delta=0.5), "sharp-2d mode applies only to d=2"),
        ("prop-r-delta", 2, {}, dict(delta=0.5), "this bound requires the parameter 'r'"),
        ("prop-r-delta", 2, {}, dict(r=3.0), "this bound requires the parameter 'delta'"),
        ("cor-delta", 2, {}, {}, "this bound requires the parameter 'delta'"),
    ],
)
def test_grid_call_raises_the_scalar_message(kind, d, flags, constants, message):
    with pytest.raises(ValueError) as scalar:
        evaluate_bound(kind, BoundParams(n=300, eps=0.1, d=d, **constants), **flags)
    assert scalar.value.args == (message,)
    grid = BoundParams(n=np.array([60, 60, 300]), eps=np.array([0.05, 0.2, 0.1]), d=d, **constants)
    with pytest.raises(ValueError) as gridded:
        evaluate_bound(kind, grid, **flags)
    assert gridded.value.args == (message,)
    with pytest.raises(ValueError) as swept:
        run_bound_sweep(["dkw", kind], [60, 300], [0.05, 0.1], d, **flags, **constants)
    assert swept.value.args == (message,)


def test_grid_values_keep_the_scalar_libm_bits():
    # numpy's vectorised exp and power differ from libm in the last bit at
    # several of these points, so the grid must take them from math.
    rng = np.random.default_rng(5)
    n, eps = rng.integers(50, 5000, 300), rng.uniform(0.03, 0.25, 300)
    grid = BoundParams(n=n, eps=eps, d=2)
    points = list(zip(n.tolist(), eps.tolist()))
    assert evaluate_bound("dkw", grid).value.tolist() == [2.0 * math.exp(-2.0 * a * b * b) for a, b in points]
    vc1 = [
        math.exp(min(math.log(4.0) + (math.log(1.5) + 3 * math.log(2 * a) - math.lgamma(4)) + -a * b ** 2 / 8.0, 700.0))
        for a, b in points
    ]
    assert evaluate_bound("vc1", grid).value.tolist() == vc1
    assert improvement_factor(n, 2).tolist() == [float(a) ** 4.5 for a in n.tolist()]


def test_grid_validation_names_the_first_bad_point():
    with pytest.raises(ValueError, match=r"^eps must be in \(0, 1\], got 0.0$"):
        BoundParams(n=np.array([5, 5, 0]), eps=np.array([0.1, 0.0, 0.1]))
    with pytest.raises(ValueError, match=r"^n must be >= 1, got 0$"):
        BoundParams(n=np.array([5, 0, 5]), eps=np.array([0.1, 0.0, 2.0]))
    # a fractional n would take vc2's shatter count at n^2 = 110.25
    with pytest.raises(ValueError, match=r"^n must be an integer, got 10.5$"):
        BoundParams(n=np.array([5.0, 10.5, 0.5]), eps=np.array([0.1, 0.1, 0.0]))
    for n in (10.5, True, np.array([True, False]), math.inf, np.array([5.0, math.nan])):
        with pytest.raises(ValueError, match=r"^n must be an integer, got (10.5|True|inf|nan)$"):
            BoundParams(n=n, eps=np.full(np.shape(n), 0.1))
    assert BoundParams(n=np.array([5.0, 10.0]), eps=np.array([0.1, 0.1])).n.tolist() == [5.0, 10.0]
    with pytest.raises(ValueError, match="one shape"):
        BoundParams(n=np.array([5, 6]), eps=0.1)
    # The sweep passes its lists on as given: numpy would read the True in
    # [10, True] as 1, and int() would truncate 10.5 to 10.
    with pytest.raises(ValueError, match=r"^n must be an integer, got 10.5$"):
        run_bound_sweep(["vc2"], [10.5], [0.1], 2)
    with pytest.raises(ValueError, match=r"^n must be an integer, got True$"):
        run_bound_sweep(["vc2"], [10, True], [0.1], 2)
    with pytest.raises(ValueError, match=r"^eps must be a number, got True$"):
        run_bound_sweep(["vc2"], [10], [0.1, True], 2)
    with pytest.raises(ValueError, match=r"^d must be an integer, got 2.5$"):
        BoundParams(n=10, eps=0.1, d=2.5)
    with pytest.raises(ValueError, match=r"^eps must be a number, got True$"):
        BoundParams(n=10, eps=True)
    with pytest.raises(ValueError, match=r"^lam must be a number, got True$"):
        BoundParams(n=10, eps=0.1, lam=True)


# Each input that a kind may read, and a value other than the one that the
# reports below start from; sharp2d is flipped instead.
_INPUT_CHANGES = dict(
    lam=0.7, c1=2.5, c2=3.0, lpi=0.3, ltheta=0.2, r=2.0, delta=0.25, sharp2d=None, exact_m=True,
)


@pytest.mark.parametrize("sharp2d", [False, True], ids=["generic", "sharp2d"])
@pytest.mark.parametrize("kind", BOUND_KINDS)
def test_each_kind_reads_exactly_the_inputs_of_its_table_entry(kind, sharp2d):
    # An input that the kind reads changes its report at some point of the
    # grid; one that it does not read leaves every report as it was. With
    # sharp2d, the covering kinds read neither c1 nor c2.
    reads = BOUND_TABLE[kind].reads
    if sharp2d and "sharp2d" in reads:
        reads = reads - {"c1", "c2"}
    points = [(n, eps) for n in (20, 500, 50_000) for eps in (0.03, 0.2, 0.9)]

    def reports(**change):
        inputs = dict(dict(r=3.0, delta=0.5, sharp2d=sharp2d, exact_m=False), **change)
        flags = {key: inputs.pop(key) for key in ("sharp2d", "exact_m")}
        out = []
        for n, eps in points:
            data = evaluate_bound(kind, BoundParams(n=n, eps=eps, d=2, **inputs), **flags).to_dict()
            # json compares floats by their repr, so NaNs compare equal
            out.append(json.dumps(data))
        return out

    base = reports()
    read = {
        name: reports(**{name: not sharp2d if name == "sharp2d" else value}) != base
        for name, value in _INPUT_CHANGES.items()
    }
    assert read == {name: name in reads for name in _INPUT_CHANGES}


def test_bound_table_lists_the_kinds_and_their_proven_dimensions():
    assert tuple(BOUND_TABLE) == BOUND_KINDS
    assert {kind: entry.proven_d for kind, entry in BOUND_TABLE.items()} == {
        "vc1": 2, "vc2": 2, "dkw": 1, "prop-r-delta": None, "cor-delta": None, "theorem": None, "bivariate": None,
    }


def test_report_dict_shape():
    rep = evaluate_bound("theorem", BoundParams(n=1000, eps=0.1, d=2))
    data = rep.to_dict()
    assert set(data) == {
        "kind", "bound_type", "value", "vacuous", "applicable",
        "preconditions", "intermediates", "caveats",
    }
    assert all({"name", "satisfied", "lhs", "rhs"} == set(p) for p in data["preconditions"])
    assert data["intermediates"]["C2"] == 1.0
