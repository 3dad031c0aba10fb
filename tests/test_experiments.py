"""Unit tests for the Monte Carlo harness: seeding, trials, sweeps, outputs."""

import csv
import io
import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import halfdepth.experiments as expmod
from halfdepth.bounds import BOUND_KINDS, BoundParams, evaluate_bound, improvement_factor
from halfdepth.experiments import (
    ExperimentConfig,
    auto_queries,
    default_sweep_grid,
    draw_sample,
    results_csv,
    run_bound_sweep,
    run_deviation_experiment,
    split_seed,
    summary_dict,
    sweep_rows_to_csv,
    write_outputs,
)
from halfdepth.population import elliptical_normal, population_depth, standard_normal

SQRT_2PI = math.sqrt(2.0 * math.pi)


# -------------------------------------------------------------- seed splitting


def test_split_seed_reference_values():
    # first two are the published SplitMix64 outputs for seed 0
    assert split_seed(0, 0) == 16294208416658607535
    assert split_seed(0, 1) == 7960286522194355700
    assert split_seed(42, 0) == 13679457532755275413


def test_split_seed_is_pure_and_distinct():
    a = [split_seed(123, i) for i in range(100)]
    b = [split_seed(123, i) for i in range(100)]
    assert a == b
    assert len(set(a)) == 100
    assert split_seed(123, 0) != split_seed(124, 0)
    with pytest.raises(ValueError):
        split_seed(1, -1)


def test_split_seed_fits_64_bits():
    for seed in (0, 1, 2 ** 63, 2 ** 64 - 1):
        child = split_seed(seed, 7)
        assert 0 <= child < 2 ** 64


# ----------------------------------------------------------------- draw_sample


def test_draw_sample_deterministic():
    dist = standard_normal(2)
    a = draw_sample(dist, 10, np.random.default_rng(5)).points
    b = draw_sample(dist, 10, np.random.default_rng(5)).points
    np.testing.assert_array_equal(a, b)


def test_draw_sample_elliptical_moments():
    sigma = np.diag([4.0, 1.0])
    dist = elliptical_normal([1.0, -2.0], sigma)
    s = draw_sample(dist, 100_000, np.random.default_rng(99))
    cov = np.cov(s.points.T)
    np.testing.assert_allclose(cov, sigma, rtol=0.05, atol=0.05)
    np.testing.assert_allclose(s.points.mean(axis=0), [1.0, -2.0], atol=0.05)


def test_draw_sample_standard_tail_identity():
    # planar standard normal: Pr(|X| > R) is exactly exp(-R^2/2)
    dist = standard_normal(2)
    s = draw_sample(dist, 200_000, np.random.default_rng(3))
    norms = np.linalg.norm(s.points, axis=1)
    assert np.mean(norms > 2.0) == pytest.approx(math.exp(-2.0), abs=2e-3)


# ------------------------------------------------------------------- config


def test_config_round_trip():
    cfg = ExperimentConfig(
        dist=standard_normal(2), n=50, eps=0.2, trials=10, seed=7,
        psi=0.05, kinds=("dkw", "theorem"), jobs=3, c2=1.5, delta=0.5,
    )
    back = ExperimentConfig.from_dict(cfg.to_dict())
    assert back == cfg


def test_config_explicit_queries_round_trip():
    cfg = ExperimentConfig(
        dist=standard_normal(2), n=5, eps=0.5, trials=2, seed=1,
        queries=((0.0, 0.0), (1.0, 1.0)),
    )
    back = ExperimentConfig.from_dict(cfg.to_dict())
    assert back.queries == ((0.0, 0.0), (1.0, 1.0))


@pytest.mark.parametrize(
    "dist, psi",
    [(standard_normal(2), 0.2), (elliptical_normal([0.5, 0.0, -1.0], np.diag([2.0, 1.0, 0.5]) + 0.1), 0.4)],
    ids=["d2", "d3"],
)
def test_explicit_queries_score_as_the_same_auto_queries(dist, psi):
    # A query's error depends on the query and the trial's sample only, so
    # the first k auto queries, given as a list, score bit for bit as they
    # do in the auto run.
    base = ExperimentConfig(dist=dist, n=40, eps=0.3, trials=4, seed=21, psi=psi)
    auto = run_deviation_experiment(base)
    k = 7
    chosen = run_deviation_experiment(replace(base, queries=auto_queries(dist)[:k].tolist()))
    assert chosen.queries == auto.queries[:k]
    assert chosen.population_depths == auto.population_depths[:k]
    for got, want in zip(chosen.trials, auto.trials, strict=True):
        assert got.sup_deviation == want.sup_deviation
        assert got.query_errors == want.query_errors[:k]
        assert got.interval_widths == want.interval_widths[:k]


def test_config_validation():
    dist = standard_normal(2)
    with pytest.raises(ValueError):
        ExperimentConfig(dist=dist, n=0, eps=0.1, trials=1, seed=0)
    with pytest.raises(ValueError):
        ExperimentConfig(dist=dist, n=1, eps=0.0, trials=1, seed=0)
    with pytest.raises(ValueError):
        ExperimentConfig(dist=dist, n=1, eps=0.1, trials=0, seed=0)
    with pytest.raises(ValueError):
        ExperimentConfig(dist=dist, n=1, eps=0.1, trials=1, seed=0, kinds=("zzz",))
    with pytest.raises(ValueError):
        ExperimentConfig(dist=dist, n=1, eps=0.1, trials=1, seed=0, queries=((1.0,),))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            ExperimentConfig(dist=dist, n=1, eps=0.1, trials=1, seed=0, queries=((0.0, 0.0), (bad, 0.0)))
    for field, value in (("queries", ()), ("queries", (0.1, 0.2)), ("queries", "center"), ("dist", 5), ("kinds", "dkw")):
        base = dict(dist=dist, n=1, eps=0.1, trials=1, seed=0)
        with pytest.raises(ValueError, match=f"^{field} must be"):
            ExperimentConfig(**{**base, field: value})
        data = {**ExperimentConfig(**base).to_dict(), field: value}
        with pytest.raises(ValueError, match=f"^{field} must be"):
            ExperimentConfig.from_dict(data)


_CONFIG_BASE = dict(dist=standard_normal(2), n=30, eps=0.3, trials=4, seed=1)

# The three ways to make a config with field set to value: each must reach
# the constructor's checks.
_BUILDS = {
    "direct": lambda field, value: ExperimentConfig(**{**_CONFIG_BASE, field: value}),
    "from_dict": lambda field, value: ExperimentConfig.from_dict(
        {**ExperimentConfig(**_CONFIG_BASE).to_dict(), field: value}
    ),
    "replace": lambda field, value: replace(ExperimentConfig(**_CONFIG_BASE), **{field: value}),
}


@pytest.mark.parametrize("build", _BUILDS)
@pytest.mark.parametrize(
    "field, value, message",
    [
        ("n", 300.7, "n must be an integer, got 300.7"),
        ("trials", 2.5, "trials must be an integer, got 2.5"),
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("jobs", 2.5, "jobs must be an integer, got 2.5"),
        ("n", math.inf, "n must be an integer, got inf"),
        ("jobs", True, "jobs must be a number, got True"),
        ("n", True, "n must be a number, got True"),
        ("eps", True, "eps must be a number, got True"),
        ("c2", False, "c2 must be a number, got False"),
        ("psi", True, "psi must be a number, got True"),
        ("delta", True, "delta must be a number, got True"),
        ("r", False, "r must be a number, got False"),
        ("c2", -1, "c2 must be positive, got -1.0"),
        ("psi", -5, "psi must be positive, got -5.0"),
        ("psi", 0.0, "psi must be positive, got 0.0"),
    ],
)
def test_config_refuses_a_fraction_in_a_count_and_a_bool_in_any_number(build, field, value, message):
    with pytest.raises(ValueError) as exc:
        _BUILDS[build](field, value)
    assert exc.value.args == (message,)


def test_config_refuses_an_unknown_key():
    data = {**ExperimentConfig(**_CONFIG_BASE).to_dict(), "jobz": 4}
    with pytest.raises(ValueError, match=r"^unknown experiment config keys \['jobz'\]; expected ones of \('dist', "):
        ExperimentConfig.from_dict(data)


def test_config_dict_keys_are_the_fields():
    cfg = ExperimentConfig(**_CONFIG_BASE)
    assert list(cfg.to_dict()) == [f.name for f in fields(ExperimentConfig)]


# (name, integer) of each numeric field, read off the annotations
_NUMERIC_FIELDS = [
    (f.name, f.type == "int") for f in fields(ExperimentConfig) if f.type in ("int", "float", "float | None")
]

_JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8) | st.sampled_from(
    ["3", "-2", "0.25", "2.5", "1e3", "inf", "nan", "two", ""]
)


@settings(max_examples=400)
@given(field=st.sampled_from(_NUMERIC_FIELDS), value=_JSON_SCALARS)
def test_config_takes_a_json_scalar_or_refuses_it_naming_the_field(field, value):
    # The CLI turns a ValueError into an error: line, and anything else into
    # a traceback, so no JSON scalar in a numeric field may raise anything
    # else.
    (name, integer) = field
    try:
        cfg = ExperimentConfig.from_dict({**ExperimentConfig(**_CONFIG_BASE).to_dict(), name: value})
    except ValueError as exc:
        assert str(exc).startswith(f"{name} must be"), exc
        return
    got = getattr(cfg, name)
    if value is None:
        assert got is None and name in ("psi", "delta", "r")
        return
    assert not isinstance(value, bool)
    assert type(got) is (int if integer else float)
    # a string is read as a number; any other value keeps its own
    got, want = (float(got), float(value)) if isinstance(value, str) else (got, type(got)(value))
    assert got == want or (math.isnan(got) and math.isnan(want))


def test_config_takes_integral_floats_and_numeric_strings_as_before():
    base = dict(dist=standard_normal(2), n=30, eps=0.3, trials=4, seed=1, jobs=2, c2=2.0)
    data = {**ExperimentConfig(**base).to_dict(), "n": 30.0, "trials": "4", "seed": 1.0, "jobs": 2.0, "c2": 2}
    cfg = ExperimentConfig.from_dict(data)
    assert cfg == ExperimentConfig(**base)
    assert [type(getattr(cfg, key)) for key in ("n", "trials", "seed", "jobs", "c2")] == [int] * 4 + [float]


def test_effective_psi_default():
    dist = standard_normal(2)
    cfg = ExperimentConfig(dist=dist, n=10, eps=0.2, trials=1, seed=0)
    expected = 0.2 / (10.0 * (0.0 + 2.0 * math.sqrt(2.0) / SQRT_2PI))
    assert cfg.effective_psi() == pytest.approx(expected, rel=1e-12)
    explicit = ExperimentConfig(dist=dist, n=10, eps=0.2, trials=1, seed=0, psi=0.07)
    assert explicit.effective_psi() == 0.07
    one_d = ExperimentConfig(dist=standard_normal(1), n=10, eps=0.2, trials=1, seed=0)
    assert one_d.effective_psi() is None


# ---------------------------------------------------------------- auto queries


def test_auto_queries_shape_and_radii():
    dist = standard_normal(2)
    q = auto_queries(dist)
    assert q.shape == (25, 2)
    radii = np.linalg.norm(q, axis=1)
    expected = np.repeat([0.0, 0.5, 1.0, 1.5, 2.0], 5)
    np.testing.assert_allclose(np.sort(radii), np.sort(expected), atol=1e-12)


def test_auto_queries_elliptical_map():
    # queries live on whitened-radius shells mapped through the transform,
    # so their population depth depends only on the shell
    dist = elliptical_normal([2.0, 0.0], [[9.0, 0.0], [0.0, 1.0]])
    q = auto_queries(dist)
    depths = np.array([population_depth(dist, row) for row in q])
    from scipy.special import ndtr

    for radius in (0.0, 0.5, 1.0, 1.5, 2.0):
        shell = depths[np.isclose(np.repeat([0.0, 0.5, 1.0, 1.5, 2.0], 5), radius)]
        np.testing.assert_allclose(shell, float(ndtr(-radius)), rtol=1e-10)


def test_auto_queries_1d():
    q = auto_queries(standard_normal(1))
    assert q.shape == (25, 1)
    assert set(np.round(np.abs(q[:, 0]), 6)) == {0.0, 0.5, 1.0, 1.5, 2.0}


def test_auto_queries_deterministic_3d():
    a = auto_queries(standard_normal(3))
    b = auto_queries(standard_normal(3))
    np.testing.assert_array_equal(a, b)


# ------------------------------------------------------------ experiment runs


def test_run_experiment_1d_reference():
    cfg = ExperimentConfig(
        dist=standard_normal(1), n=200, eps=0.1, trials=200, seed=11, kinds=("dkw",)
    )
    res = run_deviation_experiment(cfg)
    assert res.cover_size == 0
    assert res.psi is None
    assert len(res.trials) == 200
    assert all(t.sup_deviation >= 0.0 for t in res.trials)
    assert all(0.0 <= e <= 1.0 for t in res.trials for e in t.query_errors)
    assert res.validity_ok
    (comp,) = res.comparisons
    assert comp.kind == "dkw"
    assert comp.enforced


def test_run_experiment_single_point_large_eps():
    # KS statistic for n=1 is max(U, 1-U); exceedance at 0.9 is exactly 0.2
    cfg = ExperimentConfig(
        dist=standard_normal(1), n=1, eps=0.9, trials=4000, seed=21
    )
    res = run_deviation_experiment(cfg)
    sigma = math.sqrt(0.2 * 0.8 / 4000)
    assert abs(res.exceedance - 0.2) <= 4 * sigma


def test_exceedance_monotone_in_eps():
    cfg = ExperimentConfig(
        dist=standard_normal(1), n=50, eps=0.05, trials=300, seed=2
    )
    res = run_deviation_experiment(cfg)
    values = [res.exceedance_at(e) for e in (0.05, 0.1, 0.2, 0.4)]
    assert values == sorted(values, reverse=True)
    assert res.exceedance == values[0]


def test_run_experiment_2d_records_queries_and_slack():
    cfg = ExperimentConfig(
        dist=standard_normal(2), n=60, eps=0.3, trials=12, seed=9, psi=0.05
    )
    res = run_deviation_experiment(cfg)
    assert res.cover_size == math.ceil(math.pi / 0.05) + 1
    assert len(res.queries) == 25
    assert len(res.population_depths) == 25
    for t in res.trials:
        assert len(t.query_errors) == 25
        assert t.slack_margin is not None
        # per-query error <= cover sup + Lipschitz bridge, checked per trial
        assert t.slack_margin <= 1e-12
        assert t.interval_widths == ()


def test_run_experiment_3d_uses_certified_intervals():
    cfg = ExperimentConfig(
        dist=standard_normal(3), n=30, eps=0.4, trials=6, seed=14, psi=0.25
    )
    res = run_deviation_experiment(cfg)
    assert res.cover_size > 0
    for t in res.trials:
        assert len(t.interval_widths) == 25
        assert all(w >= 0.0 for w in t.interval_widths)


def test_parallel_trials_bit_identical():
    base = dict(dist=standard_normal(2), n=40, eps=0.25, trials=24, seed=33, psi=0.1)
    serial = run_deviation_experiment(ExperimentConfig(jobs=1, **base))
    threaded = run_deviation_experiment(ExperimentConfig(jobs=4, **base))
    assert results_csv(serial) == results_csv(threaded)
    assert serial.exceedance == threaded.exceedance


def test_parallel_certified_trials_bit_identical():
    base = dict(dist=standard_normal(3), n=40, eps=0.25, trials=12, seed=34, psi=0.3)
    serial = run_deviation_experiment(ExperimentConfig(jobs=1, **base))
    threaded = run_deviation_experiment(ExperimentConfig(jobs=4, **base))
    assert results_csv(serial) == results_csv(threaded)
    assert [t.interval_widths for t in serial.trials] == [t.interval_widths for t in threaded.trials]
    assert all(t.interval_widths for t in serial.trials)


def test_validity_failure_marks_result(monkeypatch):
    # force an enforced bound to report an impossible exceedance of zero
    real = expmod.evaluate_bound

    def doctored(kind, params, sharp2d=False, exact_m=False):
        rep = real(kind, params, sharp2d=sharp2d, exact_m=exact_m)
        if kind == "dkw":
            object.__setattr__(rep, "value", 0.0)
        return rep

    monkeypatch.setattr(expmod, "evaluate_bound", doctored)
    cfg = ExperimentConfig(
        dist=standard_normal(1), n=20, eps=0.05, trials=50, seed=3, kinds=("dkw",)
    )
    res = run_deviation_experiment(cfg)
    assert not res.validity_ok
    assert any("dkw" in f for f in res.findings)
    (comp,) = res.comparisons
    assert comp.enforced and not comp.within_band
    assert comp.note == "validity-check failure"


def test_covering_route_violation_is_finding_not_failure(monkeypatch):
    real = expmod.evaluate_bound

    def doctored(kind, params, sharp2d=False, exact_m=False):
        rep = real(kind, params, sharp2d=sharp2d, exact_m=exact_m)
        if kind == "theorem":
            object.__setattr__(rep, "value", 1.0)  # claims exceedance 0
        return rep

    monkeypatch.setattr(expmod, "evaluate_bound", doctored)
    cfg = ExperimentConfig(
        dist=standard_normal(2), n=20, eps=0.05, trials=40, seed=8, psi=0.1,
        kinds=("theorem",),
    )
    res = run_deviation_experiment(cfg)
    assert res.validity_ok  # C2 is uncalibrated: finding, not failure
    (comp,) = res.comparisons
    assert not comp.within_band
    assert comp.note == "C2 calibration finding"
    assert any("C2" in f or "theorem" in f for f in res.findings)


def test_unenforced_kind_is_informational():
    cfg = ExperimentConfig(
        dist=standard_normal(2), n=30, eps=0.3, trials=10, seed=4, psi=0.1,
        kinds=("dkw",),
    )
    res = run_deviation_experiment(cfg)
    (comp,) = res.comparisons
    assert not comp.enforced  # dkw is only enforced in d=1
    assert comp.note in ("", "informational")


# ------------------------------------------------------------------- sweeps


def test_run_bound_sweep_rows():
    rows = run_bound_sweep(
        ["dkw", "vc2", "theorem"], [100, 1000], [0.1, 0.2], d=2,
        lam=1.0, c1=1.0, lpi=1.0 / SQRT_2PI, ltheta=0.0, c2=1.0,
    )
    assert len(rows) == 12
    for row in rows:
        assert set(row) >= {
            "kind", "n", "eps", "d", "value", "bound_type", "vacuous",
            "applicable", "preconditions", "exceedance_bound", "improvement_factor",
        }
    vc2_rows = [r for r in rows if r["kind"] == "vc2"]
    th_rows = [r for r in rows if r["kind"] == "theorem"]
    assert all(r["improvement_factor"] == pytest.approx(r["n"] ** 4.5) for r in vc2_rows)
    assert all(r["improvement_factor"] == pytest.approx(r["n"] ** 4.5) for r in th_rows)
    dkw_rows = [r for r in rows if r["kind"] == "dkw"]
    assert all(r["improvement_factor"] == "" for r in dkw_rows)


def test_sweep_csv_round_trips_floats():
    rows = run_bound_sweep(
        ["dkw"], [123], [0.137], d=1,
        lam=1.0, c1=1.0, lpi=1.0 / SQRT_2PI, ltheta=0.0, c2=1.0,
    )
    text = sweep_rows_to_csv(rows)
    reader = csv.DictReader(io.StringIO(text))
    row = next(reader)
    assert float(row["value"]) == rows[0]["value"]
    assert row["vacuous"] in ("true", "false")


def test_sweep_deterministic():
    kwargs = dict(lam=0.5, c1=2.0, lpi=0.3, ltheta=0.1, c2=1.0)
    a = run_bound_sweep(["theorem"], [10, 100], [0.1], d=3, **kwargs)
    b = run_bound_sweep(["theorem"], [10, 100], [0.1], d=3, **kwargs)
    assert sweep_rows_to_csv(a) == sweep_rows_to_csv(b)


def _per_row_sweep(kinds, n_values, eps_values, d, sharp2d=False, exact_m=False, **constants):
    """The reference loop: one BoundParams and one evaluate_bound per (kind, n, eps)."""
    rows = []
    for kind in kinds:
        for n in n_values:
            for eps in eps_values:
                params = BoundParams(n=int(n), eps=float(eps), d=d, **constants)
                report = evaluate_bound(kind, params, sharp2d=sharp2d, exact_m=exact_m)
                pre = ";".join(
                    f"{p.name}={'ok' if p.satisfied else 'violated'}" for p in report.preconditions
                )
                rows.append(
                    {
                        "kind": kind,
                        "n": int(n),
                        "eps": float(eps),
                        "d": d,
                        "value": report.value,
                        "bound_type": report.bound_type,
                        "vacuous": report.vacuous,
                        "applicable": report.applicable,
                        "preconditions": pre,
                        "exceedance_bound": report.exceedance_bound(),
                        "improvement_factor": improvement_factor(int(n), d)
                        if kind in ("vc2", "theorem") and d >= 2
                        else "",
                    }
                )
    return rows


_OTHER_CONSTANTS = dict(lam=0.7, c1=2.5, lpi=0.3, ltheta=0.2, c2=3.0)


@pytest.mark.parametrize(
    "d, flags, constants",
    [
        (2, dict(sharp2d=True, exact_m=True), dict(r=3.0, delta=0.5)),
        (2, dict(sharp2d=False, exact_m=False), dict(r=3.0, delta=0.5)),
        (2, dict(sharp2d=True, exact_m=True), dict(_OTHER_CONSTANTS, r=2.2, delta=0.01)),
        (2, dict(sharp2d=False, exact_m=False), dict(_OTHER_CONSTANTS, r=4.0, delta=1.5)),
        (3, dict(), dict(r=3.0, delta=0.5)),
        (3, dict(), dict(_OTHER_CONSTANTS, r=2.2, delta=0.01)),
    ],
    ids=["d2-sharp", "d2-generic", "d2-sharp-constants", "d2-generic-constants",
         "d3", "d3-constants"],
)
def test_sweep_rows_equal_the_per_row_loop(d, flags, constants):
    args = (BOUND_KINDS, np.array([4, 60, 999, 5000]), [0.03, 0.12, 0.5, 1.0], d)
    rows = run_bound_sweep(*args, **flags, **constants)
    want = _per_row_sweep(*args, **flags, **constants)
    assert len(rows) == len(BOUND_KINDS) * 16
    assert rows == want
    assert sweep_rows_to_csv(rows).encode() == sweep_rows_to_csv(want).encode()


def test_sweep_validates_the_grid_once_and_evaluates_each_kind_once(monkeypatch):
    # bench/tracing.py and bench/setup_probe.py hook experiments.evaluate_bound
    # by name, so every kind must go through that global.
    built, evaluated = [], []
    real_params, real_evaluate = expmod.BoundParams, expmod.evaluate_bound

    def counting_params(*args, **kwargs):
        built.append((kwargs["n"].tolist(), kwargs["eps"].tolist()))
        return real_params(*args, **kwargs)

    def counting_evaluate(kind, params, *args, **kwargs):
        evaluated.append((kind, params.n.tolist(), params.eps.tolist()))
        return real_evaluate(kind, params, *args, **kwargs)

    monkeypatch.setattr(expmod, "BoundParams", counting_params)
    monkeypatch.setattr(expmod, "evaluate_bound", counting_evaluate)
    rows = run_bound_sweep(BOUND_KINDS, [50, 400, 3000], [0.05, 0.2], d=2, r=3.0, delta=0.5)
    grid = ([n for n in (50, 400, 3000) for _ in range(2)], [0.05, 0.2] * 3)
    assert built == [grid]
    assert evaluated == [(kind, *grid) for kind in BOUND_KINDS]
    assert [(row["kind"], row["n"], row["eps"]) for row in rows] == [
        (kind, n, eps) for kind in BOUND_KINDS for n, eps in zip(*grid)
    ]


@pytest.mark.parametrize(
    "n_values, eps_values, message",
    [
        ([300], [0.1, 0.0], "eps must be in (0, 1], got 0.0"),
        ([300, 0], [0.1], "n must be >= 1, got 0"),
    ],
    ids=["eps", "n"],
)
def test_sweep_bad_grid_value_fails_before_any_row(monkeypatch, n_values, eps_values, message):
    evaluated = []
    real_evaluate = expmod.evaluate_bound

    def counting_evaluate(*args, **kwargs):
        evaluated.append(args[0])
        return real_evaluate(*args, **kwargs)

    monkeypatch.setattr(expmod, "evaluate_bound", counting_evaluate)
    with pytest.raises(ValueError) as excinfo:
        run_bound_sweep(["dkw", "theorem"], n_values, eps_values, d=2)
    assert excinfo.value.args == (message,)
    assert evaluated == []


def test_default_sweep_grid():
    grid = default_sweep_grid(300)
    assert grid[0] >= 4
    assert grid[-1] == 3000
    assert grid == sorted(set(grid))


# ------------------------------------------------------------------ outputs


def test_results_csv_layout():
    cfg = ExperimentConfig(dist=standard_normal(1), n=20, eps=0.2, trials=5, seed=6)
    res = run_deviation_experiment(cfg)
    text = results_csv(res)
    lines = text.strip().split("\n")
    assert lines[0] == "trial,sup_deviation,max_query_error,mean_query_error,max_interval_width"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "0"
    # 17 significant digits survive a float round trip
    assert float(first[1]) == res.trials[0].sup_deviation


def test_summary_dict_contents():
    cfg = ExperimentConfig(
        dist=standard_normal(2), n=30, eps=0.3, trials=8, seed=12, psi=0.1,
        kinds=("dkw", "bivariate"),
    )
    res = run_deviation_experiment(cfg)
    summary = summary_dict(res)
    assert summary["config"]["n"] == 30
    assert summary["cover_size"] == res.cover_size
    assert summary["exceedance"] == res.exceedance
    assert len(summary["comparisons"]) == 2
    assert summary["validity_ok"] is True
    json.dumps(summary)  # must be serializable as-is


def test_write_outputs_files(tmp_path):
    cfg = ExperimentConfig(
        dist=standard_normal(2), n=25, eps=0.3, trials=4, seed=2, psi=0.1,
        kinds=("dkw",),
    )
    res = run_deviation_experiment(cfg)
    paths = write_outputs(res, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "plotdata.csv", "results.csv", "summary.json",
    ]
    summary = json.loads(paths["summary"].read_text())
    assert summary["exceedance"] == res.exceedance
    plot = paths["plotdata"].read_text().strip().split("\n")
    assert plot[0].startswith("kind,n,eps")
    assert len(plot) > 2


def test_write_outputs_deterministic(tmp_path):
    cfg = ExperimentConfig(
        dist=standard_normal(1), n=15, eps=0.25, trials=6, seed=77, kinds=("dkw",)
    )
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    write_outputs(run_deviation_experiment(cfg), a_dir)
    write_outputs(run_deviation_experiment(cfg), b_dir)
    for name in ("results.csv", "summary.json", "plotdata.csv"):
        assert (a_dir / name).read_text() == (b_dir / name).read_text()
