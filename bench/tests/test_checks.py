"""The benchmark's checks accept the program's outputs and reject corrupted ones.

Run with:  python -m pytest bench/tests
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracing
from halfdepth import (
    BOUND_KINDS,
    BoundParams,
    ExperimentConfig,
    Sample,
    build_cover,
    depth_brute,
    depth_certified,
    depth_exact_2d,
    evaluate_bound,
    run_bound_sweep,
    run_deviation_experiment,
    standard_normal,
    sup_deviation,
)
from halfdepth import bounds, experiments, sample_depth

BENCH = Path(run.__file__).resolve().parent
N = 60


def _sample(seed=3, n=N, d=2):
    return checks.trial_sample(seed, 0, n, d)


def test_trial_sample_is_the_harness_stream():
    from halfdepth import draw_sample, split_seed

    for seed, index in ((0, 0), (7, 3), (2**40 + 5, 99)):
        assert checks.split_seed(seed, index) == split_seed(seed, index)
        rng = np.random.default_rng(split_seed(seed, index))
        want = draw_sample(standard_normal(3), 40, rng).points
        assert np.array_equal(checks.trial_sample(seed, index, 40, 3), want)


@pytest.mark.parametrize("seed", range(5))
def test_exact_count_agrees_with_program_and_brute_on_gaussian_samples(seed):
    x = _sample(seed, n=40)
    rng = np.random.default_rng(seed)
    for q in rng.normal(size=(6, 2)):
        want = checks.exact_depth_count_2d(x, q)
        assert want == depth_exact_2d(q, Sample(x)).count == depth_brute(q, Sample(x)).count


def test_exact_count_handles_ties_on_an_integer_grid():
    rng = np.random.default_rng(11)
    for _ in range(40):
        x = rng.integers(-3, 4, size=(15, 2)).astype(float)
        q = rng.integers(-2, 3, size=2).astype(float)
        assert checks.exact_depth_count_2d(x, q) == depth_brute(q, Sample(x)).count


def test_exact_count_of_a_square_and_of_coincident_points():
    square = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    assert checks.exact_depth_count_2d(square, [0.0, 0.0]) == 2
    assert checks.exact_depth_count_2d(np.zeros((3, 2)), [0.0, 0.0]) == 3


def test_depth_count_off_by_one_is_rejected():
    x = _sample()
    q = np.array([0.3, -0.2])
    count = depth_exact_2d(q, Sample(x)).count
    checks.check_depth_count_2d(x, q, count)
    for wrong in (count - 1, count + 1):
        with pytest.raises(checks.CheckFailed):
            checks.check_depth_count_2d(x, q, wrong)


def test_query_error_of_a_count_off_by_one_is_rejected():
    pop = checks.normal_depth([0.5, 0.0])
    checks.check_query_error(abs(20 / N - pop), 20 / N, pop, "q")
    with pytest.raises(checks.CheckFailed):
        checks.check_query_error(abs(21 / N - pop), 20 / N, pop, "q")


def _certified_case():
    x = _sample(d=3)
    cover = build_cover(3, 0.3, rng=np.random.default_rng(1))
    q = np.array([0.2, -0.1, 0.3])
    interval = depth_certified(q, Sample(x), cover)
    lower, upper = round(interval.lower * N), round(interval.upper * N)
    directions = checks.random_directions(np.random.default_rng(2), 2000, 3)
    return x, q, lower, upper, cover.centers, directions


def test_certified_interval_is_accepted():
    x, q, lower, upper, centers, directions = _certified_case()
    assert lower < upper
    checks.check_interval(x, q, lower, upper, centers, directions)


def test_interval_with_lower_above_a_direction_count_is_rejected():
    x, q, lower, upper, centers, directions = _certified_case()
    ceiling = int(checks.closed_counts(x, q, directions, slack=1e-9).min())
    # Raise lower above the smallest direction count; widen upper so the
    # interval stays ordered and only the direction check can object.
    with pytest.raises(checks.CheckFailed, match="exceeds"):
        checks.check_interval(x, q, ceiling + 1, max(upper, ceiling + 1), centers, directions)


def test_interval_with_wrong_upper_or_order_is_rejected():
    x, q, lower, upper, centers, directions = _certified_case()
    with pytest.raises(checks.CheckFailed, match="upper"):
        checks.check_interval(x, q, lower, upper + 1, centers, directions)
    with pytest.raises(checks.CheckFailed, match="ordered"):
        checks.check_interval(x, q, upper + 1, upper, centers, directions)


def test_sup_deviation_matches_kstest_and_a_perturbation_is_rejected():
    x = _sample(n=300)
    cover = build_cover(2, 0.05)
    np.testing.assert_allclose(cover.centers, checks.circle_cover(0.05), rtol=0, atol=1e-15)
    sup = sup_deviation(Sample(x), standard_normal(2), cover)
    checks.check_sup_deviation(x, cover.centers, sup)
    with pytest.raises(checks.CheckFailed):
        checks.check_sup_deviation(x, cover.centers, sup * (1 + 1e-9))


def test_cover_with_a_hole_is_rejected():
    cover = build_cover(3, 0.3, rng=np.random.default_rng(1))
    directions = checks.random_directions(np.random.default_rng(2), 20_000, 3)
    checks.check_cover(cover.centers, 0.3, directions)
    with pytest.raises(checks.CheckFailed):
        checks.check_cover(cover.centers[::2], 0.3, directions)


def test_serial_and_pooled_trials_must_match():
    cfg = ExperimentConfig(dist=standard_normal(3), n=50, eps=0.2, trials=4, seed=5, psi=0.4, jobs=2)
    pooled = run_deviation_experiment(cfg).trials
    serial = run_deviation_experiment(replace(cfg, jobs=1)).trials
    checks.check_same_trials(pooled, serial)
    changed = list(serial)
    changed[2] = replace(changed[2], sup_deviation=changed[2].sup_deviation + 1e-15)
    with pytest.raises(checks.CheckFailed):
        checks.check_same_trials(pooled, changed)


def _sweep_rows(sharp):
    return run_bound_sweep(BOUND_KINDS, [60, 400, 2500], [0.05, 0.12, 0.2], 2, r=3.0, delta=0.5,
                           sharp2d=sharp, exact_m=sharp)


FORMS = {
    "dkw": lambda n, eps: checks.dkw_closed_form(n, eps),
    "bivariate": lambda n, eps: checks.bivariate_closed_form(n, eps),
    "vc1": lambda n, eps: checks.vc_exact_closed_form("vc1", n, eps),
    "vc2": lambda n, eps: checks.vc_exact_closed_form("vc2", n, eps),
}


@pytest.mark.parametrize("kind", sorted(FORMS))
def test_bound_rows_match_closed_forms_and_10th_digit_changes_are_rejected(kind):
    rows = [r for r in _sweep_rows(True) if r["kind"] == kind]
    assert rows
    rejected = 0
    for row in rows:
        form = FORMS[kind](row["n"], row["eps"])
        checks.check_bound_value(kind, row["value"], form)
        value, penalty = form
        if abs(value) < 0.01 * abs(penalty):
            continue  # a value this close to 0 keeps only the digits of its penalty
        with pytest.raises(checks.CheckFailed):
            checks.check_bound_value(kind, row["value"] * (1 + 1e-10), form)
        rejected += 1
    assert rejected >= len(rows) - 1


def test_sharp_theorem_equals_bivariate():
    rows = _sweep_rows(True)
    theorem = {(r["n"], r["eps"]): r["value"] for r in rows if r["kind"] == "theorem"}
    for r in rows:
        if r["kind"] == "bivariate":
            checks.check_bound_value("theorem", theorem[r["n"], r["eps"]],
                                     checks.bivariate_closed_form(r["n"], r["eps"]))


@pytest.mark.parametrize("sharp", [True, False])
def test_theorem_row_checks(sharp):
    for row in _sweep_rows(sharp):
        if row["kind"] != "theorem":
            continue
        params = BoundParams(n=row["n"], eps=row["eps"], d=2, r=3.0, delta=0.5)
        report = evaluate_bound("theorem", params, sharp2d=sharp)
        checks.check_theorem_row(row, report)
        with pytest.raises(checks.CheckFailed):
            checks.check_theorem_row(dict(row, value=row["value"] * (1 + 1e-10)), report)
        lowered = dict(report.intermediates, strict_delta_value=report.value - 1e-6)
        with pytest.raises(checks.CheckFailed, match="strict"):
            checks.check_theorem_row(row, replace(report, intermediates=lowered))


def test_self_times_subtract_the_union_of_overlapping_children():
    spans = [
        tracing.Span(1, 0, "a.root", 0.0, 10.0, None, 1),
        tracing.Span(2, 1, "b.x", 1.0, 4.0, None, 1),
        tracing.Span(3, 1, "b.y", 3.0, 6.0, None, 2),
        tracing.Span(4, 1, "b.z", 8.0, 12.0, None, 2),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs[2] == pytest.approx(3.0)


def _bench_config():
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_traced_block_reports_every_per_layer_metric_and_accounts_for_its_time():
    modules = {"experiments": experiments, "sample_depth": sample_depth, "bounds": bounds}
    tracer = tracing.Tracer()
    blocks = []
    for traced in (True, False):
        cfg = ExperimentConfig(dist=standard_normal(2), n=80, eps=0.2, trials=6, seed=1, psi=0.1,
                               kinds=("dkw", "vc2"))
        result, seconds = run._timed(lambda: experiments.run_deviation_experiment(cfg), traced, tracer, modules)
        block = run.Block(seconds, cfg.trials, traced, cfg)
        run.keep_monte_carlo(run.MonteCarlo(d=2, psi=0.1, jobs=1, block_trials=6), 1, len(blocks), cfg, result,
                             block, checks.Tally())
        blocks.append(block)
    assert experiments.run_deviation_experiment is run_deviation_experiment  # uninstalled
    probes = [{"import_s": 0.5}]
    metrics = run.per_layer_metrics(tracer, blocks, probes, BOUND_KINDS)
    assert [m["name"] for m in _bench_config()["per_layer"]] == list(metrics)
    assert {m["name"]: m["unit"] for m in _bench_config()["per_layer"]} == {k: u for k, (_, u) in metrics.items()}
    trials = [s for s in tracer.spans if s.name == "experiments.trial"]
    assert sorted(s.trial for s in trials) == list(range(6))
    assert metrics["experiments.trial.cpu_ms"][0] > 0
    layers = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_ms_per_op"))
    root = [s for s in tracer.spans if s.name == tracing.ROOT][0]
    bench_self = tracing.self_times(tracer.spans)[root.sid]
    # Self times are per op and sum, with the root's own, to the block's time.
    assert layers * 6 / 1e3 + bench_self == pytest.approx(root.duration, rel=1e-9)


def test_trials_on_the_pool_belong_to_the_experiment_span():
    modules = {"experiments": experiments, "sample_depth": sample_depth, "bounds": bounds}
    tracer = tracing.Tracer()
    cfg = ExperimentConfig(dist=standard_normal(3), n=50, eps=0.2, trials=6, seed=2, psi=0.4, jobs=2)
    run._timed(lambda: experiments.run_deviation_experiment(cfg), True, tracer, modules)
    parent = [s for s in tracer.spans if s.name == "experiments.run_deviation_experiment"][0]
    trials = [s for s in tracer.spans if s.name == "experiments.trial"]
    assert len(trials) == 6 and all(s.parent == parent.sid for s in trials)
    assert all(s.minflt is not None and s.cpu_s > 0 for s in trials)
    by_sid = {s.sid: s for s in trials}
    depth = [s for s in tracer.spans if s.name == "sample_depth.depth_certified"]
    assert len(depth) == 6 * 25 and all(by_sid[s.parent].trial == s.trial for s in depth)


def _mc_block(w, seed=4, index=0):
    cfg = run.mc_config(w, seed, index)
    result = run_deviation_experiment(cfg)
    block, tally = run.Block(1.0, cfg.trials, False, cfg), checks.Tally()
    run.keep_monte_carlo(w, seed, index, cfg, result, block, tally)
    return block, result, tally


def test_a_block_keeps_only_its_picked_trials_and_a_wrong_trial_fails_alone():
    w = run.MonteCarlo(d=2, psi=0.1, jobs=1, block_trials=8)
    block, result, tally = _mc_block(w)
    assert tally.failed == 0 and len(block.picked) == 1
    run.check_monte_carlo(w, 4, [block], {"sample_depth": sample_depth, "experiments": experiments}, tally)
    assert tally.failed == 0 and not tally.messages
    trial = block.picked[0]
    errors = list(trial.query_errors)
    errors[3] += 1 / run.N  # the error of a count off by one
    block.picked = (replace(trial, query_errors=tuple(errors)),)
    run.check_monte_carlo(w, 4, [block], {"sample_depth": sample_depth, "experiments": experiments}, tally)
    assert tally.rejected == {(0, trial.index)} and tally.failed == 1


def test_a_positive_slack_margin_fails_its_trial():
    w = run.MonteCarlo(d=2, psi=0.1, jobs=1, block_trials=5)
    cfg = run.mc_config(w, 4, 0)
    result = run_deviation_experiment(cfg)
    trials = list(result.trials)
    trials[2] = replace(trials[2], slack_margin=1e-3)
    tally = checks.Tally()
    run.keep_monte_carlo(w, 4, 0, cfg, replace(result, trials=tuple(trials)), run.Block(1.0, 5, False, cfg), tally)
    assert tally.rejected == {(0, 2)}


def test_a_wrong_sweep_row_fails_in_every_round():
    modules = {"experiments": experiments, "sample_depth": sample_depth, "bounds": bounds}
    w = run.Sweep(n_count=3, eps_count=2)
    tally = checks.Tally()
    step = run.SweepStep(w, 7, None, modules, tally)
    for index in range(3):
        step(index, False)
    run.check_sweep(w, 7, step.rows, 3, modules, tally)
    assert tally.failed == 0 and len(step.rows) == step.expected
    at = next(i for i, row in enumerate(step.rows) if row["kind"] == "dkw")
    step.rows[at] = dict(step.rows[at], value=step.rows[at]["value"] * (1 + 1e-10))
    run.check_sweep(w, 7, step.rows, 3, modules, tally)
    assert tally.rejected == {(r, at) for r in range(3)}


@pytest.mark.parametrize("entry", ["experiment", "sweep"])
def test_setup_probe_stops_at_the_first_trial_or_row(entry):
    if entry == "experiment":
        arguments = run.mc_config(run.WORKLOADS["mc-d3-jobs2"], 1, 0).to_dict()
    else:
        arguments = run.sweep_calls(run.sweep_grid(1, run.Sweep()), BOUND_KINDS)[0]
    report = run.probe_setup(entry, arguments)
    assert 0 < report["import_s"] < report["setup_s"] < 60


def test_end_to_end_metrics_match_the_config():
    config = _bench_config()
    assert [(m["name"], m["unit"]) for m in config["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in config["workloads"]] == list(run.WORKLOADS)


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "bound-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
