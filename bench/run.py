"""Benchmark of halfdepth's Monte Carlo harness, depth layer and bound sweep.

Run from the root of a source checkout:

    python3 bench/run.py --workload mc-d2-exact --seed 1 --seconds 22 --trace 0

Workloads (the Monte Carlo ones on the standard normal, n = 300,
eps = 0.15, the 25 auto queries, bound kinds dkw, vc2 and theorem):

    mc-d2-exact      d=2, psi=0.02: exact planar depth, no certified depth
    mc-d3-certified  d=3, psi=0.2: certified depth on the main thread
    mc-d3-jobs2      mc-d3-certified on a thread pool of 2
    bound-sweep      run_bound_sweep over every kind on a seeded (n, eps) grid

A Monte Carlo block is one run_deviation_experiment followed by
write_outputs; a sweep round is two run_bound_sweep calls (sharp-2d with
the exact planar count, and generic). The run repeats whole blocks or
rounds for --seconds of block time and reports operations (trials or
rows) per second over all of them. Set-up time is taken from fresh
processes (setup_probe.py), several per run, and reported as a median.
Outputs are checked outside the timed part (checks.py): the checks that
need a whole block's result right after the block, the rest after the
run on what each block kept. The last line of standard output is one
JSON object: correct, attempted, failed and the metrics, end-to-end ones
with --trace 0 and per-layer ones with --trace 1. The traced run
alternates traced and untraced blocks, so it also measures the tracing
overhead, and writes its spans to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 7
N = 300
EPS = 0.15
MC_KINDS = ("dkw", "vc2", "theorem")
# Each of the first PICKED_BLOCKS blocks keeps one seeded trial, whose
# sample is rebuilt and checked query by query after the run.
PICKED_BLOCKS = 6
SERIAL_TRIALS = 10
EXTRA_DIRECTIONS = 2000
# The traced run stops tracing new blocks beyond this many spans (memory).
MAX_SPANS = 200_000
# Reserved stream index of the harness's cover randomness.
COVER_STREAM = 1 << 32


@dataclass(frozen=True)
class MonteCarlo:
    d: int
    psi: float
    jobs: int
    block_trials: int


@dataclass(frozen=True)
class Sweep:
    n_count: int = 12
    eps_count: int = 8


WORKLOADS = {
    "mc-d2-exact": MonteCarlo(d=2, psi=0.02, jobs=1, block_trials=200),
    "mc-d3-certified": MonteCarlo(d=3, psi=0.2, jobs=1, block_trials=100),
    "mc-d3-jobs2": MonteCarlo(d=3, psi=0.2, jobs=2, block_trials=320),
    "bound-sweep": Sweep(),
}

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("peak_rss_mb", "MB"))


@dataclass
class Block:
    """One timed block (Monte Carlo) or round (sweep).

    A Monte Carlo block keeps only what the checks after the run need, so
    that the memory the benchmark holds does not grow with the number of
    blocks that fit in the run.
    """

    seconds: float
    ops: int
    traced: bool
    cfg: object = None
    raised: bool = False
    queries: tuple = ()
    population_depths: tuple = ()
    cover_size: int = 0
    picked: tuple = ()  # trials checked query by query after the run
    head: tuple = ()  # first trials of a pooled block 0, compared with a serial run
    width_sum: float = 0.0
    width_count: int = 0


def rate(blocks: list[Block]) -> float:
    """Operations per second over the blocks' total time.

    On a shared host the CPU speed can drift in phases of seconds; the
    total over the run averages them, where a median of short blocks
    jumps between phases.
    """
    return sum(b.ops for b in blocks) / sum(b.seconds for b in blocks)


def block_seed(seed: int, block: int) -> int:
    return seed * 100_003 + block


def mc_config(w: MonteCarlo, seed: int, block: int):
    from halfdepth import ExperimentConfig, standard_normal

    return ExperimentConfig(
        dist=standard_normal(w.d), n=N, eps=EPS, trials=w.block_trials, seed=block_seed(seed, block),
        psi=w.psi, kinds=MC_KINDS, jobs=w.jobs,
    )


def sweep_grid(seed: int, sweep: Sweep) -> dict:
    """Seeded (n, eps) grid with 2 n eps^2 <= 625, so no value underflows."""
    rng = np.random.default_rng([seed, 0x5EED])
    candidates = np.unique(np.round(np.geomspace(50, 5000, 400)).astype(int))
    return {
        "n_values": sorted(int(v) for v in rng.choice(candidates, sweep.n_count, replace=False)),
        "eps_values": sorted(float(v) for v in rng.uniform(0.03, 0.25, sweep.eps_count)),
        "r": float(rng.uniform(2.0, 4.0)),
        "delta": float(rng.uniform(0.2, 1.0)),
    }


def sweep_calls(grid: dict, kinds) -> list[dict]:
    """Keyword arguments of the round's run_bound_sweep calls: sharp-2d with
    the exact planar count, then generic."""
    return [
        dict(kinds=list(kinds), n_values=grid["n_values"], eps_values=grid["eps_values"], d=2,
             r=grid["r"], delta=grid["delta"], sharp2d=sharp, exact_m=sharp)
        for sharp in (True, False)
    ]


def probe_setup(entry: str, arguments: dict) -> dict:
    """Set up once in a fresh process; returns its set-up time and import time."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), entry, json.dumps(arguments)]
    start = time.perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    report = json.loads(done.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["ready"] - start
    return report


def _timed(fn, traced: bool, tracer, modules):
    if traced:
        tracer.install(modules)
        try:
            result, span = tracer.block(fn)
        finally:
            tracer.uninstall()
        return result, span.duration
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def measure(step, seconds: float, tracer, probe) -> tuple[list[Block], list[dict]]:
    """Repeat step(index, traced) -> Block for `seconds` of block time.

    The set-up probes run between blocks, spread evenly over the span, so
    that set-up and throughput sample the same stretch of machine time.
    The traced run alternates traced and untraced blocks.
    """
    blocks, probes = [], []
    spent = 0.0
    while len(blocks) < (2 if tracer else 1) or spent < seconds:
        while len(probes) < SETUP_REPEATS and spent >= len(probes) * seconds / SETUP_REPEATS:
            probes.append(probe())
        traced = tracer is not None and len(blocks) % 2 == 0 and len(tracer.records) < MAX_SPANS
        block = step(len(blocks), traced)
        blocks.append(block)
        spent += block.seconds
    while len(probes) < SETUP_REPEATS:
        probes.append(probe())
    return blocks, probes


def keep_monte_carlo(w: MonteCarlo, seed: int, b: int, cfg, res, block: Block, tally: checks.Tally) -> None:
    """Run the checks that need the whole result of block b, and keep in
    `block` what the checks after the run need."""
    ops = [(b, k) for k in range(cfg.trials)]
    tally.check(ops, checks.require, [t.index for t in res.trials] == list(range(cfg.trials)),
                f"block {b}: trials missing or out of order")
    tally.check(ops, checks.require, res.validity_ok, f"block {b}: validity check failed: {res.findings}")
    tally.check(ops, checks.require, len(res.queries) == 25, f"block {b}: {len(res.queries)} auto queries, expected 25")
    tally.check(ops, checks.check_population_depths, res.queries, res.population_depths)
    if w.d == 2:
        m = checks.circle_cover(w.psi).shape[0]
        tally.check(ops, checks.require, res.cover_size == m, f"block {b}: cover of {res.cover_size}, expected {m}")
        for t in res.trials:
            tally.check([(b, t.index)], checks.require, t.slack_margin is not None and t.slack_margin <= 0.0,
                        f"block {b} trial {t.index}: slack margin {t.slack_margin!r}")
    block.queries, block.population_depths = res.queries, res.population_depths
    block.cover_size = res.cover_size
    if b < PICKED_BLOCKS and res.trials:
        block.picked = (res.trials[int(np.random.default_rng([seed, 0xC4EC, b]).integers(len(res.trials)))],)
    if w.jobs > 1 and b == 0:
        block.head = res.trials[:SERIAL_TRIALS]
    widths = [x for t in res.trials for x in t.interval_widths]
    block.width_sum, block.width_count = sum(widths), len(widths)


def monte_carlo_step(name: str, w: MonteCarlo, seed: int, tracer, modules, tally: checks.Tally):
    exp = modules["experiments"]
    out_dir = OUT / name

    def step(index: int, traced: bool) -> Block:
        cfg = mc_config(w, seed, index)

        def experiment():
            result = exp.run_deviation_experiment(cfg)
            exp.write_outputs(result, out_dir)
            return result

        start = time.perf_counter()
        try:
            result, elapsed = _timed(experiment, traced, tracer, modules)
        except Exception as exc:  # a fault of the program: every trial of the block failed
            tally.fail([(index, k) for k in range(cfg.trials)], f"block {index}: {exc!r}")
            return Block(time.perf_counter() - start, cfg.trials, traced, cfg, raised=True)
        block = Block(elapsed, cfg.trials, traced, cfg)
        keep_monte_carlo(w, seed, index, cfg, result, block, tally)
        return block

    return step


class SweepStep:
    """One sweep round per step. Keeps the first round's rows, for the
    checks after the run; a row of a later round that differs from the
    first round's fails."""

    def __init__(self, w: Sweep, seed: int, tracer, modules, tally: checks.Tally):
        self.calls = sweep_calls(sweep_grid(seed, w), modules["bounds"].BOUND_KINDS)
        self.expected = len(modules["bounds"].BOUND_KINDS) * 2 * w.n_count * w.eps_count
        self.tracer, self.modules, self.tally = tracer, modules, tally
        self.rows = None

    def _round(self) -> list[dict]:
        rows = []
        for kwargs in self.calls:
            rows += self.modules["experiments"].run_bound_sweep(**kwargs)
        return rows

    def __call__(self, index: int, traced: bool) -> Block:
        ops = [(index, i) for i in range(self.expected)]
        start = time.perf_counter()
        try:
            rows, elapsed = _timed(self._round, traced, self.tracer, self.modules)
        except Exception as exc:  # a fault of the program: every row of the round failed
            self.tally.fail(ops, f"round {index}: {exc!r}")
            return Block(time.perf_counter() - start, self.expected, traced, raised=True)
        if self.rows is None:
            self.rows = rows
        elif len(rows) != len(self.rows):
            self.tally.check(ops, checks.require, False, f"round {index}: {len(rows)} rows, the first round {len(self.rows)}")
        else:
            for i, (row, first) in enumerate(zip(rows, self.rows)):
                self.tally.check([(index, i)], checks.require, row == first, f"round {index} row {i} differs from round 0")
        return Block(elapsed, self.expected, traced)


def check_monte_carlo(w: MonteCarlo, seed: int, blocks: list[Block], modules, tally: checks.Tally) -> None:
    from halfdepth import build_cover

    sd = modules["sample_depth"]
    directions = checks.random_directions(np.random.default_rng([seed, 0xC4EC]), EXTRA_DIRECTIONS, w.d)
    for b, blk in enumerate(blocks):
        if blk.raised:
            continue
        cfg = blk.cfg
        if w.d == 2:
            cover, centers = None, checks.circle_cover(w.psi)
        else:
            cover = build_cover(w.d, w.psi, rng=np.random.default_rng(checks.split_seed(cfg.seed, COVER_STREAM)))
            centers = cover.centers
            ops = [(b, k) for k in range(cfg.trials)]
            tally.check(ops, checks.check_cover, centers, w.psi, directions)
            tally.check(ops, checks.require, blk.cover_size == centers.shape[0],
                        f"block {b}: cover of {blk.cover_size}, expected {centers.shape[0]}")
        for trial in blk.picked:
            tally.check([(b, trial.index)], check_trial, w, sd, blk, b, trial, cover, centers, directions)
    if w.jobs > 1 and not blocks[0].raised:
        cfg = blocks[0].cfg
        serial = modules["experiments"].run_deviation_experiment(replace(cfg, trials=SERIAL_TRIALS, jobs=1))
        for got, want in zip(blocks[0].head, serial.trials):
            tally.check([(0, got.index)], checks.check_same_trials, [got], [want])


def check_trial(w: MonteCarlo, sd, blk: Block, b: int, trial, cover, centers, directions) -> None:
    """Rebuild a trial's sample and check its outputs query by query."""
    from halfdepth import Sample

    x = checks.trial_sample(blk.cfg.seed, trial.index, N, w.d)
    checks.check_sup_deviation(x, centers, trial.sup_deviation)
    sample = Sample(x)
    for j, (q, pop) in enumerate(zip(blk.queries, blk.population_depths)):
        label = f"block {b} trial {trial.index} query {j}"
        if w.d == 2:
            count = sd.depth_exact_2d(q, sample).count
            checks.check_depth_count_2d(x, q, count)
            checks.check_query_error(trial.query_errors[j], count / N, pop, label)
            continue
        interval = sd.depth_certified(q, sample, cover)
        lower, upper = round(interval.lower * N), round(interval.upper * N)
        checks.check_interval(x, q, lower, upper, centers, directions)
        width = trial.interval_widths[j]
        checks.require(abs(width - (upper - lower) / N) <= checks.VALUE_ATOL, f"{label}: interval width {width!r}")
        checks.check_query_error(trial.query_errors[j], 0.5 * (lower + upper) / N, pop, label)


def check_sweep(w: Sweep, seed: int, rows: list[dict] | None, rounds: int, modules, tally: checks.Tally) -> None:
    """Check the first round's rows; a row that fails fails in every round,
    since every later round repeats the first."""
    if rows is None:
        return
    bounds = modules["bounds"]
    grid = sweep_grid(seed, w)
    expected = [
        (sharp, kind, n, eps)
        for sharp in (True, False)
        for kind in bounds.BOUND_KINDS
        for n in grid["n_values"]
        for eps in grid["eps_values"]
    ]

    def every_round(*rows_at):
        return [(r, i) for r in range(rounds) for i in rows_at]

    if len(rows) != len(expected):
        tally.check(every_round(*range(len(expected))), checks.require, False,
                    f"{len(rows)} sweep rows, expected {len(expected)}")
        return
    bivariate = {(n, eps): checks.bivariate_closed_form(n, eps) for n in grid["n_values"] for eps in grid["eps_values"]}
    for i, (row, (sharp, kind, n, eps)) in enumerate(zip(rows, expected)):
        tally.check(every_round(i), check_row, row, sharp, kind, n, eps, grid, bounds, bivariate)


def check_row(row: dict, sharp: bool, kind: str, n: int, eps: float, grid: dict, bounds, bivariate) -> None:
    from halfdepth import BoundParams

    checks.require(
        (row["kind"], row["n"], row["eps"], row["d"]) == (kind, n, eps, 2), f"sweep row {row} out of place"
    )
    label = f"{kind} n={n} eps={eps!r}"
    if kind == "dkw":
        checks.check_bound_value(label, row["value"], checks.dkw_closed_form(n, eps))
    elif kind == "bivariate":
        checks.check_bound_value(label, row["value"], bivariate[n, eps])
    elif kind in ("vc1", "vc2") and sharp:
        checks.check_bound_value(label, row["value"], checks.vc_exact_closed_form(kind, n, eps))
    elif kind == "theorem":
        params = BoundParams(n=n, eps=eps, d=2, r=grid["r"], delta=grid["delta"])
        checks.check_theorem_row(row, bounds.evaluate_bound("theorem", params, sharp2d=sharp))
        if sharp:
            # bivariate is the sharp-2d theorem for the planar standard normal.
            checks.check_bound_value(f"sharp-2d {label} against bivariate", row["value"], bivariate[n, eps])


def per_layer_metrics(tracer, blocks: list[Block], probes: list[dict], kinds) -> dict:
    from tracing import durations, self_times

    spans = tracer.spans
    selfs = self_times(spans)
    traced = [b for b in blocks if b.traced]
    untraced = [b for b in blocks if not b.traced]
    ops = sum(b.ops for b in traced)

    def median_of(name, scale):
        values = durations(spans, name)
        return statistics.median(values) * scale if values else 0.0

    trials = [s for s in spans if s.name == "experiments.trial"]
    trial_ms = sorted(s.duration * 1e3 for s in trials)
    sweeps = [s for s in spans if s.name == "experiments.run_bound_sweep"]
    sweep_rows = sum(s.size or 0 for s in sweeps)
    width_count = sum(b.width_count for b in traced)
    centers = [b.cover_size for b in traced if b.cfg is not None and not b.raised]

    metrics = {
        "setup.import_s": (statistics.median(p["import_s"] for p in probes), "s"),
        "geometry.build_cover.ms": (median_of("geometry.build_cover", 1e3), "ms"),
        "geometry.build_cover.centers": (statistics.median(centers) if centers else 0, "count"),
        "population.population_depth.us": (median_of("population.population_depth", 1e6), "us/call"),
        "population.cdf_projected_many.ms": (median_of("population.cdf_projected_many", 1e3), "ms/call"),
        "experiments.draw_sample.us": (median_of("experiments.draw_sample", 1e6), "us/call"),
        "experiments.trial.ms_p50": (statistics.median(trial_ms) if trial_ms else 0.0, "ms"),
        "experiments.trial.ms_p90": (
            statistics.quantiles(trial_ms, n=10)[-1] if len(trial_ms) > 1 else 0.0, "ms"
        ),
        "experiments.trial.cpu_ms": (
            sum(s.cpu_s for s in trials) * 1e3 / len(trials) if trials else 0.0, "ms/trial"
        ),
        "experiments.trial.minflt": (
            sum(s.minflt for s in trials) / len(trials) if trials else 0.0, "faults/trial"
        ),
        "experiments.trial.self_ms": (
            sum(selfs[s.sid] for s in trials) * 1e3 / len(trials) if trials else 0.0, "ms/trial"
        ),
        "experiments.write_outputs.ms": (median_of("experiments.write_outputs", 1e3), "ms"),
        "experiments.run_bound_sweep.self_us": (
            sum(selfs[s.sid] for s in sweeps) * 1e6 / sweep_rows if sweep_rows else 0.0, "us/row"
        ),
        "sample_depth.sup_deviation.ms": (median_of("sample_depth.sup_deviation", 1e3), "ms/call"),
        "sample_depth.depth_exact_2d.us": (median_of("sample_depth.depth_exact_2d", 1e6), "us/call"),
        "sample_depth.depth_certified.us": (median_of("sample_depth.depth_certified", 1e6), "us/call"),
        "sample_depth.depth_certified.width_mean": (
            sum(b.width_sum for b in traced) / width_count if width_count else 0.0, "depth"
        ),
    }
    for kind in kinds:
        metrics[f"bounds.evaluate_bound.{kind}.us"] = (median_of(f"bounds.evaluate_bound.{kind}", 1e6), "us/call")
    for layer in ("experiments", "sample_depth", "population", "geometry", "bounds"):
        total = sum(selfs[s.sid] for s in spans if s.layer == layer)
        metrics[f"{layer}.self_ms_per_op"] = (total * 1e3 / ops, "ms/op")
    metrics["trace.overhead_pct"] = ((rate(untraced) / rate(traced) - 1.0) * 100.0, "%")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of halfdepth (see the module docstring).")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "halfdepth" / "__init__.py").is_file():
        print(f"halfdepth sources not found under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    sys.path.insert(0, str(SRC))
    from halfdepth import bounds, experiments, sample_depth

    modules = {"experiments": experiments, "sample_depth": sample_depth, "bounds": bounds}
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    tally = checks.Tally()
    OUT.mkdir(exist_ok=True)
    if isinstance(workload, MonteCarlo):
        step = monte_carlo_step(args.workload, workload, args.seed, tracer, modules, tally)
        probe_args = ("experiment", mc_config(workload, args.seed, 0).to_dict())
    else:
        step = SweepStep(workload, args.seed, tracer, modules, tally)
        probe_args = ("sweep", step.calls[0])
    blocks, probes = measure(step, args.seconds, tracer, lambda: probe_setup(*probe_args))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for i, b in enumerate(blocks):
        print(f"block {i}: {b.ops} ops in {b.seconds:.4f} s{' (traced)' if b.traced else ''}", file=sys.stderr)
    for p in probes:
        print(f"set-up: {p['setup_s']:.4f} s, import {p['import_s']:.4f} s", file=sys.stderr)

    started = time.perf_counter()
    if isinstance(workload, MonteCarlo):
        check_monte_carlo(workload, args.seed, blocks, modules, tally)
    else:
        check_sweep(workload, args.seed, step.rows, len(blocks), modules, tally)
    for message in tally.messages[:20]:
        print(f"failed: {message}", file=sys.stderr)
    print(f"checks: {time.perf_counter() - started:.1f} s", file=sys.stderr)

    if tracer:
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        metrics = per_layer_metrics(tracer, blocks, probes, bounds.BOUND_KINDS)
    else:
        values = {
            "setup_s": statistics.median(p["setup_s"] for p in probes),
            "ops_per_s": rate(blocks),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    result = {
        "correct": not tally.rejected,
        "attempted": sum(b.ops for b in blocks),
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
