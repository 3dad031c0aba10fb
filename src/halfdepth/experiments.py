"""Seeded Monte Carlo harness validating depth convergence against the bounds.

Each trial draws a fresh sample, measures the largest projected-CDF
deviation over a direction cover, and scores depth at a fixed query set.
Trials are reproducible and order-independent: trial k always uses the
RNG stream derived from (seed, k) by a SplitMix-style 64-bit mix, so any
degree of parallelism produces bit-identical outputs.
"""

from __future__ import annotations

import csv
import io
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from .bounds import BOUND_KINDS, BOUND_TABLE, BoundParams, BoundReport, evaluate_bound, improvement_factor
from .geometry import _number, _points, build_cover
from .population import DistributionSpec, population_depth
from .sample_depth import Sample, _query_radii, depth_1d, depth_certified, depth_exact_2d_many, sup_deviation

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    """SplitMix64 finalizer: avalanche a 64-bit word."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def split_seed(seed: int, index: int) -> int:
    """Child seed for stream `index`: mix64(seed + (index + 1) * golden gamma)."""
    if index < 0:
        raise ValueError(f"stream index must be nonnegative, got {index}")
    return _mix64((int(seed) + (index + 1) * _GAMMA) & _MASK64)


def draw_sample(dist: DistributionSpec, n: int, rng: np.random.Generator) -> Sample:
    """Draw n iid points from the distribution using the given generator."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    z = rng.standard_normal((n, dist.d))
    if dist.family == "standard_normal":
        return Sample(z)
    return Sample(dist.reduction.from_reduced(z))


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a deviation experiment needs, fixed up front.

    queries is "auto" (a deterministic radial grid, see auto_queries) or a
    nonempty list of d-coordinate points, kept as a tuple of tuples. kinds
    is a list or tuple of bound identifiers from BOUND_KINDS. psi may be
    omitted (None) for d=1, where no cover is involved; for d >= 2 a None
    psi falls back to eps / (10 (ltheta + 2 sqrt(d) lpi)). A given psi must
    be positive in any d. The constructor checks every field, so a config
    from from_dict or dataclasses.replace is checked too: a malformed field
    raises a ValueError that names it.
    """

    dist: DistributionSpec
    n: int
    eps: float
    trials: int
    seed: int
    psi: float | None = None
    queries: object = "auto"
    kinds: tuple[str, ...] = ()
    jobs: int = 1
    c2: float = 1.0
    delta: float | None = None
    r: float | None = None

    def __post_init__(self):
        if not isinstance(self.dist, DistributionSpec):
            raise ValueError(f"dist must be a distribution object, got {self.dist!r}")
        for name, integer in _CONFIG_NUMBERS:
            value = getattr(self, name)
            if value is not None or name not in ("psi", "delta", "r"):
                object.__setattr__(self, name, _number(name, value, integer, _CONFIG_RANGES.get(name)))
        self.bound_params()  # checks the ranges of n, eps, c2, delta and r
        if not isinstance(self.kinds, (list, tuple)):
            raise ValueError(f"kinds must be a list of bound kinds, got {self.kinds!r}")
        unknown = [k for k in self.kinds if k not in BOUND_KINDS]
        if unknown:
            raise ValueError(f"unknown bound kinds {unknown}; expected ones of {BOUND_KINDS}")
        object.__setattr__(self, "kinds", tuple(self.kinds))
        if isinstance(self.queries, str):
            if self.queries != "auto":
                raise ValueError(f'queries must be "auto" or a nonempty list of points, got {self.queries!r}')
        else:
            pts = _points("queries", self.queries, self.dist.d)
            object.__setattr__(self, "queries", tuple(map(tuple, pts.tolist())))

    def bound_params(self) -> BoundParams:
        """The bound inputs: the law's constants, n, eps, c2, delta and r."""
        return BoundParams.from_distribution(self.dist, self.n, self.eps, c2=self.c2, delta=self.delta, r=self.r)

    def effective_psi(self) -> float | None:
        if self.dist.d == 1:
            return None
        if self.psi is not None:
            return self.psi
        return self.eps / (10.0 * (self.dist.ltheta + 2.0 * math.sqrt(self.dist.d) * self.dist.lpi))

    def to_dict(self) -> dict:
        """Every field, by name, in JSON types."""
        return {
            **{f.name: getattr(self, f.name) for f in fields(self)},
            "dist": self.dist.to_dict(),
            "queries": "auto" if self.queries == "auto" else [list(rw) for rw in self.queries],
            "kinds": list(self.kinds),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """The config of a to_dict form; dist may be a spec dictionary. A
        missing required key or an unknown one raises ValueError."""
        names = tuple(f.name for f in fields(cls))
        unknown = [key for key in data if key not in names]
        if unknown:
            raise ValueError(f"unknown experiment config keys {unknown}; expected ones of {names}")
        for f in fields(cls):
            if f.default is MISSING and f.name not in data:
                raise ValueError(f"experiment config needs {f.name}")
        if isinstance(data["dist"], dict):
            data = {**data, "dist": DistributionSpec.from_dict(data["dist"])}
        return cls(**data)


# The numeric fields of a config object as (name, integer). psi, delta and
# r may be None.
_CONFIG_NUMBERS = (
    ("n", True), ("eps", False), ("trials", True), ("seed", True),
    ("psi", False), ("jobs", True), ("c2", False), ("delta", False), ("r", False),
)

# The ranges the config checks itself; BoundParams checks those of n, eps,
# c2, delta and r, and build_cover psi's upper end, which depends on d.
_CONFIG_RANGES = {"trials": ">= 1", "jobs": ">= 1", "psi": "positive"}


@dataclass(frozen=True)
class TrialResult:
    """Per-trial outcome."""

    index: int
    sup_deviation: float
    query_errors: tuple[float, ...]
    interval_widths: tuple[float, ...]
    slack_margin: float | None


@dataclass(frozen=True)
class BoundComparison:
    """One bound kind against the empirical exceedance frequency."""

    kind: str
    report: BoundReport
    exceedance_bound: float
    empirical: float
    sigma: float
    within_band: bool
    enforced: bool
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "report": self.report.to_dict(),
            "exceedance_bound": self.exceedance_bound,
            "empirical": self.empirical,
            "sigma": self.sigma,
            "within_band": self.within_band,
            "enforced": self.enforced,
            "note": self.note,
        }


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    psi: float | None
    cover_size: int
    queries: tuple[tuple[float, ...], ...]
    population_depths: tuple[float, ...]
    trials: tuple[TrialResult, ...]
    exceedance: float
    comparisons: tuple[BoundComparison, ...]
    validity_ok: bool
    findings: tuple[str, ...]

    def exceedance_at(self, eps: float) -> float:
        """Fraction of trials whose sup deviation reached eps."""
        return _exceedance(self.trials, eps)


def _exceedance(trials, eps: float) -> float:
    """Fraction of the trials whose sup deviation reached eps."""
    return sum(1 for t in trials if t.sup_deviation >= eps) / len(trials)


def auto_queries(dist: DistributionSpec) -> np.ndarray:
    """Deterministic query grid: radii {0, .5, 1, 1.5, 2} x 5 directions.

    The grid lives in the whitened coordinates and is mapped back through
    the distribution's affine transform, so it probes comparable depth
    levels for every covariance. For d=2 the directions are equally
    spaced; for d >= 3 they come from a fixed-seed draw; for d=1 they
    alternate between the two sides of the origin.
    """
    d = dist.d
    radii = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
    if d == 1:
        dirs = np.array([[1.0], [-1.0], [1.0], [-1.0], [1.0]])
    elif d == 2:
        ang = 2.0 * math.pi * np.arange(5) / 5.0
        dirs = np.column_stack([np.cos(ang), np.sin(ang)])
    else:
        rng = np.random.default_rng(20250819)
        v = rng.standard_normal((5, d))
        dirs = v / np.linalg.norm(v, axis=1)[:, None]
    reduced = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, d)
    if dist.family == "standard_normal":
        return reduced
    return dist.reduction.from_reduced(reduced)


def _run_trial(cfg, cover, queries, pop_depths, index) -> TrialResult:
    rng = np.random.default_rng(split_seed(cfg.seed, index))
    sample = draw_sample(cfg.dist, cfg.n, rng)
    sup = sup_deviation(sample, cfg.dist, cover)
    d = cfg.dist.d
    errors = []
    widths = []
    slack_margin = None
    # The planar sweep scores all queries in one call; the certified
    # depth's calls share the projection the sample keeps for its cover.
    exact = depth_exact_2d_many(queries, sample) / sample.n if d == 2 else None
    for j, (q, pop) in enumerate(zip(queries, pop_depths)):
        if d == 1:
            value = depth_1d(q[0], sample).value
        elif d == 2:
            value = float(exact[j])
        else:
            interval = depth_certified(q, sample, cover)
            value = 0.5 * (interval.lower + interval.upper)
            widths.append(interval.upper - interval.lower)
        errors.append(abs(value - pop))
    if d == 2 and cover is not None:
        # The sample depth error at any query is at most the true sup
        # deviation, which exceeds the cover-restricted estimate by at
        # most (ltheta + lpi * R_q) * psi; record the worst margin.
        allowance = sup + (cfg.dist.ltheta + cfg.dist.lpi * _query_radii(queries, sample.points.T)) * cover.psi
        slack_margin = float((np.asarray(errors) - allowance).max())
    return TrialResult(
        index=index,
        sup_deviation=float(sup),
        query_errors=tuple(errors),
        interval_widths=tuple(widths),
        slack_margin=slack_margin,
    )


def _bound_reports(cfg: ExperimentConfig) -> tuple[BoundReport, ...]:
    """Evaluate each configured kind; raises before any trial runs when a
    kind cannot be evaluated for this configuration."""
    params = cfg.bound_params()
    return tuple(
        evaluate_bound(kind, params, exact_m=("exact_m" in BOUND_TABLE[kind].reads and cfg.dist.d == 2))
        for kind in cfg.kinds
    )


def _compare_bounds(
    cfg: ExperimentConfig, reports: tuple[BoundReport, ...], exceedance: float
) -> tuple[tuple[BoundComparison, ...], bool, tuple[str, ...]]:
    comparisons = []
    findings = []
    validity_ok = True
    for kind, report in zip(cfg.kinds, reports):
        bound = report.exceedance_bound()
        sigma = max(math.sqrt(bound * (1.0 - bound) / cfg.trials), 1.0 / cfg.trials)
        within = exceedance <= bound + 3.0 * sigma
        # A violated proven bound fails validity. A violated kind that reads
        # the uncalibrated leading constant C2 is a finding instead.
        enforced = BOUND_TABLE[kind].proven_d == cfg.dist.d and report.applicable
        note = ""
        if not within:
            if enforced:
                note = "validity-check failure"
                validity_ok = False
            else:
                note = "C2 calibration finding" if "c2" in BOUND_TABLE[kind].reads else "informational"
            findings.append(
                f"{kind} ({note}): empirical exceedance {exceedance:.6g} above bound {bound:.6g}"
            )
        comparisons.append(
            BoundComparison(
                kind=kind,
                report=report,
                exceedance_bound=bound,
                empirical=exceedance,
                sigma=sigma,
                within_band=within,
                enforced=enforced,
                note=note,
            )
        )
    return tuple(comparisons), validity_ok, tuple(findings)


def run_deviation_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run all trials, compare the exceedance frequency with each bound.

    Deterministic given (config, seed): per-trial RNG streams are derived
    from the trial index, the cover consumes no randomness, and results are
    sorted by trial index regardless of execution order. The bounds are
    evaluated and the cover is built first, so a kind that cannot be
    evaluated or a cover too large to build fails before any trial runs.
    """
    reports = _bound_reports(cfg)
    psi = cfg.effective_psi()
    cover = None if psi is None else build_cover(cfg.dist.d, psi)
    if cfg.queries == "auto":
        queries = auto_queries(cfg.dist)
    else:
        queries = np.asarray(cfg.queries, dtype=float)
    pop_depths = tuple(population_depth(cfg.dist, q) for q in queries)

    indices = range(cfg.trials)
    if cfg.jobs == 1:
        trials = [_run_trial(cfg, cover, queries, pop_depths, i) for i in indices]
    else:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            trials = list(pool.map(lambda i: _run_trial(cfg, cover, queries, pop_depths, i), indices))
    trials.sort(key=lambda t: t.index)

    exceedance = _exceedance(trials, cfg.eps)
    comparisons, validity_ok, findings = _compare_bounds(cfg, reports, exceedance)
    return ExperimentResult(
        config=cfg,
        psi=psi,
        cover_size=0 if cover is None else cover.n_centers,
        queries=tuple(tuple(float(c) for c in q) for q in queries),
        population_depths=pop_depths,
        trials=tuple(trials),
        exceedance=exceedance,
        comparisons=comparisons,
        validity_ok=validity_ok,
        findings=findings,
    )


def run_bound_sweep(
    kinds,
    n_values,
    eps_values,
    d: int,
    sharp2d: bool = False,
    exact_m: bool = False,
    **constants,
) -> list[dict]:
    """Evaluate bound kinds over a grid of (n, eps); one row per combination.

    constants are the other BoundParams fields (lam, c1, lpi, ltheta, c2,
    r, delta); an omitted one takes the BoundParams default.

    The grid is one BoundParams over n-major arrays of every (n, eps)
    point, with the values as given, validated once before any bound is
    evaluated, so a bad grid value (a fraction or a bool in n, say) raises
    BoundParams' ValueError before the first row. Each kind is
    one evaluate_bound call over the whole grid, and its rows are read off
    the report's arrays. Rows run kind-major, then n, then eps.

    Rows record the value, vacuous and applicability flags, a compact
    precondition summary, the implied exceedance bound, and (for the vc2
    and theorem kinds) the coefficient improvement factor n^((d+7)/2)
    separating the two routes.
    """
    if not len(n_values) or not len(eps_values):
        return []
    # Object arrays keep every value as it was given, so that BoundParams
    # refuses a bool among them.
    n_values, eps_values = np.asarray(n_values, dtype=object), np.asarray(eps_values, dtype=object)
    params = BoundParams(
        n=np.repeat(n_values, len(eps_values)),
        eps=np.tile(eps_values, len(n_values)),
        d=d,
        **constants,
    )
    n_list, eps_list = params.n.tolist(), params.eps.tolist()
    blank = [""] * len(n_list)
    factors = improvement_factor(params.n, d).tolist() if d >= 2 else blank
    rows = []
    for kind in kinds:
        report = evaluate_bound(kind, params, sharp2d=sharp2d, exact_m=exact_m)
        factor = factors if kind in ("vc2", "theorem") else blank
        rows += [
            {
                "kind": kind,
                "n": n,
                "eps": eps,
                "d": d,
                "value": value,
                "bound_type": report.bound_type,
                "vacuous": vacuous,
                "applicable": applicable,
                "preconditions": summary,
                "exceedance_bound": exceedance,
                "improvement_factor": f,
            }
            for n, eps, value, vacuous, applicable, summary, exceedance, f in zip(
                n_list, eps_list, report.value.tolist(), report.vacuous.tolist(),
                report.applicable.tolist(), _precondition_summaries(report.preconditions, len(n_list)),
                report.exceedance_bound().tolist(), factor,
            )
        ]
    return rows


def _precondition_summaries(preconditions, size: int) -> list[str]:
    """Each grid point's "name=ok;name=violated" summary of a grid report's
    preconditions: one string per combination, indexed per point."""
    table, index = [""], np.zeros(size, dtype=np.intp)
    for p in preconditions:
        index = index + len(table) * p.satisfied
        table = [f"{head}{';' if head else ''}{p.name}={state}" for state in ("violated", "ok") for head in table]
    return [table[i] for i in index.tolist()]


_SWEEP_COLUMNS = (
    "kind", "n", "eps", "d", "value", "bound_type", "vacuous",
    "applicable", "preconditions", "exceedance_bound", "improvement_factor",
)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def sweep_rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_SWEEP_COLUMNS)
    for row in rows:
        writer.writerow([_fmt(row[c]) for c in _SWEEP_COLUMNS])
    return buf.getvalue()


def results_csv(result: ExperimentResult) -> str:
    """Deterministic per-trial table."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["trial", "sup_deviation", "max_query_error", "mean_query_error", "max_interval_width"])
    for t in result.trials:
        width = max(t.interval_widths) if t.interval_widths else ""
        writer.writerow(
            [
                t.index,
                _fmt(t.sup_deviation),
                _fmt(max(t.query_errors)),
                _fmt(sum(t.query_errors) / len(t.query_errors)),
                _fmt(width) if width != "" else "",
            ]
        )
    return buf.getvalue()


def summary_dict(result: ExperimentResult) -> dict:
    sups = sorted(t.sup_deviation for t in result.trials)
    mid = len(sups) // 2
    median = sups[mid] if len(sups) % 2 else 0.5 * (sups[mid - 1] + sups[mid])
    return {
        "config": result.config.to_dict(),
        "psi": result.psi,
        "cover_size": result.cover_size,
        "queries": [list(q) for q in result.queries],
        "population_depths": list(result.population_depths),
        "exceedance": result.exceedance,
        "sup_deviation_median": median,
        "sup_deviation_max": sups[-1],
        "max_query_error": max(max(t.query_errors) for t in result.trials),
        "comparisons": [c.to_dict() for c in result.comparisons],
        "validity_ok": result.validity_ok,
        "findings": list(result.findings),
    }


def default_sweep_grid(n: int) -> list[int]:
    """Log-spaced n grid around the configured sample size, for plot data."""
    lo = max(4, n // 10)
    hi = max(lo + 1, n * 10)
    grid = np.unique(np.round(np.geomspace(lo, hi, 25)).astype(int))
    return [int(v) for v in grid]


def write_outputs(result: ExperimentResult, out_dir) -> dict:
    """Write results.csv, summary.json, and plotdata.csv; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = result.config
    paths = {
        "results": out / "results.csv",
        "summary": out / "summary.json",
        "plotdata": out / "plotdata.csv",
    }
    paths["results"].write_text(results_csv(result))
    paths["summary"].write_text(json.dumps(summary_dict(result), indent=2, sort_keys=True) + "\n")
    kinds = cfg.kinds if cfg.kinds else ("dkw",)
    rows = run_bound_sweep(
        kinds,
        default_sweep_grid(cfg.n),
        [cfg.eps],
        cfg.dist.d,
        lam=cfg.dist.lam,
        c1=cfg.dist.c1,
        lpi=cfg.dist.lpi,
        ltheta=cfg.dist.ltheta,
        c2=cfg.c2,
        delta=cfg.delta,
        r=cfg.r,
        exact_m=(cfg.dist.d == 2),
    )
    paths["plotdata"].write_text(sweep_rows_to_csv(rows))
    return paths
