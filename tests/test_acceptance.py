"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest -v tests/test_acceptance.py -s` to see every verdict.
Each criterion asserts the documented tolerance and its runtime budget.
"""

import math
import time

import numpy as np
from mpmath import mp, mpf, exp as mpexp, sqrt as mpsqrt, pi as mppi

from halfdepth.bounds import (
    BoundParams,
    evaluate_bound,
    halfplane_subset_count,
    improvement_factor,
    regular_polygon,
    shatter_exact_2d,
)
from halfdepth.experiments import (
    ExperimentConfig,
    results_csv,
    run_bound_sweep,
    run_deviation_experiment,
    split_seed,
)
from halfdepth.geometry import build_cover, sample_directions, verify_cover
from halfdepth.population import population_depth, standard_normal
from halfdepth.sample_depth import (
    Sample,
    depth_brute,
    depth_certified,
    depth_exact_2d,
    sup_deviation,
)
from scipy.special import ndtr


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"[acceptance] criterion {num} ({name}): {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def test_criterion_01_exact_2d_matches_brute_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(20250825)
    mismatches = 0
    for i in range(200):
        n = int(rng.integers(1, 13))
        pts = rng.integers(-16, 17, size=(n, 2)).astype(float) / 8.0
        if i % 2 == 0:
            q = rng.integers(-16, 17, size=2).astype(float) / 8.0
        else:
            q = rng.normal(size=2)
        s = Sample(pts)
        if depth_exact_2d(q, s).count != depth_brute(q, s).count:
            mismatches += 1
    elapsed = time.monotonic() - start
    _verdict(
        1, "exact 2d equals brute oracle on 200 grid instances",
        mismatches == 0 and elapsed < 10.0,
        f"mismatches={mismatches}, {elapsed:.2f}s",
    )


def test_criterion_02_subset_count_formula():
    start = time.monotonic()
    bad = [
        r for r in range(3, 9)
        if halfplane_subset_count(regular_polygon(r)) != r * r - r + 2
    ]
    elapsed = time.monotonic() - start
    _verdict(
        2, "regular polygon subset counts match r^2-r+2",
        not bad and elapsed < 5.0,
        f"failures={bad}, {elapsed:.2f}s",
    )


def test_criterion_03_bivariate_bound_extended_precision():
    mp.dps = 50
    n = mpf(10) ** 4
    eps = mpf(1) / 20
    coefficient = 2 * mpsqrt(2 * mppi) * n ** mpf("1.5") + n + 2
    reference = 1 - coefficient * mpexp(4) * mpexp(-2 * n * eps ** 2)
    got = evaluate_bound("bivariate", BoundParams(n=10 ** 4, eps=0.05)).value
    rel = abs(got - float(reference)) / abs(float(reference))
    _verdict(3, "bivariate closed form matches 50-digit recomputation",
             rel <= 1e-12, f"rel={rel:.3e}")


def test_criterion_04_dkw_exceedance_one_dimensional():
    start = time.monotonic()
    cfg = ExperimentConfig(
        dist=standard_normal(1), n=200, eps=0.1, trials=2000, seed=777,
        kinds=("dkw",),
    )
    res = run_deviation_experiment(cfg)
    bound = 2.0 * math.exp(-4.0)
    threshold = bound + 3.0 * math.sqrt(bound / 2000.0)
    elapsed = time.monotonic() - start
    _verdict(
        4, "DKW validity at n=200, eps=0.1 over 2000 trials",
        res.exceedance <= threshold and res.validity_ok and elapsed < 30.0,
        f"exceedance={res.exceedance:.4f} <= {threshold:.4f}, {elapsed:.1f}s",
    )


def test_criterion_05_vc_bound_validity_and_crossover():
    start = time.monotonic()
    n, eps = 300, 0.15
    cfg = ExperimentConfig(
        dist=standard_normal(2), n=n, eps=eps, trials=1000, seed=4242,
        psi=0.02, kinds=("vc2",),
    )
    res = run_deviation_experiment(cfg)
    bound_at_n = min(1.0, 4.0 * shatter_exact_2d(n * n) * math.exp(-2.0 * n * eps * eps))
    empirical_ok = res.exceedance <= bound_at_n and res.validity_ok

    # the bound is vacuous here; the sweep must locate where it stops being so
    grid = list(range(400, 901, 10))
    rows = run_bound_sweep(
        ["vc2"], grid, [eps], d=2,
        lam=1.0, c1=1.0, lpi=1.0 / math.sqrt(2.0 * math.pi), ltheta=0.0, c2=1.0,
        exact_m=True,
    )
    crossing = next(r["n"] for r in rows if r["value"] < 1.0)

    def raw(x: float) -> float:
        m = x * x * (x * x - 1.0) + 2.0  # m_exact(x^2) on a continuous argument
        return math.log(4.0 * m) - 2.0 * x * eps * eps

    lo, hi = 400.0, 900.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if raw(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    bisected = hi
    step = grid[1] - grid[0]
    crossover_ok = abs(crossing - bisected) <= step
    elapsed = time.monotonic() - start
    _verdict(
        5, "vacuous vc2 passes and sweep finds the crossover",
        bool(bound_at_n >= 1.0) and empirical_ok and crossover_ok and elapsed < 120.0,
        f"exceedance={res.exceedance:.3f}, grid={crossing}, bisect={bisected:.1f}, {elapsed:.1f}s",
    )


def test_criterion_06_certified_interval_contains_exact():
    start = time.monotonic()
    rng = np.random.default_rng(606)
    cover = build_cover(2, 0.05)
    contained = 0
    for _ in range(500):
        pts = rng.standard_normal((100, 2))
        s = Sample(pts)
        q = rng.standard_normal(2)
        exact = depth_exact_2d(q, s).value
        iv = depth_certified(q, s, cover)
        if iv.lower <= exact <= iv.upper:
            contained += 1
    elapsed = time.monotonic() - start
    _verdict(
        6, "certified interval contains exact depth in 500/500 runs",
        contained == 500 and elapsed < 60.0,
        f"contained={contained}/500, {elapsed:.1f}s",
    )


def test_criterion_07_affine_invariance_exact_2d():
    start = time.monotonic()
    rng = np.random.default_rng(707)
    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(5, 41))
        pts = rng.standard_normal((n, 2))
        q = rng.standard_normal(2) * 0.7
        # condition number <= 50 by construction
        theta1, theta2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
        c1, s1 = math.cos(theta1), math.sin(theta1)
        c2, s2 = math.cos(theta2), math.sin(theta2)
        u = np.array([[c1, -s1], [s1, c1]])
        v = np.array([[c2, -s2], [s2, c2]])
        smin = float(rng.uniform(1.0 / 50.0, 1.0))
        a = u @ np.diag([1.0, smin]) @ v
        b = rng.standard_normal(2) * 3.0
        before = depth_exact_2d(q, Sample(pts)).count
        after = depth_exact_2d(a @ q + b, Sample(pts @ a.T + b)).count
        if before != after:
            mismatches += 1
    elapsed = time.monotonic() - start
    _verdict(
        7, "exact 2d depth is affine invariant (cond <= 50)",
        mismatches == 0 and elapsed < 10.0,
        f"mismatches={mismatches}, {elapsed:.2f}s",
    )


def test_criterion_08_population_depth_direction_sampling():
    start = time.monotonic()
    ok = True
    worst_gap = 0.0
    for d in (2, 3):
        rng = np.random.default_rng(800 + d)
        queries = rng.standard_normal((100, d))
        dirs = sample_directions(d, 10_000, rng)
        dist = standard_normal(d)
        sampled_min = ndtr(queries @ dirs.T).min(axis=1)
        for q, smin in zip(queries, sampled_min):
            closed = population_depth(dist, q)
            gap = float(smin - closed)
            worst_gap = max(worst_gap, abs(gap))
            if gap < -1e-12 or gap > 1e-3:
                ok = False
    elapsed = time.monotonic() - start
    _verdict(
        8, "sampled direction minimum brackets the closed form",
        ok and elapsed < 10.0,
        f"worst gap={worst_gap:.2e}, {elapsed:.2f}s",
    )


def test_criterion_09_substitution_identity_and_exponent():
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(100):
        p = BoundParams(
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
        r_sub = 2.0 * p.eps * math.sqrt(p.n) / (math.sqrt(p.lam) * (1.0 + p.delta))
        v1 = evaluate_bound(
            "prop-r-delta", BoundParams(**{**p.__dict__, "r": r_sub})
        ).value
        v2 = evaluate_bound("cor-delta", p).value
        rel = abs(v1 - v2) / max(1.0, abs(v1), abs(v2))
        worst = max(worst, rel)
    identity_ok = worst <= 1e-10
    exponent_ok = all(
        abs(improvement_factor(7, d) - 7.0 ** ((d + 7) / 2.0))
        <= 1e-12 * 7.0 ** ((d + 7) / 2.0)
        for d in range(2, 11)
    )
    _verdict(
        9, "radius substitution identity and improvement exponent",
        identity_ok and exponent_ok,
        f"worst rel={worst:.2e}",
    )


def test_criterion_10_cover_verification():
    start = time.monotonic()
    cover3 = build_cover(3, 0.2)
    check = verify_cover(cover3, 100_000, rng=np.random.default_rng(1010))
    counts_ok = all(
        build_cover(2, psi).n_centers == math.ceil(math.pi / psi) + 1
        for psi in (0.3, 0.1, 0.05, 0.02, 0.01)
    )
    elapsed = time.monotonic() - start
    _verdict(
        10, "3d cover verifies at psi=0.2; 2d covers have ceil(pi/psi)+1 centers",
        check.passed and check.max_gap <= 0.2 and counts_ok and elapsed < 10.0,
        f"max_gap={check.max_gap:.4f}, {elapsed:.1f}s",
    )


def test_criterion_11_parallel_determinism():
    base = dict(
        dist=standard_normal(2), n=200, eps=0.2, trials=64, seed=1111,
        psi=0.05, kinds=("dkw", "theorem"),
    )
    serial = run_deviation_experiment(ExperimentConfig(jobs=1, **base))
    threaded = run_deviation_experiment(ExperimentConfig(jobs=8, **base))
    identical = results_csv(serial) == results_csv(threaded)
    _verdict(11, "results.csv is bit-identical at parallelism 1 and 8", identical)


def test_criterion_12_sup_deviation_shrinks_with_n():
    start = time.monotonic()
    dist = standard_normal(2)
    cover = build_cover(2, 0.02)
    medians = []
    for stream, n in enumerate((100, 400, 1600)):
        values = []
        for trial in range(50):
            rng = np.random.default_rng(split_seed(1212 + stream, trial))
            values.append(sup_deviation(Sample(rng.standard_normal((n, 2))), dist, cover))
        medians.append(float(np.median(values)))
    decreasing = medians[0] > medians[1] > medians[2]
    elapsed = time.monotonic() - start
    _verdict(
        12, "median sup deviation decreases over n=100,400,1600",
        decreasing and medians[2] < 0.06 and elapsed < 180.0,
        f"medians={[f'{m:.4f}' for m in medians]}, {elapsed:.1f}s",
    )
