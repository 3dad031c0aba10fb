"""Command-line front end: depth queries, covers, bound evaluation, experiments.

Exit codes: 0 success, 1 input error (bad flags, unparseable files,
invalid parameter combinations), 2 validity-check failure (a verified
cover check or an enforced bound comparison that did not hold).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .bounds import (
    BOUND_KINDS,
    BoundParams,
    evaluate_bound,
    halfplane_subset_count,
    regular_polygon,
    shatter_exact_2d,
)
from .experiments import (
    ExperimentConfig,
    run_bound_sweep,
    run_deviation_experiment,
    split_seed,
    sweep_rows_to_csv,
    write_outputs,
)
from .geometry import SphericalCover, build_cover, check_exact_cover, verify_cover
from .population import DistributionSpec, population_depth, standard_normal
from .sample_depth import (
    Sample,
    depth_1d,
    depth_approx,
    depth_brute,
    depth_certified,
    depth_exact_2d,
)

_INLINE_CHARS = set("0123456789+-.eE, ;\t")


def _parse_query(text: str) -> np.ndarray:
    try:
        query = np.asarray([float(tok) for tok in text.split(",") if tok.strip()], dtype=float)
    except ValueError:
        raise ValueError(f"cannot parse query {text!r} as comma-separated numbers") from None
    if not np.isfinite(query).all():
        raise ValueError(f"query {text!r} has a non-finite coordinate")
    return query


def _parse_sample_arg(text: str) -> Sample:
    path = Path(text)
    try:
        exists = path.exists()
    except OSError:
        # inline data can exceed the filesystem's name length limit
        exists = False
    if exists:
        if path.suffix.lower() == ".json":
            return Sample.from_json(path)
        return Sample.from_csv(path)
    stripped = text.strip()
    if stripped and set(stripped) <= _INLINE_CHARS:
        rows = [r for r in stripped.split(";") if r.strip()]
        if ";" in stripped:
            pts = [[float(tok) for tok in row.split(",") if tok.strip()] for row in rows]
        else:
            # A bare comma list is a one-dimensional sample.
            pts = [[float(tok)] for tok in stripped.split(",") if tok.strip()]
        return Sample(np.asarray(pts, dtype=float))
    raise ValueError(f"sample {text!r} is neither an existing file nor an inline numeric list")


def _load_cover(path: str) -> SphericalCover:
    return SphericalCover.from_dict(json.loads(Path(path).read_text()))


def _load_dist(args, default_d: int | None = None) -> DistributionSpec:
    if getattr(args, "dist_file", None):
        return DistributionSpec.from_dict(json.loads(Path(args.dist_file).read_text()))
    name = getattr(args, "dist", None) or "standard_normal"
    if name != "standard_normal":
        raise ValueError(
            f"distribution {name!r} needs a JSON spec file; pass it with --dist-file"
        )
    d = getattr(args, "d", None) or default_d
    if d is None:
        raise ValueError("specify the dimension with --d (or provide --dist-file)")
    return standard_normal(int(d))


def _emit(payload, out: str | None) -> None:
    text = payload if isinstance(payload, str) else json.dumps(payload, indent=2, sort_keys=True)
    if not text.endswith("\n"):
        text += "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _require_seed(args, why: str) -> int:
    if args.seed is None:
        raise ValueError(f"{why} consumes randomness; pass an explicit --seed")
    return int(args.seed)


def _make_cover(args, d: int, certified: bool = False) -> SphericalCover:
    """The cover of --cover FILE or --psi RADIUS. A certified depth trusts
    the cover's psi, so a loaded cover must first pass the exact check;
    an approximate depth is an upper bound over any directions."""
    if getattr(args, "cover", None):
        cover = _load_cover(args.cover)
        if cover.d != d:
            raise ValueError(f"cover has dimension {cover.d}, expected {d}")
        if certified:
            try:
                check_exact_cover(cover)
            except ValueError as exc:
                raise ValueError(
                    f"cover {args.cover} cannot certify a depth: {exc}; pass --psi RADIUS to build a proven cover"
                ) from None
        return cover
    if getattr(args, "psi", None) is None:
        raise ValueError("this method needs a direction cover; pass --cover FILE or --psi RADIUS")
    return build_cover(d, args.psi)


def cmd_depth(args) -> int:
    method = args.method
    if method == "population":
        query = _parse_query(args.query)
        dist = _load_dist(args, default_d=query.shape[0])
        if query.shape[0] != dist.d:
            raise ValueError(f"query has dimension {query.shape[0]}, distribution has {dist.d}")
        _emit({"value": population_depth(dist, query)}, args.out)
        return 0
    if not args.sample:
        raise ValueError("this method needs --sample (a CSV/JSON file or an inline list)")
    sample = _parse_sample_arg(args.sample)
    query = _parse_query(args.query)
    if query.shape[0] != sample.dim:
        raise ValueError(f"query has dimension {query.shape[0]}, sample has {sample.dim}")
    if method == "auto":
        method = {1: "1d", 2: "exact2d"}.get(sample.dim, "certified")
    if method == "1d":
        result = depth_1d(query[0], sample)
    elif method == "exact2d":
        result = depth_exact_2d(query, sample)
    elif method == "brute":
        result = depth_brute(query, sample)
    elif method == "approx":
        result = depth_approx(query, sample, _make_cover(args, sample.dim))
    elif method == "certified":
        result = depth_certified(query, sample, _make_cover(args, sample.dim, certified=True))
    else:
        raise ValueError(f"unknown method {method!r}")
    _emit(result.to_dict(), args.out)
    return 0


def cmd_cover(args) -> int:
    _emit(_make_cover(args, args.d).to_dict(), args.out)
    return 0


def _parse_sweep(spec: str):
    name, eq, body = spec.partition("=")
    parts = body.split("..")
    if not eq or name not in ("n", "eps") or len(parts) not in (2, 3):
        raise ValueError(f"sweep spec {spec!r} must look like n=a..b[..step] or eps=a..b[..step]")
    if name == "n":
        start, stop = int(parts[0]), int(parts[1])
        step = int(parts[2]) if len(parts) == 3 else max(1, (stop - start) // 10)
        if step < 1 or stop < start:
            raise ValueError(f"bad sweep range in {spec!r}")
        return name, list(range(start, stop + 1, step))
    start, stop = float(parts[0]), float(parts[1])
    step = float(parts[2]) if len(parts) == 3 else (stop - start) / 10.0
    if step <= 0 or stop < start:
        raise ValueError(f"bad sweep range in {spec!r}")
    values = np.arange(start, stop + step / 2.0, step)
    return name, [float(v) for v in values]


def cmd_bound(args) -> int:
    constants = dict(
        lam=args.lam, c1=args.c1, lpi=args.lpi, ltheta=args.ltheta, c2=args.c2,
    )
    if args.sweep:
        name, values = _parse_sweep(args.sweep)
        n_values = values if name == "n" else [args.n]
        eps_values = values if name == "eps" else [args.eps]
        rows = run_bound_sweep(
            [args.kind], n_values, eps_values, args.d,
            delta=args.delta, r=args.r, sharp2d=args.sharp_2d, exact_m=args.exact_m,
            **constants,
        )
        _emit(sweep_rows_to_csv(rows), args.out)
        return 0
    params = BoundParams(
        n=args.n, eps=args.eps, d=args.d, r=args.r, delta=args.delta, **constants
    )
    report = evaluate_bound(args.kind, params, sharp2d=args.sharp_2d, exact_m=args.exact_m)
    payload = report.to_dict()
    payload["params"] = {
        "n": args.n, "eps": args.eps, "d": args.d, "lambda": args.lam, "C1": args.c1,
        "C2": args.c2, "Lpi": args.lpi, "Ltheta": args.ltheta, "R": args.r,
        "delta": args.delta, "sharp2d": args.sharp_2d, "exact_m": args.exact_m,
    }
    _emit(payload, args.out)
    return 0


def cmd_experiment(args) -> int:
    if args.config:
        cfg_data = json.loads(Path(args.config).read_text())
        if not isinstance(cfg_data, dict):
            raise ValueError(f"experiment config must be an object, got {cfg_data!r}")
        if args.jobs is not None:
            cfg_data["jobs"] = args.jobs
        if "seed" not in cfg_data:
            raise ValueError("experiment config must include an explicit seed")
        cfg = ExperimentConfig.from_dict(cfg_data)
    else:
        for flag in ("n", "eps", "trials"):
            if getattr(args, flag) is None:
                raise ValueError(f"experiment needs --{flag} (or a --config file)")
        seed = _require_seed(args, "the experiment")
        dist = _load_dist(args)
        kinds = tuple(k for k in (args.kinds or "").split(",") if k)
        cfg = ExperimentConfig(
            dist=dist,
            n=args.n,
            eps=args.eps,
            trials=args.trials,
            seed=seed,
            psi=args.psi,
            kinds=kinds,
            jobs=args.jobs if args.jobs is not None else 1,
            c2=args.c2,
            delta=args.delta,
            r=args.r,
        )
    result = run_deviation_experiment(cfg)
    paths = write_outputs(result, args.out_dir)
    for name in ("results", "summary", "plotdata"):
        print(f"{name}: {paths[name]}")
    print(f"exceedance: {result.exceedance:.6g}")
    for comparison in result.comparisons:
        status = "ok" if comparison.within_band else (comparison.note or "violated")
        print(
            f"bound {comparison.kind}: exceedance_bound={comparison.exceedance_bound:.6g} "
            f"empirical={comparison.empirical:.6g} [{status}]"
        )
    for finding in result.findings:
        print(f"finding: {finding}")
    if not result.validity_ok:
        print("validity check FAILED", file=sys.stderr)
        return 2
    return 0


def cmd_oracle(args) -> int:
    if args.oracle_cmd == "subsets":
        if args.regular_ngon is not None:
            points = regular_polygon(args.regular_ngon)
            count = halfplane_subset_count(points)
            _emit(
                {"count": count, "n": args.regular_ngon,
                 "convex_position_formula": shatter_exact_2d(args.regular_ngon)},
                args.out,
            )
        else:
            if not args.sample:
                raise ValueError("pass --regular-ngon R or --sample FILE")
            sample = _parse_sample_arg(args.sample)
            count = halfplane_subset_count(sample.points)
            _emit({"count": count, "n": sample.n}, args.out)
        return 0
    if args.oracle_cmd == "verify-cover":
        seed = _require_seed(args, "cover verification")
        cover = _load_cover(args.file)
        check = verify_cover(cover, args.trials, rng=np.random.default_rng(split_seed(seed, 0)))
        _emit(check.to_dict(), args.out)
        return 0 if check.passed else 2
    if args.oracle_cmd == "brute":
        sample = _parse_sample_arg(args.sample)
        query = _parse_query(args.query)
        result = depth_brute(query, sample)
        _emit(result.to_dict(), args.out)
        return 0
    raise ValueError(f"unknown oracle command {args.oracle_cmd!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halfdepth",
        description="Halfspace depth, sphere covers, deviation bounds, and Monte Carlo validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_depth = sub.add_parser("depth", help="evaluate sample or population depth at a query point")
    p_depth.add_argument("--method", default="auto",
                         choices=["auto", "1d", "exact2d", "brute", "approx", "certified", "population"])
    p_depth.add_argument("--query", required=True, help="comma-separated coordinates")
    p_depth.add_argument("--sample", help="CSV/JSON file, or inline values like '1,2,3' / '0,0;1,0'")
    p_depth.add_argument("--cover", help="cover JSON file for approx/certified")
    p_depth.add_argument("--psi", type=float, help="build a cover of this radius instead")
    p_depth.add_argument("--dist", help="population family name (standard_normal)")
    p_depth.add_argument("--dist-file", help="population spec JSON file")
    p_depth.add_argument("--d", type=int, help="dimension for --dist")
    p_depth.add_argument("--out", help="write JSON here instead of stdout")
    p_depth.set_defaults(func=cmd_depth)

    p_cover = sub.add_parser("cover", help="build a cover of the unit sphere and emit JSON")
    p_cover.add_argument("--d", type=int, required=True)
    p_cover.add_argument("--psi", type=float, required=True)
    p_cover.add_argument("--out")
    p_cover.set_defaults(func=cmd_cover)

    p_bound = sub.add_parser("bound", help="evaluate one deviation bound or sweep a grid")
    p_bound.add_argument("--kind", required=True, choices=list(BOUND_KINDS))
    p_bound.add_argument("--n", type=int, required=True)
    p_bound.add_argument("--eps", type=float, required=True)
    p_bound.add_argument("--d", type=int, default=2)
    p_bound.add_argument("--lambda", dest="lam", type=float, default=BoundParams.lam)
    p_bound.add_argument("--c1", type=float, default=BoundParams.c1)
    p_bound.add_argument("--c2", type=float, default=BoundParams.c2)
    p_bound.add_argument("--lpi", type=float, default=BoundParams.lpi)
    p_bound.add_argument("--ltheta", type=float, default=BoundParams.ltheta)
    p_bound.add_argument("--r", type=float)
    p_bound.add_argument("--delta", type=float)
    p_bound.add_argument("--sharp-2d", action="store_true",
                         help="planar specialization: exact circle cover and Gaussian tail")
    p_bound.add_argument("--exact-m", action="store_true",
                         help="use the exact planar subset count in the VC bounds")
    p_bound.add_argument("--sweep", help="n=a..b[..step] or eps=a..b[..step]; emits CSV")
    p_bound.add_argument("--out")
    p_bound.set_defaults(func=cmd_bound)

    p_exp = sub.add_parser("experiment", help="run a seeded deviation experiment")
    p_exp.add_argument("--config", help="experiment config JSON")
    p_exp.add_argument("--dist", help="population family name (standard_normal)")
    p_exp.add_argument("--dist-file")
    p_exp.add_argument("--d", type=int)
    p_exp.add_argument("--n", type=int)
    p_exp.add_argument("--eps", type=float)
    p_exp.add_argument("--trials", type=int)
    p_exp.add_argument("--psi", type=float)
    p_exp.add_argument("--seed", type=int)
    p_exp.add_argument("--kinds", help="comma-separated bound kinds to compare")
    p_exp.add_argument("--jobs", type=int)
    p_exp.add_argument("--c2", type=float, default=1.0)
    p_exp.add_argument("--delta", type=float)
    p_exp.add_argument("--r", type=float)
    p_exp.add_argument("--out-dir", required=True)
    p_exp.set_defaults(func=cmd_experiment)

    p_oracle = sub.add_parser("oracle", help="independent reference computations")
    oracle_sub = p_oracle.add_subparsers(dest="oracle_cmd", required=True)

    p_subsets = oracle_sub.add_parser("subsets", help="enumerate halfplane-cut subsets")
    p_subsets.add_argument("--regular-ngon", type=int)
    p_subsets.add_argument("--sample")
    p_subsets.add_argument("--out")
    p_subsets.set_defaults(func=cmd_oracle)

    p_verify = oracle_sub.add_parser("verify-cover", help="verify a cover file (exact hull radius for d <= 4)")
    p_verify.add_argument("--file", required=True)
    p_verify.add_argument("--trials", type=int, default=100_000)
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--out")
    p_verify.set_defaults(func=cmd_oracle)

    p_brute = oracle_sub.add_parser("brute", help="brute-force depth of a query")
    p_brute.add_argument("--sample", required=True)
    p_brute.add_argument("--query", required=True)
    p_brute.add_argument("--out")
    p_brute.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; that code is reserved here for
        # validity failures, so remap anything unusual to the input-error code.
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
