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
    BOUND_TABLE,
    BoundParams,
    evaluate_bound,
    halfplane_subset_count,
    regular_polygon,
    shatter_exact_2d,
)
from .experiments import (
    _CONFIG_NUMBERS,
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
    depth_brute,
    depth_certified,
    depth_exact_2d,
)

_INLINE_CHARS = set("0123456789+-.eE, ;\t")


def _parse_query(text: str) -> np.ndarray:
    try:
        return np.asarray([float(tok) for tok in text.split(",") if tok.strip()], dtype=float)
    except ValueError:
        raise ValueError(f"cannot parse query {text!r} as comma-separated numbers") from None


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
        # Inline data skips blank points and empty tokens; a bare comma
        # list is a one-dimensional sample.
        points = stripped.split(";") if ";" in stripped else stripped.split(",")
        tokens = [[tok for tok in point.split(",") if tok.strip()] for point in points]
        return Sample.from_rows(((i + 1, row) for i, row in enumerate(tokens) if row), "inline sample")
    raise ValueError(f"sample {text!r} is neither an existing file nor an inline numeric list")


def _load_cover(path: str) -> SphericalCover:
    return SphericalCover.from_dict(json.loads(Path(path).read_text()))


def _emit(payload, out: str | None) -> None:
    text = payload if isinstance(payload, str) else json.dumps(payload, indent=2, sort_keys=True)
    if not text.endswith("\n"):
        text += "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _make_cover(args, d: int) -> SphericalCover:
    """The cover of --psi RADIUS, or of --cover FILE. A certified depth
    trusts the cover's psi, so a loaded cover must first pass the exact
    check."""
    if args.psi is not None:
        return build_cover(d, args.psi)
    cover = _load_cover(args.cover)
    if cover.d != d:
        raise ValueError(f"cover has dimension {cover.d}, expected {d}")
    try:
        check_exact_cover(cover)
    except ValueError as exc:
        raise ValueError(
            f"cover {args.cover} cannot certify a depth: {exc}; pass --psi RADIUS to build a proven cover"
        ) from None
    return cover


def cmd_depth(args) -> int:
    sample = _parse_sample_arg(args.sample) if args.sample else None
    query = _parse_query(args.query)
    certified = args.psi is not None or args.cover is not None
    if sample is None:
        if certified:
            raise ValueError("--psi and --cover need --sample; without it depth is the population depth")
        if args.dist_file:
            dist = DistributionSpec.from_dict(json.loads(Path(args.dist_file).read_text()))
        else:
            dist = standard_normal(query.shape[0])
        _emit({"value": population_depth(dist, query)}, args.out)
        return 0
    if query.shape[0] != sample.dim:
        raise ValueError(f"query has dimension {query.shape[0]}, sample has {sample.dim}")
    if certified:
        result = depth_certified(query, sample, _make_cover(args, sample.dim))
    elif sample.dim == 1:
        result = depth_1d(query[0], sample)
    elif sample.dim == 2:
        result = depth_exact_2d(query, sample)
    else:
        raise ValueError(
            f"exact sample depth needs d <= 2, got d={sample.dim}; pass --psi RADIUS or --cover FILE "
            "for a certified interval"
        )
    _emit(result.to_dict(), args.out)
    return 0


def cmd_cover(args) -> int:
    _emit(build_cover(args.d, args.psi).to_dict(), args.out)
    return 0


def _parse_values(text: str, convert, name: str) -> list:
    """One value, or the range a..b[..step] from a to b inclusive; the
    default step is a tenth of the range (for n, at least 1). One value
    that convert refuses but float reads (300.7, inf) is passed on as a
    float, so that BoundParams's check names what is wrong with it."""
    try:
        values = [convert(part) for part in text.split("..")]
    except ValueError:
        values = []
        if ".." not in text:
            try:
                values = [float(text)]
            except ValueError:
                pass
    if len(values) == 1:
        return values
    if len(values) not in (2, 3):
        raise ValueError(f"--{name} {text!r} must be a number or a range a..b[..step]")
    start, stop = values[:2]
    if len(values) == 3:
        step = values[2]
    else:
        step = max(1, (stop - start) // 10) if convert is int else (stop - start) / 10.0
    if step <= 0 or stop < start:
        raise ValueError(f"bad range --{name} {text!r}")
    if convert is int:
        return list(range(start, stop + 1, step))
    return [float(v) for v in np.arange(start, stop + step / 2.0, step)]


# The flags of `bound` that a kind may or may not read, by the name of the
# input in BOUND_TABLE (also the flag's dest): the BoundParams fields, then
# the two evaluate_bound switches. Every kind reads --n, --eps and --d.
_PARAM_FLAGS = {
    "lam": "--lambda", "c1": "--c1", "c2": "--c2", "lpi": "--lpi", "ltheta": "--ltheta", "r": "--r", "delta": "--delta",
}
_BOUND_FLAGS = {**_PARAM_FLAGS, "sharp2d": "--sharp-2d", "exact_m": "--exact-m"}


def _refuse_unread_bound_flags(args) -> None:
    """Raise ValueError naming every given flag that args.kind does not read."""
    reads, mode = BOUND_TABLE[args.kind].reads, ""
    if args.sharp2d and "sharp2d" in reads:
        # the exact circle count and planar tail replace c2's count and c1's envelope
        reads, mode = reads - {"c1", "c2"}, " with --sharp-2d"
    given = [dest for dest in _BOUND_FLAGS if getattr(args, dest) not in (None, False)]
    unread = [_BOUND_FLAGS[dest] for dest in given if dest not in reads]
    if unread:
        raise ValueError(f"--kind {args.kind}{mode} does not read {', '.join(unread)}")


def cmd_bound(args) -> int:
    _refuse_unread_bound_flags(args)
    # the given BoundParams fields, as typed: BoundParams checks and converts them
    fields = {key: getattr(args, key) for key in _PARAM_FLAGS if getattr(args, key) is not None}
    n_values, eps_values = _parse_values(args.n, int, "n"), _parse_values(args.eps, float, "eps")
    if ".." in args.n or ".." in args.eps:
        rows = run_bound_sweep(
            [args.kind], n_values, eps_values, args.d, sharp2d=args.sharp2d, exact_m=args.exact_m, **fields
        )
        _emit(sweep_rows_to_csv(rows), args.out)
        return 0
    (n,), (eps,) = n_values, eps_values
    params = BoundParams(n=n, eps=eps, d=args.d, **fields)
    report = evaluate_bound(args.kind, params, sharp2d=args.sharp2d, exact_m=args.exact_m)
    payload = report.to_dict()
    payload["params"] = {
        "n": n, "eps": eps, "d": args.d, "lambda": params.lam, "C1": params.c1,
        "C2": params.c2, "Lpi": params.lpi, "Ltheta": params.ltheta, "R": params.r,
        "delta": params.delta, "sharp2d": args.sharp2d, "exact_m": args.exact_m,
    }
    _emit(payload, args.out)
    return 0


def cmd_experiment(args) -> int:
    data = json.loads(Path(args.config).read_text()) if args.config else {}
    if not isinstance(data, dict):
        raise ValueError(f"experiment config must be an object, got {data!r}")
    flags = vars(args)
    data.update({key: flags[key] for key, _ in _CONFIG_NUMBERS if flags[key] is not None})
    if args.dist_file:
        data["dist"] = json.loads(Path(args.dist_file).read_text())
    elif args.d is not None:
        data["dist"] = standard_normal(args.d)
    if args.kinds is not None:
        data["kinds"] = [k for k in args.kinds.split(",") if k]
    cfg = ExperimentConfig.from_dict(data)
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


def cmd_subsets(args) -> int:
    if args.regular_ngon is not None:
        count = halfplane_subset_count(regular_polygon(args.regular_ngon))
        formula = shatter_exact_2d(args.regular_ngon)
        payload = {"count": count, "n": args.regular_ngon, "convex_position_formula": formula}
    else:
        sample = _parse_sample_arg(args.sample)
        payload = {"count": halfplane_subset_count(sample.points), "n": sample.n}
    _emit(payload, args.out)
    return 0


def cmd_verify_cover(args) -> int:
    if args.seed is None:
        raise ValueError("cover verification consumes randomness; pass an explicit --seed")
    cover = _load_cover(args.file)
    check = verify_cover(cover, args.trials, rng=np.random.default_rng(split_seed(args.seed, 0)))
    _emit(check.to_dict(), args.out)
    return 0 if check.passed else 2


def cmd_brute(args) -> int:
    sample = _parse_sample_arg(args.sample)
    _emit(depth_brute(_parse_query(args.query), sample).to_dict(), args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """A parser, and subparsers, that take flags only in full, so that a
    removed flag such as --dist cannot resolve to --dist-file."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="halfdepth",
        description="Halfspace depth, sphere covers, deviation bounds, and Monte Carlo validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_depth = sub.add_parser(
        "depth", help="evaluate sample or population depth at a query point",
        description="Without --sample, the population depth; with --sample and --psi or --cover, "
        "the certified interval; with --sample alone, the exact depth (d <= 2).",
    )
    p_depth.add_argument("--query", required=True, help="comma-separated coordinates")
    depth_law = p_depth.add_mutually_exclusive_group()
    depth_law.add_argument("--sample", help="CSV/JSON file, or inline values like '1,2,3' / '0,0;1,0'")
    depth_law.add_argument("--dist-file",
                           help="population spec JSON file (default: the standard normal in the query's dimension)")
    depth_cover = p_depth.add_mutually_exclusive_group()
    depth_cover.add_argument("--cover", help="cover JSON file for a certified depth")
    depth_cover.add_argument("--psi", type=float, help="build a cover of this radius instead")
    p_depth.add_argument("--out", help="write JSON here instead of stdout")
    p_depth.set_defaults(func=cmd_depth)

    p_cover = sub.add_parser("cover", help="build a cover of the unit sphere and emit JSON")
    p_cover.add_argument("--d", type=int, required=True)
    p_cover.add_argument("--psi", type=float, required=True)
    p_cover.add_argument("--out")
    p_cover.set_defaults(func=cmd_cover)

    p_bound = sub.add_parser(
        "bound", help="evaluate one deviation bound or sweep a grid",
        description="A range a..b[..step] in --n or --eps sweeps the (n, eps) grid and emits CSV. "
        "A flag that the kind does not read is refused.",
    )
    p_bound.add_argument("--kind", required=True, choices=list(BOUND_KINDS))
    p_bound.add_argument("--n", required=True, help="sample size, or a range a..b[..step]")
    p_bound.add_argument("--eps", required=True, help="deviation, or a range a..b[..step]")
    p_bound.add_argument("--d", type=int, default=2)
    for dest, flag in _PARAM_FLAGS.items():
        p_bound.add_argument(flag, dest=dest)
    p_bound.add_argument("--sharp-2d", dest="sharp2d", action="store_true",
                         help="planar specialization: exact circle cover and Gaussian tail")
    p_bound.add_argument("--exact-m", action="store_true",
                         help="use the exact planar subset count in the VC bounds")
    p_bound.add_argument("--out")
    p_bound.set_defaults(func=cmd_bound)

    p_exp = sub.add_parser(
        "experiment", help="run a seeded deviation experiment",
        description="Every flag given writes over the --config field of the same name; "
        "--dist-file or --d (the standard normal) sets dist.",
    )
    p_exp.add_argument("--config", help="experiment config JSON")
    exp_dist = p_exp.add_mutually_exclusive_group()
    exp_dist.add_argument("--dist-file", help="population spec JSON file")
    exp_dist.add_argument("--d", type=int, help="dimension of a standard normal population")
    for name, _ in _CONFIG_NUMBERS:
        p_exp.add_argument(f"--{name}")  # the config checks and converts the value
    p_exp.add_argument("--kinds", help="comma-separated bound kinds to compare")
    p_exp.add_argument("--out-dir", required=True)
    p_exp.set_defaults(func=cmd_experiment)

    p_oracle = sub.add_parser("oracle", help="independent reference computations")
    oracle_sub = p_oracle.add_subparsers(dest="oracle_cmd", required=True)

    p_subsets = oracle_sub.add_parser("subsets", help="enumerate halfplane-cut subsets")
    subsets_input = p_subsets.add_mutually_exclusive_group(required=True)
    subsets_input.add_argument("--regular-ngon", type=int)
    subsets_input.add_argument("--sample")
    p_subsets.add_argument("--out")
    p_subsets.set_defaults(func=cmd_subsets)

    p_verify = oracle_sub.add_parser("verify-cover", help="verify a cover file (exact hull radius for d <= 4)")
    p_verify.add_argument("--file", required=True)
    p_verify.add_argument("--trials", type=int, default=100_000)
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--out")
    p_verify.set_defaults(func=cmd_verify_cover)

    p_brute = oracle_sub.add_parser("brute", help="brute-force depth of a query")
    p_brute.add_argument("--sample", required=True)
    p_brute.add_argument("--query", required=True)
    p_brute.add_argument("--out")
    p_brute.set_defaults(func=cmd_brute)

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
