"""End-to-end tests for the command-line interface and its exit codes."""

import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import halfdepth.cli as cli
import halfdepth.experiments as expmod
from halfdepth.cli import main
from halfdepth.experiments import ExperimentConfig, run_deviation_experiment
from halfdepth.geometry import build_cover
from halfdepth.population import elliptical_normal, standard_normal
from test_geometry import fibonacci_sphere
from test_output_digests import DIGESTS, _config


# The subprocess tests import the package from the source tree, whatever
# PYTHONPATH the test run itself was started with.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
_SUBPROCESS_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p),
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -------------------------------------------------------------------- depth


def test_depth_1d_inline(capsys):
    code, out, _ = run_cli(capsys, "depth", "--query", "2", "--sample", "1,2,3")
    assert code == 0
    assert json.loads(out) == {"count": 2, "n": 3, "value": pytest.approx(2.0 / 3.0)}


def test_depth_auto_picks_exact2d(capsys):
    code, out, _ = run_cli(
        capsys, "depth", "--query", "0,0", "--sample", "1,0;0,1;-1,0;0,-1"
    )
    assert code == 0
    assert json.loads(out)["count"] == 2


def test_depth_population(capsys):
    code, out, _ = run_cli(
        capsys, "depth", "--query", "0,0",
    )
    assert code == 0
    assert json.loads(out) == {"value": 0.5}


def test_depth_population_infers_dimension(capsys):
    code, out, _ = run_cli(capsys, "depth", "--query", "1,0,0")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.15865525393145707)


def test_depth_population_dist_file(capsys, tmp_path):
    dist = elliptical_normal([1.0, 0.0], [[4.0, 0.0], [0.0, 1.0]])
    path = tmp_path / "dist.json"
    path.write_text(json.dumps(dist.to_dict()))
    code, out, _ = run_cli(
        capsys, "depth", "--dist-file", str(path),
        "--query", "1,0",
    )
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.5)


def test_depth_without_a_sample_is_the_population_depth(capsys):
    code, out, err = run_cli(capsys, "depth", "--query", "0,0")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"value": 0.5}


@pytest.mark.parametrize(
    "case, message",
    [
        ("psi-without-sample", "error: --psi and --cover need --sample; without it depth is the population depth"),
        ("sample-and-dist-file", "error: argument --dist-file: not allowed with argument --sample"),
        ("d3-without-cover", "error: exact sample depth needs d <= 2, got d=3; "
         "pass --psi RADIUS or --cover FILE for a certified interval"),
    ],
    ids=["psi-without-sample", "sample-and-dist-file", "d3-without-cover"],
)
def test_depth_inputs_that_pick_no_depth_are_refused(capsys, tmp_path, case, message):
    dist_path = tmp_path / "d.json"
    dist_path.write_text(json.dumps(standard_normal(2).to_dict()))
    argv = {
        "psi-without-sample": ["--query", "0,0", "--psi", "0.3"],
        "sample-and-dist-file": ["--query", "0,0", "--sample", "1,0;0,1;-1,0", "--dist-file", str(dist_path)],
        "d3-without-cover": ["--query", "0,0,0", "--sample", "1,0,0;0,1,0;0,0,1;-1,-1,-1"],
    }[case]
    code, out, err = run_cli(capsys, "depth", *argv)
    assert code == 1 and out == ""
    assert err.splitlines()[-1].endswith(message)


def test_depth_certified_with_psi(capsys):
    rng = np.random.default_rng(0)
    pts = ";".join(f"{x:.6f},{y:.6f},{z:.6f}" for x, y, z in rng.normal(size=(15, 3)))
    code, out, _ = run_cli(
        capsys, "depth", "--query", "0,0,0",
        "--sample", pts, "--psi", "0.3",
    )
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"lower", "upper", "psi", "R"}
    assert data["lower"] <= data["upper"]


def test_depth_with_cover_file(capsys, tmp_path):
    cover = build_cover(2, 0.1)
    cover_path = tmp_path / "cover.json"
    cover_path.write_text(json.dumps(cover.to_dict()))
    code, out, _ = run_cli(
        capsys, "depth", "--query", "0,0",
        "--sample", "1,0;0,1;-1,0;0,-1", "--cover", str(cover_path),
    )
    assert code == 0
    assert json.loads(out)["upper"] >= json.loads(out)["lower"]


def _holed_cover_case(tmp_path):
    """A d=3 cover file that keeps only the centers with z < -0.3 of a psi=0.1
    cover yet claims psi=0.1, a 10-point sample, and a query of depth 0."""
    full = build_cover(3, 0.1)
    cover_path = tmp_path / "holed.json"
    holed = {"centers": full.centers[full.centers[:, 2] < -0.3].tolist(), "psi": 0.1}
    cover_path.write_text(json.dumps(holed))
    sample_path = tmp_path / "sample.csv"
    pts = np.random.default_rng(2).standard_normal((10, 3))
    sample_path.write_text("".join(",".join(repr(float(c)) for c in row) + "\n" for row in pts))
    return ["--sample", str(sample_path), "--query", "0,0,-0.5422889370353403"], str(cover_path)


def test_depth_certified_refuses_a_cover_file_that_does_not_cover(capsys, tmp_path):
    # Trusting the file's psi gave the interval [0.1, 0.4] around an exact depth of 0.
    args, cover_path = _holed_cover_case(tmp_path)
    code, out, _ = run_cli(capsys, "oracle", "brute", *args)
    assert json.loads(out)["count"] == 0
    code, out, err = run_cli(capsys, "depth", "--cover", cover_path, *args)
    assert code == 1
    assert out == ""
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert "exact covering radius" in errors[0] and "--psi" in errors[0]


@pytest.mark.parametrize("d, psi", [(2, 0.1), (3, 0.3), (4, 0.5)])
def test_cover_output_reloads_and_certifies(capsys, tmp_path, d, psi):
    cover_path = tmp_path / "cover.json"
    code, _, _ = run_cli(capsys, "cover", "--d", str(d), "--psi", str(psi), "--out", str(cover_path))
    assert code == 0
    pts = ";".join(",".join(f"{c:.6f}" for c in row) for row in np.random.default_rng(d).normal(size=(12, d)))
    code, out, err = run_cli(
        capsys, "depth", "--query", ",".join(["0"] * d),
        f"--sample={pts}", "--cover", str(cover_path),
    )
    assert code == 0, err
    data = json.loads(out)
    assert data["psi"] == psi and data["lower"] <= data["upper"]


def test_depth_certified_refuses_a_cover_file_above_d4(capsys, tmp_path):
    cover_path = tmp_path / "cover5.json"
    cover_path.write_text(json.dumps(build_cover(5, 0.9).to_dict()))
    pts = ";".join(",".join(f"{c:.6f}" for c in row) for row in np.random.default_rng(5).normal(size=(8, 5)))
    code, out, err = run_cli(
        capsys, "depth", "--query", "0,0,0,0,0",
        f"--sample={pts}", "--cover", str(cover_path),
    )
    assert code == 1
    assert out == ""
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert "d=5" in errors[0] and "--psi" in errors[0]


def test_depth_sample_files(capsys, tmp_path):
    csv_path = tmp_path / "pts.csv"
    csv_path.write_text("1,0\n0,1\n-1,0\n0,-1\n")
    code, out, _ = run_cli(capsys, "depth", "--query", "0,0", "--sample", str(csv_path))
    assert code == 0
    assert json.loads(out)["count"] == 2
    json_path = tmp_path / "pts.json"
    json_path.write_text(json.dumps({"points": [[1, 0], [0, 1], [-1, 0], [0, -1]]}))
    code, out, _ = run_cli(capsys, "depth", "--query", "0,0", "--sample", str(json_path))
    assert json.loads(out)["count"] == 2


def test_depth_input_errors(capsys, tmp_path):
    # dimension mismatch
    code, _, err = run_cli(capsys, "depth", "--query", "0,0,0", "--sample", "1,0;0,1")
    assert code == 1 and "dimension" in err
    # a cover without a sample
    code, _, err = run_cli(capsys, "depth", "--query", "0,0", "--psi", "0.3")
    assert code == 1
    # unparseable file contents name the location
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3,zap\n")
    code, _, err = run_cli(capsys, "depth", "--query", "0,0", "--sample", str(bad))
    assert code == 1 and "row 2" in err
    # query garbage
    code, _, err = run_cli(capsys, "depth", "--query", "a,b", "--sample", "1,0;0,1")
    assert code == 1
    # nonexistent path that cannot be inline data
    code, _, err = run_cli(capsys, "depth", "--query", "0,0", "--sample", "nope/missing.csv")
    assert code == 1


@pytest.mark.parametrize(
    "spec, message",
    [
        ({}, "distribution spec needs family"),
        ({"family": "standard_normal"}, "distribution spec needs d"),
        ({"family": "elliptical_normal", "d": 2, "sigma": [[1.0, 0.0], [0.0, 1.0]]}, "distribution spec needs mu"),
        ({"family": "elliptical_normal", "d": 2, "mu": [0.0, 0.0]}, "distribution spec needs sigma"),
        ([1, 2], "distribution spec must be an object, got [1, 2]"),
    ],
    ids=["family", "d", "mu", "sigma", "list"],
)
def test_depth_dist_file_errors_name_the_bad_input(capsys, tmp_path, spec, message):
    path = tmp_path / "dist.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "depth", "--query", "0,0", "--dist-file", str(path))
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "drop, data, message",
    [
        ("centers", None, "cover dictionary needs centers"),
        ("psi", None, "cover dictionary needs psi"),
        (None, 5, "cover dictionary must be an object, got 5"),
    ],
    ids=["centers", "psi", "number"],
)
def test_depth_cover_file_errors_name_the_bad_input(capsys, tmp_path, drop, data, message):
    if drop is not None:
        data = build_cover(2, 0.2).to_dict()
        del data[drop]
    path = tmp_path / "cover.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(
        capsys, "depth", "--query", "0,0", "--sample", "1,0;0,1;-1,0", "--cover", str(path)
    )
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "sample, message",
    [
        ("0,0;1,0;1", "inline sample row 3: expected 2 columns, found 1"),
        ("0,0;1e,1", "inline sample row 2, column 1: cannot parse '1e'"),
        ("0,0;1,0;2,3,4", "inline sample row 3: expected 2 columns, found 3"),
        ("1,1e,3", "inline sample row 2, column 1: cannot parse '1e'"),
    ],
)
def test_depth_inline_sample_errors_name_the_row(capsys, sample, message):
    code, out, err = run_cli(capsys, "oracle", "brute", "--query", "0,0", f"--sample={sample}")
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "text, points",
    [
        ("1,2,3", [[1.0], [2.0], [3.0]]),
        (" 1, ,3, ", [[1.0], [3.0]]),
        ("0,0;1,0", [[0.0, 0.0], [1.0, 0.0]]),
        ("0,0;;1,0;", [[0.0, 0.0], [1.0, 0.0]]),
        ("1,0,;0,1,", [[1.0, 0.0], [0.0, 1.0]]),
        ("1, 0 ;\t0,1", [[1.0, 0.0], [0.0, 1.0]]),
        ("1e3,2E-1;+1,-.5", [[1000.0, 0.2], [1.0, -0.5]]),
        ("7;", [[7.0]]),
    ],
)
def test_inline_sample_forms_keep_their_points(text, points):
    assert cli._parse_sample_arg(text).points.tolist() == points


@pytest.mark.parametrize(
    "points, message",
    [
        ([[1, "x"], [2, 3]], "sample JSON row 1, column 2: cannot parse 'x'"),
        ([[1, 2], [None, 3]], "sample JSON row 2, column 1: cannot parse null"),
        ([[1, True], [2, 3]], "sample JSON row 1, column 2: cannot parse true"),
        ([[1, 2], [3]], "sample JSON row 2: expected 2 columns, found 1"),
    ],
    ids=["string", "null", "bool", "ragged"],
)
def test_json_sample_errors_name_the_row_and_column(capsys, tmp_path, points, message):
    path = tmp_path / "pts.json"
    path.write_text(json.dumps({"points": points}))
    code, out, err = run_cli(capsys, "oracle", "brute", "--query", "0,0", "--sample", str(path))
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "points",
    [
        [1, 2.5, -3],
        [[1, 0], [0.5, -2e-3], [2**53 + 1, 7]],
        [[1e300, 1], [-1e-300, 2]],
        [[4], [5]],
    ],
    ids=["scalars", "mixed", "extremes", "one-column"],
)
def test_json_sample_keeps_numeric_points(tmp_path, points):
    path = tmp_path / "pts.json"
    path.write_text(json.dumps({"points": points}))
    expected = np.asarray(points, dtype=float).reshape(len(points), -1)
    assert cli._parse_sample_arg(str(path)).points.tolist() == expected.tolist()


@pytest.mark.parametrize(
    "method, sample, query",
    [
        ("auto", "1,0;0,1;-1,0", "nan,0"),
        ("exact2d", "1,0;0,1;-1,0", "inf,0"),
        ("brute", "1,0;0,1;-1,0", "0,-inf"),
        ("certified", "1,0;0,1;-1,0", "nan,0"),
        ("cover", "1,0;0,1;-1,0", "0,nan"),
        ("1d", "1,2,3", "nan"),
        ("population", None, "nan,0"),
    ],
)
def test_depth_rejects_non_finite_query(capsys, tmp_path, method, sample, query):
    # method names the depth its inputs pick; brute is the oracle's.
    argv = ["oracle", "brute"] if method == "brute" else ["depth"]
    argv += ["--query", query]
    if sample is not None:
        argv += ["--sample", sample]
    if method == "certified":
        argv += ["--psi", "0.3"]
    if method == "cover":
        cover_path = tmp_path / "cover.json"
        cover_path.write_text(json.dumps(build_cover(2, 0.3).to_dict()))
        argv += ["--cover", str(cover_path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error:") and "non-finite" in err


def test_depth_out_file(capsys, tmp_path):
    target = tmp_path / "depth.json"
    code, out, _ = run_cli(
        capsys, "depth", "--query", "2", "--sample", "1,2,3",
        "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["count"] == 2


# -------------------------------------------------------------------- cover


def test_cover_2d_is_deterministic_and_loadable(capsys):
    code, out, _ = run_cli(capsys, "cover", "--d", "2", "--psi", "0.3")
    assert code == 0
    data = json.loads(out)
    assert data["d"] == 2
    assert data["psi"] == 0.3
    assert len(data["centers"]) == 12  # ceil(pi/0.3) + 1


def test_cover_and_depth_output_is_reproducible_without_seed(capsys):
    # No cover construction consumes randomness, so two runs agree byte for byte.
    pts3 = "1,0,0;0,1,0;0,0,1;-1,-1,-1;0.5,0.2,-0.3"
    pts4 = "1,0,0,0;0,1,0,0;0,0,1,0;0,0,0,1;-1,-1,-1,-1;0.5,0.2,-0.3,0.1"
    runs = [("cover", "--d", d, "--psi", "0.4") for d in ("3", "4", "5")]
    for pts, query in ((pts3, "0,0,0"), (pts4, "0,0,0,0")):
        runs.append(("depth", "--query", query, "--sample", pts, "--psi", "0.3"))
    for argv in runs:
        first = run_cli(capsys, *argv)
        assert first[0] == 0 and first[1]
        assert run_cli(capsys, *argv) == first
    cover4 = json.loads(run_cli(capsys, "cover", "--d", "4", "--psi", "0.5")[1])
    assert len(cover4["centers"]) == 512
    # cover takes no --seed
    assert run_cli(capsys, "cover", "--d", "4", "--psi", "0.5", "--seed", "7")[0] == 1


def test_oversized_cover_fails_fast(capsys, tmp_path, monkeypatch):
    code, out, err = run_cli(capsys, "cover", "--d", "6", "--psi", "0.05")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "d=6" in err and "psi=0.05" in err and "cap of 1000000" in err
    # An experiment in d=4 with no --psi falls back to psi = 0.0063 at eps = 0.1.
    calls = []
    monkeypatch.setattr(expmod, "_run_trial", lambda *args: calls.append(args))
    code, _, err = run_cli(
        capsys, "experiment", "--d", "4", "--n", "30", "--eps", "0.1", "--trials", "5",
        "--seed", "1", "--out-dir", str(tmp_path / "out"),
    )
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1 and "d=4" in err
    assert calls == []
    assert not (tmp_path / "out").exists()


def test_cover_bad_psi(capsys):
    code, _, err = run_cli(capsys, "cover", "--d", "2", "--psi", "2.0")
    assert code == 1


# -------------------------------------------------------------------- bound


def test_bound_single_report(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--kind", "dkw", "--n", "200", "--eps", "0.1", "--d", "1"
    )
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "dkw"
    assert data["value"] == pytest.approx(2.0 * np.exp(-4.0))
    assert data["params"]["n"] == 200


def test_bound_cor_delta_needs_delta(capsys):
    code, _, err = run_cli(capsys, "bound", "--kind", "cor-delta", "--n", "100", "--eps", "0.1")
    assert code == 1
    code, out, _ = run_cli(
        capsys, "bound", "--kind", "cor-delta", "--n", "100", "--eps", "0.1",
        "--delta", "0.5",
    )
    assert code == 0


def test_bound_sharp2d_flag(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--kind", "theorem", "--n", "10000", "--eps", "0.05",
        "--d", "2", "--sharp-2d",
    )
    assert code == 0
    data = json.loads(out)
    assert data["value"] == pytest.approx(0.9999999999999472, abs=1e-13)


def test_bound_sweep_csv(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--kind", "dkw", "--n", "100..500..100", "--eps", "0.1",
        "--d", "1",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("kind,n,eps")
    assert len(lines) == 6


def test_bound_sweep_eps(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--kind", "vc2", "--n", "300", "--eps", "0.05..0.25..0.05",
        "--d", "2", "--exact-m",
    )
    assert code == 0
    assert len(out.strip().split("\n")) == 6


# sha256 of the README's sweeps, taken with the parent's --sweep n=400..900..10
# and --sweep eps=0.05..0.25 forms.
_README_SWEEP_DIGESTS = {
    ("400..900..10", "0.15"): "d13ed3e94bb42311f513f1b1eeb73892099ec2dd353251edb2a87906157358eb",
    ("300", "0.05..0.25"): "bd52f1ec1ce2e9083f7a80cc5767326077384a0e67ae2fc8045bbdf7a03589dd",
}


@pytest.mark.parametrize("n, eps", list(_README_SWEEP_DIGESTS), ids=["n-range", "eps-range"])
def test_bound_range_reproduces_the_readme_sweep(capsys, n, eps):
    code, out, err = run_cli(capsys, "bound", "--kind", "vc2", "--n", n, "--eps", eps, "--d", "2", "--exact-m")
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == _README_SWEEP_DIGESTS[n, eps]


def test_bound_ranges_in_n_and_eps_sweep_the_n_major_grid(capsys):
    code, out, err = run_cli(capsys, "bound", "--kind", "dkw", "--n", "100..300..100", "--eps", "0.1..0.3..0.1",
                             "--d", "1")
    assert code == 0, err
    eps_values = [float(v) for v in np.arange(0.1, 0.35, 0.1)]
    assert out == expmod.sweep_rows_to_csv(expmod.run_bound_sweep(["dkw"], [100, 200, 300], eps_values, 1))
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(int(row["n"]), float(row["eps"])) for row in rows] == [
        (n, eps) for n in (100, 200, 300) for eps in eps_values
    ]


def test_bound_sweep_bad_spec(capsys):
    code, _, err = run_cli(
        capsys, "bound", "--kind", "dkw", "--n", "m=1..2", "--eps", "0.1",
    )
    assert code == 1


def test_bound_sweep_bad_grid_value_writes_nothing(capsys):
    code, out, err = run_cli(
        capsys, "bound", "--kind", "dkw", "--n", "300", "--eps", "0..0.5",
    )
    assert code == 1
    assert out == ""
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: eps must be in (0, 1], got 0.0"
    ]


def test_bound_sweep_clamps_an_improvement_factor_past_the_float_range(capsys):
    # 1e9^53.5 overflows a float; the factor is clamped at e^700 like every
    # other bound quantity, so the sweep writes its rows.
    code, out, err = run_cli(
        capsys, "bound", "--kind", "vc2", "--n", "999999990..1000000000..5", "--eps", "0.1", "--d", "100",
    )
    assert code == 0, err
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [int(row["n"]) for row in rows] == [999999990, 999999995, 1000000000]
    assert all(math.isfinite(float(row["improvement_factor"])) for row in rows)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--kind", "theorem", "--d", "1"], "the covering-route bounds require d >= 2, got d=1"),
        (["--kind", "vc1", "--d", "3", "--exact-m"], "the exact planar subset count applies only to d=2"),
        (["--kind", "cor-delta", "--d", "3", "--delta", "0.5", "--sharp-2d"], "sharp-2d mode applies only to d=2"),
        (["--kind", "prop-r-delta", "--delta", "0.5"], "this bound requires the parameter 'r'"),
    ],
    ids=["covering-d1", "exact-m-off-plane", "sharp2d-off-plane", "missing-r"],
)
def test_bound_sweep_kind_that_cannot_be_evaluated_writes_nothing(capsys, argv, message):
    code, out, err = run_cli(capsys, "bound", "--n", "100..200", "--eps", "0.1", *argv)
    assert code == 1
    assert out == ""
    assert [line for line in err.splitlines() if line.startswith("error:")] == [f"error: {message}"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--kind", "dkw", "--d", "1", "--r", "3", "--delta", "0.5", "--lambda", "7", "--exact-m"],
         "--kind dkw does not read --lambda, --r, --delta, --exact-m"),
        (["--kind", "vc2", "--d", "2", "--r", "3", "--delta", "0.5", "--sharp-2d", "--c2", "9"],
         "--kind vc2 does not read --c2, --r, --delta, --sharp-2d"),
        (["--kind", "theorem", "--d", "2", "--sharp-2d", "--c1", "2"],
         "--kind theorem with --sharp-2d does not read --c1"),
        (["--kind", "cor-delta", "--d", "2", "--delta", "0.5", "--r", "3"], "--kind cor-delta does not read --r"),
        (["--kind", "bivariate", "--ltheta", "0.1"], "--kind bivariate does not read --ltheta"),
    ],
    ids=["dkw", "vc2", "theorem-sharp2d", "cor-delta", "bivariate"],
)
@pytest.mark.parametrize("n", ["200", "100..200"], ids=["point", "sweep"])
def test_bound_refuses_flags_its_kind_does_not_read(capsys, argv, message, n):
    code, out, err = run_cli(capsys, "bound", "--n", n, "--eps", "0.1", *argv)
    assert code == 1
    assert out == ""
    assert [line for line in err.splitlines() if line.startswith("error:")] == [f"error: {message}"]


def test_bound_takes_every_flag_its_kind_reads(capsys):
    code, out, err = run_cli(
        capsys, "bound", "--kind", "prop-r-delta", "--n", "300", "--eps", "0.2", "--d", "3", "--r", "3",
        "--delta", "0.5", "--lambda", "1.5", "--c1", "2", "--c2", "3", "--lpi", "0.5", "--ltheta", "0.1",
    )
    assert code == 0, err
    params = json.loads(out)["params"]
    assert (params["lambda"], params["C1"], params["C2"], params["Lpi"], params["Ltheta"]) == (1.5, 2.0, 3.0, 0.5, 0.1)


# --------------------------------------------------------------- experiment


def test_experiment_inline_flags(capsys, tmp_path):
    out_dir = tmp_path / "exp"
    code, out, _ = run_cli(
        capsys, "experiment", "--d", "1",
        "--n", "50", "--eps", "0.2", "--trials", "40", "--seed", "3",
        "--kinds", "dkw", "--out-dir", str(out_dir),
    )
    assert code == 0
    assert (out_dir / "results.csv").exists()
    assert (out_dir / "summary.json").exists()
    assert (out_dir / "plotdata.csv").exists()
    assert "exceedance:" in out


def test_experiment_config_file(capsys, tmp_path):
    cfg = ExperimentConfig(
        dist=standard_normal(1), n=30, eps=0.25, trials=20, seed=17, kinds=("dkw",)
    )
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(
        capsys, "experiment", "--config", str(cfg_path), "--out-dir", str(out_dir)
    )
    assert code == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["config"]["seed"] == 17


def _digests(out_dir):
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in DIGESTS["d2-exact"]}


def test_experiment_flags_and_config_reproduce_the_pinned_digests(capsys, tmp_path):
    # The d2-exact case once from flags alone, and once from a config whose
    # n, trials and dimension the flags write over.
    code, _, err = run_cli(
        capsys, "experiment", "--d", "2", "--n", "150", "--eps", "0.15", "--trials", "15", "--seed", "12",
        "--psi", "0.05", "--kinds", "dkw,vc2,theorem", "--out-dir", str(tmp_path / "flags"),
    )
    assert code == 0, err
    assert _digests(tmp_path / "flags") == DIGESTS["d2-exact"]
    data = {**_config("d2-exact").to_dict(), "n": 30, "trials": 5, "dist": standard_normal(1).to_dict()}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    code, _, err = run_cli(
        capsys, "experiment", "--config", str(cfg_path), "--n", "150", "--trials", "15", "--d", "2",
        "--out-dir", str(tmp_path / "config"),
    )
    assert code == 0, err
    assert _digests(tmp_path / "config") == DIGESTS["d2-exact"]


def test_experiment_c2_comes_from_the_flag_else_the_config(capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**_config("d1").to_dict(), "trials": 3, "c2": 2.0}))
    for extra, c2 in (((), 2.0), (("--c2", "3"), 3.0)):
        out_dir = tmp_path / f"c2-{c2}"
        code, _, err = run_cli(capsys, "experiment", "--config", str(cfg_path), *extra, "--out-dir", str(out_dir))
        assert code == 0, err
        assert json.loads((out_dir / "summary.json").read_text())["config"]["c2"] == c2


@pytest.mark.parametrize("field", ["n", "eps", "trials", "seed", "dist"])
def test_experiment_config_missing_a_field_names_it(capsys, tmp_path, monkeypatch, field):
    calls = []
    monkeypatch.setattr(expmod, "_run_trial", lambda *args: calls.append(args))
    data = _config("d1").to_dict()
    del data[field]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "experiment", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out"))
    assert code == 1 and out == ""
    assert err == f"error: experiment config needs {field}\n"
    assert calls == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--d", "3", "--psi", "0.3", "--kinds", "dkw,prop-r-delta"),
         "this bound requires the parameter 'r'"),
        (("--d", "1", "--kinds", "dkw,theorem"), "the covering-route bounds require d >= 2"),
    ],
)
def test_experiment_rejects_unevaluable_bound_before_trials(capsys, tmp_path, monkeypatch, argv, message):
    calls = []
    monkeypatch.setattr(expmod, "_run_trial", lambda *args: calls.append(args))
    code, _, err = run_cli(
        capsys, "experiment", "--n", "30", "--eps", "0.3", "--trials", "30", "--seed", "1",
        *argv, "--out-dir", str(tmp_path / "out"),
    )
    assert code == 1
    assert message in err
    assert calls == []


_RUNS_WITHOUT_SCIPY_SPATIAL = """
import sys
import halfdepth.cli
assert 'scipy.spatial' not in sys.modules, 'import'
from halfdepth.experiments import ExperimentConfig, run_deviation_experiment
from halfdepth.population import standard_normal
res = run_deviation_experiment(ExperimentConfig(
    dist=standard_normal(2), n=40, eps=0.25, trials=3, seed=5, psi=0.05,
    kinds=('dkw', 'vc2', 'theorem'),
))
assert res.cover_size == 64
assert 'scipy.spatial' not in sys.modules, 'experiment'
from halfdepth.geometry import build_cover
assert build_cover(4, 0.5).n_centers == 512
assert build_cover(5, 0.6).n_centers == 2560
assert 'scipy.spatial' not in sys.modules, 'd>=4 covers'
print('ok')
"""


def test_d2_experiment_leaves_scipy_spatial_out():
    # Covers are closed-form in every d; the convex hull that checks supplied
    # covers must not load scipy.spatial into a planar run or a d>=4 cover.
    proc = subprocess.run(
        [sys.executable, "-c", _RUNS_WITHOUT_SCIPY_SPATIAL],
        capture_output=True, text=True, timeout=120, env=_SUBPROCESS_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


_D3_RUNS_WITHOUT_SCIPY_SPATIAL = """
import json, sys
from halfdepth.cli import main
from halfdepth.experiments import ExperimentConfig, run_deviation_experiment
from halfdepth.population import standard_normal
res = run_deviation_experiment(ExperimentConfig(
    dist=standard_normal(3), n=40, eps=0.25, trials=3, seed=5, psi=0.2,
    kinds=('dkw', 'vc2', 'theorem'),
))
assert res.cover_size == 162
assert main(['cover', '--d', '3', '--psi', '0.2', '--out', sys.argv[1]]) == 0
assert len(json.load(open(sys.argv[1]))['centers']) == 162
assert 'scipy.spatial' not in sys.modules
print('ok')
"""


def test_d3_experiment_and_cover_leave_scipy_spatial_out(tmp_path):
    # The d=3 cover is zonal rings proven in closed form: neither a d=3
    # experiment nor `cover --d 3` computes a hull.
    proc = subprocess.run(
        [sys.executable, "-c", _D3_RUNS_WITHOUT_SCIPY_SPATIAL, str(tmp_path / "cover3.json")],
        capture_output=True, text=True, timeout=120, env=_SUBPROCESS_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


@pytest.mark.parametrize(
    "d, field, value",
    [
        (3, "queries", []),
        (2, "queries", []),
        (3, "queries", [0.1, 0.2, 0.3]),
        (2, "queries", "center"),
        (2, "dist", 5),
        (2, "kinds", "dkw"),
        (2, "n", None),
        (2, "jobs", "two"),
        (2, "n", 300.7),
        (2, "eps", True),
    ],
    ids=[
        "no-queries-d3", "no-queries-d2", "flat-queries", "named-queries", "dist-number", "kinds-string",
        "null-n", "named-jobs", "fractional-n", "bool-eps",
    ],
)
def test_experiment_rejects_a_malformed_config_before_any_trial(capsys, tmp_path, monkeypatch, d, field, value):
    calls = []
    monkeypatch.setattr(expmod, "_run_trial", lambda *args: calls.append(args))
    data = {"dist": standard_normal(d).to_dict(), "n": 30, "eps": 0.3, "trials": 4, "seed": 1, "psi": 0.3}
    data[field] = value
    cfg_path, out_dir = tmp_path / "cfg.json", tmp_path / "out"
    cfg_path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "experiment", "--config", str(cfg_path), "--out-dir", str(out_dir))
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {field} must be")
    assert calls == []
    assert not out_dir.exists() or not any(out_dir.iterdir())


def test_experiment_rejects_a_config_that_is_not_an_object(capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("[1, 2]")
    code, _, err = run_cli(capsys, "experiment", "--config", str(cfg_path), "--jobs", "2", "--out-dir", str(tmp_path))
    assert code == 1
    assert err == "error: experiment config must be an object, got [1, 2]\n"


def test_experiment_requires_seed(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "experiment", "--d", "1",
        "--n", "10", "--eps", "0.2", "--trials", "5",
        "--out-dir", str(tmp_path / "x"),
    )
    assert code == 1 and "seed" in err
    # config file without a seed is rejected too
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"dist": standard_normal(1).to_dict(),
                                    "n": 10, "eps": 0.2, "trials": 5}))
    code, _, err = run_cli(
        capsys, "experiment", "--config", str(cfg_path), "--out-dir", str(tmp_path / "y")
    )
    assert code == 1 and "seed" in err


def test_experiment_validity_failure_exits_2(capsys, tmp_path, monkeypatch):
    import dataclasses

    cfg = ExperimentConfig(
        dist=standard_normal(1), n=20, eps=0.3, trials=10, seed=1, kinds=("dkw",)
    )
    real = run_deviation_experiment(cfg)
    broken = dataclasses.replace(real, validity_ok=False)
    monkeypatch.setattr(cli, "run_deviation_experiment", lambda _cfg: broken)
    code, out, err = run_cli(
        capsys, "experiment", "--d", "1",
        "--n", "20", "--eps", "0.3", "--trials", "10", "--seed", "1",
        "--kinds", "dkw", "--out-dir", str(tmp_path / "v"),
    )
    assert code == 2
    assert "validity" in err.lower()


def test_experiment_parallel_flag_matches_serial(capsys, tmp_path):
    args = [
        "experiment", "--d", "2", "--n", "30",
        "--eps", "0.3", "--trials", "8", "--seed", "12", "--psi", "0.1",
    ]
    code1, _, _ = run_cli(capsys, *args, "--jobs", "1", "--out-dir", str(tmp_path / "s"))
    code2, _, _ = run_cli(capsys, *args, "--jobs", "4", "--out-dir", str(tmp_path / "p"))
    assert code1 == code2 == 0
    assert (tmp_path / "s/results.csv").read_text() == (tmp_path / "p/results.csv").read_text()


# -------------------------------------------------------------------- oracle


def test_oracle_subsets_ngon(capsys):
    code, out, _ = run_cli(capsys, "oracle", "subsets", "--regular-ngon", "4")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 14
    assert data["convex_position_formula"] == 14


def test_oracle_subsets_sample_file(capsys, tmp_path):
    path = tmp_path / "tri.csv"
    path.write_text("0,0\n2,0\n1,2\n")
    code, out, _ = run_cli(capsys, "oracle", "subsets", "--sample", str(path))
    assert code == 0
    assert json.loads(out)["count"] == 8


def test_oracle_subsets_needs_a_point_set(capsys):
    code, out, err = run_cli(capsys, "oracle", "subsets")
    assert code == 1 and out == ""
    assert "one of the arguments --regular-ngon --sample is required" in err


def test_oracle_brute_matches_exact(capsys):
    sample = "1,0;0,1;-1,0;0,-1;0.2,0.3"
    code, out, _ = run_cli(capsys, "oracle", "brute", "--sample", sample, "--query", "0,0")
    assert code == 0
    brute = json.loads(out)
    code, out, _ = run_cli(capsys, "depth", "--query", "0,0", "--sample", sample)
    assert json.loads(out)["count"] == brute["count"]


def test_oracle_verify_cover_pass_and_fail(capsys, tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(build_cover(2, 0.2).to_dict()))
    code, out, _ = run_cli(
        capsys, "oracle", "verify-cover", "--file", str(good),
        "--trials", "5000", "--seed", "2",
    )
    assert code == 0
    assert json.loads(out)["pass"] is True
    # two centers cannot cover the circle at radius 0.2: validity exit code
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"d": 2, "psi": 0.2,
                               "centers": [[1.0, 0.0], [-1.0, 0.0]]}))
    code, out, _ = run_cli(
        capsys, "oracle", "verify-cover", "--file", str(bad),
        "--trials", "5000", "--seed", "2",
    )
    assert code == 2
    assert json.loads(out)["pass"] is False
    # above d=4 only the sampled check runs
    cross = tmp_path / "cross5.json"
    cross.write_text(json.dumps({"d": 5, "psi": 1.1,
                                 "centers": np.vstack([np.eye(5), -np.eye(5)]).tolist()}))
    code, out, _ = run_cli(
        capsys, "oracle", "verify-cover", "--file", str(cross),
        "--trials", "5000", "--seed", "2",
    )
    assert code == 0
    report = json.loads(out)
    assert report["method"] == "sampled" and report["exact_radius"] is None


def test_oracle_verify_cover_fails_on_exact_radius(capsys, tmp_path):
    # The 187-point Fibonacci lattice has exact radius 0.19957: sampling
    # finds no gap above 0.1990, but the hull does.
    path = tmp_path / "tight.json"
    path.write_text(json.dumps({"d": 3, "psi": 0.199, "centers": fibonacci_sphere(187).tolist()}))
    code, out, _ = run_cli(
        capsys, "oracle", "verify-cover", "--file", str(path),
        "--trials", "100000", "--seed", "2",
    )
    assert code == 2
    report = json.loads(out)
    assert report["method"] == "hull" and report["pass"] is False
    assert report["max_gap"] < 0.199 < report["exact_radius"] == pytest.approx(0.19957, abs=1e-5)


def test_oracle_verify_cover_requires_seed(capsys, tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(build_cover(2, 0.2).to_dict()))
    code, _, err = run_cli(capsys, "oracle", "verify-cover", "--file", str(path))
    assert code == 1 and "seed" in err


# ------------------------------------------------------------- exit plumbing


def test_unknown_flag_is_input_error(capsys):
    assert main(["depth", "--frobnicate"]) == 1


def test_unknown_subcommand_is_input_error(capsys):
    assert main(["transmogrify"]) == 1


def test_help_exits_zero(capsys):
    commands = [[], ["depth"], ["cover"], ["bound"], ["experiment"], ["oracle"],
                ["oracle", "subsets"], ["oracle", "verify-cover"], ["oracle", "brute"]]
    for command in commands:
        assert main([*command, "--help"]) == 0, command
        out = capsys.readouterr().out
        assert out.startswith("usage: halfdepth"), command
        if command in (["depth"], ["experiment"]):
            # --dist is gone; only --dist-file remains.
            assert re.search(r"--dist(?![-\w])", out) is None, command
        if command == ["depth"]:
            assert "--method" not in out
        if command == ["bound"]:
            assert "--sweep" not in out


@pytest.mark.parametrize(
    "argv",
    [
        ["depth", "--query", "0,0", "--dist", "standard_normal"],
        ["depth", "--query", "0,0", "--d", "2"],
        ["experiment", "--dist", "standard_normal", "--d", "1", "--n", "10", "--eps", "0.2", "--trials", "2",
         "--seed", "1"],
        ["depth", "--method", "certified", "--query", "0,0", "--sample", "1,0;0,1;-1,0", "--psi", "0.3"],
        ["bound", "--kind", "dkw", "--n", "10", "--eps", "0.1", "--d", "1", "--sweep", "n=1..2"],
    ],
    ids=["depth-dist", "depth-d", "experiment-dist", "depth-method", "bound-sweep"],
)
def test_removed_flags_are_unrecognized(capsys, tmp_path, argv):
    if argv[0] == "experiment":
        argv = [*argv, "--out-dir", str(tmp_path / "out")]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert "unrecognized arguments" in err


def _exclusive_pair_argv(pair, tmp_path):
    if pair == "cover-psi":
        cover_path = tmp_path / "cover.json"
        cover_path.write_text(json.dumps(build_cover(2, 0.2).to_dict()))
        return ["depth", "--query", "0,0", "--sample", "1,0;0,1;-1,0",
                "--cover", str(cover_path), "--psi", "0.3"]
    if pair == "dist-file-d":
        dist_path = tmp_path / "dist.json"
        dist_path.write_text(json.dumps(standard_normal(1).to_dict()))
        return ["experiment", "--dist-file", str(dist_path), "--d", "2", "--n", "20", "--eps", "0.3",
                "--trials", "2", "--seed", "1", "--out-dir", str(tmp_path / "out")]
    assert pair == "regular-ngon-sample"
    return ["oracle", "subsets", "--regular-ngon", "4", "--sample", "0,0;1,0;0,1"]


@pytest.mark.parametrize("pair", ["cover-psi", "dist-file-d", "regular-ngon-sample"])
def test_flags_that_would_override_each_other_are_refused(capsys, tmp_path, pair):
    code, out, err = run_cli(capsys, *_exclusive_pair_argv(pair, tmp_path))
    assert code == 1 and out == ""
    assert "not allowed with argument" in err
    assert not (tmp_path / "out").exists()


def test_cli_round_trip_cover_json(capsys, tmp_path):
    # everything the CLI emits, the CLI can consume again
    cover_path = tmp_path / "cover.json"
    code, _, _ = run_cli(capsys, "cover", "--d", "2", "--psi", "0.15",
                         "--out", str(cover_path))
    assert code == 0
    code, out, _ = run_cli(
        capsys, "oracle", "verify-cover", "--file", str(cover_path),
        "--trials", "2000", "--seed", "1",
    )
    assert code == 0


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "halfdepth", "depth", "--query", "2", "--sample", "1,2,3"],
        capture_output=True, text=True, timeout=120, env=_SUBPROCESS_ENV,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 2


def test_cli_import_leaves_scipy_spatial_out():
    # scipy.spatial costs most of the import time, and only the subset-count
    # oracle needs it, so it is imported there.
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, halfdepth.cli; print('scipy.spatial' in sys.modules)"],
        capture_output=True, text=True, timeout=120, env=_SUBPROCESS_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


_SCIPY_FREE_BOUNDS = """
import sys
import halfdepth.cli
assert 'scipy' not in sys.modules, 'import'
from halfdepth.bounds import BOUND_KINDS
from halfdepth.experiments import run_bound_sweep
for d in (2, 3):
    for sharp in ((False, True) if d == 2 else (False,)):
        rows = run_bound_sweep(BOUND_KINDS, [50, 5000], [0.05, 0.3], d, r=3.0, delta=0.01,
                               sharp2d=sharp, exact_m=sharp)
        assert len(rows) == 4 * len(BOUND_KINDS)
assert 'scipy' not in sys.modules, 'sweep'
from halfdepth.population import elliptical_normal, population_depth, standard_normal
from scipy.special import ndtr
assert population_depth(standard_normal(2), [0.6, -0.8]) == ndtr(-1.0)
dist = elliptical_normal([1.0, -1.0], [[4.0, 0.0], [0.0, 1.0]])
assert population_depth(dist, [3.0, -1.0]) == ndtr(-1.0)
print('ok')
"""


def test_bounds_and_cli_import_leave_scipy_out():
    # Only the normal CDF and the subset-count oracle need scipy; the bound
    # sweep over every kind must not load it.
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_FREE_BOUNDS],
        capture_output=True, text=True, timeout=120, env=_SUBPROCESS_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_package_exports_resolve_once():
    # A name left in __all__ after its definition is deleted breaks
    # "from halfdepth import *" only when that star import runs.
    import halfdepth

    assert len(set(halfdepth.__all__)) == len(halfdepth.__all__)
    assert [name for name in halfdepth.__all__ if not hasattr(halfdepth, name)] == []
