"""End-to-end tests for the command-line interface and its exit codes."""

import csv
import io
import json
import math
import os
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
    code, out, _ = run_cli(capsys, "depth", "--method", "1d", "--query", "2", "--sample", "1,2,3")
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
        capsys, "depth", "--method", "population", "--dist", "standard_normal",
        "--d", "2", "--query", "0,0",
    )
    assert code == 0
    assert json.loads(out) == {"value": 0.5}


def test_depth_population_infers_dimension(capsys):
    code, out, _ = run_cli(capsys, "depth", "--method", "population", "--query", "1,0,0")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.15865525393145707)


def test_depth_population_dist_file(capsys, tmp_path):
    dist = elliptical_normal([1.0, 0.0], [[4.0, 0.0], [0.0, 1.0]])
    path = tmp_path / "dist.json"
    path.write_text(json.dumps(dist.to_dict()))
    code, out, _ = run_cli(
        capsys, "depth", "--method", "population", "--dist-file", str(path),
        "--query", "1,0",
    )
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.5)


def test_depth_certified_with_psi(capsys):
    rng = np.random.default_rng(0)
    pts = ";".join(f"{x:.6f},{y:.6f},{z:.6f}" for x, y, z in rng.normal(size=(15, 3)))
    code, out, _ = run_cli(
        capsys, "depth", "--method", "certified", "--query", "0,0,0",
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
        capsys, "depth", "--method", "certified", "--query", "0,0",
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
    code, out, _ = run_cli(capsys, "depth", "--method", "brute", *args)
    assert json.loads(out)["count"] == 0
    code, out, err = run_cli(capsys, "depth", "--method", "certified", "--cover", cover_path, *args)
    assert code == 1
    assert out == ""
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert "exact covering radius" in errors[0] and "--psi" in errors[0]


def test_depth_approx_accepts_any_cover_file(capsys, tmp_path):
    # The approximate depth is an upper bound over any set of directions.
    args, cover_path = _holed_cover_case(tmp_path)
    code, out, _ = run_cli(capsys, "depth", "--method", "approx", "--cover", cover_path, *args)
    assert code == 0
    assert json.loads(out)["count"] == 4


@pytest.mark.parametrize("d, psi", [(2, 0.1), (3, 0.3), (4, 0.5)])
def test_cover_output_reloads_and_certifies(capsys, tmp_path, d, psi):
    cover_path = tmp_path / "cover.json"
    code, _, _ = run_cli(capsys, "cover", "--d", str(d), "--psi", str(psi), "--out", str(cover_path))
    assert code == 0
    pts = ";".join(",".join(f"{c:.6f}" for c in row) for row in np.random.default_rng(d).normal(size=(12, d)))
    code, out, err = run_cli(
        capsys, "depth", "--method", "certified", "--query", ",".join(["0"] * d),
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
        capsys, "depth", "--method", "certified", "--query", "0,0,0,0,0",
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
    # missing sample
    code, _, err = run_cli(capsys, "depth", "--query", "0,0")
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
    "method, sample, query",
    [
        ("auto", "1,0;0,1;-1,0", "nan,0"),
        ("exact2d", "1,0;0,1;-1,0", "inf,0"),
        ("brute", "1,0;0,1;-1,0", "0,-inf"),
        ("certified", "1,0;0,1;-1,0", "nan,0"),
        ("approx", "1,0;0,1;-1,0", "0,nan"),
        ("1d", "1,2,3", "nan"),
        ("population", None, "nan,0"),
    ],
)
def test_depth_rejects_non_finite_query(capsys, method, sample, query):
    argv = ["depth", "--method", method, "--query", query]
    if sample is not None:
        argv += ["--sample", sample, "--psi", "0.3"] if method in ("certified", "approx") else ["--sample", sample]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error:") and "non-finite" in err


def test_depth_out_file(capsys, tmp_path):
    target = tmp_path / "depth.json"
    code, out, _ = run_cli(
        capsys, "depth", "--method", "1d", "--query", "2", "--sample", "1,2,3",
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
        for method in ("certified", "approx"):
            runs.append(("depth", "--method", method, "--query", query, "--sample", pts, "--psi", "0.3"))
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
        capsys, "bound", "--kind", "dkw", "--n", "100", "--eps", "0.1",
        "--d", "1", "--sweep", "n=100..500..100",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("kind,n,eps")
    assert len(lines) == 6


def test_bound_sweep_eps(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--kind", "vc2", "--n", "300", "--eps", "0.1",
        "--d", "2", "--exact-m", "--sweep", "eps=0.05..0.25..0.05",
    )
    assert code == 0
    assert len(out.strip().split("\n")) == 6


def test_bound_sweep_bad_spec(capsys):
    code, _, err = run_cli(
        capsys, "bound", "--kind", "dkw", "--n", "10", "--eps", "0.1",
        "--sweep", "m=1..2",
    )
    assert code == 1


def test_bound_sweep_bad_grid_value_writes_nothing(capsys):
    code, out, err = run_cli(
        capsys, "bound", "--kind", "dkw", "--n", "300", "--eps", "0.1",
        "--sweep", "eps=0..0.5",
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
        capsys, "bound", "--kind", "vc2", "--n", "1000000000", "--eps", "0.1", "--d", "100",
        "--sweep", "n=999999990..1000000000..5",
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
    code, out, err = run_cli(capsys, "bound", "--n", "300", "--eps", "0.1", "--sweep", "n=100..200", *argv)
    assert code == 1
    assert out == ""
    assert [line for line in err.splitlines() if line.startswith("error:")] == [f"error: {message}"]


# --------------------------------------------------------------- experiment


def test_experiment_inline_flags(capsys, tmp_path):
    out_dir = tmp_path / "exp"
    code, out, _ = run_cli(
        capsys, "experiment", "--dist", "standard_normal", "--d", "1",
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
    # d=2 and d>=4 covers are closed-form; the convex hull that builds d=3
    # covers must not load scipy.spatial into a planar run or a d>=4 cover.
    proc = subprocess.run(
        [sys.executable, "-c", _RUNS_WITHOUT_SCIPY_SPATIAL],
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
    ],
    ids=[
        "no-queries-d3", "no-queries-d2", "flat-queries", "named-queries", "dist-number", "kinds-string",
        "null-n", "named-jobs",
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
        capsys, "experiment", "--dist", "standard_normal", "--d", "1",
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
        capsys, "experiment", "--dist", "standard_normal", "--d", "1",
        "--n", "20", "--eps", "0.3", "--trials", "10", "--seed", "1",
        "--kinds", "dkw", "--out-dir", str(tmp_path / "v"),
    )
    assert code == 2
    assert "validity" in err.lower()


def test_experiment_parallel_flag_matches_serial(capsys, tmp_path):
    args = [
        "experiment", "--dist", "standard_normal", "--d", "2", "--n", "30",
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


def test_oracle_brute_matches_exact(capsys):
    sample = "1,0;0,1;-1,0;0,-1;0.2,0.3"
    code, out, _ = run_cli(capsys, "oracle", "brute", "--sample", sample, "--query", "0,0")
    assert code == 0
    brute = json.loads(out)
    code, out, _ = run_cli(capsys, "depth", "--method", "exact2d", "--query", "0,0",
                           "--sample", sample)
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
    cover = build_cover(3, 0.2)
    path = tmp_path / "tight.json"
    path.write_text(json.dumps({"d": 3, "psi": 0.199, "centers": cover.centers.tolist()}))
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
    assert main(["--help"]) == 0
    assert main(["depth", "--help"]) == 0


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
        [sys.executable, "-m", "halfdepth", "depth", "--method", "1d",
         "--query", "2", "--sample", "1,2,3"],
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
