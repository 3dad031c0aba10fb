"""End-to-end tests for the command-line interface and its exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest

import halfdepth.cli as cli
from halfdepth.cli import main
from halfdepth.experiments import ExperimentConfig, run_deviation_experiment
from halfdepth.geometry import build_cover
from halfdepth.population import elliptical_normal, standard_normal


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
        "--sample", pts, "--psi", "0.3", "--seed", "5",
    )
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"lower", "upper", "psi", "R"}
    assert data["lower"] <= data["upper"]


def test_depth_certified_d3_requires_seed(capsys):
    code, _, err = run_cli(
        capsys, "depth", "--method", "certified", "--query", "0,0,0",
        "--sample", "1,0,0;0,1,0;0,0,1", "--psi", "0.3",
    )
    assert code == 1
    assert "seed" in err


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


def test_cover_3d_requires_seed(capsys):
    code, _, err = run_cli(capsys, "cover", "--d", "3", "--psi", "0.4")
    assert code == 1 and "seed" in err
    code, out, _ = run_cli(capsys, "cover", "--d", "3", "--psi", "0.4", "--seed", "7")
    assert code == 0
    assert json.loads(out)["d"] == 3


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
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 2


def test_cli_import_leaves_scipy_spatial_out():
    # scipy.spatial costs most of the import time, and only the subset-count
    # oracle needs it, so it is imported there.
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, halfdepth.cli; print('scipy.spatial' in sys.modules)"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
