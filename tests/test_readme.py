"""The README's command lines run as written and exit 0."""

import json
import re
import shlex
from pathlib import Path

import numpy as np

from halfdepth.cli import main
from halfdepth.experiments import ExperimentConfig
from halfdepth.population import standard_normal

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    """The argv of every line that starts with halfdepth in the README's sh
    blocks, in order. A line that ends in a backslash continues on the next,
    and a # starts a comment."""
    return [argv for argv, _ in readme_lines()]


def readme_lines():
    """(argv, comment) of every README command line, as readme_commands
    reads them; comment is the text after the line's #, or ""."""
    commands, in_sh, pending = [], False, ""
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
            continue
        if not in_sh:
            continue
        line = pending + line.rstrip()
        if line.endswith("\\"):
            pending = line[:-1]
            continue
        pending = ""
        argv = shlex.split(line, comments=True)
        if argv and argv[0] == "halfdepth":
            commands.append((argv[1:], line.partition("#")[2].strip()))
    return commands


def test_readme_commands_exit_zero(capsys, tmp_path, monkeypatch):
    # The fixture files that the commands name: a 2-d and a 3-d sample, and
    # an experiment config. cover.json is written by the README's own cover
    # command before oracle verify-cover reads it.
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(0)
    np.savetxt("points.csv", rng.standard_normal((40, 2)), delimiter=",")
    np.savetxt("points3.csv", rng.standard_normal((40, 3)), delimiter=",")
    cfg = ExperimentConfig(dist=standard_normal(2), n=30, eps=0.2, trials=5, seed=1, psi=0.05, kinds=("dkw",))
    Path("cfg.json").write_text(json.dumps(cfg.to_dict()))
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {"depth", "cover", "bound", "experiment", "oracle"}
    for argv in commands:
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 0, (argv, err)
    assert Path("sweep.csv").exists() and Path("out500/summary.json").exists()


def test_readme_cover_comments_count_the_centers(capsys, tmp_path, monkeypatch):
    # A "# N centers" comment on a cover line is the number of centers that
    # the command writes.
    monkeypatch.chdir(tmp_path)
    counted = 0
    for argv, comment in readme_lines():
        match = re.fullmatch(r"([\d,]+) centers", comment)
        if argv[0] != "cover" or match is None:
            continue
        assert main(argv) == 0, capsys.readouterr().err
        written = json.loads(Path(argv[argv.index("--out") + 1]).read_text())["centers"]
        assert len(written) == int(match[1].replace(",", "")), argv
        counted += 1
    assert counted == 2
