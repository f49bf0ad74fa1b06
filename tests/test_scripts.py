"""Every experiment script imports and parses its arguments."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).parents[1] / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_help_exits_0(script, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [str(script), "--help"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(script), run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ")


def test_every_script_found():
    assert {p.name for p in SCRIPTS} == {
        "run_ablation_suite.py", "run_pipeline.py", "run_scorer_comparison.py"}


@pytest.mark.parametrize("script, extra", [
    ("run_pipeline.py", ["--seed=-1"]),
    ("run_scorer_comparison.py", ["--seed=-1"]),
    ("run_scorer_comparison.py", ["--checkpoint", "missing"]),
], ids=["pipeline-seed", "scorers-seed", "scorers-no-corpus"])
def test_failed_run_leaves_no_out(script, extra, tmp_path, monkeypatch,
                                  capsys):
    out = tmp_path / "out"
    path = SCRIPTS[0].with_name(script)
    monkeypatch.setattr(sys, "argv", [str(path), "--out", str(out), *extra])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(path), run_name="__main__")
    assert exc.value.code == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []
