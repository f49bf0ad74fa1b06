"""Every experiment script imports and parses its arguments."""

import json
import runpy
import sys
from pathlib import Path

import pytest

from mmood.cli import main as cli

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
        "run_ablation_suite.py", "run_pipeline.py"}


@pytest.mark.parametrize("script, extra, error", [
    ("run_pipeline.py", ["--seed=-1"], "error: "),
    ("run_pipeline.py", ["--checkpoint", "missing"],
     "error: --checkpoint needs --corpus\n"),
    ("run_pipeline.py", ["--corpus", "missing"],
     "error: --corpus needs --checkpoint\n"),
], ids=["pipeline-seed", "pipeline-no-corpus", "pipeline-no-checkpoint"])
def test_failed_run_leaves_no_out(script, extra, error, tmp_path, monkeypatch,
                                  capsys):
    out = tmp_path / "out"
    path = SCRIPTS[0].with_name(script)
    monkeypatch.setattr(sys, "argv", [str(path), "--out", str(out), *extra])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(path), run_name="__main__")
    assert exc.value.code == 1
    assert capsys.readouterr().err.startswith(error)
    assert list(tmp_path.iterdir()) == []


SMALL_INI = """\
[corpus]
n_train = 48
n_valid = 24
n_test_id = 24
n_test_ood = 12
dim_t = 8
dim_v = 8
dim_a = 4

[model]
attn_heads = 2

[train]
batch_size = 16
stage1_epochs = 1
stage2_epochs = 1
"""


def test_pipeline_reuses_checkpoint(tmp_path, monkeypatch, capsys):
    """With --checkpoint and --corpus, only eval and report run, into
    --out, and the scorer table matches eval_report.json."""
    cfg = tmp_path / "small.ini"
    cfg.write_text(SMALL_INI)
    corpus, run, out = tmp_path / "corpus", tmp_path / "run", tmp_path / "out"
    assert cli(["synth", "--config", str(cfg), "--out", str(corpus),
                "--seed", "0"]) == 0
    assert cli(["train", "--config", str(cfg), "--corpus", str(corpus),
                "--out", str(run), "--seed", "0"]) == 0
    path = SCRIPTS[0].with_name("run_pipeline.py")
    monkeypatch.setattr(sys, "argv", [str(path), "--out", str(out),
                                      "--checkpoint", str(run),
                                      "--corpus", str(corpus)])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(path), run_name="__main__")
    assert exc.value.code == 0
    assert [p.name for p in out.iterdir()] == ["eval"]
    assert (out / "eval" / "scores_long.csv").is_file()
    report = json.loads((out / "eval" / "eval_report.json").read_text())
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    table = {row[0]: row[1:] for row in rows if row[0] in report["ood_metrics"]}
    assert sorted(table) == sorted(report["ood_metrics"]) and len(table) == 6
    for scorer, m in report["ood_metrics"].items():
        assert table[scorer] == [f"{m[k]:.4f}" for k in
                                 ("auroc", "aupr_in", "aupr_out", "fpr95",
                                  "der")]
