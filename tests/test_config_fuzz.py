"""Fuzz the config gate through the CLI.

An INI with one to three keys of one section set to an edge value must
either run, or exit 1 with one ``error: <module>: ...`` line, no traceback
and no ``--out`` directory. Either way no ``*.partial-*`` scratch directory
is left next to ``--out``. ``[model]``, ``[train]`` and ``[oodgen]`` run
``mmood train`` on the micro corpus; ``[corpus]`` runs ``mmood synth``.
"""

import contextlib
import io
import re
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmood.cli import main
from mmood.corpus import MODALITIES, ModalitySynth, SynthConfig
from mmood.model import ModelHyper
from mmood.oodgen import OodGenConfig
from mmood.train import TrainConfig
from test_cli import MICRO_INI, ini_with

VALUES = ["0", "-1", "0.5", "1.5", "nan", "inf", "-inf", "1e300", "x",
          "50%"]
KEYS = {
    "model": [f.name for f in fields(ModelHyper)],
    "train": [f.name for f in fields(TrainConfig) if f.name != "model"],
    "oodgen": [f.name for f in fields(OodGenConfig)],
    "corpus": [f.name for f in fields(SynthConfig) if f.name != "modalities"]
    + [f"{f.name}_{m.lower()}" for f in fields(ModalitySynth)
       for m in MODALITIES],
}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """The micro corpus of tests/test_cli.py; read-only."""
    root = tmp_path_factory.mktemp("gate")
    (root / "run.ini").write_text(MICRO_INI)
    assert main(["synth", "--config", str(root / "run.ini"), "--out",
                 str(root / "corpus"), "--seed", "0"]) == 0
    return root / "corpus"


@st.composite
def edits(draw, sections):
    section = draw(st.sampled_from(sections))
    keys = draw(st.permutations(KEYS[section]))[:draw(st.integers(1, 3))]
    return section, {key: draw(st.sampled_from(VALUES)) for key in keys}


def _runs_or_fails_cleanly(section, items, corpus) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "run.ini", Path(tmp) / "out"
        cfg.write_text(ini_with(section, items))
        argv = ["--config", str(cfg), "--out", str(out)]
        argv = ["synth", *argv] if section == "corpus" \
            else ["train", *argv, "--corpus", str(corpus)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(argv)
        err = err.getvalue()
        assert code in (0, 1), (items, code)
        if code == 0:
            assert out.is_dir() and err == "", (items, err)
        else:
            assert re.fullmatch(r"error: [a-z]+: [^\n]+\n", err), (items, err)
            assert not out.exists(), (items, err)
        assert list(Path(tmp).rglob("*.partial-*")) == [], (items, err)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(edit=edits(["model", "train", "oodgen"]))
def test_train_runs_or_fails_cleanly(corpus, edit):
    _runs_or_fails_cleanly(*edit, corpus)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(edit=edits(["corpus"]))
def test_synth_runs_or_fails_cleanly(corpus, edit):
    _runs_or_fails_cleanly(*edit, corpus)
