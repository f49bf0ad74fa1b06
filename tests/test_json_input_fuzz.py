"""Structured mutations of the JSON files that ``mmood eval`` and ``mmood
report`` read.

One JSON path of one input is dropped, or its value is replaced by another
JSON value: ``null``, ``true``, ``-1``, ``3.5``, an int of 400 digits,
``"x"``, ``[]`` or ``{}`` (the root is only replaced). The inputs are a
corpus manifest's header and first record and a checkpoint manifest's
header and first tensor, read by ``mmood eval``, and the eval report and a
score file's first row, read by ``mmood report --out``. Each run exits 0,
or exits 1 with exactly one ``error: `` line on stderr and no output
directory; any other exception fails the example. Values that are
representable but huge are left to the capped-address-space tests in
``test_cli.py``.
"""

import copy
import io
import json
import shutil
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmood.cli import main
from conftest import MICRO_INI

DROP = object()
VALUES = (None, True, -1, 3.5, 10**400, "x", [], {})


def _paths(value, prefix=()):
    """Every JSON path in ``value`` as a tuple of keys and list indices,
    the root ``()`` first."""
    yield prefix
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _paths(value[key], prefix + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _paths(item, prefix + (i,))


def _mutations(value) -> list[tuple]:
    """Every ``(path, replacement)`` of ``value``; ``DROP`` deletes the
    path's key or list item."""
    return [(path, new) for path in _paths(value)
            for new in ((DROP,) if path else ()) + VALUES]


def _mutated(value, path, new):
    if not path:
        return new
    out = copy.deepcopy(value)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if new is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return out


@pytest.fixture(scope="module")
def evaluated(tmp_path_factory):
    """A micro corpus (24 ID test records), a checkpoint trained on it and
    its msp evaluation, made by the CLI."""
    root = tmp_path_factory.mktemp("json-fuzz")
    cfg = root / "run.ini"
    cfg.write_text(MICRO_INI)
    corpus, run, evaled = root / "corpus", root / "run", root / "eval"
    assert main(["synth", "--config", str(cfg), "--out", str(corpus),
                 "--seed", "0"]) == 0
    assert main(["train", "--config", str(cfg), "--corpus", str(corpus),
                 "--out", str(run), "--seed", "0"]) == 0
    eval_argv = ["eval", "--config", str(cfg), "--checkpoint", str(run),
                 "--corpus", str(corpus), "--scorer", "msp"]
    assert main([*eval_argv, "--out", str(evaled)]) == 0
    report_argv = ["report", str(evaled)]
    # (file, line or None for the whole file, command)
    return root, {
        "corpus_header": (corpus / "manifest.jsonl", 0, eval_argv),
        "corpus_record": (corpus / "manifest.jsonl", 1, eval_argv),
        "checkpoint_header": (run / "checkpoint.json", 0, eval_argv),
        "checkpoint_tensor": (run / "checkpoint.json", 1, eval_argv),
        "eval_report": (evaled / "eval_report.json", None, report_argv),
        "score_row": (evaled / "scores_msp.jsonl", 0, report_argv),
    }


@pytest.mark.parametrize("target, examples", [
    ("corpus_header", 80), ("corpus_record", 40), ("checkpoint_header", 200),
    ("checkpoint_tensor", 40), ("eval_report", 120), ("score_row", 30),
])
def test_exits_0_or_one_error_line(evaluated, target, examples):
    root, targets = evaluated
    path, line, argv = targets[target]
    original = path.read_text(encoding="utf-8")
    lines = original.splitlines()
    value = json.loads(original if line is None else lines[line])
    out = root / "out"

    @settings(max_examples=examples, derandomize=True, deadline=None)
    @given(st.sampled_from(_mutations(value)))
    def run(mutation):
        mutated = _mutated(value, *mutation)
        if line is None:
            text = json.dumps(mutated, sort_keys=True, indent=2) + "\n"
        else:
            text = "\n".join(lines[:line] + [json.dumps(mutated, sort_keys=True)]
                             + lines[line + 1:]) + "\n"
        err = io.StringIO()
        try:
            path.write_text(text, encoding="utf-8")
            with redirect_stderr(err), redirect_stdout(io.StringIO()):
                code = main([*argv, "--out", str(out)])
        finally:
            path.write_text(original, encoding="utf-8")
        if code == 0:
            shutil.rmtree(out)
            return
        assert code == 1
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
        assert not out.exists()
        assert not list(root.glob("*.partial-*"))

    run()
