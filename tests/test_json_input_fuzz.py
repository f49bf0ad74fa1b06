"""Structured mutations of the JSON files that ``mmood eval`` and ``mmood
report`` read.

One JSON path of one input is dropped, or its value is replaced by another
JSON value: ``null``, ``true``, ``-1``, ``3.5``, an int of 400 digits,
``"x"``, ``[]`` or ``{}`` (the root is only replaced). The inputs are a
corpus manifest's header and its records' label column (the
``corpus_record`` target) and a checkpoint manifest's header and first
tensor, read by ``mmood eval``, and the eval report and a
score file's first row, read by ``mmood report --out``. Each run exits 0,
or exits 1 with exactly one ``error: `` line on stderr and no output
directory; any other exception fails the example. The same holds when one
key of an input is written twice, and every input file (the config and
the blobs too) replaced by a dangling symlink, or by one to a file that
cannot be read, exits 1. Values that are representable but huge are left
to the capped-address-space tests in ``test_cli.py``.
"""

import copy
import io
import json
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
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
        "corpus_record": (corpus / "manifest.jsonl", 2, eval_argv),
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

    @settings(max_examples=examples, derandomize=True, deadline=None)
    @given(st.sampled_from(_mutations(value)))
    def run(mutation):
        mutated = _mutated(value, *mutation)
        if line is None:
            text = json.dumps(mutated, sort_keys=True, indent=2) + "\n"
        else:
            text = "\n".join(lines[:line] + [json.dumps(mutated, sort_keys=True)]
                             + lines[line + 1:]) + "\n"
        try:
            path.write_text(text, encoding="utf-8")
            _exits_0_or_one_error_line(root, argv)
        finally:
            path.write_text(original, encoding="utf-8")

    run()


def _exits_0_or_one_error_line(root, argv) -> int:
    """``main(argv)`` into ``root/out`` exits 0, or exits 1 with exactly
    one ``error: `` line on stderr and no output or scratch directory;
    returns the exit code."""
    out = root / "out"
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = main([*argv, "--out", str(out)])
    if code == 0:
        shutil.rmtree(out)
        return code
    assert code == 1
    assert err.getvalue().startswith("error: ")
    assert err.getvalue().count("\n") == 1
    assert not out.exists()
    assert not list(root.glob("*.partial-*"))
    return code


def _duplicated(value, path, new, first):
    """The JSON text of ``value`` (keys sorted) in which the object holding
    the key at ``path`` names that key twice: once with ``new``, written
    first or last, and once with its own value."""
    mark = "\0duplicate"  # encoded as "\u0000duplicate", found nowhere else
    text = json.dumps(_mutated(value, path, mark), sort_keys=True)
    pair = [json.dumps(new), json.dumps(_get(value, path))]
    if not first:
        pair.reverse()
    return text.replace(json.dumps(mark), f", {json.dumps(path[-1])}: ".join(
        pair), 1)


def _get(value, path):
    for key in path:
        value = value[key]
    return value


@pytest.mark.parametrize("target, examples", [
    ("corpus_header", 40), ("corpus_record", 20), ("checkpoint_header", 100),
    ("checkpoint_tensor", 20), ("eval_report", 60), ("score_row", 20),
])
def test_duplicated_key_exits_0_or_one_error_line(evaluated, target,
                                                  examples):
    """One key of one object is written twice, with a second JSON value
    before or after its own; ``json.loads`` keeps the last one."""
    root, targets = evaluated
    path, line, argv = targets[target]
    original = path.read_text(encoding="utf-8")
    lines = original.splitlines()
    value = json.loads(original if line is None else lines[line])
    keys = [p for p in _paths(value) if p and isinstance(p[-1], str)]

    @settings(max_examples=examples, derandomize=True, deadline=None)
    @given(st.sampled_from(keys), st.sampled_from(VALUES), st.booleans())
    def run(key, new, first):
        text = _duplicated(value, key, new, first)
        if line is not None:
            text = "\n".join(lines[:line] + [text] + lines[line + 1:])
        try:
            path.write_text(text + "\n", encoding="utf-8")
            _exits_0_or_one_error_line(root, argv)
        finally:
            path.write_text(original, encoding="utf-8")

    run()


# every input file of eval and report, under the fixture's root
INPUTS = [
    "run.ini", "corpus/manifest.jsonl", "corpus/seq_T.blob",
    "corpus/seq_V.blob", "corpus/seq_A.blob", "run/checkpoint.json",
    "run/checkpoint.blob", "eval/eval_report.json", "eval/scores_msp.jsonl",
]


def _symlinked_exits_1(evaluated, name, target) -> None:
    """Input ``name``, replaced by a symlink to ``target``, exits 1 with
    one error line."""
    root, targets = evaluated
    path = root / name
    argv = targets["eval_report" if name.startswith("eval/") else
                   "corpus_header"][2]
    aside = path.with_name(path.name + ".aside")
    path.rename(aside)
    try:
        path.symlink_to(target)
        assert _exits_0_or_one_error_line(root, argv) == 1
    finally:
        path.unlink()
        aside.rename(path)


@pytest.mark.parametrize("name", INPUTS)
def test_dangling_symlink_exits_1_with_one_error_line(evaluated, name):
    """An input that is a symlink to nothing is named in one error line."""
    _symlinked_exits_1(evaluated, name, evaluated[0] / "nothing")


@pytest.mark.skipif(not Path("/proc/self/mem").is_file(),
                    reason="needs Linux's /proc/self/mem")
@pytest.mark.parametrize("name", INPUTS)
def test_unreadable_input_exits_1_with_one_error_line(evaluated, name):
    """An input that is a symlink to ``/proc/self/mem`` is a regular file
    of size 0 whose first read fails with EIO; it is named in one error
    line, not an ``OSError`` traceback. A blob's size check fails first."""
    _symlinked_exits_1(evaluated, name, "/proc/self/mem")


def test_unreadable_blob_exits_1_with_one_error_line(evaluated, monkeypatch):
    """A blob of the right size that ``np.fromfile`` cannot read."""
    root, targets = evaluated
    read = []

    def fromfile(path, *args, **kwargs):
        read.append(path)
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(np, "fromfile", fromfile)
    assert _exits_0_or_one_error_line(root, targets["corpus_header"][2]) == 1
    assert read == [root / "corpus" / "seq_T.blob"]
