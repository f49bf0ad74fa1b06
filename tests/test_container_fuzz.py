"""Fuzz the manifest-plus-blob container behind corpora and checkpoints.

A truncated file, one overwritten byte or shuffled lines in a manifest or
a blob must either still load or raise a ``PipelineError``. Every blob,
a corpus's (format version 2) or a checkpoint's (tensor-store version 4),
has its crc32 in the manifest, so any change to its bytes must raise a
``FormatError``: crc32 catches every flipped byte.
"""

import re
import shutil
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmood.checkpoint import load_checkpoint
from mmood.cli import main
from mmood.corpus import (ModalitySynth, SynthConfig, load_corpus, save_corpus,
                          synth_corpus)
from mmood.errors import FormatError, PipelineError
from mmood.numerics import make_rng

INI = """
[corpus]
num_classes = 3
n_train = 24
n_valid = 12
n_test_id = 12
n_test_ood = 6
seq_len_t = 3
dim_t = 8
seq_len_v = 2
dim_v = 4
seq_len_a = 2
dim_a = 4

[model]
attn_heads = 2
fusion_hidden = 8

[train]
batch_size = 8
stage1_epochs = 1
stage2_epochs = 1
"""

LOADERS = {"corpus": load_corpus, "run": load_checkpoint}
FILES = [("corpus", "manifest.jsonl"), ("corpus", "seq_T.blob"),
         ("corpus", "seq_A.blob"), ("run", "checkpoint.json"),
         ("run", "checkpoint.blob")]


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A saved micro corpus and a checkpoint trained on it; read-only."""
    root = tmp_path_factory.mktemp("container")
    cfg = root / "run.ini"
    cfg.write_text(INI)
    assert main(["synth", "--config", str(cfg), "--out", str(root / "corpus"),
                 "--seed", "0"]) == 0
    with warnings.catch_warnings():  # fewer than 20 ID test samples
        warnings.simplefilter("ignore")
        assert main(["train", "--config", str(cfg), "--corpus",
                     str(root / "corpus"), "--out", str(root / "run"),
                     "--seed", "0"]) == 0
    return root


def _corrupt(raw: bytes, mutation: str, data) -> bytes:
    if mutation == "truncate":
        return raw[:data.draw(st.integers(0, len(raw) - 1))]
    if mutation == "overwrite":
        i = data.draw(st.integers(0, len(raw) - 1))
        return raw[:i] + bytes([data.draw(st.integers(0, 255))]) + raw[i + 1:]
    return b"".join(data.draw(st.permutations(raw.splitlines(keepends=True))))


@settings(max_examples=300, deadline=None)
@given(target=st.sampled_from(FILES),
       mutation=st.sampled_from(["truncate", "overwrite", "shuffle"]),
       data=st.data())
def test_corrupted_file_loads_or_raises_pipeline_error(saved, target,
                                                        mutation, data):
    kind, name = target
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(shutil.copytree(saved / kind, Path(tmp) / kind))
        path = directory / name
        raw = path.read_bytes()
        corrupted = _corrupt(raw, mutation, data)
        path.write_bytes(corrupted)
        if name.endswith(".blob") and corrupted != raw:
            with pytest.raises(FormatError):
                LOADERS[kind](directory)
            return
        try:
            LOADERS[kind](directory)
        except PipelineError:
            pass


def test_every_flipped_corpus_blob_byte_raises(tmp_path):
    """Each bit of each byte of a small corpus's blobs, flipped one at a
    time, fails the blob's crc32 check."""
    shapes = {m: ModalitySynth(seq_len=2, dim=2) for m in ("T", "V", "A")}
    corpus = synth_corpus(SynthConfig(num_classes=2, n_train=2, n_valid=0,
                                      n_test_id=2, n_test_ood=1,
                                      modalities=shapes), make_rng(0))
    manifest = save_corpus(corpus, tmp_path / "c")
    for m in shapes:
        blob = tmp_path / "c" / f"seq_{m}.blob"
        raw = blob.read_bytes()
        assert len(raw) == 5 * 2 * 2 * 4
        for i in range(len(raw)):
            for bit in range(8):
                blob.write_bytes(raw[:i] + bytes([raw[i] ^ 1 << bit])
                                 + raw[i + 1:])
                with pytest.raises(FormatError, match=f"blob seq_{m}.blob has "
                                   "crc32"):
                    load_corpus(manifest)
        blob.write_bytes(raw)
    load_corpus(manifest)


def test_every_flipped_checkpoint_blob_byte_raises(tmp_path, tiny_run):
    """Each bit of each byte of a small checkpoint's blob, flipped one at a
    time, fails the blob's crc32 check."""
    run = Path(shutil.copytree(tiny_run, tmp_path / "run"))
    blob = run / "checkpoint.blob"
    raw = blob.read_bytes()
    assert len(raw) == 552
    message = re.escape(f"checkpoint: {run / 'checkpoint.json'}: blob "
                        "checkpoint.blob has crc32")
    for i in range(len(raw)):
        for bit in range(8):
            blob.write_bytes(raw[:i] + bytes([raw[i] ^ 1 << bit]) + raw[i + 1:])
            with pytest.raises(FormatError, match=message):
                load_checkpoint(run)
    blob.write_bytes(raw)
    load_checkpoint(run)
