"""Fuzz the manifest-plus-blob container behind corpora and checkpoints.

A truncated file, one overwritten byte or shuffled lines in a manifest or
a blob must either still load or raise a ``PipelineError``. A flipped blob
byte that still decodes to a finite value may load: only a checksum would
catch it.
"""

import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmood.checkpoint import load_checkpoint
from mmood.cli import main
from mmood.corpus import load_corpus
from mmood.errors import PipelineError

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
        path.write_bytes(_corrupt(path.read_bytes(), mutation, data))
        try:
            LOADERS[kind](directory)
        except PipelineError:
            pass
