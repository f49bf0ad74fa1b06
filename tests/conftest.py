import json
import math
import zlib

import numpy as np
import pytest

from mmood.checkpoint import save_checkpoint
from mmood.cli import main
from mmood.corpus import (OOD_LABEL, Corpus, ModalitySynth, SynthConfig,
                          synth_corpus)
from mmood.layers import Param, bind_flat, initialize
from mmood.model import ModelHyper, SLOT_SYNTH
from mmood.numerics import (component_rng, covariance, default_reg_eps,
                            make_rng)
from mmood.oodgen import OodGenConfig
from mmood.train import TrainConfig, train

MICRO_INI = """
[corpus]
num_classes = 3
n_train = 48
n_valid = 24
n_test_id = 24
n_test_ood = 12
seq_len_t = 3
dim_t = 8
seq_len_v = 3
dim_v = 8
seq_len_a = 3
dim_a = 4

[model]
attn_heads = 2
fusion_hidden = 8

[train]
batch_size = 16
stage1_epochs = 1
stage2_epochs = 2
learning_rate = 0.002

[eval]
scorer = all
"""


# the test_crc32 of no test records: the crc32 of no bytes per modality
NO_TEST_KEY = {"T": 0, "V": 0, "A": 0}


def take(corpus, idx) -> Corpus:
    """A copy of the rows of ``corpus`` an index array selects, in its
    order."""
    return Corpus(corpus.meta, corpus.ids[idx], corpus.splits[idx],
                  corpus.labels[idx], {m: s[idx] for m, s in corpus.seqs.items()})


def split(corpus, name: str):
    """A copy of the records of one split of ``corpus``, in file order."""
    return take(corpus, np.flatnonzero(corpus.splits == name))


def class_covariances(features, labels, num_classes, eps=None):
    """``(counts, covs, eps)`` of each class 0..K-1 of ``features``: its row
    count, its unbiased ``covariance`` and the shift ``fit_class_stats``
    inverts it with, ``eps`` or ``default_reg_eps`` floored at 1e-6."""
    features, labels = np.asarray(features, dtype=float), np.asarray(labels)
    rows = [features[labels == k] for k in range(num_classes)]
    covs = np.stack([covariance(r) for r in rows])
    shifts = [default_reg_eps(c) if eps is None else float(eps) for c in covs]
    return (np.array([len(r) for r in rows]), covs,
            np.maximum(shifts, 1e-6))


def is_ood(corpus) -> np.ndarray:
    """Which records of ``corpus`` are out of distribution."""
    return corpus.labels == OOD_LABEL


def built(layer, rng):
    """``layer`` bound to buffers of its own, then its inits drawn from
    ``rng`` in ``params()`` order."""
    bind_flat(layer.params())
    initialize(layer.params(), rng)
    return layer


def param(name, value):
    """A bound ``Param`` holding a copy of ``value``."""
    p = Param(name, np.shape(value))
    bind_flat([p])
    p.value[...] = value
    return p


def set_tensor_value(manifest, name, value, index=0):
    """Write ``value`` over value ``index`` of tensor ``name`` in the blob of
    checkpoint ``manifest``, which holds the tensors in sorted-name order,
    and record the blob's new crc32 in the header."""
    lines = manifest.read_text().splitlines()
    entries = sorted((json.loads(line) for line in lines[1:]),
                     key=lambda entry: entry["name"])
    names = [entry["name"] for entry in entries]
    start = 8 * (index + sum(math.prod(entry["shape"])
                             for entry in entries[:names.index(name)]))
    blob = manifest.with_suffix(".blob")
    data = bytearray(blob.read_bytes())
    data[start:start + 8] = np.array([value], dtype="<f8").tobytes()
    blob.write_bytes(bytes(data))
    header = json.loads(lines[0])
    header["crc32"] = zlib.crc32(data)
    manifest.write_text("\n".join([json.dumps(header, sort_keys=True),
                                   *lines[1:]]) + "\n")


@pytest.fixture(autouse=True)
def no_scratch_left(tmp_path):
    """Fail a test that leaves a command's ``*.partial-*`` scratch directory
    anywhere under its ``tmp_path``: a finished command, failed or not,
    deletes it."""
    yield
    assert sorted(tmp_path.rglob("*.partial-*")) == []


@pytest.fixture()
def micro(tmp_path):
    """A small corpus synthesized by ``mmood synth`` from ``MICRO_INI``:
    ``{"cfg": INI path, "corpus": corpus directory, "tmp": tmp_path}``."""
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(MICRO_INI)
    corpus_dir = tmp_path / "corpus"
    assert main(["synth", "--config", str(cfg_path), "--out", str(corpus_dir),
                 "--seed", "0"]) == 0
    return {"cfg": cfg_path, "corpus": corpus_dir, "tmp": tmp_path}


@pytest.fixture(scope="session")
def tiny_run(tmp_path_factory):
    """The directory of a checkpoint of one-value modalities and one-wide
    layers, trained one epoch per stage: 69 tensor values, a 552-byte blob.
    Read-only; copy it to change it."""
    shapes = {m: ModalitySynth(seq_len=1, dim=1) for m in ("T", "V", "A")}
    corpus = synth_corpus(SynthConfig(num_classes=2, n_train=4, n_valid=2,
                                      n_test_id=0, n_test_ood=0,
                                      modalities=shapes), make_rng(0))
    hyper = ModelHyper(attn_heads=1, fusion_hidden=1, ffn_hidden=1,
                       contrast_dim=1)
    trained = train(corpus, TrainConfig(batch_size=8, stage1_epochs=1,
                                        stage2_epochs=1, model=hyper),
                    OodGenConfig(mix_count=2))
    return save_checkpoint(trained, tmp_path_factory.mktemp("tiny") / "run",
                           NO_TEST_KEY, np.empty((0, 1))).parent


@pytest.fixture(scope="session")
def separable_pipeline():
    """The canonical separable corpus (K=3, sigma=0.3, r=5) trained once.

    Shared by tests that need a realistic fitted model; training it takes a
    few seconds, so keep it session-scoped and treat it as read-only.
    """
    corpus = synth_corpus(SynthConfig(), component_rng(0, SLOT_SYNTH))
    cfg = TrainConfig(
        batch_size=32, stage1_epochs=5, stage2_epochs=25,
        learning_rate=2e-3, seed=0,
        model=ModelHyper(attn_heads=4, fusion_hidden=32),
    )
    trained = train(corpus, cfg, OodGenConfig())
    test = split(corpus, "test")
    feats = trained.model.features_for(test, np.arange(len(test)))
    logits = trained.model.logits_for(feats)
    flags = ~is_ood(test)
    return {
        "corpus": corpus,
        "trained": trained,
        "test_records": test,
        "test_features": feats,
        "test_logits": logits,
        "test_is_id": flags,
    }
