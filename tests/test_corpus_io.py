"""The corpus's chunked draw against the record-wise loop it replaced, the
pinned bytes of a synthesized corpus, and its manifest lines against
``json.dumps``."""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mmood.cli import main
from mmood.corpus import (
    MODALITIES,
    OOD_LABEL,
    OOD_SENTINEL,
    ModalitySynth,
    SynthConfig,
    load_corpus,
    save_corpus,
    synth_corpus,
)
from mmood.errors import ParameterError
from mmood.numerics import make_rng
from oracles import synth_loop_oracle

REPO = Path(__file__).resolve().parents[1]


def small_cfg(**kw):
    base = dict(
        num_classes=3, n_train=12, n_valid=6, n_test_id=6, n_test_ood=5,
        ood_clusters=2,
        modalities={
            "T": ModalitySynth(seq_len=3, dim=4),
            "V": ModalitySynth(seq_len=4, dim=6, sigma=0.7),
            "A": ModalitySynth(seq_len=2, dim=2, radius=1.0),
        },
    )
    base.update(kw)
    return SynthConfig(**base)


def _with(cfg, m, **kw):
    modalities = dict(cfg.modalities)
    modalities[m] = replace(modalities[m], **kw)
    return replace(cfg, modalities=modalities)


class TestChunkedDraw:
    @pytest.mark.parametrize("cfg", [
        small_cfg(),
        _with(small_cfg(), "V", sigma=0.0),
        _with(_with(small_cfg(), "V", class_sigma_spread=2.0),
              "A", class_sigma_spread=0.5),
        _with(_with(small_cfg(), "T", sigma=0.0, radius=0.0), "A", sigma=0.0),
        _with(_with(_with(small_cfg(), "T", sigma=0.0), "V", sigma=0.0),
              "A", sigma=0.0),
        small_cfg(n_train=0, n_valid=0),
        small_cfg(n_test_ood=0, ood_clusters=0),
        small_cfg(n_train=0, n_valid=0, n_test_id=0, n_test_ood=0),
        small_cfg(n_train=1023, n_valid=0, n_test_id=0, n_test_ood=0),
        small_cfg(n_train=1000, n_valid=0, n_test_id=0, n_test_ood=24),
        small_cfg(n_train=1000, n_valid=20, n_test_id=4, n_test_ood=1),
    ], ids=["default", "sigma0_V", "spread", "sigma0_radius0", "all_sigma0",
            "no_train_valid", "no_ood", "empty", "n1023", "n1024", "n1025"])
    def test_same_values_and_stream_as_record_loop(self, cfg):
        rng, ref_rng = make_rng(7), make_rng(7)
        corpus = synth_corpus(cfg, rng)
        expected = synth_loop_oracle(cfg, ref_rng)
        for m in MODALITIES:
            assert corpus.seqs[m].dtype == expected[m].dtype
            assert np.array_equal(corpus.seqs[m], expected[m])
        assert rng.random() == ref_rng.random()  # the same draws consumed

    def test_float32_overflow_error_text(self):
        cfg = _with(small_cfg(), "V", sigma=1e300, class_sigma_spread=1.0)
        with np.errstate(over="ignore"):
            drawn = synth_loop_oracle(cfg, make_rng(0))
        assert np.isfinite(drawn["T"]).all() and not np.isfinite(drawn["V"]).all()
        with pytest.raises(ParameterError) as info:
            synth_corpus(cfg, make_rng(0))
        assert str(info.value) == (
            "corpus: modality V draws overflow float32 storage (radius_v = "
            "5.0, sigma_v = 1e+300, class_sigma_spread_v = 1.0)")


# sha256 of each file ``mmood synth --config scripts/canonical.ini --seed 0``
# writes, from the record-by-record writer this module's code replaced
CANONICAL_SYNTH_SHA256 = {
    "manifest.jsonl":
        "8c1730aad34cbb23b25e02d8db3771fb9b01c37c2680ce04d3ba4d33ac0c902c",
    "seq_A.blob":
        "3e24007f82c53a28267cb475fb892f6ed0e1099214a2f23c012ca15f14dbd9d4",
    "seq_T.blob":
        "13d4574e9913d4d349a5dfa9eb609524fbeff11e5851332f1b2df566694a3daa",
    "seq_V.blob":
        "f3dd802122418ebbb026611f1b7d7969ab6eacfcd050e8bcc281ebc6e89a457e",
}


def test_canonical_synth_bytes_are_pinned(tmp_path):
    out = tmp_path / "corpus"
    assert main(["synth", "--config", str(REPO / "scripts" / "canonical.ini"),
                 "--out", str(out), "--seed", "0"]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.iterdir())}
    assert digests == CANONICAL_SYNTH_SHA256


def _entry(rec_id, split, label, row, sizes):
    return {"id": rec_id, "split": split,
            "label": OOD_SENTINEL if label == OOD_LABEL else label,
            "offsets": {m: row * sizes[m] for m in MODALITIES}}


class TestManifestWriter:
    IDS = ['a"b', "back\\slash", "new\nline", "sep\u2028arator", "café",
           "雨-\U0001f600", "tab\there", "plain"]

    def test_lines_are_json_dumps(self, tmp_path):
        base = synth_corpus(small_cfg(), make_rng(3))
        n = len(self.IDS)
        corpus = base.take(np.r_[0:n - 2, len(base) - 2:len(base)])
        corpus.ids = np.array(self.IDS, dtype=str)
        assert corpus.is_ood.sum() == 2
        manifest = save_corpus(corpus, tmp_path / "c")
        sizes = {m: int(np.prod(corpus.meta.shapes[m])) * 4 for m in MODALITIES}
        lines = manifest.read_bytes().decode("ascii").split("\n")
        assert lines[-1] == "" and len(lines) == n + 2
        for row, line in enumerate(lines[1:-1]):
            entry = _entry(self.IDS[row], str(corpus.splits[row]),
                           int(corpus.labels[row]), row, sizes)
            assert line == json.dumps(entry, sort_keys=True)
        loaded = load_corpus(manifest)
        assert loaded.ids.tolist() == self.IDS
