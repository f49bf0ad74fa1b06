"""The corpus's chunked draw against the record-wise loop it replaced, the
pinned bytes of a synthesized corpus, and its version-2 manifest lines
against ``json.dumps``."""

import hashlib
import json
import zlib
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
from conftest import is_ood, take
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
# writes. The blobs are those of the record-by-record writer this module's
# code replaced; the manifest is format version 2 (header plus columns)
CANONICAL_SYNTH_SHA256 = {
    "manifest.jsonl":
        "b8555db554d4b9bc8dd1f34f6f0ba9e6d0effdd5b86307d09a5b28ddc92e2423",
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


# sha256 of the checkpoint ``mmood train --seed 0`` writes on that corpus:
# the blob holds the trained parameters and the train-feature cache
# (features and labels), the manifest (tensor-store version 3) the header
# and the names and shapes
CANONICAL_CHECKPOINT_SHA256 = {
    "checkpoint.blob":
        "60b49e41ac68ffc46fc63aa979045d753eb67fca12288ce303601c2a2b9958cb",
    "checkpoint.json":
        "87aa2855d26c1714535c5c033f9b9a54ce3050c9ab52c792e4d366e249d258e2",
}

# sha256 of the score files and metrics table ``mmood eval`` writes with that
# checkpoint on that corpus
CANONICAL_EVAL_SHA256 = {
    "metrics.csv":
        "cca47315b2ed106c1481d424cd9361f4c81d3fc331c259fe85d3c5113dec9445",
    "scores_energy.jsonl":
        "bfb4d5f6489b029b957f34ca267db0af0eb15ca65b0af66043ef61139ac11d69",
    "scores_mahalanobis.jsonl":
        "023f409008050958c19b3c81f43080c3a4713026a87a2a1c672c2127e51586af",
    "scores_maxlogit.jsonl":
        "3e74e4d0f7586d23434b5dffcf50512138e98baa10a31e2d0869c7511ddf6304",
    "scores_msp.jsonl":
        "0e9af5aca1ebf1f71f48caa1f3f2c1207120113c7a5c494d5c50555d3c99fda5",
    "scores_residual.jsonl":
        "9ef2a34d38cb3f301280104fbd8e4d928a4bf8249edbd7bc2f7d3084f6f67989",
    "scores_vim.jsonl":
        "3347cec92ad3cb765c826fc78841b413127e0ff1edf2f1de857db76c332336fb",
}


@pytest.fixture(scope="module")
def canonical_run(tmp_path_factory):
    """``(corpus, checkpoint)`` directories of the canonical seed-0 run,
    synthesized and trained once for this module; read-only."""
    cfg, root = str(REPO / "scripts" / "canonical.ini"), \
        tmp_path_factory.mktemp("canonical")
    corpus, run = root / "corpus", root / "run"
    assert main(["synth", "--config", cfg, "--out", str(corpus),
                 "--seed", "0"]) == 0
    assert main(["train", "--config", cfg, "--corpus", str(corpus), "--out",
                 str(run), "--seed", "0"]) == 0
    return corpus, run


def _digests(directory, names) -> dict:
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
            for name in names}


def test_canonical_checkpoint_blob_is_pinned(canonical_run):
    assert _digests(canonical_run[1], CANONICAL_CHECKPOINT_SHA256) == \
        CANONICAL_CHECKPOINT_SHA256


def test_canonical_eval_outputs_are_pinned(canonical_run, tmp_path):
    corpus, run = canonical_run
    out = tmp_path / "eval"
    assert main(["eval", "--config", str(REPO / "scripts" / "canonical.ini"),
                 "--checkpoint", str(run), "--corpus", str(corpus),
                 "--out", str(out)]) == 0
    assert _digests(out, CANONICAL_EVAL_SHA256) == CANONICAL_EVAL_SHA256


# sha256 of the tables ``mmood report`` writes from that eval directory
CANONICAL_REPORT_SHA256 = {
    "id_metrics.csv":
        "65cd5d20372c8af1f2f377d7eb78b5b99e671801847e4520c4f498b3e9766690",
    "per_class_acc.csv":
        "c8c2bde3f772318f5acb6af0bd85d77c22f519bad18a305ac94e2ea0cd002f3d",
    "scores_long.csv":
        "2a175b1301876099491da10a5cbc83faadf4ec338048b5b8814a8bf01e78f867",
}


def test_canonical_report_outputs_are_pinned(canonical_run, tmp_path):
    corpus, run = canonical_run
    evaled, out = tmp_path / "eval", tmp_path / "report"
    assert main(["eval", "--config", str(REPO / "scripts" / "canonical.ini"),
                 "--checkpoint", str(run), "--corpus", str(corpus),
                 "--out", str(evaled)]) == 0
    assert main(["report", str(evaled), "--out", str(out)]) == 0
    assert _digests(out, CANONICAL_REPORT_SHA256) == CANONICAL_REPORT_SHA256


class TestManifestWriter:
    IDS = ['a"b', "back\\slash", "new\nline", "sep\u2028arator", "café",
           "雨-\U0001f600", "tab\there", "plain"]

    def test_lines_are_json_dumps(self, tmp_path):
        base = synth_corpus(small_cfg(), make_rng(3))
        n = len(self.IDS)
        corpus = take(base, np.r_[0:n - 2, len(base) - 2:len(base)])
        corpus.ids = np.array(self.IDS, dtype=str)
        assert is_ood(corpus).sum() == 2
        manifest = save_corpus(corpus, tmp_path / "c")
        header = {"format": "corpus", "version": 2, "num_classes": 3,
                  "modalities": {m: {
                      "seq_len": length, "dim": dim, "blob": f"seq_{m}.blob",
                      "records": n, "bytes": n * length * dim * 4,
                      "crc32": zlib.crc32(corpus.seqs[m].tobytes())}
                      for m, (length, dim) in corpus.meta.shapes.items()}}
        labels = [OOD_SENTINEL if label == OOD_LABEL else label
                  for label in corpus.labels.tolist()]
        columns = [{"column": "id", "values": self.IDS},
                   {"column": "label", "values": labels},
                   {"column": "split", "values": corpus.splits.tolist()}]
        lines = manifest.read_bytes().decode("ascii").split("\n")
        assert lines == [json.dumps(obj, sort_keys=True)
                         for obj in [header, *columns]] + [""]
        loaded = load_corpus(manifest)
        assert loaded.ids.tolist() == self.IDS
