import json

import numpy as np
import pytest

from mmood.blobio import read_tensor_store, write_tensor_store
from mmood.corpus import (
    MODALITIES,
    OOD_LABEL,
    OOD_SENTINEL,
    Corpus,
    CorpusMeta,
    ModalitySynth,
    SynthConfig,
    load_corpus,
    make_batches,
    save_corpus,
    synth_corpus,
)
from mmood.errors import FormatError, ParameterError
from mmood.numerics import make_rng


def tiny_cfg(**kw):
    base = dict(
        num_classes=3, n_train=12, n_valid=6, n_test_id=6, n_test_ood=4,
        ood_clusters=2,
        modalities={
            "T": ModalitySynth(seq_len=3, dim=4),
            "V": ModalitySynth(seq_len=4, dim=6),
            "A": ModalitySynth(seq_len=2, dim=2),
        },
    )
    base.update(kw)
    return SynthConfig(**base)


class TestSynth:
    def test_counts_and_splits(self):
        corpus = synth_corpus(tiny_cfg(), make_rng(0))
        assert len(corpus.split("train")) == 12
        assert len(corpus.split("valid")) == 6
        assert len(corpus.split("test")) == 10
        assert corpus.split("test").is_ood.sum() == 4
        # OOD only in test
        for name in ("train", "valid"):
            assert not corpus.split(name).is_ood.any()

    def test_class_frequencies_deterministic(self):
        corpus = synth_corpus(tiny_cfg(), make_rng(1))
        labels = corpus.split("train").labels.tolist()
        assert sorted(labels) == sorted([0, 1, 2] * 4)

    def test_zero_sigma_collapses_to_means(self):
        cfg = tiny_cfg(modalities={
            "T": ModalitySynth(3, 4, sigma=0.0),
            "V": ModalitySynth(4, 6, sigma=0.0),
            "A": ModalitySynth(2, 2, sigma=0.0),
        })
        corpus = synth_corpus(cfg, make_rng(2))
        by_class = {}
        train = corpus.split("train")
        for i, label in enumerate(train.labels.tolist()):
            for m in MODALITIES:
                seq = train.seqs[m][i]
                assert np.allclose(seq, seq[0])  # every timestep identical
                key = (label, m)
                if key in by_class:
                    assert np.array_equal(by_class[key], seq[0])
                else:
                    by_class[key] = seq[0]

    def test_reproducible_across_runs(self):
        a = synth_corpus(tiny_cfg(), make_rng(7))
        b = synth_corpus(tiny_cfg(), make_rng(7))
        assert np.array_equal(a.ids, b.ids) and np.array_equal(a.labels, b.labels)
        for m in MODALITIES:
            assert np.array_equal(a.seqs[m], b.seqs[m])

    def test_split_of_interleaved_rows_keeps_file_order(self):
        corpus = synth_corpus(tiny_cfg(), make_rng(7))
        shuffled = corpus.take(make_rng(8).permutation(len(corpus)))
        train = shuffled.split("train")
        assert (train.splits == "train").all() and len(train) == 12
        rows = np.flatnonzero(shuffled.splits == "train")
        assert np.array_equal(train.ids, shuffled.ids[rows])
        for m in MODALITIES:
            assert np.array_equal(train.seqs[m], shuffled.seqs[m][rows])

    def test_invalid_k(self):
        with pytest.raises(ParameterError):
            synth_corpus(tiny_cfg(num_classes=1), make_rng(0))


class TestRoundTrip:
    def test_bit_exact(self, tmp_path):
        corpus = synth_corpus(tiny_cfg(), make_rng(3))
        manifest = save_corpus(corpus, tmp_path / "c")
        loaded = load_corpus(manifest)
        assert loaded.meta.num_classes == corpus.meta.num_classes
        assert loaded.meta.shapes == corpus.meta.shapes
        assert len(loaded) == len(corpus)
        for column in ("ids", "splits", "labels"):
            assert np.array_equal(getattr(corpus, column), getattr(loaded, column))
        for m in MODALITIES:
            assert np.array_equal(corpus.seqs[m], loaded.seqs[m])

    def test_save_is_deterministic(self, tmp_path):
        corpus = synth_corpus(tiny_cfg(), make_rng(4))
        save_corpus(corpus, tmp_path / "a")
        save_corpus(corpus, tmp_path / "b")
        for name in ["manifest.jsonl"] + [f"seq_{m}.blob" for m in MODALITIES]:
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_empty_train_corpus_valid(self, tmp_path):
        cfg = tiny_cfg(n_train=0, n_valid=0, n_test_id=6, n_test_ood=2)
        corpus = synth_corpus(cfg, make_rng(5))
        loaded = load_corpus(save_corpus(corpus, tmp_path / "t"))
        assert len(loaded.split("train")) == 0
        assert len(loaded.split("test")) == 8

    def test_mixed_lengths_rejected(self, tmp_path):
        corpus = synth_corpus(tiny_cfg(), make_rng(6))
        corpus.seqs["T"] = corpus.seqs["T"][:, :-1]
        with pytest.raises(FormatError, match=str(corpus.ids[0])):
            save_corpus(corpus, tmp_path / "bad")

    def test_non_finite_rejected_on_save(self, tmp_path):
        corpus = synth_corpus(tiny_cfg(), make_rng(6))
        corpus.seqs["V"][2, 1, 0] = np.inf
        with pytest.raises(FormatError, match=f"{corpus.ids[2]}.*modality V"):
            save_corpus(corpus, tmp_path / "bad")


class TestLoadErrors:
    def _saved(self, tmp_path):
        corpus = synth_corpus(tiny_cfg(), make_rng(8))
        return save_corpus(corpus, tmp_path / "c"), corpus

    def test_missing_blob(self, tmp_path):
        manifest, _ = self._saved(tmp_path)
        (manifest.parent / "seq_V.blob").unlink()
        with pytest.raises(FormatError, match="seq_V"):
            load_corpus(manifest)

    def test_declared_dim_wider_than_blob(self, tmp_path):
        manifest, _ = self._saved(tmp_path)
        lines = manifest.read_text().splitlines()
        header = json.loads(lines[0])
        header["modalities"]["T"]["dim"] += 1
        lines[0] = json.dumps(header, sort_keys=True)
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError):
            load_corpus(manifest)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("row", [0, 3])
    def test_non_finite_value_rejected(self, tmp_path, value, row):
        manifest, corpus = self._saved(tmp_path)
        blob = manifest.parent / "seq_T.blob"
        data = bytearray(blob.read_bytes())
        start = json.loads(manifest.read_text().splitlines()[row + 1])["offsets"]["T"]
        data[start:start + 4] = np.array([value], dtype="<f4").tobytes()
        blob.write_bytes(bytes(data))
        with pytest.raises(FormatError,
                           match=f"record '{corpus.ids[row]}' modality T.*non-finite"):
            load_corpus(manifest)

    def test_trailing_blob_bytes_rejected(self, tmp_path):
        manifest, corpus = self._saved(tmp_path)
        blob = manifest.parent / "seq_A.blob"
        blob.write_bytes(blob.read_bytes() + b"\0" * 8)
        n = len(corpus)
        with pytest.raises(FormatError,
                           match=f"line {n + 1}: last record '{corpus.ids[-1]}'.*seq_A"):
            load_corpus(manifest)

    def test_swapped_offsets_rejected(self, tmp_path):
        manifest, _ = self._saved(tmp_path)
        lines = manifest.read_text().splitlines()
        first, second = json.loads(lines[1]), json.loads(lines[2])
        first["offsets"], second["offsets"] = second["offsets"], first["offsets"]
        lines[1] = json.dumps(first, sort_keys=True)
        lines[2] = json.dumps(second, sort_keys=True)
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="line 2: record 'train-00000'.*offset"):
            load_corpus(manifest)

    def test_ood_in_train_rejected(self, tmp_path):
        manifest, _ = self._saved(tmp_path)
        lines = manifest.read_text().splitlines()
        entry = json.loads(lines[1])
        assert entry["split"] == "train"
        entry["label"] = OOD_SENTINEL
        lines[1] = json.dumps(entry, sort_keys=True)
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=entry["id"]):
            load_corpus(manifest)

    def test_unknown_split_rejected(self, tmp_path):
        manifest, _ = self._saved(tmp_path)
        lines = manifest.read_text().splitlines()
        entry = json.loads(lines[1])
        entry["split"] = "dev"
        lines[1] = json.dumps(entry, sort_keys=True)
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="dev"):
            load_corpus(manifest)


def _rewrite_line(manifest, index, edit):
    """Replace manifest line ``index`` (0-based) with ``edit(line)``."""
    lines = manifest.read_text().splitlines()
    lines[index] = edit(lines[index])
    manifest.write_text("\n".join(lines) + "\n")


def _edit_json(edit):
    def apply(line):
        entry = json.loads(line)
        edit(entry)
        return json.dumps(entry, sort_keys=True)
    return apply


class TestMalformedManifest:
    def _saved(self, tmp_path):
        corpus = synth_corpus(tiny_cfg(), make_rng(8))
        return save_corpus(corpus, tmp_path / "c")

    def test_truncated_record_line(self, tmp_path):
        manifest = self._saved(tmp_path)
        _rewrite_line(manifest, 2, lambda line: line[: len(line) // 2])
        with pytest.raises(FormatError, match="line 3"):
            load_corpus(manifest)

    @pytest.mark.parametrize("key", ["label", "offsets", "split"])
    def test_record_missing_key_names_line_and_id(self, tmp_path, key):
        manifest = self._saved(tmp_path)
        _rewrite_line(manifest, 2, _edit_json(lambda e: e.pop(key)))
        with pytest.raises(FormatError, match=r"line 3.*train-00001.*" + key):
            load_corpus(manifest)

    def test_record_missing_modality_offset(self, tmp_path):
        manifest = self._saved(tmp_path)
        _rewrite_line(manifest, 1, _edit_json(lambda e: e["offsets"].pop("A")))
        with pytest.raises(FormatError, match="line 2.*train-00000"):
            load_corpus(manifest)

    @pytest.mark.parametrize("key, value", [("id", 5), ("split", ["train"])])
    def test_non_string_id_or_split(self, tmp_path, key, value):
        manifest = self._saved(tmp_path)
        _rewrite_line(manifest, 1, _edit_json(lambda e: e.update({key: value})))
        with pytest.raises(FormatError, match="line 2: malformed record"):
            load_corpus(manifest)

    @pytest.mark.parametrize("label", [10**20, 3, -1, 1.7, True, "1"])
    def test_bad_label_names_line_and_id(self, tmp_path, label):
        manifest = self._saved(tmp_path)
        _rewrite_line(manifest, 1, _edit_json(lambda e: e.update(label=label)))
        with pytest.raises(FormatError,
                           match=r"line 2: malformed record 'train-00000'.*label"):
            load_corpus(manifest)

    def test_record_line_not_an_object(self, tmp_path):
        manifest = self._saved(tmp_path)
        _rewrite_line(manifest, 1, lambda line: "[1, 2]")
        with pytest.raises(FormatError, match="line 2"):
            load_corpus(manifest)

    def test_duplicate_record_id(self, tmp_path):
        manifest = self._saved(tmp_path)
        _rewrite_line(manifest, 2, _edit_json(
            lambda e: e.update(id="train-00000")))
        with pytest.raises(FormatError,
                           match="line 3.*duplicate record id 'train-00000'"):
            load_corpus(manifest)

    def test_header_not_an_object(self, tmp_path):
        manifest = self._saved(tmp_path)
        _rewrite_line(manifest, 0, lambda line: "[]")
        with pytest.raises(FormatError, match="not a corpus manifest"):
            load_corpus(manifest)

    @pytest.mark.parametrize("edit", [
        lambda h: h.pop("modalities"),
        lambda h: h.pop("num_classes"),
        lambda h: h["modalities"]["V"].pop("seq_len"),
        lambda h: h["modalities"]["T"].pop("dim"),
        lambda h: h["modalities"]["A"].pop("blob"),
        lambda h: h["modalities"]["T"].update(dim="wide"),
    ])
    def test_malformed_header(self, tmp_path, edit):
        manifest = self._saved(tmp_path)
        _rewrite_line(manifest, 0, _edit_json(edit))
        with pytest.raises(FormatError, match="line 1: malformed header"):
            load_corpus(manifest)


class TestMalformedTensorStore:
    def _saved(self, tmp_path):
        tensors = {"a": np.arange(6.0).reshape(2, 3), "b": np.ones(4)}
        return write_tensor_store(tmp_path, "store", tensors, {"k": 1})

    def test_header_not_an_object(self, tmp_path):
        manifest = self._saved(tmp_path)
        _rewrite_line(manifest, 0, lambda line: "[]")
        with pytest.raises(FormatError, match="not a tensor store"):
            read_tensor_store(manifest)

    def test_truncated_entry_line(self, tmp_path):
        manifest = self._saved(tmp_path)
        _rewrite_line(manifest, 2, lambda line: line[:-5])
        with pytest.raises(FormatError, match="line 3"):
            read_tensor_store(manifest)

    @pytest.mark.parametrize("key", ["name", "offset", "shape", "dtype"])
    def test_entry_missing_key(self, tmp_path, key):
        manifest = self._saved(tmp_path)
        _rewrite_line(manifest, 1, _edit_json(lambda e: e.pop(key)))
        with pytest.raises(FormatError, match="line 2.*" + key):
            read_tensor_store(manifest)

    def test_duplicate_tensor_name(self, tmp_path):
        manifest = self._saved(tmp_path)
        _rewrite_line(manifest, 2, _edit_json(lambda e: e.update(name="a")))
        with pytest.raises(FormatError, match="line 3.*duplicate tensor 'a'"):
            read_tensor_store(manifest)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name, index", [("a", 0), ("b", 6)])
    def test_non_finite_value_rejected(self, tmp_path, value, name, index):
        manifest = self._saved(tmp_path)
        blob = manifest.with_suffix(".blob")
        data = np.frombuffer(blob.read_bytes(), dtype="<f8").copy()
        data[index] = value
        blob.write_bytes(data.tobytes())
        with pytest.raises(FormatError,
                           match=f"store.json line .: tensor '{name}'.*non-finite"):
            read_tensor_store(manifest)

    def test_trailing_blob_bytes_rejected(self, tmp_path):
        manifest = self._saved(tmp_path)
        blob = manifest.with_suffix(".blob")
        blob.write_bytes(blob.read_bytes() + b"\0" * 8)
        with pytest.raises(FormatError, match="store.json line 3: last tensor "
                           "'b'.*store.blob holds 88 bytes.*take 80"):
            read_tensor_store(manifest)

    def test_nan_store_with_junk_tail_rejected(self, tmp_path):
        manifest = write_tensor_store(tmp_path, "store",
                                      {"w": np.array([np.nan, 1.0, 1.0])}, {})
        blob = manifest.with_suffix(".blob")
        blob.write_bytes(blob.read_bytes() + b"\xff" * 8)
        with pytest.raises(FormatError, match="tensor 'w'.*non-finite"):
            read_tensor_store(manifest)

    @pytest.mark.parametrize("offset", [0, 8, 40, 56])
    def test_overlapping_or_gapped_offsets_rejected(self, tmp_path, offset):
        # 'b' starts right after the 48 bytes of 'a'; any other offset
        # overlaps 'a' or leaves a gap
        manifest = self._saved(tmp_path)
        _rewrite_line(manifest, 2, _edit_json(lambda e: e.update(offset=offset)))
        with pytest.raises(FormatError, match="line 3: tensor 'b' has offset "
                           f"{offset}; in manifest order it starts at 48"):
            read_tensor_store(manifest)

    def test_negative_shape_rejected(self, tmp_path):
        manifest = self._saved(tmp_path)
        _rewrite_line(manifest, 2, _edit_json(lambda e: e.update(shape=[-1])))
        with pytest.raises(FormatError, match="line 3.*non-negative"):
            read_tensor_store(manifest)


class TestBatches:
    def _train(self, n):
        corpus = synth_corpus(tiny_cfg(n_train=n, n_valid=0, n_test_id=2,
                                       n_test_ood=0), make_rng(9))
        return corpus.split("train")

    def test_chunking_drops_tail(self):
        chunks = make_batches(self._train(10), 4, make_rng(0))
        assert len(chunks) == 5  # 10 records in half-batches of 2
        assert all(len(c) == 2 for c in chunks)

    def test_epoch_is_permutation(self):
        records = self._train(12)
        chunks = make_batches(records, 6, make_rng(1))
        seen = records.ids[np.concatenate(chunks)].tolist()
        assert len(seen) == len(set(seen))
        assert len(records) - len(seen) <= 3  # dropped tail < half batch

    def test_same_seed_same_order(self):
        records = self._train(9)
        a = make_batches(records, 4, make_rng(2))
        b = make_batches(records, 4, make_rng(2))
        assert [records.ids[c].tolist() for c in a] == \
            [records.ids[c].tolist() for c in b]

    def test_odd_batch_rejected(self):
        with pytest.raises(ParameterError):
            make_batches(self._train(10), 5, make_rng(0))

    def test_batch_too_large(self):
        with pytest.raises(ParameterError):
            make_batches(self._train(3), 8, make_rng(0))


class TestMetaValidation:
    def test_num_classes_floor(self):
        with pytest.raises(ParameterError):
            CorpusMeta(num_classes=1,
                       shapes={m: (2, 2) for m in MODALITIES})

    def test_record_label_range(self, tmp_path):
        meta = CorpusMeta(num_classes=2, shapes={m: (2, 2) for m in MODALITIES})
        corpus = Corpus(
            meta=meta, ids=np.array(["r0"]), splits=np.array(["train"]),
            labels=np.array([5]),
            seqs={m: np.zeros((1, 2, 2)) for m in MODALITIES},
        )
        with pytest.raises(FormatError, match="r0"):
            save_corpus(corpus, tmp_path / "x")

    def test_ood_label_constant(self):
        assert OOD_LABEL == -1


class TestContainerRules:
    def test_record_missing_id_rejected(self, tmp_path):
        manifest = save_corpus(synth_corpus(tiny_cfg(), make_rng(8)),
                               tmp_path / "c")
        _rewrite_line(manifest, 1, _edit_json(lambda e: e.pop("id")))
        with pytest.raises(FormatError, match="line 2: malformed record "
                           "'<unnamed>' \\(KeyError: 'id'\\)"):
            load_corpus(manifest)

    def test_blob_name_must_be_a_string(self, tmp_path):
        manifest = save_corpus(synth_corpus(tiny_cfg(), make_rng(8)),
                               tmp_path / "c")
        _rewrite_line(manifest, 0, _edit_json(
            lambda h: h["modalities"]["V"].update(blob=5)))
        with pytest.raises(FormatError, match="line 1: malformed header"):
            load_corpus(manifest)

    def test_short_corpus_blob_names_last_record(self, tmp_path):
        corpus = synth_corpus(tiny_cfg(), make_rng(8))
        manifest = save_corpus(corpus, tmp_path / "c")
        blob = manifest.parent / "seq_V.blob"
        blob.write_bytes(blob.read_bytes()[:-4])
        n, size = len(corpus), len(corpus) * 4 * 6 * 4
        with pytest.raises(FormatError, match=f"line {n + 1}: last record "
                           f"'{corpus.ids[-1]}' modality V: blob seq_V.blob "
                           f"holds {size - 4} bytes, but its records take {size}"):
            load_corpus(manifest)

    def test_short_store_blob_names_last_tensor(self, tmp_path):
        manifest = write_tensor_store(tmp_path, "store", {"a": np.ones(3)}, {})
        blob = manifest.with_suffix(".blob")
        blob.write_bytes(blob.read_bytes()[:-8])
        with pytest.raises(FormatError, match="store.json line 2: last tensor "
                           "'a': blob store.blob holds 16 bytes, but its "
                           "tensors take 24"):
            read_tensor_store(manifest)

    def test_store_mixing_dtypes_loads(self, tmp_path):
        # the writer uses one dtype, but each entry declares its own
        a, b = np.array([1.5, -2.0, 3.25]), np.arange(4.0).reshape(2, 2)
        (tmp_path / "mixed.blob").write_bytes(
            a.astype("<f4").tobytes() + b.astype("<f8").tobytes())
        lines = [
            {"format": "tensor-store", "version": 1, "meta": {"k": 2}},
            {"name": "a", "shape": [3], "dtype": "<f4", "offset": 0},
            {"name": "b", "shape": [2, 2], "dtype": "<f8", "offset": 12},
        ]
        (tmp_path / "mixed.json").write_text(
            "".join(json.dumps(line) + "\n" for line in lines))
        meta, tensors = read_tensor_store(tmp_path / "mixed.json")
        assert meta == {"k": 2}
        assert tensors["a"].dtype == np.float64
        assert np.array_equal(tensors["a"], a)
        assert np.array_equal(tensors["b"], b)
