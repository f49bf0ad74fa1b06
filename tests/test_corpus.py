import json
import re
import shutil
import tracemalloc
import zlib

import numpy as np
import pytest

from mmood.checkpoint import load_checkpoint
from mmood.corpus import (
    COLUMNS,
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
from mmood.config import load_config
from mmood.errors import FormatError, ParameterError
from mmood.numerics import make_rng
from mmood.oodgen import OodGenConfig
from mmood.train import TrainConfig, train
from conftest import is_ood, set_tensor_value, split, take


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
        assert len(split(corpus, "train")) == 12
        assert len(split(corpus, "valid")) == 6
        assert len(split(corpus, "test")) == 10
        assert is_ood(split(corpus, "test")).sum() == 4
        # OOD only in test
        for name in ("train", "valid"):
            assert not is_ood(split(corpus, name)).any()

    def test_class_frequencies_deterministic(self):
        corpus = synth_corpus(tiny_cfg(), make_rng(1))
        labels = split(corpus, "train").labels.tolist()
        assert sorted(labels) == sorted([0, 1, 2] * 4)

    def test_zero_sigma_collapses_to_means(self):
        cfg = tiny_cfg(modalities={
            "T": ModalitySynth(3, 4, sigma=0.0),
            "V": ModalitySynth(4, 6, sigma=0.0),
            "A": ModalitySynth(2, 2, sigma=0.0),
        })
        corpus = synth_corpus(cfg, make_rng(2))
        by_class = {}
        train = split(corpus, "train")
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
        shuffled = take(corpus, make_rng(8).permutation(len(corpus)))
        train = split(shuffled, "train")
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
        assert len(split(loaded, "train")) == 0
        assert len(split(loaded, "test")) == 8

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

    def test_duplicate_ids_rejected_on_save(self, tmp_path):
        corpus = synth_corpus(tiny_cfg(), make_rng(6))
        corpus.ids[[4, 9]] = corpus.ids[2]
        with pytest.raises(FormatError, match="^corpus: duplicate record id "
                           f"'{corpus.ids[2]}'$"):
            save_corpus(corpus, tmp_path / "bad")
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("row", [0, 2, -1])
    def test_lone_surrogate_id_rejected_on_save(self, tmp_path, row):
        corpus = synth_corpus(tiny_cfg(), make_rng(6))
        ids = corpus.ids.tolist()
        ids[1], ids[row] = "", "x\udc80"  # an empty id shifts no position
        corpus.ids = np.array(ids, dtype=str)
        with pytest.raises(FormatError, match=re.escape(
                "corpus: record 'x\\udc80' has an id that is not valid UTF-8")):
            save_corpus(corpus, tmp_path / "bad")
        assert not (tmp_path / "bad").exists()


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
        # the header's crc32 follows the new bytes, so finiteness is checked
        manifest, corpus = self._saved(tmp_path)
        blob = manifest.parent / "seq_T.blob"
        data = bytearray(blob.read_bytes())
        start = row * corpus.seqs["T"][0].nbytes
        data[start:start + 4] = np.array([value], dtype="<f4").tobytes()
        blob.write_bytes(bytes(data))
        _refresh_crc32(manifest, "T")
        with pytest.raises(FormatError, match=re.escape(
                f"line 1: record '{corpus.ids[row]}' modality T holds a "
                "non-finite value")):
            load_corpus(manifest)

    def test_trailing_blob_bytes_rejected(self, tmp_path):
        manifest, corpus = self._saved(tmp_path)
        blob = manifest.parent / "seq_A.blob"
        blob.write_bytes(blob.read_bytes() + b"\0" * 8)
        with pytest.raises(FormatError,
                           match=f"line 1: last record '{corpus.ids[-1]}'.*seq_A"):
            load_corpus(manifest)

    def test_swapped_offsets_rejected(self, tmp_path):
        # two records whose chunks sit at each other's offsets: record i's
        # offset is implied by its row, so the swap is in the blob's bytes,
        # which its crc32 catches
        manifest, corpus = self._saved(tmp_path)
        size = corpus.seqs["T"][0].nbytes
        blob = manifest.parent / "seq_T.blob"
        data = blob.read_bytes()
        blob.write_bytes(data[size:2 * size] + data[:size] + data[2 * size:])
        with pytest.raises(FormatError, match=re.escape(
                f"corpus: {manifest}: blob seq_T.blob has crc32 ")):
            load_corpus(manifest)

    @pytest.mark.parametrize("size", [10**30, -10**30, -4])
    def test_declared_bytes_beyond_int64_or_negative_rejected(self, tmp_path,
                                                              size):
        manifest, _ = self._saved(tmp_path)
        _rewrite_line(manifest, 0, _edit_json(
            lambda h: h["modalities"]["V"].update(bytes=size)))
        with pytest.raises(FormatError, match=re.escape(
                "line 1: malformed header (ValueError: modality V declares "
                f"blob 'seq_V.blob' of 28 records, {size} bytes and crc32 ")):
            load_corpus(manifest)

    def test_start_beyond_int64_named_exactly(self, tmp_path):
        # a declared record of 6 * 10**18 float32 values takes 2.4e19
        # bytes, past int64; the message still gives the exact size
        manifest, corpus = self._saved(tmp_path)
        _rewrite_line(manifest, 0, _edit_json(lambda h: h["modalities"]["T"]
                                              .update(seq_len=6, dim=10**18)))
        with pytest.raises(FormatError, match=re.escape(
                f"{corpus.seqs['T'].nbytes} bytes and crc32 ") + ".*" +
                re.escape(f"{len(corpus)} records of {6 * 10**18 * 4} bytes")):
            load_corpus(manifest)

    def test_lone_surrogate_id_rejected(self, tmp_path):
        manifest, _ = self._saved(tmp_path)
        _edit_column(manifest, "id", 2, "a\ud800")
        assert '"a\\ud800"' in manifest.read_text()
        with pytest.raises(FormatError, match=re.escape(
                "record 'a\\ud800' has an id that is not valid UTF-8")):
            load_corpus(manifest)

    def test_ood_in_train_rejected(self, tmp_path):
        manifest, corpus = self._saved(tmp_path)
        assert corpus.splits[0] == "train"
        _edit_column(manifest, "label", 0, OOD_SENTINEL)
        with pytest.raises(FormatError, match=f"record '{corpus.ids[0]}' has "
                           "split 'train' and label '__OOD__'"):
            load_corpus(manifest)

    def test_unknown_split_rejected(self, tmp_path):
        manifest, corpus = self._saved(tmp_path)
        _edit_column(manifest, "split", 0, "dev")
        with pytest.raises(FormatError,
                           match=f"record '{corpus.ids[0]}' has split 'dev'"):
            load_corpus(manifest)

    def test_version_1_corpus_names_the_version(self, tmp_path):
        manifest, _ = self._saved(tmp_path)
        _rewrite_line(manifest, 0, _edit_json(lambda h: h.update(version=1)))
        with pytest.raises(FormatError) as info:
            load_corpus(manifest)
        assert str(info.value) == (
            f"corpus: {manifest} is a version 1 corpus; this mmood reads "
            "version 2 only, so rerun `mmood synth` to write it again")


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


def _edit_column(manifest, name, row, value):
    """Set value ``row`` of column ``name`` of a version-2 manifest."""
    def edit(column):
        column["values"][row] = value

    _rewrite_line(manifest, 1 + COLUMNS.index(name), _edit_json(edit))


def _refresh_crc32(manifest, m):
    """Record the crc32 of modality ``m``'s blob as it now is."""
    crc = zlib.crc32((manifest.parent / f"seq_{m}.blob").read_bytes())
    _rewrite_line(manifest, 0, _edit_json(
        lambda h: h["modalities"][m].update(crc32=crc)))


class TestMalformedManifest:
    def _saved(self, tmp_path):
        corpus = synth_corpus(tiny_cfg(), make_rng(8))
        return save_corpus(corpus, tmp_path / "c")

    def test_truncated_record_line(self, tmp_path):
        manifest = self._saved(tmp_path)
        _rewrite_line(manifest, 2, lambda line: line[: len(line) // 2])
        with pytest.raises(FormatError, match="line 3"):
            load_corpus(manifest)

    @pytest.mark.parametrize("key", ["id", "label", "split"])
    def test_record_missing_key_names_line_and_id(self, tmp_path, key):
        # an entry's id is its column name
        manifest = self._saved(tmp_path)
        line = 1 + COLUMNS.index(key)
        _rewrite_line(manifest, line, _edit_json(lambda e: e.pop("values")))
        with pytest.raises(FormatError, match=f"line {line + 1}: malformed "
                           f"column '{key}' \\(KeyError: 'values'\\)"):
            load_corpus(manifest)

    @pytest.mark.parametrize("key, value", [("id", 5), ("split", ["train"])])
    def test_non_string_id_or_split(self, tmp_path, key, value):
        manifest = self._saved(tmp_path)
        _edit_column(manifest, key, 0, value)
        record = "record 0" if key == "id" else "record 'train-00000'"
        with pytest.raises(FormatError, match=re.escape(
                f"line {2 + COLUMNS.index(key)}: {record} has {key} "
                f"{value!r}, not a string")):
            load_corpus(manifest)

    @pytest.mark.parametrize("label", [10**20, 3, -1, 1.7, True, "1"])
    def test_bad_label_names_line_and_id(self, tmp_path, label):
        manifest = self._saved(tmp_path)
        _edit_column(manifest, "label", 0, label)
        with pytest.raises(FormatError, match=re.escape(
                f"line 3: record 'train-00000' has label {label!r}, not 0..2 "
                "or __OOD__")):
            load_corpus(manifest)

    @pytest.mark.parametrize("name", COLUMNS)
    def test_column_of_another_length_names_its_line(self, tmp_path, name):
        manifest = self._saved(tmp_path)
        line = 1 + COLUMNS.index(name)
        _rewrite_line(manifest, line, _edit_json(lambda e: e["values"].pop()))
        with pytest.raises(FormatError, match=re.escape(
                f"line {line + 1}: malformed column '{name}' (ValueError: "
                f"expected a column of {COLUMNS} with 28 values)")):
            load_corpus(manifest)

    @pytest.mark.parametrize("name", COLUMNS)
    def test_missing_column_is_named(self, tmp_path, name):
        manifest = self._saved(tmp_path)
        _rewrite_line(manifest, 1 + COLUMNS.index(name), lambda line: "")
        with pytest.raises(FormatError, match=re.escape(
                f"corpus: {manifest} lacks a column; it needs {COLUMNS}")):
            load_corpus(manifest)

    def test_unknown_or_repeated_column(self, tmp_path):
        manifest = self._saved(tmp_path)
        _rewrite_line(manifest, 3, _edit_json(lambda e: e.update(column="ids")))
        with pytest.raises(FormatError, match="line 4: malformed column 'ids'"):
            load_corpus(manifest)
        _rewrite_line(manifest, 3, _edit_json(lambda e: e.update(column="id")))
        with pytest.raises(FormatError, match="line 4: duplicate column 'id'"):
            load_corpus(manifest)

    def test_columns_in_any_order_load(self, tmp_path):
        manifest = self._saved(tmp_path)
        header, *columns = manifest.read_text().splitlines(keepends=True)
        manifest.write_text(header + "".join(reversed(columns)))
        assert load_corpus(manifest).ids.tolist() == \
            synth_corpus(tiny_cfg(), make_rng(8)).ids.tolist()

    def test_record_line_not_an_object(self, tmp_path):
        manifest = self._saved(tmp_path)
        _rewrite_line(manifest, 1, lambda line: "[1, 2]")
        with pytest.raises(FormatError, match="line 2"):
            load_corpus(manifest)

    def test_duplicate_record_id(self, tmp_path):
        manifest = self._saved(tmp_path)
        _edit_column(manifest, "id", 3, "train-00001")
        _edit_column(manifest, "id", 5, "train-00000")
        with pytest.raises(FormatError, match="^corpus: duplicate record id "
                           "'train-00001'$"):
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
        lambda h: h["modalities"]["T"].pop("records"),
        lambda h: h["modalities"]["V"].pop("bytes"),
        lambda h: h["modalities"]["A"].pop("crc32"),
        lambda h: h["modalities"]["A"].update(crc32=1 << 32),
        lambda h: h["modalities"]["A"].update(records=27, bytes=27 * 16),
    ])
    def test_malformed_header(self, tmp_path, edit):
        manifest = self._saved(tmp_path)
        _rewrite_line(manifest, 0, _edit_json(edit))
        with pytest.raises(FormatError, match="line 1: malformed header"):
            load_corpus(manifest)


class TestMalformedTensorStore:
    """A checkpoint's tensor store (version 4), read by ``load_checkpoint``:
    the blob holds the tensors in sorted-name order, so each entry is a
    name and a shape."""

    @pytest.fixture()
    def manifest(self, tmp_path, tiny_run):
        return shutil.copytree(tiny_run, tmp_path / "run") / "checkpoint.json"

    def test_header_not_an_object(self, manifest):
        _rewrite_line(manifest, 0, lambda line: "[]")
        with pytest.raises(FormatError, match="checkpoint: .* is not a tensor "
                           "store"):
            load_checkpoint(manifest)

    def test_truncated_entry_line(self, manifest):
        _rewrite_line(manifest, 2, lambda line: line[:-5])
        with pytest.raises(FormatError, match="line 3"):
            load_checkpoint(manifest)

    @pytest.mark.parametrize("key", ["name", "shape"])
    def test_entry_missing_key(self, manifest, key):
        _rewrite_line(manifest, 1, _edit_json(lambda e: e.pop(key)))
        with pytest.raises(FormatError, match="line 2.*" + key):
            load_checkpoint(manifest)

    def test_duplicate_tensor_name(self, manifest):
        first = json.loads(manifest.read_text().splitlines()[1])["name"]
        _rewrite_line(manifest, 2, _edit_json(lambda e: e.update(name=first)))
        with pytest.raises(FormatError,
                           match=f"line 3.*duplicate tensor '{first}'"):
            load_checkpoint(manifest)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["binary.lin1.W", "cache.labels"])
    def test_non_finite_value_rejected(self, manifest, value, name):
        # the header's crc32 follows the new bytes, so finiteness is checked
        set_tensor_value(manifest, name, value)
        with pytest.raises(FormatError, match=re.escape(
                f"checkpoint: {manifest} line 1: tensor '{name}' holds a "
                "non-finite value")):
            load_checkpoint(manifest)

    def test_trailing_blob_bytes_rejected(self, manifest):
        blob = manifest.with_suffix(".blob")
        size = len(blob.read_bytes())
        blob.write_bytes(blob.read_bytes() + b"\0" * 8)
        with pytest.raises(FormatError, match=re.escape(
                f"checkpoint.json line 1: last tensor 'fusion.score.V.out.b': "
                f"blob checkpoint.blob holds {size + 8} bytes, but its "
                f"{size // 8} values take {size}")):
            load_checkpoint(manifest)

    def test_nan_store_with_junk_tail_rejected(self, manifest):
        # the byte length is checked before the values
        set_tensor_value(manifest, "cache.features", np.nan)
        blob = manifest.with_suffix(".blob")
        blob.write_bytes(blob.read_bytes() + b"\xff" * 8)
        with pytest.raises(FormatError, match="last tensor 'fusion.score.V."
                           "out.b': blob checkpoint.blob holds"):
            load_checkpoint(manifest)

    def test_negative_shape_rejected(self, manifest):
        _rewrite_line(manifest, 2, _edit_json(lambda e: e.update(shape=[-1])))
        with pytest.raises(FormatError, match="line 3.*non-negative"):
            load_checkpoint(manifest)

    def test_version_1_checkpoint_names_the_version(self, manifest):
        _rewrite_line(manifest, 0, _edit_json(lambda h: h.update(version=1)))
        with pytest.raises(FormatError) as info:
            load_checkpoint(manifest)
        assert str(info.value) == (
            f"checkpoint: {manifest} is a version 1 checkpoint; this mmood "
            "reads version 4 only, so rerun `mmood train` to write it again")

    def test_version_2_checkpoint_names_the_version(self, manifest):
        # version 2 also stored the class statistics and the train logits
        _rewrite_line(manifest, 0, _edit_json(lambda h: h.update(version=2)))
        with pytest.raises(FormatError) as info:
            load_checkpoint(manifest)
        assert str(info.value) == (
            f"checkpoint: {manifest} is a version 2 checkpoint; this mmood "
            "reads version 4 only, so rerun `mmood train` to write it again")

    def test_version_3_checkpoint_names_the_version(self, manifest):
        # version 3 stored no test-feature cache and no test_crc32
        _rewrite_line(manifest, 0, _edit_json(lambda h: h.update(version=3)))
        with pytest.raises(FormatError) as info:
            load_checkpoint(manifest)
        assert str(info.value) == (
            f"checkpoint: {manifest} is a version 3 checkpoint; this mmood "
            "reads version 4 only, so rerun `mmood train` to write it again")

    def test_entries_are_sorted_names_and_shapes(self, manifest):
        header, *entries = map(json.loads, manifest.read_text().splitlines())
        blob = manifest.with_suffix(".blob").read_bytes()
        assert sorted(header) == ["crc32", "format", "meta", "version"]
        assert (header["format"], header["version"], header["crc32"]) == \
            ("tensor-store", 4, zlib.crc32(blob))
        assert all(sorted(entry) == ["name", "shape"] for entry in entries)
        names = [entry["name"] for entry in entries]
        assert names == sorted(names)
        assert len(blob) == 8 * sum(np.prod(e["shape"], dtype=int)
                                    for e in entries)

    @pytest.mark.parametrize("names", [
        ("encoder.T.block.attn.k.W", "encoder.V.block.attn.q.W"),
        ("binary.lin1.W", "cache.labels"),
    ], ids=["equal-shapes", "other-shapes"])
    def test_swapped_entry_lines_load_the_same_values(self, manifest, names):
        # each slice follows from the sorted names, not from line order
        before = load_checkpoint(manifest)
        lines = manifest.read_text().splitlines()
        i, j = (next(n for n, line in enumerate(lines)
                     if f'"name": "{name}"' in line) for name in names)
        lines[i], lines[j] = lines[j], lines[i]
        manifest.write_text("\n".join(lines) + "\n")
        (model, stats, feats, *_), after = before, load_checkpoint(manifest)
        assert np.array_equal(model.values, after[0].values)
        for field, value in vars(stats).items():
            assert np.array_equal(value, getattr(after[1], field))
        assert np.array_equal(feats, after[2])


def widened(corpus: Corpus) -> Corpus:
    """``corpus`` with its sequences widened to float64 by the caller."""
    return Corpus(corpus.meta, corpus.ids, corpus.splits, corpus.labels,
                  {m: s.astype(np.float64) for m, s in corpus.seqs.items()})


class TestStoragePrecision:
    def test_synthesized_and_loaded_hold_float32(self, tmp_path):
        corpus = synth_corpus(tiny_cfg(), make_rng(3))
        loaded = load_corpus(save_corpus(corpus, tmp_path / "c"))
        for m in MODALITIES:
            assert corpus.seqs[m].dtype == np.float32
            assert loaded.seqs[m].dtype == np.float32

    def test_float64_corpus_saves_the_same_bytes(self, tmp_path):
        corpus = synth_corpus(tiny_cfg(), make_rng(3))
        save_corpus(corpus, tmp_path / "a")
        save_corpus(widened(corpus), tmp_path / "b")
        for name in ["manifest.jsonl"] + [f"seq_{m}.blob" for m in MODALITIES]:
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_training_reads_float32_as_float64(self, micro):
        cfg = load_config(micro["cfg"])
        corpus = load_corpus(micro["corpus"])
        narrow = train(corpus, cfg.train, cfg.oodgen)
        wide = train(widened(corpus), cfg.train, cfg.oodgen)
        assert np.array_equal(narrow.model.values, wide.model.values)


class TestBatches:
    """``make_batches`` deals the row indices it is given, shuffled, into
    half-batches; the rows need not start at 0 or be contiguous."""

    ROWS = np.array([3, 4, 5, 9, 10, 14, 15, 16, 20, 31, 40])

    def test_chunking_drops_tail(self):
        chunks = make_batches(self.ROWS, 6, make_rng(0))
        assert len(chunks) == len(self.ROWS) // 3  # 11 rows, halves of 3
        assert all(len(c) == 3 for c in chunks)

    def test_epoch_is_permutation(self):
        for batch_size in (2, 4, 6, 22):
            chunks = make_batches(self.ROWS, batch_size, make_rng(1))
            assert len(chunks) == len(self.ROWS) // (batch_size // 2)
            seen = np.concatenate(chunks).tolist()
            assert set(seen) <= set(self.ROWS.tolist())
            assert len(seen) == len(set(seen))

    def test_same_seed_same_order(self):
        # one permutation of the row count is all it draws from the stream
        rng, ref = make_rng(2), make_rng(2)
        chunks = make_batches(self.ROWS, 4, rng)
        order = self.ROWS[ref.permutation(len(self.ROWS))]
        assert np.array_equal(np.concatenate(chunks), order[:10])
        assert rng.bit_generator.state == ref.bit_generator.state

    # make_batches trusts its batch size: the config gate and train check it
    def test_odd_batch_rejected(self):
        with pytest.raises(ParameterError):
            TrainConfig(batch_size=5)

    def test_batch_too_large(self):
        corpus = synth_corpus(tiny_cfg(n_train=3, n_valid=0, n_test_id=2,
                                       n_test_ood=0), make_rng(9))
        with pytest.raises(ParameterError):
            train(corpus, TrainConfig(batch_size=8), OodGenConfig())

    def test_training_holds_no_split_copy(self):
        # 3,000 train records at 4x the default dims: each step gathers and
        # widens only its half-batch, so no copy of the split, float32 or
        # float64, is ever held
        wide = {m: ModalitySynth(seq_len=length, dim=4 * dim)
                for m, (length, dim) in SynthConfig().meta().shapes.items()}
        corpus = synth_corpus(tiny_cfg(n_train=3000, n_valid=0, n_test_id=0,
                                       n_test_ood=0, modalities=wide),
                              make_rng(0))
        tracemalloc.start()
        try:
            train(corpus, TrainConfig(stage1_epochs=1, stage2_epochs=1),
                  OodGenConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        split_bytes = sum(s.nbytes for s in corpus.seqs.values())
        assert split_bytes == 3000 * 4352
        assert peak < split_bytes


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
        _rewrite_line(manifest, 1, _edit_json(lambda e: e.pop("column")))
        with pytest.raises(FormatError, match="line 2: malformed column "
                           "'<unnamed>' \\(KeyError: 'column'\\)"):
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
        size = len(corpus) * 4 * 6 * 4
        with pytest.raises(FormatError, match="line 1: last record "
                           f"'{corpus.ids[-1]}' modality V: blob seq_V.blob "
                           f"holds {size - 4} bytes, but its {size // 4} "
                           f"values take {size}"):
            load_corpus(manifest)

    def test_short_store_blob_names_last_tensor(self, tmp_path, tiny_run):
        manifest = shutil.copytree(tiny_run, tmp_path / "run") / \
            "checkpoint.json"
        blob = manifest.with_suffix(".blob")
        size = len(blob.read_bytes())
        blob.write_bytes(blob.read_bytes()[:-8])
        with pytest.raises(FormatError, match=re.escape(
                "checkpoint.json line 1: last tensor 'fusion.score.V.out.b': "
                f"blob checkpoint.blob holds {size - 8} bytes, but its {size // 8} "
                f"values take {size}")):
            load_checkpoint(manifest)


class TestOneBufferDecode:
    def test_load_peaks_below_a_quarter_of_the_largest_blob(self, tmp_path):
        # each blob is read straight into its array: no whole-file bytes
        # buffer is alive beside it while it decodes
        cfg = tiny_cfg(n_train=140, n_valid=30, n_test_id=20, n_test_ood=10,
                       modalities={"T": ModalitySynth(seq_len=64, dim=64),
                                   "V": ModalitySynth(seq_len=32, dim=32),
                                   "A": ModalitySynth(seq_len=16, dim=16)})
        manifest = save_corpus(synth_corpus(cfg, make_rng(0)), tmp_path / "c")
        largest = max((tmp_path / "c" / f"seq_{m}.blob").stat().st_size
                      for m in MODALITIES)
        tracemalloc.start()
        try:
            corpus = load_corpus(manifest)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(corpus) == 200
        assert peak - held < 0.25 * largest

    def test_load_peaks_near_the_sequence_bytes(self, tmp_path):
        # eval-large's record shapes (1,088 bytes a record): the three
        # manifest columns and the blob checks add little to the sequences,
        # where one manifest line per record added about half of them
        cfg = tiny_cfg(n_train=750, n_valid=375, n_test_id=1250,
                       n_test_ood=625,
                       modalities={"T": ModalitySynth(seq_len=6, dim=16),
                                   "V": ModalitySynth(seq_len=8, dim=12),
                                   "A": ModalitySynth(seq_len=10, dim=8)})
        manifest = save_corpus(synth_corpus(cfg, make_rng(0)), tmp_path / "c")
        tracemalloc.start()
        try:
            corpus = load_corpus(manifest)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        sequences = sum(s.nbytes for s in corpus.seqs.values())
        assert sequences == 3000 * 1088
        assert peak <= 1.25 * sequences
