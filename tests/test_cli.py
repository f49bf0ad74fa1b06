import configparser
import csv
import io
import json
import os
import platform
import re
import runpy
import shutil
import stat
import subprocess
import sys
import tracemalloc
import warnings
import weakref
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mmood.cli
from mmood.checkpoint import load_checkpoint, save_checkpoint
from mmood.cli import (main, run_ablation, run_eval, run_report, run_synth,
                       run_training)
from mmood.config import load_config
from mmood.corpus import load_corpus, rows_crc32, save_corpus, synth_corpus
from mmood.errors import (FormatError, NumericalError, ParameterError,
                          PipelineError)
from mmood.model import FusionModel
from mmood.numerics import make_rng
from mmood.scoring import (SCORERS, apply_scorer, fit_class_stats, fit_scorer,
                           normalize_scores)
from mmood.train import train
from conftest import (MICRO_INI, NO_TEST_KEY, is_ood, set_tensor_value,
                      split, take)
from oracles import mahalanobis_row_oracle, score_file_oracle


def ini_with(section: str, items: dict[str, str]) -> str:
    """MICRO_INI with each ``key: value`` of ``items`` set in ``[section]``,
    written as given (a ``%`` is not escaped)."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(MICRO_INI)
    if not parser.has_section(section):
        parser.add_section(section)
    parser[section].update(items)
    text = io.StringIO()
    parser.write(text)
    return text.getvalue()


class TestSynth:
    def test_writes_manifest_and_blobs(self, micro):
        files = {p.name for p in micro["corpus"].iterdir()}
        assert files == {"manifest.jsonl", "seq_T.blob", "seq_V.blob",
                         "seq_A.blob"}
        corpus = load_corpus(micro["corpus"])
        assert corpus.num_classes == 3

    def test_seed_repeat_byte_identical(self, micro):
        again = micro["tmp"] / "corpus2"
        assert main(["synth", "--config", str(micro["cfg"]), "--out",
                     str(again), "--seed", "0"]) == 0
        for name in ("manifest.jsonl", "seq_T.blob", "seq_V.blob",
                     "seq_A.blob"):
            assert (micro["corpus"] / name).read_bytes() == \
                (again / name).read_bytes()

    @pytest.mark.parametrize("drift", ["label", "seq"])
    def test_round_trip_mismatch_raises(self, micro, monkeypatch, drift):
        def drifted_load(path):
            corpus = load_corpus(path)
            if drift == "label":
                corpus.labels[0] = (corpus.labels[0] + 1) % corpus.num_classes
            else:
                corpus.seqs["A"][-1, 0, 0] += 1.0
            return corpus
        monkeypatch.setattr(mmood.cli, "load_corpus", drifted_load)
        cfg = load_config(micro["cfg"])
        with pytest.raises(PipelineError, match="does not reload"):
            run_synth(cfg, micro["tmp"] / "again", 0)

    def test_huge_count_is_a_parameter_error(self, tmp_path):
        """With its address space capped at 1 GiB, a fresh ``mmood synth``
        of 10**8 train records exits 1 naming the counts, not with a
        ``MemoryError`` traceback."""
        cfg = tmp_path / "huge.ini"
        cfg.write_text("[corpus]\nn_train = 100000000\n")
        done = _fresh_process(CAPPED_MAIN, "synth", "--config", cfg,
                              "--out", tmp_path / "c")
        assert done.returncode == 1
        assert done.stderr == (
            "error: corpus: the records do not fit in memory (n_train = "
            "100000000, n_valid = 200, n_test_id = 200, n_test_ood = 100)\n")
        assert not (tmp_path / "c").exists()

    def test_invalid_class_count_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[corpus]\nnum_classes = 1\n")
        code = main(["synth", "--config", str(bad), "--out",
                     str(tmp_path / "c")])
        assert code == 1
        assert "num_classes" in capsys.readouterr().err


class TestTrain:
    def test_smoke_checkpoint_reloads(self, micro):
        out = micro["tmp"] / "run"
        assert main(["train", "--config", str(micro["cfg"]), "--corpus",
                     str(micro["corpus"]), "--out", str(out),
                     "--seed", "0"]) == 0
        model, stats, feats, (key, test_feats), meta = load_checkpoint(out)
        assert stats.means.shape == (3, 8)
        assert feats.shape[0] == 48
        assert test_feats.shape == (36, model.d_shared)
        assert sorted(key) == sorted(meta["test_crc32"]) == ["A", "T", "V"]
        assert (out / "train_log.jsonl").exists()
        assert (out / "results.csv").exists()

    def test_reload_draws_nothing(self, micro, monkeypatch):
        run = _train_cli(micro, micro["tmp"] / "run")

        def undrawable(*args, **kwargs):
            raise AssertionError("a checkpoint load drew initial weights")

        monkeypatch.setattr("mmood.model.component_rng", undrawable)
        model = load_checkpoint(run)[0]
        assert model.values.size == sum(p.value.size for p in model.params())

    def test_ablation_flag_changes_head(self, micro):
        out = micro["tmp"] / "run_nocos"
        assert main(["train", "--config", str(micro["cfg"]), "--corpus",
                     str(micro["corpus"]), "--out", str(out), "--seed", "0",
                     "--ablation", "no_cosine"]) == 0
        manifest = json.loads((out / "checkpoint.json").read_text()
                              .splitlines()[0])
        assert manifest["meta"]["hyper"]["no_cosine"] is True
        names = [json.loads(line)["name"]
                 for line in (out / "checkpoint.json").read_text()
                 .splitlines()[1:] if line.strip()]
        assert "class.linear.W" in names
        assert "class.W_cos" not in names

    def test_five_seeds_emit_rows_and_summary(self, micro):
        out = micro["tmp"] / "run5"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["train", "--config", str(micro["cfg"]), "--corpus",
                         str(micro["corpus"]), "--out", str(out),
                         "--seed", "0,1,2,3,4"]) == 0
        rows = (out / "results.csv").read_text().splitlines()
        assert len(rows) == 6  # header + five seeds
        assert rows[0].startswith("seed,")
        summary = (out / "results_summary.csv").read_text().splitlines()
        assert summary[0] == "metric,mean,std"
        # independent re-summation of a column agrees exactly
        header = rows[0].split(",")
        col = header.index("val_wf1")
        values = [float(r.split(",")[col]) for r in rows[1:]]
        expected_mean = sum(values) / len(values)
        summary_map = {line.split(",")[0]: float(line.split(",")[1])
                       for line in summary[1:]}
        assert summary_map["val_wf1"] == expected_mean
        for seed in range(5):
            assert (out / f"seed_{seed}" / "checkpoint.blob").exists()

    def test_training_idempotent_apart_from_log_header(self, micro):
        out_a = micro["tmp"] / "ra"
        out_b = micro["tmp"] / "rb"
        for out in (out_a, out_b):
            assert main(["train", "--config", str(micro["cfg"]), "--corpus",
                         str(micro["corpus"]), "--out", str(out),
                         "--seed", "0"]) == 0
        assert (out_a / "checkpoint.blob").read_bytes() == \
            (out_b / "checkpoint.blob").read_bytes()
        assert (out_a / "checkpoint.json").read_bytes() == \
            (out_b / "checkpoint.json").read_bytes()
        assert (out_a / "results.csv").read_bytes() == \
            (out_b / "results.csv").read_bytes()
        log_a = (out_a / "train_log.jsonl").read_text().splitlines()
        log_b = (out_b / "train_log.jsonl").read_text().splitlines()
        assert log_a[1:] == log_b[1:]  # only the header line carries a time
        ha, hb = json.loads(log_a[0]), json.loads(log_b[0])
        ha.pop("time"), hb.pop("time")
        assert ha == hb


class TestEval:
    @pytest.fixture()
    def trained(self, micro):
        out = micro["tmp"] / "run"
        assert main(["train", "--config", str(micro["cfg"]), "--corpus",
                     str(micro["corpus"]), "--out", str(out),
                     "--seed", "0"]) == 0
        return out

    def test_all_scorers_in_one_table(self, micro, trained):
        out = micro["tmp"] / "eval"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["eval", "--config", str(micro["cfg"]),
                         "--checkpoint", str(trained), "--corpus",
                         str(micro["corpus"]), "--out", str(out)]) == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == "scorer,auroc,aupr_in,aupr_out,fpr95,der"
        scorers = [line.split(",")[0] for line in lines[1:]]
        assert sorted(scorers) == sorted(
            ["mahalanobis", "energy", "msp", "maxlogit", "residual", "vim"])
        report = json.loads((out / "eval_report.json").read_text())
        assert len(report["ood_metrics"]) == 6
        assert len(report["id_metrics"]["per_class_acc"]) == 3

    def test_rerun_identical(self, micro, trained):
        outs = [micro["tmp"] / "e1", micro["tmp"] / "e2"]
        for out in outs:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert main(["eval", "--config", str(micro["cfg"]),
                             "--checkpoint", str(trained), "--corpus",
                             str(micro["corpus"]), "--out", str(out)]) == 0
        for name in ("eval_report.json", "metrics.csv",
                     "scores_mahalanobis.jsonl"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_single_scorer_override(self, micro, trained):
        out = micro["tmp"] / "eval_m"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["eval", "--config", str(micro["cfg"]),
                         "--checkpoint", str(trained), "--corpus",
                         str(micro["corpus"]), "--out", str(out),
                         "--scorer", "mahalanobis"]) == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("mahalanobis,")

    def test_score_dump_schema(self, micro, trained):
        out = micro["tmp"] / "eval_dump"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["eval", "--config", str(micro["cfg"]),
                         "--checkpoint", str(trained), "--corpus",
                         str(micro["corpus"]), "--out", str(out),
                         "--scorer", "mahalanobis"]) == 0
        rows = [json.loads(line) for line in
                (out / "scores_mahalanobis.jsonl").read_text().splitlines()]
        assert len(rows) == 36  # 24 ID + 12 OOD test records
        for row in rows:
            assert set(row) == {"id", "is_id", "raw", "norm"}
            assert 0.0 <= row["norm"] <= 1.0

    def test_report_command(self, micro, trained):
        out = micro["tmp"] / "eval_r"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["eval", "--config", str(micro["cfg"]),
                         "--checkpoint", str(trained), "--corpus",
                         str(micro["corpus"]), "--out", str(out)]) == 0
        assert main(["report", str(out)]) == 0
        per_class = (out / "per_class_acc.csv").read_text().splitlines()
        assert per_class[0] == "class,accuracy"
        assert len(per_class) == 4
        long_rows = (out / "scores_long.csv").read_text().splitlines()
        assert long_rows[0] == "scorer,sample_id,is_id,raw,normalized"
        assert len(long_rows) == 1 + 6 * 36

    def test_report_reads_score_files(self, micro, trained, capsys):
        out = micro["tmp"] / "eval_s"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["eval", "--config", str(micro["cfg"]),
                         "--checkpoint", str(trained), "--corpus",
                         str(micro["corpus"]), "--out", str(out),
                         "--scorer", "msp"]) == 0
        assert "score_table" not in json.loads(
            (out / "eval_report.json").read_text())
        assert main(["report", str(out)]) == 0
        dumped = [json.loads(line) for line in
                  (out / "scores_msp.jsonl").read_text().splitlines()]
        long_rows = (out / "scores_long.csv").read_text().splitlines()[1:]
        assert long_rows == [
            f"msp,{r['id']},{int(r['is_id'])},{r['raw']!r},{r['norm']!r}"
            for r in dumped
        ]
        scores = out / "scores_msp.jsonl"
        scores.write_text("\n".join(scores.read_text().splitlines()[:2])[:-5])
        capsys.readouterr()
        assert main(["report", str(out)]) == 1
        assert re.search(r"error: cli: .*scores_msp\.jsonl line 2: malformed",
                         capsys.readouterr().err)
        scores.unlink()
        assert main(["report", str(out)]) == 1
        assert re.search(r"error: cli: .*scores_msp\.jsonl not found",
                         capsys.readouterr().err)

    def test_report_rejects_malformed_eval_report(self, micro, trained,
                                                  capsys):
        out = micro["tmp"] / "eval_t"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["eval", "--config", str(micro["cfg"]),
                         "--checkpoint", str(trained), "--corpus",
                         str(micro["corpus"]), "--out", str(out),
                         "--scorer", "msp"]) == 0
        report = out / "eval_report.json"
        text = report.read_text()
        bad_acc = json.loads(text)
        bad_acc["id_metrics"]["per_class_acc"][0] = "high"
        for broken in (text[:-20], json.dumps({"id_metrics": {}}),
                       json.dumps({"id_metrics": [], "ood_metrics": {}}),
                       json.dumps(bad_acc)):
            report.write_text(broken)
            capsys.readouterr()
            assert main(["report", str(out)]) == 1
            assert re.search(r"error: cli: .*eval_report\.json: malformed",
                             capsys.readouterr().err)

    def test_scores_loaded_arrays_then_writes_with_corpus_dead(
            self, micro, trained, monkeypatch):
        """On a cache miss, ``features_for`` reads the very arrays
        ``load_corpus`` returned (no copy of the test split), and the loaded
        corpus and its arrays are dead before the first score file is
        opened."""
        _forget_test_key(trained)
        loaded, same, dead = [], [], []
        real_load = mmood.cli.load_corpus
        real_features = FusionModel.features_for

        def load(path):
            corpus = real_load(path)
            loaded.extend(map(weakref.ref, [corpus, *corpus.seqs.values()]))
            return corpus

        def features_for(model, corpus, *rows):
            same.append(all(obj is ref() for obj, ref in zip(
                [corpus, *corpus.seqs.values()], loaded, strict=True)))
            return real_features(model, corpus, *rows)

        def traced_open(path, *args, **kwargs):
            if Path(path).name.startswith("scores_"):
                dead.append(all(ref() is None for ref in loaded))
            return open(path, *args, **kwargs)

        monkeypatch.setattr(mmood.cli, "load_corpus", load)
        monkeypatch.setattr(FusionModel, "features_for", features_for)
        monkeypatch.setattr(mmood.cli, "open", traced_open, raising=False)
        assert main(["eval", "--config", str(micro["cfg"]),
                     "--checkpoint", str(trained), "--corpus",
                     str(micro["corpus"]), "--out", str(micro["tmp"] / "e"),
                     "--scorer", "msp"]) == 0
        assert same == [True]
        assert dead == [True]

    def test_corpus_dead_before_first_scorer_fit(self, micro, trained,
                                                 monkeypatch):
        """``eval`` takes the test features, ids and labels, then drops the
        loaded corpus, so it and its arrays are dead when the first scorer
        is fitted."""
        loaded, dead = [], []
        real_load, real_fit = mmood.cli.load_corpus, mmood.cli.fit_scorer

        def load(path):
            corpus = real_load(path)
            loaded.extend(map(weakref.ref, [
                corpus, corpus.ids, corpus.splits, corpus.labels,
                *corpus.seqs.values()]))
            return corpus

        def fit(*args):
            dead.append(all(ref() is None for ref in loaded))
            return real_fit(*args)

        monkeypatch.setattr(mmood.cli, "load_corpus", load)
        monkeypatch.setattr(mmood.cli, "fit_scorer", fit)
        assert main(["eval", "--config", str(micro["cfg"]),
                     "--checkpoint", str(trained), "--corpus",
                     str(micro["corpus"]), "--out", str(micro["tmp"] / "e"),
                     "--scorer", "msp"]) == 0
        assert dead == [True]


# eval-large's corpus sizes: 12,000 of 12,872 records are test records, so
# the sequences (1,088 bytes a record) outweigh what else a command holds
# at its peak: the manifest's columns and one 256-record chunk's
# activations. With the version-1 manifest (some 670 bytes a record
# parsed) eval's traced peak at 6,000 test records (13.8 MB) was above the
# bound (13.1 MB) even with one copy.
ONE_COPY_INI = ini_with("corpus", {
    "n_test_id": "8000", "n_test_ood": "4000", "seq_len_t": "6",
    "dim_t": "16", "seq_len_v": "8", "dim_v": "12", "seq_len_a": "10",
    "dim_a": "8"})


def _traced_peak(argv: list[str]) -> int:
    """The peak of the bytes tracemalloc traces while ``main(argv)`` runs,
    numpy's array buffers included."""
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestOneCorpusCopy:
    """A command holds one copy of the corpus's sequences at a time: its
    traced peak stays below the bytes of the corpus's sequences plus those
    of its test split, which a copy of the test split (or of the corpus)
    beside the corpus would reach."""

    @pytest.fixture(scope="class")
    def peaks(self, tmp_path_factory):
        """The traced peaks of synth, train and eval, run in that order on
        one corpus, and the bytes of the corpus's and its test split's
        sequences."""
        tmp = tmp_path_factory.mktemp("one-copy")
        cfg, corpus, run = tmp / "run.ini", tmp / "corpus", tmp / "run"
        cfg.write_text(ONE_COPY_INI)
        peaks = {
            "synth": _traced_peak(["synth", "--config", str(cfg), "--out",
                                   str(corpus), "--seed", "0"]),
            "train": _traced_peak(["train", "--config", str(cfg), "--corpus",
                                   str(corpus), "--out", str(run),
                                   "--seed", "0"]),
            "eval": _traced_peak(["eval", "--config", str(cfg),
                                  "--checkpoint", str(run), "--corpus",
                                  str(corpus), "--out", str(tmp / "eval")]),
        }
        loaded = load_corpus(corpus)
        test = loaded.splits == "test"
        return peaks, sum(s.nbytes + s[test].nbytes
                          for s in loaded.seqs.values())

    @pytest.mark.parametrize("command", ["synth", "train", "eval"])
    def test_peak_below_two_copies(self, peaks, command):
        peak, two_copies = peaks[0][command], peaks[1]
        assert peak < two_copies


class TestAblate:
    def test_grid_rows_and_aggregate(self, micro):
        out = micro["tmp"] / "ablate"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["ablate", "--config", str(micro["cfg"]), "--corpus",
                         str(micro["corpus"]), "--out", str(out),
                         "--seed", "0,1"]) == 0
        rows = (out / "ablation.csv").read_text().splitlines()
        assert len(rows) == 1 + 6 * 2
        variants = {line.split(",")[0] for line in rows[1:]}
        assert variants == {"Full", "Fusion (Add)", "Fusion (Concat)",
                            "w / o Contrast", "w / o Cosine", "w / o Binary"}
        agg = (out / "aggregate.csv").read_text().splitlines()
        assert agg[0] == "variant,metric,mean,std"
        summary = json.loads((out / "ablation_summary.json").read_text())
        assert set(summary["ordering_checks"]) == {
            "weighted_ge_add", "weighted_ge_concat", "full_ge_no_binary"}

    def test_aggregate_matches_independent_resummation(self, micro):
        out = micro["tmp"] / "ablate2"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["ablate", "--config", str(micro["cfg"]), "--corpus",
                         str(micro["corpus"]), "--out", str(out),
                         "--seed", "0,1", "--ablation", "full,add"]) == 0
        rows = (out / "ablation.csv").read_text().splitlines()
        header = rows[0].split(",")
        parsed = [line.split(",") for line in rows[1:]]
        agg_lines = (out / "aggregate.csv").read_text().splitlines()[1:]
        # spreadsheet-style pass: group by variant, average each column
        for line in agg_lines:
            variant, metric, mean_s, _ = line.split(",", 3)
            col = header.index(metric)
            values = [float(p[col]) for p in parsed if p[0] == variant]
            assert float(mean_s) == sum(values) / len(values)

    def test_unknown_slug_rejected(self, micro, capsys):
        code = main(["ablate", "--config", str(micro["cfg"]), "--corpus",
                     str(micro["corpus"]), "--out",
                     str(micro["tmp"] / "x"), "--ablation", "no_everything"])
        assert code == 1
        assert "ablation" in capsys.readouterr().err


class TestCheckpointErrors:
    def test_missing_tensor_rejected(self, micro):
        from mmood.errors import FormatError

        out = micro["tmp"] / "run_broken"
        assert main(["train", "--config", str(micro["cfg"]), "--corpus",
                     str(micro["corpus"]), "--out", str(out),
                     "--seed", "0"]) == 0
        manifest = out / "checkpoint.json"
        lines = manifest.read_text().splitlines()
        kept = [lines[0]] + [l for l in lines[1:]
                             if '"class.W_cos"' not in l]
        manifest.write_text("\n".join(kept) + "\n")
        with pytest.raises(FormatError, match="class.W_cos"):
            load_checkpoint(out)

    @pytest.mark.parametrize("edit, name", [
        ("rename", "cache.labels"),
        ("drop", "cache.features"),
    ])
    def test_state_tensor_named_in_error(self, micro, capsys, edit, name):
        out = micro["tmp"] / "run_state"
        assert main(["train", "--config", str(micro["cfg"]), "--corpus",
                     str(micro["corpus"]), "--out", str(out),
                     "--seed", "0"]) == 0
        manifest = out / "checkpoint.json"
        lines = manifest.read_text().splitlines()
        if edit == "rename":
            lines = [l.replace(f'"{name}"', f'"{name[:-1]}z"') for l in lines]
        else:
            lines = [l for l in lines if f'"{name}"' not in l]
        manifest.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["eval", "--config", str(micro["cfg"]), "--checkpoint",
                     str(out), "--corpus", str(micro["corpus"]),
                     "--out", str(micro["tmp"] / "e")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: checkpoint: ")
        assert f"missing=['{name}']" in err

    @pytest.mark.parametrize("name, edit", [
        ("cache.labels", "negative"),
        ("cache.features", lambda n, d: [2 * n, d // 2]),
        ("cache.labels", lambda n: [n // 2, 2]),
    ], ids=["negative-label", "reshaped-features", "2d-labels"])
    def test_bad_state_tensor_exits_1(self, micro, capsys, name, edit):
        out = micro["tmp"] / "run_state"
        assert main(["train", "--config", str(micro["cfg"]), "--corpus",
                     str(micro["corpus"]), "--out", str(out),
                     "--seed", "0"]) == 0
        manifest = out / "checkpoint.json"
        lines = manifest.read_text().splitlines()
        i = next(i for i, l in enumerate(lines) if f'"{name}"' in l)
        entry = json.loads(lines[i])
        if edit == "negative":
            set_tensor_value(manifest, name, -5.5)
        else:
            # same value count, so the blob layout stays valid
            entry["shape"] = edit(*entry["shape"])
            lines[i] = json.dumps(entry)
            manifest.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["eval", "--config", str(micro["cfg"]), "--checkpoint",
                     str(out), "--corpus", str(micro["corpus"]),
                     "--out", str(micro["tmp"] / "e")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: checkpoint: {manifest}: "
                              f"tensor '{name}' ")

    def test_missing_blob_rejected(self, micro):
        from mmood.errors import FormatError

        out = micro["tmp"] / "run_noblob"
        assert main(["train", "--config", str(micro["cfg"]), "--corpus",
                     str(micro["corpus"]), "--out", str(out),
                     "--seed", "0"]) == 0
        (out / "checkpoint.blob").unlink()
        with pytest.raises(FormatError, match="blob"):
            load_checkpoint(out)


class TestCacheRefit:
    """A checkpoint keeps the train features and labels, and the class
    statistics are refit from them at load; a cache they cannot be refit
    from fails with one ``error: checkpoint:`` line and no warning."""

    @pytest.mark.parametrize("cov_eps", [None, 0.5])
    def test_loaded_stats_are_the_refit_of_the_cache(self, micro, cov_eps):
        cfg = load_config(micro["cfg"])
        corpus = load_corpus(micro["corpus"])
        trained = train(corpus, replace(cfg.train, cov_eps=cov_eps),
                        cfg.oodgen)
        run = save_checkpoint(trained, micro["tmp"] / "run", NO_TEST_KEY,
                              np.empty((0, 8))).parent
        _, stats, feats, _, meta = load_checkpoint(run)
        assert meta["train_config"]["cov_eps"] == cov_eps
        assert np.array_equal(feats, trained.train_features)
        refit = fit_class_stats(feats, trained.train_labels, 3, cov_eps)
        for field, value in vars(stats).items():
            for other in (refit, trained.class_stats):
                assert value.dtype == getattr(other, field).dtype
                assert np.array_equal(value, getattr(other, field))

    @pytest.mark.parametrize("edit, message", [
        (("cache.labels", [1.5]), "tensor 'cache.labels' holds 1.5; expected "
                                  "whole numbers in 0..2"),
        (("cache.labels", [3.0]), "tensor 'cache.labels' holds 3.0; expected "
                                  "whole numbers in 0..2"),
        # class 2 keeps one of the 48 rows; classes 0 and 1 take the rest
        (("cache.labels", [2] + [i % 2 for i in range(1, 48)]),
         "cannot refit the class statistics from the cache (scoring: class 2 "
         "has 1 training records, need >= 2 for a covariance)"),
        (("cache.features", [1e300]), "cannot refit the class statistics "
                                      "from the cache (overflow encountered "),
    ], ids=["non-whole-label", "label-k", "one-row-class", "feature-1e300"])
    def test_eval_exits_1_without_warning(self, micro, capsys, edit,
                                          message):
        run = _train_cli(micro, micro["tmp"] / "run")
        manifest = run / "checkpoint.json"
        name, values = edit
        for index, value in enumerate(values):
            set_tensor_value(manifest, name, value, index)
        capsys.readouterr()
        out = micro["tmp"] / "e"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["eval", "--config", str(micro["cfg"]),
                         "--checkpoint", str(run), "--corpus",
                         str(micro["corpus"]), "--out", str(out)]) == 1
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith(f"error: checkpoint: {manifest}: {message}")
        assert err.count("\n") == 1
        assert not out.exists()


def _corrupt_entry(path, corruption):
    """Break a checkpoint in one named way: its header, the tensor on line 3
    or its blob."""
    lines = path.read_text().splitlines()
    header, second, third = map(json.loads, lines[:3])
    blob = path.with_suffix(".blob")
    data = bytearray(blob.read_bytes())
    if corruption == "non_finite":  # the header's crc32 follows the NaN
        set_tensor_value(path, third["name"], np.nan)
        return
    if corruption == "duplicate":
        third["name"] = second["name"]
    elif corruption.startswith("version_"):
        header["version"] = int(corruption[-1])
    elif corruption == "no_crc32":
        del header["crc32"]
    elif corruption == "trailing":
        data += bytes(8)
    elif corruption == "short":
        del data[-8:]
    elif corruption == "flipped_byte":
        data[100] ^= 0x01
    lines[0], lines[2] = (json.dumps(obj, sort_keys=True)
                          for obj in (header, third))
    if corruption == "truncated":
        lines[2] = lines[2][:-5]
    blob.write_bytes(bytes(data))
    path.write_text("\n".join(lines) + "\n")


def _corrupt_corpus(directory, corruption):
    """Break a version-2 corpus in one named way: a manifest line (the
    header, or the id, label or split column on lines 2-4) or a blob."""
    manifest = directory / "manifest.jsonl"
    lines = manifest.read_text().splitlines()
    header, ids, labels, splits = map(json.loads, lines)
    blob = directory / "seq_T.blob"
    data = bytearray(blob.read_bytes())
    if corruption == "truncated":
        manifest.write_text("\n".join(lines[:2] + [lines[2][:-5]] + lines[3:])
                            + "\n")
        return
    if corruption == "label":
        del labels["values"]
    elif corruption == "duplicate":
        ids["values"][3] = ids["values"][0]
    elif corruption == "huge_label":
        labels["values"][1] = 10**20  # beyond int64
    elif corruption == "bad_split":
        splits["values"][2] = "dev"
    elif corruption == "ood_in_train":
        labels["values"][0] = "__OOD__"
    elif corruption == "version_1":
        header["version"] = 1
    elif corruption == "short_blob":
        del data[-4:]
    elif corruption == "long_blob":
        data += bytes(4)
    elif corruption == "flipped_byte":
        data[100] ^= 0x01
    elif corruption == "nan":  # the header's crc32 follows the new bytes
        data[:4] = np.array([np.nan], dtype="<f4").tobytes()
        header["modalities"]["T"]["crc32"] = zlib.crc32(data)
    blob.write_bytes(bytes(data))
    manifest.write_text("".join(json.dumps(obj, sort_keys=True) + "\n"
                                for obj in (header, ids, labels, splits)))


class TestMalformedManifests:
    @pytest.mark.parametrize("corruption, message", [
        ("truncated", "line 3"),
        ("label", "line 3.*'label'"),
        ("duplicate", "duplicate record id 'train-00000'"),
        ("huge_label", "line 3.*label 100000000000000000000"),
        ("bad_split", "record 'train-00002' has split 'dev'"),
        ("ood_in_train", "record 'train-00000' has split 'train' and label "
                         "'__OOD__'"),
        ("version_1", "is a version 1 corpus; .*rerun `mmood synth`"),
        ("short_blob", "line 1: last record 'test-ood-00011' modality T: blob "
                       "seq_T.blob holds [0-9]+ bytes, but its [0-9]+ values "
                       "take"),
        ("long_blob", "line 1: last record 'test-ood-00011' modality T: blob "
                      "seq_T.blob holds [0-9]+ bytes, but its [0-9]+ values "
                      "take"),
        ("flipped_byte", "blob seq_T.blob has crc32 [0-9]+, but the header "
                         "records [0-9]+"),
        ("nan", "line 1: record 'train-00000' modality T holds a non-finite"),
    ])
    def test_train_exits_1_with_error(self, micro, capsys, corruption,
                                      message):
        _corrupt_corpus(micro["corpus"], corruption)
        code = main(["train", "--config", str(micro["cfg"]), "--corpus",
                     str(micro["corpus"]), "--out", str(micro["tmp"] / "r")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: corpus: ")
        assert re.search(message, err)
        assert not (micro["tmp"] / "r" / "checkpoint.json").exists()

    def test_non_finite_blob_value(self, micro, capsys):
        _corrupt_corpus(micro["corpus"], "nan")
        code = main(["train", "--config", str(micro["cfg"]), "--corpus",
                     str(micro["corpus"]), "--out", str(micro["tmp"] / "r")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: corpus: ")
        assert re.search("'train-00000' modality T.*non-finite", err)
        assert not (micro["tmp"] / "r" / "checkpoint.json").exists()

    def test_blob_naming_a_directory(self, micro, capsys):
        manifest = micro["corpus"] / "manifest.jsonl"
        lines = manifest.read_text().splitlines()
        header = json.loads(lines[0])
        header["modalities"]["V"]["blob"] = "."
        lines[0] = json.dumps(header, sort_keys=True)
        manifest.write_text("\n".join(lines) + "\n")
        code = main(["train", "--config", str(micro["cfg"]), "--corpus",
                     str(micro["corpus"]), "--out", str(micro["tmp"] / "r")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: corpus: missing blob file ")
        assert len(err.splitlines()) == 1
        assert not (micro["tmp"] / "r").exists()

    @pytest.mark.parametrize("corruption, message", [
        ("truncated", "line 3"),
        ("duplicate", "line 3.*duplicate tensor"),
        ("non_finite", "line 1: tensor 'binary.lin1.b' holds a non-finite"),
        ("trailing", "last tensor .*checkpoint.blob holds"),
        ("short", "line 1: last tensor 'fusion.score.V.out.b': blob "
                  "checkpoint.blob holds [0-9]+ bytes, but its"),
        ("flipped_byte", "blob checkpoint.blob has crc32 [0-9]+, but the "
                         "header records [0-9]+"),
        ("version_1", "is a version 1 checkpoint; .*rerun `mmood train`"),
        ("version_2", "is a version 2 checkpoint; this mmood reads version 4 "
                      "only, so rerun `mmood train`"),
        ("version_3", "is a version 3 checkpoint; this mmood reads version 4 "
                      "only, so rerun `mmood train`"),
        ("no_crc32", "line 1: malformed header .*'crc32'"),
    ])
    def test_eval_exits_1_with_error(self, micro, capsys, corruption,
                                     message):
        run = micro["tmp"] / "run"
        assert main(["train", "--config", str(micro["cfg"]), "--corpus",
                     str(micro["corpus"]), "--out", str(run),
                     "--seed", "0"]) == 0
        _corrupt_entry(run / "checkpoint.json", corruption)
        capsys.readouterr()
        code = main(["eval", "--config", str(micro["cfg"]), "--checkpoint",
                     str(run), "--corpus", str(micro["corpus"]),
                     "--out", str(micro["tmp"] / "e")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: checkpoint: ")
        assert err.count("\n") == 1
        assert re.search(message, err)


class TestOutDirFallback:
    def test_config_out_dir_used_when_flag_absent(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[run]\nout_dir = {tmp_path / 'from_config'}\n")
        assert main(["synth", "--config", str(cfg), "--seed", "1"]) == 0
        assert (tmp_path / "from_config" / "manifest.jsonl").exists()

    def test_no_out_anywhere_is_an_error(self, capsys):
        assert main(["synth", "--seed", "1"]) == 1
        assert "out" in capsys.readouterr().err


class TestErrors:
    def test_missing_corpus_named(self, micro, capsys):
        code = main(["train", "--config", str(micro["cfg"]), "--corpus",
                     str(micro["tmp"] / "nope"), "--out",
                     str(micro["tmp"] / "r")])
        assert code == 1
        assert "corpus" in capsys.readouterr().err

    def test_report_before_eval(self, micro, capsys):
        code = main(["report", str(micro["tmp"] / "never_evaled")])
        assert code == 1
        assert "eval" in capsys.readouterr().err

    def test_class_count_mismatch_at_eval(self, micro, capsys):
        run = micro["tmp"] / "run"
        assert main(["train", "--config", str(micro["cfg"]), "--corpus",
                     str(micro["corpus"]), "--out", str(run),
                     "--seed", "0"]) == 0
        cfg5 = micro["tmp"] / "run5.ini"
        cfg5.write_text(MICRO_INI.replace("num_classes = 3",
                                          "num_classes = 5"))
        corpus5 = micro["tmp"] / "corpus5"
        assert main(["synth", "--config", str(cfg5), "--out", str(corpus5),
                     "--seed", "0"]) == 0
        capsys.readouterr()
        code = main(["eval", "--config", str(micro["cfg"]), "--checkpoint",
                     str(run), "--corpus", str(corpus5),
                     "--out", str(micro["tmp"] / "e")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: cli: ")
        assert f"corpus has 5 classes, checkpoint {run} was trained on 3" \
            in err
        assert not (micro["tmp"] / "e" / "eval_report.json").exists()

    @staticmethod
    def _eval_other_shape(micro, capsys, monkeypatch, key, value):
        """The error of evaluating a checkpoint trained on the micro corpus
        on one synthesized with ``key = value``; no feature pass runs."""
        run = micro["tmp"] / "run"
        assert main(["train", "--config", str(micro["cfg"]), "--corpus",
                     str(micro["corpus"]), "--out", str(run),
                     "--seed", "0"]) == 0
        other_cfg, other = micro["tmp"] / "other.ini", micro["tmp"] / "other"
        other_cfg.write_text(ini_with("corpus", {key: value}))
        assert main(["synth", "--config", str(other_cfg), "--out", str(other),
                     "--seed", "0"]) == 0

        def no_features(*args, **kwargs):
            raise AssertionError("features computed for a mismatched corpus")

        monkeypatch.setattr(FusionModel, "features_for", no_features)
        capsys.readouterr()
        code = main(["eval", "--config", str(micro["cfg"]), "--checkpoint",
                     str(run), "--corpus", str(other),
                     "--out", str(micro["tmp"] / "e")])
        assert code == 1
        assert not (micro["tmp"] / "e").exists()
        return capsys.readouterr().err, run

    def test_dim_mismatch_at_eval(self, micro, capsys, monkeypatch):
        err, run = self._eval_other_shape(micro, capsys, monkeypatch,
                                          "dim_v", "16")
        assert err == (f"error: cli: corpus modality V has shape (3, 16), "
                       f"checkpoint {run} was trained on (3, 8)\n")

    def test_seq_len_mismatch_at_eval(self, micro, capsys, monkeypatch):
        err, run = self._eval_other_shape(micro, capsys, monkeypatch,
                                          "seq_len_a", "5")
        assert err == (f"error: cli: corpus modality A has shape (5, 4), "
                       f"checkpoint {run} was trained on (3, 4)\n")


class TestNonUtf8Manifest:
    @pytest.mark.parametrize("target, module", [("corpus", "corpus"),
                                                ("checkpoint", "checkpoint")])
    def test_exits_1_with_format_error(self, micro, capsys, target, module):
        run = micro["tmp"] / "run"
        train = ["train", "--config", str(micro["cfg"]), "--corpus",
                 str(micro["corpus"]), "--out", str(run), "--seed", "0"]
        if target == "corpus":
            path, argv = micro["corpus"] / "manifest.jsonl", train
        else:
            assert main(train) == 0
            path = run / "checkpoint.json"
            argv = ["eval", "--config", str(micro["cfg"]), "--checkpoint",
                    str(run), "--corpus", str(micro["corpus"]),
                    "--out", str(micro["tmp"] / "e")]
        data = bytearray(path.read_bytes())
        data[len(data) // 2] = 0xFF
        path.write_bytes(bytes(data))
        capsys.readouterr()
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {module}: ")
        assert f"{path.name} is not UTF-8" in err


class TestCheckpointHeader:
    @pytest.mark.parametrize("edit", [
        lambda h: h["meta"]["hyper"].update(bogus=1),
        lambda h: h["meta"].pop("num_classes"),
        lambda h: h["meta"].update(shapes=list(h["meta"]["shapes"].values())),
        lambda h: h["meta"]["hyper"].update(gamma="x"),
        lambda h: h.update(meta=[h["meta"]]),
        lambda h: h["meta"]["hyper"].pop("gamma"),
        # out of range: the ModelHyper gate and FusionModel reject these
        lambda h: h["meta"]["hyper"].update(dropout=1.5),
        lambda h: h["meta"]["hyper"].update(fusion_hidden=0),
        lambda h: h["meta"]["hyper"].update(attn_heads=3),
        lambda h: h["meta"]["hyper"].update(tau=float("inf")),
        # the class statistics are refit with this regularization
        lambda h: h["meta"]["train_config"].pop("cov_eps"),
        lambda h: h["meta"]["train_config"].update(cov_eps="0.5"),
        lambda h: h["meta"]["train_config"].update(cov_eps=-0.5),
        lambda h: h["meta"]["train_config"].update(cov_eps=10**400),
        # the key of the cached test features
        lambda h: h["meta"].pop("test_crc32"),
        lambda h: h["meta"].update(test_crc32=[0, 0, 0]),
        lambda h: h["meta"]["test_crc32"].pop("V"),
        lambda h: h["meta"]["test_crc32"].update(X=0),
        lambda h: h["meta"]["test_crc32"].update(T="0"),
        lambda h: h["meta"]["test_crc32"].update(T=1.0),
        lambda h: h["meta"]["test_crc32"].update(T=True),
        lambda h: h["meta"]["test_crc32"].update(T=-1),
        lambda h: h["meta"]["test_crc32"].update(T=2**32),
    ], ids=["extra_hyper_key", "no_num_classes", "shapes_list",
            "gamma_string", "meta_list", "no_gamma", "dropout_1.5",
            "fusion_hidden_0", "attn_heads_3", "tau_infinity", "no_cov_eps",
            "cov_eps_string", "cov_eps_negative", "cov_eps_huge",
            "no_test_crc32", "test_crc32_list", "test_crc32_no_V",
            "test_crc32_extra_key", "test_crc32_string", "test_crc32_float",
            "test_crc32_bool", "test_crc32_negative", "test_crc32_2**32"])
    def test_malformed_header_exits_1(self, micro, capsys, edit):
        run = micro["tmp"] / "run"
        assert main(["train", "--config", str(micro["cfg"]), "--corpus",
                     str(micro["corpus"]), "--out", str(run),
                     "--seed", "0"]) == 0
        manifest = run / "checkpoint.json"
        lines = manifest.read_text().splitlines()
        header = json.loads(lines[0])
        edit(header)
        lines[0] = json.dumps(header, sort_keys=True)
        manifest.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["eval", "--config", str(micro["cfg"]), "--checkpoint",
                     str(run), "--corpus", str(micro["corpus"]),
                     "--out", str(micro["tmp"] / "e")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: checkpoint: {manifest}: malformed header")
        assert err.count("\n") == 1
        assert not (micro["tmp"] / "e").exists()


# ``mmood.cli.main`` on argv in a process whose address space is capped at
# 1 GiB; one BLAS thread keeps numpy's own start-up within the cap
CAPPED_MAIN = """
import os
import resource
import sys
os.environ["OPENBLAS_NUM_THREADS"] = "1"
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
import mmood.cli
sys.exit(mmood.cli.main(sys.argv[1:]))
"""


def _unallocatable(*args, **kwargs):
    raise AssertionError("parameters allocated from an unchecked header")


class TestCheckpointHeaderSizes:
    """A header size that disagrees with its stored tensors fails in the one
    name and shape table, before any parameter is allocated, so a huge one
    allocates nothing. The table names the first differing tensor in
    manifest order."""

    @pytest.mark.parametrize("edit, name, shape", [
        (lambda h: h["hyper"].update(fusion_hidden=10**12),
         "fusion.score.A.in.W", (8, 10**12)),
        (lambda h: h["hyper"].update(ffn_hidden=10**9),
         "encoder.A.block.ffn.lin1.W", (4, 10**9)),
        (lambda h: h["hyper"].update(contrast_dim=10**9),
         "contrast.proj.W", (8, 10**9)),
        (lambda h: h.update(num_classes=10**9),
         "class.W_cos", (10**9, 8)),
        (lambda h: h["shapes"].update(V=[3, 10**9]),
         "encoder.V.block.attn.k.W", (10**9, 10**9)),
    ], ids=["fusion_hidden", "ffn_hidden", "contrast_dim", "num_classes",
            "dim_v"])
    def test_named_before_the_model_is_built(self, micro, capsys, monkeypatch,
                                             edit, name, shape):
        run = _train_cli(micro, micro["tmp"] / "run")
        manifest = run / "checkpoint.json"
        lines = manifest.read_text().splitlines()
        header = json.loads(lines[0])
        stored = next(json.loads(line)["shape"] for line in lines[1:]
                      if json.loads(line)["name"] == name)
        edit(header["meta"])
        lines[0] = json.dumps(header, sort_keys=True)
        manifest.write_text("\n".join(lines) + "\n")

        monkeypatch.setattr("mmood.model.bind_flat", _unallocatable)
        capsys.readouterr()
        code = main(["eval", "--config", str(micro["cfg"]), "--checkpoint",
                     str(run), "--corpus", str(micro["corpus"]),
                     "--out", str(micro["tmp"] / "e")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: checkpoint: {manifest}: tensor {name!r} has shape "
            f"{tuple(stored)}, expected {shape}\n")
        assert not (micro["tmp"] / "e").exists()

    def test_missing_carrier_named_before_the_model_is_built(
            self, micro, capsys, monkeypatch):
        run = _train_cli(micro, micro["tmp"] / "run")
        manifest = run / "checkpoint.json"
        lines = manifest.read_text().splitlines()
        header = json.loads(lines[0])
        header["meta"]["hyper"]["fusion_hidden"] = 10**12
        lines = [json.dumps(header, sort_keys=True)] + [
            line for line in lines[1:]
            if json.loads(line)["name"] != "fusion.score.T.in.W"]
        manifest.write_text("\n".join(lines) + "\n")

        monkeypatch.setattr("mmood.model.bind_flat", _unallocatable)
        capsys.readouterr()
        code = main(["eval", "--config", str(micro["cfg"]), "--checkpoint",
                     str(run), "--corpus", str(micro["corpus"]),
                     "--out", str(micro["tmp"] / "e")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: checkpoint: {manifest}: tensor mismatch "
            "(missing=['fusion.score.T.in.W'], extra=[])\n")
        assert not (micro["tmp"] / "e").exists()

    def test_huge_size_allocates_nothing(self, micro):
        """With its address space capped at 1 GiB, a fresh process loading
        a header of ``fusion_hidden = 10**12`` exits 1 with the table's
        message, not a ``MemoryError``."""
        run = _train_cli(micro, micro["tmp"] / "run")
        manifest = run / "checkpoint.json"
        lines = manifest.read_text().splitlines()
        header = json.loads(lines[0])
        header["meta"]["hyper"]["fusion_hidden"] = 10**12
        lines[0] = json.dumps(header, sort_keys=True)
        manifest.write_text("\n".join(lines) + "\n")
        done = _fresh_process(CAPPED_MAIN, "eval", "--config", micro["cfg"],
                              "--checkpoint", run, "--corpus", micro["corpus"],
                              "--out", micro["tmp"] / "e")
        assert done.returncode == 1
        assert done.stderr == (
            f"error: checkpoint: {manifest}: tensor 'fusion.score.A.in.W' "
            f"has shape (8, 8), expected (8, {10**12})\n")
        assert not (micro["tmp"] / "e").exists()


class TestStateTooLargeForMemory:
    """With its address space capped at 1 GiB, a fresh ``mmood train`` whose
    parameters, optimizer moments or first step's activations do not fit
    exits 1 with one line that names the module and the value count or the
    step, and creates no ``--out``."""

    @pytest.mark.parametrize("fusion_hidden, message", [
        (100_000_000, "layers: cannot allocate 5400003965 parameter values"),
        (555_000, "train: cannot allocate the optimizer state of 29973645 "
                  "parameter values"),
        (300_000, "train: cannot allocate a step at stage coarse, epoch 0, "
                  "batch 0"),
    ], ids=["model", "optimizer", "step"])
    def test_train_exits_1(self, tmp_path, fusion_hidden, message):
        cfg = tmp_path / "huge.ini"  # the micro counts, the default dims
        cfg.write_text("[corpus]\nn_train = 48\nn_valid = 24\nn_test_id = 24\n"
                       "n_test_ood = 12\n\n[model]\n"
                       f"fusion_hidden = {fusion_hidden}\n")
        assert main(["synth", "--config", str(cfg), "--out",
                     str(tmp_path / "c"), "--seed", "0"]) == 0
        done = _fresh_process(CAPPED_MAIN, "train", "--config", cfg,
                              "--corpus", tmp_path / "c",
                              "--out", tmp_path / "run")
        assert done.returncode == 1
        assert done.stderr.startswith(f"error: {message} (")
        assert done.stderr.count("\n") == 1
        assert not (tmp_path / "run").exists()


def _edit_line(path, line, edit):
    """Apply ``edit`` to the JSON object on ``line`` (0-based) of ``path``."""
    lines = path.read_text().splitlines()
    obj = json.loads(lines[line])
    edit(obj)
    lines[line] = json.dumps(obj, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")


class TestWholeNumberSizes:
    """A size, a count or a checksum in a corpus manifest, a size or the
    checksum in a checkpoint header or a dimension of a tensor entry's shape
    must be a JSON integer: a string, a float or a bool fails
    as a ``FormatError`` that names the manifest, not as a value that
    ``int()`` converts or a traceback."""

    @pytest.mark.parametrize("target, line, edit", [
        ("corpus", 0, lambda h: h.update(num_classes=3.9)),
        ("corpus", 0, lambda h: h.update(num_classes="3")),
        ("corpus", 0, lambda h: h["modalities"]["T"].update(seq_len="3")),
        ("corpus", 0, lambda h: h["modalities"]["T"].update(seq_len=3.0)),
        ("corpus", 0, lambda h: h["modalities"]["T"].update(bytes="288")),
        ("corpus", 0, lambda h: h["modalities"]["T"].update(bytes=288.0)),
        ("corpus", 0, lambda h: h["modalities"]["T"].update(records=False)),
        ("corpus", 0, lambda h: h["modalities"]["V"].update(crc32="0")),
        ("checkpoint", 0, lambda h: h["meta"].update(num_classes=3.9)),
        ("checkpoint", 0, lambda h: h["meta"].update(num_classes="3")),
        ("checkpoint", 0, lambda h: h["meta"]["shapes"].update(V=[3.0, 8])),
        ("checkpoint", 0, lambda h: h["meta"]["shapes"].update(V=[3, 8.0])),
        ("checkpoint", 0, lambda h: h.update(crc32=str(h["crc32"]))),
        ("checkpoint", 0, lambda h: h.update(crc32=float(h["crc32"]))),
        ("checkpoint", 1, lambda e: e.update(shape=[8, 0.5])),
        ("checkpoint", 1, lambda e: e.update(shape=[8, "8"])),
        ("checkpoint", 1, lambda e: e.update(shape=[8, False])),
    ], ids=["corpus-num_classes-3.9", "corpus-num_classes-str",
            "corpus-seq_len-str", "corpus-seq_len-float", "corpus-bytes-str",
            "corpus-bytes-float", "corpus-records-false", "corpus-crc32-str",
            "checkpoint-num_classes-3.9", "checkpoint-num_classes-str",
            "checkpoint-shape-len-float", "checkpoint-shape-dim-float",
            "checkpoint-crc32-str", "checkpoint-crc32-float",
            "tensor-shape-0.5", "tensor-shape-str", "tensor-shape-false"])
    def test_eval_exits_1_naming_the_manifest(self, micro, capsys, target,
                                              line, edit):
        run = _train_cli(micro, micro["tmp"] / "run")
        manifest = micro["corpus"] / "manifest.jsonl" if target == "corpus" \
            else run / "checkpoint.json"
        _edit_line(manifest, line, edit)
        capsys.readouterr()
        out = micro["tmp"] / "e"
        assert _eval_cli(micro, run, out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(manifest) in err
        assert not out.exists()


class TestFourHundredDigitInts:
    """An int of 400 digits, too large for a float or a numpy size, exits 1
    with one ``error:`` line instead of an ``OverflowError`` or
    ``ValueError`` traceback."""

    @pytest.mark.parametrize("edit", [
        lambda m: m["hyper"].update(gamma=10**400),
        lambda m: m["hyper"].update(tau=10**400),
        lambda m: m["hyper"].update(fusion_hidden=10**400),
        lambda m: m["hyper"].update(ffn_hidden=10**400),
        lambda m: m["hyper"].update(contrast_dim=10**400),
        lambda m: m.update(num_classes=10**400),
    ], ids=["gamma", "tau", "fusion_hidden", "ffn_hidden", "contrast_dim",
            "num_classes"])
    def test_checkpoint_header_exits_1(self, micro, capsys, edit):
        run = _train_cli(micro, micro["tmp"] / "run")
        manifest = run / "checkpoint.json"
        _edit_line(manifest, 0, lambda header: edit(header["meta"]))
        capsys.readouterr()
        out = micro["tmp"] / "e"
        assert _eval_cli(micro, run, out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: checkpoint: {manifest}: ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_ini_model_size_exits_1(self, micro, capsys):
        micro["cfg"].write_text(ini_with("model",
                                         {"fusion_hidden": str(10**400)}))
        out = micro["tmp"] / "run"
        capsys.readouterr()
        assert main(["train", "--config", str(micro["cfg"]), "--corpus",
                     str(micro["corpus"]), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: layers: cannot allocate ")
        assert err.count("\n") == 1
        assert not out.exists()


class TestCheckpointTensorTable:
    """Every stored name and shape is checked against the model's table
    before any blob byte is read, so the offending tensor is named."""

    @staticmethod
    def _eval_without_blob_read(micro, capsys, monkeypatch, run):
        def unread(*args, **kwargs):
            raise AssertionError("blob read before names and shapes checked")

        monkeypatch.setattr("mmood.checkpoint.read_blob", unread)
        capsys.readouterr()
        code = main(["eval", "--config", str(micro["cfg"]), "--checkpoint",
                     str(run), "--corpus", str(micro["corpus"]),
                     "--out", str(micro["tmp"] / "e")])
        assert code == 1
        assert not (micro["tmp"] / "e").exists()
        return capsys.readouterr().err

    @pytest.mark.parametrize("name", ["encoder.A.out_proj.W", "cache.labels",
                                      "cache.test_features"])
    def test_reshaped_tensor_named(self, micro, capsys, monkeypatch, name):
        # one more value than stored, so the layout after it is off too
        run = _train_cli(micro, micro["tmp"] / "run")
        manifest = run / "checkpoint.json"
        lines = manifest.read_text().splitlines()
        i = next(i for i, line in enumerate(lines)
                 if json.loads(line).get("name") == name)
        entry = json.loads(lines[i])
        stored = tuple(entry["shape"])
        entry["shape"] = [*stored[:-1], stored[-1] + 1]
        lines[i] = json.dumps(entry, sort_keys=True)
        manifest.write_text("\n".join(lines) + "\n")
        err = self._eval_without_blob_read(micro, capsys, monkeypatch, run)
        assert err == (f"error: checkpoint: {manifest}: tensor {name!r} has "
                       f"shape {tuple(entry['shape'])}, expected {stored}\n")

    def test_name_mismatch_carries_manifest_path(self, micro, capsys,
                                                 monkeypatch):
        run = _train_cli(micro, micro["tmp"] / "run")
        manifest = run / "checkpoint.json"
        manifest.write_text(manifest.read_text().replace('"class.W_cos"',
                                                         '"class.W_coz"'))
        err = self._eval_without_blob_read(micro, capsys, monkeypatch, run)
        assert err == (f"error: checkpoint: {manifest}: tensor mismatch "
                       "(missing=['class.W_cos'], extra=['class.W_coz'])\n")


def _train_cli(micro, out, *extra):
    assert main(["train", "--config", str(micro["cfg"]), "--corpus",
                 str(micro["corpus"]), "--out", str(out), "--seed", "0",
                 *extra]) == 0
    return out


def _forget_test_key(run):
    """Change the checkpoint's ``test_crc32`` of T, leaving the blob and its
    crc32 as they are, so no corpus matches its cached test features."""
    manifest = run / "checkpoint.json"
    lines = manifest.read_text().splitlines()
    header = json.loads(lines[0])
    header["meta"]["test_crc32"]["T"] ^= 1
    lines[0] = json.dumps(header, sort_keys=True)
    manifest.write_text("\n".join(lines) + "\n")


def _eval_bytes(micro, run, corpus, out) -> dict:
    """``{file name: bytes}`` of the directory ``mmood eval`` writes with
    checkpoint ``run`` on ``corpus``, every scorer."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["eval", "--config", str(micro["cfg"]), "--checkpoint",
                     str(run), "--corpus", str(corpus), "--out",
                     str(out)]) == 0
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


class TestCachedTestFeatures:
    """``mmood train`` caches the test split's features in the checkpoint,
    keyed by each modality's crc32 of the test sequences; ``mmood eval``
    reuses them on the same test records and runs a feature pass on any
    other, with the same output bytes either way."""

    @staticmethod
    def _counted(monkeypatch) -> list:
        calls, real = [], FusionModel.features_for

        def features_for(model, corpus, rows):
            calls.append(len(rows))
            return real(model, corpus, rows)

        monkeypatch.setattr(FusionModel, "features_for", features_for)
        return calls

    def test_hit_runs_no_feature_pass_and_miss_writes_the_same(
            self, micro, monkeypatch):
        run = _train_cli(micro, micro["tmp"] / "run")

        def no_pass(*args):
            raise AssertionError("eval ran a feature pass on a cache hit")

        with monkeypatch.context() as patch:
            patch.setattr(FusionModel, "features_for", no_pass)
            hit = _eval_bytes(micro, run, micro["corpus"], micro["tmp"] / "a")
        _forget_test_key(run)
        calls = self._counted(monkeypatch)
        miss = _eval_bytes(micro, run, micro["corpus"], micro["tmp"] / "b")
        assert calls == [36]
        assert miss == hit

    def test_other_corpus_of_the_same_shapes_misses(self, micro, monkeypatch):
        run = _train_cli(micro, micro["tmp"] / "run")
        other = micro["tmp"] / "other"
        assert main(["synth", "--config", str(micro["cfg"]), "--out",
                     str(other), "--seed", "1"]) == 0
        calls = self._counted(monkeypatch)
        missed = _eval_bytes(micro, run, other, micro["tmp"] / "a")
        assert calls == [36]
        forced = shutil.copytree(run, micro["tmp"] / "forced")
        _forget_test_key(forced)
        assert _eval_bytes(micro, forced, other, micro["tmp"] / "b") == missed
        assert calls == [36, 36]

    def test_cached_features_are_the_fresh_pass(self, micro):
        corpus = load_corpus(micro["corpus"])
        run = _train_cli(micro, micro["tmp"] / "run")
        model, *_, (key, feats), meta = load_checkpoint(run)
        rows = np.flatnonzero(corpus.splits == "test")
        assert key == rows_crc32(corpus, rows) == meta["test_crc32"]
        assert np.array_equal(feats, model.features_for(corpus, rows))

    def test_no_id_test_record_caches_nothing(self, micro):
        corpus = load_corpus(micro["corpus"])
        ood_only = take(corpus, np.flatnonzero(
            (corpus.splits != "test") | is_ood(corpus)))
        cfg = load_config(micro["cfg"])
        run = micro["tmp"] / "run"
        run_training(ood_only, cfg, run, [0])
        model, *_, (key, feats), _ = load_checkpoint(run)
        assert key == NO_TEST_KEY
        assert feats.shape == (0, model.d_shared)


class TestStreamedBlob:
    """``save_checkpoint`` writes each tensor into the open blob file in
    sorted-name order, so no copy of the whole blob is built."""

    @pytest.fixture()
    def trained(self, micro):
        cfg = load_config(micro["cfg"])
        return train(load_corpus(micro["corpus"]), cfg.train, cfg.oodgen)

    def test_blob_is_the_sorted_concatenation(self, micro, trained):
        feats = np.arange(12.0 * trained.model.d_shared).reshape(12, -1)
        key = {"T": 1, "V": 2, "A": 3}
        run = save_checkpoint(trained, micro["tmp"] / "run", key,
                              feats).parent
        tensors = {**{name: p.value for name, p
                      in trained.model.named_params().items()},
                   "cache.features": trained.train_features,
                   "cache.labels": trained.train_labels,
                   "cache.test_features": feats}
        blob = (run / "checkpoint.blob").read_bytes()
        assert blob == np.concatenate([
            np.asarray(tensors[name], "<f8").ravel()
            for name in sorted(tensors)]).tobytes()
        header = json.loads((run / "checkpoint.json").read_text()
                            .splitlines()[0])
        assert header["crc32"] == zlib.crc32(blob)
        assert header["meta"]["test_crc32"] == key

    def test_peak_stays_below_a_tenth_of_the_blob(self, micro, trained):
        # 20,000 cached train rows make the blob some 1.3 MB
        n = 20_000
        big = replace(trained, train_features=np.ones(
            (n, trained.model.d_shared)), train_labels=np.arange(n) % 3)
        tracemalloc.start()
        try:
            run = save_checkpoint(big, micro["tmp"] / "run", NO_TEST_KEY,
                                  np.empty((0, 8))).parent
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = (run / "checkpoint.blob").stat().st_size
        assert size > 8 * n * trained.model.d_shared
        assert peak < size / 10


class TestBlankConfigAndScorer:
    """A blank ``--config`` or ``--scorer`` is an error, as a blank
    ``--out`` is, not a flag left out."""

    @pytest.mark.parametrize("blank", ["", "  "])
    @pytest.mark.parametrize("command", ["synth", "train", "eval", "ablate"])
    def test_blank_config_exits_1(self, micro, capsys, command, blank):
        out, corpus = micro["tmp"] / "out", str(micro["corpus"])
        extra = {"synth": ["--seed", "0"],
                 "train": ["--corpus", corpus, "--seed", "0"],
                 "eval": ["--corpus", corpus, "--checkpoint",
                          str(micro["tmp"] / "run")],
                 "ablate": ["--corpus", corpus]}[command]
        _exits_1_writing_nothing(
            capsys, [command, "--config", blank, "--out", str(out), *extra],
            out, "cli: --config is blank; pass a config file or leave the "
            "flag out")

    @pytest.mark.parametrize("blank", ["", "  "])
    def test_blank_scorer_exits_1(self, micro, capsys, blank):
        run = _train_cli(micro, micro["tmp"] / "run")
        out = micro["tmp"] / "out"
        _exits_1_writing_nothing(
            capsys, ["eval", "--config", str(micro["cfg"]), "--checkpoint",
                     str(run), "--corpus", str(micro["corpus"]), "--out",
                     str(out), "--scorer", blank], out,
            "config: scorer must be one of ('all', 'mahalanobis', 'energy', "
            f"'msp', 'maxlogit', 'residual', 'vim'), got {blank!r}")


class TestScoringCore:
    """The one scoring core and JSON-lines writer against the code they
    replaced (tests/oracles.py)."""

    @pytest.fixture()
    def trained_micro(self, micro):
        cfg = load_config(micro["cfg"])
        corpus = load_corpus(micro["corpus"])
        return corpus, train(corpus, cfg.train, cfg.oodgen)

    def test_test_row_matches_oracle(self, trained_micro):
        corpus, trained = trained_micro
        row, feats = mmood.cli._test_row(trained, corpus)
        assert {"acc", "wf1", "auroc", "fpr95"} <= set(row)
        assert row == mahalanobis_row_oracle(trained, corpus)
        assert np.array_equal(feats, trained.model.features_for(
            corpus, np.flatnonzero(corpus.splits == "test")))

    def test_test_row_without_ood_matches_oracle(self, trained_micro):
        corpus, trained = trained_micro
        keep = ~(is_ood(corpus) & (corpus.splits == "test"))
        id_only = take(corpus, np.flatnonzero(keep))
        assert len(split(id_only, "test")) == 24
        row, feats = mmood.cli._test_row(trained, id_only)
        assert set(row) == {"acc", "wf1"}
        assert feats.shape == (24, trained.model.d_shared)
        assert row == mahalanobis_row_oracle(trained, id_only)

    def test_score_files_match_oracle_writer(self, micro):
        run = _train_cli(micro, micro["tmp"] / "run")
        test = split(load_corpus(micro["corpus"]), "test")
        out, ref = micro["tmp"] / "eval", micro["tmp"] / "ref"
        ref.mkdir()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run_eval(run, test, list(SCORERS), out)
            model, stats, train_feats, *_ = load_checkpoint(run)
            feats = model.features_for(test, np.arange(len(test)))
            logits = model.logits_for(feats)
            for scorer in SCORERS:
                state = fit_scorer(scorer, train_feats,
                                   model.logits_for(train_feats), stats,
                                   test.num_classes)
                scores = apply_scorer(state, feats, logits)
                name = f"scores_{scorer}.jsonl"
                score_file_oracle(ref / name, test, ~is_ood(test), scores,
                                  normalize_scores(scores))
                assert (out / name).read_bytes() == (ref / name).read_bytes()

    def test_ablation_full_same_as_no_flag(self, micro):
        plain = _train_cli(micro, micro["tmp"] / "plain")
        full = _train_cli(micro, micro["tmp"] / "full", "--ablation", "full")
        for name in ("checkpoint.json", "checkpoint.blob", "results.csv"):
            assert (plain / name).read_bytes() == (full / name).read_bytes()
        logs = [(out / "train_log.jsonl").read_text().splitlines()
                for out in (plain, full)]
        assert logs[0][1:] == logs[1][1:]
        headers = [json.loads(log[0]) for log in logs]
        for header in headers:
            header.pop("time")
        assert headers[0] == headers[1] == {"event": "start", "seed": 0,
                                            "variant": "Full"}


class TestArgumentLists:
    @pytest.mark.parametrize("argv, message", [
        (["ablate", "--seed", ""], "--seed names no seed"),
        (["train", "--seed", ","], "--seed names no seed"),
        (["train", "--seed", "0,0"], "duplicate seed 0 in --seed"),
        (["ablate", "--ablation", ","], "--ablation names no variant"),
        (["ablate", "--ablation", "full,add,full"],
         "duplicate variant full in --ablation"),
    ])
    def test_empty_or_duplicate_list_exits_1(self, micro, capsys, argv,
                                             message):
        out = micro["tmp"] / "lists"
        capsys.readouterr()
        code = main([*argv, "--config", str(micro["cfg"]), "--corpus",
                     str(micro["corpus"]), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: cli: ")
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["synth", "train", "eval", "ablate"])
    def test_help_lists_config_and_out_first(self, capsys, command):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        options = capsys.readouterr().out.split("options:")[1]
        assert re.findall(r"--[a-z]+", options)[:3] == ["--help", "--config",
                                                        "--out"]


# corpus config edit and error for each failed eval that has a checkpoint
EVAL_FAILURES = {
    "class_count": (("num_classes = 3", "num_classes = 5"), "5 classes"),
    "no_ood": (("n_test_ood = 12", "n_test_ood = 0"),
               "cli: corpus test split holds 24 ID and 0 OOD records; eval "
               "needs at least one of each"),
    "all_ood": (("n_test_id = 24", "n_test_id = 0"),
                "cli: corpus test split holds 0 ID and 12 OOD records; eval "
                "needs at least one of each"),
}


class TestFailedEvalWritesNothing:
    @pytest.mark.parametrize("failure", ["class_count", "no_checkpoint",
                                         "no_ood", "all_ood"])
    def test_out_dir_not_created(self, micro, capsys, failure):
        run, corpus = micro["tmp"] / "run", micro["corpus"]
        if failure in EVAL_FAILURES:
            _train_cli(micro, run)
            (old, new), message = EVAL_FAILURES[failure]
            cfg2 = micro["tmp"] / "run2.ini"
            cfg2.write_text(MICRO_INI.replace(old, new))
            corpus = micro["tmp"] / "corpus2"
            assert main(["synth", "--config", str(cfg2), "--out", str(corpus),
                         "--seed", "0"]) == 0
        capsys.readouterr()
        out = micro["tmp"] / "e"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["eval", "--config", str(micro["cfg"]), "--checkpoint",
                         str(run), "--corpus", str(corpus), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        if failure in EVAL_FAILURES:
            assert EVAL_FAILURES[failure][1] in err
        assert not out.exists()


class TestOodOnlyTestSplit:
    """A test split with no ID record gives ``train`` and ``ablate`` a row
    without test columns, where ``eval`` fails (see EVAL_FAILURES)."""

    @pytest.mark.parametrize("command, table", [
        (["train"], "results.csv"),
        (["ablate", "--ablation", "full,no_binary"], "ablation.csv"),
    ], ids=["train", "ablate"])
    def test_exits_0_without_test_columns(self, micro, command, table):
        cfg = micro["tmp"] / "ood_only.ini"
        cfg.write_text(MICRO_INI.replace("n_test_id = 24", "n_test_id = 0"))
        corpus, out = micro["tmp"] / "ood_only", micro["tmp"] / "out"
        assert main(["synth", "--config", str(cfg), "--out", str(corpus),
                     "--seed", "0"]) == 0
        assert main([*command, "--config", str(cfg), "--corpus", str(corpus),
                     "--out", str(out)]) == 0
        header = (out / table).read_text().splitlines()[0].split(",")
        assert not {"acc", "wf1", "auroc"} & set(header)


class TestFailedReportWritesNothing:
    def test_missing_eval_dir_not_created(self, tmp_path, capsys):
        missing = tmp_path / "missing"
        assert main(["report", str(missing)]) == 1
        assert "run eval first" in capsys.readouterr().err
        assert not missing.exists()

    @pytest.mark.parametrize("broken", ["no_report", "no_scores",
                                        "bad_score_row", "report_is_dir",
                                        "scores_is_dir"])
    def test_out_dir_not_created(self, micro, capsys, broken):
        run, evaled = micro["tmp"] / "run", micro["tmp"] / "eval"
        _train_cli(micro, run)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["eval", "--config", str(micro["cfg"]), "--checkpoint",
                         str(run), "--corpus", str(micro["corpus"]), "--out",
                         str(evaled), "--scorer", "msp"]) == 0
        scores = evaled / "scores_msp.jsonl"
        if broken == "no_report":
            (evaled / "eval_report.json").unlink()
        elif broken == "no_scores":
            scores.unlink()
        elif broken.endswith("_is_dir"):
            path = evaled / "eval_report.json" \
                if broken == "report_is_dir" else scores
            path.unlink()
            path.mkdir()
        else:
            scores.write_text(scores.read_text() + "{}\n")
        capsys.readouterr()
        out = micro["tmp"] / "new"
        assert main(["report", str(evaled), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cli: ")
        path = evaled / "eval_report.json" if "report" in broken else scores
        if broken.endswith("_is_dir"):
            assert err == f"error: cli: {path} is not a file\n"
        elif broken.startswith("no_"):
            assert err.startswith(f"error: cli: {path} not found; ")
        assert not out.exists()


class TestReportRecordCount:
    """``eval_report.json`` counts the test records scored, and each score
    file it lists must hold exactly that many rows; otherwise one ``error:
    cli:`` line names both counts and no ``--out`` is created. The count is
    checked before the ids, so an extra row that repeats an id fails on its
    count."""

    @pytest.mark.parametrize("scorer, edit, rows", [
        ("msp", lambda lines: [], 0),
        ("vim", lambda lines: lines[:5], 5),
        ("msp", lambda lines: lines + lines[-1:], 37),
    ], ids=["empty-fast", "cut-fast", "one-extra-fast"])
    def test_row_count_mismatch_exits_1(self, micro, capsys, scorer, edit,
                                        rows):
        run, evaled = _train_cli(micro, micro["tmp"] / "run"), \
            micro["tmp"] / "eval"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["eval", "--config", str(micro["cfg"]), "--checkpoint",
                         str(run), "--corpus", str(micro["corpus"]), "--out",
                         str(evaled)]) == 0
        assert json.loads((evaled / "eval_report.json").read_text())[
            "records"] == 36
        scores = evaled / f"scores_{scorer}.jsonl"
        scores.write_text("".join(edit(scores.read_text().splitlines(
            keepends=True))))
        capsys.readouterr()
        out = micro["tmp"] / "new"
        assert main(["report", str(evaled), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: cli: {scores}: holds {rows} score rows, but the eval "
            "report scored 36 records\n")
        assert not out.exists()

    @pytest.mark.parametrize("records", [0, -1, True, 2.0, "2", "missing"])
    def test_records_not_a_count_exits_1(self, tmp_path, capsys, records):
        evaled = _eval_dir(tmp_path / "eval", _score_rows(["a", "b"]),
                           records=records)
        if records == "missing":
            report = evaled / "eval_report.json"
            payload = json.loads(report.read_text())
            del payload["records"]
            report.write_text(json.dumps(payload))
        out = tmp_path / "new"
        assert main(["report", str(evaled), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cli: {evaled / 'eval_report.json'}: "
                              "malformed eval report (")
        assert "records" in err and err.count("\n") == 1
        assert not out.exists()


class TestDeeplyNestedJson:
    """A JSON line nested too deep to decode is a malformed input: one
    ``error:`` line and exit 1, not a ``RecursionError`` traceback."""

    @pytest.mark.parametrize("target", ["corpus_manifest", "checkpoint",
                                        "eval_report", "scores"])
    def test_exits_1_with_one_error_line(self, micro, capsys, target):
        run, evaled = micro["tmp"] / "run", micro["tmp"] / "eval"
        _train_cli(micro, run)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["eval", "--config", str(micro["cfg"]), "--checkpoint",
                         str(run), "--corpus", str(micro["corpus"]), "--out",
                         str(evaled), "--scorer", "msp"]) == 0
        out = micro["tmp"] / "new"
        nested = "[" * 100_000
        path, line, argv = {
            # the corpus header, a checkpoint entry, the report's first line
            # and a score row after the good ones
            "corpus_manifest": (micro["corpus"] / "manifest.jsonl", 0,
                                ["train", "--config", str(micro["cfg"]),
                                 "--corpus", str(micro["corpus"])]),
            "checkpoint": (run / "checkpoint.json", 1,
                           ["eval", "--config", str(micro["cfg"]),
                            "--checkpoint", str(run),
                            "--corpus", str(micro["corpus"])]),
            "eval_report": (evaled / "eval_report.json", 0,
                            ["report", str(evaled)]),
            "scores": (evaled / "scores_msp.jsonl", None,
                       ["report", str(evaled)]),
        }[target]
        lines = path.read_text().splitlines()
        if line is None:
            lines.append(nested)
        else:
            lines[line] = nested
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        if target == "scores":  # 36 rows, then the nested line
            assert err == f"error: cli: {path} line 37: malformed score row\n"
        else:
            assert "RecursionError" in err
        assert not out.exists()


class TestDirectCallLists:
    """The seed and variant checks hold for library callers too, and run
    before anything is written or trained."""

    @pytest.mark.parametrize("seeds, message", [
        ([], "--seed names no seed"),
        ([0, 0], "duplicate seed 0 in --seed"),
    ])
    def test_run_training(self, micro, seeds, message):
        out = micro["tmp"] / "direct"
        with pytest.raises(ParameterError, match=message):
            run_training(load_corpus(micro["corpus"]),
                         load_config(micro["cfg"]), out, seeds)
        assert not out.exists()

    @pytest.mark.parametrize("variants, seeds, message", [
        (["Full"], [], "--seed names no seed"),
        (["Full"], [0, 0], "duplicate seed 0 in --seed"),
        ([], [0], "--ablation names no variant"),
        (["Full", "Fusion (Add)", "Full"], [0],
         "duplicate variant full in --ablation"),
        (["Full", "Bogus"], [0], "train: unknown ablation variant 'Bogus'"),
    ])
    def test_run_ablation(self, micro, variants, seeds, message):
        out = micro["tmp"] / "direct"
        with pytest.raises(ParameterError, match=message):
            run_ablation(load_corpus(micro["corpus"]),
                         load_config(micro["cfg"]), variants, seeds, out)
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["--seed", "0,0"], "duplicate seed 0 in --seed"),
        (["--ablation", "full,full"], "duplicate variant full in --ablation"),
        (["--seed", "a"], "bad --seed list 'a'"),
    ])
    def test_ablation_script_exits_1(self, tmp_path, monkeypatch, capsys,
                                     argv, message):
        out = tmp_path / "suite"
        assert _run_ablation_script(monkeypatch, out, *argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cli: ") and message in err
        assert not out.exists()

    def test_ablation_script_runs(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "suite"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert _run_ablation_script(monkeypatch, out, "--seed", "0",
                                        "--ablation", "full") == 0
        rows = (out / "ablation.csv").read_text().splitlines()
        assert len(rows) == 2 and rows[1].startswith("Full,0,")
        assert re.search(r"^Full +auroc=\d\.\d{4} \+/- 0\.0000$",
                         capsys.readouterr().out, re.MULTILINE)


def _run_ablation_script(monkeypatch, out, *argv) -> int:
    script = Path(__file__).parents[1] / "scripts" / "run_ablation_suite.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--out", str(out), *argv])
    return runpy.run_path(str(script))["main"]()


class TestNestedConfigKey:
    def test_train_exits_1(self, micro, capsys):
        cfg = micro["tmp"] / "nested.ini"
        cfg.write_text(MICRO_INI.replace("[train]\n", "[train]\nmodel = x\n"))
        out = micro["tmp"] / "run"
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--corpus",
                     str(micro["corpus"]), "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            "error: config: unknown key 'model' in [train]\n"
        assert not out.exists()


class TestClassCountCheckedFirst:
    def test_train_fails_before_any_batch(self, micro, capsys, monkeypatch):
        # classes 3..49 have no record, so no covariance can be fitted
        manifest = micro["corpus"] / "manifest.jsonl"
        lines = manifest.read_text().splitlines()
        header = json.loads(lines[0])
        header["num_classes"] = 50
        lines[0] = json.dumps(header, sort_keys=True)
        manifest.write_text("\n".join(lines) + "\n")

        def no_batches(*args):
            raise AssertionError("a batch was drawn")
        monkeypatch.setattr("mmood.train.make_batches", no_batches)
        out = micro["tmp"] / "run"
        _exits_1_writing_nothing(
            capsys, ["train", "--config", str(micro["cfg"]), "--corpus",
                     str(micro["corpus"]), "--out", str(out)],
            out, "scoring: class 3 has 0 training records, need >= 2 for a "
                 "covariance")


class TestNoValidatedEpoch:
    @pytest.mark.parametrize("edit", [("n_valid = 24", "n_valid = 0"),
                                      ("stage2_epochs = 2",
                                       "stage2_epochs = 0")])
    def test_no_sentinel_in_results(self, micro, edit):
        cfg = micro["tmp"] / "noval.ini"
        cfg.write_text(MICRO_INI.replace(*edit))
        corpus, run = micro["tmp"] / "noval", micro["tmp"] / "run"
        assert main(["synth", "--config", str(cfg), "--out", str(corpus),
                     "--seed", "0"]) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["train", "--config", str(cfg), "--corpus",
                         str(corpus), "--out", str(run), "--seed", "0"]) == 0
        for name in ("results.csv", "results_summary.csv"):
            text = (run / name).read_text()
            assert "-1.0" not in text and "None" not in text
            assert "val_wf1" not in text and "best_epoch" not in text
        log = (run / "train_log.jsonl").read_text().splitlines()
        assert json.loads(log[-1]) == {"event": "end", "best": {}}
        assert load_checkpoint(run)[4]["best"] == {}


def _exits_1_writing_nothing(capsys, argv, out, err):
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {err}\n"
    assert not out.exists()


class TestNegativeSeed:
    """A seed below 0 fails with a pipeline error before anything is
    written, at every entry point that takes one."""

    @pytest.mark.parametrize("command, seed", [("train", "-3"),
                                               ("ablate", "-1"),
                                               ("synth", "-1")])
    def test_seed_flag(self, micro, capsys, command, seed):
        out = micro["tmp"] / "neg"
        argv = [command, "--config", str(micro["cfg"]), "--out", str(out),
                f"--seed={seed}"]
        if command != "synth":
            argv += ["--corpus", str(micro["corpus"])]
        _exits_1_writing_nothing(capsys, argv, out, f"cli: bad --seed list "
                                 f"'{seed}'; seeds must be >= 0")

    def test_config_seed(self, micro, capsys):
        cfg = micro["tmp"] / "neg.ini"
        cfg.write_text(MICRO_INI.replace("[train]\n", "[train]\nseed = -2\n"))
        out = micro["tmp"] / "neg"
        _exits_1_writing_nothing(
            capsys, ["train", "--config", str(cfg), "--corpus",
                     str(micro["corpus"]), "--out", str(out)],
            out, "train: seed must be >= 0, got -2")


class TestModelSizes:
    @pytest.mark.parametrize("key, value, low", [
        ("attn_heads", 0, 1), ("attn_heads", -4, 1), ("ffn_hidden", -1, 0),
        ("contrast_dim", -2, 0),
    ])
    def test_train_exits_1(self, micro, capsys, key, value, low):
        cfg = micro["tmp"] / "size.ini"
        cfg.write_text(MICRO_INI.replace("[model]\nattn_heads = 2\n",
                                         f"[model]\n{key} = {value}\n"))
        out = micro["tmp"] / "run"
        _exits_1_writing_nothing(
            capsys, ["train", "--config", str(cfg), "--corpus",
                     str(micro["corpus"]), "--out", str(out)],
            out, f"model: {key} must be >= {low}, got {value}")


class TestRemovedKeys:
    """Checkpoints and configs written when the joint schedule, the AdamW
    constants and unshared pseudo-OOD weights were still options."""

    def test_old_checkpoint_header_evaluates_identically(self, micro):
        run = _train_cli(micro, micro["tmp"] / "run")
        outs = [micro["tmp"] / "e_new", micro["tmp"] / "e_old"]

        def evaluate(out):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert main(["eval", "--config", str(micro["cfg"]),
                             "--checkpoint", str(run), "--corpus",
                             str(micro["corpus"]), "--out", str(out)]) == 0

        evaluate(outs[0])
        manifest = run / "checkpoint.json"
        lines = manifest.read_text().splitlines(keepends=True)
        header = json.loads(lines[0])
        assert "joint_objective" not in header["meta"]["train_config"]
        header["meta"]["train_config"].update(
            adam_beta1=0.9, adam_beta2=0.999, adam_eps=1e-8,
            joint_objective=False)
        header["meta"]["ood_config"]["share_lambda"] = True
        manifest.write_text(json.dumps(header, sort_keys=True) + "\n"
                            + "".join(lines[1:]))
        evaluate(outs[1])
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == \
                (outs[1] / name).read_bytes(), name

    @pytest.mark.parametrize("section, key", [
        ("train", "joint_objective"), ("train", "adam_beta1"),
        ("train", "adam_beta2"), ("train", "adam_eps"),
        ("oodgen", "share_lambda"),
    ])
    def test_removed_config_key_exits_1(self, micro, capsys, section, key):
        cfg = micro["tmp"] / "old.ini"
        cfg.write_text(f"[{section}]\n{key} = 1\n")
        out = micro["tmp"] / "run"
        _exits_1_writing_nothing(
            capsys, ["train", "--config", str(cfg), "--corpus",
                     str(micro["corpus"]), "--out", str(out)],
            out, f"config: unknown key '{key}' in [{section}]")


class TestConfigGate:
    """Settings that once ran with a wrong result, escaped as a raw
    RuntimeWarning, or failed late and left --out behind: each exits 1
    with one error line that names the key, and writes nothing."""

    DIVERGED = "train: non-finite value at stage "

    @pytest.mark.parametrize("section, key, value, error", [
        ("model", "fusion_hidden", "0", "model: fusion_hidden must be"),
        ("model", "dropout", "1.5", "model: dropout must be"),
        ("model", "dropout", "nan", "model: dropout must be"),
        ("model", "attn_heads", "3", "model: attn_heads 3 must divide"),
        ("oodgen", "mix_count", "20", "train: mix_count must be"),
        ("train", "batch_size", "200", "train: batch_size must be"),
        ("train", "learning_rate", "nan", "train: learning_rate must be"),
        ("train", "patience", "-1", "train: patience must be"),
        ("model", "tau", "inf", "model: tau must be"),
        ("train", "weight_decay", "inf", "train: weight_decay must be"),
        ("model", "gamma", "inf", "model: gamma must be"),
        ("oodgen", "alpha", "inf", "oodgen: alpha must be"),
        ("train", "learning_rate", "1e300", DIVERGED),
        ("train", "weight_decay", "1e300", DIVERGED),
        ("model", "gamma", "1e300", DIVERGED),
        ("model", "tau", "1e-300", DIVERGED),
        ("corpus", "sigma_t", "nan", "corpus: sigma_t must be"),
        ("corpus", "class_sigma_spread_t", "nan",
         "corpus: class_sigma_spread_t must be"),
        ("corpus", "n_train", "-3", "corpus: n_train must be"),
        ("corpus", "radius_v", "inf", "corpus: radius_v must be"),
        ("corpus", "radius_t", "1e300", "corpus: modality T draws overflow "
         "float32 storage (radius_t = 1e+300"),
        ("corpus", "sigma_v", "1e300", "corpus: modality V draws overflow "
         "float32 storage (radius_v = 5.0, sigma_v = 1e+300"),
        ("corpus", "class_sigma_spread_a", "1e300", "corpus: modality A draws "
         "overflow float32 storage (radius_a = 5.0, sigma_a = 0.3, "
         "class_sigma_spread_a = 1e+300)"),
    ])
    def test_exits_1_writing_nothing(self, micro, capsys, section, key,
                                     value, error):
        cfg, out = micro["tmp"] / "gate.ini", micro["tmp"] / "out"
        cfg.write_text(ini_with(section, {key: value}))
        argv = ["--config", str(cfg), "--out", str(out)]
        argv = ["synth", *argv] if section == "corpus" \
            else ["train", *argv, "--corpus", str(micro["corpus"])]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {error}") and err.count("\n") == 1
        assert not out.exists()


def _eval_cli(micro, run, out, corpus=None):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return main(["eval", "--config", str(micro["cfg"]), "--checkpoint",
                     str(run), "--corpus", str(corpus or micro["corpus"]),
                     "--out", str(out), "--scorer", "msp"])


class TestCsvQuoting:
    AWKWARD = 'x,"y"\nz'

    def test_awkward_record_id_survives_eval_and_report(self, micro):
        run, evaled = micro["tmp"] / "run", micro["tmp"] / "eval"
        _train_cli(micro, run)
        corpus = load_corpus(micro["corpus"])
        ids = corpus.ids.tolist()
        ids[ids.index(split(corpus, "test").ids[0])] = self.AWKWARD
        corpus.ids = np.array(ids, dtype=str)
        save_corpus(corpus, micro["tmp"] / "corpus_q")
        assert _eval_cli(micro, run, evaled, micro["tmp"] / "corpus_q") == 0
        assert main(["report", str(evaled)]) == 0
        with open(evaled / "scores_long.csv", encoding="utf-8",
                  newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 36
        assert all(len(row) == 5 for row in rows)
        assert [row[1] for row in rows].count(self.AWKWARD) == 1

    def test_tables_quote_as_csv_writer_and_carriage_returns(self, tmp_path):
        rows = [["a,b", 3, 0.1], ['q"q', -2, 1e-300], ["", 0, 2.0 ** 60],
                [self.AWKWARD, 1, -0.0]]
        mmood.cli._write_csv(tmp_path / "t.csv", ["x", "y", "z"], rows)
        expected = io.StringIO()
        csv.writer(expected, lineterminator="\n").writerows(
            [["x", "y", "z"], *rows])
        assert (tmp_path / "t.csv").read_bytes() == \
            expected.getvalue().encode("utf-8")
        mmood.cli._write_csv(tmp_path / "r.csv", ["x"], [["a\rb"], ["c"]])
        with open(tmp_path / "r.csv", encoding="utf-8", newline="") as fh:
            assert list(csv.reader(fh)) == [["x"], ["a\rb"], ["c"]]


class TestReportScoreTypes:
    @pytest.mark.parametrize("field, value", [
        ("id", 3), ("is_id", 7), ("raw", True), ("norm", "nan"),
        ("raw", 1), ("is_id", None)])
    def test_ill_typed_row_exits_1(self, micro, capsys, field, value):
        run, evaled = micro["tmp"] / "run", micro["tmp"] / "eval"
        _train_cli(micro, run)
        assert _eval_cli(micro, run, evaled) == 0
        scores = evaled / "scores_msp.jsonl"
        rows = [json.loads(line) for line in scores.read_text().splitlines()]
        rows[1][field] = value
        scores.write_text("".join(json.dumps(row) + "\n" for row in rows))
        capsys.readouterr()
        out = micro["tmp"] / "new"
        assert main(["report", str(evaled), "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            f"error: cli: {scores} line 2: malformed score row\n"
        assert not out.exists()

    def test_non_utf8_score_file_exits_1(self, micro, capsys):
        run, evaled = micro["tmp"] / "run", micro["tmp"] / "eval"
        _train_cli(micro, run)
        assert _eval_cli(micro, run, evaled) == 0
        scores = evaled / "scores_msp.jsonl"
        scores.write_bytes(b"\xff\xfe" + scores.read_bytes())
        capsys.readouterr()
        out = micro["tmp"] / "new"
        assert main(["report", str(evaled), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert re.match(r"error: cli: .*scores_msp\.jsonl: unreadable score "
                        r"file \(UnicodeDecodeError: ", err)
        assert err.count("\n") == 1
        assert not out.exists()


class TestBlankOutDir:
    @pytest.mark.parametrize("spelling", ["flag", "config"])
    @pytest.mark.parametrize("blank", ["", "  "])
    def test_synth_and_eval_exit_1(self, micro, capsys, monkeypatch,
                                   spelling, blank):
        run = _train_cli(micro, micro["tmp"] / "run")
        cwd = micro["tmp"] / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        cfg, out = micro["cfg"], ["--out", blank]
        if spelling == "config":
            cfg, out = micro["tmp"] / "blank.ini", []
            cfg.write_text(MICRO_INI + f"\n[run]\nout_dir = {blank}\n")
        for argv in (["synth", "--config", str(cfg), *out],
                     ["eval", "--config", str(cfg), "--checkpoint", str(run),
                      "--corpus", str(micro["corpus"]), *out]):
            capsys.readouterr()
            assert main(argv) == 1
            assert capsys.readouterr().err.startswith(
                "error: cli: no output directory; ")
        assert list(cwd.iterdir()) == []

    def test_report_exits_1(self, micro, capsys, monkeypatch):
        run = _train_cli(micro, micro["tmp"] / "run")
        assert _eval_cli(micro, run, micro["tmp"] / "eval") == 0
        cwd = micro["tmp"] / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        capsys.readouterr()
        assert main(["report", str(micro["tmp"] / "eval"), "--out", ""]) == 1
        assert capsys.readouterr().err.startswith(
            "error: cli: no output directory; ")
        assert list(cwd.iterdir()) == []


class TestEmptyTestSplit:
    def test_eval_exits_1_writing_nothing(self, micro, capsys):
        run = _train_cli(micro, micro["tmp"] / "run")
        cfg, corpus = micro["tmp"] / "no_test.ini", micro["tmp"] / "no_test"
        cfg.write_text(MICRO_INI.replace("n_test_id = 24\nn_test_ood = 12",
                                         "n_test_id = 0\nn_test_ood = 0"))
        assert main(["synth", "--config", str(cfg), "--out", str(corpus),
                     "--seed", "0"]) == 0
        capsys.readouterr()
        out = micro["tmp"] / "e"
        assert _eval_cli(micro, run, out, corpus) == 1
        assert capsys.readouterr().err == (
            "error: cli: corpus test split holds 0 ID and 0 OOD records; "
            "eval needs at least one of each\n")
        assert not out.exists()


ID_METRICS = {"acc": 0.75, "f1": 0.5, "precision": 0.5, "recall": 0.5,
              "wf1": 0.625, "wp": 0.625, "per_class_acc": [1.0, 0.5],
              "confusion": [[2, 0], [1, 1]]}
OOD_METRICS = {"auroc": 0.75, "aupr_in": 0.5, "aupr_out": 0.5, "fpr95": 0.25,
               "der": 0.125}


def _score_rows(ids):
    return [{"id": rec_id, "is_id": k % 2 == 0, "norm": k / len(ids),
             "raw": 1.5 - k} for k, rec_id in enumerate(ids)]


def _eval_dir(path, rows, id_metrics=ID_METRICS, scorers=("msp",),
              records=None):
    """A hand-written eval directory whose scorers (default: msp) each have
    a score file holding ``rows`` as ``json.dumps`` writes them; its report
    counts ``records`` scored records (default: one per row)."""
    path.mkdir()
    (path / "eval_report.json").write_text(json.dumps(
        {"id_metrics": id_metrics, "records":
         len(rows) if records is None else records,
         "ood_metrics": {scorer: OOD_METRICS for scorer in scorers}}))
    for scorer in scorers:
        _write_score_rows(path / f"scores_{scorer}.jsonl", rows)
    return path


def _write_score_rows(path, rows):
    path.write_text("".join(json.dumps(row, sort_keys=True) + "\n"
                            for row in rows))


class TestNonFiniteScores:
    @pytest.mark.parametrize("edits, index, message", [
        ({3: float("nan")}, 3, "raw score nan"),
        ({3: float("inf")}, 3, "raw score inf"),
        ({3: -float("inf")}, 3, "raw score -inf"),
        ({0: -1e308, 5: 1e308}, 5, "normalised score nan"),
    ], ids=["nan", "inf", "-inf", "overflowing-range"])
    def test_eval_exits_1_writing_nothing(self, micro, capsys, monkeypatch,
                                          edits, index, message):
        run = _train_cli(micro, micro["tmp"] / "run")
        real_apply = mmood.cli.apply_scorer

        def apply(state, feats, logits):
            scores = real_apply(state, feats, logits).copy()
            for i, value in edits.items():
                scores[i] = value
            return scores

        monkeypatch.setattr(mmood.cli, "apply_scorer", apply)
        rec_id = split(load_corpus(micro["corpus"]), "test").ids.tolist()[index]
        capsys.readouterr()
        out = micro["tmp"] / "e"
        assert _eval_cli(micro, run, out) == 1
        assert capsys.readouterr().err == (
            f"error: cli: scorer 'msp' gives record {rec_id!r} the "
            f"non-finite {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("field", ["raw", "norm"])
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_report_rejects_literal(self, tmp_path, capsys, field, literal):
        rows = _score_rows(["a", "b", "c"])
        rows[1][field] = json.loads(literal)
        evaled = _eval_dir(tmp_path / "eval", rows)
        assert f'"{field}": {literal}' in (evaled / "scores_msp.jsonl") \
            .read_text().splitlines()[1]
        out = tmp_path / "new"
        assert main(["report", str(evaled), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: cli: {evaled / 'scores_msp.jsonl'} line 2: malformed "
            "score row\n")
        assert not out.exists()


class TestEvalReportIdMetrics:
    @pytest.mark.parametrize("key", ["acc", "per_class_acc"])
    @pytest.mark.parametrize("value", ["nan", True, 1, float("nan"),
                                       float("inf")],
                             ids=["string", "true", "int", "NaN", "Infinity"])
    def test_not_a_finite_float_exits_1(self, tmp_path, capsys, key, value):
        id_metrics = json.loads(json.dumps(ID_METRICS))
        if key == "per_class_acc":
            id_metrics[key][1] = value
        else:
            id_metrics[key] = value
        evaled = _eval_dir(tmp_path / "eval", _score_rows(["a", "b"]),
                           id_metrics)
        out = tmp_path / "new"
        assert main(["report", str(evaled), "--out", str(out)]) == 1
        assert re.match(r"error: cli: .*eval_report\.json: malformed eval "
                        r"report \(ValueError: ", capsys.readouterr().err)
        assert not out.exists()


class TestEvalReportOodMetrics:
    """``ood_metrics`` must be an object of objects that map every
    ``OodMetrics`` field to a finite float."""

    FIELDS = "auroc, aupr_in, aupr_out, fpr95, der"
    NO_DER = {k: v for k, v in OOD_METRICS.items() if k != "der"}

    @pytest.mark.parametrize("ood, detail", [
        (["msp"], "TypeError: ood_metrics = ['msp']; expected an object"),
        ("msp", "TypeError: ood_metrics = 'msp'; expected an object"),
        ({"msp": 3}, f"TypeError: ood_metrics['msp'] = 3; expected an object "
                     f"of {FIELDS}"),
        ({"msp": {"acc": 0.5}}, "TypeError: ood_metrics['msp'] = "
                                "{'acc': 0.5}; expected an object of auroc, "
                                "aupr_in, aupr_out, fpr95, der"),
        ({"msp": {}}, f"TypeError: ood_metrics['msp'] = {{}}; expected an "
                      f"object of {FIELDS}"),
        ({"msp": NO_DER}, f"TypeError: ood_metrics['msp'] = {NO_DER!r}; "
                          f"expected an object of {FIELDS}"),
        ({"msp": {**OOD_METRICS, "auroc": 1}},
         "ValueError: 1 is not a finite float"),
        ({"msp": {**OOD_METRICS, "der": float("nan")}},
         "ValueError: nan is not a finite float"),
    ], ids=["list", "string", "number", "unknown-field", "empty", "no-der",
            "int", "NaN"])
    def test_exits_1_with_the_exact_message(self, tmp_path, capsys, ood,
                                            detail):
        evaled = _eval_dir(tmp_path / "eval", _score_rows(["a", "b"]))
        report = evaled / "eval_report.json"
        payload = json.loads(report.read_text())
        payload["ood_metrics"] = ood
        report.write_text(json.dumps(payload))
        out = tmp_path / "new"
        assert main(["report", str(evaled), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: cli: {report}: malformed eval report ({detail})\n")
        assert not out.exists()


class TestScoreIoBytes:
    """Score files are ``json.dumps(row, sort_keys=True)`` row for row, and
    ``scores_long.csv`` is ``csv.writer``'s output, whatever the ids hold."""

    AWKWARD = ["", "a,b", 'q"q', "n\nl", "é", "back\\slash", "ctl\x01\x1f\t",
               "ls\u2028ps\u2029", "emoji\U0001F600"]

    def test_awkward_ids_match_json_and_csv_writers(self, micro):
        run = _train_cli(micro, micro["tmp"] / "run")
        test = split(load_corpus(micro["corpus"]), "test")
        n = len(self.AWKWARD)
        ids = [f"{self.AWKWARD[i % n]}{i // n or ''}"
               for i in range(len(test))]
        test.ids = np.array(ids, dtype=str)
        assert test.ids.tolist() == ids
        out = micro["tmp"] / "eval"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run_eval(run, test, list(SCORERS), out)
        assert main(["report", str(out)]) == 0
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["scorer", "sample_id", "is_id", "raw", "normalized"])
        for scorer in sorted(SCORERS):
            lines = (out / f"scores_{scorer}.jsonl").read_bytes() \
                .decode("ascii").splitlines()
            rows = [json.loads(line) for line in lines]
            assert [json.dumps(row, sort_keys=True) for row in rows] == lines
            assert [row["id"] for row in rows] == ids
            assert [row["is_id"] for row in rows] == (~is_ood(test)).tolist()
            writer.writerows([scorer, row["id"], int(row["is_id"]), row["raw"],
                              row["norm"]] for row in rows)
        assert (out / "scores_long.csv").read_bytes() == \
            expected.getvalue().encode("utf-8")

    def test_carriage_return_id_round_trips(self, tmp_path):
        ids = ["a\rb", "plain", "c\r\nd", "\r"]
        evaled = _eval_dir(tmp_path / "eval", _score_rows(ids))
        assert main(["report", str(evaled)]) == 0
        with open(evaled / "scores_long.csv", encoding="utf-8",
                  newline="") as fh:
            rows = list(csv.reader(fh))
        assert [row[1] for row in rows[1:]] == ids
        assert all(len(row) == 5 for row in rows)


def _tree(root):
    """Every file under ``root``, by relative path, with its bytes."""
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


class TestStagedOutputs:
    """A command stages its files in a scratch directory and moves them
    under --out only when it succeeds."""

    @pytest.mark.parametrize("out", ["run", "a/b/c"])
    def test_failed_second_seed_leaves_nothing(self, micro, capsys,
                                               monkeypatch, out):
        calls = []

        def second_fails(*args):
            calls.append(args)
            if len(calls) == 2:
                raise NumericalError("train: diverged")
            return train(*args)

        monkeypatch.setattr(mmood.cli, "train", second_fails)
        capsys.readouterr()
        assert main(["train", "--config", str(micro["cfg"]), "--corpus",
                     str(micro["corpus"]), "--out", str(micro["tmp"] / out),
                     "--seed", "0,1"]) == 1
        assert capsys.readouterr().err == "error: train: diverged\n"
        assert len(calls) == 2
        assert not (micro["tmp"] / out.split("/")[0]).exists()
        assert sorted(micro["tmp"].rglob("*.partial-*")) == []

    def test_failed_report_leaves_eval_dir_unchanged(self, tmp_path, capsys):
        rows = _score_rows(["a", "b", "c"])
        evaled = _eval_dir(tmp_path / "eval", rows, scorers=("energy", "msp"))
        assert main(["report", str(evaled)]) == 0
        assert "scores_long.csv" in _tree(evaled)
        rows[1]["id"] = "b\ud800"  # the last scorer's file fails
        _write_score_rows(evaled / "scores_msp.jsonl", rows)
        before = _tree(evaled)
        capsys.readouterr()
        assert main(["report", str(evaled)]) == 1
        assert capsys.readouterr().err == (
            f"error: cli: {evaled / 'scores_msp.jsonl'} line 2: malformed "
            "score row\n")
        assert _tree(evaled) == before

    def test_interrupted_eval_leaves_nothing(self, micro, monkeypatch):
        run = _train_cli(micro, micro["tmp"] / "run")

        def interrupt(path, payload):
            raise KeyboardInterrupt

        monkeypatch.setattr(mmood.cli, "_write_json", interrupt)
        out = micro["tmp"] / "e"
        with pytest.raises(KeyboardInterrupt):
            _eval_cli(micro, run, out)
        assert not out.exists()
        assert sorted(micro["tmp"].rglob("*.partial-*")) == []

    def test_train_into_existing_dir_replaces_and_keeps(self, micro):
        fresh = _train_cli(micro, micro["tmp"] / "fresh")
        out = micro["tmp"] / "run"
        (out / "seed_7").mkdir(parents=True)
        (out / "results.csv").write_text("stale\n")
        (out / "notes.txt").write_text("kept\n")
        (out / "seed_7" / "notes.txt").write_text("kept too\n")
        _train_cli(micro, out)
        got, want = _tree(out), _tree(fresh)
        assert set(got) == set(want) | {"notes.txt", "seed_7/notes.txt"}
        assert got["notes.txt"] == b"kept\n"
        assert got["seed_7/notes.txt"] == b"kept too\n"
        for name in set(want) - {"train_log.jsonl"}:
            assert got[name] == want[name], name

    @staticmethod
    def _count_replaces(monkeypatch):
        """The ``(src, dst)`` of every ``os.replace`` call from now on."""
        calls, real = [], os.replace

        def counted(src, dst):
            calls.append((src, dst))
            real(src, dst)

        monkeypatch.setattr(os, "replace", counted)
        return calls

    def _synth(self, micro, out) -> int:
        return main(["synth", "--config", str(micro["cfg"]), "--out", str(out),
                     "--seed", "0"])

    def test_new_out_is_one_rename(self, micro, monkeypatch):
        calls = self._count_replaces(monkeypatch)
        out = micro["tmp"] / "a" / "b" / "c"
        assert self._synth(micro, out) == 0
        assert len(calls) == 1 and Path(calls[0][1]) == out
        assert _tree(out) == _tree(micro["corpus"])

    def test_existing_out_moves_each_file(self, micro, monkeypatch):
        out = micro["tmp"] / "old"
        out.mkdir()
        calls = self._count_replaces(monkeypatch)
        assert self._synth(micro, out) == 0
        assert len(calls) == len(_tree(out)) > 1
        assert _tree(out) == _tree(micro["corpus"])

    def test_new_out_has_makedirs_mode(self, micro):
        old = os.umask(0o027)
        try:
            assert self._synth(micro, micro["tmp"] / "a" / "c") == 0
            os.makedirs(micro["tmp"] / "plain")
        finally:
            os.umask(old)
        modes = {stat.S_IMODE((micro["tmp"] / name).stat().st_mode)
                 for name in ("a", "a/c", "plain")}
        assert modes == {0o750}

    def test_failed_new_out_leaves_nothing(self, micro, capsys, monkeypatch):
        def save_then_fail(corpus, out):
            save_corpus(corpus, out)
            raise FormatError("corpus: disk full")

        monkeypatch.setattr(mmood.cli, "save_corpus", save_then_fail)
        calls = self._count_replaces(monkeypatch)
        capsys.readouterr()
        assert self._synth(micro, micro["tmp"] / "a" / "c") == 1
        assert capsys.readouterr().err == "error: corpus: disk full\n"
        assert calls == []
        assert not (micro["tmp"] / "a").exists()
        assert sorted(micro["tmp"].rglob("*.partial-*")) == []


class TestOutIsAFile:
    @pytest.mark.parametrize("nested", [False, True])
    @pytest.mark.parametrize("command", ["synth", "train", "eval", "ablate",
                                         "report"])
    def test_exits_1_before_any_work(self, micro, capsys, monkeypatch,
                                     command, nested):
        def no_training(*args):
            raise AssertionError("trained before checking --out")

        monkeypatch.setattr(mmood.cli, "train", no_training)
        afile, missing = micro["tmp"] / "afile", str(micro["tmp"] / "none")
        afile.write_text("kept\n")
        cfg, corpus = str(micro["cfg"]), str(micro["corpus"])
        argv = {"synth": ["synth", "--config", cfg],
                "train": ["train", "--config", cfg, "--corpus", corpus],
                "eval": ["eval", "--config", cfg, "--corpus", corpus,
                         "--checkpoint", missing],
                "ablate": ["ablate", "--config", cfg, "--corpus", corpus],
                "report": ["report", missing]}[command]
        out = afile / "sub" if nested else afile
        capsys.readouterr()
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            f"error: cli: output {afile} is not a directory\n"
        assert afile.read_text() == "kept\n"


class TestLoneSurrogateId:
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_corpus_exits_1(self, micro, capsys, command):
        run = _train_cli(micro, micro["tmp"] / "run")
        manifest = micro["corpus"] / "manifest.jsonl"

        def surrogate(column):  # the id column's last value, a test record
            column["values"][-1] = "ood\ud800"

        _edit_line(manifest, 1, surrogate)
        out = micro["tmp"] / "out"
        argv = ["--config", str(micro["cfg"]), "--corpus",
                str(micro["corpus"]), "--out", str(out)]
        argv = ["train", *argv] if command == "train" \
            else ["eval", *argv, "--checkpoint", str(run)]
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: corpus: record 'ood\\ud800' has an id that is not valid "
            "UTF-8 (surrogates not allowed)\n")
        assert not out.exists()


class TestReportFastPath:
    """``mmood report`` reads a score file in eval's row layout in one regex
    pass a block and passes its number text through; a file with any row
    outside that layout exits 1, naming the row's line."""

    def test_escaped_ids_match_row_walk(self, tmp_path):
        """Ids that JSON escapes read back intact through ``csv.reader``."""
        ids = ["back\\slash", 'q"uote', "\u00e9t\u00e9", "a,b", "tab\t",
               "ls\u2028", "plain"]
        evaled = _eval_dir(tmp_path / "eval", _score_rows(ids))
        with open(run_report(evaled, tmp_path / "out") / "scores_long.csv",
                  encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert [row[1] for row in rows[1:]] == ids
        assert all(len(row) == 5 for row in rows)

    def test_eval_written_files_match_row_walk(self, micro):
        """Eval-written files report as ``csv.writer`` writes their decoded
        rows, each float as ``repr`` writes it; the canonical run's tables
        are pinned in ``test_canonical_report_outputs_are_pinned``."""
        run = _train_cli(micro, micro["tmp"] / "run")
        evaled = micro["tmp"] / "eval"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["eval", "--config", str(micro["cfg"]),
                         "--checkpoint", str(run), "--corpus",
                         str(micro["corpus"]), "--out", str(evaled)]) == 0
        got = (run_report(evaled, micro["tmp"] / "out")
               / "scores_long.csv").read_bytes()
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["scorer", "sample_id", "is_id", "raw", "normalized"])
        for scorer in sorted(SCORERS):
            for line in (evaled / f"scores_{scorer}.jsonl").read_text() \
                    .splitlines():
                row = json.loads(line)
                writer.writerow([scorer, row["id"], int(row["is_id"]),
                                 repr(row["raw"]), repr(row["norm"])])
        assert got.count(b"\n") == 1 + len(SCORERS) * 36
        assert got == expected.getvalue().encode("utf-8")

    ROWS = ['{"id": "a", "is_id": true, "norm": 1.50, "raw": -2.0E+3}',
            '{"id": "b", "is_id": false, "norm": 0.0, "raw": 1e-5}']

    def test_number_text_passes_through(self, tmp_path):
        evaled = _eval_dir(tmp_path / "eval", [], records=2)
        (evaled / "scores_msp.jsonl").write_text("\n".join(self.ROWS) + "\n")
        assert (run_report(evaled, tmp_path / "out")
                / "scores_long.csv").read_bytes() == (
            b"scorer,sample_id,is_id,raw,normalized\n"
            b"msp,a,1,-2.0E+3,1.50\nmsp,b,0,1e-5,0.0\n")

    def test_file_with_another_layout_is_walked(self, tmp_path, capsys):
        """A row with its keys in another order is out of the layout: the
        report exits 1 and names its line."""
        evaled = _eval_dir(tmp_path / "eval", [], records=3)
        reordered = '{"raw": 0.25, "norm": 0.5, "is_id": true, "id": "c"}'
        scores = evaled / "scores_msp.jsonl"
        scores.write_text("\n".join([*self.ROWS, reordered]) + "\n")
        out = tmp_path / "out"
        assert main(["report", str(evaled), "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            f"error: cli: {scores} line 3: malformed score row\n"
        assert not out.exists()

    def test_crlf_line_ends_are_out_of_the_layout(self, tmp_path, capsys):
        evaled = _eval_dir(tmp_path / "eval", [], records=2)
        scores = evaled / "scores_msp.jsonl"
        scores.write_bytes("\r\n".join([*self.ROWS, ""]).encode())
        out = tmp_path / "out"
        assert main(["report", str(evaled), "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            f"error: cli: {scores} line 1: malformed score row\n"
        assert not out.exists()

    @pytest.mark.parametrize("line", [
        '{"id": "b", "is_id": false, "norm": 0.5, "raw": 1e999}',
        '{"raw": 0.5, "norm": -1e999, "is_id": false, "id": "b"}',
        '{"is_id": false, "id": "b\\ud800", "norm": 0.5, "raw": 0.5}',
    ], ids=["overflow", "reordered-overflow", "reordered-surrogate"])
    def test_bad_line_is_named(self, tmp_path, line):
        evaled = _eval_dir(tmp_path / "eval", [], records=3)
        (evaled / "scores_msp.jsonl").write_text(
            "\n".join([self.ROWS[0], line, self.ROWS[1]]) + "\n")
        with pytest.raises(FormatError, match=r"scores_msp\.jsonl line 2: "
                                              r"malformed score row"):
            run_report(evaled, tmp_path / "out")
        assert not (tmp_path / "out").exists()


class TestScoreBlocks:
    """``run_eval`` writes, and ``run_report`` reads, each score file in
    blocks of ``SCORE_BLOCK`` rows. Run here with blocks of 8 rows, the
    bytes are those of one block as large as the file."""

    B = 8
    WHOLE = 10**9  # one block holds any file here

    @staticmethod
    def _report(evaled, out, block, monkeypatch) -> bytes:
        with monkeypatch.context() as patch:
            patch.setattr(mmood.cli, "SCORE_BLOCK", block)
            return (run_report(evaled, out) / "scores_long.csv").read_bytes()

    @pytest.mark.parametrize("n_test", [B - 1, B, B + 1, 2 * B + 1])
    def test_eval_and_report_match_one_block(self, micro, monkeypatch,
                                             n_test):
        run = _train_cli(micro, micro["tmp"] / "run")
        cfg = load_config(micro["cfg"]).synth
        cfg = replace(cfg, n_test_id=n_test - n_test // 3,
                      n_test_ood=n_test // 3)
        corpus = micro["tmp"] / "corpus_n"
        save_corpus(synth_corpus(cfg, make_rng(1)), corpus)
        files = {}
        for block in (self.B, self.WHOLE):
            out = micro["tmp"] / f"eval_{block}"
            with monkeypatch.context() as patch:
                patch.setattr(mmood.cli, "SCORE_BLOCK", block)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    run_eval(run, load_corpus(corpus), list(SCORERS), out)
            files[block] = {path.name: path.read_bytes()
                            for path in sorted(out.iterdir())}
            files[block]["report"] = self._report(
                out, micro["tmp"] / f"report_{block}", block, monkeypatch)
        assert files[self.B] == files[self.WHOLE]
        assert files[self.B]["scores_msp.jsonl"].count(b"\n") == n_test

    def test_bad_row_in_second_block_names_its_line(self, tmp_path,
                                                    monkeypatch):
        lines = [json.dumps(row, sort_keys=True)
                 for row in _score_rows([f"r{k}" for k in range(2 * self.B)])]
        lines[self.B + 2] = lines[self.B + 2].replace('"raw": ', '"raw": 1e999,'
                                                      ' "x": ')
        evaled = _eval_dir(tmp_path / "eval", [], records=len(lines))
        (evaled / "scores_msp.jsonl").write_text("\n".join(lines) + "\n")
        for block in (self.B, self.WHOLE):
            with pytest.raises(FormatError, match=r"scores_msp\.jsonl line "
                               f"{self.B + 3}: malformed score row"):
                self._report(evaled, tmp_path / "out", block, monkeypatch)
            assert not (tmp_path / "out").exists()

    def test_later_block_out_of_layout_rewinds_to_the_walk(self, tmp_path,
                                                           monkeypatch):
        """A first block in the layout, with number text such as ``1.50``,
        does not let a later block out of it pass: whatever the block size,
        the report fails and names that block's line."""
        rows = [json.dumps(row, sort_keys=True)
                for row in _score_rows([f"r{k}" for k in range(2 * self.B)])]
        rows[1] = '{"id": "r1", "is_id": false, "norm": 1.50, "raw": 0.5}'
        rows[self.B + 1] = '{"raw": 0.25, "norm": 0.5, "is_id": true, ' \
            '"id": "c"}'
        evaled = _eval_dir(tmp_path / "eval", [], scorers=("msp", "vim"),
                           records=len(rows))
        for name in ("scores_msp.jsonl", "scores_vim.jsonl"):
            (evaled / name).write_text("\n".join(rows) + "\n")
        for block in (self.B, self.WHOLE):
            with pytest.raises(FormatError) as info:
                self._report(evaled, tmp_path / "out", block, monkeypatch)
            assert str(info.value) == (
                f"cli: {evaled / 'scores_msp.jsonl'} line {self.B + 2}: "
                "malformed score row")
            assert not (tmp_path / "out").exists()

    def test_bytes_not_utf8_after_first_block(self, tmp_path, monkeypatch):
        lines = [json.dumps(row, sort_keys=True).encode()
                 for row in _score_rows([f"r{k}" for k in range(2 * self.B)])]
        lines[self.B + 1] = lines[self.B + 1].replace(b'"r', b'"\xff')
        evaled = _eval_dir(tmp_path / "eval", [], records=len(lines))
        (evaled / "scores_msp.jsonl").write_bytes(b"\n".join(lines) + b"\n")
        errors = []
        for block in (self.B, self.WHOLE):
            with pytest.raises(FormatError) as info:
                self._report(evaled, tmp_path / "out", block, monkeypatch)
            errors.append(str(info.value))
        assert errors[0] == errors[1]
        assert ": unreadable score file (UnicodeDecodeError: " in errors[0]


class TestScoreIds:
    """The first score file ``mmood report`` reads (scorers sorted) lists
    each record id once, and every later file repeats its ids and ``is_id``
    flags row for row; ids compare as the strings JSON decodes. Read in
    blocks of 8 rows, a fault in the first block or a later one exits 1
    with one ``error: cli:`` line that names the file, the line and the id
    (and, across files, the first file and its id on that line), and no
    ``--out`` is created."""

    B = 8
    AT = pytest.mark.parametrize("i", [2, B + 2],
                                 ids=["first-block", "later-block"])

    @pytest.fixture
    def report(self, tmp_path, monkeypatch, capsys):
        """``(exit code, stderr)`` of ``mmood report`` on an eval dir."""
        monkeypatch.setattr(mmood.cli, "SCORE_BLOCK", self.B)

        def run(evaled, out="new"):
            capsys.readouterr()
            code = main(["report", str(evaled), "--out", str(tmp_path / out)])
            assert (tmp_path / out).exists() == (code == 0)
            return code, capsys.readouterr().err

        return run

    def _rows(self, ids=None):
        return _score_rows(ids or [f"r{k}" for k in range(2 * self.B)])

    @staticmethod
    def _record(row) -> str:
        return f"record id {row['id']!r} (is_id {json.dumps(row['is_id'])})"

    @staticmethod
    def _escape_id(path, i, escaped):
        """Write line ``i + 1``'s id as the JSON escape ``escaped``."""
        lines = path.read_text().splitlines(keepends=True)
        lines[i] = re.sub(r'"id": "[^"]*"', lambda _: f'"id": "{escaped}"',
                          lines[i])
        path.write_text("".join(lines))

    @AT
    def test_repeated_row_in_one_file(self, tmp_path, report, i):
        rows = self._rows()
        rows[i] = rows[0]
        evaled = _eval_dir(tmp_path / "eval", rows)
        assert report(evaled) == (1, (
            f"error: cli: {evaled / 'scores_msp.jsonl'} line {i + 1}: "
            "record id 'r0' (is_id true) repeats line 1\n"))

    @AT
    @pytest.mark.parametrize("fault", ["repeated", "foreign", "flipped",
                                       "reordered"])
    def test_later_file_differs(self, tmp_path, report, fault, i):
        rows = self._rows()
        evaled = _eval_dir(tmp_path / "eval", rows, scorers=("msp", "vim"))
        later = list(rows)
        if fault == "repeated":
            later[i] = rows[0]
        elif fault == "foreign":
            later[i] = {**rows[i], "id": "test-id-99999"}
        elif fault == "flipped":
            later[i] = {**rows[i], "is_id": not rows[i]["is_id"]}
        else:
            later[i], later[i + 1] = rows[i + 1], rows[i]
        _write_score_rows(evaled / "scores_vim.jsonl", later)
        assert report(evaled) == (1, (
            f"error: cli: {evaled / 'scores_vim.jsonl'} line {i + 1}: "
            f"{self._record(later[i])} does not match "
            f"{evaled / 'scores_msp.jsonl'}'s {self._record(rows[i])}\n"))

    @AT
    def test_escaped_id_is_the_id_it_decodes_to(self, tmp_path, report, i):
        ids = [f"r{k}" for k in range(2 * self.B)]
        ids[i] = "A"
        evaled = _eval_dir(tmp_path / "eval", self._rows(ids),
                           scorers=("msp", "vim"))
        self._escape_id(evaled / "scores_vim.jsonl", i, "\\u0041")
        assert report(evaled, "same") == (0, "")
        assert (tmp_path / "same" / "scores_long.csv").read_text().count(
            ",A,1,") == 2
        self._escape_id(evaled / "scores_msp.jsonl", 0, "\\u0041")
        assert report(evaled) == (1, (
            f"error: cli: {evaled / 'scores_msp.jsonl'} line {i + 1}: "
            "record id 'A' (is_id true) repeats line 1\n"))


def _traced_report_peak(evaled, out) -> int:
    tracemalloc.start()
    try:
        run_report(evaled, out)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("scorers", [("msp",), ("msp", "vim")],
                         ids=["msp", "msp+vim"])
def test_report_peak_does_not_grow_with_the_score_file(tmp_path, scorers):
    """``run_report`` streams score files, keeping only the first file's id
    and ``is_id`` columns: its traced peak on 24,000 rows is within 1 MiB of
    its peak on 3,000 (a whole-file read of the larger one holds some 7
    MB), with one score file or two."""
    peaks = []
    for n in (3_000, 24_000):
        evaled = _eval_dir(tmp_path / f"eval_{n}", _score_rows(
            [f"test-id-{k:05d}" for k in range(n)]), scorers=scorers)
        peaks.append(_traced_report_peak(evaled, tmp_path / f"out_{n}"))
    assert peaks[1] - peaks[0] < 1 << 20, peaks


STARTUP_PROBE = """
import sys
import numpy as np
import mmood.cli
from mmood.errors import NumericalError
from mmood.numerics import regularized_inverse
cfg, out = sys.argv[1:]
for argv in (["synth", "--seed", "0", "--out", out + "/corpus"],
             ["train", "--corpus", out + "/corpus", "--out", out + "/run"],
             ["eval", "--corpus", out + "/corpus", "--checkpoint", out + "/run",
              "--out", out + "/eval"],
             ["ablate", "--corpus", out + "/corpus", "--out", out + "/ablate"]):
    assert mmood.cli.main([*argv, "--config", cfg]) == 0, argv
assert mmood.cli.main(["report", out + "/eval"]) == 0
try:
    regularized_inverse(np.diag([1.0, -1.0]), 0.0)
except NumericalError:
    pass
else:
    raise AssertionError("a non-SPD matrix factorized")
assert "scipy" not in sys.modules, "a command imported scipy"
"""


def test_commands_run_without_scipy(micro):
    """``synth``, ``train``, ``eval``, ``report`` and ``ablate`` run in a
    fresh process without importing scipy, and a non-SPD matrix still
    raises ``NumericalError``."""
    done = _fresh_process(STARTUP_PROBE, micro["cfg"], micro["tmp"] / "probe")
    assert done.returncode == 0, done.stderr


HASHLIB_PROBE = """
import sys
import mmood.cli
cfg, corpus, run, out = sys.argv[1:]
assert mmood.cli.main(["eval", "--corpus", corpus, "--checkpoint", run,
                       "--out", out, "--config", cfg]) == 0
assert mmood.cli.main(["report", out]) == 0
assert "_hashlib" not in sys.modules, "eval or report imported hashlib"
"""


def test_eval_and_report_run_without_hashlib(micro):
    """``eval`` and ``report`` run in a fresh process without importing
    hashlib (some 3.5 MiB of a fresh process), which synth's round-trip
    check imports for itself. ``synth``, ``train`` and ``ablate`` load it
    anyway: they draw from ``numpy.random``, whose bit generators import
    ``secrets``, and ``secrets`` imports ``hmac`` and ``hashlib``."""
    run = _train_cli(micro, micro["tmp"] / "run")
    done = _fresh_process(HASHLIB_PROBE, micro["cfg"], micro["corpus"], run,
                          micro["tmp"] / "eval")
    assert done.returncode == 0, done.stderr


NUMPY_MA_PROBE = """
import sys
import mmood.cli
cfg, out = sys.argv[1:]
for argv in (["synth", "--seed", "0", "--out", out + "/corpus"],
             ["train", "--corpus", out + "/corpus", "--out", out + "/run"],
             ["eval", "--corpus", out + "/corpus", "--checkpoint", out + "/run",
              "--out", out + "/eval"],
             ["ablate", "--corpus", out + "/corpus", "--out", out + "/ablate"],
             ["report", out + "/eval"]):
    if argv[0] != "report":
        argv += ["--config", cfg]
    assert mmood.cli.main(argv) == 0, argv
    assert "numpy.ma" not in sys.modules, f"{argv[0]} imported numpy.ma"
"""


def test_commands_run_without_numpy_ma(micro):
    """None of the five commands imports ``numpy.ma`` (some 1.25 MiB and
    11-17 ms of a fresh process), which a plain ``np.unique`` loads."""
    done = _fresh_process(NUMPY_MA_PROBE, micro["cfg"], micro["tmp"] / "ma")
    assert done.returncode == 0, done.stderr


def _fresh_process(code: str, *argv) -> subprocess.CompletedProcess:
    """``code`` run by a new ``sys.executable`` that imports this ``src``."""
    src = Path(__file__).parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *map(str, argv)],
                          env=env, capture_output=True, text=True, check=False)


HEAP_PROBE = """
import resource
import sys
import numpy as np
import mmood.cli
assert mmood.cli.main(["report", sys.argv[1]]) == 1  # fails, settings stay


def churn(rounds):
    for _ in range(rounds):
        arrays = [np.ones(1 << 17) for _ in range(3)]  # 1 MiB each, touched
        del arrays


churn(5)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
churn(50)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc only")
def test_heap_settings_keep_step_temporaries(tmp_path):
    """After ``main``, allocating and dropping a training step's worth of
    1 MiB arrays reuses the heap: glibc's default thresholds hand its top
    back to the kernel each round, and the next round faults it in again
    (some 24,000 minor faults over these 50 rounds)."""
    done = _fresh_process(HEAP_PROBE, tmp_path / "no-eval")
    assert done.returncode == 0, done.stderr
    assert int(done.stdout.split()[-1]) < 1000
