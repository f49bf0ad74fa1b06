import json
import re
import warnings
import weakref

import numpy as np
import pytest

import mmood.cli
from mmood.checkpoint import load_checkpoint
from mmood.cli import main, run_ablation, run_eval, run_synth, run_training
from mmood.config import load_config
from mmood.corpus import load_corpus
from mmood.errors import PipelineError
from mmood.model import FusionModel
from mmood.scoring import SCORERS, apply_scorer, fit_scorer, normalize_scores
from mmood.train import train
from oracles import mahalanobis_row_oracle, score_file_oracle

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


@pytest.fixture()
def micro(tmp_path):
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(MICRO_INI)
    corpus_dir = tmp_path / "corpus"
    assert main(["synth", "--config", str(cfg_path), "--out", str(corpus_dir),
                 "--seed", "0"]) == 0
    return {"cfg": cfg_path, "corpus": corpus_dir, "tmp": tmp_path}


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
        model, stats, feats, logits, meta = load_checkpoint(out)
        assert stats.means.shape == (3, 8)
        assert feats.shape[0] == 48
        assert (out / "train_log.jsonl").exists()
        assert (out / "results.csv").exists()

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

    def test_only_test_split_alive_while_scoring(self, micro, trained,
                                                 monkeypatch):
        loaded, alive = [], []
        real_load = mmood.cli.load_corpus
        real_features = FusionModel.features_for

        def load(path):
            corpus = real_load(path)
            loaded.append(weakref.ref(corpus))
            return corpus

        def features_for(model, corpus, chunk=256):
            alive.append(loaded[0]() is not None)
            return real_features(model, corpus, chunk)

        monkeypatch.setattr(mmood.cli, "load_corpus", load)
        monkeypatch.setattr(FusionModel, "features_for", features_for)
        assert main(["eval", "--config", str(micro["cfg"]),
                     "--checkpoint", str(trained), "--corpus",
                     str(micro["corpus"]), "--out", str(micro["tmp"] / "e"),
                     "--scorer", "msp"]) == 0
        assert alive == [False]


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
        ("rename", "stats.means"),
        ("drop", "cache.logits"),
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
        ("stats.counts", "negative"),
        ("stats.means", lambda k, d: [2 * k, d // 2]),
        ("cache.logits", lambda n, k: [n // 3, 3 * k]),
    ], ids=["negative-count", "reshaped-means", "short-logits"])
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
            blob = out / "checkpoint.blob"
            data = bytearray(blob.read_bytes())
            data[entry["offset"]:entry["offset"] + 8] = \
                np.array([-5.5], dtype="<f8").tobytes()
            blob.write_bytes(bytes(data))
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


def _corrupt_entry(path, corruption):
    """Break the second entry (line 3) of a manifest in one named way."""
    lines = path.read_text().splitlines()
    blob = path.with_suffix(".blob")
    if corruption == "non_finite":
        data = bytearray(blob.read_bytes())
        start = json.loads(lines[2])["offset"]
        data[start:start + 8] = np.array([np.nan], dtype="<f8").tobytes()
        blob.write_bytes(bytes(data))
        return
    if corruption == "trailing":
        blob.write_bytes(blob.read_bytes() + b"\0" * 8)
        return
    if corruption == "truncated":
        lines[2] = lines[2][:-5]
    else:
        entry = json.loads(lines[2])
        if corruption == "duplicate":
            key = "id" if "id" in entry else "name"
            entry[key] = json.loads(lines[1])[key]
        elif corruption == "huge_label":
            entry["label"] = 10**20  # beyond int64
        elif corruption == "overlap":
            entry["offset"] = json.loads(lines[1])["offset"]
        else:
            del entry[corruption]
        lines[2] = json.dumps(entry, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")


class TestMalformedManifests:
    @pytest.mark.parametrize("corruption, message", [
        ("truncated", "line 3"),
        ("label", "line 3.*'label'"),
        ("duplicate", "line 3.*duplicate record id"),
        ("huge_label", "line 3.*label 100000000000000000000"),
    ])
    def test_train_exits_1_with_error(self, micro, capsys, corruption,
                                      message):
        _corrupt_entry(micro["corpus"] / "manifest.jsonl", corruption)
        code = main(["train", "--config", str(micro["cfg"]), "--corpus",
                     str(micro["corpus"]), "--out", str(micro["tmp"] / "r")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: corpus: ")
        assert re.search(message, err)
        assert not (micro["tmp"] / "r" / "checkpoint.json").exists()

    def test_non_finite_blob_value(self, micro, capsys):
        blob = micro["corpus"] / "seq_T.blob"
        data = bytearray(blob.read_bytes())
        data[:4] = np.array([np.nan], dtype="<f4").tobytes()
        blob.write_bytes(bytes(data))
        code = main(["train", "--config", str(micro["cfg"]), "--corpus",
                     str(micro["corpus"]), "--out", str(micro["tmp"] / "r")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: corpus: ")
        assert re.search("'train-00000' modality T.*non-finite", err)
        assert not (micro["tmp"] / "r" / "checkpoint.json").exists()

    @pytest.mark.parametrize("corruption, message", [
        ("truncated", "line 3"),
        ("offset", "line 3.*'offset'"),
        ("duplicate", "line 3.*duplicate tensor"),
        ("non_finite", "line 3: tensor .*non-finite"),
        ("overlap", "line 3: tensor .* has offset 0; in manifest order"),
        ("trailing", "last tensor .*checkpoint.blob holds"),
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
        assert err.startswith("error: blobio: ")
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


class TestNonUtf8Manifest:
    @pytest.mark.parametrize("target, module", [("corpus", "corpus"),
                                                ("checkpoint", "blobio")])
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
    ], ids=["extra_hyper_key", "no_num_classes", "shapes_list",
            "gamma_string", "meta_list", "no_gamma"])
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


def _train_cli(micro, out, *extra):
    assert main(["train", "--config", str(micro["cfg"]), "--corpus",
                 str(micro["corpus"]), "--out", str(out), "--seed", "0",
                 *extra]) == 0
    return out


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
        row = mmood.cli._test_row(trained, corpus)
        assert {"acc", "wf1", "auroc", "fpr95"} <= set(row)
        assert row == mahalanobis_row_oracle(trained, corpus)

    def test_test_row_without_ood_matches_oracle(self, trained_micro):
        corpus, trained = trained_micro
        keep = ~(corpus.is_ood & (corpus.splits == "test"))
        id_only = corpus.take(np.flatnonzero(keep))
        assert len(id_only.split("test")) == 24
        row = mmood.cli._test_row(trained, id_only)
        assert set(row) == {"acc", "wf1"}
        assert row == mahalanobis_row_oracle(trained, id_only)

    def test_score_files_match_oracle_writer(self, micro):
        run = _train_cli(micro, micro["tmp"] / "run")
        test = load_corpus(micro["corpus"]).split("test")
        out, ref = micro["tmp"] / "eval", micro["tmp"] / "ref"
        ref.mkdir()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run_eval(run, test, list(SCORERS), out)
            model, stats, train_feats, train_logits, _ = load_checkpoint(run)
            feats = model.features_for(test)
            logits = model.logits_for(feats)
            for scorer in SCORERS:
                state = fit_scorer(scorer, train_feats, train_logits, stats,
                                   test.num_classes)
                scores = apply_scorer(state, feats, logits)
                name = f"scores_{scorer}.jsonl"
                score_file_oracle(ref / name, test, ~test.is_ood, scores,
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


class TestFailedEvalWritesNothing:
    @pytest.mark.parametrize("failure", ["class_count", "no_checkpoint"])
    def test_out_dir_not_created(self, micro, capsys, failure):
        run, corpus = micro["tmp"] / "run", micro["corpus"]
        if failure == "class_count":
            _train_cli(micro, run)
            cfg5 = micro["tmp"] / "run5.ini"
            cfg5.write_text(MICRO_INI.replace("num_classes = 3",
                                              "num_classes = 5"))
            corpus = micro["tmp"] / "corpus5"
            assert main(["synth", "--config", str(cfg5), "--out", str(corpus),
                         "--seed", "0"]) == 0
        capsys.readouterr()
        out = micro["tmp"] / "e"
        code = main(["eval", "--config", str(micro["cfg"]), "--checkpoint",
                     str(run), "--corpus", str(corpus), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()
