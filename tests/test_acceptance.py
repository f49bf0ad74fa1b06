"""Acceptance suite: seven criteria, one test each, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Criterion 5 writes its comparison report before its
ordering assertions run, so a failed ordering is flagged on disk rather
than silently hidden.
"""

import json
import math
import time
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from oracles import (
    aupr_enumeration_oracle,
    auroc_pair_oracle,
    contrastive_double_loop_oracle,
    fpr95_scan_oracle,
    mahalanobis_loop_oracle,
)

from mmood.cli import main, run_ablation
from mmood.config import RunConfig
from mmood.corpus import Corpus, CorpusMeta, ModalitySynth, SynthConfig, synth_corpus
from mmood.heads import coarse_loss, contrastive_from_views, make_view_ids, multiclass_loss
from mmood.layers import check_gradients
from mmood.metrics import aupr, fpr95_der, roc_auroc, id_metrics
from mmood.model import FusionModel, ModelHyper, SLOT_SYNTH
from mmood.numerics import component_rng, make_rng
from mmood.oodgen import Batch, OodGenConfig, sample_pseudo_ood
from mmood.scoring import fit_class_stats, score_mahalanobis


@contextmanager
def criterion(tag: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {tag}: FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {tag}: PASS", flush=True)


# -- C1: gradient suite -------------------------------------------------------


TINY_META = CorpusMeta(num_classes=3,
                       shapes={"T": (2, 6), "V": (3, 4), "A": (2, 4)})


def tiny_model(seed: int) -> FusionModel:
    hyper = ModelHyper(attn_heads=2, fusion_hidden=5, contrast_dim=5,
                       gamma=8.0, tau=0.7, dropout=0.2)
    return FusionModel(TINY_META, hyper, seed)


def tiny_batch(seed: int) -> Batch:
    rng = make_rng(1000 + seed)
    seqs = {m: rng.normal(size=(4,) + TINY_META.shapes[m])
            for m in ("T", "V", "A")}
    return Batch(seqs=seqs, labels=np.array([0, 1, -1, -1]),
                 binary=np.array([1, 1, 0, 0]))


def _coarse_target(model, batch):
    def run(compute_grads):
        rng = make_rng(7)
        xs, ec = model.encode_batch(batch.seqs)
        z, _, fc = model.fusion.forward(xs, train=True, rng=rng)
        logits, bc = model.binary_head.forward(z)
        loss, dlogits = coarse_loss(logits, batch.binary)
        if compute_grads:
            gz = model.binary_head.backward(dlogits, bc)
            model.encoders_backward(model.fusion.backward(gz, fc), ec)
        return loss
    return run, model.stage1_params()


def _multiclass_target(model, batch):
    id_mask = batch.binary == 1

    def run(compute_grads):
        rng = make_rng(8)
        xs, ec = model.encode_batch(batch.seqs)
        z, _, fc = model.fusion.forward(xs, train=True, rng=rng)
        logits, cc = model.class_head.forward(z[id_mask])
        loss, dlogits = multiclass_loss(logits, batch.labels[id_mask])
        if compute_grads:
            g_z = np.zeros_like(z)
            g_z[id_mask] = model.class_head.backward(dlogits, cc)
            model.encoders_backward(model.fusion.backward(g_z, fc), ec)
        return loss
    params = [p for m in ("T", "V", "A") for p in model.encoders[m].params()]
    return run, params + model.fusion.params() + model.class_head.params()


def _contrastive_target(model, batch):
    def run(compute_grads):
        rng = make_rng(9)
        xs, ec = model.encode_batch(batch.seqs)
        z1, _, fc1 = model.fusion.forward(xs, train=True, rng=rng)
        z2, _, fc2 = model.fusion.forward(xs, train=True, rng=rng)
        v1, cc1 = model.contrast_head.forward(z1, train=True, rng=rng)
        v2, cc2 = model.contrast_head.forward(z2, train=True, rng=rng)
        labels2, is_id2, partner = make_view_ids(batch.labels, batch.binary)
        loss, g_views = contrastive_from_views(
            np.concatenate([v1, v2]), labels2, is_id2, partner,
            model.hyper.tau)
        if compute_grads:
            b = z1.shape[0]
            g_z1 = model.contrast_head.backward(g_views[:b], cc1)
            g_z2 = model.contrast_head.backward(g_views[b:], cc2)
            gxs1 = model.fusion.backward(g_z1, fc1)
            gxs2 = model.fusion.backward(g_z2, fc2)
            model.encoders_backward(
                {m: gxs1[m] + gxs2[m] for m in gxs1}, ec)
        return loss
    params = [p for m in ("T", "V", "A") for p in model.encoders[m].params()]
    return run, params + model.fusion.params() + model.contrast_head.params()


def _stack_target(model, batch):
    probe_rng = make_rng(10)
    probe_z = probe_rng.normal(size=(4, 6))
    probe_w = probe_rng.normal(size=(4, 3))

    def run(compute_grads):
        rng = make_rng(11)
        xs, ec = model.encode_batch(batch.seqs)
        z, w, fc = model.fusion.forward(xs, train=True, rng=rng)
        loss = float((z * probe_z).sum() + (w * probe_w).sum())
        if compute_grads:
            model.encoders_backward(
                model.fusion.backward(probe_z, fc, g_w=probe_w), ec)
        return loss
    params = [p for m in ("T", "V", "A") for p in model.encoders[m].params()]
    return run, params + model.fusion.params()


def test_c1_gradient_suite():
    targets = {
        "coarse_loss": _coarse_target,
        "multiclass_loss": _multiclass_target,
        "contrastive_loss": _contrastive_target,
        "fusion_encoder_stack": _stack_target,
    }
    with criterion("C1 gradient suite"):
        start = time.time()
        for name, factory in targets.items():
            for point in range(10):
                model = tiny_model(seed=point)
                batch = tiny_batch(seed=point)
                run, params = factory(model, batch)
                failures = check_gradients(run, params)
                assert failures == [], f"{name} point {point}: {failures[:5]}"
        elapsed = time.time() - start
        assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"


# -- C2: oracle equivalence ---------------------------------------------------


def _random_flags(rng, n):
    flags = rng.integers(0, 2, size=n).astype(bool)
    if flags.all():
        flags[0] = False
    if not flags.any():
        flags[0] = True
    return flags


def test_c2_oracle_equivalence():
    with criterion("C2 oracle equivalence"):
        start = time.time()
        rng = make_rng(2024)

        for _ in range(100):  # Mahalanobis vs per-class dense-inverse loop
            dim = int(rng.integers(2, 9))
            k = int(rng.integers(2, 5))
            # full-rank class covariances: every class gets >= dim+2 rows
            n = int(rng.integers(k * (dim + 2), 51))
            labels = np.arange(n) % k
            feats = rng.normal(size=(n, dim)) * 3.0
            stats = fit_class_stats(feats, labels, k)
            z = rng.normal(size=dim)
            expected = mahalanobis_loop_oracle(z, stats.means, stats.covs,
                                               stats.eps)
            assert score_mahalanobis(z[None], stats)[0] == pytest.approx(
                expected, abs=1e-8)

        for i in range(100):  # AUROC: exact pair-count agreement
            n = int(rng.integers(4, 51))
            scores = np.round(rng.normal(size=n), 1) if i % 2 \
                else rng.normal(size=n)
            flags = _random_flags(rng, n)
            assert roc_auroc(scores, flags)[1] == auroc_pair_oracle(scores,
                                                                    flags)

        for i in range(100):  # AUPR both orientations
            n = int(rng.integers(4, 51))
            scores = np.round(rng.normal(size=n), 1) if i % 2 \
                else rng.normal(size=n)
            flags = _random_flags(rng, n)
            for positive in ("ID", "OOD"):
                assert aupr(scores, flags, positive) == pytest.approx(
                    aupr_enumeration_oracle(scores, flags, positive),
                    abs=1e-8)

        with warnings.catch_warnings():  # FPR95/DER vs exhaustive scan
            warnings.simplefilter("ignore")
            for _ in range(100):
                n_id = int(rng.integers(5, 40))
                n_ood = int(rng.integers(2, 11))
                scores = np.concatenate([rng.normal(1.0, 1.0, n_id),
                                         rng.normal(0.0, 1.0, n_ood)])
                flags = np.array([True] * n_id + [False] * n_ood)
                assert fpr95_der(scores, flags) == pytest.approx(
                    fpr95_scan_oracle(scores, flags), abs=1e-8)

        for _ in range(100):  # contrastive loss vs double loop
            b = int(rng.integers(2, 13))
            dim = int(rng.integers(2, 9))
            binary = _random_flags(rng, b).astype(int)
            raw_labels = np.where(binary == 1, rng.integers(0, 3, b), -1)
            views = rng.normal(size=(2 * b, dim))
            labels2, is_id2, partner = make_view_ids(raw_labels, binary)
            tau = float(rng.uniform(0.3, 3.0))
            loss, _ = contrastive_from_views(views, labels2, is_id2, partner,
                                             tau)
            assert loss == pytest.approx(
                contrastive_double_loop_oracle(views, labels2, is_id2,
                                               partner, tau), abs=1e-8)

        elapsed = time.time() - start
        assert elapsed < 120.0, f"oracle suite took {elapsed:.1f}s"


# -- C3: simplex / convexity --------------------------------------------------


def test_c3_simplex_convexity_suite():
    with criterion("C3 simplex/convexity suite"):
        rng = make_rng(3030)
        pool_shapes = {"T": (3, 5), "V": (2, 4), "A": (4, 3)}
        draws = [{m: rng.normal(size=s) for m, s in pool_shapes.items()}
                 for _ in range(16)]
        records = Corpus(
            meta=CorpusMeta(num_classes=3, shapes=pool_shapes),
            ids=np.array([f"r{i}" for i in range(16)]),
            splits=np.full(16, "train"),
            labels=np.arange(16) % 3,
            seqs={m: np.stack([d[m] for d in draws]) for m in pool_shapes},
        )
        label_arr = records.labels
        cfg = OodGenConfig(mix_count=3, alpha=0.7)
        gen_rng = make_rng(3131)
        violations = 0
        batch = sample_pseudo_ood(records, cfg, gen_rng, 10_000)
        for row, idx in enumerate(batch.sources):
            lam = batch.lams[row]
            if abs(lam.sum() - 1.0) > 1e-12 or np.any(lam < 0):
                violations += 1
                continue
            if len(set(label_arr[idx].tolist())) < 2:
                violations += 1
                continue
            for m in pool_shapes:
                stack = records.seqs[m][idx]
                if np.any(batch.seqs[m][row] < stack.min(axis=0) - 1e-9) or \
                        np.any(batch.seqs[m][row] > stack.max(axis=0) + 1e-9):
                    violations += 1
                    break
        assert violations == 0


# -- C4 + C6: end-to-end pipeline and scorer harness --------------------------


PIPELINE_INI = """
[model]
fusion_hidden = 32

[train]
batch_size = 32
stage1_epochs = 5
stage2_epochs = 25
learning_rate = 0.002

[eval]
scorer = all
"""


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    """Full pipeline on the canonical separable corpus, seed 0, via the CLI."""
    root = tmp_path_factory.mktemp("pipeline")
    cfg = root / "run.ini"
    cfg.write_text(PIPELINE_INI)
    start = time.time()
    assert main(["synth", "--config", str(cfg), "--out",
                 str(root / "corpus"), "--seed", "0"]) == 0
    assert main(["train", "--config", str(cfg), "--corpus",
                 str(root / "corpus"), "--out", str(root / "run"),
                 "--seed", "0"]) == 0
    assert main(["eval", "--config", str(cfg), "--checkpoint",
                 str(root / "run"), "--corpus", str(root / "corpus"),
                 "--out", str(root / "eval")]) == 0
    elapsed = time.time() - start
    report = json.loads((root / "eval" / "eval_report.json").read_text())
    return {"root": root, "elapsed": elapsed, "report": report}


def test_c4_end_to_end_separability(pipeline_run):
    with criterion("C4 end-to-end separability"):
        report = pipeline_run["report"]
        acc = report["id_metrics"]["acc"]
        auroc = report["ood_metrics"]["mahalanobis"]["auroc"]
        assert acc >= 0.95, f"ID accuracy {acc}"
        assert auroc >= 0.90, f"Mahalanobis AUROC {auroc}"
        assert pipeline_run["elapsed"] < 180.0, \
            f"pipeline took {pipeline_run['elapsed']:.1f}s"


def test_c6_scorer_comparison_harness(pipeline_run):
    with criterion("C6 scorer comparison harness"):
        eval_dir = pipeline_run["root"] / "eval"
        lines = (eval_dir / "metrics.csv").read_text().splitlines()
        scorers = [line.split(",")[0] for line in lines[1:]]
        assert sorted(scorers) == ["energy", "mahalanobis", "maxlogit",
                                   "msp", "residual", "vim"]
        report = pipeline_run["report"]
        for scorer in scorers:
            rows = [json.loads(line) for line in
                    (eval_dir / f"scores_{scorer}.jsonl").read_text()
                    .splitlines()]
            raw = np.array([r["raw"] for r in rows])
            flags = np.array([r["is_id"] for r in rows])
            transformed = 2.0 * raw + 7.0
            assert roc_auroc(raw, flags)[1] == roc_auroc(transformed,
                                                         flags)[1]
            for positive in ("ID", "OOD"):
                assert aupr(raw, flags, positive) == aupr(transformed, flags,
                                                          positive)
            assert fpr95_der(raw, flags) == fpr95_der(transformed, flags)
            # dumped scores reproduce the reported AUROC
            assert roc_auroc(raw, flags)[1] == \
                report["ood_metrics"][scorer]["auroc"]


# -- C5: directional ablation reproduction ------------------------------------


def test_c5_directional_ablation(tmp_path):
    with criterion("C5 directional ablation"):
        synth = SynthConfig(
            num_classes=3, n_train=200, n_valid=80, n_test_id=80,
            n_test_ood=60, ood_clusters=3,
            modalities={
                "T": ModalitySynth(6, 16, radius=2.0, sigma=0.6),
                "V": ModalitySynth(8, 12, radius=0.3, sigma=1.5,
                                   class_sigma_spread=2.0),
                "A": ModalitySynth(10, 8, radius=0.3, sigma=1.5,
                                   class_sigma_spread=2.0),
            },
        )
        corpus = synth_corpus(synth, component_rng(0, SLOT_SYNTH))
        cfg = RunConfig()
        cfg.train.batch_size = 32
        cfg.train.stage1_epochs = 3
        cfg.train.stage2_epochs = 12
        cfg.train.learning_rate = 2e-3
        cfg.train.model = ModelHyper(attn_heads=4, fusion_hidden=32)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = run_ablation(
                corpus, cfg,
                ["Full", "Fusion (Add)", "Fusion (Concat)", "w / o Binary"],
                [0, 1, 2, 3, 4], tmp_path,
            )
        # the comparison report exists regardless of how the checks went
        summary = json.loads((tmp_path / "ablation_summary.json").read_text())
        assert (tmp_path / "ablation.csv").exists()
        assert (tmp_path / "aggregate.csv").exists()
        assert set(summary["ordering_checks"]) == {
            "weighted_ge_add", "weighted_ge_concat", "full_ge_no_binary"}
        failed = [name for name, ok in summary["ordering_checks"].items()
                  if not ok]
        assert not failed, (
            f"expected orderings violated: {failed} "
            f"(flagged in {tmp_path / 'ablation_summary.json'})"
        )


# -- C7: metric spot values ---------------------------------------------------


def test_c7_metric_spot_values():
    with criterion("C7 metric spot values"):
        # DER arithmetic: TPR exactly 0.95 with FPR 0.5 at the threshold
        id_scores = np.array([1.0] * 19 + [0.0])
        ood_scores = np.array([1.0, -1.0])
        scores = np.concatenate([id_scores, ood_scores])
        flags = np.array([True] * 20 + [False] * 2)
        fpr95, der = fpr95_der(scores, flags)
        assert fpr95 == 0.5
        assert der == 0.275

        # coarse loss at uniform confidence is exactly ln 2
        loss, _ = coarse_loss(np.zeros((4, 2)), np.array([1, 0, 1, 0]))
        assert loss == math.log(2.0)
