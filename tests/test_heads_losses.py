import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from mmood.corpus import (
    CorpusMeta,
    ModalitySynth,
    OOD_LABEL,
    SynthConfig,
    make_batches,
    synth_corpus,
)
from mmood.errors import ParameterError, TrainingError
from mmood.heads import (
    BinaryHead,
    ContrastHead,
    CosineHead,
    LinearHead,
    coarse_loss,
    contrastive_from_views,
    multiclass_loss,
)
from mmood.layers import check_gradients
from mmood.model import FusionModel, ModelHyper
from mmood.numerics import make_rng
from mmood.oodgen import OodGenConfig, build_mixed_batch
from mmood.train import (ABLATION_VARIANTS, AdamW, TrainConfig, _step, train,
                         variant_config)
from conftest import built, param


def contrastive_loss(z, labels, head, tau, rng, train=True):
    """Contrastive loss on one fused batch; ``(loss, grad_wrt_z)``.

    The positive augmentation of each sample is a second pass through the
    projection head with independent dropout masks; parameter gradients
    accumulate in the head.
    """
    v1, c1 = head.forward(z, train, rng)
    v2, c2 = head.forward(z, train, rng)
    loss, g_v1, g_v2 = contrastive_from_views(v1, v2, np.asarray(labels), tau)
    gz = head.backward(g_v1, c1) + head.backward(g_v2, c2)
    return loss, gz


def desk_corpus(seed=0, n_train=150, sigma=0.3, spread=0.0):
    cfg = SynthConfig(
        num_classes=3, n_train=n_train, n_valid=60, n_test_id=60, n_test_ood=30,
        modalities={
            "T": ModalitySynth(4, 8, radius=5.0, sigma=sigma,
                               class_sigma_spread=spread),
            "V": ModalitySynth(3, 6, radius=5.0, sigma=sigma,
                               class_sigma_spread=spread),
            "A": ModalitySynth(5, 4, radius=5.0, sigma=sigma,
                               class_sigma_spread=spread),
        },
    )
    return synth_corpus(cfg, make_rng(seed))


def desk_train_cfg(**kw):
    hyper = kw.pop("model", ModelHyper(attn_heads=2, fusion_hidden=8,
                                       gamma=16.0, tau=2.0, dropout=0.1))
    base = dict(batch_size=16, stage1_epochs=2, stage2_epochs=8,
                learning_rate=2e-3, seed=0, model=hyper)
    base.update(kw)
    return TrainConfig(**base)


class TestCoarseLoss:
    def test_uniform_probabilities_give_ln2(self):
        logits = np.zeros((5, 2))
        loss, _ = coarse_loss(logits, np.array([1, 0, 1, 0, 1]))
        assert loss == math.log(2.0)

    def test_perfect_classifier_near_zero(self):
        logits = np.array([[0.0, 60.0], [60.0, 0.0]])
        loss, _ = coarse_loss(logits, np.array([1, 0]))
        assert loss < 1e-12

    def test_hand_case(self):
        # correct-class probabilities 0.9 (ID sample) and 0.8 (OOD sample)
        logits = np.log(np.array([[0.1, 0.9], [0.8, 0.2]]))
        loss, _ = coarse_loss(logits, np.array([1, 0]))
        assert loss == pytest.approx(-(math.log(0.9) + math.log(0.8)) / 2,
                                     abs=1e-14)

    def test_gradient(self):
        rng = make_rng(0)
        logits_p = param("logits", rng.normal(size=(6, 2)))
        binary = np.array([1, 0, 0, 1, 1, 0])

        def run(compute_grads):
            loss, grad = coarse_loss(logits_p.value, binary)
            if compute_grads:
                logits_p.grad += grad
            return loss

        assert check_gradients(run, [logits_p]) == []


class TestCosineHead:
    def test_parallel_and_orthogonal(self):
        head = built(CosineHead("class", 4, 2, gamma=16.0), make_rng(1))
        head.W.value[0] = [1.0, 0.0, 0.0, 0.0]
        head.W.value[1] = [0.0, 2.0, 0.0, 0.0]
        z = np.array([[3.0, 0.0, 0.0, 0.0]])
        logits, _ = head.forward(z)
        assert logits[0, 0] == pytest.approx(16.0, abs=1e-12)
        assert logits[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_logits_bounded_by_gamma(self):
        head = built(CosineHead("class", 5, 3, gamma=8.0), make_rng(2))
        logits, _ = head.forward(make_rng(3).normal(size=(10, 5)))
        assert np.all(np.abs(logits) <= 8.0 + 1e-12)

    def test_scale_invariance(self):
        head = built(CosineHead("class", 5, 3, gamma=16.0), make_rng(4))
        z = make_rng(5).normal(size=(4, 5))
        base, _ = head.forward(z)
        exact, _ = head.forward(2.0 * z)  # power-of-two scale: bit-exact
        assert np.array_equal(base, exact)
        close, _ = head.forward(7.0 * z)
        assert np.allclose(base, close, atol=1e-10)
        assert np.array_equal(base.argmax(axis=1), close.argmax(axis=1))

    def test_zero_feature_guard(self):
        head = built(CosineHead("class", 3, 2, gamma=16.0), make_rng(6))
        logits, cache = head.forward(np.zeros((1, 3)))
        assert np.array_equal(logits, np.zeros((1, 2)))
        gz = head.backward(np.ones((1, 2)), cache)
        assert np.array_equal(gz, np.zeros((1, 3)))

    def test_gradients(self):
        head = built(CosineHead("class", 4, 3, gamma=4.0), make_rng(7))
        z_p = param("z", make_rng(8).normal(size=(5, 4)))
        labels = np.array([0, 1, 2, 1, 0])

        def run(compute_grads):
            logits, cache = head.forward(z_p.value)
            loss, dlogits = multiclass_loss(logits, labels)
            if compute_grads:
                z_p.grad += head.backward(dlogits, cache)
            return loss

        assert check_gradients(run, [z_p, head.W]) == []


class TestMulticlassLoss:
    def test_uniform_logits(self):
        loss, _ = multiclass_loss(np.zeros((3, 4)), np.array([0, 1, 3]))
        assert loss == pytest.approx(math.log(4.0), abs=1e-15)

    def test_confident_correct_class(self):
        logits = np.array([[16.0, 0.0, 0.0]])
        loss, _ = multiclass_loss(logits, np.array([0]))
        expected = -math.log(math.exp(16.0) / (math.exp(16.0) + 2.0))
        assert loss == pytest.approx(expected, rel=1e-10)
        assert loss == pytest.approx(2.25e-7, rel=0.01)

    def test_two_class_hand_case(self):
        loss, _ = multiclass_loss(np.array([[1.0, 0.0]]), np.array([0]))
        assert loss == pytest.approx(-math.log(math.e / (math.e + 1.0)),
                                     abs=1e-14)

    def test_ood_sample_rejected(self):
        with pytest.raises(ParameterError):
            multiclass_loss(np.zeros((2, 3)), np.array([0, OOD_LABEL]))

    def test_rescaling_features_keeps_loss(self):
        head = built(CosineHead("class", 6, 3, gamma=16.0), make_rng(9))
        z = make_rng(10).normal(size=(5, 6))
        labels = np.array([0, 1, 2, 0, 1])
        l1, _ = multiclass_loss(head.forward(z)[0], labels)
        l2, _ = multiclass_loss(head.forward(4.0 * z)[0], labels)
        assert l1 == l2


from oracles import AdamWStepOracle, adamw_loop_oracle
from oracles import contrastive_anchor_loop_oracle, make_view_ids
from oracles import coarse_step_oracle, fine_step_oracle
from oracles import contrastive_double_loop_oracle as contrastive_oracle


class TestContrastive:
    def test_infinite_temperature_limit(self):
        rng = make_rng(11)
        b = 6
        views = rng.normal(size=(2 * b, 5))
        loss, *_ = contrastive_from_views(views[:b], views[b:],
                                          np.array([0, 0, 1, -1, -1, 2]),
                                          tau=1e9)
        assert loss == pytest.approx(math.log(2 * b - 1), abs=1e-8)

    def test_matches_double_loop_oracle(self):
        rng = make_rng(12)
        for trial in range(20):
            b = int(rng.integers(2, 8))
            raw_labels = rng.integers(0, 3, size=b)
            binary = rng.integers(0, 2, size=b)
            raw_labels = np.where(binary == 1, raw_labels, OOD_LABEL)
            views = rng.normal(size=(2 * b, 4))
            labels, is_id, partner = make_view_ids(raw_labels, binary)
            tau = float(rng.uniform(0.3, 3.0))
            loss, *_ = contrastive_from_views(views[:b], views[b:],
                                              raw_labels, tau)
            ref = contrastive_oracle(views, labels, is_id, partner, tau)
            assert loss == pytest.approx(ref, abs=1e-10)

    def test_minimal_mixed_batch_oracle(self):
        # B=2: one ID, one OOD, hand-set unit vectors
        views = np.array([
            [1.0, 0.0, 0.0],   # ID original
            [0.0, 1.0, 0.0],   # OOD original
            [1.0, 1.0, 0.0] / np.sqrt(2),  # ID augmentation
            [0.0, 0.0, 1.0],   # OOD augmentation
        ])
        raw = np.array([0, OOD_LABEL])
        labels, is_id, partner = make_view_ids(raw, np.array([1, 0]))
        tau = 0.8
        loss, *_ = contrastive_from_views(views[:2], views[2:], raw, tau)
        ref = contrastive_oracle(views, labels, is_id, partner, tau)
        assert loss == pytest.approx(ref, abs=1e-10)

    def test_identical_pair_closed_form(self):
        # two identical ID views, everything else orthogonal
        views = np.array([
            [1.0, 0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
        ])
        labels = np.array([0, 1])  # pairs: views 0-1 and 2-3
        tau = 0.5
        n = 4
        pair = -math.log(math.exp(1 / tau) / (math.exp(1 / tau) + (n - 2)))
        other = math.log(n - 1)  # orthogonal anchors see all-equal terms
        expected = (2 * pair + 2 * other) / n
        loss, *_ = contrastive_from_views(views[0::2], views[1::2], labels,
                                          tau)
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_increasing_pair_similarity_decreases_loss(self):
        # rotate view 1 toward view 0 in a plane orthogonal to all others
        n_other = 4
        dim = 2 + n_other
        others = np.eye(dim)[2:]
        labels = np.array([0, 1, 2])  # pairs: views 0-1, 2-3 and 4-5
        losses = []
        for theta in [1.4, 1.0, 0.6, 0.2]:
            v1 = np.zeros(dim)
            v1[0], v1[1] = math.cos(theta), math.sin(theta)
            views = np.vstack([np.eye(dim)[0], v1, others])
            loss, *_ = contrastive_from_views(views[0::2], views[1::2],
                                              labels, tau=1.0)
            losses.append(loss)
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_gradients_wrt_views(self):
        rng = make_rng(13)
        views_p = param("views", rng.normal(size=(8, 5)))
        labels = np.array([0, 1, OOD_LABEL, 1])

        def run(compute_grads):
            loss, g_v1, g_v2 = contrastive_from_views(
                views_p.value[:4], views_p.value[4:], labels, tau=0.7)
            if compute_grads:
                views_p.grad += np.concatenate([g_v1, g_v2])
            return loss

        assert check_gradients(run, [views_p]) == []

    def test_full_op_with_dropout_head(self):
        rng = make_rng(14)
        head = built(ContrastHead("contrast", 6, 4, dropout=0.3), make_rng(15))
        z_p = param("z", rng.normal(size=(4, 6)))
        labels = np.array([0, 1, OOD_LABEL, 0])

        def run(compute_grads):
            run_rng = make_rng(123)
            loss, gz = contrastive_loss(z_p.value, labels, head,
                                        tau=1.5, rng=run_rng, train=True)
            if compute_grads:
                z_p.grad += gz
            return loss

        assert check_gradients(run, [z_p] + head.params()) == []


class TestContrastiveMask:
    """The positive-mask form against the per-anchor loop it replaced."""

    @staticmethod
    def _case(rng, b, kind):
        raw = rng.integers(0, 3, size=b)  # three classes: label ties
        if kind == "all_id":
            binary = np.ones(b, dtype=int)
        elif kind == "all_ood":
            binary = np.zeros(b, dtype=int)
        else:
            binary = rng.integers(0, 2, size=b)
        raw = np.where(binary == 1, raw, OOD_LABEL)
        views = rng.normal(size=(2 * b, int(rng.integers(2, 7))))
        if kind == "zero_view":
            views[int(rng.integers(0, 2 * b))] = 0.0
        return views, raw, binary, float(rng.uniform(0.1, 3.0))

    @pytest.mark.parametrize("kind", ["mixed", "all_id", "all_ood",
                                      "zero_view"])
    def test_matches_anchor_loop(self, kind):
        rng = make_rng(40)
        for b in range(1, 17):
            for _ in range(4):
                views, raw, binary, tau = self._case(rng, b, kind)
                loss, g_v1, g_v2 = contrastive_from_views(
                    views[:b], views[b:], raw, tau)
                ref_loss, ref_grad = contrastive_anchor_loop_oracle(
                    views, *make_view_ids(raw, binary), tau)
                assert np.array_equal(np.concatenate([g_v1, g_v2]),
                                      ref_grad), (kind, b)
                assert loss == pytest.approx(ref_loss, abs=1e-12)


class TestBinaryHeadLinearHead:
    def test_binary_head_gradients(self):
        head = built(BinaryHead("binary", 5), make_rng(16))
        z_p = param("z", make_rng(17).normal(size=(6, 5)))
        binary = np.array([1, 0, 1, 0, 0, 1])

        def run(compute_grads):
            logits, cache = head.forward(z_p.value)
            loss, dlogits = coarse_loss(logits, binary)
            if compute_grads:
                z_p.grad += head.backward(dlogits, cache)
            return loss

        assert check_gradients(run, [z_p] + head.params()) == []

    def test_linear_head_shape(self):
        head = built(LinearHead("class", 5, 3), make_rng(18))
        logits, _ = head.forward(np.zeros((2, 5)))
        assert logits.shape == (2, 3)


class TestAdamW:
    def test_zero_lr_is_identity(self):
        p = param("p", np.array([1.0, -2.0]))
        opt = AdamW(p.value, p.grad, lr=0.0, weight_decay=0.5)
        p.grad[...] = [10.0, -3.0]
        opt.step()
        assert np.array_equal(p.value, [1.0, -2.0])

    def test_decoupled_decay_with_zero_gradient(self):
        p = param("p", np.array([2.0]))
        opt = AdamW(p.value, p.grad, lr=0.1, weight_decay=0.5)
        opt.step()  # grad 0: adaptive term 0, decay only
        assert p.value[0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0, abs=1e-15)

    def test_minimizes_quadratic(self):
        p = param("p", np.array([5.0]))
        opt = AdamW(p.value, p.grad, lr=0.1, weight_decay=0.0)
        for _ in range(500):
            opt.zero_grad()
            p.grad[...] = 2.0 * p.value
            opt.step()
        assert abs(p.value[0]) < 1e-3


class TestAdamWStepOracle:
    @pytest.mark.parametrize("size", [7, 12_345, 61_283])
    def test_in_place_step_is_former_step(self, size):
        rng = make_rng(44)
        init = rng.normal(size=size)
        grads = np.zeros(size)
        opt = AdamW(init.copy(), grads, lr=0.01, weight_decay=0.05)
        former = AdamWStepOracle(init.copy(), grads, lr=0.01,
                                 weight_decay=0.05)
        for _ in range(100):
            grads[...] = rng.normal(size=size) * rng.choice([1e-6, 1.0, 1e3])
            grads[rng.random(size) < 0.1] = 0.0
            opt.step()
            former.step()
        for got, want in ((opt.values, former.values), (opt.m, former.m),
                          (opt.v, former.v)):
            assert np.array_equal(got, want)


class TestFlatAdamW:
    """AdamW over the model's flat buffer, against a per-tensor loop."""

    @staticmethod
    def _model():
        return FusionModel(desk_corpus(n_train=60).meta,
                           desk_train_cfg().model, 0)

    @pytest.mark.parametrize("stage", [1, 2])
    def test_matches_per_tensor_loop(self, stage):
        model = self._model()
        params = model.params(stage)
        assert len({p.value.shape for p in params}) > 3
        opt = AdamW(*model.stage_slice(stage), lr=0.05, weight_decay=0.01)
        init = [p.value.copy() for p in params]
        rng = make_rng(42)
        steps = []
        for _ in range(5):
            grads = [rng.normal(size=p.value.shape) for p in params]
            opt.zero_grad()
            for p, g in zip(params, grads):
                p.grad[...] = g
            opt.step()
            steps.append(grads)
        expected = adamw_loop_oracle(init, steps, lr=0.05, weight_decay=0.01)
        for p, want in zip(params, expected):
            assert np.array_equal(p.value, want), p.name

    def test_stages_update_only_their_slices(self):
        model = self._model()
        rng = make_rng(43)
        for stage, frozen in ((1, ("class.", "contrast.")), (2, ("binary.",))):
            before = {p.name: p.value.copy() for p in model.params()}
            opt = AdamW(*model.stage_slice(stage), lr=0.05,
                        weight_decay=0.01)
            for _ in range(3):
                model.grads[...] = rng.normal(size=model.grads.shape)
                opt.step()
            for p in model.params():
                changed = not np.array_equal(p.value, before[p.name])
                assert changed != p.name.startswith(frozen), (stage, p.name)

    @pytest.mark.parametrize("mode", ["weighted", "add", "concat"])
    @pytest.mark.parametrize("no_binary", [False, True])
    @pytest.mark.parametrize("no_cosine", [False, True])
    @pytest.mark.parametrize("no_contrast", [False, True])
    def test_stage_slice_tiles_stage_params(self, mode, no_binary, no_cosine,
                                            no_contrast):
        hyper = replace(desk_train_cfg().model, fusion_mode=mode,
                        no_binary=no_binary, no_cosine=no_cosine,
                        no_contrast=no_contrast)
        model = FusionModel(desk_corpus(n_train=60).meta, hyper, 0)
        for stage in (1, 2):
            values, grads = model.stage_slice(stage)
            for buf, part, attr in ((model.values, values, "value"),
                                    (model.grads, grads, "grad")):
                # number the slice; the stage's params must cover each
                # number once and nothing outside it
                buf[...] = -1.0
                part[...] = np.arange(part.size)
                covered = np.sort(np.concatenate(
                    [getattr(p, attr).ravel() for p in model.params(stage)]))
                assert np.array_equal(covered, np.arange(part.size)), stage


def _former_step(stage, model, batch, rng):
    """The loss dict the pre-unification step for ``stage`` produced."""
    if stage == 1:
        loss = coarse_step_oracle(model, batch, rng)
        return {"coarse": loss, "total": loss}
    return fine_step_oracle(model, batch, rng)


class TestUnifiedStep:
    """``_step`` of each training stage, against the former steps."""

    @pytest.mark.parametrize("variant",
                             ["Full", "w / o Contrast", "w / o Cosine"])
    @pytest.mark.parametrize("stage", [1, 2], ids=["coarse", "fine"])
    def test_matches_former_stage_step(self, stage, variant):
        corpus = desk_corpus(n_train=60)
        cfg = variant_config(desk_train_cfg(), variant)
        train_rows = np.flatnonzero(corpus.splits == "train")
        rows = make_batches(train_rows, cfg.batch_size, make_rng(3))[0]
        batch = build_mixed_batch({m: s[rows] for m, s in corpus.seqs.items()},
                                  corpus.labels[rows], OodGenConfig(),
                                  make_rng(4))
        runs = []
        for step in (lambda m, r: _step(m, batch, r, stage),
                     lambda m, r: _former_step(stage, m, batch, r)):
            model = FusionModel(corpus.meta, cfg.model, cfg.seed)
            rng = make_rng(5)
            runs.append((model, step(model, rng), rng))
        (new, new_losses, new_rng), (old, old_losses, old_rng) = runs
        assert np.any(new.grads != 0.0)
        assert np.array_equal(new.grads, old.grads)
        assert new_losses == old_losses
        assert new_rng.bit_generator.state == old_rng.bit_generator.state


class TestTraining:
    def test_zero_learning_rate_leaves_params(self):
        corpus = desk_corpus()
        cfg = desk_train_cfg(learning_rate=0.0, stage1_epochs=1,
                             stage2_epochs=2)
        init = FusionModel(corpus.meta, cfg.model, cfg.seed)
        init_values = {p.name: p.value.copy()
                       for p in init.params()}
        trained = train(corpus, cfg, OodGenConfig())
        for name, p in trained.model.named_params().items():
            assert np.array_equal(p.value, init_values[name]), name

    def test_seeded_run_is_bit_identical(self):
        corpus = desk_corpus()
        cfg = desk_train_cfg(stage1_epochs=1, stage2_epochs=3)
        a = train(corpus, cfg, OodGenConfig())
        b = train(corpus, cfg, OodGenConfig())
        for name, p in a.model.named_params().items():
            assert np.array_equal(p.value, b.model.named_params()[name].value)
        assert a.best == b.best

    def test_separable_corpus_reaches_high_wf1(self):
        corpus = desk_corpus(sigma=0.3)
        cfg = desk_train_cfg(stage1_epochs=3, stage2_epochs=30)
        trained = train(corpus, cfg, OodGenConfig())
        assert trained.best["wf1"] >= 0.95

    def test_divergence_raises_training_error(self):
        corpus = desk_corpus(n_train=60)
        cfg = desk_train_cfg(learning_rate=1e12, stage1_epochs=2,
                             stage2_epochs=2)
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingError, match="epoch"):
                train(corpus, cfg, OodGenConfig())

    def test_losses_are_finite_and_logged(self):
        corpus = desk_corpus(n_train=60)
        trained = train(corpus, desk_train_cfg(stage2_epochs=3), OodGenConfig())
        stages = {e["stage"] for e in trained.log}
        assert stages == {"coarse", "fine"}
        for entry in trained.log:
            for key, val in entry.items():
                if key.startswith("loss_"):
                    assert math.isfinite(val) and val >= 0
        fine = [e for e in trained.log if e["stage"] == "fine"]
        assert all("val_wf1" in e for e in fine)


# Every parameter of the Full model on the micro meta (K=3; T 3x8, V 3x8,
# A 3x4; attn_heads 2, fusion_hidden 8) as sorted (name, shape). Checkpoints
# store tensors under these names, so a rename or reshape here stops older
# checkpoints from loading.
MICRO_META = CorpusMeta(3, {"T": (3, 8), "V": (3, 8), "A": (3, 4)})
MICRO_HYPER = ModelHyper(attn_heads=2, fusion_hidden=8)
FULL_PARAMS = [
    ("binary.lin1.W", (8, 8)), ("binary.lin1.b", (8,)),
    ("binary.lin2.W", (8, 2)), ("binary.lin2.b", (2,)),
    ("class.W_cos", (3, 8)),
    ("contrast.proj.W", (8, 8)), ("contrast.proj.b", (8,)),
    ("encoder.A.block.attn.k.W", (4, 4)), ("encoder.A.block.attn.k.b", (4,)),
    ("encoder.A.block.attn.o.W", (4, 4)), ("encoder.A.block.attn.o.b", (4,)),
    ("encoder.A.block.attn.q.W", (4, 4)), ("encoder.A.block.attn.q.b", (4,)),
    ("encoder.A.block.attn.v.W", (4, 4)), ("encoder.A.block.attn.v.b", (4,)),
    ("encoder.A.block.ffn.lin1.W", (4, 4)), ("encoder.A.block.ffn.lin1.b", (4,)),
    ("encoder.A.block.ffn.lin2.W", (4, 4)), ("encoder.A.block.ffn.lin2.b", (4,)),
    ("encoder.A.out_proj.W", (4, 8)),
    ("encoder.T.block.attn.k.W", (8, 8)), ("encoder.T.block.attn.k.b", (8,)),
    ("encoder.T.block.attn.o.W", (8, 8)), ("encoder.T.block.attn.o.b", (8,)),
    ("encoder.T.block.attn.q.W", (8, 8)), ("encoder.T.block.attn.q.b", (8,)),
    ("encoder.T.block.attn.v.W", (8, 8)), ("encoder.T.block.attn.v.b", (8,)),
    ("encoder.T.block.ffn.lin1.W", (8, 8)), ("encoder.T.block.ffn.lin1.b", (8,)),
    ("encoder.T.block.ffn.lin2.W", (8, 8)), ("encoder.T.block.ffn.lin2.b", (8,)),
    ("encoder.T.class_token", (8,)),
    ("encoder.V.block.attn.k.W", (8, 8)), ("encoder.V.block.attn.k.b", (8,)),
    ("encoder.V.block.attn.o.W", (8, 8)), ("encoder.V.block.attn.o.b", (8,)),
    ("encoder.V.block.attn.q.W", (8, 8)), ("encoder.V.block.attn.q.b", (8,)),
    ("encoder.V.block.attn.v.W", (8, 8)), ("encoder.V.block.attn.v.b", (8,)),
    ("encoder.V.block.ffn.lin1.W", (8, 8)), ("encoder.V.block.ffn.lin1.b", (8,)),
    ("encoder.V.block.ffn.lin2.W", (8, 8)), ("encoder.V.block.ffn.lin2.b", (8,)),
    ("encoder.V.out_proj.W", (8, 8)),
    ("fusion.score.A.in.W", (8, 8)), ("fusion.score.A.in.b", (8,)),
    ("fusion.score.A.out.W", (8, 1)), ("fusion.score.A.out.b", (1,)),
    ("fusion.score.T.in.W", (8, 8)), ("fusion.score.T.in.b", (8,)),
    ("fusion.score.T.out.W", (8, 1)), ("fusion.score.T.out.b", (1,)),
    ("fusion.score.V.in.W", (8, 8)), ("fusion.score.V.in.b", (8,)),
    ("fusion.score.V.out.W", (8, 1)), ("fusion.score.V.out.b", (1,)),
]
# variant -> (name prefixes it drops from FULL_PARAMS, entries it adds)
VARIANT_PARAM_EDITS = {
    "Full": ((), []),
    "Fusion (Add)": (("fusion.score.",), []),
    "Fusion (Concat)": (("fusion.score.",), [("fusion.concat_proj.W", (24, 8)),
                                            ("fusion.concat_proj.b", (8,))]),
    "w / o Contrast": (("contrast.",), []),
    "w / o Cosine": (("class.",), [("class.linear.W", (8, 3)),
                                   ("class.linear.b", (3,))]),
    "w / o Binary": (("binary.",), []),
}


class TestAblationAudit:
    @pytest.mark.parametrize("variant", list(ABLATION_VARIANTS))
    def test_param_names_and_shapes_pinned(self, variant):
        drop, added = VARIANT_PARAM_EDITS[variant]
        expected = sorted([e for e in FULL_PARAMS if not e[0].startswith(drop)]
                          + added)
        hyper = replace(MICRO_HYPER, **ABLATION_VARIANTS[variant][1])
        model = FusionModel(MICRO_META, hyper, 0)
        got = sorted((name, p.value.shape)
                     for name, p in model.named_params().items())
        assert got == expected

    @pytest.mark.parametrize("overrides, digest", [
        ({},
         "ee642eff8d0a895fe8af314a19dd85b04f1dda03f3dbeba15947915d9a5f3e9f"),
        ({"fusion_mode": "add"},
         "c046f25d523658d9c29f6ddbb1d40e4a335272582a156d6577cc4a1afec95dea"),
        ({"fusion_mode": "concat"},
         "fcbbd3bc2efc7c230ef27b2af60e6276ceae935c2c631819799a08e2b45b0ada"),
        ({"no_contrast": True},
         "d65ccaee3a103118f31fe704218f8f05e4c3020b77764f5745d7533ce8491f9b"),
        ({"no_cosine": True},
         "623a03e9a7156e49b16407bd40d257bc2862bbd111c8053cb039d42e161fdcd6"),
        ({"no_binary": True},
         "600f760171bcc547c55e8748dac15ad315b6e2dbe4e05be91d1c54fedbeac109"),
    ], ids=["full", "add", "concat", "no_contrast", "no_cosine", "no_binary"])
    def test_init_stream_pinned(self, overrides, digest):
        """Each component draws its initial values, in params() order, from
        its own slot's stream; these bytes pin both."""
        model = FusionModel(SynthConfig().meta(),
                            replace(ModelHyper(), **overrides), 0)
        assert hashlib.sha256(model.values.tobytes()).hexdigest() == digest

    def test_variant_param_sets(self):
        corpus = desk_corpus(n_train=60)
        base = desk_train_cfg()
        full = FusionModel(corpus.meta, base.model, 0)
        full_names = set(full.named_params())

        no_binary = FusionModel(
            corpus.meta, variant_config(base, "w / o Binary").model, 0)
        diff = full_names - set(no_binary.named_params())
        assert diff == {n for n in full_names if n.startswith("binary.")}

        no_contrast = FusionModel(
            corpus.meta, variant_config(base, "w / o Contrast").model, 0)
        diff = full_names - set(no_contrast.named_params())
        assert diff == {n for n in full_names if n.startswith("contrast.")}

        no_cosine = FusionModel(
            corpus.meta, variant_config(base, "w / o Cosine").model, 0)
        names = set(no_cosine.named_params())
        assert "class.W_cos" not in names
        assert "class.linear.W" in names and "class.linear.b" in names
        assert full_names - names == {"class.W_cos"}

    def test_flags_do_not_shift_shared_initialization(self):
        corpus = desk_corpus(n_train=60)
        base = desk_train_cfg()
        full = FusionModel(corpus.meta, base.model, 0)
        for variant in ("w / o Binary", "w / o Contrast", "Fusion (Add)"):
            other = FusionModel(corpus.meta,
                                variant_config(base, variant).model, 0)
            other_named = other.named_params()
            for name, p in full.named_params().items():
                if name in other_named and name.startswith("encoder."):
                    assert np.array_equal(p.value, other_named[name].value)

    def test_no_contrast_objective_is_multiclass_only(self):
        corpus = desk_corpus(n_train=60)
        cfg = variant_config(desk_train_cfg(stage2_epochs=2), "w / o Contrast")
        trained = train(corpus, cfg, OodGenConfig())
        fine = [e for e in trained.log if e["stage"] == "fine"]
        for entry in fine:
            assert "loss_contrastive" not in entry
            assert entry["loss_total"] == entry["loss_multiclass"]

    def test_no_binary_skips_stage_one(self):
        corpus = desk_corpus(n_train=60)
        cfg = variant_config(desk_train_cfg(stage2_epochs=2), "w / o Binary")
        trained = train(corpus, cfg, OodGenConfig())
        assert all(e["stage"] == "fine" for e in trained.log)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ParameterError):
            variant_config(desk_train_cfg(), "w / o Everything")
