"""Two-stage training: binary ID/OOD warm-up, then multi-class + contrastive.

Stage 1 optimizes encoders + fusion + binary head on the coarse binary
loss over balanced mixed batches. Stage 2 drops the binary head from the
objective and optimizes encoders + fusion + class head (+ contrastive
projection) on L_m + L_cl, with early stopping on validation weighted F1
over ID data and the best parameters restored. A ``joint_objective``
switch instead optimizes the sum of all losses in a single stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .corpus import MODALITIES, Corpus, make_batches
from .errors import ParameterError, TrainingError
from .heads import (
    coarse_loss,
    contrastive_from_views,
    make_view_ids,
    multiclass_loss,
)
from .layers import Param, flat_slice
from .metrics import id_metrics
from .model import SLOT_TRAIN_LOOP, FusionModel, ModelHyper
from .numerics import component_rng
from .oodgen import Batch, OodGenConfig, build_mixed_batch
from .scoring import ClassStats, fit_class_stats

Array = np.ndarray


@dataclass
class TrainConfig:
    batch_size: int = 32
    stage1_epochs: int = 20      # 20% of the 100-epoch default budget
    stage2_epochs: int = 80
    learning_rate: float = 1e-3
    weight_decay: float = 0.01
    patience: int = 8            # stage-2 evaluations without improvement
    seed: int = 0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    cov_eps: float | None = None  # class-covariance regularization override
    joint_objective: bool = False
    model: ModelHyper = field(default_factory=ModelHyper)

    def __post_init__(self):
        if self.batch_size < 2 or self.batch_size % 2 != 0:
            raise ParameterError(
                f"train: batch_size must be even and >= 2, got {self.batch_size}"
            )
        if self.learning_rate < 0 or self.weight_decay < 0:
            raise ParameterError("train: rates must be >= 0")
        if self.stage1_epochs < 0 or self.stage2_epochs < 0:
            raise ParameterError("train: epoch counts must be >= 0")


class AdamW:
    """Adam with decoupled weight decay and bias correction.

    Updates the one contiguous slice of values and grads that ``params``
    cover (see ``layers.flat_slice``) with whole-slice operations; the
    moment estimates are flat arrays over that slice.
    """

    def __init__(self, params: Sequence[Param], lr: float, weight_decay: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.values, self.grads = flat_slice(list(params))
        self.lr = lr
        self.wd = weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = np.zeros_like(self.values)
        self.v = np.zeros_like(self.values)

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        m, v, g = self.m, self.v, self.grads
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * g ** 2
        update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
        self.values -= self.lr * (update + self.wd * self.values)

    def zero_grad(self) -> None:
        self.grads[...] = 0.0


@dataclass
class TrainedModel:
    model: FusionModel
    class_stats: ClassStats
    train_features: Array
    train_logits: Array
    train_cfg: TrainConfig
    ood_cfg: OodGenConfig
    best: dict
    log: list[dict] = field(default_factory=list)


def _require_finite(loss: float, epoch: int, batch_idx: int, stage: str) -> None:
    if not math.isfinite(loss):
        raise TrainingError(
            f"train: non-finite loss at stage {stage}, epoch {epoch}, "
            f"batch {batch_idx}"
        )


def _coarse_step(model: FusionModel, batch: Batch,
                 rng: np.random.Generator) -> float:
    xs, enc_caches = model.encode_batch(batch.seqs)
    z, _, fuse_cache = model.fusion.forward(xs, train=True, rng=rng)
    logits, head_cache = model.binary_head.forward(z)
    loss, dlogits = coarse_loss(logits, batch.binary)
    gz = model.binary_head.backward(dlogits, head_cache)
    gxs = model.fusion.backward(gz, fuse_cache)
    model.encoders_backward(gxs, enc_caches)
    return loss


def _fine_step(model: FusionModel, batch: Batch, rng: np.random.Generator,
               include_coarse: bool) -> dict[str, float]:
    """One stage-2 (or joint) forward/backward; returns the loss pieces."""
    hyper = model.hyper
    xs, enc_caches = model.encode_batch(batch.seqs)
    z1, _, fc1 = model.fusion.forward(xs, train=True, rng=rng)
    g_z1 = np.zeros_like(z1)
    losses: dict[str, float] = {}

    id_mask = batch.binary == 1
    logits, class_cache = model.class_head.forward(z1[id_mask])
    l_m, dlogits = multiclass_loss(logits, batch.labels[id_mask])
    g_z1[id_mask] += model.class_head.backward(dlogits, class_cache)
    losses["multiclass"] = l_m

    g_z2 = None
    fc2 = None
    if not hyper.no_contrast:
        # the augmented view re-runs the fusion score network and the
        # projection head with fresh dropout masks over the same encodings
        z2, _, fc2 = model.fusion.forward(xs, train=True, rng=rng)
        v1, cc1 = model.contrast_head.forward(z1, train=True, rng=rng)
        v2, cc2 = model.contrast_head.forward(z2, train=True, rng=rng)
        labels2, is_id2, partner = make_view_ids(batch.labels, batch.binary)
        l_cl, g_views = contrastive_from_views(
            np.concatenate([v1, v2]), labels2, is_id2, partner, hyper.tau
        )
        b = z1.shape[0]
        g_z1 += model.contrast_head.backward(g_views[:b], cc1)
        g_z2 = model.contrast_head.backward(g_views[b:], cc2)
        losses["contrastive"] = l_cl

    if include_coarse:
        logits_b, bin_cache = model.binary_head.forward(z1)
        l_c, dlogits_b = coarse_loss(logits_b, batch.binary)
        g_z1 += model.binary_head.backward(dlogits_b, bin_cache)
        losses["coarse"] = l_c

    gxs = model.fusion.backward(g_z1, fc1)
    if g_z2 is not None:
        gxs2 = model.fusion.backward(g_z2, fc2)
        gxs = {m: gxs[m] + gxs2[m] for m in MODALITIES}
    model.encoders_backward(gxs, enc_caches)
    losses["total"] = sum(losses.values())
    return losses


def _validation_wf1(model: FusionModel, valid: Corpus) -> float | None:
    if len(valid) == 0:
        return None
    return id_metrics(model.predict(valid), valid.labels, model.num_classes).wf1


def train(corpus: Corpus, cfg: TrainConfig, ood_cfg: OodGenConfig) -> TrainedModel:
    """Run the full schedule on a corpus and fit inference statistics."""
    train_split = corpus.split("train")
    valid_split = corpus.split("valid")
    if len(train_split) == 0:
        raise ParameterError("train: corpus has no training records")

    hyper = cfg.model
    model = FusionModel(corpus.meta, hyper, cfg.seed)
    loop_rng = component_rng(cfg.seed, SLOT_TRAIN_LOOP)
    log: list[dict] = []

    def run_stage(stage: str, epochs: int, opt: AdamW,
                  step_fn, track_validation: bool) -> dict:
        best = {"wf1": -1.0, "epoch": None}
        best_values = None
        stale = 0
        for epoch in range(epochs):
            sums: dict[str, float] = {}
            count = 0
            for bi, rows in enumerate(
                    make_batches(train_split, cfg.batch_size, loop_rng)):
                batch = build_mixed_batch(train_split.take(rows), ood_cfg,
                                          loop_rng)
                opt.zero_grad()
                losses = step_fn(batch)
                if isinstance(losses, float):
                    losses = {"coarse": losses, "total": losses}
                _require_finite(losses["total"], epoch, bi, stage)
                opt.step()
                for key, val in losses.items():
                    sums[key] = sums.get(key, 0.0) + val
                count += 1
            entry = {"stage": stage, "epoch": epoch}
            entry.update({f"loss_{k}": v / max(count, 1)
                          for k, v in sorted(sums.items())})
            if track_validation:
                wf1 = _validation_wf1(model, valid_split)
                if wf1 is not None:
                    entry["val_wf1"] = wf1
                    if wf1 > best["wf1"]:
                        best = {"wf1": wf1, "epoch": epoch}
                        best_values = model.values.copy()
                        stale = 0
                    elif wf1 == best["wf1"]:
                        # ties keep the most-trained snapshot but still
                        # count toward patience
                        best = {"wf1": wf1, "epoch": epoch}
                        best_values = model.values.copy()
                        stale += 1
                    else:
                        stale += 1
            log.append(entry)
            if track_validation and best_values is not None and stale > cfg.patience:
                break
        if best_values is not None:
            model.values[...] = best_values
        return best

    if cfg.joint_objective:
        if hyper.no_binary:
            raise ParameterError(
                "train: joint_objective needs the binary head (no_binary off)"
            )
        opt = AdamW(model.params(), cfg.learning_rate, cfg.weight_decay,
                    cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
        best = run_stage(
            "joint", cfg.stage1_epochs + cfg.stage2_epochs, opt,
            lambda b: _fine_step(model, b, loop_rng, include_coarse=True),
            track_validation=True,
        )
    else:
        if not hyper.no_binary and cfg.stage1_epochs > 0:
            opt1 = AdamW(model.stage1_params(), cfg.learning_rate,
                         cfg.weight_decay, cfg.adam_beta1, cfg.adam_beta2,
                         cfg.adam_eps)
            run_stage("coarse", cfg.stage1_epochs, opt1,
                      lambda b: _coarse_step(model, b, loop_rng),
                      track_validation=False)
        opt2 = AdamW(model.stage2_params(), cfg.learning_rate,
                     cfg.weight_decay, cfg.adam_beta1, cfg.adam_beta2,
                     cfg.adam_eps)
        best = run_stage(
            "fine", cfg.stage2_epochs, opt2,
            lambda b: _fine_step(model, b, loop_rng, include_coarse=False),
            track_validation=True,
        )

    train_features = model.features_for(train_split)
    train_logits = model.logits_for(train_features)
    class_stats = fit_class_stats(train_features, train_split.labels,
                                  corpus.num_classes, eps=cfg.cov_eps)
    return TrainedModel(
        model=model, class_stats=class_stats,
        train_features=train_features, train_logits=train_logits,
        train_cfg=cfg, ood_cfg=ood_cfg, best=best, log=log,
    )


# display name -> (CLI slug, ModelHyper overrides)
ABLATION_VARIANTS = {
    "Full": ("full", {}),
    "Fusion (Add)": ("add", {"fusion_mode": "add"}),
    "Fusion (Concat)": ("concat", {"fusion_mode": "concat"}),
    "w / o Contrast": ("no_contrast", {"no_contrast": True}),
    "w / o Cosine": ("no_cosine", {"no_cosine": True}),
    "w / o Binary": ("no_binary", {"no_binary": True}),
}


def variant_config(cfg: TrainConfig, variant: str) -> TrainConfig:
    """Training config for one named ablation variant."""
    if variant not in ABLATION_VARIANTS:
        raise ParameterError(
            f"train: unknown ablation variant {variant!r}; "
            f"expected one of {sorted(ABLATION_VARIANTS)}"
        )
    _, overrides = ABLATION_VARIANTS[variant]
    return replace(cfg, model=replace(cfg.model, **overrides))
