"""Two-stage training: binary ID/OOD warm-up, then multi-class + contrastive.

Stage 1 optimizes encoders + fusion + binary head on the coarse binary
loss over balanced mixed batches. Stage 2 drops the binary head from the
objective and optimizes encoders + fusion + class head (+ contrastive
projection) on L_m + L_cl, with early stopping on validation weighted F1
over ID data and the best parameters restored. A ``joint_objective``
switch instead optimizes the sum of all losses in a single stage. Each
stage is a row of the schedule in ``train``: the losses one ``_step``
runs and the model's buffer slice one ``AdamW`` updates.
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
        if self.cov_eps is not None and \
                not (math.isfinite(self.cov_eps) and self.cov_eps >= 0):
            raise ParameterError(
                "train: cov_eps must be none or a finite number >= 0, "
                f"got {self.cov_eps}")


class AdamW:
    """Adam with decoupled weight decay and bias correction.

    Updates one slice of values and its grads (``FusionModel.stage_slice``)
    with whole-slice operations; the moment estimates have its shape.
    """

    def __init__(self, values: Array, grads: Array, lr: float,
                 weight_decay: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.values, self.grads = values, grads
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


def _step(model: FusionModel, batch: Batch, rng: np.random.Generator,
          losses: Sequence[str]) -> dict[str, float]:
    """One forward/backward over ``losses``, a subset of "multiclass",
    "contrastive" and "coarse" that runs in that order; returns each loss
    and their ``total``."""
    hyper = model.hyper
    xs, enc_caches = model.encode_batch(batch.seqs)
    z1, _, fc1 = model.fusion.forward(xs, train=True, rng=rng)
    g_z1 = np.zeros_like(z1)
    out: dict[str, float] = {}

    if "multiclass" in losses:
        id_mask = batch.binary == 1
        logits, class_cache = model.class_head.forward(z1[id_mask])
        l_m, dlogits = multiclass_loss(logits, batch.labels[id_mask])
        g_z1[id_mask] += model.class_head.backward(dlogits, class_cache)
        out["multiclass"] = l_m

    g_z2 = fc2 = None
    if "contrastive" in losses and not hyper.no_contrast:
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
        out["contrastive"] = l_cl

    if "coarse" in losses:
        logits_b, bin_cache = model.binary_head.forward(z1)
        l_c, dlogits_b = coarse_loss(logits_b, batch.binary)
        g_z1 += model.binary_head.backward(dlogits_b, bin_cache)
        out["coarse"] = l_c

    gxs = model.fusion.backward(g_z1, fc1)
    if g_z2 is not None:
        gxs2 = model.fusion.backward(g_z2, fc2)
        gxs = {m: gxs[m] + gxs2[m] for m in MODALITIES}
    model.encoders_backward(gxs, enc_caches)
    out["total"] = sum(out.values())
    return out


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

    def run_stage(name: str, epochs: int, stage: int | None,
                  losses: tuple[str, ...]) -> dict:
        opt = AdamW(*model.stage_slice(stage), cfg.learning_rate,
                    cfg.weight_decay, cfg.adam_beta1, cfg.adam_beta2,
                    cfg.adam_eps)
        # every stage but the coarse warm-up keeps its best validation epoch
        track_validation = name != "coarse"
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
                step_losses = _step(model, batch, loop_rng, losses)
                _require_finite(step_losses["total"], epoch, bi, name)
                opt.step()
                for key, val in step_losses.items():
                    sums[key] = sums.get(key, 0.0) + val
                count += 1
            entry = {"stage": name, "epoch": epoch}
            entry.update({f"loss_{k}": v / max(count, 1)
                          for k, v in sorted(sums.items())})
            if track_validation:
                wf1 = _validation_wf1(model, valid_split)
                if wf1 is not None:
                    entry["val_wf1"] = wf1
                    if wf1 >= best["wf1"]:
                        # ties keep the most-trained snapshot but still
                        # count toward patience
                        stale = 0 if wf1 > best["wf1"] else stale + 1
                        best = {"wf1": wf1, "epoch": epoch}
                        best_values = model.values.copy()
                    else:
                        stale += 1
            log.append(entry)
            if track_validation and best_values is not None and stale > cfg.patience:
                break
        if best_values is not None:
            model.values[...] = best_values
        return best

    if cfg.joint_objective and hyper.no_binary:
        raise ParameterError(
            "train: joint_objective needs the binary head (no_binary off)"
        )
    # (name, epochs, parameter stage, losses); stage None updates every
    # parameter
    schedule = [
        ("joint", cfg.stage1_epochs + cfg.stage2_epochs, None,
         ("multiclass", "contrastive", "coarse")),
    ] if cfg.joint_objective else [
        ("coarse", 0 if hyper.no_binary else cfg.stage1_epochs, 1, ("coarse",)),
        ("fine", cfg.stage2_epochs, 2, ("multiclass", "contrastive")),
    ]
    for name, epochs, stage, losses in schedule:
        best = run_stage(name, epochs, stage, losses)

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
