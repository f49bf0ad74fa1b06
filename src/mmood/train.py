"""Two-stage training: binary ID/OOD warm-up, then multi-class + contrastive.

Stage 1 optimizes encoders + fusion + binary head on the coarse binary
loss over balanced mixed batches. Stage 2 drops the binary head from the
objective and optimizes encoders + fusion + class head (+ contrastive
projection) on L_m + L_cl, with early stopping on validation weighted F1
over ID data and the best parameters restored. ``train`` runs both in one
loop over the stages; a stage picks the losses ``_step`` runs and the
model's buffer slice its ``AdamW`` updates. Without a binary head, stage 1
runs no epoch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .corpus import MODALITIES, OOD_LABEL, Corpus, make_batches
from .errors import ParameterError, TrainingError, check_fields
from .heads import coarse_loss, contrastive_from_views, multiclass_loss
from .metrics import id_metrics
from .model import SLOT_TRAIN_LOOP, FusionModel, ModelHyper
from .numerics import component_rng
from .oodgen import Batch, OodGenConfig, build_mixed_batch
from .scoring import ClassStats, check_class_counts, fit_class_stats

Array = np.ndarray


# TrainConfig field -> rule (see errors.check_fields)
_TRAIN_RULES = {
    "batch_size": "even and >= 2", "stage1_epochs": ">= 0",
    "stage2_epochs": ">= 0", "learning_rate": "finite and >= 0",
    "weight_decay": "finite and >= 0", "patience": ">= 0", "seed": ">= 0",
    "cov_eps": "none or finite and >= 0"}


@dataclass
class TrainConfig:
    batch_size: int = 32
    stage1_epochs: int = 20      # 20% of the 100-epoch default budget
    stage2_epochs: int = 80
    learning_rate: float = 1e-3
    weight_decay: float = 0.01
    patience: int = 8            # stage-2 evaluations without improvement
    seed: int = 0
    cov_eps: float | None = None  # class-covariance regularization override
    model: ModelHyper = field(default_factory=ModelHyper)

    def __post_init__(self):
        check_fields("train", _TRAIN_RULES, self)


class AdamW:
    """Adam with decoupled weight decay and bias correction.

    Updates one slice of values and its grads (``FusionModel.stage_slice``)
    with whole-slice operations; the moment estimates have its shape.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, values: Array, grads: Array, lr: float,
                 weight_decay: float):
        self.values, self.grads = values, grads
        self.lr, self.wd, self.t = lr, weight_decay, 0
        try:
            self.m = np.zeros_like(values)
            self.v = np.zeros_like(values)
            self._buf = np.empty((2,) + values.shape)
        except MemoryError as exc:
            raise ParameterError(f"train: cannot allocate the optimizer state "
                                 f"of {values.size} parameter values "
                                 f"({exc})") from exc

    def step(self) -> None:
        """``values -= lr ((m / bc1) / (sqrt(v / bc2) + eps) + wd values)``
        in that operation order, into ``m``, ``v`` and two buffers."""
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        m, v, g = self.m, self.v, self.grads
        a, b = self._buf
        m *= self.beta1
        m += np.multiply(g, 1.0 - self.beta1, out=a)
        v *= self.beta2
        np.multiply(g, g, out=a)
        v += np.multiply(a, 1.0 - self.beta2, out=a)
        np.divide(m, bc1, out=a)
        np.sqrt(np.divide(v, bc2, out=b), out=b)
        b += self.eps
        a /= b
        a += np.multiply(self.values, self.wd, out=b)
        a *= self.lr
        self.values -= a

    def zero_grad(self) -> None:
        self.grads[...] = 0.0


@dataclass
class TrainedModel:
    model: FusionModel
    class_stats: ClassStats
    train_features: Array
    train_labels: Array
    train_cfg: TrainConfig
    ood_cfg: OodGenConfig
    best: dict
    log: list[dict] = field(default_factory=list)


def _step(model: FusionModel, batch: Batch, rng: np.random.Generator,
          stage: int) -> dict[str, float]:
    """One forward/backward of training ``stage``: the coarse loss in stage
    1; in stage 2 the multi-class loss, then the contrastive loss when the
    model has a contrast head. Returns each loss and their ``total``."""
    xs, enc_caches = model.encode_batch(batch.seqs)
    z1, _, fc1 = model.fusion.forward(xs, train=True, rng=rng)
    g_z1 = np.zeros_like(z1)
    out: dict[str, float] = {}
    id_mask = batch.labels != OOD_LABEL

    if stage == 1:
        logits_b, bin_cache = model.binary_head.forward(z1)
        out["coarse"], dlogits_b = coarse_loss(logits_b, id_mask)
        g_z1 += model.binary_head.backward(dlogits_b, bin_cache)
    else:
        logits, class_cache = model.class_head.forward(z1[id_mask])
        out["multiclass"], dlogits = multiclass_loss(logits,
                                                     batch.labels[id_mask])
        g_z1[id_mask] += model.class_head.backward(dlogits, class_cache)

    g_z2 = fc2 = None
    if stage == 2 and model.contrast_head is not None:
        # the augmented view re-runs the fusion score network and the
        # projection head with fresh dropout masks over the same encodings
        z2, _, fc2 = model.fusion.forward(xs, train=True, rng=rng)
        v1, cc1 = model.contrast_head.forward(z1, train=True, rng=rng)
        v2, cc2 = model.contrast_head.forward(z2, train=True, rng=rng)
        out["contrastive"], g_v1, g_v2 = contrastive_from_views(
            v1, v2, batch.labels, model.hyper.tau)
        g_z1 += model.contrast_head.backward(g_v1, cc1)
        g_z2 = model.contrast_head.backward(g_v2, cc2)

    gxs = model.fusion.backward(g_z1, fc1)
    if g_z2 is not None:
        gxs2 = model.fusion.backward(g_z2, fc2)
        gxs = {m: gxs[m] + gxs2[m] for m in MODALITIES}
    model.encoders_backward(gxs, enc_caches)
    out["total"] = sum(out.values())
    return out


def _validation_wf1(model: FusionModel, corpus: Corpus,
                    rows: Array) -> float | None:
    """Weighted F1 of the predicted classes of ``corpus``'s records
    ``rows`` (the valid split), read by row index; None when empty."""
    if len(rows) == 0:
        return None
    logits = model.logits_for(model.features_for(corpus, rows))
    return id_metrics(logits.argmax(axis=1), corpus.labels[rows],
                      model.num_classes).wf1


def train(corpus: Corpus, cfg: TrainConfig, ood_cfg: OodGenConfig) -> TrainedModel:
    """Run the full schedule on a corpus and fit inference statistics."""
    train_rows = np.flatnonzero(corpus.splits == "train")
    valid_rows = np.flatnonzero(corpus.splits == "valid")
    half = cfg.batch_size // 2
    if half > len(train_rows):
        raise ParameterError(f"train: batch_size must be <= 2 * n_train = "
                             f"{2 * len(train_rows)}, got {cfg.batch_size}")
    if ood_cfg.mix_count > half:
        raise ParameterError(f"train: mix_count must be <= batch_size // 2 "
                             f"= {half}, got {ood_cfg.mix_count}")
    check_class_counts(corpus.labels[train_rows], corpus.num_classes)

    model = FusionModel(corpus.meta, cfg.model, cfg.seed)
    loop_rng = component_rng(cfg.seed, SLOT_TRAIN_LOOP)
    log: list[dict] = []
    best: dict = {}  # stage 2's best validation epoch
    best_values = None
    stale = 0
    stage1_epochs = 0 if model.binary_head is None else cfg.stage1_epochs
    for stage, name, epochs in ((1, "coarse", stage1_epochs),
                                (2, "fine", cfg.stage2_epochs)):
        opt = AdamW(*model.stage_slice(stage), cfg.learning_rate,
                    cfg.weight_decay)
        for epoch in range(epochs):
            batches = make_batches(train_rows, cfg.batch_size, loop_rng)
            sums: dict[str, float] = {}
            for bi, rows in enumerate(batches):
                try:
                    with np.errstate(over="raise", invalid="raise",
                                     divide="raise"):
                        opt.zero_grad()
                        # rows widened as ``features_for`` widens a chunk;
                        # unnamed, the mixed batch dies with its step
                        step_losses = _step(model, build_mixed_batch(
                            {m: corpus.seqs[m][rows].astype(np.float64)
                             for m in MODALITIES}, corpus.labels[rows],
                            ood_cfg, loop_rng), loop_rng, stage)
                        if not math.isfinite(step_losses["total"]):
                            raise FloatingPointError("the loss is not finite")
                        opt.step()
                except FloatingPointError as exc:
                    raise TrainingError(
                        f"train: non-finite value at stage {name}, epoch "
                        f"{epoch}, batch {bi} ({exc})") from exc
                except MemoryError as exc:
                    raise ParameterError(
                        f"train: cannot allocate a step at stage {name}, "
                        f"epoch {epoch}, batch {bi} ({exc})") from exc
                for key, val in step_losses.items():
                    sums[key] = sums.get(key, 0.0) + val
            entry = {"stage": name, "epoch": epoch}
            entry.update({f"loss_{k}": v / len(batches)
                          for k, v in sorted(sums.items())})
            wf1 = _validation_wf1(model, corpus, valid_rows) \
                if stage == 2 else None
            if wf1 is not None:
                entry["val_wf1"] = wf1
                prev = best.get("wf1", -1.0)
                # a tie keeps the newer snapshot but counts toward patience
                stale = 0 if wf1 > prev else stale + 1
                if wf1 >= prev:
                    best = {"wf1": wf1, "epoch": epoch}
                    best_values = model.values.copy()
            log.append(entry)
            if best and stale > cfg.patience:
                break
        del opt  # free these moments before the next stage allocates its own
    if best_values is not None:
        model.values[...] = best_values
    del best_values  # before the feature pass, which sets the memory peak

    train_features = model.features_for(corpus, train_rows)
    train_labels = corpus.labels[train_rows]
    class_stats = fit_class_stats(train_features, train_labels,
                                  corpus.num_classes, eps=cfg.cov_eps)
    return TrainedModel(
        model=model, class_stats=class_stats,
        train_features=train_features, train_labels=train_labels,
        train_cfg=cfg, ood_cfg=ood_cfg, best=best, log=log,
    )


# display name -> (CLI slug, ModelHyper overrides, label of the ablation
# check that Full's mean AUROC is at least this variant's, or None)
ABLATION_VARIANTS = {
    "Full": ("full", {}, None),
    "Fusion (Add)": ("add", {"fusion_mode": "add"}, "weighted_ge_add"),
    "Fusion (Concat)": ("concat", {"fusion_mode": "concat"},
                        "weighted_ge_concat"),
    "w / o Contrast": ("no_contrast", {"no_contrast": True}, None),
    "w / o Cosine": ("no_cosine", {"no_cosine": True}, None),
    "w / o Binary": ("no_binary", {"no_binary": True}, "full_ge_no_binary"),
}


def variant_config(cfg: TrainConfig, variant: str) -> TrainConfig:
    """Training config for one named ablation variant."""
    if variant not in ABLATION_VARIANTS:
        raise ParameterError(
            f"train: unknown ablation variant {variant!r}; "
            f"expected one of {sorted(ABLATION_VARIANTS)}"
        )
    overrides = ABLATION_VARIANTS[variant][1]
    return replace(cfg, model=replace(cfg.model, **overrides))
