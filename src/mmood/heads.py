"""Classification heads and the training losses.

Losses return ``(value, grad_wrt_inputs)`` so callers can chain the
backward pass through whatever produced the inputs. Probabilities are
clamped at 1e-12 before logs; the clamp never binds at 64-bit training
scale, so gradients use the unclamped cross-entropy form.
"""

from __future__ import annotations

import numpy as np

from .corpus import OOD_LABEL
from .errors import ParameterError
from .layers import Affine, Dropout, Param, glorot_uniform, relu, relu_backward
from .numerics import softmax

Array = np.ndarray

LOG_CLAMP = 1e-12
NORM_EPS = 1e-12


class BinaryHead:
    """Two-layer ID-vs-OOD classifier: affine -> ReLU -> affine -> 2 logits."""

    def __init__(self, name: str, d_model: int, rng: np.random.Generator):
        self.lin1 = Affine(f"{name}.lin1", d_model, d_model, rng)
        self.lin2 = Affine(f"{name}.lin2", d_model, 2, rng)

    def forward(self, z: Array):
        h, c1 = self.lin1.forward(z)
        a, mask = relu(h)
        y, c2 = self.lin2.forward(a)
        return y, (c1, mask, c2)

    def backward(self, g: Array, cache) -> Array:
        c1, mask, c2 = cache
        ga = self.lin2.backward(g, c2)
        return self.lin1.backward(relu_backward(ga, mask), c1)

    def params(self) -> list[Param]:
        return self.lin1.params() + self.lin2.params()


class CosineHead:
    """Scaled cosine-similarity classifier.

    logit_k = gamma * <z/||z||, w_k/||w_k||>; zero features yield zero
    logits (and zero gradient) instead of dividing by zero.
    """

    def __init__(self, name: str, d_model: int, num_classes: int, gamma: float,
                 rng: np.random.Generator):
        if not gamma > 0:
            raise ParameterError(f"heads: gamma must be > 0, got {gamma}")
        self.gamma = gamma
        self.W = Param(f"{name}.W_cos",
                       glorot_uniform(rng, d_model, num_classes,
                                      (num_classes, d_model)))

    def _normalized(self):
        w_norms = np.linalg.norm(self.W.value, axis=1, keepdims=True)
        safe = np.maximum(w_norms, NORM_EPS)
        return self.W.value / safe, safe

    def forward(self, z: Array):
        z_norms = np.linalg.norm(z, axis=-1, keepdims=True)
        live = z_norms > NORM_EPS
        z_hat = np.where(live, z / np.maximum(z_norms, NORM_EPS), 0.0)
        w_hat, w_norms = self._normalized()
        logits = self.gamma * z_hat @ w_hat.T
        return logits, (z_hat, np.maximum(z_norms, NORM_EPS), live, w_hat, w_norms)

    def backward(self, g: Array, cache) -> Array:
        z_hat, z_norms, live, w_hat, w_norms = cache
        g_zhat = self.gamma * g @ w_hat
        gz = (g_zhat - (g_zhat * z_hat).sum(axis=-1, keepdims=True) * z_hat) / z_norms
        gz = np.where(live, gz, 0.0)
        g_what = self.gamma * g.reshape(-1, g.shape[-1]).T @ z_hat.reshape(-1, z_hat.shape[-1])
        self.W.grad += (g_what - (g_what * w_hat).sum(axis=1, keepdims=True) * w_hat) / w_norms
        return gz

    def params(self) -> list[Param]:
        return [self.W]


class LinearHead:
    """Plain affine classifier (cosine-classifier ablation)."""

    def __init__(self, name: str, d_model: int, num_classes: int,
                 rng: np.random.Generator):
        self.lin = Affine(f"{name}.linear", d_model, num_classes, rng)

    def forward(self, z: Array):
        return self.lin.forward(z)

    def backward(self, g: Array, cache) -> Array:
        return self.lin.backward(g, cache)

    def params(self) -> list[Param]:
        return self.lin.params()


class ContrastHead:
    """Dropout + linear projection producing contrastive features."""

    def __init__(self, name: str, d_model: int, d_proj: int, dropout: float,
                 rng: np.random.Generator):
        self.dropout = Dropout(dropout)
        self.lin = Affine(f"{name}.proj", d_model, d_proj, rng)

    def forward(self, z: Array, train: bool, rng: np.random.Generator | None):
        d, cd = self.dropout.forward(z, train, rng)
        y, cl = self.lin.forward(d)
        return y, (cd, cl)

    def backward(self, g: Array, cache) -> Array:
        cd, cl = cache
        return self.dropout.backward(self.lin.backward(g, cl), cd)

    def params(self) -> list[Param]:
        return self.lin.params()


def _cross_entropy(logits: Array, targets: Array):
    """Mean softmax cross-entropy; targets are class indices."""
    n = logits.shape[0]
    probs = softmax(logits, axis=-1)
    picked = probs[np.arange(n), targets]
    loss = float(-np.log(np.maximum(picked, LOG_CLAMP)).mean())
    grad = probs.copy()
    grad[np.arange(n), targets] -= 1.0
    return loss, grad / n


def coarse_loss(logits: Array, binary: Array):
    """Binary cross-entropy over ID(1)/OOD(0) flags, mean over the batch."""
    if logits.shape[-1] != 2:
        raise ParameterError("losses: coarse loss expects 2 logits per sample")
    return _cross_entropy(logits, np.asarray(binary, dtype=int))


def multiclass_loss(logits: Array, labels: Array):
    """Mean cross-entropy over ID class labels; rejects OOD samples."""
    labels = np.asarray(labels, dtype=int)
    if np.any(labels == OOD_LABEL) or np.any(labels < 0):
        raise ParameterError(
            "losses: multiclass loss is defined on ID samples only, got an "
            "OOD-labeled sample"
        )
    if np.any(labels >= logits.shape[-1]):
        raise ParameterError("losses: label outside the logit range")
    return _cross_entropy(logits, labels)


def make_view_ids(labels: Array, binary: Array):
    """Duplicate per-sample labels/flags for (originals, augmentations)."""
    b = len(labels)
    labels2 = np.concatenate([labels, labels])
    is_id2 = np.concatenate([binary, binary]).astype(bool)
    partner = np.concatenate([np.arange(b) + b, np.arange(b)])
    return labels2, is_id2, partner


def contrastive_from_views(views: Array, labels: Array, is_id: Array,
                           partner: Array, tau: float):
    """Temperature-scaled contrastive loss over 2B normalized views.

    ID anchors treat every other same-label view as a positive (averaged);
    each OOD anchor's only positive is its own paired augmentation. The
    denominator runs over all views except the anchor. Returns
    ``(loss, grad_wrt_views)``.
    """
    if not tau > 0:
        raise ParameterError(f"losses: tau must be > 0, got {tau}")
    n = views.shape[0]
    if n < 2:
        raise ParameterError("losses: contrastive loss needs >= 2 views")
    norms = np.linalg.norm(views, axis=1, keepdims=True)
    live = norms > NORM_EPS
    u = np.where(live, views / np.maximum(norms, NORM_EPS), 0.0)
    sims = u @ u.T
    e = np.exp(sims / tau)
    np.fill_diagonal(e, 0.0)
    denom = e.sum(axis=1)

    # positive mask (SupCon form): ID rows mark every other same-label
    # view, OOD rows only the paired augmentation
    is_id = np.asarray(is_id, dtype=bool)
    partner = np.asarray(partner)
    pos = is_id[:, None] & (labels[:, None] == labels[None, :])
    np.fill_diagonal(pos, False)
    ood = np.flatnonzero(~is_id)
    pos[ood, partner[ood]] = True
    count = pos.sum(axis=1)
    if not count.all():
        # cannot happen when views come in (original, augmentation) pairs:
        # the anchor's own augmentation shares its label
        raise ParameterError(
            f"losses: ID anchor {np.flatnonzero(count == 0)[0]} has no "
            "positive view"
        )
    log_terms = np.where(pos, sims / tau, 0.0).sum(axis=1) / count \
        - np.log(denom)
    loss = float(-log_terms.sum() / n)
    g_sims = e / denom[:, None] / (n * tau)  # softmax part, all anchors
    np.fill_diagonal(g_sims, 0.0)
    g_sims -= pos / (n * tau * count)[:, None]

    g_u = (g_sims + g_sims.T) @ u
    g_views = (g_u - (g_u * u).sum(axis=1, keepdims=True) * u) / np.maximum(norms, NORM_EPS)
    return loss, np.where(live, g_views, 0.0)
