"""Classification heads and the training losses.

Losses return their value and then the gradient wrt each input array,
``(value, grad)`` or, for the two contrastive views, ``(value, g_v1,
g_v2)``, so callers can chain the backward pass through whatever produced
the inputs. Probabilities are clamped at 1e-12 before logs; the clamp
never binds at 64-bit training scale, so gradients use the unclamped
cross-entropy form.
"""

from __future__ import annotations

import numpy as np

from .corpus import OOD_LABEL
from .errors import ParameterError
from .layers import MLP, Affine, Dropout, Param, glorot_uniform
from .numerics import softmax, unit_rows, unit_rows_backward

Array = np.ndarray

LOG_CLAMP = 1e-12


class BinaryHead(MLP):
    """Two-layer ID-vs-OOD classifier: affine -> ReLU -> affine -> 2 logits."""

    def __init__(self, name: str, d_model: int):
        super().__init__(f"{name}.lin1", f"{name}.lin2", d_model, d_model, 2)


class CosineHead:
    """Scaled cosine-similarity classifier.

    logit_k = gamma * <z/||z||, w_k/||w_k||>; a zero feature row or class
    weight row yields zero logits (and zero gradient) instead of dividing
    by zero.
    """

    def __init__(self, name: str, d_model: int, num_classes: int,
                 gamma: float):
        self.gamma = gamma
        self.W = Param(f"{name}.W_cos", (num_classes, d_model),
                       glorot_uniform(d_model, num_classes))

    def forward(self, z: Array):
        z_unit, w_unit = unit_rows(z), unit_rows(self.W.value)
        return self.gamma * z_unit[0] @ w_unit[0].T, (z_unit, w_unit)

    def backward(self, g: Array, cache) -> Array:
        z_unit, w_unit = cache
        z_hat = z_unit[0]
        g_what = self.gamma * g.reshape(-1, g.shape[-1]).T @ z_hat.reshape(-1, z_hat.shape[-1])
        self.W.grad += unit_rows_backward(g_what, *w_unit)
        return unit_rows_backward(self.gamma * g @ w_unit[0], *z_unit)

    def params(self) -> list[Param]:
        return [self.W]


class LinearHead(Affine):
    """Plain affine classifier (cosine-classifier ablation)."""

    def __init__(self, name: str, d_model: int, num_classes: int):
        super().__init__(f"{name}.linear", d_model, num_classes)


class ContrastHead:
    """Dropout + linear projection producing contrastive features."""

    def __init__(self, name: str, d_model: int, d_proj: int, dropout: float):
        self.dropout = Dropout(dropout)
        self.lin = Affine(f"{name}.proj", d_model, d_proj)

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
    probs = softmax(logits)
    picked = probs[np.arange(n), targets]
    loss = float(-np.log(np.maximum(picked, LOG_CLAMP)).mean())
    grad = probs.copy()
    grad[np.arange(n), targets] -= 1.0
    return loss, grad / n


def coarse_loss(logits: Array, binary: Array):
    """Binary cross-entropy over ID(1)/OOD(0) flags, mean over the batch."""
    return _cross_entropy(logits, np.asarray(binary, dtype=int))


def multiclass_loss(logits: Array, labels: Array):
    """Mean cross-entropy over ID class labels; rejects OOD samples."""
    labels = np.asarray(labels, dtype=int)
    if np.any(labels == OOD_LABEL) or np.any(labels < 0):
        raise ParameterError(
            "losses: multiclass loss is defined on ID samples only, got an "
            "OOD-labeled sample"
        )
    return _cross_entropy(logits, labels)


def contrastive_from_views(v1: Array, v2: Array, labels: Array, tau: float):
    """Temperature-scaled contrastive loss over two views of B samples.

    Row i of ``v1`` and row i of ``v2`` are one sample's two views, and
    ``labels`` marks OOD samples with ``OOD_LABEL``. ID anchors treat every
    other same-label view as a positive (averaged); each OOD anchor's only
    positive is its own other view. The denominator runs over all 2B views
    except the anchor. Returns ``(loss, g_v1, g_v2)``.
    """
    b = v1.shape[0]
    n = 2 * b
    u, norms, live = unit_rows(np.concatenate([v1, v2]))
    sims = u @ u.T
    e = np.exp(sims / tau)
    np.fill_diagonal(e, 0.0)
    denom = e.sum(axis=1)

    # positive mask (SupCon form): ID rows mark every other same-label
    # view, OOD rows only their other view; row i's other view is row
    # i - B, wrapping to i + B, so no anchor is left without a positive
    labels2 = np.concatenate([labels, labels])
    pos = (labels2 != OOD_LABEL)[:, None] & (labels2[:, None] == labels2)
    np.fill_diagonal(pos, False)
    rows = np.arange(n)
    pos[rows, rows - b] = True
    count = pos.sum(axis=1)
    log_terms = np.where(pos, sims / tau, 0.0).sum(axis=1) / count \
        - np.log(denom)
    loss = float(-log_terms.sum() / n)
    g_sims = e / denom[:, None] / (n * tau)  # softmax part, all anchors
    np.fill_diagonal(g_sims, 0.0)
    g_sims -= pos / (n * tau * count)[:, None]

    g_u = (g_sims + g_sims.T) @ u
    g_views = unit_rows_backward(g_u, u, norms, live)
    return loss, g_views[:b], g_views[b:]
