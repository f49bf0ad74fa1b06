"""Weighted feature fusion plus the add/concat ablation variants.

Weighted mode scores each encoded modality vector with its own two-layer
network, softmax-normalizes the three scores into weights, and returns the
weighted sum. Add sums the vectors (weights reported as 1/3 each); concat
projects the concatenation back to the shared dimension and reports no
weights.
"""

from __future__ import annotations

import numpy as np

from .corpus import MODALITIES
from .errors import ParameterError
from .layers import Affine, Dropout, Param, relu, relu_backward
from .numerics import softmax, softmax_backward

Array = np.ndarray

FUSION_MODES = ("weighted", "add", "concat")


class FusionNetwork:
    def __init__(self, name: str, d_model: int, hidden: int, dropout: float,
                 mode: str, rng: np.random.Generator):
        self.d = d_model
        self.mode = mode
        self.score_in: dict[str, Affine] = {}
        self.score_out: dict[str, Affine] = {}
        self.dropout = Dropout(dropout)
        self.concat_proj = None
        if mode == "weighted":
            for m in MODALITIES:
                self.score_in[m] = Affine(f"{name}.score.{m}.in", d_model,
                                          hidden, rng)
                self.score_out[m] = Affine(f"{name}.score.{m}.out", hidden,
                                           1, rng)
        elif mode == "concat":
            self.concat_proj = Affine(f"{name}.concat_proj", 3 * d_model,
                                      d_model, rng)

    def modality_scores(self, xs: dict[str, Array], train: bool,
                        rng: np.random.Generator | None):
        """Importance score per modality: W2(Dropout(ReLU(W1 x)))."""
        scores, caches = {}, {}
        for m in MODALITIES:
            h, c_in = self.score_in[m].forward(xs[m])
            a, mask = relu(h)
            d, c_drop = self.dropout.forward(a, train, rng)
            s, c_out = self.score_out[m].forward(d)
            scores[m] = s[..., 0]
            caches[m] = (c_in, mask, c_drop, c_out)
        return scores, caches

    def _scores_backward(self, g_scores: dict[str, Array], caches) -> dict[str, Array]:
        gxs = {}
        for m in MODALITIES:
            c_in, mask, c_drop, c_out = caches[m]
            g = self.score_out[m].backward(g_scores[m][..., None], c_out)
            g = self.dropout.backward(g, c_drop)
            g = relu_backward(g, mask)
            gxs[m] = self.score_in[m].backward(g, c_in)
        return gxs

    def forward(self, xs: dict[str, Array], train: bool,
                rng: np.random.Generator | None):
        """(B, D) per modality -> fused (B, D), weights (B, 3) or None, cache."""
        for m in MODALITIES:
            if xs[m].shape[-1] != self.d:
                raise ParameterError(
                    f"fusion: modality {m} has dim {xs[m].shape[-1]}, "
                    f"expected {self.d}"
                )
        if self.mode == "add":
            z = xs["T"] + xs["V"] + xs["A"]
            w = np.full(xs["T"].shape[:-1] + (3,), 1.0 / 3.0)
            return z, w, ("add",)
        if self.mode == "concat":
            flat = np.concatenate([xs[m] for m in MODALITIES], axis=-1)
            z, c_proj = self.concat_proj.forward(flat)
            return z, None, ("concat", c_proj)
        scores, score_caches = self.modality_scores(xs, train, rng)
        w = softmax(np.stack([scores[m] for m in MODALITIES], axis=-1))
        z = sum(w[..., i:i + 1] * xs[m] for i, m in enumerate(MODALITIES))
        return z, w, ("weighted", xs, w, score_caches)

    def backward(self, g_z: Array, cache, g_w: Array | None = None):
        """Returns per-modality input gradients.

        ``g_w`` optionally carries a gradient on the reported weights
        (weighted mode only; add-mode weights are constants).
        """
        kind = cache[0]
        if kind == "add":
            return {m: g_z for m in MODALITIES}
        if kind == "concat":
            _, c_proj = cache
            g_flat = self.concat_proj.backward(g_z, c_proj)
            return {m: g_flat[..., i * self.d:(i + 1) * self.d]
                    for i, m in enumerate(MODALITIES)}
        _, xs, w, score_caches = cache
        g_w_total = np.stack(
            [(g_z * xs[m]).sum(axis=-1) for m in MODALITIES], axis=-1
        )
        if g_w is not None:
            g_w_total = g_w_total + g_w
        g_s = softmax_backward(g_w_total, w)
        g_scores = {m: g_s[..., i] for i, m in enumerate(MODALITIES)}
        gxs = self._scores_backward(g_scores, score_caches)
        for i, m in enumerate(MODALITIES):
            gxs[m] = gxs[m] + w[..., i:i + 1] * g_z
        return gxs

    def params(self) -> list[Param]:
        out = []
        for m in MODALITIES:
            if m in self.score_in:
                out += self.score_in[m].params() + self.score_out[m].params()
        if self.concat_proj is not None:
            out += self.concat_proj.params()
        return out
