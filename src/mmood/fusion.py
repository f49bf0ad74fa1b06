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
from .layers import MLP, Affine, Param
from .numerics import softmax, softmax_backward

Array = np.ndarray

FUSION_MODES = ("weighted", "add", "concat")


class FusionNetwork:
    def __init__(self, name: str, d_model: int, hidden: int, dropout: float,
                 mode: str):
        self.d = d_model
        self.mode = mode
        self.score: dict[str, MLP] = {}
        self.concat_proj = None
        if mode == "weighted":
            for m in MODALITIES:
                self.score[m] = MLP(f"{name}.score.{m}.in",
                                    f"{name}.score.{m}.out", d_model, hidden,
                                    1, dropout)
        elif mode == "concat":
            self.concat_proj = Affine(f"{name}.concat_proj", 3 * d_model,
                                      d_model)

    def modality_scores(self, xs: dict[str, Array], train: bool,
                        rng: np.random.Generator | None):
        """Importance score per modality: W2(Dropout(ReLU(W1 x)))."""
        scores, caches = {}, {}
        for m in MODALITIES:
            s, caches[m] = self.score[m].forward(xs[m], train, rng)
            scores[m] = s[..., 0]
        return scores, caches

    def forward(self, xs: dict[str, Array], train: bool,
                rng: np.random.Generator | None):
        """(B, D) per modality -> fused (B, D), weights (B, 3) or None, cache."""
        if self.mode == "add":
            z = xs["T"] + xs["V"] + xs["A"]
            w = np.full(xs["T"].shape[:-1] + (3,), 1.0 / 3.0)
            return z, w, None
        if self.mode == "concat":
            flat = np.concatenate([xs[m] for m in MODALITIES], axis=-1)
            z, c_proj = self.concat_proj.forward(flat)
            return z, None, c_proj
        scores, score_caches = self.modality_scores(xs, train, rng)
        w = softmax(np.stack([scores[m] for m in MODALITIES], axis=-1))
        z = sum(w[..., i:i + 1] * xs[m] for i, m in enumerate(MODALITIES))
        return z, w, (xs, w, score_caches)

    def backward(self, g_z: Array, cache, g_w: Array | None = None):
        """Returns per-modality input gradients.

        ``g_w`` optionally carries a gradient on the reported weights
        (weighted mode only; add-mode weights are constants).
        """
        if self.mode == "add":
            return {m: g_z for m in MODALITIES}
        if self.mode == "concat":
            g_flat = self.concat_proj.backward(g_z, cache)
            return {m: g_flat[..., i * self.d:(i + 1) * self.d]
                    for i, m in enumerate(MODALITIES)}
        xs, w, score_caches = cache
        g_w_total = np.stack(
            [(g_z * xs[m]).sum(axis=-1) for m in MODALITIES], axis=-1
        )
        if g_w is not None:
            g_w_total = g_w_total + g_w
        g_s = softmax_backward(g_w_total, w)
        return {m: self.score[m].backward(g_s[..., i, None], score_caches[m])
                + w[..., i:i + 1] * g_z for i, m in enumerate(MODALITIES)}

    def params(self) -> list[Param]:
        out = [p for mlp in self.score.values() for p in mlp.params()]
        if self.concat_proj is not None:
            out += self.concat_proj.params()
        return out
