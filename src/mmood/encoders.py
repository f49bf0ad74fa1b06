"""Per-modality sequence encoders mapping (L, D_in) to a shared dimension.

Text uses a learned class token prepended to the sequence; its transformed
output is the utterance vector. Video/audio mean-pool the transformed
sequence and project into the shared (text) dimension. All variants are a
single self-attention + feed-forward block; positional encodings are off
by default since the synthetic corpora are order-free.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .layers import Affine, Param, TransformerBlock, glorot_uniform

Array = np.ndarray


def sinusoidal_positions(length: int, dim: int) -> Array:
    pos = np.arange(length)[:, None]
    i = np.arange(dim)[None, :]
    angle = pos / np.power(10000.0, (2 * (i // 2)) / dim)
    enc = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return enc


class ModalityEncoder:
    """One transformer block plus class-token or mean-pool readout."""

    def __init__(self, name: str, d_in: int, d_out: int, n_heads: int,
                 ffn_hidden: int, rng: np.random.Generator,
                 use_class_token: bool, positional: bool = False):
        self.name = name
        self.d_in = d_in
        self.d_out = d_out
        self.use_class_token = use_class_token
        self.positional = positional
        if use_class_token and d_in != d_out:
            raise ParameterError(
                f"encoders: class-token encoder {name} needs d_in == d_out, "
                f"got {d_in} != {d_out}"
            )
        self.block = TransformerBlock(f"{name}.block", d_in, n_heads,
                                      ffn_hidden, rng)
        if use_class_token:
            self.class_token = Param(
                f"{name}.class_token",
                glorot_uniform(rng, d_in, d_in, (d_in,)),
            )
            self.out_proj = None
        else:
            self.class_token = None
            self.out_proj = Affine(f"{name}.out_proj", d_in, d_out, rng,
                                   bias=False)

    def forward_batch(self, x: Array):
        """(B, L, d_in) -> ((B, d_out), cache)."""
        if x.ndim != 3 or x.shape[2] != self.d_in:
            raise ParameterError(
                f"encoders: {self.name} expected (B, L, {self.d_in}), "
                f"got {x.shape}"
            )
        b, length, _ = x.shape
        if self.positional:
            x = x + sinusoidal_positions(length, self.d_in)
        if self.use_class_token:
            tok = np.broadcast_to(self.class_token.value, (b, 1, self.d_in))
            h = np.concatenate([tok, x], axis=1)
            out, block_cache = self.block.forward(h)
            return out[:, 0, :], ("cls", block_cache, out.shape)
        out, block_cache = self.block.forward(x)
        pooled = out.mean(axis=1)
        y, proj_cache = self.out_proj.forward(pooled)
        return y, ("pool", block_cache, out.shape, proj_cache)

    def backward_batch(self, g: Array, cache) -> Array:
        """Accumulates parameter gradients; returns the input gradient."""
        kind = cache[0]
        if kind == "cls":
            _, block_cache, shape = cache
            g_block = np.zeros(shape)
            g_block[:, 0, :] = g
            gx = self.block.backward(g_block, block_cache)
            self.class_token.grad += gx[:, 0, :].sum(axis=0)
            return gx[:, 1:, :]
        _, block_cache, shape, proj_cache = cache
        g_pooled = self.out_proj.backward(g, proj_cache)
        g_block = np.repeat(g_pooled[:, None, :], shape[1], axis=1) / shape[1]
        return self.block.backward(g_block, block_cache)

    def params(self) -> list[Param]:
        out = self.block.params()
        if self.class_token is not None:
            out.append(self.class_token)
        if self.out_proj is not None:
            out += self.out_proj.params()
        return out
