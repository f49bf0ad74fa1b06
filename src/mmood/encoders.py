"""Per-modality sequence encoders mapping (L, D_in) to a shared dimension.

Text uses a learned class token prepended to the sequence; its transformed
output is the utterance vector. Video/audio mean-pool the transformed
sequence and project into the shared (text) dimension. All variants are a
single self-attention + feed-forward block; positional encodings are off
by default since the synthetic corpora are order-free.

The class-token readout reads row 0 alone, so its block takes every row as
a key and a value but computes queries, attention output, residual and
feed-forward, forward and backward, for the first two rows only. Two, not
one: every product stays a gemm, whose row 0 has the bits of the full
computation's row 0, where a one-row product goes to gemv and rounds
differently.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .layers import Affine, Param, TransformerBlock, glorot_uniform

Array = np.ndarray

QUERY_ROWS = 2  # of the class-token block; see the module docstring


def sinusoidal_positions(length: int, dim: int) -> Array:
    pos = np.arange(length)[:, None]
    i = np.arange(dim)[None, :]
    angle = pos / np.power(10000.0, (2 * (i // 2)) / dim)
    enc = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return enc


class ModalityEncoder:
    """One transformer block plus class-token or mean-pool readout."""

    def __init__(self, name: str, d_in: int, d_out: int, n_heads: int,
                 ffn_hidden: int, use_class_token: bool,
                 positional: bool = False):
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
                                      ffn_hidden)
        if use_class_token:
            self.class_token = Param(f"{name}.class_token", (d_in,),
                                     glorot_uniform(d_in, d_in))
            self.out_proj = None
        else:
            self.class_token = None
            self.out_proj = Affine(f"{name}.out_proj", d_in, d_out, bias=False)

    def forward_batch(self, x: Array, keep: bool = True):
        """(B, L, d_in) -> ((B, d_out), cache); the cache is None with
        ``keep`` off, for inference."""
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
            out, block_cache = self.block.forward(h, rows=QUERY_ROWS,
                                                  keep=keep)
            return out[:, 0, :], (block_cache, out.shape) if keep else None
        out, block_cache = self.block.forward(x, keep=keep)
        pooled = out.mean(axis=1)
        y, proj_cache = self.out_proj.forward(pooled)
        return y, (block_cache, out.shape, proj_cache) if keep else None

    def backward_batch(self, g: Array, cache) -> None:
        """Accumulates the parameter gradients. The encoder reads data, so
        no input gradient is built beyond the query rows', for the class
        token in row 0."""
        if self.use_class_token:
            block_cache, shape = cache
            g_block = np.zeros(shape)
            g_block[:, 0, :] = g
            gx = self.block.backward(g_block, block_cache)
            self.class_token.grad += gx[:, 0, :].sum(axis=0)
            return
        block_cache, shape, proj_cache = cache
        g_pooled = self.out_proj.backward(g, proj_cache)
        g_block = np.repeat(g_pooled[:, None, :], shape[1], axis=1) / shape[1]
        self.block.backward(g_block, block_cache, input_grad=False)

    def params(self) -> list[Param]:
        out = self.block.params()
        if self.class_token is not None:
            out.append(self.class_token)
        if self.out_proj is not None:
            out += self.out_proj.params()
        return out
