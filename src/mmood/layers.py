"""Trainable building blocks with explicit forward/backward transforms.

The reverse-mode contract: every layer owns its ``Param`` tensors and
implements ``forward(...) -> (output, cache)`` plus
``backward(grad_output, cache) -> grad_input`` which accumulates into
``Param.grad``. Caches are returned rather than stored so a layer can run
several forward passes (e.g. two dropout views of one batch) before the
matching backward calls. Inference keeps none: with ``keep`` off,
``TransformerBlock.forward`` (and ``ModalityEncoder.forward_batch``) return
None for the cache, as ``backward`` with ``input_grad`` off returns None for
the input gradient.

A constructor only describes its ``Param`` tensors (name, shape, init): a
Param holds no storage until ``bind_flat`` backs it with a slice of flat
buffers, and ``initialize`` then draws its first value.

Inputs are batched with the batch on the leading axis; affine transforms
act on the trailing axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from .errors import ParameterError
from .numerics import softmax, softmax_backward

Array = np.ndarray


@dataclass(eq=False)
class Param:
    """A tensor described until bound: ``init(rng, shape)`` draws its first
    value (None: zeros), and ``bind_flat`` gives it ``value`` and ``grad``."""

    name: str
    shape: tuple[int, ...]
    init: Callable[[np.random.Generator, tuple], Array] | None = None
    value: Array = field(init=False, repr=False)
    grad: Array = field(init=False, repr=False)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0


def bind_flat(params: Sequence[Param]) -> tuple[Array, Array]:
    """Back ``params`` with one zeroed flat value and one flat grad buffer.

    Each ``Param.value`` and ``Param.grad`` becomes a view of its slice,
    laid out in the given order; returns ``(values, grads)``.
    """
    stops = list(accumulate((math.prod(p.shape) for p in params), initial=0))
    try:
        values, grads = np.zeros(stops[-1]), np.zeros(stops[-1])
    except (ValueError, MemoryError) as exc:  # numpy cannot index or hold
        raise ParameterError(f"layers: cannot allocate {stops[-1]} parameter "
                             f"values ({exc})") from exc
    for p, start, stop in zip(params, stops, stops[1:]):
        p.value = values[start:stop].reshape(p.shape)
        p.grad = grads[start:stop].reshape(p.shape)
    return values, grads


def initialize(params: Sequence[Param], rng: np.random.Generator) -> None:
    """Draw each bound Param's first value from ``rng``, in order."""
    for p in params:
        if p.init is not None:
            p.value[...] = p.init(rng, p.shape)


def glorot_uniform(fan_in: int, fan_out: int):
    """The init drawing U(-b, b), b = sqrt(6 / (fan_in + fan_out)); b is
    computed at draw time, so describing a huge layer computes nothing."""
    def init(rng, shape):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=shape)
    return init


class Affine:
    """y = x @ W + b on the trailing axis."""

    def __init__(self, name: str, d_in: int, d_out: int, bias: bool = True):
        self.d_in, self.d_out = d_in, d_out
        self.W = Param(f"{name}.W", (d_in, d_out), glorot_uniform(d_in, d_out))
        self.b = Param(f"{name}.b", (d_out,)) if bias else None

    def forward(self, x: Array):
        y = x @ self.W.value
        if self.b is not None:
            y = y + self.b.value
        return y, x

    def backward(self, g: Array, cache: Array,
                 input_grad: bool = True) -> Array | None:
        x = cache
        x2 = x.reshape(-1, self.d_in)
        g2 = g.reshape(-1, self.d_out)
        self.W.grad += x2.T @ g2
        if self.b is not None:
            self.b.grad += g2.sum(axis=0)
        return g @ self.W.value.T if input_grad else None

    def params(self) -> list[Param]:
        return [self.W] + ([self.b] if self.b is not None else [])


def relu(x: Array):
    mask = x > 0
    return x * mask, mask


def relu_backward(g: Array, mask: Array) -> Array:
    return g * mask


class Dropout:
    """Inverted dropout; identity in eval mode."""

    def __init__(self, p: float):
        self.p = p

    def forward(self, x: Array, train: bool, rng: np.random.Generator | None):
        if not train or self.p == 0.0:
            return x, None
        mask = (rng.random(x.shape) >= self.p) / (1.0 - self.p)
        return x * mask, mask

    def backward(self, g: Array, cache: Array | None) -> Array:
        if cache is None:
            return g
        return g * cache


class SelfAttention:
    """Single multi-head self-attention layer on (B, L, D) inputs."""

    def __init__(self, name: str, d_model: int, n_heads: int):
        self.d = d_model
        self.h = n_heads
        self.dh = d_model // n_heads
        self.scale = 1.0 / np.sqrt(self.dh)
        self.proj_q = Affine(f"{name}.q", d_model, d_model)
        self.proj_k = Affine(f"{name}.k", d_model, d_model)
        self.proj_v = Affine(f"{name}.v", d_model, d_model)
        self.proj_o = Affine(f"{name}.o", d_model, d_model)

    def _split(self, x: Array) -> Array:
        b, l, _ = x.shape
        return x.reshape(b, l, self.h, self.dh).transpose(0, 2, 1, 3)

    def _merge(self, x: Array) -> Array:
        b, h, l, dh = x.shape
        return x.transpose(0, 2, 1, 3).reshape(b, l, h * dh)

    def forward(self, x: Array, rows: int | None = None):
        """Keys and values over all of ``x``; queries, and so the output,
        over its first ``rows`` rows (all of them when None)."""
        qf, cq = self.proj_q.forward(x[:, :rows])
        kf, ck = self.proj_k.forward(x)
        vf, cv = self.proj_v.forward(x)
        q, k, v = self._split(qf), self._split(kf), self._split(vf)
        attn = softmax(q @ k.swapaxes(-1, -2) * self.scale)
        ctx = self._merge(attn @ v)
        y, co = self.proj_o.forward(ctx)
        return y, (cq, ck, cv, co, q, k, v, attn)

    def backward(self, g: Array, cache, input_grad: bool = True) -> Array | None:
        """The input gradient of the query rows; with ``input_grad`` off,
        only the parameter gradients."""
        cq, ck, cv, co, q, k, v, attn = cache
        g_ctx = self._split(self.proj_o.backward(g, co))
        gv = self._merge(attn.swapaxes(-1, -2) @ g_ctx)
        g_scores = softmax_backward(g_ctx @ v.swapaxes(-1, -2), attn)
        gq = g_scores @ k * self.scale
        gk = self._merge(g_scores.swapaxes(-1, -2) @ q * self.scale)
        gx = self.proj_q.backward(self._merge(gq), cq, input_grad)
        self.proj_k.backward(gk, ck, input_grad=False)
        self.proj_v.backward(gv, cv, input_grad=False)
        if input_grad:
            rows = gx.shape[1]
            gx += gk[:, :rows] @ self.proj_k.W.value.T
            gx += gv[:, :rows] @ self.proj_v.W.value.T
        return gx

    def params(self) -> list[Param]:
        return (self.proj_q.params() + self.proj_k.params()
                + self.proj_v.params() + self.proj_o.params())


class MLP:
    """lin1 -> ReLU -> Dropout(p) -> lin2, named by its two affines.

    A rate of 0 (the default) draws nothing, so the block then matches a
    plain affine -> ReLU -> affine.
    """

    def __init__(self, name1: str, name2: str, d_in: int, hidden: int,
                 d_out: int, dropout: float = 0.0):
        self.lin1 = Affine(name1, d_in, hidden)
        self.lin2 = Affine(name2, hidden, d_out)
        self.dropout = Dropout(dropout)

    def forward(self, x: Array, train: bool = False,
                rng: np.random.Generator | None = None):
        h, c1 = self.lin1.forward(x)
        a, mask = relu(h)
        d, cd = self.dropout.forward(a, train, rng)
        y, c2 = self.lin2.forward(d)
        return y, (c1, mask, cd, c2)

    def backward(self, g: Array, cache) -> Array:
        c1, mask, cd, c2 = cache
        gd = self.dropout.backward(self.lin2.backward(g, c2), cd)
        return self.lin1.backward(relu_backward(gd, mask), c1)

    def params(self) -> list[Param]:
        return self.lin1.params() + self.lin2.params()


class FeedForward(MLP):
    """The transformer block's affine -> ReLU -> affine."""

    def __init__(self, name: str, d_model: int, hidden: int):
        super().__init__(f"{name}.lin1", f"{name}.lin2", d_model, hidden,
                         d_model)


class TransformerBlock:
    """x + attn(x), then + ffn(...); residuals, no normalization layers."""

    def __init__(self, name: str, d_model: int, n_heads: int, ffn_hidden: int):
        self.attn = SelfAttention(f"{name}.attn", d_model, n_heads)
        self.ffn = FeedForward(f"{name}.ffn", d_model, ffn_hidden)

    def forward(self, x: Array, rows: int | None = None, keep: bool = True):
        """The output of the first ``rows`` rows (all of them when None);
        every row of ``x`` is a key and a value. With ``keep`` off the
        cache is None, and the attention's is freed before the feed-forward
        runs."""
        a, ca = self.attn.forward(x, rows)
        ca = ca if keep else None
        h = x[:, :rows] + a
        f, cf = self.ffn.forward(h)
        return h + f, (ca, cf) if keep else None

    def backward(self, g: Array, cache, input_grad: bool = True) -> Array | None:
        """The input gradient of the query rows; with ``input_grad`` off,
        only the parameter gradients."""
        ca, cf = cache
        gh = g + self.ffn.backward(g, cf)
        ga = self.attn.backward(gh, ca, input_grad)
        return gh + ga if input_grad else None

    def params(self) -> list[Param]:
        return self.attn.params() + self.ffn.params()


def _grad_matches(analytic: float, numeric: float) -> bool:
    m = max(abs(analytic), abs(numeric))
    if m < 1e-3:
        return abs(analytic - numeric) <= 1e-6
    return abs(analytic - numeric) / m <= 1e-3


def check_gradients(run: Callable[[bool], float], params: Sequence[Param],
                    *, step: float = 1e-5,
                    max_coords_per_param: int | None = None,
                    rng: np.random.Generator | None = None) -> list[str]:
    """Compare analytic gradients against central finite differences.

    ``run(compute_grads)`` must re-evaluate the same scalar loss from the
    current parameter values (reset any internal randomness per call) and,
    when asked, accumulate gradients into the params. Returns a list of
    human-readable mismatch descriptions (empty = all checked coordinates
    pass the tolerance: rel err <= 1e-3, or abs err <= 1e-6 for gradients
    smaller than 1e-3 in magnitude).
    """
    for p in params:
        p.zero_grad()
    run(True)
    # snapshot immediately: losses that backprop eagerly would otherwise
    # keep accumulating during the finite-difference re-evaluations
    analytic_grads = [p.grad.copy() for p in params]
    failures = []
    for p, analytic_grad in zip(params, analytic_grads):
        n = p.value.size
        if max_coords_per_param is not None and n > max_coords_per_param:
            if rng is None:
                raise ParameterError("layers: coordinate subsampling needs an rng")
            coords = rng.choice(n, size=max_coords_per_param, replace=False)
        else:
            coords = range(n)
        flat = p.value.reshape(-1)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + step
            f_plus = run(False)
            flat[i] = orig - step
            f_minus = run(False)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * step)
            analytic = analytic_grad.reshape(-1)[i]
            if not _grad_matches(analytic, numeric):
                failures.append(
                    f"{p.name}[{i}]: analytic={analytic:.6e} numeric={numeric:.6e}"
                )
    return failures
