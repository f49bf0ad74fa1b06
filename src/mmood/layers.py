"""Trainable building blocks with explicit forward/backward transforms.

The reverse-mode contract: every layer owns its ``Param`` tensors and
implements ``forward(...) -> (output, cache)`` plus
``backward(grad_output, cache) -> grad_input`` which accumulates into
``Param.grad``. Caches are returned rather than stored so a layer can run
several forward passes (e.g. two dropout views of one batch) before the
matching backward calls.

Inputs are batched with the batch on the leading axis; affine transforms
act on the trailing axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ParameterError

Array = np.ndarray


@dataclass
class Param:
    name: str
    value: Array
    grad: Array = field(init=False)

    def __post_init__(self):
        self.value = np.ascontiguousarray(self.value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0


def bind_flat(params: Sequence[Param]) -> tuple[Array, Array]:
    """Move ``params`` into one flat value and one flat grad buffer.

    Each ``Param.value`` and ``Param.grad`` becomes a view of its slice,
    laid out in the given order; returns ``(values, grads)``.
    """
    values = np.concatenate([p.value.reshape(-1) for p in params])
    grads = np.concatenate([p.grad.reshape(-1) for p in params])
    start = 0
    for p in params:
        stop = start + p.value.size
        p.value = values[start:stop].reshape(p.value.shape)
        p.grad = grads[start:stop].reshape(p.grad.shape)
        start = stop
    return values, grads


def flat_slice(params: Sequence[Param]) -> tuple[Array, Array]:
    """The one contiguous 1-D ``(values, grads)`` view ``params`` cover.

    A single ``Param`` is its own slice; several must tile one range of a
    ``bind_flat`` buffer pair, in any order.
    """
    if len(params) == 1:
        return params[0].value.reshape(-1), params[0].grad.reshape(-1)
    values, grads = params[0].value.base, params[0].grad.base
    if values is None or values.ndim != 1 or any(
            p.value.base is not values or p.grad.base is not grads
            for p in params):
        raise ParameterError("layers: parameters do not share one flat buffer")
    starts = [(p.value.ctypes.data - values.ctypes.data) // values.itemsize
              for p in params]
    start = min(starts)
    stop = max(s + p.value.size for s, p in zip(starts, params))
    # bind_flat slices never overlap, so distinct starts whose sizes add up
    # to the span tile it
    if len(set(starts)) != len(params) or \
            stop - start != sum(p.value.size for p in params):
        raise ParameterError(
            "layers: parameters do not tile one contiguous buffer slice"
        )
    return values[start:stop], grads[start:stop]


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int,
                   shape: tuple[int, ...]) -> Array:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


class Affine:
    """y = x @ W + b on the trailing axis."""

    def __init__(self, name: str, d_in: int, d_out: int,
                 rng: np.random.Generator, bias: bool = True):
        self.d_in, self.d_out = d_in, d_out
        self.W = Param(f"{name}.W", glorot_uniform(rng, d_in, d_out, (d_in, d_out)))
        self.b = Param(f"{name}.b", np.zeros(d_out)) if bias else None

    def forward(self, x: Array):
        y = x @ self.W.value
        if self.b is not None:
            y = y + self.b.value
        return y, x

    def backward(self, g: Array, cache: Array) -> Array:
        x = cache
        x2 = x.reshape(-1, self.d_in)
        g2 = g.reshape(-1, self.d_out)
        self.W.grad += x2.T @ g2
        if self.b is not None:
            self.b.grad += g2.sum(axis=0)
        return g @ self.W.value.T

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
        if not 0.0 <= p < 1.0:
            raise ParameterError(f"layers: dropout rate must be in [0, 1), got {p}")
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


def _softmax_last(x: Array) -> Array:
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


class SelfAttention:
    """Single multi-head self-attention layer on (B, L, D) inputs."""

    def __init__(self, name: str, d_model: int, n_heads: int,
                 rng: np.random.Generator):
        if d_model % n_heads != 0:
            raise ParameterError(
                f"layers: n_heads={n_heads} must divide d_model={d_model}"
            )
        self.d = d_model
        self.h = n_heads
        self.dh = d_model // n_heads
        self.scale = 1.0 / np.sqrt(self.dh)
        self.proj_q = Affine(f"{name}.q", d_model, d_model, rng)
        self.proj_k = Affine(f"{name}.k", d_model, d_model, rng)
        self.proj_v = Affine(f"{name}.v", d_model, d_model, rng)
        self.proj_o = Affine(f"{name}.o", d_model, d_model, rng)

    def _split(self, x: Array) -> Array:
        b, l, _ = x.shape
        return x.reshape(b, l, self.h, self.dh).transpose(0, 2, 1, 3)

    def _merge(self, x: Array) -> Array:
        b, h, l, dh = x.shape
        return x.transpose(0, 2, 1, 3).reshape(b, l, h * dh)

    def forward(self, x: Array):
        qf, cq = self.proj_q.forward(x)
        kf, ck = self.proj_k.forward(x)
        vf, cv = self.proj_v.forward(x)
        q, k, v = self._split(qf), self._split(kf), self._split(vf)
        attn = _softmax_last(q @ k.swapaxes(-1, -2) * self.scale)
        ctx = self._merge(attn @ v)
        y, co = self.proj_o.forward(ctx)
        return y, (cq, ck, cv, co, q, k, v, attn)

    def backward(self, g: Array, cache) -> Array:
        cq, ck, cv, co, q, k, v, attn = cache
        g_ctx = self._split(self.proj_o.backward(g, co))
        g_attn = g_ctx @ v.swapaxes(-1, -2)
        gv = attn.swapaxes(-1, -2) @ g_ctx
        g_scores = attn * (g_attn - (g_attn * attn).sum(axis=-1, keepdims=True))
        gq = g_scores @ k * self.scale
        gk = g_scores.swapaxes(-1, -2) @ q * self.scale
        gx = self.proj_q.backward(self._merge(gq), cq)
        gx += self.proj_k.backward(self._merge(gk), ck)
        gx += self.proj_v.backward(self._merge(gv), cv)
        return gx

    def params(self) -> list[Param]:
        return (self.proj_q.params() + self.proj_k.params()
                + self.proj_v.params() + self.proj_o.params())


class FeedForward:
    """affine -> ReLU -> affine."""

    def __init__(self, name: str, d_model: int, hidden: int,
                 rng: np.random.Generator):
        self.lin1 = Affine(f"{name}.lin1", d_model, hidden, rng)
        self.lin2 = Affine(f"{name}.lin2", hidden, d_model, rng)

    def forward(self, x: Array):
        h, c1 = self.lin1.forward(x)
        a, mask = relu(h)
        y, c2 = self.lin2.forward(a)
        return y, (c1, mask, c2)

    def backward(self, g: Array, cache) -> Array:
        c1, mask, c2 = cache
        ga = self.lin2.backward(g, c2)
        gh = relu_backward(ga, mask)
        return self.lin1.backward(gh, c1)

    def params(self) -> list[Param]:
        return self.lin1.params() + self.lin2.params()


class TransformerBlock:
    """x + attn(x), then + ffn(...); residuals, no normalization layers."""

    def __init__(self, name: str, d_model: int, n_heads: int, ffn_hidden: int,
                 rng: np.random.Generator):
        self.attn = SelfAttention(f"{name}.attn", d_model, n_heads, rng)
        self.ffn = FeedForward(f"{name}.ffn", d_model, ffn_hidden, rng)

    def forward(self, x: Array):
        a, ca = self.attn.forward(x)
        h = x + a
        f, cf = self.ffn.forward(h)
        return h + f, (ca, cf)

    def backward(self, g: Array, cache) -> Array:
        ca, cf = cache
        gh = g + self.ffn.backward(g, cf)
        return gh + self.attn.backward(gh, ca)

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
