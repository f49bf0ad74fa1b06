"""Dense linear algebra, stable reductions, and seeded sampling.

Everything runs in 64-bit floats on C-ordered numpy arrays. Matrices are
plain 2-D ``np.ndarray``; callers that need validated inputs go through
:func:`as_matrix`. Random draws take an explicit ``np.random.Generator``
(PCG64) so that identical seeds give identical sample streams.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import InsufficientDataError, NumericalError, ParameterError

Array = np.ndarray


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic generator for a 64-bit seed."""
    return np.random.Generator(np.random.PCG64(seed))


def component_rng(seed: int, slot: int) -> np.random.Generator:
    """Generator for a fixed component slot under a master seed.

    Slots are independent streams: adding or removing one component does
    not shift the draws any other component sees.
    """
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(slot,)))
    )


def as_matrix(a, name: str = "matrix") -> Array:
    """Validate a 2-D, finite, float64, C-ordered matrix."""
    m = np.ascontiguousarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ParameterError(f"numerics: {name} must be 2-D, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ParameterError(f"numerics: {name} contains non-finite entries")
    return m


def dirichlet_sample(alpha: float, k, rng: np.random.Generator) -> Array:
    """Draw weight vectors from a symmetric Dirichlet(alpha) of length k.

    ``k`` is the vector length, or a shape whose last axis is the vector
    length (one vector per leading index). Uses k independent gamma(alpha)
    draws per vector normalized to sum 1, which is the exact construction
    and stays seedable.
    """
    shape = (k,) if np.ndim(k) == 0 else tuple(k)
    if not alpha > 0:
        raise ParameterError(f"numerics: dirichlet alpha must be > 0, got {alpha}")
    if not shape or shape[-1] < 2:
        raise ParameterError(f"numerics: dirichlet k must be >= 2, got {k}")
    g = rng.standard_gamma(alpha, size=shape)
    total = g.sum(axis=-1, keepdims=True)
    dead = total[..., 0] <= 0.0
    if dead.any():
        # rows whose gamma draws all underflowed to zero (only possible for
        # extreme small alpha); the limiting distribution puts all mass on
        # one axis
        g[dead] = np.eye(shape[-1])[rng.integers(shape[-1], size=dead.sum())]
        total[dead] = 1.0
    return g / total


def softmax(v, axis: int = -1) -> Array:
    """Shift-invariant softmax along ``axis``."""
    x = np.asarray(v, dtype=np.float64)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def logsumexp(v) -> float:
    """Overflow-free log(sum(exp(v))) of a nonempty vector."""
    x = np.asarray(v, dtype=np.float64).ravel()
    if x.size == 0:
        raise ParameterError("numerics: logsumexp of an empty vector")
    m = x.max()
    return float(m + np.log(np.exp(x - m).sum()))


def l2_normalize(v, eps: float = 1e-12) -> Array:
    """Scale ``v`` to unit norm; returns the zero vector when ||v|| <= eps."""
    x = np.asarray(v, dtype=np.float64)
    n = np.linalg.norm(x)
    if n <= eps:
        return np.zeros_like(x)
    return x / n


def covariance(rows) -> Array:
    """Unbiased (N-1 divisor) covariance of row samples, exactly symmetric."""
    x = as_matrix(rows, "covariance input")
    n = x.shape[0]
    if n < 2:
        raise InsufficientDataError(
            f"numerics: covariance needs >= 2 rows, got {n}"
        )
    centered = x - x.mean(axis=0)
    c = centered.T @ centered / (n - 1)
    return (c + c.T) / 2.0


def _check_symmetric(m: Array, name: str) -> None:
    scale = max(1.0, float(np.abs(m).max()))
    if not np.allclose(m, m.T, atol=1e-8 * scale):
        raise ParameterError(f"numerics: {name} must be symmetric")


def default_reg_eps(m) -> float:
    """Scale-aware regularization: 1e-6 * trace / dim."""
    mm = as_matrix(m, "regularization target")
    return 1e-6 * float(np.trace(mm)) / mm.shape[0]


def regularized_inverse(m, eps: float | None = None, min_eps: float = 1e-6) -> Array:
    """Inverse of (m + eps*I) via Cholesky factorization of the SPD shift.

    ``eps=None`` uses the scale-aware default; the effective value is
    floored at ``min_eps`` so singular covariances stay invertible.
    """
    mm = as_matrix(m, "regularized_inverse input")
    if mm.shape[0] != mm.shape[1]:
        raise ParameterError("numerics: regularized_inverse needs a square matrix")
    _check_symmetric(mm, "regularized_inverse input")
    eff = default_reg_eps(mm) if eps is None else float(eps)
    eff = max(eff, min_eps)
    shifted = mm + eff * np.eye(mm.shape[0])
    try:
        factor = scipy.linalg.cho_factor(shifted, lower=True)
        inv = scipy.linalg.cho_solve(factor, np.eye(mm.shape[0]))
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(
            f"numerics: factorization failed even with eps={eff}"
        ) from exc
    return (inv + inv.T) / 2.0


def principal_subspace(cov, d: int) -> Array:
    """Orthonormal basis (cols x d) spanning the top-d eigenvectors of cov."""
    c = as_matrix(cov, "principal_subspace input")
    n = c.shape[0]
    if c.shape[1] != n:
        raise ParameterError("numerics: principal_subspace needs a square matrix")
    _check_symmetric(c, "principal_subspace input")
    if not 1 <= d <= n:
        raise ParameterError(
            f"numerics: subspace dimension must be in [1, {n}], got {d}"
        )
    eigvals, eigvecs = np.linalg.eigh(c)
    order = np.argsort(eigvals)[::-1][:d]
    return np.ascontiguousarray(eigvecs[:, order])
