"""Dense linear algebra, stable reductions, and seeded sampling.

Everything runs in 64-bit floats on C-ordered numpy arrays. Matrices are
plain 2-D ``np.ndarray``; callers that need validated inputs go through
:func:`as_matrix`. Random draws take an explicit ``np.random.Generator``
(PCG64) so that identical seeds give identical sample streams. numpy is
the only dependency: the Cholesky inverse uses ``np.linalg``, which
``import numpy`` already loads.
"""

from __future__ import annotations

import numpy as np

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
    and stays seedable. ``OodGenConfig`` holds alpha > 0 and k >= 2.
    """
    shape = (k,) if np.ndim(k) == 0 else tuple(k)
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


def softmax(v) -> Array:
    """Shift-invariant softmax over the last axis.

    Numpy pays per row to reduce a short last axis. So at least 384 rows of
    2 to 32 go key-axis first, one whole-array step per key, and are summed
    in ``np.add.reduce``'s own order: row after row below 8 terms, else 8
    accumulators added pairwise and then the tail. The result, a transposed
    view, has numpy's bits; longer rows pay more to transpose than they save.
    """
    x = np.asarray(v, dtype=np.float64)
    n = x.shape[-1] if x.ndim else 0
    if not 2 <= n <= 32 or x.size < 384 * n:
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)
    t = np.moveaxis(x, -1, 0).copy()
    t -= t.max(axis=0)
    np.exp(t, out=t)
    if n < 8:
        total = t.sum(axis=0)
    else:
        stop = n - n % 8
        acc = t[:8]
        for i in range(8, stop, 8):
            acc = acc + t[i:i + 8]
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + \
            ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        for row in t[stop:]:
            total += row
    t /= total
    return np.moveaxis(t, 0, -1)


def softmax_backward(g, p) -> Array:
    """Gradient wrt the inputs of a softmax with outputs ``p``."""
    return p * (g - (g * p).sum(axis=-1, keepdims=True))


def logsumexp(v) -> Array | float:
    """Overflow-free log-sum-exp over the last axis; a float for a vector."""
    x = np.atleast_1d(np.asarray(v, dtype=np.float64))
    if x.shape[-1] == 0:
        raise ParameterError("numerics: logsumexp of an empty vector")
    m = x.max(axis=-1)
    return m + np.log(np.exp(x - m[..., None]).sum(axis=-1))


NORM_EPS = 1e-12


def _unit(x: Array, norms: Array):
    live = norms > NORM_EPS
    safe = np.maximum(norms, NORM_EPS)
    return np.where(live, x / safe, 0.0), safe, live


def unit_rows(x):
    """``(u, norms, live)``: the rows (last axis) of ``x`` at unit norm, zero
    where a norm is <= NORM_EPS, and the norms floored at NORM_EPS. A norm
    sums squares, as the heads always have; :func:`l2_normalize` does not."""
    x = np.asarray(x, dtype=np.float64)
    return _unit(x, np.linalg.norm(x, axis=-1, keepdims=True))


def unit_rows_backward(g, u, norms, live) -> Array:
    """Input-row gradient of :func:`unit_rows` from ``g`` wrt ``u``."""
    return np.where(live, (g - (g * u).sum(axis=-1, keepdims=True) * u) / norms,
                    0.0)


def l2_normalize(v) -> Array:
    """The rows (last axis) of ``v`` at unit norm, zero where a norm is <=
    NORM_EPS. A norm is the BLAS dot product ``np.linalg.norm`` takes of one
    vector, the bits the corpus and residual/ViM scores were built on; the
    summed squares of :func:`unit_rows` change the last bit of some rows."""
    x = np.ascontiguousarray(v, dtype=np.float64)
    return _unit(x, np.sqrt(x[..., None, :] @ x[..., :, None])[..., 0])[0]


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


def _symmetric(m, who: str) -> Array:
    """``m`` validated as a symmetric matrix for function ``who``."""
    mm = as_matrix(m, f"{who} input")
    scale = max(1.0, float(np.abs(mm).max()))
    if not np.allclose(mm, mm.T, atol=1e-8 * scale):
        raise ParameterError(f"numerics: {who} input must be symmetric")
    return mm


def default_reg_eps(m) -> float:
    """Scale-aware regularization: 1e-6 * trace / dim."""
    mm = as_matrix(m, "regularization target")
    return 1e-6 * float(np.trace(mm)) / mm.shape[0]


def regularized_inverse(m, eps: float) -> Array:
    """Inverse of the SPD shift ``m + eps*I``, exactly symmetric: with its
    Cholesky factor ``L``, ``inv(L).T @ inv(L)``, averaged with its
    transpose. A shift that is not positive definite raises
    ``NumericalError``."""
    mm = _symmetric(m, "regularized_inverse")
    try:
        factor = np.linalg.cholesky(mm + eps * np.eye(mm.shape[0]))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"numerics: factorization failed even with eps={eps}"
        ) from exc
    li = np.linalg.inv(factor)
    inv = li.T @ li
    return (inv + inv.T) / 2.0


def principal_subspace(cov, d: int) -> Array:
    """Orthonormal basis (cols x d) spanning the top-d eigenvectors of cov."""
    c = _symmetric(cov, "principal_subspace")
    n = c.shape[0]
    if not 1 <= d <= n:
        raise ParameterError(
            f"numerics: subspace dimension must be in [1, {n}], got {d}"
        )
    eigvals, eigvecs = np.linalg.eigh(c)
    order = np.argsort(eigvals)[::-1][:d]
    return np.ascontiguousarray(eigvecs[:, order])
