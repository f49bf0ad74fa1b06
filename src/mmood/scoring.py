"""OOD confidence scores over fused features and classifier logits.

All scorers share one orientation: larger score means more ID-like, so
distances and residual norms enter negated. Fit once on training features
(and logits where needed), then score test samples. Scorers take batches
only: (N, D) features and (N, K) logits in, (N,) scores out.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, NumericalError, ParameterError
from .numerics import (
    covariance,
    default_reg_eps,
    l2_normalize,
    principal_subspace,
    regularized_inverse,
    softmax,
)

Array = np.ndarray

SCORERS = ("mahalanobis", "energy", "msp", "maxlogit", "residual", "vim")


@dataclass
class ClassStats:
    means: Array       # (K, D)
    covs: Array        # (K, D, D)
    counts: Array      # (K,)
    eps: Array         # (K,) regularization actually applied
    precisions: Array  # (K, D, D) regularized inverses

    @property
    def num_classes(self) -> int:
        return self.means.shape[0]


def fit_class_stats(features: Array, labels, num_classes: int,
                    eps: float | None = None) -> ClassStats:
    """Per-class means and unbiased covariances with precomputed inverses."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=int)
    if features.ndim != 2 or len(labels) != features.shape[0]:
        raise ParameterError("scoring: features must be (N, D) with N labels")
    d = features.shape[1]
    means = np.zeros((num_classes, d))
    covs = np.zeros((num_classes, d, d))
    counts = np.zeros(num_classes, dtype=np.int64)
    eps_used = np.zeros(num_classes)
    precisions = np.zeros((num_classes, d, d))
    for k in range(num_classes):
        rows = features[labels == k]
        if rows.shape[0] < 2:
            raise InsufficientDataError(
                f"scoring: class {k} has {rows.shape[0]} training features, "
                "need >= 2 for a covariance"
            )
        means[k] = rows.mean(axis=0)
        covs[k] = covariance(rows)
        eff = default_reg_eps(covs[k]) if eps is None else float(eps)
        eff = max(eff, 1e-6)
        eps_used[k] = eff
        precisions[k] = regularized_inverse(covs[k], eps=eff, min_eps=0.0)
        counts[k] = rows.shape[0]
    return ClassStats(means=means, covs=covs, counts=counts, eps=eps_used,
                      precisions=precisions)


def score_mahalanobis(z: Array, stats: ClassStats) -> Array:
    """Negated minimum class-conditional quadratic-form distance, per row."""
    z = np.asarray(z, dtype=np.float64)
    dists = np.empty((z.shape[0], stats.num_classes))
    for k in range(stats.num_classes):
        delta = z - stats.means[k]
        dists[:, k] = np.einsum("nd,de,ne->n", delta, stats.precisions[k], delta)
    return -dists.min(axis=1)


def score_energy(logits: Array) -> Array:
    logits = np.asarray(logits, dtype=np.float64)
    m = logits.max(axis=1, keepdims=True)
    return (m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True)))[:, 0]


def score_msp(logits: Array) -> Array:
    return softmax(np.asarray(logits, dtype=np.float64), axis=-1).max(axis=-1)


def score_maxlogit(logits: Array) -> Array:
    return np.asarray(logits, dtype=np.float64).max(axis=-1)


@dataclass
class ResidualState:
    mean: Array    # mean of the L2-normalized training features
    basis: Array   # (D, n_components) principal directions
    degenerate: bool


def _normalize_rows(x: Array) -> Array:
    return np.stack([l2_normalize(row) for row in x])


def fit_residual(features: Array, num_components: int) -> ResidualState:
    """Principal subspace of L2-normalized, mean-centered training features.

    ``num_components`` is conventionally the number of ID classes. When it
    reaches the feature dimension the orthogonal complement is empty and
    every residual is zero; that state is flagged, not rejected.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ParameterError("scoring: residual fit expects (N, D) features")
    d = features.shape[1]
    degenerate = num_components >= d
    if degenerate:
        warnings.warn(
            "scoring: residual subspace covers the whole feature space; "
            "residual scores are identically zero", stacklevel=2,
        )
        num_components = d
    normalized = _normalize_rows(features)
    mean = normalized.mean(axis=0)
    basis = principal_subspace(covariance(normalized - mean), num_components)
    return ResidualState(mean=mean, basis=basis, degenerate=degenerate)


def residual_magnitude(z: Array, state: ResidualState) -> Array:
    """Norm of each row's component orthogonal to the principal subspace."""
    centered = _normalize_rows(np.asarray(z, dtype=np.float64)) - state.mean
    proj = centered @ state.basis @ state.basis.T
    return np.linalg.norm(centered - proj, axis=1)


def score_residual(z: Array, state: ResidualState) -> Array:
    return -residual_magnitude(z, state)


@dataclass
class VimState:
    residual: ResidualState
    alpha: float  # virtual-logit scale


def fit_vim(features: Array, logits: Array, residual: ResidualState) -> VimState:
    """Virtual-logit scale: mean max train logit over mean train residual."""
    logits = np.asarray(logits, dtype=np.float64)
    mags = residual_magnitude(features, residual)
    mean_resid = float(np.mean(mags))
    if residual.degenerate or mean_resid <= 1e-12:
        raise NumericalError(
            "scoring: vim fit failed, mean training residual is zero "
            "(degenerate principal subspace)"
        )
    alpha = float(np.mean(logits.max(axis=1))) / mean_resid
    return VimState(residual=residual, alpha=alpha)


def score_vim(z: Array, logits: Array, state: VimState) -> Array:
    """Append the scaled residual as a virtual logit; score is the negated
    softmax mass it receives."""
    logits = np.asarray(logits, dtype=np.float64)
    virtual = state.alpha * residual_magnitude(z, state.residual)
    full = np.concatenate([logits, virtual[:, None]], axis=1)
    return -softmax(full, axis=-1)[:, -1]


def normalize_scores(scores) -> Array:
    """Min-max scaling into [0, 1]; all-equal inputs map to 0.5."""
    s = np.asarray(scores, dtype=np.float64)
    if s.size == 0:
        raise ParameterError("scoring: cannot normalize an empty score list")
    lo, hi = s.min(), s.max()
    if hi == lo:
        return np.full_like(s, 0.5)
    return (s - lo) / (hi - lo)


@dataclass
class ScorerState:
    """One fitted scoring function, applied uniformly to (features, logits)."""
    variant: str
    class_stats: ClassStats | None = None
    residual: ResidualState | None = None
    vim: VimState | None = None


def fit_scorer(variant: str, train_features: Array, train_logits: Array,
               class_stats: ClassStats, num_classes: int) -> ScorerState:
    if variant not in SCORERS:
        raise ParameterError(
            f"scoring: unknown scorer {variant!r}, expected one of {SCORERS}"
        )
    if variant == "mahalanobis":
        return ScorerState(variant, class_stats=class_stats)
    if variant in ("residual", "vim"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            residual = fit_residual(train_features, num_classes)
        if variant == "residual":
            return ScorerState(variant, residual=residual)
        return ScorerState(variant, residual=residual,
                           vim=fit_vim(train_features, train_logits, residual))
    return ScorerState(variant)


def apply_scorer(state: ScorerState, features: Array, logits: Array) -> Array:
    if state.variant == "mahalanobis":
        return score_mahalanobis(features, state.class_stats)
    if state.variant == "energy":
        return score_energy(logits)
    if state.variant == "msp":
        return score_msp(logits)
    if state.variant == "maxlogit":
        return score_maxlogit(logits)
    if state.variant == "residual":
        return score_residual(features, state.residual)
    if state.variant == "vim":
        return score_vim(features, logits, state.vim)
    raise ParameterError(f"scoring: unknown scorer {state.variant!r}")
