"""OOD confidence scores over fused features and classifier logits.

All scorers share one orientation: larger score means more ID-like, so
distances and residual norms enter negated. Fit once on training features
(and logits where needed), then score test samples. Scorers take batches
only: (N, D) features and (N, K) logits in, (N,) scores out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InsufficientDataError, NumericalError, ParameterError
from .numerics import (
    covariance,
    default_reg_eps,
    l2_normalize,
    logsumexp,
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


def check_class_counts(labels, num_classes: int) -> None:
    """Raise unless each class 0..K-1 holds >= 2 of ``labels`` (all >= 0);
    only the classes present are counted, so a huge K builds nothing K-sized."""
    classes, counts = np.unique(labels, return_counts=True)
    ok = (classes == np.arange(len(classes))) & (counts >= 2)
    k = len(classes) if ok.all() else int(np.argmin(ok))  # first short class
    if k < num_classes:
        n = int(counts[k]) if k < len(classes) and classes[k] == k else 0
        raise InsufficientDataError(f"scoring: class {k} has {n} training "
                                    "records, need >= 2 for a covariance")


def fit_class_stats(features: Array, labels, num_classes: int,
                    eps: float | None = None) -> ClassStats:
    """Per-class means and unbiased covariances with precomputed inverses."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=int)
    check_class_counts(labels, num_classes)
    d = features.shape[1]
    means = np.zeros((num_classes, d))
    covs = np.zeros((num_classes, d, d))
    counts = np.zeros(num_classes, dtype=np.int64)
    eps_used = np.zeros(num_classes)
    precisions = np.zeros((num_classes, d, d))
    for k in range(num_classes):
        rows = features[labels == k]
        means[k] = rows.mean(axis=0)
        covs[k] = covariance(rows)
        eff = default_reg_eps(covs[k]) if eps is None else float(eps)
        eps_used[k] = max(eff, 1e-6)
        precisions[k] = regularized_inverse(covs[k], eps_used[k])
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
    return logsumexp(logits)


def score_msp(logits: Array) -> Array:
    return softmax(logits).max(axis=-1)


def score_maxlogit(logits: Array) -> Array:
    return np.asarray(logits, dtype=np.float64).max(axis=-1)


@dataclass
class ResidualState:
    mean: Array    # mean of the L2-normalized training features
    basis: Array   # (D, n_components) principal directions
    degenerate: bool


def fit_residual(features: Array, num_components: int) -> ResidualState:
    """Principal subspace of L2-normalized, mean-centered training features.

    ``num_components`` is conventionally the number of ID classes. When it
    reaches the feature dimension the orthogonal complement is empty and
    every residual is zero; that state is flagged as ``degenerate``, which
    ``fit_vim`` rejects and the residual scorer scores as all zero.
    """
    features = np.asarray(features, dtype=np.float64)
    d = features.shape[1]
    degenerate = num_components >= d
    num_components = min(num_components, d)
    normalized = l2_normalize(features)
    mean = normalized.mean(axis=0)
    basis = principal_subspace(covariance(normalized - mean), num_components)
    return ResidualState(mean=mean, basis=basis, degenerate=degenerate)


def residual_magnitude(z: Array, state: ResidualState) -> Array:
    """Norm of each row's component orthogonal to the principal subspace."""
    centered = l2_normalize(z) - state.mean
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
    return -softmax(full)[:, -1]


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
    """One fitted scoring function: ``score(features, logits)`` gives the
    (N,) scores of (N, D) features and their (N, K) logits."""
    variant: str
    score: Callable[[Array, Array], Array]


_LOGIT_SCORERS = {"energy": score_energy, "msp": score_msp,
                  "maxlogit": score_maxlogit}


def fit_scorer(variant: str, train_features: Array, train_logits: Array,
               class_stats: ClassStats, num_classes: int) -> ScorerState:
    """The ``variant`` scorer fitted once: Mahalanobis reads
    ``class_stats``, the logit scorers fit nothing, and residual and vim
    fit a ``num_classes``-dimensional principal subspace of the training
    features (vim also its virtual-logit scale)."""
    if variant not in SCORERS:
        raise ParameterError(
            f"scoring: unknown scorer {variant!r}, expected one of {SCORERS}"
        )
    if variant in _LOGIT_SCORERS:
        score_logits = _LOGIT_SCORERS[variant]
        return ScorerState(variant, lambda z, logits: score_logits(logits))
    if variant == "mahalanobis":
        return ScorerState(
            variant, lambda z, logits: score_mahalanobis(z, class_stats))
    residual = fit_residual(train_features, num_classes)
    if variant == "residual":
        return ScorerState(variant,
                           lambda z, logits: score_residual(z, residual))
    vim = fit_vim(train_features, train_logits, residual)
    return ScorerState(variant, lambda z, logits: score_vim(z, logits, vim))


def apply_scorer(state: ScorerState, features: Array, logits: Array) -> Array:
    return state.score(features, logits)
