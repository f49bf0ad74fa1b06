"""ID classification metrics and threshold-sweep OOD detection metrics.

Score convention throughout: larger score means more ID-like. Every
threshold metric reads its curve from one sweep: a single O(n log n) sort
that groups tied scores, then cumulative ID/OOD counts per group (Fawcett
2006, Alg. 1-2). Grouping ties makes every metric here invariant under
strictly monotone transformations of the scores.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import MetricError, ParameterError

Array = np.ndarray


@dataclass
class IdMetrics:
    acc: float
    precision: float
    recall: float
    f1: float
    wp: float
    wf1: float
    per_class_acc: list[float]
    confusion: np.ndarray  # (K, K), rows = gold, cols = prediction


@dataclass
class OodMetrics:
    """The threshold metrics, in the column order of the CSV tables."""
    auroc: float
    aupr_in: float
    aupr_out: float
    fpr95: float
    der: float


@dataclass
class EvalReport:
    records: int  # test records scored: each score file holds one row each
    id_metrics: IdMetrics
    ood_metrics: dict[str, OodMetrics]


def confusion_matrix(preds, golds, num_classes: int) -> Array:
    preds = np.asarray(preds, dtype=int)
    golds = np.asarray(golds, dtype=int)
    if preds.shape != golds.shape:
        raise ParameterError(
            f"metrics: {len(preds)} predictions vs {len(golds)} gold labels"
        )
    if preds.size and (preds.min() < 0 or preds.max() >= num_classes
                       or golds.min() < 0 or golds.max() >= num_classes):
        raise ParameterError("metrics: label outside 0..K-1")
    cm = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(cm, (golds, preds), 1)
    return cm


def _safe_div(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def id_metrics(preds, golds, num_classes: int) -> IdMetrics:
    """Six-way ID report: accuracy, macro P/R/F1, support-weighted WP/WF1.

    Per-class ratios with empty denominators contribute 0.
    """
    cm = confusion_matrix(preds, golds, num_classes)
    total = cm.sum()
    if total == 0:
        raise ParameterError("metrics: empty input")
    tp = np.diag(cm).astype(float)
    support = cm.sum(axis=1).astype(float)
    predicted = cm.sum(axis=0).astype(float)
    prec_c = np.array([_safe_div(tp[i], predicted[i]) for i in range(num_classes)])
    rec_c = np.array([_safe_div(tp[i], support[i]) for i in range(num_classes)])
    f1_c = np.array([
        _safe_div(2 * prec_c[i] * rec_c[i], prec_c[i] + rec_c[i])
        for i in range(num_classes)
    ])
    weights = support / total
    precision = float(prec_c.mean())
    recall = float(rec_c.mean())
    return IdMetrics(
        acc=float(tp.sum() / total),
        precision=precision,
        recall=recall,
        f1=_safe_div(2 * precision * recall, precision + recall),
        wp=float((weights * prec_c).sum()),
        wf1=float((weights * f1_c).sum()),
        per_class_acc=[_safe_div(tp[i], support[i]) for i in range(num_classes)],
        confusion=cm,
    )


def _tied_groups(scores, is_id):
    """The one threshold sweep: (ID count, OOD count) per tied-score group.

    One O(n log n) sort (``np.unique``) groups equal scores, returned in
    descending order, so the cumulative sums of the two counts are the
    ID/OOD counts with score >= t at each threshold t.
    """
    scores = np.asarray(scores, dtype=np.float64)
    flags = np.asarray(is_id, dtype=bool)
    if flags.all() or not flags.any():
        raise MetricError(
            "metrics: both ID and OOD samples are required for a threshold sweep"
        )
    if np.isnan(scores).any():
        raise MetricError("metrics: scores contain NaN")
    _, group = np.unique(scores, return_inverse=True)
    n_groups = int(group.max()) + 1
    id_counts = np.bincount(group[flags], minlength=n_groups)[::-1]
    ood_counts = np.bincount(group[~flags], minlength=n_groups)[::-1]
    return id_counts, ood_counts


def _auroc(a: Array, b: Array) -> float:
    cum_id = np.cumsum(a)
    n_id, n_ood = int(cum_id[-1]), int(b.sum())
    return int(np.sum(b * (2 * cum_id - a))) / (2 * n_id * n_ood)


def roc_auroc(scores, is_id):
    """ROC curve points and trapezoidal AUROC (ties counted half).

    The area is accumulated in integer arithmetic (both the trapezoid sum
    and the tie-averaged pair count are the rational
    numerator / (2 * n_id * n_ood)), so the result equals the
    Mann-Whitney statistic bit-for-bit.
    """
    a, b = _tied_groups(scores, is_id)
    cum_id, cum_ood = np.cumsum(a), np.cumsum(b)
    points = list(zip((cum_ood / cum_ood[-1]).tolist(),
                      (cum_id / cum_id[-1]).tolist()))
    return [(0.0, 0.0)] + points, _auroc(a, b)


def _aupr(pos: Array, neg: Array) -> float:
    tp = np.cumsum(pos)
    recall = tp / tp[-1]
    precision = tp / (tp + np.cumsum(neg))
    # steps summed left to right in sweep order (cumsum, not pairwise sum)
    return float(np.cumsum(np.diff(recall, prepend=0.0) * precision)[-1])


def aupr(scores, is_id, positive: str = "ID") -> float:
    """Step-summed area under the precision-recall curve.

    ``positive`` selects which side counts as the positive class; the OOD
    sweep runs in ascending score order (predict OOD iff score <= t).
    """
    a, b = _tied_groups(scores, is_id)
    if positive not in ("ID", "OOD"):
        raise ParameterError(f"metrics: positive must be 'ID' or 'OOD', "
                             f"got {positive!r}")
    # the OOD sweep is the ascending one, with the roles swapped
    return _aupr(a, b) if positive == "ID" else _aupr(b[::-1], a[::-1])


def _fpr95_der(a: Array, b: Array) -> tuple[float, float]:
    if int(a.sum()) < 20:
        warnings.warn(
            "metrics: fewer than 20 ID samples; TPR granularity is coarser "
            "than 5%", stacklevel=3,
        )
    cum_id, cum_ood = np.cumsum(a), np.cumsum(b)
    tpr, fpr = cum_id / cum_id[-1], cum_ood / cum_ood[-1]
    idx = int(np.argmax(tpr >= 0.95))  # first (largest) qualifying threshold
    fpr95 = float(fpr[idx])
    der = float(0.5 * (1.0 - tpr[idx]) + 0.5 * fpr[idx])
    return fpr95, der


def fpr95_der(scores, is_id):
    """FPR and detection error rate at the TPR >= 95% operating point.

    The threshold is the largest score value whose TPR reaches 95%
    (which also minimizes FPR among qualifying thresholds); DER assumes
    equal ID/OOD priors.
    """
    return _fpr95_der(*_tied_groups(scores, is_id))


def ood_metrics(scores, is_id) -> OodMetrics:
    """The four public metrics above, from one sweep."""
    a, b = _tied_groups(scores, is_id)
    fpr95, der = _fpr95_der(a, b)
    return OodMetrics(auroc=_auroc(a, b), aupr_in=_aupr(a, b),
                      aupr_out=_aupr(b[::-1], a[::-1]), fpr95=fpr95, der=der)
