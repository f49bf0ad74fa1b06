"""Independent brute-force reference implementations used by the tests.

These deliberately avoid the library's code paths: pair counting instead
of a threshold sweep, explicit dense inverses instead of factorizations,
a literal double loop for the contrastive sums, a per-anchor loop for the
contrastive gradient, a per-tensor AdamW loop, and a sequential weighted
sum for the pseudo-OOD mix. The two per-stage training steps are kept as
they were before one step function served every stage, to pin it; the
CLI's train/ablate test row and its per-row score writer are kept as they
were before one scoring core and one JSON-lines writer served every
command, to pin those.
"""

import json
import math

import numpy as np

from mmood.corpus import MODALITIES
from mmood.heads import (
    coarse_loss,
    contrastive_from_views,
    make_view_ids,
    multiclass_loss,
)
from mmood.metrics import id_metrics, ood_metrics
from mmood.scoring import apply_scorer, fit_scorer


def auroc_pair_oracle(scores, flags):
    """O(n^2) Mann-Whitney count: P(id > ood) + 0.5 P(id == ood)."""
    scores = np.asarray(scores, dtype=float)
    flags = np.asarray(flags, dtype=bool)
    id_scores = scores[flags]
    ood_scores = scores[~flags]
    total = 0.0
    for a in id_scores:
        for b in ood_scores:
            if a > b:
                total += 1.0
            elif a == b:
                total += 0.5
    return total / (len(id_scores) * len(ood_scores))


def aupr_enumeration_oracle(scores, flags, positive):
    scores = np.asarray(scores, dtype=float)
    flags = np.asarray(flags, dtype=bool)
    pos = flags if positive == "ID" else ~flags
    thresholds = sorted(set(scores.tolist()), reverse=(positive == "ID"))
    area, prev_r = 0.0, 0.0
    for t in thresholds:
        sel = scores >= t if positive == "ID" else scores <= t
        tp = float((sel & pos).sum())
        r = tp / pos.sum()
        p = tp / sel.sum()
        area += (r - prev_r) * p
        prev_r = r
    return area


def fpr95_scan_oracle(scores, flags):
    scores = np.asarray(scores, dtype=float)
    flags = np.asarray(flags, dtype=bool)
    for t in sorted(set(scores.tolist()), reverse=True):
        tpr = float((scores[flags] >= t).sum()) / flags.sum()
        fpr = float((scores[~flags] >= t).sum()) / (~flags).sum()
        if tpr >= 0.95:
            return (fpr, 0.5 * (1 - tpr) + 0.5 * fpr)
    return None


def mahalanobis_loop_oracle(z, means, covs, eps):
    """Per-class dense-inverse loop; returns the negated minimum distance."""
    dists = []
    for k in range(len(means)):
        cov = covs[k] + eps[k] * np.eye(covs[k].shape[0])
        delta = np.asarray(z, dtype=float) - means[k]
        dists.append(float(delta @ np.linalg.inv(cov) @ delta))
    return -min(dists)


def contrastive_double_loop_oracle(views, labels, is_id, partner, tau):
    """Literal double-sum evaluation of the two contrastive losses."""
    n = len(views)
    u = np.stack([v / np.linalg.norm(v) for v in views])
    total = 0.0
    for i in range(n):
        denom = sum(math.exp(float(u[i] @ u[k]) / tau)
                    for k in range(n) if k != i)
        if is_id[i]:
            pos = [p for p in range(n) if p != i and labels[p] == labels[i]]
        else:
            pos = [partner[i]]
        inner = sum(
            math.log(math.exp(float(u[i] @ u[p]) / tau) / denom) for p in pos
        )
        total += -inner / len(pos)
    return total / n


def mix_loop_oracle(seqs, lam):
    """Sequential convex combination: out = sum_j lam[j] * seqs[j], in order."""
    assert len(seqs) == len(lam), "weight count must match sequence count"
    out = np.zeros_like(np.asarray(seqs[0], dtype=float))
    for weight, seq in zip(lam, seqs):
        out += weight * seq
    return out


def contrastive_anchor_loop_oracle(views, labels, is_id, partner, tau,
                                   norm_eps=1e-12):
    """Per-anchor loop form of ``contrastive_from_views``: (loss, grad).

    Each anchor's positives are gathered and its gradient row updated on
    its own; zero views are handled as in the library.
    """
    n = views.shape[0]
    norms = np.linalg.norm(views, axis=1, keepdims=True)
    live = norms > norm_eps
    u = np.where(live, views / np.maximum(norms, norm_eps), 0.0)
    sims = u @ u.T
    e = np.exp(sims / tau)
    np.fill_diagonal(e, 0.0)
    denom = e.sum(axis=1)

    loss = 0.0
    g_sims = e / denom[:, None] / (n * tau)
    np.fill_diagonal(g_sims, 0.0)
    for i in range(n):
        if is_id[i]:
            pos = np.flatnonzero((labels == labels[i]) & (np.arange(n) != i))
            assert len(pos) > 0, f"ID anchor {i} has no positive view"
        else:
            pos = np.array([partner[i]])
        log_terms = sims[i, pos] / tau - np.log(denom[i])
        loss += -log_terms.mean()
        g_sims[i, pos] -= 1.0 / (n * tau * len(pos))
    loss /= n

    g_u = (g_sims + g_sims.T) @ u
    g_views = (g_u - (g_u * u).sum(axis=1, keepdims=True) * u) \
        / np.maximum(norms, norm_eps)
    return loss, np.where(live, g_views, 0.0)


def adamw_loop_oracle(values, grads_per_step, lr, weight_decay,
                      beta1=0.9, beta2=0.999, eps=1e-8):
    """AdamW applied tensor by tensor; returns the updated value copies.

    ``grads_per_step[t][j]`` is tensor j's gradient at step t + 1.
    """
    values = [np.array(v, dtype=float) for v in values]
    ms = [np.zeros_like(v) for v in values]
    vs = [np.zeros_like(v) for v in values]
    for t, grads in enumerate(grads_per_step, start=1):
        bc1 = 1.0 - beta1 ** t
        bc2 = 1.0 - beta2 ** t
        for value, m, v, g in zip(values, ms, vs, grads):
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * g ** 2
            update = (m / bc1) / (np.sqrt(v / bc2) + eps)
            value -= lr * (update + weight_decay * value)
    return values


def coarse_step_oracle(model, batch, rng):
    """The former stage-1 step: binary loss only; returns the loss."""
    xs, enc_caches = model.encode_batch(batch.seqs)
    z, _, fuse_cache = model.fusion.forward(xs, train=True, rng=rng)
    logits, head_cache = model.binary_head.forward(z)
    loss, dlogits = coarse_loss(logits, batch.binary)
    gz = model.binary_head.backward(dlogits, head_cache)
    gxs = model.fusion.backward(gz, fuse_cache)
    model.encoders_backward(gxs, enc_caches)
    return loss


def fine_step_oracle(model, batch, rng, include_coarse):
    """The former stage-2 (or joint) step; returns the loss pieces."""
    hyper = model.hyper
    xs, enc_caches = model.encode_batch(batch.seqs)
    z1, _, fc1 = model.fusion.forward(xs, train=True, rng=rng)
    g_z1 = np.zeros_like(z1)
    losses = {}

    id_mask = batch.binary == 1
    logits, class_cache = model.class_head.forward(z1[id_mask])
    l_m, dlogits = multiclass_loss(logits, batch.labels[id_mask])
    g_z1[id_mask] += model.class_head.backward(dlogits, class_cache)
    losses["multiclass"] = l_m

    g_z2 = None
    fc2 = None
    if not hyper.no_contrast:
        # the augmented view re-runs the fusion score network and the
        # projection head with fresh dropout masks over the same encodings
        z2, _, fc2 = model.fusion.forward(xs, train=True, rng=rng)
        v1, cc1 = model.contrast_head.forward(z1, train=True, rng=rng)
        v2, cc2 = model.contrast_head.forward(z2, train=True, rng=rng)
        labels2, is_id2, partner = make_view_ids(batch.labels, batch.binary)
        l_cl, g_views = contrastive_from_views(
            np.concatenate([v1, v2]), labels2, is_id2, partner, hyper.tau
        )
        b = z1.shape[0]
        g_z1 += model.contrast_head.backward(g_views[:b], cc1)
        g_z2 = model.contrast_head.backward(g_views[b:], cc2)
        losses["contrastive"] = l_cl

    if include_coarse:
        logits_b, bin_cache = model.binary_head.forward(z1)
        l_c, dlogits_b = coarse_loss(logits_b, batch.binary)
        g_z1 += model.binary_head.backward(dlogits_b, bin_cache)
        losses["coarse"] = l_c

    gxs = model.fusion.backward(g_z1, fc1)
    if g_z2 is not None:
        gxs2 = model.fusion.backward(g_z2, fc2)
        gxs = {m: gxs[m] + gxs2[m] for m in MODALITIES}
    model.encoders_backward(gxs, enc_caches)
    losses["total"] = sum(losses.values())
    return losses


def mahalanobis_row_oracle(trained, corpus):
    """The former per-run test row of ``mmood train`` and ``mmood ablate``."""
    test = corpus.split("test")
    if len(test) == 0:
        return {}
    flags = ~test.is_ood
    feats = trained.model.features_for(test)
    logits = trained.model.logits_for(feats)
    preds = logits[flags].argmax(axis=1)
    idm = id_metrics(preds, test.labels[flags], corpus.num_classes)
    row = {"acc": idm.acc, "wf1": idm.wf1}
    if not flags.all():
        state = fit_scorer("mahalanobis", trained.train_features,
                           trained.train_logits, trained.class_stats,
                           corpus.num_classes)
        scores = apply_scorer(state, feats, logits)
        row.update(ood_metrics(scores, flags).as_dict())
    return row


def score_file_oracle(path, test, flags, scores, norm):
    """The former per-row ``scores_<scorer>.jsonl`` writer of ``mmood eval``."""
    rows = [
        {"id": rec_id, "is_id": bool(flags[i]),
         "raw": float(scores[i]), "norm": float(norm[i])}
        for i, rec_id in enumerate(test.ids.tolist())
    ]
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
