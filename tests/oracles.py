"""Independent brute-force reference implementations used by the tests.

These deliberately avoid the library's code paths: pair counting instead
of a threshold sweep, explicit dense inverses instead of factorizations,
a literal double loop for the contrastive sums, a per-anchor loop for the
contrastive gradient, a per-tensor AdamW loop, and a sequential weighted
sum for the pseudo-OOD mix. The two per-stage training steps are kept as
they were before one step function served every stage, to pin it; the
CLI's train/ablate test row and its per-row score writer are kept as they
were before one scoring core and one JSON-lines writer served every
command, to pin those. The class-token encoder is kept as it was before
it computed only the query rows its readout reads. The softmax, softmax
backward, unit-norm and log-sum-exp copies that attention, fusion, the
cosine head, the contrastive loss and the scorers each wrote out are kept
as they were before ``numerics`` held the one copy of each. The AdamW
step is kept as it was before it wrote into preallocated buffers. The
synthetic corpus draw is kept as it was before it drew its noise in
chunks of records.
"""

import dataclasses
import json
import math
from types import SimpleNamespace

import numpy as np

from mmood.corpus import MODALITIES, STORAGE, _sphere_point
from mmood.encoders import sinusoidal_positions
from mmood.heads import (
    coarse_loss,
    contrastive_from_views,
    make_view_ids,
    multiclass_loss,
)
from mmood.metrics import id_metrics, ood_metrics
from mmood.scoring import apply_scorer, fit_scorer
from conftest import is_ood, split


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


def mahalanobis_einsum_oracle(z, means, precisions):
    """The former ``score_mahalanobis``: one three-operand einsum per class."""
    z = np.asarray(z, dtype=np.float64)
    dists = np.empty((z.shape[0], len(means)))
    for k in range(len(means)):
        delta = z - means[k]
        dists[:, k] = np.einsum("nd,de,ne->n", delta, precisions[k], delta)
    return -dists.min(axis=1)


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


class AdamWStepOracle:
    """The former ``AdamW.step`` over one slice: the same formula, with a
    temporary for each operation."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, values, grads, lr, weight_decay):
        self.values, self.grads = values, grads
        self.lr, self.wd, self.t = lr, weight_decay, 0
        self.m = np.zeros_like(values)
        self.v = np.zeros_like(values)

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        m, v, g = self.m, self.v, self.grads
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * g ** 2
        update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
        self.values -= self.lr * (update + self.wd * self.values)


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


def fine_step_oracle(model, batch, rng):
    """The former stage-2 step; returns the loss pieces."""
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

    gxs = model.fusion.backward(g_z1, fc1)
    if g_z2 is not None:
        gxs2 = model.fusion.backward(g_z2, fc2)
        gxs = {m: gxs[m] + gxs2[m] for m in MODALITIES}
    model.encoders_backward(gxs, enc_caches)
    losses["total"] = sum(losses.values())
    return losses


def mahalanobis_row_oracle(trained, corpus):
    """The former per-run test row of ``mmood train`` and ``mmood ablate``."""
    test = split(corpus, "test")
    if len(test) == 0:
        return {}
    flags = ~is_ood(test)
    feats = trained.model.features_for(test, np.arange(len(test)))
    logits = trained.model.logits_for(feats)
    preds = logits[flags].argmax(axis=1)
    idm = id_metrics(preds, test.labels[flags], corpus.num_classes)
    row = {"acc": idm.acc, "wf1": idm.wf1}
    if not flags.all():
        state = fit_scorer("mahalanobis", trained.train_features,
                           trained.model.logits_for(trained.train_features),
                           trained.class_stats, corpus.num_classes)
        scores = apply_scorer(state, feats, logits)
        row.update(dataclasses.asdict(ood_metrics(scores, flags)))
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


NORM_EPS = 1e-12


def softmax_last_oracle(x):
    """The former ``layers._softmax_last`` of attention."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def softmax_backward_oracle(g_attn, attn):
    """The former inline softmax backward of attention (and, with the
    fusion weights for ``attn``, of weighted fusion)."""
    return attn * (g_attn - (g_attn * attn).sum(axis=-1, keepdims=True))


def energy_oracle(logits):
    """The former inline log-sum-exp of ``scoring.score_energy``."""
    logits = np.asarray(logits, dtype=np.float64)
    m = logits.max(axis=1, keepdims=True)
    return (m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True)))[:, 0]


def l2_normalize_oracle(v, eps: float = 1e-12):
    """The former one-vector ``numerics.l2_normalize``."""
    x = np.asarray(v, dtype=np.float64)
    n = np.linalg.norm(x)
    if n <= eps:
        return np.zeros_like(x)
    return x / n


def normalize_rows_oracle(x):
    """The former per-row loop of ``scoring._normalize_rows``."""
    return np.stack([l2_normalize_oracle(row) for row in x])


class CosineHeadOracle:
    """The former ``CosineHead`` normalisation, forward and backward, on a
    copy of a head's weights; the weight gradient accumulates in
    ``self.W.grad``."""

    def __init__(self, head):
        self.gamma = head.gamma
        self.W = SimpleNamespace(value=head.W.value.copy(),
                                 grad=np.zeros_like(head.W.value))

    def _normalized(self):
        w_norms = np.linalg.norm(self.W.value, axis=1, keepdims=True)
        safe = np.maximum(w_norms, NORM_EPS)
        return self.W.value / safe, safe

    def forward(self, z):
        z_norms = np.linalg.norm(z, axis=-1, keepdims=True)
        live = z_norms > NORM_EPS
        z_hat = np.where(live, z / np.maximum(z_norms, NORM_EPS), 0.0)
        w_hat, w_norms = self._normalized()
        logits = self.gamma * z_hat @ w_hat.T
        return logits, (z_hat, np.maximum(z_norms, NORM_EPS), live, w_hat, w_norms)

    def backward(self, g, cache):
        z_hat, z_norms, live, w_hat, w_norms = cache
        g_zhat = self.gamma * g @ w_hat
        gz = (g_zhat - (g_zhat * z_hat).sum(axis=-1, keepdims=True) * z_hat) / z_norms
        gz = np.where(live, gz, 0.0)
        g_what = self.gamma * g.reshape(-1, g.shape[-1]).T @ z_hat.reshape(-1, z_hat.shape[-1])
        self.W.grad += (g_what - (g_what * w_hat).sum(axis=1, keepdims=True) * w_hat) / w_norms
        return gz


def contrastive_unit_oracle(views):
    """The former view normalisation of ``contrastive_from_views``:
    ``(u, norms, live)`` with the raw norms."""
    norms = np.linalg.norm(views, axis=1, keepdims=True)
    live = norms > NORM_EPS
    u = np.where(live, views / np.maximum(norms, NORM_EPS), 0.0)
    return u, norms, live


def contrastive_unit_backward_oracle(g_u, u, norms, live):
    """The former view-normalisation backward of ``contrastive_from_views``."""
    g_views = (g_u - (g_u * u).sum(axis=1, keepdims=True) * u) / np.maximum(norms, NORM_EPS)
    return np.where(live, g_views, 0.0)


def class_token_encoder_oracle(enc, x, g=None):
    """The former class-token ``ModalityEncoder.forward_batch``: the block
    over every row of ``[class token; x]``, then row 0. With ``g``, the
    former ``backward_batch`` accumulates into ``enc``'s gradients."""
    b, length, d = x.shape
    if enc.positional:
        x = x + sinusoidal_positions(length, d)
    tok = np.broadcast_to(enc.class_token.value, (b, 1, d))
    out, cache = enc.block.forward(np.concatenate([tok, x], axis=1))
    if g is not None:
        g_block = np.zeros(out.shape)
        g_block[:, 0, :] = g
        gx = enc.block.backward(g_block, cache)
        enc.class_token.grad += gx[:, 0, :].sum(axis=0)
    return out[:, 0, :]


def synth_loop_oracle(cfg, rng):
    """The former ``synth_corpus`` draw: one ``rng.normal(scale=sigma)``
    call per record and modality, in file order; returns the seqs dict."""
    k = cfg.num_classes
    class_means = {
        m: np.stack([_sphere_point(rng, spec.dim, spec.radius) for _ in range(k)])
        for m, spec in cfg.modalities.items()
    }
    ood_means = {
        m: np.stack([_sphere_point(rng, spec.dim, spec.radius)
                     for _ in range(max(cfg.ood_clusters, 1))])
        for m, spec in cfg.modalities.items()
    }

    def class_sigma(spec, label):
        if spec.class_sigma_spread == 0.0:
            return spec.sigma
        return spec.sigma * (1.0 + spec.class_sigma_spread * label / (k - 1))

    plan = []
    for count in (cfg.n_train, cfg.n_valid, cfg.n_test_id):
        plan += [(class_means, i % k, i % k) for i in range(count)]
    plan += [(ood_means, j % cfg.ood_clusters, None)
             for j in range(cfg.n_test_ood)]
    seqs = {m: np.empty((len(plan), spec.seq_len, spec.dim), dtype=STORAGE)
            for m, spec in cfg.modalities.items()}
    with np.errstate(over="ignore"):
        for row, (means, midx, sigma_label) in enumerate(plan):
            for m, spec in cfg.modalities.items():
                sig = spec.sigma if sigma_label is None \
                    else class_sigma(spec, sigma_label)
                noise = rng.normal(scale=sig, size=(spec.seq_len, spec.dim)) \
                    if sig > 0 else 0.0
                seqs[m][row] = means[m][midx] + noise
    return seqs
