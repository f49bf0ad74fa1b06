"""Pseudo-OOD synthesis: Dirichlet convex combinations of ID sequences.

Each pseudo sample mixes the raw embedding sequences of k selected ID
records (drawn from at least two distinct classes) with one shared weight
vector across all modalities, then joins the real ID half-batch to form a
balanced binary training batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import MODALITIES, OOD_LABEL, Corpus
from .errors import GenerationError, ParameterError
from .numerics import dirichlet_sample

Array = np.ndarray


@dataclass
class OodGenConfig:
    mix_count: int = 3          # k selected examples per pseudo sample
    alpha: float = 2.0          # Dirichlet concentration
    max_resample: int = 100     # cap on rejection resampling of index sets
    share_lambda: bool = True   # one weight vector across modalities

    def __post_init__(self):
        if self.mix_count < 2:
            raise ParameterError(
                f"oodgen: mix_count must be >= 2, got {self.mix_count}"
            )
        if not self.alpha > 0:
            raise ParameterError(f"oodgen: alpha must be > 0, got {self.alpha}")
        if self.max_resample < 1:
            raise ParameterError("oodgen: max_resample must be >= 1")


@dataclass
class PseudoSample:
    seqs: dict[str, Array]
    source_indices: np.ndarray
    lams: dict[str, Array]  # per-modality weights (same object when shared)


@dataclass
class Batch:
    seqs: dict[str, Array]   # modality -> (B, L, D)
    labels: np.ndarray       # (B,), OOD_LABEL for pseudo samples
    binary: np.ndarray       # (B,), 1 = ID, 0 = OOD

    @property
    def size(self) -> int:
        return len(self.labels)


def mix_sequences(seqs, lam: Array) -> Array:
    """Elementwise convex combination of equally shaped sequences.

    ``seqs`` is a list or an array stacked on axis 0; terms add in order.
    """
    if len(seqs) != len(lam):
        raise ParameterError("oodgen: weight count must match sequence count")
    out = np.zeros_like(seqs[0])
    for weight, seq in zip(lam, seqs):
        out += weight * seq
    return out


def _select_sources(batch: Corpus, cfg: OodGenConfig,
                    rng: np.random.Generator) -> np.ndarray:
    labels = batch.labels
    if len(set(labels.tolist())) < 2:
        raise GenerationError(
            "oodgen: batch contains a single class; pseudo-OOD mixing needs "
            "sources from >= 2 distinct classes"
        )
    if cfg.mix_count > len(batch):
        raise ParameterError(
            f"oodgen: mix_count {cfg.mix_count} exceeds batch of {len(batch)}"
        )
    for _ in range(cfg.max_resample):
        idx = rng.choice(len(batch), size=cfg.mix_count, replace=False)
        if len(set(labels[idx].tolist())) >= 2:
            return idx
    raise GenerationError(
        f"oodgen: no index set with >= 2 classes found in "
        f"{cfg.max_resample} resamples"
    )


def sample_pseudo_ood(batch: Corpus, cfg: OodGenConfig,
                      rng: np.random.Generator) -> PseudoSample:
    """Mix k ID records of ``batch`` into one pseudo-OOD sample.

    The index set is rejection-resampled until it spans >= 2 classes; the
    Dirichlet weight vector is shared across modalities unless
    ``share_lambda`` is off, in which case each modality redraws its own
    weights over the same sources.
    """
    idx = _select_sources(batch, cfg, rng)
    shared = dirichlet_sample(cfg.alpha, cfg.mix_count, rng) if cfg.share_lambda \
        else None
    seqs, lams = {}, {}
    for m in MODALITIES:
        lam = shared if shared is not None else \
            dirichlet_sample(cfg.alpha, cfg.mix_count, rng)
        lams[m] = lam
        seqs[m] = mix_sequences(batch.seqs[m][idx], lam)
    return PseudoSample(seqs=seqs, source_indices=idx, lams=lams)


def build_mixed_batch(id_half: Corpus, cfg: OodGenConfig,
                      rng: np.random.Generator) -> Batch:
    """Balanced batch: the ID half plus as many pseudo-OOD samples, shuffled."""
    n = len(id_half)
    if n == 0:
        raise ParameterError("oodgen: id_half must be nonempty")
    pseudo = [sample_pseudo_ood(id_half, cfg, rng) for _ in range(n)]

    seqs = {
        m: np.concatenate([id_half.seqs[m], [p.seqs[m] for p in pseudo]])
        for m in MODALITIES
    }
    labels = np.concatenate([id_half.labels, np.full(n, OOD_LABEL)])
    binary = np.array([1] * n + [0] * n)

    order = rng.permutation(2 * n)
    return Batch(
        seqs={m: s[order] for m, s in seqs.items()},
        labels=labels[order],
        binary=binary[order],
    )
