"""Pseudo-OOD synthesis: Dirichlet convex combinations of ID sequences.

Each pseudo sample mixes the raw embedding sequences of k distinct ID
records (drawn from at least two classes) with one shared weight vector
across all modalities. A half-batch of pseudo samples is drawn at once from
the real ID half-batch, given as its sequences and labels only, and joined
to it to form a balanced binary training batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import MODALITIES, OOD_LABEL
from .errors import GenerationError, check_fields
from .numerics import dirichlet_sample

Array = np.ndarray


# OodGenConfig field -> rule (see errors.check_fields)
_OODGEN_RULES = {"mix_count": ">= 2", "alpha": "finite and > 0",
                 "max_resample": ">= 1"}


@dataclass
class OodGenConfig:
    mix_count: int = 3          # k selected examples per pseudo sample
    alpha: float = 2.0          # Dirichlet concentration
    max_resample: int = 100     # cap on rejection resampling of index sets

    def __post_init__(self):
        check_fields("oodgen", _OODGEN_RULES, self)


@dataclass
class PseudoBatch:
    seqs: dict[str, Array]   # modality -> (n, L, D)
    sources: np.ndarray      # (n, k) distinct row indices into the ID batch
    lams: Array              # (n, k), one weight row for every modality


@dataclass
class Batch:
    seqs: dict[str, Array]   # modality -> (B, L, D)
    labels: np.ndarray       # (B,), OOD_LABEL marks the pseudo-OOD rows


def sample_pseudo_ood(seqs: dict[str, Array], labels: np.ndarray,
                      cfg: OodGenConfig, rng: np.random.Generator,
                      n: int) -> PseudoBatch:
    """Mix k ID rows of ``seqs`` into each of ``n`` pseudo-OOD samples.

    Each row's index set is rejection-resampled until its ``labels`` span
    >= 2 classes; only the failing rows are redrawn, each at most
    ``max_resample`` times. One Dirichlet weight row per sample mixes
    every modality. ``train`` checks that k fits the batch.
    """
    size, k = len(labels), cfg.mix_count
    if not (labels != labels[:1]).any():  # np.unique loads numpy.ma
        raise GenerationError(
            "oodgen: batch contains a single class; pseudo-OOD mixing needs "
            "sources from >= 2 distinct classes"
        )
    sources = np.empty((n, k), dtype=np.intp)
    todo = np.arange(n)
    for _ in range(cfg.max_resample):
        # the first k of a random permutation of the batch rows, per row
        draw = rng.random((todo.size, size)).argsort(axis=1)[:, :k]
        sources[todo] = draw
        lab = labels[draw]
        todo = todo[(lab == lab[:, :1]).all(axis=1)]
        if not todo.size:
            break
    else:
        raise GenerationError(
            f"oodgen: {todo.size} of {n} index sets found no >= 2 classes "
            f"in {cfg.max_resample} resamples"
        )
    lams = dirichlet_sample(cfg.alpha, (n, k), rng)
    mixed = {m: np.einsum("nk,nk...->n...", lams, seqs[m][sources])
             for m in MODALITIES}
    return PseudoBatch(seqs=mixed, sources=sources, lams=lams)


def build_mixed_batch(seqs: dict[str, Array], labels: np.ndarray,
                      cfg: OodGenConfig, rng: np.random.Generator) -> Batch:
    """Balanced batch: the ID half plus as many pseudo-OOD samples, shuffled."""
    n = len(labels)
    pseudo = sample_pseudo_ood(seqs, labels, cfg, rng, n)

    seqs = {m: np.concatenate([seqs[m], pseudo.seqs[m]]) for m in MODALITIES}
    labels = np.concatenate([labels, np.full(n, OOD_LABEL)])

    order = rng.permutation(2 * n)
    return Batch(seqs={m: s[order] for m, s in seqs.items()},
                 labels=labels[order])
