"""Pseudo-OOD synthesis: Dirichlet convex combinations of ID sequences.

Each pseudo sample mixes the raw embedding sequences of k distinct ID
records (drawn from at least two classes) with one shared weight vector
across all modalities. A half-batch of pseudo samples is drawn at once and
joined to the real ID half-batch to form a balanced binary training batch.
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
class PseudoBatch:
    seqs: dict[str, Array]   # modality -> (n, L, D)
    sources: np.ndarray      # (n, k) distinct row indices into the ID batch
    lams: Array              # (n, k); (3, n, k) in MODALITIES order if unshared


@dataclass
class Batch:
    seqs: dict[str, Array]   # modality -> (B, L, D)
    labels: np.ndarray       # (B,), OOD_LABEL for pseudo samples
    binary: np.ndarray       # (B,), 1 = ID, 0 = OOD

    @property
    def size(self) -> int:
        return len(self.labels)


def sample_pseudo_ood(batch: Corpus, cfg: OodGenConfig,
                      rng: np.random.Generator, n: int) -> PseudoBatch:
    """Mix k ID records of ``batch`` into each of ``n`` pseudo-OOD samples.

    Each row's index set is rejection-resampled until it spans >= 2
    classes; only the failing rows are redrawn, each at most
    ``max_resample`` times. The Dirichlet weights are shared across
    modalities unless ``share_lambda`` is off, in which case each modality
    gets its own weights over the same sources.
    """
    labels, size, k = batch.labels, len(batch), cfg.mix_count
    if np.unique(labels).size < 2:
        raise GenerationError(
            "oodgen: batch contains a single class; pseudo-OOD mixing needs "
            "sources from >= 2 distinct classes"
        )
    if k > size:
        raise ParameterError(f"oodgen: mix_count {k} exceeds batch of {size}")
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
    shape = (n, k) if cfg.share_lambda else (len(MODALITIES), n, k)
    lams = dirichlet_sample(cfg.alpha, shape, rng)
    per_modality = np.broadcast_to(lams, (len(MODALITIES), n, k))
    seqs = {m: np.einsum("nk,nk...->n...", lam, batch.seqs[m][sources])
            for m, lam in zip(MODALITIES, per_modality)}
    return PseudoBatch(seqs=seqs, sources=sources, lams=lams)


def build_mixed_batch(id_half: Corpus, cfg: OodGenConfig,
                      rng: np.random.Generator) -> Batch:
    """Balanced batch: the ID half plus as many pseudo-OOD samples, shuffled."""
    n = len(id_half)
    if n == 0:
        raise ParameterError("oodgen: id_half must be nonempty")
    pseudo = sample_pseudo_ood(id_half, cfg, rng, n)

    seqs = {m: np.concatenate([id_half.seqs[m], pseudo.seqs[m]])
            for m in MODALITIES}
    labels = np.concatenate([id_half.labels, np.full(n, OOD_LABEL)])
    binary = np.repeat([1, 0], n)

    order = rng.permutation(2 * n)
    return Batch(
        seqs={m: s[order] for m, s in seqs.items()},
        labels=labels[order],
        binary=binary[order],
    )
