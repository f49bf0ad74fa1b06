"""Embedding-corpus format, loading, synthetic generation, and batching.

On disk a corpus is a blobio container (one directory per corpus):
``manifest.jsonl`` holds a header with the class count and each
modality's (seq_len, dim, blob file), then one line per record with its
id, split, label and byte offsets; ``seq_T.blob``, ``seq_V.blob`` and
``seq_A.blob`` hold one float32 (L x D) chunk per record, so record i
starts at byte ``i * L*D*4``.

Labels are class indices 0..K-1; out-of-distribution records carry the
sentinel string ``__OOD__`` in the manifest (index -1 in memory) and may
only appear in the test split. Values are stored at 32-bit and promoted
to 64-bit on load, so a loaded corpus round-trips bit-exactly.

In memory a ``Corpus`` holds ``ids``, ``splits`` and ``labels`` columns
and one (N, L, D) float64 array per modality, in file order; saving and
loading validate whole columns and name the first offending record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from pathlib import Path

import numpy as np

from .blobio import (Schema, array_to_bytes, read_blob, read_manifest,
                     write_jsonl)
from .errors import FormatError, ParameterError
from .numerics import l2_normalize

MODALITIES = ("T", "V", "A")
SPLITS = ("train", "valid", "test")
OOD_SENTINEL = "__OOD__"
OOD_LABEL = -1

MANIFEST_NAME = "manifest.jsonl"
STORAGE = np.dtype("<f4")  # blob precision
SCHEMA = Schema(module="corpus", format="corpus", kind="corpus manifest",
                entry="record", key="id", key_noun="record id")
_OFFSETS = itemgetter(*MODALITIES)  # a record's offsets, in MODALITIES order


@dataclass
class CorpusMeta:
    num_classes: int
    shapes: dict[str, tuple[int, int]]  # modality -> (seq_len, dim)

    def __post_init__(self):
        if self.num_classes < 2:
            raise ParameterError(
                f"corpus: num_classes must be >= 2, got {self.num_classes}"
            )
        if set(self.shapes) != set(MODALITIES):
            raise ParameterError(
                f"corpus: shapes must cover modalities {MODALITIES}"
            )
        for m, (length, dim) in self.shapes.items():
            if length < 1 or dim < 1:
                raise ParameterError(
                    f"corpus: modality {m} has invalid shape ({length}, {dim})"
                )


@dataclass(eq=False)
class Corpus:
    """Column store of a corpus: row i of every field is record i.

    Rows keep manifest (file) order.
    """

    meta: CorpusMeta
    ids: np.ndarray                # (N,) str
    splits: np.ndarray             # (N,) str, one of SPLITS
    labels: np.ndarray             # (N,) int64, 0..K-1 or OOD_LABEL
    seqs: dict[str, np.ndarray]    # modality -> (N, seq_len, dim) float64

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def is_ood(self) -> np.ndarray:
        return self.labels == OOD_LABEL

    @property
    def num_classes(self) -> int:
        return self.meta.num_classes

    def take(self, idx: np.ndarray) -> Corpus:
        """A copy of the rows selected by an index array, in that order."""
        return Corpus(self.meta, self.ids[idx], self.splits[idx],
                      self.labels[idx], {m: s[idx] for m, s in self.seqs.items()})

    def split(self, name: str) -> Corpus:
        """The records of one split, in file order."""
        return self.take(np.flatnonzero(self.splits == name))


def _validate(corpus: Corpus) -> None:
    """Record invariants over whole columns; errors name the first offender."""
    ids, splits, labels = corpus.ids, corpus.splits, corpus.labels
    k = corpus.num_classes
    ood = labels == OOD_LABEL
    bad = ~np.isin(splits, SPLITS) | (ood & (splits != "test")) | \
        (~ood & ((labels < 0) | (labels >= k)))
    if bad.any():
        i = int(np.argmax(bad))
        label = OOD_SENTINEL if ood[i] else int(labels[i])
        raise FormatError(
            f"corpus: record {str(ids[i])!r} has split {str(splits[i])!r} and "
            f"label {label!r}; splits are {SPLITS}, labels 0..{k - 1}, and "
            f"{OOD_SENTINEL} records (OOD) may only appear in the test split"
        )
    for m in MODALITIES:
        seqs, expected = corpus.seqs[m], (len(ids), *corpus.meta.shapes[m])
        if seqs.shape != expected:
            first = f" (first record {str(ids[0])!r})" if len(ids) else ""
            raise FormatError(f"corpus: modality {m} has shape {seqs.shape}, "
                              f"manifest declares {expected}{first}")
        if not np.isfinite(seqs).all():
            i = int(np.argwhere(~np.isfinite(seqs))[0, 0])
            raise FormatError(f"corpus: record {str(ids[i])!r} modality {m} "
                              "holds a non-finite value (NaN or Inf)")


def save_corpus(corpus: Corpus, directory) -> Path:
    """Write the manifest and one blob per modality; returns manifest path.

    Sequence data is quantized to float32 on write (the declared storage
    precision), so a save/load cycle is the identity on already-loaded or
    synthesized corpora.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    _validate(corpus)
    meta = corpus.meta
    header = {"format": "corpus", "version": 1, "num_classes": meta.num_classes,
              "modalities": {m: {"seq_len": length, "dim": dim,
                                 "blob": f"seq_{m}.blob"}
                             for m, (length, dim) in meta.shapes.items()}}
    for m in MODALITIES:
        (directory / f"seq_{m}.blob").write_bytes(
            array_to_bytes(corpus.seqs[m], STORAGE.str))
    row_bytes = {m: math.prod(meta.shapes[m]) * STORAGE.itemsize
                 for m in MODALITIES}
    columns = zip(corpus.ids.tolist(), corpus.splits.tolist(),
                  corpus.labels.tolist())
    return write_jsonl(directory / MANIFEST_NAME, chain([header], (
        {"id": rec_id, "split": split,
         "label": OOD_SENTINEL if label == OOD_LABEL else label,
         "offsets": {m: row * row_bytes[m] for m in MODALITIES}}
        for row, (rec_id, split, label) in enumerate(columns))))


def _header(header) -> tuple:
    """``(num_classes, shapes, blob file per modality)`` of a header."""
    shapes, blob_files = {}, {}
    for m, spec in header["modalities"].items():
        shapes[m] = (int(spec["seq_len"]), int(spec["dim"]))
        blob_files[m] = spec["blob"]
        if not isinstance(blob_files[m], str):
            raise TypeError(f"modality {m} blob must be a file name")
    return int(header["num_classes"]), shapes, blob_files


def _record(entry, header: tuple) -> tuple:
    """``(id, split, label, offset per modality)`` of one manifest entry."""
    num_classes, label = header[0], entry["label"]
    if label == OOD_SENTINEL:
        label = OOD_LABEL
    elif type(label) is not int or not 0 <= label < num_classes:
        raise ValueError(f"label {label!r} is neither {OOD_SENTINEL} "
                         f"nor a class index 0..{num_classes - 1}")
    offsets = map(int, _OFFSETS(entry["offsets"]))
    rec_id, split = entry["id"], entry["split"]
    if not isinstance(rec_id, str) or not isinstance(split, str):
        raise TypeError("id and split must be strings")
    return (rec_id, split, label, *offsets)


def load_corpus(manifest_path) -> Corpus:
    """Load and fully validate a corpus; errors name the offending record."""
    manifest_path = Path(manifest_path)
    if manifest_path.is_dir():
        manifest_path = manifest_path / MANIFEST_NAME
    (num_classes, shapes, blob_files), rows = read_manifest(
        manifest_path, SCHEMA, _header, _record)
    meta = CorpusMeta(num_classes=num_classes, shapes=shapes)
    lines, ids, splits, labels, *offsets = \
        zip(*rows) if rows else [()] * (4 + len(MODALITIES))
    n = len(ids)
    seqs = {m: read_blob(manifest_path, SCHEMA, blob_files[m], lines,
                         lambda i: f"record {ids[i]!r} modality {m}", offs,
                         [math.prod(shapes[m])] * n, [STORAGE.str] * n)
            .reshape(n, *shapes[m]) for m, offs in zip(MODALITIES, offsets)}
    corpus = Corpus(meta, np.array(ids, dtype=str), np.array(splits, dtype=str),
                    np.array(labels, dtype=np.int64), seqs)
    _validate(corpus)
    return corpus


@dataclass
class ModalitySynth:
    seq_len: int
    dim: int
    radius: float = 5.0
    sigma: float = 0.3
    class_sigma_spread: float = 0.0  # sigma_k = sigma * (1 + spread*k/(K-1))


@dataclass
class SynthConfig:
    num_classes: int = 3
    n_train: int = 600
    n_valid: int = 200
    n_test_id: int = 200
    n_test_ood: int = 100
    ood_clusters: int = 2
    modalities: dict[str, ModalitySynth] = field(default_factory=lambda: {
        "T": ModalitySynth(seq_len=6, dim=16),
        "V": ModalitySynth(seq_len=8, dim=12),
        "A": ModalitySynth(seq_len=10, dim=8),
    })

    def meta(self) -> CorpusMeta:
        return CorpusMeta(
            num_classes=self.num_classes,
            shapes={m: (s.seq_len, s.dim) for m, s in self.modalities.items()},
        )


def _sphere_point(rng: np.random.Generator, dim: int, radius: float) -> np.ndarray:
    if radius == 0.0:
        return np.zeros(dim)
    return radius * l2_normalize(rng.normal(size=dim))


def synth_corpus(cfg: SynthConfig, rng: np.random.Generator) -> Corpus:
    """Gaussian class clusters around per-class sphere points.

    Every timestep of a record is its class mean plus isotropic noise whose
    scale may grow with the class index (``class_sigma_spread``). Held-out
    true-OOD clusters use independently drawn means and appear only in the
    test split. Per-class counts are assigned round-robin, so class
    frequencies are deterministic. Values are quantized to float32, the
    storage precision; draws run record by record, modality inside.
    """
    meta = cfg.meta()
    k = cfg.num_classes
    if cfg.n_test_ood > 0 and cfg.ood_clusters < 1:
        raise ParameterError("corpus: need >= 1 OOD cluster when n_test_ood > 0")
    for m, spec in cfg.modalities.items():
        if spec.sigma < 0 or spec.radius < 0 or spec.class_sigma_spread < 0:
            raise ParameterError(f"corpus: modality {m} has negative synth scales")

    class_means = {
        m: np.stack([_sphere_point(rng, spec.dim, spec.radius) for _ in range(k)])
        for m, spec in cfg.modalities.items()
    }
    ood_means = {
        m: np.stack([_sphere_point(rng, spec.dim, spec.radius)
                     for _ in range(max(cfg.ood_clusters, 1))])
        for m, spec in cfg.modalities.items()
    }

    def class_sigma(spec: ModalitySynth, label: int) -> float:
        if k == 1 or spec.class_sigma_spread == 0.0:
            return spec.sigma
        return spec.sigma * (1.0 + spec.class_sigma_spread * label / (k - 1))

    # (id, split, label, mean table, mean index, sigma label) in file order
    plan = []
    for split, count in (("train", cfg.n_train), ("valid", cfg.n_valid),
                         ("test", cfg.n_test_id)):
        tag = "test-id" if split == "test" else split
        plan += [(f"{tag}-{i:05d}", split, i % k, class_means, i % k, i % k)
                 for i in range(count)]
    plan += [(f"test-ood-{j:05d}", "test", OOD_LABEL, ood_means,
              j % cfg.ood_clusters, None) for j in range(cfg.n_test_ood)]

    seqs = {m: np.empty((len(plan), spec.seq_len, spec.dim), dtype=STORAGE)
            for m, spec in cfg.modalities.items()}
    for row, (_, _, _, means, midx, sigma_label) in enumerate(plan):
        for m, spec in cfg.modalities.items():
            sig = spec.sigma if sigma_label is None else class_sigma(spec, sigma_label)
            noise = rng.normal(scale=sig, size=(spec.seq_len, spec.dim)) \
                if sig > 0 else 0.0
            seqs[m][row] = means[m][midx] + noise
    return Corpus(
        meta=meta,
        ids=np.array([p[0] for p in plan], dtype=str),
        splits=np.array([p[1] for p in plan], dtype=str),
        labels=np.array([p[2] for p in plan], dtype=np.int64),
        seqs={m: s.astype(np.float64) for m, s in seqs.items()},
    )


def make_batches(corpus: Corpus, batch_size: int,
                 rng: np.random.Generator) -> list[np.ndarray]:
    """One epoch of shuffled ID half-batches of size batch_size/2.

    Each half-batch is an array of row indices into ``corpus``. The other
    half of each training batch is filled downstream with pseudo-OOD
    samples. The final partial chunk is dropped.
    """
    n = len(corpus)
    if batch_size < 2 or batch_size % 2 != 0:
        raise ParameterError(
            f"corpus: batch_size must be even and >= 2, got {batch_size}"
        )
    if batch_size > 2 * n:
        raise ParameterError(
            f"corpus: batch_size {batch_size} exceeds twice the "
            f"{n} available records"
        )
    half = batch_size // 2
    order = rng.permutation(n)
    return [order[start:start + half] for start in range(0, n - half + 1, half)]
