"""Embedding-corpus format, loading, synthetic generation, and batching.

On disk a corpus is a blobio container (one directory per corpus):
``manifest.jsonl`` holds a header with the class count and each
modality's (seq_len, dim, blob file), then one line per record with its
id, split, label and byte offsets; ``seq_T.blob``, ``seq_V.blob`` and
``seq_A.blob`` hold one float32 (L x D) chunk per record, so record i
starts at byte ``i * L*D*4``.

Labels are class indices 0..K-1; out-of-distribution records carry the
sentinel string ``__OOD__`` in the manifest (index -1 in memory) and may
only appear in the test split. Values are stored at 32-bit and stay
32-bit in memory, so a loaded corpus round-trips bit-exactly; the model
widens them to float64 where it reads them (``train``, ``features_for``).

In memory a ``Corpus`` holds ``ids``, ``splits`` and ``labels`` columns
and one (N, L, D) float32 array per modality, in file order; saving and
loading validate whole columns and name the first offending record. The
commands read the valid and test records by row index, so the only split
they copy is the train split, which ``train`` widens once.
``synth_corpus`` draws its noise in record order, in chunks of records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from pathlib import Path

import numpy as np

from .blobio import Schema, read_blob, read_manifest, write_jsonl
from .errors import FormatError, ParameterError, check_fields
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
_SYNTH_CHUNK = 256  # records per noise draw; bounds its float64 temporaries


@dataclass
class CorpusMeta:
    num_classes: int
    shapes: dict[str, tuple[int, int]]  # modality -> (seq_len, dim)

    def __post_init__(self):
        if type(self.num_classes) is not int or self.num_classes < 2:
            raise ParameterError("corpus: num_classes must be an integer "
                                 f">= 2, got {self.num_classes!r}")
        if set(self.shapes) != set(MODALITIES):
            raise ParameterError(
                f"corpus: shapes must cover modalities {MODALITIES}"
            )
        for m, (length, dim) in self.shapes.items():
            if type(length) is not int or type(dim) is not int or \
                    length < 1 or dim < 1:
                raise ParameterError(f"corpus: modality {m} has invalid "
                                     f"shape ({length!r}, {dim!r})")


@dataclass(eq=False)
class Corpus:
    """Column store of a corpus: row i of every field is record i.

    Rows keep manifest (file) order.
    """

    meta: CorpusMeta
    ids: np.ndarray                # (N,) str
    splits: np.ndarray             # (N,) str, one of SPLITS
    labels: np.ndarray             # (N,) int64, 0..K-1 or OOD_LABEL
    seqs: dict[str, np.ndarray]    # modality -> (N, seq_len, dim) float32

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
    try:  # JSON escapes a lone surrogate, but no UTF-8 file can hold it
        "".join(ids.tolist()).encode("utf-8")
    except UnicodeEncodeError as exc:
        i = np.searchsorted(np.cumsum(np.char.str_len(ids)), exc.start, "right")
        raise FormatError(f"corpus: record {str(ids[i])!r} has an id that is "
                          f"not valid UTF-8 ({exc.reason})") from exc
    for m in MODALITIES:
        seqs, expected = corpus.seqs[m], (len(ids), *corpus.meta.shapes[m])
        if seqs.shape != expected:
            first = f" (first record {str(ids[0])!r})" if len(ids) else ""
            raise FormatError(f"corpus: modality {m} has shape {seqs.shape}, "
                              f"manifest declares {expected}{first}")


def save_corpus(corpus: Corpus, directory) -> Path:
    """Write the manifest and one blob per modality; returns manifest path.

    Sequence data is quantized to float32 on write (the declared storage
    precision), so a save/load cycle is the identity on already-loaded or
    synthesized corpora.
    """
    directory = Path(directory)
    _validate(corpus)
    for m in MODALITIES:  # load_corpus's blob read makes the same scan
        finite = np.isfinite(corpus.seqs[m])
        if not finite.all():
            i = int(np.argwhere(~finite)[0, 0])
            raise FormatError(f"corpus: record {str(corpus.ids[i])!r} modality "
                              f"{m} holds a non-finite value (NaN or Inf)")
    directory.mkdir(parents=True, exist_ok=True)
    meta = corpus.meta
    header = {"format": "corpus", "version": 1, "num_classes": meta.num_classes,
              "modalities": {m: {"seq_len": length, "dim": dim,
                                 "blob": f"seq_{m}.blob"}
                             for m, (length, dim) in meta.shapes.items()}}
    for m in MODALITIES:
        corpus.seqs[m].astype(STORAGE, copy=False).tofile(
            directory / f"seq_{m}.blob")
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
    """``(CorpusMeta, blob file per modality)`` of a header."""
    shapes, blob_files = {}, {}
    for m, spec in header["modalities"].items():
        shapes[m] = (spec["seq_len"], spec["dim"])
        blob_files[m] = spec["blob"]
        if not isinstance(blob_files[m], str):
            raise TypeError(f"modality {m} blob must be a file name")
    return CorpusMeta(header["num_classes"], shapes), blob_files


def _record(entry, header: tuple) -> tuple:
    """``(id, split, label, offset per modality)`` of one manifest entry."""
    num_classes, label = header[0].num_classes, entry["label"]
    if label == OOD_SENTINEL:
        label = OOD_LABEL
    elif type(label) is not int or not 0 <= label < num_classes:
        raise ValueError(f"label {label!r} is neither {OOD_SENTINEL} "
                         f"nor a class index 0..{num_classes - 1}")
    offsets = _OFFSETS(entry["offsets"])
    rec_id, split = entry["id"], entry["split"]
    if not isinstance(rec_id, str) or not isinstance(split, str):
        raise TypeError("id and split must be strings")
    return (rec_id, split, label, *offsets)


def load_corpus(manifest_path) -> Corpus:
    """Load and fully validate a corpus; errors name the offending record."""
    manifest_path = Path(manifest_path)
    if manifest_path.is_dir():
        manifest_path = manifest_path / MANIFEST_NAME
    (meta, blob_files), rows = read_manifest(manifest_path, SCHEMA, _header,
                                             _record)
    lines, ids, splits, labels, *offsets = \
        zip(*rows) if rows else [()] * (4 + len(MODALITIES))
    n = len(ids)
    seqs = {m: read_blob(manifest_path, SCHEMA, blob_files[m], lines,
                         lambda i: f"record {ids[i]!r} modality {m}", offs,
                         [math.prod(meta.shapes[m])] * n, STORAGE)
            .reshape(n, *meta.shapes[m])
            for m, offs in zip(MODALITIES, offsets)}
    corpus = Corpus(meta, np.array(ids, dtype=str), np.array(splits, dtype=str),
                    np.array(labels, dtype=np.int64), seqs)
    _validate(corpus)
    return corpus


# SynthConfig and ModalitySynth field -> rule (see errors.check_fields)
_SYNTH_RULES = {"n_train": ">= 0", "n_valid": ">= 0", "n_test_id": ">= 0",
                "n_test_ood": ">= 0", "ood_clusters": ">= 0"}
_MODALITY_RULES = {"radius": "finite and >= 0", "sigma": "finite and >= 0",
                   "class_sigma_spread": "finite and >= 0"}


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

    def __post_init__(self):
        # modality keys as [corpus] spells them; meta() checks K and shapes
        check_fields("corpus", _SYNTH_RULES, self)
        if self.n_test_ood > 0 and self.ood_clusters < 1:
            raise ParameterError("corpus: ood_clusters must be >= 1 when "
                                 f"n_test_ood > 0, got {self.ood_clusters}")
        for m, spec in self.modalities.items():
            check_fields("corpus", _MODALITY_RULES, spec, f"_{m.lower()}")
        self.meta()

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
    storage precision. The noise is drawn in record order, modality inside,
    one standard-normal draw per chunk of up to ``_SYNTH_CHUNK`` records: the
    same stream and float64 operations as one ``rng.normal(scale=sigma)``
    draw per record and modality. A corpus too large for memory is a
    ``ParameterError`` that names the record counts.
    """
    try:
        return _draw(cfg, rng)
    except MemoryError as exc:
        counts = ", ".join(f"{key} = {getattr(cfg, key)}" for key in
                           ("n_train", "n_valid", "n_test_id", "n_test_ood"))
        raise ParameterError(
            f"corpus: the records do not fit in memory ({counts})") from exc


def _draw(cfg: SynthConfig, rng: np.random.Generator) -> Corpus:
    meta = cfg.meta()
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

    # the columns in file order; row r reads mean and sigma row ``rows[r]``
    # of its modality's tables: K classes, then the OOD clusters
    ids, splits = [], []
    for split, count in (("train", cfg.n_train), ("valid", cfg.n_valid),
                         ("test", cfg.n_test_id)):
        tag = "test-id" if split == "test" else split
        ids += [f"{tag}-{i:05d}" for i in range(count)]
        splits += [split] * count
    n_ood = cfg.n_test_ood
    ids += [f"test-ood-{j:05d}" for j in range(n_ood)]
    splits += ["test"] * n_ood
    n = len(ids)
    id_labels = np.concatenate([np.arange(count) % k for count in
                                (cfg.n_train, cfg.n_valid, cfg.n_test_id)])
    labels = np.concatenate([id_labels, np.full(n_ood, OOD_LABEL)])
    rows = np.concatenate([id_labels,
                           k + np.arange(n_ood) % max(cfg.ood_clusters, 1)])

    means = {m: np.concatenate([class_means[m], ood_means[m]])
             for m in cfg.modalities}
    # sigma_k = sigma * (1 + spread*k/(K-1)), exactly sigma at spread 0
    sigmas = {m: np.array([spec.sigma * (1.0 + spec.class_sigma_spread * c
                                         / (k - 1)) for c in range(k)]
                          + [spec.sigma] * len(ood_means[m]))
              for m, spec in cfg.modalities.items()}
    # a modality with sigma 0 draws nothing; the others own a column span
    spans, width = {}, 0
    for m, spec in cfg.modalities.items():
        if spec.sigma > 0:
            spans[m] = slice(width, width + spec.seq_len * spec.dim)
            width = spans[m].stop
    seqs = {m: np.empty((n, spec.seq_len, spec.dim), dtype=STORAGE)
            for m, spec in cfg.modalities.items()}
    # a draw past the float32 range is stored as inf; the check after the
    # loop names the scale keys that caused it
    with np.errstate(over="ignore"):
        for start in range(0, n, _SYNTH_CHUNK):
            chunk = rows[start:start + _SYNTH_CHUNK]
            z = rng.standard_normal((len(chunk), width)) if width else None
            for m, spec in cfg.modalities.items():
                noise = 0.0
                if m in spans:  # rng.normal(scale=sig)'s loc + scale * z
                    noise = 0.0 + sigmas[m][chunk, None, None] * \
                        z[:, spans[m]].reshape(-1, spec.seq_len, spec.dim)
                seqs[m][start:start + len(chunk)] = \
                    means[m][chunk, None, :] + noise
    for m, spec in cfg.modalities.items():
        if not np.isfinite(seqs[m]).all():
            keys = ", ".join(f"{key}_{m.lower()} = {getattr(spec, key)!r}"
                             for key in _MODALITY_RULES)
            raise ParameterError(
                f"corpus: modality {m} draws overflow float32 storage ({keys})")
    return Corpus(meta=meta, ids=np.array(ids, dtype=str),
                  splits=np.array(splits, dtype=str), labels=labels, seqs=seqs)


def make_batches(corpus: Corpus, batch_size: int,
                 rng: np.random.Generator) -> list[np.ndarray]:
    """One epoch of shuffled ID half-batches of size batch_size/2.

    Each half-batch is an array of row indices into ``corpus``. The other
    half of each training batch is filled downstream with pseudo-OOD
    samples. The final partial chunk is dropped. ``TrainConfig`` holds the
    batch size even and ``train`` holds it within twice ``len(corpus)``.
    """
    n = len(corpus)
    half = batch_size // 2
    order = rng.permutation(n)
    return [order[start:start + half] for start in range(0, n - half + 1, half)]
