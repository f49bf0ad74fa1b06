"""Embedding-corpus format, loading, synthetic generation, and batching.

On disk a corpus is a blobio container (one directory per corpus), format
version 2: ``manifest.jsonl`` holds a header with the class count and each
modality's (seq_len, dim, blob file, record count, byte length, crc32),
then the three columns ``id``, ``label`` and ``split``, one line each;
``seq_T.blob``, ``seq_V.blob`` and ``seq_A.blob`` hold one float32 (L x D)
chunk per record, in column order, and each is read whole. A
version-1 corpus (one manifest line per record) fails: rerun ``mmood synth``.

Labels are class indices 0..K-1; out-of-distribution records carry the
sentinel string ``__OOD__`` in the manifest (index -1 in memory) and may
only appear in the test split. Values are stored at 32-bit and stay
32-bit in memory, so a loaded corpus round-trips bit-exactly; the model
widens them to float64 where it reads them (``train``, ``features_for``).

In memory a ``Corpus`` holds ``ids``, ``splits`` and ``labels`` columns
and one (N, L, D) float32 array per modality, in file order; saving and
loading validate whole columns and name the first offending record. The
commands read every split by row index and copy none: ``make_batches``
shuffles the train split's row indices, and ``train`` widens each
half-batch's rows as it gathers them.
``synth_corpus`` draws its noise in record order, in chunks of records.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
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
VERSION = 2
COLUMNS = ("id", "label", "split")  # manifest lines 2-4, in this order
STORAGE = np.dtype("<f4")  # blob precision
SCHEMA = Schema(module="corpus", format="corpus", kind="corpus manifest",
                entry="column", key="column")
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
    def num_classes(self) -> int:
        return self.meta.num_classes


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
    id_list = ids.tolist()
    if len(set(id_list)) < len(id_list):
        seen = set()
        rec_id = next(r for r in id_list if r in seen or seen.add(r))
        raise FormatError(f"corpus: duplicate record id {rec_id!r}")
    try:  # JSON escapes a lone surrogate, but no UTF-8 file can hold it
        "".join(id_list).encode("utf-8")
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
    synthesized corpora. Each blob's crc32 is taken of the array written.
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
    specs = {}
    for m, (length, dim) in corpus.meta.shapes.items():
        data = np.ascontiguousarray(corpus.seqs[m], dtype=STORAGE)
        data.tofile(directory / f"seq_{m}.blob")
        specs[m] = {"seq_len": length, "dim": dim, "blob": f"seq_{m}.blob",
                    "records": len(data), "bytes": data.nbytes,
                    "crc32": zlib.crc32(data)}
    columns = {"id": corpus.ids.tolist(), "split": corpus.splits.tolist(),
               "label": [OOD_SENTINEL if label == OOD_LABEL else label
                         for label in corpus.labels.tolist()]}
    return write_jsonl(directory / MANIFEST_NAME, [
        {"format": "corpus", "version": VERSION, "modalities": specs,
         "num_classes": corpus.meta.num_classes},
        *({"column": name, "values": columns[name]} for name in COLUMNS)])


def _header(header, path: Path) -> tuple:
    """``(CorpusMeta, {modality: (blob file, crc32)}, record count)`` of a
    version-2 header, whose modalities declare one count and its bytes."""
    if header.get("version") != VERSION:
        raise FormatError(f"corpus: {path} is a version {header.get('version')!r}"
                          f" corpus; this mmood reads version {VERSION} only, "
                          "so rerun `mmood synth` to write it again")
    specs = header["modalities"]
    meta = CorpusMeta(header["num_classes"], {
        m: (spec["seq_len"], spec["dim"]) for m, spec in specs.items()})
    n = specs[MODALITIES[0]]["records"]
    for m in MODALITIES:  # n's own modality first, so n is checked first
        spec, row = specs[m], math.prod(meta.shapes[m]) * STORAGE.itemsize
        sizes = spec["records"], spec["bytes"], spec["crc32"]
        if not isinstance(spec["blob"], str) or \
                any(type(v) is not int or v < 0 for v in sizes) or \
                sizes[:2] != (n, n * row) or sizes[2] >> 32:
            raise ValueError(
                f"modality {m} declares blob {spec['blob']!r} of {sizes[0]!r} "
                f"records, {sizes[1]!r} bytes and crc32 {sizes[2]!r}; expected "
                f"a file name, {n!r} records of {row} bytes and a 32-bit crc")
    return meta, {m: (spec["blob"], spec["crc32"]) for m, spec in specs.items()}, n


def _column(entry, header: tuple) -> tuple:
    """``(name, values)`` of a column entry, one value per record."""
    name, values = entry["column"], entry["values"]
    if name not in COLUMNS or type(values) is not list or \
            len(values) != header[2]:
        raise ValueError(f"expected a column of {COLUMNS} with {header[2]} "
                         "values")
    return name, values


def _columns(path: Path, rows: list, k: int) -> tuple:
    """The id, split and label arrays of the column rows; the first id or
    split that is not a string, or label that is neither a class index nor
    the OOD sentinel, is named with its column's line and its record."""
    columns = {name: (line, values) for line, name, values in rows}
    if len(columns) < len(COLUMNS):
        raise FormatError(f"corpus: {path} lacks a column; it needs {COLUMNS}")
    ids = columns["id"][1]
    for name, ok, expected in (
            ("id", lambda v: type(v) is str, "a string"),
            ("split", lambda v: type(v) is str, "a string"),
            ("label", lambda v: type(v) is int and 0 <= v < k
             or v == OOD_SENTINEL, f"0..{k - 1} or {OOD_SENTINEL}")):
        line, values = columns[name]
        i = next((i for i, v in enumerate(values) if not ok(v)), None)
        if i is not None:
            raise FormatError(f"corpus: {path} line {line}: record "
                              f"{i if name == 'id' else ids[i]!r} has {name} "
                              f"{values[i]!r}, not {expected}")
    labels = [OOD_LABEL if v == OOD_SENTINEL else v for v in columns["label"][1]]
    return (np.array(ids, dtype=str), np.array(columns["split"][1], dtype=str),
            np.array(labels, dtype=np.int64))


def load_corpus(manifest_path) -> Corpus:
    """Load and fully validate a version-2 corpus; errors name the
    offending column, record or blob."""
    path = Path(manifest_path)
    if path.is_dir():
        path = path / MANIFEST_NAME
    (meta, blobs, n), rows = read_manifest(
        path, SCHEMA, lambda header: _header(header, path), _column)
    ids, splits, labels = _columns(path, rows, meta.num_classes)
    del rows  # the arrays replace the parsed lists before any blob is read
    seqs = {}
    for m in MODALITIES:
        (blob, crc), size = blobs[m], math.prod(meta.shapes[m])
        seqs[m] = read_blob(path, SCHEMA, blob, n * size, STORAGE, crc,
                            lambda k: f"record {str(ids[k // size])!r} "
                            f"modality {m}").reshape(n, *meta.shapes[m])
    corpus = Corpus(meta, ids, splits, labels, seqs)
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

    # the big arrays first: a corpus too large for memory fails before the lists
    n_ood = cfg.n_test_ood
    n = cfg.n_train + cfg.n_valid + cfg.n_test_id + n_ood
    seqs = {m: np.empty((n, spec.seq_len, spec.dim), dtype=STORAGE)
            for m, spec in cfg.modalities.items()}
    # the columns in file order; row r reads mean and sigma row ``rows[r]``
    # of its modality's tables: K classes, then the OOD clusters
    ids, splits = [], []
    for split, count in (("train", cfg.n_train), ("valid", cfg.n_valid),
                         ("test", cfg.n_test_id)):
        tag = "test-id" if split == "test" else split
        ids += [f"{tag}-{i:05d}" for i in range(count)]
        splits += [split] * count
    ids += [f"test-ood-{j:05d}" for j in range(n_ood)]
    splits += ["test"] * n_ood
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


def make_batches(rows: np.ndarray, batch_size: int,
                 rng: np.random.Generator) -> list[np.ndarray]:
    """One epoch of shuffled ID half-batches of size batch_size/2.

    ``rows`` are the train split's row indices into the corpus; each
    half-batch is an array of them. The other half of each training batch
    is filled downstream with pseudo-OOD samples. The final partial chunk is
    dropped. ``TrainConfig`` holds the batch size even and ``train`` holds
    it within twice ``len(rows)``.
    """
    half = batch_size // 2
    order = rows[rng.permutation(len(rows))]
    return [order[start:start + half]
            for start in range(0, len(rows) - half + 1, half)]
