"""Embedding-corpus format, loading, synthetic generation, and batching.

Disk layout (one directory per corpus):

    manifest.jsonl   line 1: header with class count and per-modality
                     (seq_len, dim, blob file); one JSON line per record
                     with id, split, label and byte offsets into the blobs
    seq_T.blob       raw little-endian float32, row-major, one (L_T x D_T)
    seq_V.blob       chunk per record, concatenated in manifest order
    seq_A.blob

Labels are class indices 0..K-1; out-of-distribution records carry the
sentinel string ``__OOD__`` in the manifest (index -1 in memory) and may
only appear in the test split. Values are stored at 32-bit and promoted
to 64-bit on load, so a loaded corpus round-trips bit-exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .blobio import array_from_bytes, array_to_bytes
from .errors import FormatError, ParameterError
from .numerics import l2_normalize

MODALITIES = ("T", "V", "A")
SPLITS = ("train", "valid", "test")
OOD_SENTINEL = "__OOD__"
OOD_LABEL = -1

MANIFEST_NAME = "manifest.jsonl"


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


@dataclass
class UtteranceRecord:
    id: str
    split: str
    label: int  # 0..K-1 or OOD_LABEL
    seqs: dict[str, np.ndarray]  # modality -> (seq_len, dim) float64

    @property
    def is_ood(self) -> bool:
        return self.label == OOD_LABEL


@dataclass
class Corpus:
    meta: CorpusMeta
    records: list[UtteranceRecord] = field(default_factory=list)

    def split(self, name: str) -> list[UtteranceRecord]:
        return [r for r in self.records if r.split == name]

    @property
    def num_classes(self) -> int:
        return self.meta.num_classes


def _validate_record(rec: UtteranceRecord, meta: CorpusMeta) -> None:
    if rec.split not in SPLITS:
        raise FormatError(f"corpus: record {rec.id!r} has unknown split {rec.split!r}")
    if rec.is_ood and rec.split != "test":
        raise FormatError(
            f"corpus: record {rec.id!r} is OOD but in split {rec.split!r}; "
            "OOD data may only appear in the test split"
        )
    if not rec.is_ood and not 0 <= rec.label < meta.num_classes:
        raise FormatError(
            f"corpus: record {rec.id!r} has label {rec.label} outside "
            f"0..{meta.num_classes - 1}"
        )
    for m in MODALITIES:
        if m not in rec.seqs:
            raise FormatError(f"corpus: record {rec.id!r} is missing modality {m}")
        expected = meta.shapes[m]
        if tuple(rec.seqs[m].shape) != expected:
            raise FormatError(
                f"corpus: record {rec.id!r} modality {m} has shape "
                f"{tuple(rec.seqs[m].shape)}, manifest declares {expected}"
            )


def save_corpus(corpus: Corpus, directory) -> Path:
    """Write the manifest and one blob per modality; returns manifest path.

    Sequence data is quantized to float32 on write (the declared storage
    precision), so a save/load cycle is the identity on already-loaded or
    synthesized corpora.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for rec in corpus.records:
        _validate_record(rec, corpus.meta)

    blobs = {m: bytearray() for m in MODALITIES}
    lines = []
    for rec in corpus.records:
        offsets = {}
        for m in MODALITIES:
            offsets[m] = len(blobs[m])
            blobs[m].extend(array_to_bytes(rec.seqs[m], "<f4"))
        lines.append({
            "id": rec.id,
            "split": rec.split,
            "label": OOD_SENTINEL if rec.is_ood else rec.label,
            "offsets": offsets,
        })

    header = {
        "format": "corpus",
        "version": 1,
        "num_classes": corpus.meta.num_classes,
        "modalities": {
            m: {
                "seq_len": corpus.meta.shapes[m][0],
                "dim": corpus.meta.shapes[m][1],
                "blob": f"seq_{m}.blob",
            }
            for m in MODALITIES
        },
    }
    for m in MODALITIES:
        (directory / f"seq_{m}.blob").write_bytes(bytes(blobs[m]))
    manifest_path = directory / MANIFEST_NAME
    with open(manifest_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for line in lines:
            fh.write(json.dumps(line, sort_keys=True) + "\n")
    return manifest_path


def load_corpus(manifest_path) -> Corpus:
    """Load and fully validate a corpus; errors name the offending record."""
    manifest_path = Path(manifest_path)
    if manifest_path.is_dir():
        manifest_path = manifest_path / MANIFEST_NAME
    if not manifest_path.exists():
        raise FormatError(f"corpus: manifest {manifest_path} does not exist")
    lines = manifest_path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise FormatError(f"corpus: manifest {manifest_path} is empty")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise FormatError(f"corpus: malformed manifest header") from exc
    if not isinstance(header, dict) or header.get("format") != "corpus":
        raise FormatError(f"corpus: {manifest_path} is not a corpus manifest")

    shapes = {}
    blob_files = {}
    try:
        for m, spec in header["modalities"].items():
            shapes[m] = (int(spec["seq_len"]), int(spec["dim"]))
            blob_files[m] = spec["blob"]
        num_classes = int(header["num_classes"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"corpus: {manifest_path} line 1: malformed header "
                          f"({type(exc).__name__}: {exc})") from exc
    meta = CorpusMeta(num_classes=num_classes, shapes=shapes)

    buffers = {}
    for m in MODALITIES:
        path = manifest_path.parent / blob_files[m]
        if not path.exists():
            raise FormatError(f"corpus: missing blob {path} for modality {m}")
        buffers[m] = path.read_bytes()

    records = []
    seen = set()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        rec_id = "<unparsed>"
        try:
            entry = json.loads(line)
            rec_id = entry.get("id", "<unnamed>")
            raw_label = entry["label"]
            label = OOD_LABEL if raw_label == OOD_SENTINEL else int(raw_label)
            offsets = {m: int(entry["offsets"][m]) for m in MODALITIES}
            split = entry["split"]
            duplicate = rec_id in seen
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise FormatError(
                f"corpus: {manifest_path} line {lineno}: malformed record "
                f"{rec_id!r} ({type(exc).__name__}: {exc})"
            ) from exc
        if duplicate:
            raise FormatError(f"corpus: {manifest_path} line {lineno}: "
                              f"duplicate record id {rec_id!r}")
        seen.add(rec_id)
        seqs = {}
        for m in MODALITIES:
            seqs[m] = array_from_bytes(
                buffers[m], offsets[m], shapes[m], "<f4",
                context=f"record {rec_id!r} modality {m}",
            )
        rec = UtteranceRecord(id=rec_id, split=split, label=label, seqs=seqs)
        _validate_record(rec, meta)
        records.append(rec)
    return Corpus(meta=meta, records=records)


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
    storage precision.
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

    def make_record(rec_id: str, split: str, label: int,
                    means: dict[str, np.ndarray], midx: int,
                    sigma_label: int | None) -> UtteranceRecord:
        seqs = {}
        for m, spec in cfg.modalities.items():
            sig = spec.sigma if sigma_label is None else class_sigma(spec, sigma_label)
            noise = rng.normal(scale=sig, size=(spec.seq_len, spec.dim)) if sig > 0 \
                else np.zeros((spec.seq_len, spec.dim))
            seq = means[m][midx] + noise
            seqs[m] = seq.astype("<f4").astype(np.float64)
        return UtteranceRecord(id=rec_id, split=split, label=label, seqs=seqs)

    records = []
    for split, count in (("train", cfg.n_train), ("valid", cfg.n_valid),
                         ("test", cfg.n_test_id)):
        tag = "test-id" if split == "test" else split
        for i in range(count):
            label = i % k
            records.append(make_record(f"{tag}-{i:05d}", split, label,
                                       class_means, label, label))
    for j in range(cfg.n_test_ood):
        cluster = j % cfg.ood_clusters
        records.append(make_record(f"test-ood-{j:05d}", "test", OOD_LABEL,
                                   ood_means, cluster, None))
    return Corpus(meta=meta, records=records)


def make_batches(records: list[UtteranceRecord], batch_size: int,
                 rng: np.random.Generator) -> list[list[UtteranceRecord]]:
    """One epoch of shuffled ID half-batches of size batch_size/2.

    The other half of each training batch is filled downstream with
    pseudo-OOD samples. The final partial chunk is dropped.
    """
    if batch_size < 2 or batch_size % 2 != 0:
        raise ParameterError(
            f"corpus: batch_size must be even and >= 2, got {batch_size}"
        )
    if batch_size > 2 * len(records):
        raise ParameterError(
            f"corpus: batch_size {batch_size} exceeds twice the "
            f"{len(records)} available records"
        )
    half = batch_size // 2
    order = rng.permutation(len(records))
    chunks = []
    for start in range(0, len(records) - half + 1, half):
        chunks.append([records[i] for i in order[start:start + half]])
    return chunks
