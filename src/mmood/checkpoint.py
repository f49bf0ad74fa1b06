"""Checkpoint serialization: model parameters and two feature caches.

A checkpoint is a blobio container, ``tensor-store`` version 4:
``checkpoint.json`` holds a header (the blob's crc32 and the ``meta`` the
model is rebuilt from), then one ``{"name", "shape"}`` line per tensor;
``checkpoint.blob`` holds every tensor at float64 in sorted-name order (the
manifest's line order means nothing), so a reloaded model reproduces
evaluation outputs bit-exactly. Beside the parameters it keeps the fused
train features ``cache.features`` (N, D) and their labels ``cache.labels``
(N,); the class statistics are refit from those at load, so they cannot
disagree with them. It also keeps the fused features of the test split
training scored, ``cache.test_features`` (N_test, D), keyed by
``meta.test_crc32``: each modality's ``corpus.rows_crc32`` of those
records, so ``mmood eval`` reuses them only on byte-identical sequences.
A version-1, -2 or -3 checkpoint fails: rerun ``mmood train``.
"""

from __future__ import annotations

import math
import zlib
from bisect import bisect_right
from dataclasses import asdict, fields
from itertools import accumulate
from pathlib import Path

import numpy as np

from .blobio import Schema, read_blob, read_manifest, write_jsonl
from .corpus import MODALITIES, CorpusMeta
from .errors import FormatError, PipelineError
from .model import FusionModel, ModelHyper
from .scoring import fit_class_stats
from .train import TrainedModel

CHECKPOINT_NAME = "checkpoint"
VERSION = 4
STORAGE = np.dtype("<f8")  # blob precision
WRITE_BLOCK = 4096  # values converted and written at a time
SCHEMA = Schema(module="checkpoint", format="tensor-store",
                kind="tensor store", entry="tensor", key="name")


def save_checkpoint(trained: TrainedModel, directory, test_crc32: dict,
                    test_features: np.ndarray) -> Path:
    """Write ``trained`` into ``directory``, with the fused features of the
    test records ``test_crc32`` keys (``corpus.rows_crc32``). The tensors
    are written and added to the blob's crc32 a block of values at a time,
    so neither the blob nor a whole converted tensor is built in memory."""
    model = trained.model
    tensors = {**{name: p.value for name, p in model.named_params().items()},
               "cache.features": trained.train_features,
               "cache.labels": trained.train_labels,
               "cache.test_features": test_features}

    cfg = trained.train_cfg
    meta = {
        "num_classes": model.meta.num_classes,
        "shapes": {m: list(s) for m, s in model.meta.shapes.items()},
        "hyper": asdict(cfg.model),
        "seed": cfg.seed,
        "train_config": {k: v for k, v in asdict(cfg).items() if k != "model"},
        "ood_config": asdict(trained.ood_cfg),
        "best": trained.best,
        "test_crc32": test_crc32,
    }
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    names, crc = sorted(tensors), 0
    with open(directory / f"{CHECKPOINT_NAME}.blob", "wb") as fh:
        for name in names:
            flat = np.ravel(tensors[name])
            for start in range(0, flat.size, WRITE_BLOCK):
                data = np.asarray(flat[start:start + WRITE_BLOCK], STORAGE)
                fh.write(data)
                crc = zlib.crc32(data, crc)
    header = {"format": SCHEMA.format, "version": VERSION, "crc32": crc,
              "meta": meta}
    return write_jsonl(directory / f"{CHECKPOINT_NAME}.json", [header, *(
        {"name": name, "shape": list(tensors[name].shape)} for name in names)])


def _header(header, path: Path) -> tuple:
    """``(meta, crc32)`` of a version-4 header."""
    if header.get("version") != VERSION:
        raise FormatError(
            f"checkpoint: {path} is a version {header.get('version')!r} "
            f"checkpoint; this mmood reads version {VERSION} only, so rerun "
            "`mmood train` to write it again")
    crc = header["crc32"]
    if type(crc) is not int or crc < 0 or crc >> 32:
        raise ValueError(f"crc32 {crc!r} is not a 32-bit crc")
    return header["meta"], crc


def _tensor(entry, _) -> tuple:
    """``(name, shape)`` of a tensor entry."""
    name, shape = entry["name"], tuple(entry["shape"])
    if not isinstance(name, str):
        raise ValueError(f"name {name!r} is not a string")
    if any(type(d) is not int or d < 0 for d in shape):
        raise ValueError(f"shape {list(shape)} is not a list of "
                         "non-negative integers")
    return name, shape


def _from_header(meta, manifest: Path) -> tuple:
    """``(unbound model, cov_eps, test_crc32)`` of a checkpoint header:
    ``hyper`` must carry exactly the ``ModelHyper`` fields, each of the type
    of its default (an int stands for a float), ``train_config.cov_eps`` be
    null or a finite number >= 0, and ``test_crc32`` map each modality to
    an integer in 0..2**32-1."""
    try:
        hyper = meta["hyper"]
        kinds = {f.name: type(f.default) for f in fields(ModelHyper)}
        missing = sorted(set(kinds) - set(hyper))
        extra = sorted(set(hyper) - set(kinds))
        if missing or extra:
            raise ValueError(f"hyper fields missing={missing}, extra={extra}")
        for key, value in hyper.items():
            if type(value) is not kinds[key] and (kinds[key], type(value)) \
                    != (float, int):
                raise TypeError(f"hyper.{key} = {value!r} is not a "
                                f"{kinds[key].__name__}")
        eps = meta["train_config"]["cov_eps"]
        if not (eps is None or type(eps) in (int, float)
                and 0 <= float(eps) < math.inf):
            raise ValueError(f"cov_eps {eps!r} is not null or finite >= 0")
        key = meta["test_crc32"]
        if type(key) is not dict or key.keys() != set(MODALITIES) or any(
                type(crc) is not int or crc < 0 or crc >> 32
                for crc in key.values()):
            raise ValueError(f"test_crc32 {key!r} is not one 32-bit crc per "
                             f"modality of {MODALITIES}")
        corpus_meta = CorpusMeta(
            num_classes=meta["num_classes"],
            shapes={m: tuple(s) for m, s in meta["shapes"].items()},
        )
        return FusionModel(corpus_meta, ModelHyper(**hyper)), eps, key
    except (AttributeError, KeyError, TypeError, ValueError,
            OverflowError) as exc:
        raise FormatError(f"checkpoint: {manifest}: malformed header "
                          f"({type(exc).__name__}: {exc})") from exc


def load_checkpoint(directory):
    """Rebuild the model from a checkpoint directory and refit its class
    statistics from the cached train features and labels.

    Returns ``(model, class_stats, train_features, (test_crc32,
    test_features), meta)``: the cached test features are those of the
    records whose sequences ``corpus.rows_crc32`` keys as ``test_crc32``.
    """
    manifest = Path(directory)
    if manifest.is_dir():
        manifest = manifest / f"{CHECKPOINT_NAME}.json"
    (meta, crc), rows = read_manifest(
        manifest, SCHEMA, lambda header: _header(header, manifest), _tensor)
    stored = {name: shape for _, name, shape in rows}
    model, eps, test_crc32 = _from_header(meta, manifest)

    # every name and shape is checked once, before anything is allocated or
    # the blob is read, so a huge header size costs nothing and a dropped or
    # reshaped entry is named, not reported as the blob length it changes
    named = model.named_params()
    n, n_test = ((stored.get(name) or (0,))[0]
                 for name in ("cache.features", "cache.test_features"))
    expected = {**{name: p.shape for name, p in named.items()},
                "cache.features": (n, model.d_shared), "cache.labels": (n,),
                "cache.test_features": (n_test, model.d_shared)}
    missing = sorted(expected.keys() - stored.keys())
    extra = sorted(stored.keys() - expected.keys())
    if missing or extra:
        raise FormatError(f"checkpoint: {manifest}: tensor mismatch "
                          f"(missing={missing}, extra={extra})")
    for name, shape in stored.items():
        if shape != expected[name]:
            raise FormatError(f"checkpoint: {manifest}: tensor {name!r} has "
                              f"shape {shape}, expected {expected[name]}")
    # the blob holds the tensors in sorted-name order
    names = sorted(stored)
    stops = list(accumulate((math.prod(stored[name]) for name in names),
                            initial=0))
    values = read_blob(manifest, SCHEMA, manifest.with_suffix(".blob").name,
                       stops[-1], STORAGE, crc, lambda i: "tensor "
                       f"{names[bisect_right(stops, i) - 1]!r}")
    tensors = {name: values[start:stop].reshape(stored[name])
               for name, start, stop in zip(names, stops, stops[1:])}
    model.bind()
    for name, param in named.items():
        param.value[...] = tensors[name]
    labels, k = tensors["cache.labels"], model.num_classes
    if (bad := (labels % 1 != 0) | (labels < 0) | (labels >= k)).any():
        raise FormatError(f"checkpoint: {manifest}: tensor 'cache.labels' "
                          f"holds {float(labels[bad.argmax()])!r}; expected "
                          f"whole numbers in 0..{k - 1}")
    try:
        with np.errstate(over="raise", invalid="raise"):
            stats = fit_class_stats(tensors["cache.features"], labels, k, eps)
    except (PipelineError, FloatingPointError) as exc:
        raise FormatError(f"checkpoint: {manifest}: cannot refit the class "
                          f"statistics from the cache ({exc})") from exc
    return model, stats, tensors["cache.features"], \
        (test_crc32, tensors["cache.test_features"]), meta
