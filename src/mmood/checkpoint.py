"""Checkpoint serialization: model params, class stats, and feature cache.

Uses the shared named-tensor blob convention (see blobio) at float64 so a
reloaded model reproduces evaluation outputs bit-exactly.
"""

from __future__ import annotations

from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .corpus import CorpusMeta
from .blobio import read_tensor_blob, read_tensor_manifest, write_tensor_store
from .errors import FormatError
from .model import FusionModel, ModelHyper
from .scoring import ClassStats
from .train import TrainedModel

CHECKPOINT_NAME = "checkpoint"
# fitted inference state stored beside the model parameters: one tensor per
# ClassStats field, then the training feature cache
STATS = {f.name: f"stats.{f.name}" for f in fields(ClassStats)}


def save_checkpoint(trained: TrainedModel, directory) -> Path:
    model = trained.model
    tensors: dict[str, np.ndarray] = {
        name: p.value for name, p in model.named_params().items()
    }
    for field, name in STATS.items():
        tensors[name] = getattr(trained.class_stats, field)
    tensors["cache.features"] = trained.train_features
    tensors["cache.logits"] = trained.train_logits

    cfg = trained.train_cfg
    meta = {
        "num_classes": model.meta.num_classes,
        "shapes": {m: list(s) for m, s in model.meta.shapes.items()},
        "hyper": asdict(cfg.model),
        "seed": cfg.seed,
        "train_config": {k: v for k, v in asdict(cfg).items() if k != "model"},
        "ood_config": asdict(trained.ood_cfg),
        "best": trained.best,
    }
    return write_tensor_store(directory, CHECKPOINT_NAME, tensors, meta)


def _model_from_header(meta, manifest: Path) -> FusionModel:
    """The unbound model a checkpoint header describes; ``hyper`` must
    carry exactly the ``ModelHyper`` fields, each of the type of its
    default (an int stands for a float)."""
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
        corpus_meta = CorpusMeta(
            num_classes=meta["num_classes"],
            shapes={m: tuple(s) for m, s in meta["shapes"].items()},
        )
        return FusionModel(corpus_meta, ModelHyper(**hyper))
    except (AttributeError, KeyError, TypeError, ValueError,
            OverflowError) as exc:
        raise FormatError(f"checkpoint: {manifest}: malformed header "
                          f"({type(exc).__name__}: {exc})") from exc


def load_checkpoint(directory):
    """Rebuild the model and fitted statistics from a checkpoint directory.

    Returns ``(model, class_stats, train_features, train_logits, meta)``.
    """
    manifest = Path(directory)
    if manifest.is_dir():
        manifest = manifest / f"{CHECKPOINT_NAME}.json"
    meta, entries = read_tensor_manifest(manifest)
    stored = {name: shape for _, name, _, shape in entries}
    model = _model_from_header(meta, manifest)

    # every name and shape is checked once, before anything is allocated or
    # the blob is read, so a huge header size costs nothing and a dropped or
    # reshaped entry is named, not reported as the layout gap it leaves; the
    # fitted state fits K classes, D shared dims and N cached rows
    named = model.named_params()
    k, d = model.num_classes, model.d_shared
    n = (stored.get("cache.features") or (0,))[0]
    expected = {**{name: p.shape for name, p in named.items()},
                STATS["means"]: (k, d), STATS["covs"]: (k, d, d),
                STATS["counts"]: (k,), STATS["eps"]: (k,),
                STATS["precisions"]: (k, d, d),
                "cache.features": (n, d), "cache.logits": (n, k)}
    missing = sorted(expected.keys() - stored.keys())
    extra = sorted(stored.keys() - expected.keys())
    if missing or extra:
        raise FormatError(f"checkpoint: {manifest}: tensor mismatch "
                          f"(missing={missing}, extra={extra})")
    for name, shape in stored.items():
        if shape != expected[name]:
            raise FormatError(f"checkpoint: {manifest}: tensor {name!r} has "
                              f"shape {shape}, expected {expected[name]}")
    tensors = read_tensor_blob(manifest, entries)
    model.bind()
    for name, param in named.items():
        param.value[...] = tensors[name]
    counts = tensors[STATS["counts"]]
    # bounded by n before the sum, so a huge count cannot overflow it
    if not (np.all(counts == np.floor(counts))
            and np.all((counts >= 2) & (counts <= n)) and counts.sum() == n):
        raise FormatError(f"checkpoint: {manifest}: tensor "
                          f"{STATS['counts']!r} holds {counts.tolist()}; "
                          f"expected whole numbers >= 2 that sum to the {n} "
                          "cached rows")
    stats = ClassStats(**{field: tensors[name]
                          for field, name in STATS.items()})
    stats.counts = stats.counts.astype(np.int64)
    return model, stats, tensors["cache.features"], tensors["cache.logits"], meta
