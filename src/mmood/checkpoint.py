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
# fitted inference state stored after the model parameters
STATE_TENSORS = ("stats.means", "stats.covs", "stats.counts", "stats.eps",
                 "stats.precisions", "cache.features", "cache.logits")


def save_checkpoint(trained: TrainedModel, directory) -> Path:
    model = trained.model
    tensors: dict[str, np.ndarray] = {
        name: p.value for name, p in model.named_params().items()
    }
    tensors["stats.means"] = trained.class_stats.means
    tensors["stats.covs"] = trained.class_stats.covs
    tensors["stats.counts"] = trained.class_stats.counts.astype(np.float64)
    tensors["stats.eps"] = trained.class_stats.eps
    tensors["stats.precisions"] = trained.class_stats.precisions
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
    return write_tensor_store(directory, CHECKPOINT_NAME, tensors, meta,
                              dtype="<f8")


def _model_from_header(meta, manifest: Path) -> FusionModel:
    """The untrained model a checkpoint header describes; ``hyper`` must
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
            num_classes=int(meta["num_classes"]),
            shapes={m: tuple(s) for m, s in meta["shapes"].items()},
        )
        return FusionModel(corpus_meta, ModelHyper(**hyper),
                           seed=int(meta.get("seed", 0)))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"checkpoint: {manifest}: malformed header "
                          f"({type(exc).__name__}: {exc})") from exc


def load_checkpoint(directory):
    """Rebuild the model and fitted statistics from a checkpoint directory.

    Returns ``(model, class_stats, train_features, train_logits, meta)``.
    """
    manifest = Path(directory)
    if manifest.is_dir():
        manifest = manifest / f"{CHECKPOINT_NAME}.json"
    # parameter names are checked before the blob is read, so a dropped
    # manifest entry is reported by name, not as the layout gap it leaves
    meta, entries = read_tensor_manifest(manifest)
    model = _model_from_header(meta, manifest)

    named = model.named_params()
    expected = set(named) | set(STATE_TENSORS)
    stored = {name for _, name, *_ in entries}
    missing = sorted(expected - stored)
    extra = sorted(stored - expected)
    if missing or extra:
        raise FormatError(
            f"checkpoint: tensor mismatch (missing={missing}, extra={extra})"
        )
    tensors = read_tensor_blob(manifest, entries)
    for name, param in named.items():
        value = tensors[name]
        if value.shape != param.value.shape:
            raise FormatError(
                f"checkpoint: tensor {name!r} has shape {value.shape}, "
                f"model expects {param.value.shape}"
            )
        param.value[...] = value

    stats = ClassStats(
        means=tensors["stats.means"],
        covs=tensors["stats.covs"],
        counts=tensors["stats.counts"].astype(np.int64),
        eps=tensors["stats.eps"],
        precisions=tensors["stats.precisions"],
    )
    return model, stats, tensors["cache.features"], tensors["cache.logits"], meta
