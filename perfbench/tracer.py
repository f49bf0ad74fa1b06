"""In-memory span tracer that wraps mmood's public functions from outside.

Nothing under ``src/`` knows about it: inside ``Tracer.installed()`` each
target in ``SPANS`` (a module-level function, patched in the module that
looks it up at call time, or a class attribute for a method) is replaced by
a wrapper that records one span per call; the originals come back when the
block ends. Spans nest through a stack, so a span's parent is the span
that was open when it started; self time is the span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
from array import array
from contextlib import contextmanager
from time import perf_counter


def _encoder_kind(args):
    return "cls" if args[0].use_class_token else "pool"


# (target, span name). A target is "module:attr" or "module:Class.method"; a
# callable name is computed from the call's positional arguments.
SPANS = [
    ("mmood.cli:run_synth", "cli.run_synth"),
    ("mmood.cli:run_training", "cli.run_training"),
    ("mmood.cli:run_eval", "cli.run_eval"),
    ("mmood.cli:run_ablation", "cli.run_ablation"),
    ("mmood.cli:run_report", "cli.run_report"),
    ("mmood.cli:synth_corpus", "corpus.synth_corpus"),
    ("mmood.cli:save_corpus", "corpus.save_corpus"),
    ("mmood.cli:load_corpus", "corpus.load_corpus"),
    ("mmood.train:make_batches", "corpus.make_batches"),
    ("mmood.train:build_mixed_batch", "oodgen.build_mixed_batch"),
    ("mmood.oodgen:sample_pseudo_ood", "oodgen.sample_pseudo_ood"),
    ("mmood.encoders:ModalityEncoder.forward_batch",
     lambda a: "encoders.forward_batch." + _encoder_kind(a)),
    ("mmood.encoders:ModalityEncoder.backward_batch",
     lambda a: "encoders.backward_batch." + _encoder_kind(a)),
    ("mmood.layers:Affine.forward", "layers.Affine.forward"),
    ("mmood.layers:Affine.backward", "layers.Affine.backward"),
    ("mmood.layers:SelfAttention.forward", "layers.SelfAttention.forward"),
    ("mmood.layers:SelfAttention.backward", "layers.SelfAttention.backward"),
    ("mmood.layers:FeedForward.forward", "layers.FeedForward.forward"),
    ("mmood.layers:FeedForward.backward", "layers.FeedForward.backward"),
    ("mmood.fusion:FusionNetwork.forward",
     lambda a: "fusion.forward." + a[0].mode),
    ("mmood.fusion:FusionNetwork.backward",
     lambda a: "fusion.backward." + a[0].mode),
    ("mmood.train:contrastive_from_views", "heads.contrastive_from_views"),
    ("mmood.train:coarse_loss", "heads.coarse_loss"),
    ("mmood.train:multiclass_loss", "heads.multiclass_loss"),
    ("mmood.heads:CosineHead.forward", "heads.CosineHead.forward"),
    ("mmood.heads:CosineHead.backward", "heads.CosineHead.backward"),
    ("mmood.heads:LinearHead.forward", "heads.LinearHead.forward"),
    ("mmood.heads:LinearHead.backward", "heads.LinearHead.backward"),
    ("mmood.heads:BinaryHead.forward", "heads.BinaryHead.forward"),
    ("mmood.heads:BinaryHead.backward", "heads.BinaryHead.backward"),
    ("mmood.heads:ContrastHead.forward", "heads.ContrastHead.forward"),
    ("mmood.heads:ContrastHead.backward", "heads.ContrastHead.backward"),
    ("mmood.train:AdamW.step", "train.AdamW.step"),
    ("mmood.train:AdamW.zero_grad", "train.AdamW.zero_grad"),
    ("mmood.cli:train", "train.train"),
    ("mmood.model:FusionModel.features_for", "model.features_for"),
    ("mmood.train:fit_class_stats", "scoring.fit_class_stats"),
    ("mmood.cli:fit_scorer", lambda a: "scoring.fit_scorer." + a[0]),
    ("mmood.cli:apply_scorer", lambda a: "scoring.apply_scorer." + a[0].variant),
    ("mmood.metrics:roc_auroc", "metrics.roc_auroc"),
    ("mmood.metrics:aupr", "metrics.aupr"),
    ("mmood.metrics:fpr95_der", "metrics.fpr95_der"),
    ("mmood.cli:id_metrics", "metrics.id_metrics"),
    ("mmood.train:id_metrics", "metrics.id_metrics"),
    ("mmood.cli:save_checkpoint", "checkpoint.save_checkpoint"),
    ("mmood.cli:load_checkpoint", "checkpoint.load_checkpoint"),
]

# Counters kept at a span boundary: target -> (count name, count of a call).
# Rows passed to a scorer count the test records scored.
COUNTERS = {
    "mmood.cli:apply_scorer": ("scoring.records_scored", lambda a: len(a[1])),
}


def _resolve(target: str):
    """(owner, attr) for a target, or None when the program no longer has it."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, attr) if hasattr(owner, attr) else None


class Tracer:
    """Records spans in flat arrays; one instance per benchmark run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self._stack = [-1]
        self.missing: list[str] = []

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def _wrap(self, original, name, counter):
        open_, close, counts = self._open, self._close, self.counts

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if counter is not None:
                key, count = counter
                counts[key] = counts.get(key, 0) + count(args)
            idx = open_(name if isinstance(name, str) else name(args))
            try:
                return original(*args, **kwargs)
            finally:
                close(idx)

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target in ``SPANS`` for the duration of the block."""
        patches = []
        self.missing = []
        for target, name in SPANS:
            found = _resolve(target)
            if found is None:
                self.missing.append(target)
                continue
            owner, attr = found
            original = getattr(owner, attr)
            patches.append((owner, attr, original))
            setattr(owner, attr,
                    self._wrap(original, name, COUNTERS.get(target)))
        try:
            yield
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def duration(self, idx: int) -> float:
        return self.end[idx] - self.start[idx]

    def _span_range(self, root: int) -> range:
        """Indices of ``root`` and its descendants.

        Spans are appended in start order, so a span's descendants are the
        contiguous run of indices after it that started before it ended.
        """
        stop = root + 1
        while stop < len(self.start) and self.start[stop] < self.end[root]:
            stop += 1
        return range(root, stop)

    def subtree(self, root: int) -> dict[str, dict]:
        """Per-name calls, self and total seconds of ``root`` and below."""
        spans = self._span_range(root)
        self_s = {i: self.duration(i) for i in spans}
        for i in spans[1:]:
            self_s[self.parent[i]] -= self.duration(i)
        table: dict[str, dict] = {}
        for i in spans:
            row = table.setdefault(self.names[self.name_id[i]],
                                   {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            row["calls"] += 1
            row["self_s"] += self_s[i]
            row["total_s"] += self.duration(i)
        return table

    def dump(self, path, roots: list[int]) -> None:
        """Write the raw spans under ``roots`` as gzipped JSON columns."""
        keep = [i for root in roots for i in self._span_range(root)]
        t0 = min(self.start[r] for r in roots)
        payload = {
            "names": self.names,
            "name": [self.name_id[i] for i in keep],
            "parent": [self.parent[i] for i in keep],
            "index": keep,
            "start_s": [round(self.start[i] - t0, 9) for i in keep],
            "end_s": [round(self.end[i] - t0, 9) for i in keep],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
