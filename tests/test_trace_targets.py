"""Every span the benchmark tracer names still resolves in the package.

The tracer in ``perfbench/`` patches functions where ``mmood`` looks them
up; a target that moves or disappears is silently left untraced, and its
per-layer metric reads zero. This test makes such a change visible.
"""

import json
from collections import Counter
from pathlib import Path

import pytest

from mmood.cli import main
from mmood.config import load_config
from mmood.corpus import load_corpus
from mmood.scoring import SCORERS
from conftest import split

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_span_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import SPANS, Tracer

    tracer = Tracer()
    with tracer.installed():
        pass
    assert tracer.missing == []
    assert len(SPANS) > 0


def test_traced_run_names_every_scorer_and_mode(micro, monkeypatch):
    """A traced micro ``train`` (one epoch per stage) and ``eval --scorer
    all`` open a span for each scorer's fit and apply, both encoder
    readouts forward and backward, and weighted fusion forward and
    backward. The record counter sees train's Mahalanobis results row score
    the test split once, then eval's six scorers score it once each."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    cfg = micro["cfg"]
    cfg.write_text(cfg.read_text().replace("stage2_epochs = 2",
                                           "stage2_epochs = 1"))
    run, evaled = micro["tmp"] / "run", micro["tmp"] / "eval"
    tracer = Tracer()
    with tracer.installed():
        assert main(["train", "--config", str(cfg), "--corpus",
                     str(micro["corpus"]), "--out", str(run)]) == 0
        scored_in_train = dict(tracer.counts)
        assert main(["eval", "--config", str(cfg), "--checkpoint", str(run),
                     "--corpus", str(micro["corpus"]), "--out", str(evaled),
                     "--scorer", "all"]) == 0
    assert tracer.missing == []
    expected = {f"scoring.{step}.{v}" for step in ("fit_scorer", "apply_scorer")
                for v in SCORERS}
    expected |= {f"encoders.{step}.{kind}" for kind in ("cls", "pool")
                 for step in ("forward_batch", "backward_batch")}
    expected |= {"fusion.forward.weighted", "fusion.backward.weighted"}
    assert expected <= set(tracer.names)
    n_test = len(split(load_corpus(micro["corpus"]), "test"))
    assert scored_in_train == {"scoring.records_scored": n_test}
    assert tracer.counts == {
        "scoring.records_scored": n_test + len(SCORERS) * n_test}


@pytest.mark.parametrize("ablation", ["full", "no_binary"])
def test_training_loop_call_counts(micro, monkeypatch, ablation):
    """A traced micro ``train`` draws one epoch's batches per epoch that ran
    in either stage and mixes one batch per step; it reads features once
    per stage-2 epoch (validation), once for the train split and once for
    the test row. Without a binary head stage 1 opens no span."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    run = micro["tmp"] / "run"
    tracer = Tracer()
    with tracer.installed():
        assert main(["train", "--config", str(micro["cfg"]), "--corpus",
                     str(micro["corpus"]), "--out", str(run),
                     "--ablation", ablation]) == 0
    calls = Counter(tracer.names[i] for i in tracer.name_id)
    log = [json.loads(line) for line in
           (run / "train_log.jsonl").read_text().splitlines()]
    epochs = Counter(e["stage"] for e in log if "stage" in e)
    n_train = len(split(load_corpus(micro["corpus"]), "train"))
    per_epoch = n_train // (load_config(micro["cfg"]).train.batch_size // 2)
    assert epochs["fine"] == 2
    assert epochs["coarse"] == (0 if ablation == "no_binary" else 1)
    assert calls["corpus.make_batches"] == epochs.total()
    assert calls["oodgen.build_mixed_batch"] == per_epoch * epochs.total()
    assert calls["model.features_for"] == epochs["fine"] + 2
    assert calls["heads.coarse_loss"] == per_epoch * epochs["coarse"]
    assert calls["heads.multiclass_loss"] == per_epoch * epochs["fine"]
    assert calls["heads.contrastive_from_views"] == per_epoch * epochs["fine"]
