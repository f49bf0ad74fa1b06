"""Every span the benchmark tracer names still resolves in the package.

The tracer in ``perfbench/`` patches functions where ``mmood`` looks them
up; a target that moves or disappears is silently left untraced, and its
per-layer metric reads zero. This test makes such a change visible.
"""

from pathlib import Path

from mmood.cli import main
from mmood.corpus import load_corpus
from mmood.scoring import SCORERS

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
    n_test = len(load_corpus(micro["corpus"]).split("test"))
    assert scored_in_train == {"scoring.records_scored": n_test}
    assert tracer.counts == {
        "scoring.records_scored": n_test + len(SCORERS) * n_test}
