"""Every span the benchmark tracer names still resolves in the package.

The tracer in ``perfbench/`` patches functions where ``mmood`` looks them
up; a target that moves or disappears is silently left untraced, and its
per-layer metric reads zero. This test makes such a change visible.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_span_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import SPANS, Tracer

    tracer = Tracer()
    with tracer.installed():
        pass
    assert tracer.missing == []
    assert len(SPANS) > 0
