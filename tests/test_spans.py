"""The benchmark's per-layer spans (perfbench/spans.py) still find every library
function they wrap, so a removed or renamed function fails here rather than
in a traced benchmark run."""

from pathlib import Path

import pytest


@pytest.mark.parametrize("memory", [False, True])
def test_span_plan_installs_and_uninstalls(memory, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import spans

    tracer = spans.Tracer(memory=memory)
    try:
        tracer.install()
        patched = list(tracer._patches)
    finally:
        tracer.uninstall()
    assert patched
    assert all(getattr(obj, name) is original for obj, name, original in patched)
