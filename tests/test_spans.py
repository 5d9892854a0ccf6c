"""The benchmark's per-layer spans (perfbench/spans.py) still find every library
function they wrap, so a removed or renamed function fails here rather than
in a traced benchmark run."""

from pathlib import Path

import numpy as np
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


def test_traced_discover_run_counts_the_lm_layers(monkeypatch, capsys):
    """A traced ``discover`` command reaches the wrapped LM entry point, so the
    discovery layers cannot read 0 while the fits run."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import spans

    from cubasquare import cli

    tracer = spans.Tracer()
    try:
        tracer.install()
        assert cli.main(["discover", "odd", "5", "--seeds", "1", "--rng", "0"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert tracer.calls["discover.lm"] > 0
    assert tracer.counts["discover.lm.nfev"] > 0
    assert tracer.counts["discover.lm.njev"] > 0
    for group in ("discover.residual", "discover.jacobian"):
        assert tracer.calls[group] > 0
        assert tracer.self_s[group] > 0


def test_each_table_function_is_one_traced_call(monkeypatch):
    """Each public table function counts once, with its (nmax + 1) x size
    values: none of them reaches the others, so no table is counted twice.
    ``chebyshev_t_table`` has no span of its own and counts nothing."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import spans

    from cubasquare import univariate

    x = np.linspace(-1.0, 1.0, 15).reshape(3, 5)
    calls = [
        (lambda: univariate.jacobi_normalized_table(0.3, -0.2, 9, x), 10),
        (lambda: univariate.jacobi_normalized_table_with_derivative(0.3, -0.2, 9, x), 10),
        (lambda: univariate.eval_chebyshev_t(9, x), 10),
        (lambda: univariate.eval_chebyshev_u(9, x), 10),
        (lambda: univariate.chebyshev_t_table(9, x), 0),
    ]
    for call, rows in calls:
        tracer = spans.Tracer()
        try:
            tracer.install()
            call()
        finally:
            tracer.uninstall()
        assert tracer.calls["univariate.table"] == (1 if rows else 0)
        assert tracer.counts["univariate.table.values"] == rows * x.size
