"""The benchmark's tracer patches module attributes by name; a renamed or
removed attribute should fail here, not only in the benchmark."""

import importlib
import os

import affinecrystal
import affinecrystal.graphs as graphs

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(REPO_ROOT)
    tracing = importlib.import_module("perfbench.tracing")
    original = graphs.__dict__["is_regular"]
    with tracing.installed(tracing.Tracer(), affinecrystal):
        assert graphs.is_regular is not original
    assert graphs.is_regular is original


def test_tracer_counts_partition_steps(monkeypatch):
    # one kernel.step per expanded vertex and color; a BFS that bound the
    # kernel at import time would bypass the tracer and count none
    monkeypatch.syspath_prepend(REPO_ROOT)
    tracing = importlib.import_module("perfbench.tracing")
    n, depth = 4, 6
    expanded = len(graphs.generate_graph("partition", n, depth - 1).vertices)
    tracer = tracing.Tracer()
    with tracing.installed(tracer, affinecrystal):
        graphs.generate_graph("partition", n, depth)
    assert tracer.calls["kernel.step"] == n * expanded
