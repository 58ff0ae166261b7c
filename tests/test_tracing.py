"""The benchmark's tracer patches module attributes by name; a renamed or
removed attribute should fail here, not only in the benchmark."""

import ast
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


def test_tracer_leaves_graphs_unchanged(monkeypatch):
    monkeypatch.syspath_prepend(REPO_ROOT)
    tracing = importlib.import_module("perfbench.tracing")
    for model in ("partition", "monomial"):
        plain_objects, traced_objects = [], []
        plain = graphs.generate_graph(model, 4, 6, objects=plain_objects)
        with tracing.installed(tracing.Tracer(), affinecrystal):
            traced = graphs.generate_graph(model, 4, 6, objects=traced_objects)
        assert traced == plain
        assert traced_objects == plain_objects


def test_tracer_bindings_match_patches(monkeypatch):
    # graphs.py imports some names only for the tracer to patch; a binding
    # the tracer no longer patches, or a patch with no marked binding,
    # fails here
    monkeypatch.syspath_prepend(REPO_ROOT)
    tracing = importlib.import_module("perfbench.tracing")
    with open(graphs.__file__, encoding="utf-8") as fh:
        source = fh.read()
    lines = source.splitlines()
    marked = {
        alias.asname or alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and "# noqa: F401 (patched by the tracer)" in lines[node.lineno - 1]
        for alias in node.names
    }
    patched = {attr for owner, attr, _ in
               tracing._patches(tracing.Tracer(), affinecrystal)
               if owner is graphs}
    assert marked == patched
