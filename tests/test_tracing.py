"""The benchmark's tracer patches module attributes by name; a renamed or
removed attribute should fail here, not only in the benchmark."""

import ast
import contextlib
import importlib
import io
import os
import types

import affinecrystal
import affinecrystal._backend as _backend
import affinecrystal.arms as arms
import affinecrystal.cli as cli
import affinecrystal.graphs as graphs

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(REPO_ROOT)
    tracing = importlib.import_module("perfbench.tracing")
    original = graphs.__dict__["is_regular"]
    with tracing.installed(tracing.Tracer(), affinecrystal):
        assert graphs.is_regular is not original
    assert graphs.is_regular is original


def test_bfs_calls_kernel_once_per_partition_vertex(monkeypatch):
    # one f_children call per expanded vertex, looked up on _backend.kernel
    # at call time; a BFS that bound the kernel at import time would bypass
    # the proxy (and the tracer) and count none
    n, depth = 4, 6
    expanded = len(graphs.generate_graph("partition", n, depth - 1).vertices)
    kernel = _backend.kernel
    calls = []

    def f_children(*args):
        calls.append(args)
        return kernel.f_children(*args)

    proxy = types.SimpleNamespace(**{k: getattr(kernel, k) for k in dir(kernel)
                                     if not k.startswith("__")})
    proxy.f_children = f_children
    monkeypatch.setattr(_backend, "kernel", proxy)
    graphs.generate_graph("partition", n, depth)
    assert len(calls) == expanded


def test_tracer_counts_kernel_steps(monkeypatch):
    # f_down still lowers through the single-color f_step: one kernel.step
    # per call
    monkeypatch.syspath_prepend(REPO_ROOT)
    tracing = importlib.import_module("perfbench.tracing")
    n = 4
    a = affinecrystal.horizontal_arm(n)
    shapes = [affinecrystal.Partition(p) for p in
              [(), (1,), (2, 1), (3, 1, 1), (4, 2, 2, 1), (5, 3, 1)]]
    tracer = tracing.Tracer()
    with tracing.installed(tracer, affinecrystal):
        for lam in shapes:
            for i in range(n):
                arms.f_down(lam, i, a)
    assert tracer.calls["kernel.step"] == n * len(shapes)


def test_tracer_leaves_graphs_unchanged(monkeypatch):
    monkeypatch.syspath_prepend(REPO_ROOT)
    tracing = importlib.import_module("perfbench.tracing")
    for model in ("partition", "monomial"):
        plain = graphs.generate_graph(model, 4, 6)
        with tracing.installed(tracing.Tracer(), affinecrystal):
            traced = graphs.generate_graph(model, 4, 6)
        assert traced == plain


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


def test_tracer_counts_one_corner_map_per_vertex(monkeypatch):
    # compare --use-psi checks every pair through isomorphism's binding,
    # which the tracer wraps as isomorphism.psi; it builds no graph
    monkeypatch.syspath_prepend(REPO_ROOT)
    tracing = importlib.import_module("perfbench.tracing")
    tracer = tracing.Tracer()
    out = io.StringIO()
    with tracing.installed(tracer, affinecrystal), contextlib.redirect_stdout(out):
        code = cli.main(["--n", "4", "compare", "--model", "partition",
                         "--model2", "monomial", "--depth", "10", "--use-psi"])
    assert (code, out.getvalue()) == (0, "isomorphic (105 vertices)\n")
    assert tracer.calls["isomorphism.psi"] == 105
    assert tracer.calls["graphs.generate"] == tracer.calls["graphs.compare"] == 0
