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
