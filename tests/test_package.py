"""The package's public names, and the benchmark tracer's hooks into them."""

import importlib
from pathlib import Path

import zenosim

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_public_names_and_tracer_hooks(monkeypatch):
    missing = [name for name in zenosim.__all__ if not hasattr(zenosim, name)]
    assert missing == []

    # benchmarks/tracing.py patches the package by name; a deleted or renamed
    # target fails here instead of only in the traced benchmark run
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    tracing.install(tracer)
    patched = list(tracer._patches)
    assert patched
    tracer.restore()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, (owner, attr)
