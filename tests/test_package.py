"""The package's public names, what importing it loads, and the benchmark
tracer's hooks into it."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

from scipy import integrate

import zenosim
from zenosim import oracles, preset

ROOT = Path(__file__).resolve().parents[1]
BENCHMARKS = ROOT / "benchmarks"


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


def test_a_run_without_quadrature_or_workers_loads_neither():
    script = """
import sys
import zenosim
cfg = zenosim.RunConfig(zenosim.preset("fig2").model, t_max=1.0, n_trajectories=2)
zenosim.build_model(cfg.model)
zenosim.run_ensemble(cfg, workers=1)
print(*[m for m in ("scipy.integrate", "concurrent.futures.process") if m in sys.modules])
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def test_a_stand_in_for_integrate_receives_every_quad_call(monkeypatch):
    # benchmarks/tracing.py counts the quadratures by swapping oracles.integrate
    res = preset("fig10").model.reservoir
    z = -0.5 * res.golden_rate()
    expected = oracles.laplace_rate_equation_residual(z, res, 5.0)
    calls = []

    class Counting:
        @staticmethod
        def quad(*args, **kwargs):
            calls.append(args[1:3])
            return integrate.quad(*args, **kwargs)

    monkeypatch.setattr(oracles, "integrate", Counting)
    assert oracles.laplace_rate_equation_residual(z, res, 5.0) == expected
    # the real and the imaginary part over the band
    half = res.half_width
    assert calls == [(-half, half), (-half, half)]


def test_laplace_root_of_the_fig10_band():
    # bit for bit the value that scipy 1.17's quad gave before it was
    # imported on first use
    rate = oracles.laplace_decay_rate(preset("fig10").model.reservoir, 5.0)
    assert rate.hex() == "0x1.f2800b343f628p-8"
