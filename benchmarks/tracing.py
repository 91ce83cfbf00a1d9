"""In-memory tracing of zenosim's layers, installed from outside the package.

A ``Tracer`` replaces public functions and methods of the package with
timing wrappers (by patching module attributes and classes) and restores
them afterwards; nothing under ``src/`` is edited.  Each wrapped call is
accounted to its (parent, name) pair: call count, total time, time spent in
wrapped children, and the number of wrapped calls made below it.  Calls made
every integration step are only aggregated that way; coarse calls (one
ensemble, one trajectory, one file, one reference) also keep an individual
span (id, name, start, end, parent id).  Spans stay in memory and are
written out by the caller when the run ends.

Wrapper cost is measured once per run (``wrapper_cost``) and subtracted per
wrapped call from every reported time, so self times are not inflated by
the wrappers of their children.
"""

from __future__ import annotations

import inspect
import os
import time
from dataclasses import dataclass


@dataclass
class Node:
    """Aggregate of all calls of one name under one parent name."""

    calls: int = 0
    total: float = 0.0   # seconds inside the call, wrappers of children included
    child: float = 0.0   # seconds inside wrapped direct children
    direct: int = 0      # wrapped direct child calls
    desc: int = 0        # wrapped calls anywhere below


class Tracer:
    def __init__(self, wrapper_s: float = 0.0):
        self.agg: dict[tuple[str, str], Node] = {}
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.counters: dict[str, float] = {}
        self.wrapper_s = wrapper_s  # cost of one empty wrapped call, see wrapper_cost
        # frame: [name, child seconds, direct calls, descendant calls, span id]
        self._stack = [["root", 0.0, 0, 0, 0]]
        self._ids = 0
        self._patches = []

    # -- recording -----------------------------------------------------------
    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def maximum(self, key: str, value: float) -> None:
        if value > self.counters.get(key, float("-inf")):
            self.counters[key] = value

    def wrap(self, name, fn, span=False, before=None, after=None):
        """Timing wrapper around ``fn``.

        ``before(args, kwargs)`` runs ahead of the call and ``after(args,
        kwargs, result, parent_name)`` after it, both outside the timed
        interval.
        """
        stack = self._stack
        agg = self.agg
        spans = self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if span:
                self._ids += 1
                frame = [name, 0.0, 0, 0, self._ids]
            else:
                frame = [name, 0.0, 0, 0, 0]
            if before is not None:
                before(args, kwargs)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            elapsed = t1 - t0
            parent[1] += elapsed
            parent[2] += 1
            parent[3] += 1 + frame[3]
            key = (parent[0], name)
            node = agg.get(key)
            if node is None:
                node = agg[key] = Node()
            node.calls += 1
            node.total += elapsed
            node.child += frame[1]
            node.direct += frame[2]
            node.desc += frame[3]
            if span:
                spans.append((frame[4], name, t0, t1, parent[4]))
            if after is not None:
                after(args, kwargs, result, parent[0])
            return result

        return wrapper

    def call(self, name, fn, *args):
        """Run ``fn(*args)`` as a span of the benchmark's own code."""
        return self.wrap(name, fn, span=True)(*args)

    # -- patching ------------------------------------------------------------
    def patch(self, owner, attr, name, **kw) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **kw))

    def replace(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reporting -------------------------------------------------------------
    def nodes(self, name, parent=None):
        return [n for (p, nm), n in self.agg.items()
                if nm == name and (parent is None or p == parent)]

    def calls(self, name, parent=None) -> int:
        return sum(n.calls for n in self.nodes(name, parent))

    def total_s(self, name, parent=None) -> float:
        """Time inside ``name``, less the wrapper cost of every call below it."""
        return sum(max(n.total - self.wrapper_s * n.desc, 0.0)
                   for n in self.nodes(name, parent))

    def self_s(self, name, parent=None) -> float:
        """Time inside ``name`` not covered by wrapped children or their wrappers."""
        return sum(max(n.total - n.child - self.wrapper_s * n.direct, 0.0)
                   for n in self.nodes(name, parent))

    def dump(self) -> dict:
        return {
            "wrapper_s": self.wrapper_s,
            "aggregates": [
                {"parent": p, "name": nm, "calls": n.calls, "total_s": n.total,
                 "child_s": n.child, "direct_calls": n.direct, "below_calls": n.desc}
                for (p, nm), n in sorted(self.agg.items())
            ],
            "counters": dict(sorted(self.counters.items())),
            "spans": [{"id": i, "name": nm, "start": a, "end": b, "parent": p}
                      for i, nm, a, b, p in self.spans],
        }


def _noop():
    return None


def wrapper_cost(n: int = 200_000, trials: int = 5) -> float:
    """Cost of one empty wrapped call over a bare call, in seconds (best of
    ``trials``, so other tenants of the machine do not inflate it)."""
    wrapped = Tracer().wrap("noop", _noop)
    clock = time.perf_counter
    best = float("inf")
    for _ in range(trials):
        t0 = clock()
        for _ in range(n):
            _noop()
        t1 = clock()
        for _ in range(n):
            wrapped()
        t2 = clock()
        best = min(best, ((t2 - t1) - (t1 - t0)) / n)
    return max(best, 0.0)


class _RngProxy:
    """Stands in for the Generator an ``RngStream`` returns; times ``random``."""

    def __init__(self, gen, tracer: Tracer):
        self._gen = gen
        self.random = tracer.wrap("engine.rng", gen.random)

    def __getattr__(self, attr):
        return getattr(self._gen, attr)


class _IntegrateProxy:
    """Stands in for ``scipy.integrate`` inside ``zenosim.oracles``; times ``quad``."""

    def __init__(self, module, tracer: Tracer):
        self._module = module
        self.quad = tracer.wrap("oracles.quad", module.quad)

    def __getattr__(self, attr):
        return getattr(self._module, attr)


def _arguments(fn):
    """``(args, kwargs) -> {parameter name: value}`` for calls of ``fn``."""
    signature = inspect.signature(fn)
    return lambda args, kwargs: signature.bind(*args, **kwargs).arguments


def install(tracer: Tracer) -> None:
    """Wrap every layer of the imported package; undo with ``tracer.restore()``.

    Functions are replaced where their callers look them up (``build_model``
    and ``run_trajectory`` are imported by name into ``ensemble`` and ``cli``).
    """
    from zenosim import cli, dmref, engine, ensemble, models, oracles

    traj_args = _arguments(engine.run_trajectory)

    def traj_before(args, kwargs):
        call = traj_args(args, kwargs)
        tracer.counters["_dt"] = call["config"].dt
        tracer.counters["_dim"] = call["model"].dim

    def traj_after(args, kwargs, rec, parent):
        call = traj_args(args, kwargs)
        steps = int(round(call["config"].t_max / call["config"].dt))
        tracer.count("engine.steps", steps)
        tracer.count("engine.jumps", len(rec.jumps))
        if parent == "cli.simulate":
            tracer.count("cli.rerun_steps", steps)

    for mod in (ensemble, cli):
        tracer.patch(mod, "run_trajectory", "engine.run_trajectory", span=True,
                     before=traj_before, after=traj_after)
        tracer.patch(mod, "run_ensemble", "ensemble.run_ensemble", span=True)
        tracer.patch(mod, "build_model", "config.build_model", span=True)

    original_generator = engine.RngStream.generator

    def generator(self):
        return _RngProxy(original_generator(self), tracer)

    tracer.replace(engine.RngStream, "generator", generator)

    def weight_after(args, kwargs, w, parent):
        if parent == "engine.run_trajectory":   # the engine's jump decision
            tracer.maximum("engine.max_jump_prob", args[0].gamma * tracer.counters["_dt"] * w)

    for cls in (models.DetectorMeasurementModel, models.RabiMeasuredModel,
                models.FreeDecayModel, models.MeasuredDecayModel):
        tracer.patch(cls, "derivative", "models.derivative")
        tracer.patch(cls, "excited_weight", "models.excited_weight", after=weight_after)
        tracer.patch(cls, "collapse_amplitudes", "models.collapse")
        original_observables = cls.observables

        def observables(self, _orig=original_observables):
            return {k: tracer.wrap("models.observe", f) for k, f in _orig(self).items()}

        tracer.replace(cls, "observables", observables)

    tracer.patch(oracles, "laplace_rate_equation_residual", "oracles.residual")
    tracer.replace(oracles, "integrate", _IntegrateProxy(oracles.integrate, tracer))

    def dm_steps(key, fn):
        fn_args = _arguments(fn)

        def after(args, kwargs, result, parent):
            call = fn_args(args, kwargs)
            tracer.count(key + ".steps", int(round(call["t_max"] / call["dt"])))
        return after

    for attr, name in (("evolve_master_detector", "dmref.master"),
                       ("evolve_measured_decay_dm", "dmref.band_dm")):
        tracer.patch(dmref, attr, name, span=True, after=dm_steps(name, getattr(dmref, attr)))

    def file_bytes(key):
        def after(args, kwargs, result, parent):
            tracer.count(key, os.path.getsize(args[0]))
        return after

    for attr, name in (("write_ensemble_csv", "output.ensemble_csv"),
                       ("write_trajectory_csv", "output.trajectory_csv"),
                       ("write_manifest", "output.manifest")):
        tracer.patch(cli, attr, name, span=True, after=file_bytes(name + ".bytes"))


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced body, keyed by metric name."""
    c = tr.counters.get
    out = {}
    steps = c("engine.steps", 0.0)
    out["engine.steps"] = steps
    out["engine.jumps"] = c("engine.jumps", 0.0)
    out["engine.jump_fraction"] = out["engine.jumps"] / steps if steps else 0.0
    out["engine.max_jump_prob"] = c("engine.max_jump_prob", 0.0)
    # the engine draws one uniform per call
    out["engine.rng_draws"] = tr.calls("engine.rng")
    out["engine.rng_s"] = tr.total_s("engine.rng")
    out["engine.self_s"] = tr.self_s("engine.run_trajectory")
    traj_s = tr.total_s("engine.run_trajectory")
    out["engine.us_per_step"] = 1e6 * traj_s / steps if steps else 0.0

    for short, name in (("derivative", "models.derivative"),
                        ("excited_weight", "models.excited_weight"),
                        ("collapse", "models.collapse"),
                        ("observe", "models.observe")):
        n = tr.calls(name)
        s = tr.total_s(name)
        out[f"models.{short}.calls"] = n
        out[f"models.{short}.s"] = s
        out[f"models.{short}.us_per_call"] = 1e6 * s / n if n else 0.0
    # computed, not measured: one complex amplitude array in and one out per call
    out["models.derivative.bytes"] = out["models.derivative.calls"] * 2 * 16 * c("_dim", 0.0)

    out["ensemble.run_s"] = tr.total_s("ensemble.run_ensemble")
    out["ensemble.merge_s"] = tr.self_s("ensemble.run_ensemble")

    out["oracles.laplace_flat.s"] = tr.total_s("oracles.laplace_flat")
    out["oracles.laplace_sloped.s"] = tr.total_s("oracles.laplace_sloped")
    out["oracles.residual.calls"] = tr.calls("oracles.residual")
    out["oracles.quad.calls"] = tr.calls("oracles.quad")

    for key in ("dmref.master", "dmref.band_dm"):
        s = tr.total_s(key)
        n = c(key + ".steps", 0.0)
        out[key + ".s"] = s
        out[key + ".us_per_step"] = 1e6 * s / n if n else 0.0

    out["output.trajectory_csv.calls"] = tr.calls("output.trajectory_csv")
    out["output.trajectory_csv.s"] = tr.total_s("output.trajectory_csv")
    out["output.trajectory_csv.bytes"] = c("output.trajectory_csv.bytes", 0.0)
    out["output.ensemble_csv.s"] = tr.total_s("output.ensemble_csv")
    out["output.ensemble_csv.bytes"] = c("output.ensemble_csv.bytes", 0.0)
    out["output.manifest.s"] = tr.total_s("output.manifest")
    io_s = out["output.trajectory_csv.s"] + out["output.ensemble_csv.s"] + out["output.manifest.s"]
    io_bytes = (out["output.trajectory_csv.bytes"] + out["output.ensemble_csv.bytes"]
                + c("output.manifest.bytes", 0.0))
    out["output.mb_per_s"] = io_bytes / io_s / 1e6 if io_s else 0.0

    out["cli.simulate.s"] = tr.total_s("cli.simulate")
    out["cli.rerun_steps"] = c("cli.rerun_steps", 0.0)
    out["cli.rerun_s"] = tr.total_s("engine.run_trajectory", parent="cli.simulate")
    return out
