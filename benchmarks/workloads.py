"""The benchmark's workloads, built from slices of ``zenosim validate all``.

A slice has ``inputs`` distinct inputs, all made from the seed; body ``k``
runs input ``k`` single-process.  Bodies are kept short (about a second or
less) so that a run repeats them many times: on a shared machine the time
of one long body swings with other tenants' load.  Outputs are checked
outside the timed region, on the first body of every input; later bodies of
the same input must reproduce it bit for bit.  The two workloads are
``ensembles`` (twolevel + banddecay) and ``tools`` (references +
simulate-io); see ``WORKLOADS``.  Why each slice exists:

* ``twolevel``: the fig2 ensemble, a 4-level model where a step is mostly
  Python call overhead in ``engine`` and ``models`` plus recording five
  observables.  Body k is 50 trajectories under master seed
  ``1000*seed + k``; the twenty inputs together form the preset's published
  1000 trajectories, which the acceptance criteria check.  ``output``,
  ``oracles`` and ``dmref`` do nothing here.
* ``banddecay``: the fig10 monitored decay (dim 2004, 3000 steps).  A step
  is numpy vector work in ``MeasuredDecayModel.derivative``, so per-call
  overhead is a small share.  Body k is one trajectory; 16 inputs give the
  checked ensemble.
* ``references``: the deterministic oracles of the acceptance suite, one
  call per input: the Laplace-pole residual (nested ``quad``) on the fig10
  and fig12 bands, and dense density-matrix RK4 (fig5 master equation,
  201-mode band).  Only ``oracles`` and ``dmref`` run; the seed does not
  enter.  The traced run adds the full Newton solves of
  ``laplace_decay_rate`` as two more inputs.
* ``simulate-io``: ``zenosim simulate fig2 --per-trajectory``, where most
  time goes to CSV output and the CLI's serial re-run of every trajectory.
"""

from __future__ import annotations

import io
import json
import shutil
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from zenosim import acceptance, cli, dmref, ensemble, oracles, output, preset

TAU_M = 5.0
BAND_FLOOR = 0.01       # the acceptance suite's additive band floor
REF_REL_TOL = 1e-8      # references must reproduce the recorded values
HERE = Path(__file__).resolve().parent
RECORDED = HERE / "references.json"


def plain_call(name, fn, *args):
    return fn(*args)


class Checks:
    """Correctness checks of one run, and their diagnostic figures."""

    def __init__(self):
        self.lines: list[tuple[str, bool, str]] = []
        self.diag = {"check.band_ratio": 0.0, "check.ref_rel_err": 0.0,
                     "check.decay_rate_rel_err": 0.0}

    def add(self, name: str, ok, detail: str = "") -> None:
        self.lines.append((name, bool(ok), detail))

    @property
    def failed(self) -> int:
        return sum(not ok for _, ok, _ in self.lines)


def band_ratio(checks, times, curve, target, stderr, t_lo) -> float:
    """Worst |curve - target| / (5*stderr + 0.01) for t >= t_lo, the acceptance
    suite's pointwise band (passes at <= 1); kept as check.band_ratio."""
    mask = times >= t_lo
    worst = float(np.max(np.abs(curve[mask] - target[mask])
                         / (5.0 * stderr[mask] + BAND_FLOOR)))
    checks.diag["check.band_ratio"] = max(checks.diag["check.band_ratio"], worst)
    return worst


def band_check(checks, label, times, curve, target, stderr, t_lo) -> None:
    worst = band_ratio(checks, times, curve, target, stderr, t_lo)
    checks.add(f"{label} within 5*stderr+{BAND_FLOOR:g} from t={t_lo:g}", worst <= 1.0,
               f"worst ratio {worst:.4g}")


def detector_reference():
    """Master-equation populations of fig2 on the ensemble's output grid."""
    times, rhos = dmref.evolve_master_detector(preset("fig2").model, t_max=30.0, dt=0.01,
                                               record_every=10)
    return times, dmref.four_level_populations(rhos)


def same_stats(a, b) -> bool:
    return a.total_jumps == b.total_jumps and all(
        np.array_equal(a.mean[k], b.mean[k]) and np.array_equal(a.std_error[k], b.std_error[k])
        for k in a.mean)


def pooled(parts):
    """One EnsembleStatistics over independent sub-ensembles, inverting the
    engine's ``stderr = sqrt((E[x^2] - mean^2) / (n - 1))`` for each part."""
    n = sum(p.n_trajectories for p in parts)
    mean, std_error = {}, {}
    for key in parts[0].mean:
        total = sum(p.n_trajectories * p.mean[key] for p in parts)
        squares = sum(p.n_trajectories * (p.std_error[key] ** 2 * (p.n_trajectories - 1)
                                          + p.mean[key] ** 2) for p in parts)
        mean[key] = total / n
        std_error[key] = np.sqrt(np.maximum(squares / n - mean[key] ** 2, 0.0) / (n - 1))
    return ensemble.EnsembleStatistics(
        times=parts[0].times.copy(), mean=mean, std_error=std_error, n_trajectories=n,
        total_jumps=sum(p.total_jumps for p in parts))


class _GivenDetectorRuns(acceptance.AcceptanceRuns):
    """Acceptance runs whose fig2 ensemble is the one the benchmark timed."""

    def __init__(self, stats, reference):
        super().__init__(workers=1, n_detector=stats.n_trajectories)
        self._stats = stats
        self._reference = reference

    def detector_stats(self):
        return self._stats

    def detector_dm(self):
        return self._reference


class Workload:
    inputs = 1
    ops = 1   # operations per body

    def group(self, k: int) -> int:
        """Bodies of one group do the same work; the reported time of a pass
        is the sum over groups of each group's median body."""
        return 0

    def operations(self, k: int) -> int:
        return self.ops

    def same(self, k: int, a, b) -> bool:
        return a == b

    def discard(self, k: int, out) -> None:
        pass

    def traced(self) -> None:
        """Called before a traced run."""

    def cleanup(self) -> None:
        pass


class EnsembleWorkload(Workload):
    preset_name = ""
    trajectories = 0

    def __init__(self, seed: int, tiny: bool):
        self.presets = (self.preset_name,)
        base = preset(self.preset_name)
        self.configs = [base.with_overrides(master_seed=1000 * seed + k,
                                            n_trajectories=self.trajectories)
                        for k in range(self.inputs)]
        self.steps = self.trajectories * int(round(base.t_max / base.dt))
        self.ops = self.trajectories

    def body(self, k, call=plain_call):
        return ensemble.run_ensemble(self.configs[k], workers=1)

    def same(self, k, a, b) -> bool:
        return same_stats(a, b)


class TwoLevel(EnsembleWorkload):
    name = "twolevel"
    preset_name = "fig2"
    inputs = 20
    trajectories = 50

    def check(self, outputs, checks: Checks) -> None:
        stats = pooled(outputs)
        times, dm = detector_reference()
        result = acceptance.criterion_trajectory_dm_equivalence(
            _GivenDetectorRuns(stats, (times, dm)))
        for line in result.lines:
            checks.add(f"{result.name}: {line.label}", line.ok,
                       f"measured {line.measured:.6g}, tol {line.tolerance}")
        band_ratio(checks, stats.times, stats.mean["rho_aa"], dm["rho_aa"],
                   stats.std_error["rho_aa"], 0.0)
        self.check_coherence(stats, times, dm, checks)

    @staticmethod
    def check_coherence(stats, times, dm, checks: Checks) -> None:
        """The detector-coherence criterion, with its band started where the
        closed form 0.5 exp(-t/tau_m) agrees with the master equation to
        within the band floor (the suite's rule for closed forms).  Before
        t ~ 0.7 the exact coherence sits up to 0.016 above the closed form,
        which leaves the criterion as written failing on some seeds."""
        mag = np.hypot(stats.mean["rho_eg_re"], stats.mean["rho_eg_im"])
        se = np.hypot(stats.std_error["rho_eg_re"], stats.std_error["rho_eg_im"])
        closed = 0.5 * np.exp(-stats.times / TAU_M)
        exact = np.hypot(dm["rho_eg_re"], dm["rho_eg_im"])
        off = np.nonzero(np.abs(exact - closed) > BAND_FLOOR)[0]
        t_valid = float(times[off[-1] + 1]) if len(off) else 0.0
        mask = stats.times <= 25.0
        band_check(checks, "detector-coherence: |<rho_eg>| vs 0.5*exp(-t/5)", stats.times[mask],
                   mag[mask], closed[mask], se[mask], t_valid)
        fit = ensemble.fit_exponential_rate(stats.times, mag, (0.0, 15.0))
        tol = 0.15 * max(1.0, np.sqrt(1000 / stats.n_trajectories))
        checks.add("detector-coherence: coherence decay rate",
                   abs(fit.rate - 1.0 / TAU_M) <= tol / TAU_M,
                   f"measured {fit.rate:.6g}, tol rel {tol:.3g}")


class BandDecay(EnsembleWorkload):
    name = "banddecay"
    preset_name = "fig10"
    trajectories = 1

    def __init__(self, seed: int, tiny: bool):
        self.inputs = 4 if tiny else 16
        super().__init__(seed, tiny)

    def pool_diagnostics(self, checks: Checks, cpu_seconds) -> dict:
        """Input 0 as a 2-trajectory ensemble at workers=1 and at workers=2
        (one trajectory per worker), untraced."""
        config = self.configs[0].with_overrides(n_trajectories=2)
        runs = []
        for workers in (1, 2):
            w0, c0 = time.perf_counter(), cpu_seconds()
            stats = ensemble.run_ensemble(config, workers=workers)
            runs.append((time.perf_counter() - w0, cpu_seconds() - c0, stats))
        checks.add("workers=2 gives the workers=1 ensemble", same_stats(runs[0][2], runs[1][2]))
        return {"ensemble.pool_speedup": runs[0][0] / runs[1][0],
                "ensemble.pool_cpu_overhead_s": runs[1][1] - runs[0][1]}

    def check(self, outputs, checks: Checks) -> None:
        stats = pooled(outputs)
        rate = oracles.measured_decay_rate(self.configs[0].model.reservoir, TAU_M).rate
        target = np.exp(-rate * stats.times)
        m = stats.mean["rho_ee"]
        se = stats.std_error["rho_ee"]
        # The suite's band, with the stderr floored at the binomial error of
        # n trajectories that are each still excited with probability
        # ``target``: at a few tens of trajectories, every trajectory often
        # still coincides near t = 2 tau_m, where the sample stderr is 0.
        binomial = np.sqrt(target * (1.0 - target) / stats.n_trajectories)
        band_check(checks, f"{stats.n_trajectories} trajectories: rho_ee vs exp(-Gamma_m t), "
                   "stderr >= binomial", stats.times, m, target, np.maximum(se, binomial),
                   2.0 * TAU_M)
        # diagnostic only: at a few tens of trajectories the default window
        # ends early and the fitted rate sits well below Gamma_m
        try:
            window = ensemble.default_fit_window(stats.times, m, se, t_start=2.0 * TAU_M)
            fitted = ensemble.fit_exponential_rate(stats.times, m, window).rate
            checks.diag["check.decay_rate_rel_err"] = abs(fitted - rate) / rate
        except ValueError:
            checks.diag["check.decay_rate_rel_err"] = 1.0


class References(Workload):
    name = "references"
    presets = ("fig5", "fig10", "fig12")

    def __init__(self, seed: int, tiny: bool):
        self.size = "tiny" if tiny else "full"
        self.master_t = 3.0 if tiny else 30.0
        self.band_t = 1.0 if tiny else 2.0
        self.flat = preset("fig10").model.reservoir
        self.sloped = preset("fig12").model.reservoir
        self.coarse = self.flat.with_modes(201)
        self.zeno = preset("fig5").model
        self.steps = int(round(self.master_t / 0.01)) + int(round(self.band_t / 0.05))
        self.solve = False

    def traced(self) -> None:
        self.solve = True   # the Newton solves become inputs 4 and 5

    @property
    def inputs(self) -> int:
        return 6 if self.solve else 4

    def group(self, k: int) -> int:
        return k

    def body(self, k, call=plain_call):
        if k < 2:
            # the residual where Newton starts, -golden_rate/2
            res = (self.flat, self.sloped)[k]
            r = oracles.laplace_rate_equation_residual(-0.5 * res.golden_rate(), res, TAU_M,
                                                       epsrel=1e-8)
            return {("residual_flat", "residual_sloped")[k]: [r.real, r.imag]}
        if k == 2:
            _, rhos = dmref.evolve_master_detector(self.zeno, t_max=self.master_t, dt=0.01,
                                                   record_every=10)
            pops = dmref.four_level_populations(rhos)
            # every 10th recorded point, i.e. one per unit of time
            return {"master_rho_gg": pops["rho_gg"][::10].tolist(),
                    "master_rho_aa": pops["rho_aa"][::10].tolist()}
        if k == 3:
            _, band = dmref.evolve_measured_decay_dm(self.coarse, TAU_M, t_max=self.band_t,
                                                     dt=0.05, record_every=20)
            return {"band_dm_rho_ee": band.tolist()}
        key, res = (("laplace_flat", self.flat), ("laplace_sloped", self.sloped))[k - 4]
        return {key: call(f"oracles.{key}", oracles.laplace_decay_rate, res, TAU_M)}

    def check(self, outputs, checks: Checks) -> None:
        expected = json.loads(RECORDED.read_text())[self.size]
        values = {key: v for out in outputs for key, v in out.items()}
        worst = 0.0
        for key in values:
            got = np.atleast_1d(np.asarray(values[key], dtype=float))
            want = np.atleast_1d(np.asarray(expected[key], dtype=float))
            if got.shape != want.shape:
                checks.add(f"{key} matches recorded values", False, "shape differs")
                continue
            err = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
            worst = max(worst, err)
            checks.add(f"{key} matches recorded values", err <= REF_REL_TOL,
                       f"relative error {err:.3g}")
        checks.diag["check.ref_rel_err"] = worst


class SimulateIO(Workload):
    name = "simulate-io"
    presets = ("fig2",)

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.n = 20 if tiny else 50
        cfg = preset("fig2")
        self.steps = 2 * self.n * int(round(cfg.t_max / cfg.dt))  # ensemble + re-run
        self.ops = self.n + self.n + 2   # trajectories, then a file each + 2
        self.root = HERE / "out" / f"simulate-io-{seed}"
        self._reps = 0

    def body(self, k, call=plain_call):
        outdir = self.root / f"rep{self._reps}"
        self._reps += 1
        argv = ["simulate", "fig2", "--per-trajectory", "--workers", "1",
                "--n-trajectories", str(self.n), "--seed", str(self.seed),
                "--output", str(outdir)]
        with redirect_stdout(io.StringIO()):
            code = call("cli.simulate", cli.main, argv)
        return code, outdir

    def same(self, k, a, b) -> bool:
        return (a[1] / "ensemble.csv").read_bytes() == (b[1] / "ensemble.csv").read_bytes()

    def discard(self, k, out) -> None:
        shutil.rmtree(out[1], ignore_errors=True)

    def check(self, outputs, checks: Checks) -> None:
        code, outdir = outputs[0]
        checks.add("simulate exits 0", code == 0, f"exit code {code}")
        files = sorted(p.name for p in outdir.iterdir()) if outdir.is_dir() else []
        checks.add("simulate writes every file", len(files) == self.n + 2,
                   f"{len(files)} files, expected {self.n + 2}")
        if "ensemble.csv" not in files:
            checks.add("ensemble.csv reads back", False, "missing")
            return
        data = output.read_ensemble_csv(outdir / "ensemble.csv")
        times, dm = detector_reference()
        ok_grid = len(data["t"]) == len(times) and np.allclose(data["t"], times)
        checks.add("ensemble.csv reads back on the reference grid", ok_grid)
        if ok_grid:
            band_check(checks, "rho_aa from ensemble.csv vs master equation", times,
                       data["rho_aa_mean"], dm["rho_aa"], data["rho_aa_stderr"], 0.0)

    def cleanup(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


class Composite:
    """Several workloads run as one: their inputs interleaved and their groups
    kept apart, so a pass is the median body of every group of every part."""

    def __init__(self, name: str, parts: list):
        self.name = name
        self.parts = parts
        self.steps = sum(p.steps for p in parts)

    @property
    def presets(self) -> tuple:
        return tuple(dict.fromkeys(name for p in self.parts for name in p.presets))

    @property
    def inputs(self) -> int:
        return sum(p.inputs for p in self.parts)

    def _where(self, k: int):
        """Input k as (part index, part, the part's own input index)."""
        order = [(i, p, j) for j in range(max(p.inputs for p in self.parts))
                 for i, p in enumerate(self.parts) if j < p.inputs]
        return order[k]

    def group(self, k: int):
        i, part, j = self._where(k)
        return i, part.group(j)

    def operations(self, k: int) -> int:
        _, part, j = self._where(k)
        return part.operations(j)

    def body(self, k, call=plain_call):
        _, part, j = self._where(k)
        return part.body(j, call)

    def same(self, k, a, b) -> bool:
        _, part, j = self._where(k)
        return part.same(j, a, b)

    def discard(self, k, out) -> None:
        _, part, j = self._where(k)
        part.discard(j, out)

    def check(self, outputs, checks: Checks) -> None:
        per_part = [{} for _ in self.parts]
        for k, out in enumerate(outputs):
            i, _, j = self._where(k)
            per_part[i][j] = out
        for part, mine in zip(self.parts, per_part):
            part.check([mine[j] for j in range(part.inputs)], checks)

    def pool_diagnostics(self, checks: Checks, cpu_seconds) -> dict:
        out = {}
        for part in self.parts:
            if hasattr(part, "pool_diagnostics"):
                out.update(part.pool_diagnostics(checks, cpu_seconds))
        return out

    def traced(self) -> None:
        for part in self.parts:
            part.traced()

    def cleanup(self) -> None:
        for part in self.parts:
            part.cleanup()


WORKLOADS = {
    "ensembles": lambda seed, tiny: Composite(
        "ensembles", [TwoLevel(seed, tiny), BandDecay(seed, tiny)]),
    "tools": lambda seed, tiny: Composite(
        "tools", [References(seed, tiny), SimulateIO(seed, tiny)]),
}
