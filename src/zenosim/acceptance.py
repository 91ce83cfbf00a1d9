"""Acceptance criteria: quantitative checks binding simulation to theory.

Each criterion produces a CriterionResult made of individual CheckLine
entries (measured value, expected value, tolerance, verdict).  Heavy
ensemble runs are shared between criteria through AcceptanceRuns.

Pointwise band checks compare curves as |difference| <= 5 * stderr +
NUMERIC_FLOOR.  The additive floor (0.01 on probability-scale curves)
covers grid points where all trajectories still coincide: stderr is
exactly zero there, while the first-order integration of the drive or the
reservoir coupling and the closed-form approximations differ from the
exact dynamics at the 1e-3..1e-2 level.  Where a closed-form rate
approximation is compared pointwise, the comparison additionally starts
only once the formula itself agrees with the exact master equation to
within the floor; the crossover time is computed from the density-matrix
reference, not hand-tuned.  Where a closed form is used outside its own
validity range, the check compares with the exact reference instead.

Monte Carlo tolerances are stated at a reference trajectory count; when a
criterion runs with fewer trajectories, relative tolerances scale with
sqrt(reference / actual).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import dmref, oracles
from .config import DEFAULT_MASTER_SEED, ModelSpec, RunConfig, build_model, preset
from .engine import RngStream, _renormalize, run_batch, run_trajectory
from .ensemble import (
    EnsembleStatistics,
    block_rate_estimate,
    default_fit_window,
    fit_exponential_rate,
    run_ensemble,
)
from .models import DetectorParams, DriveParams

NUMERIC_FLOOR = 0.01
TAU_M = 5.0  # gamma=10, lam=1 presets


@dataclass
class CheckLine:
    label: str
    measured: float
    expected: float
    tolerance: str
    ok: bool


@dataclass
class CriterionResult:
    name: str
    lines: list[CheckLine] = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(l.ok for l in self.lines)

    def add(self, label, measured, expected, tolerance, ok):
        self.lines.append(CheckLine(label, float(measured), float(expected),
                                    tolerance, bool(ok)))


def _mc_scale(reference_n: int, actual_n: int) -> float:
    return max(1.0, np.sqrt(reference_n / actual_n))


def _band_check(result, label, times, curve, target, stderr, t_lo, t_hi,
                floor=NUMERIC_FLOOR):
    mask = (times >= t_lo) & (times <= t_hi)
    allowed = 5.0 * stderr[mask] + floor
    excess = np.abs(curve[mask] - target[mask]) - allowed
    worst = int(np.argmax(excess))
    result.add(
        f"{label} max|diff|-5se at t={times[mask][worst]:.3g}",
        excess[worst] + allowed[worst],
        0.0,
        f"<= 5*stderr+{floor:g} on [{t_lo:g},{t_hi:g}]",
        bool(excess[worst] <= 0.0),
    )


class AcceptanceRuns:
    """Lazily computed, memoized ensemble runs and references."""

    # decay-family criteria are stated at n >= 200; the suppression gap of
    # the flat-coupling case is only ~20% of the free rate, so its ensembles
    # run at 800 trajectories to resolve the 3-sigma significance, while the
    # larger anti-Zeno gap is comfortable at 400
    def __init__(self, workers: Optional[int] = None,
                 master_seed: int = DEFAULT_MASTER_SEED,
                 n_detector: int = 1000, n_zeno: int = 1000,
                 n_detuned: int = 200, n_decay: int = 800, n_anti: int = 400):
        self.workers = workers
        self.master_seed = master_seed
        self.n_detector = n_detector
        self.n_zeno = n_zeno
        self.n_detuned = n_detuned
        self.n_decay = n_decay
        self.n_anti = n_anti
        self._cache: dict[str, object] = {}

    def _memo(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def _run(self, config: RunConfig, keep_curves=False) -> EnsembleStatistics:
        return run_ensemble(config, workers=self.workers, keep_curves=keep_curves)

    # -- detector family ----------------------------------------------------
    def detector_stats(self) -> EnsembleStatistics:
        cfg = preset("fig2").with_overrides(n_trajectories=self.n_detector,
                                            master_seed=self.master_seed)
        return self._memo("detector_stats", lambda: self._run(cfg))

    def detector_jump_stats(self) -> EnsembleStatistics:
        cfg = preset("fig2").with_overrides(
            n_trajectories=self.n_detector, master_seed=self.master_seed,
            t_max=50.0, observables=("rho_gg",),
        )
        return self._memo("detector_jump_stats", lambda: self._run(cfg))

    def detector_dm(self):
        def make():
            spec = preset("fig2").model
            times, rhos = dmref.evolve_master_detector(spec, t_max=30.0, dt=0.01,
                                                       record_every=10)
            return times, dmref.four_level_populations(rhos)
        return self._memo("detector_dm", make)

    # -- measured two-level family ------------------------------------------
    def zeno_stats(self) -> EnsembleStatistics:
        cfg = preset("fig5").with_overrides(n_trajectories=self.n_zeno,
                                            master_seed=self.master_seed)
        return self._memo("zeno_stats", lambda: self._run(cfg))

    def zeno_dm(self):
        def make():
            spec = preset("fig5").model
            times, rhos = dmref.evolve_master_detector(spec, t_max=300.0, dt=0.01,
                                                       record_every=10)
            return times, dmref.four_level_populations(rhos)
        return self._memo("zeno_dm", make)

    def detuned_stats(self) -> EnsembleStatistics:
        cfg = preset("fig6").with_overrides(n_trajectories=self.n_detuned,
                                            master_seed=self.master_seed)
        return self._memo("detuned_stats", lambda: self._run(cfg))

    # -- decay family --------------------------------------------------------
    def free_decay(self, sloped: bool):
        key = f"free_decay_{sloped}"
        name = "fig8" if sloped else "fig7"

        def make():
            cfg = preset(name).with_overrides(master_seed=self.master_seed)
            model = build_model(cfg.model)
            return run_trajectory(model, cfg, RngStream(cfg.master_seed, 0))
        return self._memo(key, make)

    def measured_decay_stats(self) -> EnsembleStatistics:
        cfg = preset("fig10").with_overrides(
            n_trajectories=self.n_decay, master_seed=self.master_seed,
            observables=("rho_ee",),
        )
        return self._memo("measured_decay_stats",
                          lambda: self._run(cfg, keep_curves=True))

    def measured_decay_excited_stats(self) -> EnsembleStatistics:
        cfg = preset("fig11").with_overrides(
            n_trajectories=self.n_decay, master_seed=self.master_seed + 1,
            observables=("rho_ee",),
        )
        return self._memo("measured_decay_excited_stats",
                          lambda: self._run(cfg, keep_curves=True))

    def anti_zeno_stats(self) -> EnsembleStatistics:
        cfg = preset("fig12").with_overrides(
            n_trajectories=self.n_anti, master_seed=self.master_seed,
            observables=("rho_ee",),
        )
        return self._memo("anti_zeno_stats", lambda: self._run(cfg, keep_curves=True))


def _coherence_magnitude(stats):
    m = np.hypot(stats.mean["rho_eg_re"], stats.mean["rho_eg_im"])
    se = np.hypot(stats.std_error["rho_eg_re"], stats.std_error["rho_eg_im"])
    return m, se


# ---------------------------------------------------------------------------
# criteria


def criterion_detector_coherence(runs: AcceptanceRuns) -> CriterionResult:
    """Ensemble coherence of the monitored system decays as 0.5 exp(-t/tau_m)."""
    t0 = time.perf_counter()
    res = CriterionResult("detector-coherence")
    stats = runs.detector_stats()
    mag, se = _coherence_magnitude(stats)
    oracle = 0.5 * np.exp(-stats.times / TAU_M)
    _band_check(res, "|<rho_eg>| vs 0.5*exp(-t/5)", stats.times, mag, oracle, se,
                0.0, 25.0)
    fit = fit_exponential_rate(stats.times, mag, (0.0, 15.0))
    scale = _mc_scale(1000, stats.n_trajectories)
    tol = 0.15 * scale
    res.add("coherence decay rate", fit.rate, 1.0 / TAU_M, f"rel {tol:.3g}",
            abs(fit.rate - 1.0 / TAU_M) <= tol / TAU_M)
    res.wall_time_s = time.perf_counter() - t0
    return res


def criterion_jump_statistics(runs: AcceptanceRuns) -> CriterionResult:
    """Ground-collapsed trajectories show repeated jumps roughly tau_m apart."""
    t0 = time.perf_counter()
    res = CriterionResult("jump-statistics")
    stats = runs.detector_jump_stats()
    per_traj_means = []
    n_ground = 0
    for summary in stats.trajectory_summaries:
        if summary.final_observables.get("rho_gg", 0.0) > 0.5:
            n_ground += 1
            if summary.n_jumps >= 2:
                per_traj_means.append(float(np.mean(np.diff(summary.jump_times))))
    mean_interval = float(np.mean(per_traj_means)) if per_traj_means else np.inf
    res.add("ground-collapsed fraction", n_ground / stats.n_trajectories, 0.5,
            "within [0.3, 0.7]", 0.3 <= n_ground / stats.n_trajectories <= 0.7)
    res.add("mean inter-jump interval", mean_interval, TAU_M,
            f"within factor 2 of {TAU_M:g}",
            TAU_M / 2.0 <= mean_interval <= 2.0 * TAU_M)
    res.wall_time_s = time.perf_counter() - t0
    return res


def criterion_trajectory_dm_equivalence(runs: AcceptanceRuns) -> CriterionResult:
    """Ensemble detector excitation equals the master-equation reference."""
    t0 = time.perf_counter()
    res = CriterionResult("trajectory-dm-equivalence")
    stats = runs.detector_stats()
    dm_times, dm = runs.detector_dm()
    if len(dm_times) != len(stats.times) or not np.allclose(dm_times, stats.times):
        raise RuntimeError("reference and ensemble grids misaligned")
    _band_check(res, "rho_aa vs master equation", stats.times,
                stats.mean["rho_aa"], dm["rho_aa"], stats.std_error["rho_aa"],
                0.0, float(stats.times[-1]))
    closure = np.max(np.abs(dm["rho_ee"] + dm["rho_gg"] - 1.0))
    res.add("reference rho_ee + rho_gg - 1", closure, 0.0, "<= 1e-10",
            closure <= 1e-10)
    res.wall_time_s = time.perf_counter() - t0
    return res


def criterion_zeno_two_level(runs: AcceptanceRuns) -> CriterionResult:
    """Measurement-slowed flips: rho_gg relaxes at the predicted rate to 1/2."""
    t0 = time.perf_counter()
    res = CriterionResult("zeno-two-level")
    stats = runs.zeno_stats()
    dm_times, dm = runs.zeno_dm()
    m = stats.mean["rho_gg"]
    se = stats.std_error["rho_gg"]
    rate2 = 2.0 * oracles.zeno_transition_rate(DriveParams(omega_r=0.1), TAU_M).rate
    formula = 0.5 * (1.0 + np.exp(-rate2 * stats.times))

    # strong check: trajectories against the exact master equation, everywhere
    dm_gg = np.interp(stats.times, dm_times, dm["rho_gg"])
    _band_check(res, "rho_gg vs master equation", stats.times, m, dm_gg, se,
                0.0, float(stats.times[-1]))

    # rate-equation check, from where that formula itself holds
    formula_dm = 0.5 * (1.0 + np.exp(-rate2 * dm_times))
    bad = np.abs(formula_dm - dm["rho_gg"]) > NUMERIC_FLOOR
    t_valid = float(dm_times[np.nonzero(bad)[0][-1]] + (dm_times[1] - dm_times[0])) \
        if bad.any() else 0.0
    _band_check(res, f"rho_gg vs rate equation (valid from t={t_valid:.3g})",
                stats.times, m, formula, se, t_valid, float(stats.times[-1]))

    # fig5 is critically damped (1/tau_m = 2 omega_r), outside the rate
    # formula's tau_m << 1/omega_r, so the fitted rate is compared with the
    # master equation's, fitted over the same window
    window = default_fit_window(stats.times, 2.0 * m - 1.0, 2.0 * se,
                                t_start=2.0 * TAU_M)
    fit = fit_exponential_rate(stats.times, 2.0 * m - 1.0, window)
    dm_rate = fit_exponential_rate(dm_times, 2.0 * dm["rho_gg"] - 1.0, window).rate
    scale = _mc_scale(1000, stats.n_trajectories)
    tol = 0.15 * scale
    res.add("population relaxation rate vs master equation", fit.rate, dm_rate,
            f"rel {tol:.3g}", abs(fit.rate - dm_rate) <= tol * dm_rate)

    quarter = stats.times >= 0.75 * stats.times[-1]
    plateau = float(np.mean(m[quarter]))
    band = 0.02 * scale
    res.add("late-time plateau", plateau, 0.5, f"abs {band:.3g}",
            abs(plateau - 0.5) <= band)
    res.wall_time_s = time.perf_counter() - t0
    return res


def criterion_anti_zeno_two_level(runs: AcceptanceRuns) -> CriterionResult:
    """Detuned case: measurement speeds up excitation (anti-Zeno)."""
    t0 = time.perf_counter()
    res = CriterionResult("anti-zeno-two-level")
    stats = runs.detuned_stats()
    m_ee = stats.mean["rho_ee"]
    late = (stats.times >= 100.0) & (stats.times <= 200.0)
    measured_avg = float(np.mean(m_ee[late]))
    drive = DriveParams(omega_r=0.1, detuning=0.2)
    free_avg = 0.5 * drive.omega_r ** 2 / (drive.omega_r ** 2 + drive.detuning ** 2)
    res.add("time-averaged rho_ee on [100,200]", measured_avg, free_avg,
            "exceeds free-evolution average", measured_avg > free_avg)

    m = stats.mean["rho_gg"]
    se = stats.std_error["rho_gg"]
    rate2 = 2.0 * oracles.zeno_transition_rate(drive, TAU_M).rate
    window = default_fit_window(stats.times, 2.0 * m - 1.0, 2.0 * se,
                                t_start=2.0 * TAU_M)
    fit = fit_exponential_rate(stats.times, 2.0 * m - 1.0, window)
    scale = _mc_scale(1000, stats.n_trajectories)
    tol = 0.20 * scale
    res.add("population relaxation rate", fit.rate, rate2, f"rel {tol:.3g}",
            abs(fit.rate - rate2) <= tol * rate2)
    res.wall_time_s = time.perf_counter() - t0
    return res


def criterion_free_decay_flat(runs: AcceptanceRuns) -> CriterionResult:
    """Flat-coupling decay follows the lowest-order rate; quadratic onset."""
    t0 = time.perf_counter()
    res = CriterionResult("free-decay-flat")
    rec = runs.free_decay(sloped=False)
    golden = preset("fig7").model.reservoir.golden_rate()
    fit = fit_exponential_rate(rec.times, rec.observables["rho_ee"], (50.0, 250.0))
    res.add("decay rate", fit.rate, golden, "rel 0.05",
            abs(fit.rate - golden) <= 0.05 * golden)
    i = int(np.searchsorted(rec.times, 0.5))
    depletion = 1.0 - rec.observables["rho_ee"][i]
    bound = 0.6 * golden * rec.times[i]
    res.add("short-time depletion at t=0.5", depletion, bound,
            "below 0.6 * rate * t (quadratic onset)", depletion < bound)
    res.add("jumps in detector-free model", float(len(rec.jumps)), 0.0,
            "exactly 0", len(rec.jumps) == 0)
    res.wall_time_s = time.perf_counter() - t0
    return res


def criterion_free_decay_sloped(runs: AcceptanceRuns) -> CriterionResult:
    """Sloped coupling shifts the free rate to the corrected value."""
    t0 = time.perf_counter()
    res = CriterionResult("free-decay-sloped")
    rec = runs.free_decay(sloped=True)
    expected = oracles.corrected_free_decay_rate(preset("fig8").model.reservoir).rate
    fit = fit_exponential_rate(rec.times, rec.observables["rho_ee"], (50.0, 250.0))
    res.add("decay rate", fit.rate, expected, "rel 0.10",
            abs(fit.rate - expected) <= 0.10 * expected)
    res.wall_time_s = time.perf_counter() - t0
    return res


def criterion_measured_decay_zeno(runs: AcceptanceRuns) -> CriterionResult:
    """Monitoring the decaying system slows its decay below the free rate."""
    t0 = time.perf_counter()
    res = CriterionResult("measured-decay-zeno")
    stats = runs.measured_decay_stats()
    reservoir = preset("fig10").model.reservoir
    expected = oracles.measured_decay_rate(reservoir, TAU_M).rate
    free_rate = reservoir.golden_rate()

    m = stats.mean["rho_ee"]
    se = stats.std_error["rho_ee"]
    window = default_fit_window(stats.times, m, se, t_start=2.0 * TAU_M)
    fit = fit_exponential_rate(stats.times, m, window)
    scale = _mc_scale(200, stats.n_trajectories)
    tol = 0.15 * scale
    res.add("measured decay rate", fit.rate, expected, f"rel {tol:.3g}",
            abs(fit.rate - expected) <= tol * expected)

    rate_mean, rate_se, _ = block_rate_estimate(
        stats.times, stats.curves["rho_ee"], window)
    sig = (free_rate - rate_mean) / rate_se
    res.add("suppression significance", sig, 3.0, ">= 3 block-sigma below free rate",
            sig >= 3.0)
    res.wall_time_s = time.perf_counter() - t0
    return res


def criterion_coupling_target_independence(runs: AcceptanceRuns) -> CriterionResult:
    """Ensemble decay is blind to which level the detector touches; single
    trajectories are not (first jumps come much earlier for excited coupling)."""
    t0 = time.perf_counter()
    res = CriterionResult("coupling-target-independence")
    ground = runs.measured_decay_stats()
    excited = runs.measured_decay_excited_stats()
    diff_se = np.sqrt(ground.std_error["rho_ee"] ** 2 + excited.std_error["rho_ee"] ** 2)
    _band_check(res, "rho_ee ground vs excited coupling", ground.times,
                ground.mean["rho_ee"], excited.mean["rho_ee"], diff_se,
                0.0, float(ground.times[-1]))

    def median_first_jump(stats):
        firsts = [s.jump_times[0] for s in stats.trajectory_summaries if s.n_jumps > 0]
        return float(np.median(firsts)) if firsts else np.inf

    mg = median_first_jump(ground)
    me = median_first_jump(excited)
    ratio = mg / me if me > 0 else np.inf
    res.add("median first-jump time ratio", ratio, 2.0, "> 2x", ratio > 2.0)
    res.wall_time_s = time.perf_counter() - t0
    return res


def criterion_measured_decay_anti_zeno(runs: AcceptanceRuns) -> CriterionResult:
    """Sloped coupling: monitoring accelerates decay beyond the free rate."""
    t0 = time.perf_counter()
    res = CriterionResult("measured-decay-anti-zeno")
    stats = runs.anti_zeno_stats()
    reservoir = preset("fig12").model.reservoir
    # the first-order series anti_zeno_rate is outside its range at
    # half_width*tau_m = 2.5; the Laplace root of its parent equation is not
    expected = oracles.laplace_decay_rate(reservoir, TAU_M)
    free_rate = oracles.corrected_free_decay_rate(reservoir).rate

    m = stats.mean["rho_ee"]
    se = stats.std_error["rho_ee"]
    window = default_fit_window(stats.times, m, se, t_start=2.0 * TAU_M)
    fit = fit_exponential_rate(stats.times, m, window)
    scale = _mc_scale(200, stats.n_trajectories)
    tol = 0.20 * scale
    res.add("measured decay rate vs Laplace root", fit.rate, expected, f"rel {tol:.3g}",
            abs(fit.rate - expected) <= tol * expected)

    rate_mean, rate_se, _ = block_rate_estimate(
        stats.times, stats.curves["rho_ee"], window)
    sig = (rate_mean - free_rate) / rate_se
    res.add("acceleration significance", sig, 3.0, ">= 3 block-sigma above free rate",
            sig >= 3.0)
    res.wall_time_s = time.perf_counter() - t0
    return res


def criterion_laplace_cross_check(runs: AcceptanceRuns) -> CriterionResult:
    """Numeric pole of the damped-coherence rate equation vs closed forms."""
    t0 = time.perf_counter()
    res = CriterionResult("laplace-cross-check")
    flat = preset("fig10").model.reservoir
    rate0 = oracles.laplace_decay_rate(flat, TAU_M)
    expect0 = oracles.measured_decay_rate(flat, TAU_M).rate
    res.add("flat-coupling root", rate0, expect0, "rel 0.05",
            abs(rate0 - expect0) <= 0.05 * expect0)

    # the first-order series anti_zeno_rate is outside its range at
    # half_width*tau_m = 2.5; the unexpanded overlap it comes from is not
    sloped = preset("fig12").model.reservoir
    rate2 = oracles.laplace_decay_rate(sloped, TAU_M)
    expect2 = oracles.lorentzian_overlap_rate(sloped, TAU_M).rate
    res.add("sloped-coupling root vs Lorentzian overlap", rate2, expect2, "rel 0.20",
            abs(rate2 - expect2) <= 0.20 * expect2)
    res.wall_time_s = time.perf_counter() - t0
    return res


def criterion_reduced_dm_oracle(runs: AcceptanceRuns) -> CriterionResult:
    """Coarse-banded density matrix reproduces the ensemble Zeno rate."""
    t0 = time.perf_counter()
    res = CriterionResult("reduced-dm-oracle")
    stats = runs.measured_decay_stats()
    m = stats.mean["rho_ee"]
    se = stats.std_error["rho_ee"]
    window = default_fit_window(stats.times, m, se, t_start=2.0 * TAU_M)
    ensemble_rate = fit_exponential_rate(stats.times, m, window).rate

    reservoir = preset("fig10").model.reservoir.with_modes(201)
    times, pops = dmref.evolve_measured_decay_dm(reservoir, TAU_M,
                                                 t_max=250.0, dt=0.05)
    dm_rate = fit_exponential_rate(times, pops, (2.0 * TAU_M, 250.0)).rate
    res.add("reduced-band reference rate vs ensemble rate", dm_rate, ensemble_rate,
            "rel 0.10", abs(dm_rate - ensemble_rate) <= 0.10 * ensemble_rate)
    res.wall_time_s = time.perf_counter() - t0
    return res


def criterion_engine_properties(runs: AcceptanceRuns) -> CriterionResult:
    """Norm preservation, idempotence, determinism, closed-form limit, RNG."""
    t0 = time.perf_counter()
    res = CriterionResult("engine-properties")

    # norm at every recorded step of a jumping trajectory, so that the
    # renormalization of both the no-jump and the collapse path is measured
    spec = ModelSpec("rabi", detector=DetectorParams(gamma=10.0, lam=1.0, omega_d=1.0),
                     drive=DriveParams(omega_r=0.1))
    cfg = RunConfig(spec, dt=0.1, t_max=20.0, n_trajectories=1, integrator="euler",
                    observables=("rho_ee", "rho_gg"), decimation=1)
    batch = run_batch(build_model(spec), cfg, [RngStream(DEFAULT_MASTER_SEED, 0)])
    obs = batch.observables
    worst = float(np.max(np.abs(obs["rho_ee"] + obs["rho_gg"] - 1.0)))
    jumped = len(batch.jumps[0]) > 0
    res.add("norm defect after 200 steps + collapse", worst, 0.0, "<= 1e-12",
            worst <= 1e-12 and jumped)

    # idempotence of the renormalization run_batch applies to initial amplitudes
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        once = _renormalize(rng.normal(size=8) + 1j * rng.normal(size=8))
        worst = max(worst, float(np.max(np.abs(once - _renormalize(once)))))
    res.add("normalize idempotence", worst, 0.0, "<= 1e-12", worst <= 1e-12)

    # bit-identical reruns
    cfg = preset("fig2").with_overrides(n_trajectories=1, t_max=20.0)
    model_det = build_model(cfg.model)
    rec1 = run_trajectory(model_det, cfg, RngStream(cfg.master_seed, 0))
    rec2 = run_trajectory(model_det, cfg, RngStream(cfg.master_seed, 0))
    same = all(
        np.array_equal(rec1.observables[k], rec2.observables[k])
        for k in rec1.observables
    ) and [j.time for j in rec1.jumps] == [j.time for j in rec2.jumps]
    res.add("seed determinism (bit-identical rerun)", 1.0 if same else 0.0, 1.0,
            "exact", same)

    # lam = 0: pure driven oscillation against the closed forms.  The
    # detector phase is applied exactly and commutes with the drive, so the
    # renormalized first-order steps compose like a symmetric splitting
    # whose end pieces only rotate phases: populations converge at second
    # order.  The e-g coherence carries those phases and probes the generic
    # first-order convergence.
    def drive_errors(dt_run, integrator, detuning):
        drive = DriveParams(omega_r=0.1, detuning=detuning)
        spec = ModelSpec("rabi",
                         detector=DetectorParams(gamma=0.0, lam=0.0, omega_d=1.0),
                         drive=drive)
        cfg = RunConfig(spec, dt=dt_run, t_max=60.0, n_trajectories=1,
                        integrator=integrator,
                        observables=("rho_gg", "rho_eg_re", "rho_eg_im"))
        rec = run_trajectory(build_model(spec), cfg, RngStream(1, 0))
        t = rec.times
        c_g = np.array([oracles.rabi_amplitude(x, drive) for x in t])
        om = np.hypot(detuning, drive.omega_r)
        c_e = 1j * (drive.omega_r / om) * np.sin(0.5 * om * t) * np.exp(0.5j * detuning * t)
        obs = rec.observables
        pop = float(np.max(np.abs(obs["rho_gg"] - np.abs(c_g) ** 2)))
        coh = float(np.max(np.abs(obs["rho_eg_re"] + 1j * obs["rho_eg_im"]
                                  - c_e * np.conj(c_g))))
        return pop, coh, rec

    _, err_coarse, rec = drive_errors(0.1, "euler", 0.2)
    _, err_fine, _ = drive_errors(0.05, "euler", 0.2)
    ratio = err_coarse / err_fine
    res.add("euler coherence error halves with dt", ratio, 2.0, "within [1.5, 2.6]",
            1.5 <= ratio <= 2.6)
    err_rk4, _, _ = drive_errors(0.1, "rk4", 0.0)
    res.add("rk4 matches driven closed form", err_rk4, 0.0, "<= 1e-6",
            err_rk4 <= 1e-6)
    res.add("no jumps without detector excitation", float(len(rec.jumps)), 0.0,
            "exactly 0", len(rec.jumps) == 0)

    # Bernoulli statistics of the jump decision rule
    p = 0.0375
    n = 100_000
    gen = RngStream(DEFAULT_MASTER_SEED, 123).generator()
    hits = int(np.sum(gen.random(n) < p))
    se = np.sqrt(p * (1 - p) / n)
    res.add("uniform draw frequency at p=0.0375", hits / n, p,
            "within 4 standard errors", abs(hits / n - p) <= 4 * se)

    res.wall_time_s = time.perf_counter() - t0
    return res


CRITERIA = {
    "detector-coherence": criterion_detector_coherence,
    "jump-statistics": criterion_jump_statistics,
    "trajectory-dm-equivalence": criterion_trajectory_dm_equivalence,
    "zeno-two-level": criterion_zeno_two_level,
    "anti-zeno-two-level": criterion_anti_zeno_two_level,
    "free-decay-flat": criterion_free_decay_flat,
    "free-decay-sloped": criterion_free_decay_sloped,
    "measured-decay-zeno": criterion_measured_decay_zeno,
    "coupling-target-independence": criterion_coupling_target_independence,
    "measured-decay-anti-zeno": criterion_measured_decay_anti_zeno,
    "laplace-cross-check": criterion_laplace_cross_check,
    "reduced-dm-oracle": criterion_reduced_dm_oracle,
    "engine-properties": criterion_engine_properties,
}

SUITES = {
    "detector": ("detector-coherence", "jump-statistics", "trajectory-dm-equivalence"),
    "zeno2level": ("zeno-two-level",),
    "antizeno2level": ("anti-zeno-two-level",),
    "freedecay": ("free-decay-flat", "free-decay-sloped"),
    "measureddecay": ("measured-decay-zeno", "coupling-target-independence",
                      "reduced-dm-oracle"),
    "antizenodecay": ("measured-decay-anti-zeno", "laplace-cross-check"),
    "all": tuple(CRITERIA.keys()),
}


def run_suite(suite: str, runs: Optional[AcceptanceRuns] = None) -> list[CriterionResult]:
    if suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}; available: {', '.join(SUITES)}")
    if runs is None:
        runs = AcceptanceRuns()
    return [CRITERIA[name](runs) for name in SUITES[suite]]


def format_report(results: list[CriterionResult]) -> str:
    lines = []
    for r in results:
        for l in r.lines:
            verdict = "PASS" if l.ok else "FAIL"
            lines.append(
                f"{r.name:30s} {l.label:55s} measured={l.measured:.6g} "
                f"expected={l.expected:.6g} tol[{l.tolerance}] {verdict}"
            )
        lines.append(f"{r.name:30s} => {'PASS' if r.passed else 'FAIL'} "
                     f"({r.wall_time_s:.1f}s)")
    n_pass = sum(r.passed for r in results)
    lines.append(f"passed {n_pass}/{len(results)} criteria")
    return "\n".join(lines)
