"""Acceptance criteria: quantitative checks binding simulation to theory.

A criterion is a function ``criterion_x(runs, res)`` declared with
``@criterion(name, suite)``.  The decorator registers it in CRITERIA (in
declaration order) and in its suite, and turns it into
``criterion_x(runs) -> CriterionResult``: it creates the result, times the
body and returns the result.  An exception the body raises becomes one
failing line, ``raised <Type>: <message>``, so a suite still reports every
criterion.  Heavy ensemble runs and references are shared between criteria
through AcceptanceRuns.

A check is one CheckLine (label, measured value, expected value, tolerance,
verdict), added through a judging helper of CriterionResult: ``relative``,
``absolute``, ``within`` (a range) and ``bound`` (an upper or lower bound),
or ``_band_check`` for curves.  Each helper writes the tolerance text and
computes the verdict from the same numbers, so the two cannot disagree.

Pointwise band checks compare curves as |difference| <= 5 * stderr +
NUMERIC_FLOOR.  The additive floor (0.01 on probability-scale curves)
covers grid points where all trajectories still coincide: stderr is
exactly zero there, while the closed-form approximations differ from the
exact dynamics at the 1e-3..1e-2 level.  Where a closed-form rate
approximation is compared pointwise, the comparison additionally starts
only once the formula itself agrees with the exact master equation to
within the floor; the crossover time is computed from the density-matrix
reference, not hand-tuned.  Where a closed form is used outside its own
validity range, the check compares with the exact reference instead.

Monte Carlo tolerances are stated at a reference trajectory count; when a
criterion runs with fewer trajectories, they scale with
sqrt(reference / actual), up to 0.5: the lower end of the suite's "within
a factor 2" rule, so a zero or negative rate never passes a rate check.
"""

from __future__ import annotations

import functools
import operator
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import dmref, oracles
from .config import DEFAULT_MASTER_SEED, ConfigError, ModelSpec, RunConfig, build_model, preset
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
# every preset with a detector uses the default gamma and lam
TAU_M = oracles.measurement_time(DetectorParams().gamma, DetectorParams().lam)

_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


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

    def _add(self, label, measured, expected, tolerance, ok):
        self.lines.append(CheckLine(label, float(measured), float(expected),
                                    tolerance, bool(ok)))

    def relative(self, label, measured, expected, rel):
        """|measured - expected| <= rel * expected."""
        self._add(label, measured, expected, f"rel {rel:.3g}",
                  abs(measured - expected) <= rel * expected)

    def absolute(self, label, measured, expected, tol):
        """|measured - expected| <= tol; tol = 0 asks for equality."""
        self._add(label, measured, expected, f"abs {tol:.3g}" if tol else "exact",
                  abs(measured - expected) <= tol)

    def within(self, label, measured, expected, lo, hi):
        """lo <= measured <= hi."""
        self._add(label, measured, expected, f"within [{lo:g}, {hi:g}]",
                  lo <= measured <= hi)

    def bound(self, label, measured, op, limit, expected=None):
        """``measured op limit`` for op in <, <=, >, >=; expected defaults to
        the limit."""
        self._add(label, measured, limit if expected is None else expected,
                  f"{op} {limit:.6g}", _COMPARE[op](measured, limit))


def _mc_tol(tol: float, reference_n: int, actual_n: int) -> float:
    """``tol``, stated at ``reference_n`` trajectories, for ``actual_n``."""
    return min(0.5, tol * max(1.0, np.sqrt(reference_n / actual_n)))


def _band_check(result, label, times, curve, target, stderr, t_lo, t_hi):
    mask = (times >= t_lo) & (times <= t_hi)
    allowed = 5.0 * stderr[mask] + NUMERIC_FLOOR
    excess = np.abs(curve[mask] - target[mask]) - allowed
    worst = int(np.argmax(excess))
    result._add(
        f"{label} max|diff|-5se at t={times[mask][worst]:.3g}",
        excess[worst] + allowed[worst],
        0.0,
        f"<= 5*stderr+{NUMERIC_FLOOR:g} on [{t_lo:g},{t_hi:g}]",
        excess[worst] <= 0.0,
    )


def _window_fit(times, curve, stderr):
    """The default fit window of ``curve`` from t = 2 tau_m, and the rate
    fitted on it."""
    window = default_fit_window(times, curve, stderr, t_start=2.0 * TAU_M)
    return window, fit_exponential_rate(times, curve, window).rate


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
        for name, n in dict(n_detector=n_detector, n_zeno=n_zeno, n_detuned=n_detuned,
                            n_decay=n_decay, n_anti=n_anti).items():
            if n < 1:
                raise ConfigError(f"{name} must be >= 1, got {n}")
            setattr(self, name, n)
        self._cache: dict[object, object] = {}

    def _memo(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def ensemble(self, name: str, n: int, keep_curves: bool = False,
                 seed_offset: int = 0, **overrides) -> EnsembleStatistics:
        """Preset ``name`` at ``n`` trajectories from master seed
        ``master_seed + seed_offset``, with ``overrides`` applied."""
        cfg = preset(name).with_overrides(n_trajectories=n,
                                          master_seed=self.master_seed + seed_offset,
                                          **overrides)
        key = (name, n, keep_curves, seed_offset, *sorted(overrides.items()))
        return self._memo(key, lambda: run_ensemble(cfg, workers=self.workers,
                                                    keep_curves=keep_curves))

    def decay_stats(self, name: str, n: int, seed_offset: int = 0) -> EnsembleStatistics:
        """A band-decay ensemble: rho_ee, with the per-trajectory curves that
        block statistics need."""
        return self.ensemble(name, n, keep_curves=True, seed_offset=seed_offset,
                             observables=("rho_ee",))

    def master_populations(self, name: str, t_max: float):
        """Times and four-level populations of preset ``name``'s master equation."""
        def make():
            times, rhos = dmref.evolve_master_detector(preset(name).model, t_max=t_max,
                                                       dt=0.01, record_every=10)
            return times, dmref.four_level_populations(rhos)
        return self._memo((name, t_max), make)

    def detector_stats(self) -> EnsembleStatistics:
        return self.ensemble("fig2", self.n_detector)

    def detector_dm(self):
        return self.master_populations("fig2", 30.0)


# ---------------------------------------------------------------------------
# criteria

CRITERIA: dict[str, Callable[[AcceptanceRuns], CriterionResult]] = {}
SUITES: dict[str, tuple[str, ...]] = {}


def criterion(name: str, suite: Optional[str] = None):
    """Register ``body(runs, res)`` as criterion ``name`` of ``suite`` (every
    criterion is in suite ``all``) and return it as ``f(runs) -> result``."""
    def register(body):
        @functools.wraps(body)
        def run(runs: AcceptanceRuns) -> CriterionResult:
            t0 = time.perf_counter()
            res = CriterionResult(name)
            try:
                body(runs, res)
            except Exception as exc:
                res._add(f"raised {type(exc).__name__}: {exc}", np.nan, np.nan,
                         "no exception", False)
            res.wall_time_s = time.perf_counter() - t0
            return res
        CRITERIA[name] = run
        if suite is not None:
            SUITES[suite] = SUITES.get(suite, ()) + (name,)
        return run
    return register


@criterion("detector-coherence", "detector")
def criterion_detector_coherence(runs, res):
    """Ensemble coherence of the monitored system decays as 0.5 exp(-t/tau_m)."""
    stats = runs.detector_stats()
    mag = np.hypot(stats.mean["rho_eg_re"], stats.mean["rho_eg_im"])
    se = np.hypot(stats.std_error["rho_eg_re"], stats.std_error["rho_eg_im"])
    oracle = 0.5 * np.exp(-stats.times / TAU_M)
    _band_check(res, "|<rho_eg>| vs 0.5*exp(-t/5)", stats.times, mag, oracle, se,
                0.0, 25.0)
    fit = fit_exponential_rate(stats.times, mag, (0.0, 15.0))
    res.relative("coherence decay rate", fit.rate, 1.0 / TAU_M,
                 _mc_tol(0.15, 1000, stats.n_trajectories))


@criterion("jump-statistics", "detector")
def criterion_jump_statistics(runs, res):
    """Ground-collapsed trajectories show repeated jumps roughly tau_m apart."""
    stats = runs.ensemble("fig2", runs.n_detector, t_max=50.0, observables=("rho_gg",))
    batch = stats.trajectories
    ground = batch.final_observables["rho_gg"] > 0.5
    per_traj_means = [float(np.mean(np.diff(batch.jumps[k])))
                      for k in np.flatnonzero(ground) if len(batch.jumps[k]) >= 2]
    mean_interval = float(np.mean(per_traj_means)) if per_traj_means else np.inf
    res.within("ground-collapsed fraction", np.count_nonzero(ground) / stats.n_trajectories,
               0.5, 0.3, 0.7)
    res.within("mean inter-jump interval", mean_interval, TAU_M,
               TAU_M / 2.0, 2.0 * TAU_M)


@criterion("trajectory-dm-equivalence", "detector")
def criterion_trajectory_dm_equivalence(runs, res):
    """Ensemble detector excitation equals the master-equation reference."""
    stats = runs.detector_stats()
    dm_times, dm = runs.detector_dm()
    if len(dm_times) != len(stats.times) or not np.allclose(dm_times, stats.times):
        raise RuntimeError("reference and ensemble grids misaligned")
    _band_check(res, "rho_aa vs master equation", stats.times,
                stats.mean["rho_aa"], dm["rho_aa"], stats.std_error["rho_aa"],
                0.0, float(stats.times[-1]))
    closure = np.max(np.abs(dm["rho_ee"] + dm["rho_gg"] - 1.0))
    res.bound("reference rho_ee + rho_gg - 1", closure, "<=", 1e-10, expected=0.0)


@criterion("zeno-two-level", "zeno2level")
def criterion_zeno_two_level(runs, res):
    """Measurement-slowed flips: rho_gg relaxes at the predicted rate to 1/2."""
    stats = runs.ensemble("fig5", runs.n_zeno)
    dm_times, dm = runs.master_populations("fig5", 300.0)
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
    window, rate = _window_fit(stats.times, 2.0 * m - 1.0, 2.0 * se)
    dm_rate = fit_exponential_rate(dm_times, 2.0 * dm["rho_gg"] - 1.0, window).rate
    res.relative("population relaxation rate vs master equation", rate, dm_rate,
                 _mc_tol(0.15, 1000, stats.n_trajectories))

    quarter = stats.times >= 0.75 * stats.times[-1]
    res.absolute("late-time plateau", np.mean(m[quarter]), 0.5,
                 _mc_tol(0.02, 1000, stats.n_trajectories))


@criterion("anti-zeno-two-level", "antizeno2level")
def criterion_anti_zeno_two_level(runs, res):
    """Detuned case: measurement speeds up excitation (anti-Zeno)."""
    stats = runs.ensemble("fig6", runs.n_detuned)
    late = (stats.times >= 100.0) & (stats.times <= 200.0)
    drive = DriveParams(omega_r=0.1, detuning=0.2)
    free_avg = 0.5 * drive.omega_r ** 2 / (drive.omega_r ** 2 + drive.detuning ** 2)
    res.bound("time-averaged rho_ee on [100,200]", np.mean(stats.mean["rho_ee"][late]),
              ">", free_avg)

    m = stats.mean["rho_gg"]
    rate2 = 2.0 * oracles.zeno_transition_rate(drive, TAU_M).rate
    _, rate = _window_fit(stats.times, 2.0 * m - 1.0, 2.0 * stats.std_error["rho_gg"])
    res.relative("population relaxation rate", rate, rate2,
                 _mc_tol(0.20, 1000, stats.n_trajectories))


def _free_decay(runs, name):
    """Preset ``name``'s single trajectory and its rho_ee rate on [50, 250]."""
    cfg = preset(name).with_overrides(master_seed=runs.master_seed)
    rec = run_trajectory(build_model(cfg.model), cfg, RngStream(cfg.master_seed, 0))
    return rec, fit_exponential_rate(rec.times, rec.observables["rho_ee"], (50.0, 250.0)).rate


@criterion("free-decay-flat", "freedecay")
def criterion_free_decay_flat(runs, res):
    """Flat-coupling decay follows the lowest-order rate; quadratic onset."""
    rec, rate = _free_decay(runs, "fig7")
    golden = preset("fig7").model.reservoir.golden_rate()
    res.relative("decay rate", rate, golden, 0.05)
    # quadratic onset: well below the linear depletion rate * t
    i = int(np.searchsorted(rec.times, 0.5))
    res.bound("short-time depletion at t=0.5", 1.0 - rec.observables["rho_ee"][i],
              "<", 0.6 * golden * rec.times[i])
    res.absolute("jumps in detector-free model", len(rec.jumps), 0.0, 0.0)


@criterion("free-decay-sloped", "freedecay")
def criterion_free_decay_sloped(runs, res):
    """Sloped coupling shifts the free rate to the corrected value."""
    _, rate = _free_decay(runs, "fig8")
    expected = oracles.corrected_free_decay_rate(preset("fig8").model.reservoir).rate
    res.relative("decay rate", rate, expected, 0.10)


def _measured_decay(res, stats, labels, expected, rel, free_rate, direction):
    """The decay rate fitted in the default window against ``expected`` at
    the MC-scaled ``rel``, and its block-sigma distance from the free rate
    in ``direction`` (+1 faster, -1 slower), at least 3."""
    window, rate = _window_fit(stats.times, stats.mean["rho_ee"], stats.std_error["rho_ee"])
    res.relative(labels[0], rate, expected, _mc_tol(rel, 200, stats.n_trajectories))
    rate_mean, rate_se, _ = block_rate_estimate(
        stats.times, stats.trajectories.observables["rho_ee"], window)
    res.bound(labels[1], direction * (rate_mean - free_rate) / rate_se, ">=", 3.0)


@criterion("measured-decay-zeno", "measureddecay")
def criterion_measured_decay_zeno(runs, res):
    """Monitoring the decaying system slows its decay below the free rate."""
    reservoir = preset("fig10").model.reservoir
    _measured_decay(res, runs.decay_stats("fig10", runs.n_decay),
                    ("measured decay rate", "suppression significance"),
                    oracles.measured_decay_rate(reservoir, TAU_M).rate, 0.15,
                    reservoir.golden_rate(), -1.0)


@criterion("coupling-target-independence", "measureddecay")
def criterion_coupling_target_independence(runs, res):
    """Ensemble decay is blind to which level the detector touches; single
    trajectories are not (first jumps come much earlier for excited coupling)."""
    ground = runs.decay_stats("fig10", runs.n_decay)
    excited = runs.decay_stats("fig11", runs.n_decay, seed_offset=1)
    diff_se = np.sqrt(ground.std_error["rho_ee"] ** 2 + excited.std_error["rho_ee"] ** 2)
    _band_check(res, "rho_ee ground vs excited coupling", ground.times,
                ground.mean["rho_ee"], excited.mean["rho_ee"], diff_se,
                0.0, float(ground.times[-1]))

    def median_first_jump(stats):
        firsts = [jumps[0] for jumps in stats.trajectories.jumps if jumps]
        return float(np.median(firsts)) if firsts else np.inf

    mg = median_first_jump(ground)
    me = median_first_jump(excited)
    res.bound("median first-jump time ratio", mg / me if me > 0 else np.inf, ">", 2.0)


@criterion("measured-decay-anti-zeno", "antizenodecay")
def criterion_measured_decay_anti_zeno(runs, res):
    """Sloped coupling: monitoring accelerates decay beyond the free rate."""
    reservoir = preset("fig12").model.reservoir
    # the first-order series anti_zeno_rate is outside its range at
    # half_width*tau_m = 2.5; the Laplace root of its parent equation is not
    _measured_decay(res, runs.decay_stats("fig12", runs.n_anti),
                    ("measured decay rate vs Laplace root", "acceleration significance"),
                    oracles.laplace_decay_rate(reservoir, TAU_M), 0.20,
                    oracles.corrected_free_decay_rate(reservoir).rate, 1.0)


@criterion("laplace-cross-check", "antizenodecay")
def criterion_laplace_cross_check(runs, res):
    """Numeric pole of the damped-coherence rate equation vs closed forms."""
    flat = preset("fig10").model.reservoir
    res.relative("flat-coupling root", oracles.laplace_decay_rate(flat, TAU_M),
                 oracles.measured_decay_rate(flat, TAU_M).rate, 0.05)

    # the first-order series anti_zeno_rate is outside its range at
    # half_width*tau_m = 2.5; the unexpanded overlap it comes from is not
    sloped = preset("fig12").model.reservoir
    res.relative("sloped-coupling root vs Lorentzian overlap",
                 oracles.laplace_decay_rate(sloped, TAU_M),
                 oracles.lorentzian_overlap_rate(sloped, TAU_M).rate, 0.20)


@criterion("reduced-dm-oracle", "measureddecay")
def criterion_reduced_dm_oracle(runs, res):
    """The reduced density matrix of the fig10 band reproduces the ensemble
    Zeno rate."""
    stats = runs.decay_stats("fig10", runs.n_decay)
    _, ensemble_rate = _window_fit(stats.times, stats.mean["rho_ee"],
                                   stats.std_error["rho_ee"])
    times, pops = dmref.evolve_measured_decay_dm(preset("fig10").model.reservoir, TAU_M,
                                                 t_max=250.0, dt=0.05)
    dm_rate = fit_exponential_rate(times, pops, (2.0 * TAU_M, 250.0)).rate
    res.relative("reduced-band reference rate vs ensemble rate", dm_rate, ensemble_rate,
                 0.10)


@criterion("engine-properties")
def criterion_engine_properties(runs, res):
    """Norm preservation, idempotence, determinism, closed-form limit, RNG."""
    # norm at every recorded step of a jumping trajectory, so that the
    # renormalization of both the no-jump and the collapse path is measured
    spec = ModelSpec("rabi", detector=DetectorParams(gamma=10.0, lam=1.0, omega_d=1.0),
                     drive=DriveParams(omega_r=0.1))
    cfg = RunConfig(spec, dt=0.1, t_max=20.0, n_trajectories=1,
                    observables=("rho_ee", "rho_gg"), decimation=1)
    batch = run_batch(build_model(spec), cfg, [RngStream(DEFAULT_MASTER_SEED, 0)])
    obs = batch.observables
    res.bound("norm defect after 200 steps + collapse",
              np.max(np.abs(obs["rho_ee"] + obs["rho_gg"] - 1.0)), "<=", 1e-12,
              expected=0.0)
    res.bound("collapses in the norm-defect trajectory", len(batch.jumps[0]), ">", 0)

    # idempotence of the renormalization run_batch applies to initial amplitudes
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        once = _renormalize(rng.normal(size=8) + 1j * rng.normal(size=8))
        worst = max(worst, float(np.max(np.abs(once - _renormalize(once)))))
    res.bound("normalize idempotence", worst, "<=", 1e-12, expected=0.0)

    # bit-identical reruns
    cfg = preset("fig2").with_overrides(n_trajectories=1, t_max=20.0)
    model_det = build_model(cfg.model)
    rec1 = run_trajectory(model_det, cfg, RngStream(cfg.master_seed, 0))
    rec2 = run_trajectory(model_det, cfg, RngStream(cfg.master_seed, 0))
    same = all(
        np.array_equal(rec1.observables[k], rec2.observables[k])
        for k in rec1.observables
    ) and rec1.jumps == rec2.jumps
    res.absolute("seed determinism (bit-identical rerun)", 1.0 if same else 0.0, 1.0, 0.0)

    # lam = 0: pure driven oscillation against the closed forms, which the
    # exact rotating-frame step meets to rounding in rho_gg and rho_eg
    for detuning in (0.0, 0.2):
        drive = DriveParams(omega_r=0.1, detuning=detuning)
        spec = ModelSpec("rabi", detector=DetectorParams(gamma=0.0, lam=0.0, omega_d=1.0),
                         drive=drive)
        cfg = RunConfig(spec, dt=0.1, t_max=60.0, n_trajectories=1,
                        observables=("rho_gg", "rho_eg_re", "rho_eg_im"))
        rec = run_trajectory(build_model(spec), cfg, RngStream(1, 0))
        t, obs = rec.times, rec.observables
        c_g = np.array([oracles.rabi_amplitude(x, drive) for x in t])
        om = np.hypot(detuning, drive.omega_r)
        c_e = 1j * (drive.omega_r / om) * np.sin(0.5 * om * t) * np.exp(0.5j * detuning * t)
        err = max(np.max(np.abs(obs["rho_gg"] - np.abs(c_g) ** 2)),
                  np.max(np.abs(obs["rho_eg_re"] + 1j * obs["rho_eg_im"] - c_e * np.conj(c_g))))
        res.bound(f"exact drive step vs closed form at detuning {detuning:g}", err, "<=",
                  1e-12, expected=0.0)
    res.absolute("no jumps without detector excitation", len(rec.jumps), 0.0, 0.0)

    # the band on its chain, cut to the run's horizon, is exact: fig8's free
    # decay against the exact diagonalization of the 1001-mode star H
    cfg = preset("fig8").with_overrides(master_seed=runs.master_seed)
    band = cfg.model.reservoir
    h = np.diag(np.concatenate([[0.0], -band.mode_detunings()]))
    h[0, 1:] = h[1:, 0] = band.mode_couplings()
    energies, vectors = np.linalg.eigh(h)
    rec = run_trajectory(build_model(cfg.model), cfg, RngStream(cfg.master_seed, 0))
    c_e = np.exp(-1j * np.outer(rec.times, energies)) @ vectors[0] ** 2
    res.bound("chain free decay vs star diagonalization (fig8 band)",
              np.max(np.abs(rec.observables["rho_ee"] - np.abs(c_e) ** 2)), "<=", 1e-12,
              expected=0.0)

    # Bernoulli statistics of the jump decision rule, within 4 standard errors
    p = 0.0375
    n = 100_000
    gen = RngStream(DEFAULT_MASTER_SEED, 123).generator()
    hits = int(np.sum(gen.random(n) < p))
    res.absolute("uniform draw frequency at p=0.0375", hits / n, p,
                 4 * np.sqrt(p * (1 - p) / n))


SUITES["all"] = tuple(CRITERIA)


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
