"""Seeded parallel trajectory ensembles and exponential-rate extraction.

Trajectory i always uses random substream i of the master seed, and the
engine steps each chunk of trajectories as one batch whose rows do not
depend on each other, so every trajectory's record is independent of worker
count, chunking and merge order.  The merge stacks the chunks in index order
into one (n, npts) array per observable and takes the mean and standard
error from it with a two-pass formula, which makes ensemble statistics
bit-stable across reruns and worker counts, and numerically stable.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .config import ConfigError, RunConfig, build_model
from .engine import JumpEvent, RngStream, TrajectoryBatch, TrajectoryRecord, run_batch
# ``run_trajectory`` stays importable from this module: benchmarks/tracing.py
# wraps it here by name.
from .engine import run_trajectory  # noqa: F401

WORKERS_ENV = "ZENOSIM_WORKERS"

# Amplitudes per batch (rows x model dimension).  About half a megabyte per
# state array keeps a batch in cache: on a 2-vCPU x86-64 VM the
# 2004-amplitude band model ran 30% slower per trajectory-step in batches of
# 64 rows than in batches of 16.
BATCH_AMPLITUDES = 2 ** 15


class NonPositiveValues(ValueError):
    """Log-linear fit requested on data containing values <= 0."""


@dataclass
class TrajectorySummary:
    """Per-trajectory digest kept alongside the ensemble statistics."""

    trajectory_id: int
    jumps: list[JumpEvent]
    final_observables: dict[str, float]

    @property
    def n_jumps(self) -> int:
        return len(self.jumps)

    @property
    def jump_times(self) -> np.ndarray:
        return np.array([j.time for j in self.jumps])


@dataclass
class EnsembleStatistics:
    """Across-trajectory mean and standard error per recorded time.

    ``curves`` holds the raw per-trajectory series (one row per trajectory)
    when the ensemble was run with keep_curves=True; block-wise analyses
    and ``record`` need them.
    """

    times: np.ndarray
    mean: dict[str, np.ndarray]
    std_error: dict[str, np.ndarray]
    n_trajectories: int
    total_jumps: int
    trajectory_summaries: list[TrajectorySummary] = field(default_factory=list)
    curves: Optional[dict[str, np.ndarray]] = None
    master_seed: Optional[int] = None

    def observable_names(self) -> tuple[str, ...]:
        return tuple(self.mean.keys())

    def record(self, i: int) -> TrajectoryRecord:
        """Trajectory ``i`` as the run recorded it; needs the curves."""
        if self.curves is None:
            raise ValueError("per-trajectory records need an ensemble run with keep_curves=True")
        summary = self.trajectory_summaries[i]
        return TrajectoryRecord(
            trajectory_id=summary.trajectory_id,
            times=self.times,
            observables={k: v[i] for k, v in self.curves.items()},
            jumps=summary.jumps,
            seed_used=self.master_seed,
            final_observables=summary.final_observables,
        )


def default_workers() -> int:
    """The worker count ZENOSIM_WORKERS sets, else the number of CPUs."""
    env = os.environ.get(WORKERS_ENV)
    if not env:
        return max(1, os.cpu_count() or 1)
    try:
        workers = int(env)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"{WORKERS_ENV} must be a positive integer, got {env!r}")
    return workers


def _streams(config: RunConfig, lo: int, hi: int) -> list[RngStream]:
    return [RngStream(config.master_seed, i) for i in range(lo, hi)]


def _run_range(config: RunConfig, lo: int, hi: int) -> TrajectoryBatch:
    return run_batch(build_model(config.model), config, _streams(config, lo, hi))


def mean_and_stderr(curves: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean over the rows of ``curves`` and its standard error, per column.

    Two-pass: the squared deviations are summed once the mean is known, so
    curves far from zero keep their variance, which the one-pass
    ``E[x^2] - E[x]^2`` loses to cancellation (Welford, Technometrics 4,
    419, 1962).
    """
    n = curves.shape[0]
    mean = curves.mean(axis=0)
    if n < 2:
        return mean, np.zeros_like(mean)
    dev = curves - mean
    return mean, np.sqrt(np.einsum("ij,ij->j", dev, dev) / ((n - 1) * n))


def run_ensemble(config: RunConfig, workers: Optional[int] = None,
                 keep_curves: bool = False) -> EnsembleStatistics:
    """Run the configured ensemble and aggregate statistics.

    The trajectories run in chunks, each one batch of the engine.  A failing
    trajectory aborts the run; its error names the master seed and the
    trajectory index, so ``run_trajectory`` replays it alone.
    """
    n = config.n_trajectories
    if workers is None:
        workers = default_workers()
    workers = max(1, min(workers, n))
    model = build_model(config.model)
    size = max(1, min(BATCH_AMPLITUDES // model.dim, -(-n // workers)))
    ranges = [(lo, min(lo + size, n)) for lo in range(0, n, size)]

    if workers == 1:
        batches = [run_batch(model, config, _streams(config, lo, hi)) for lo, hi in ranges]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_range, config, lo, hi) for lo, hi in ranges]
            try:
                batches = [fut.result() for fut in futures]
            except BaseException:
                for fut in futures:
                    fut.cancel()
                raise

    first = batches[0]
    names = tuple(first.observables)
    curves = {k: np.concatenate([b.observables[k] for b in batches]) for k in names}
    mean, std_error = {}, {}
    for k in names:
        mean[k], std_error[k] = mean_and_stderr(curves[k])
    records = (b.record(j) for b in batches for j in range(len(b.streams)))
    summaries = [TrajectorySummary(r.trajectory_id, r.jumps, r.final_observables)
                 for r in records]

    return EnsembleStatistics(
        times=first.times.copy(),
        mean=mean,
        std_error=std_error,
        n_trajectories=n,
        total_jumps=sum(s.n_jumps for s in summaries),
        trajectory_summaries=summaries,
        curves=curves if keep_curves else None,
        master_seed=config.master_seed,
    )


@dataclass(frozen=True)
class FitResult:
    """Exponent extracted from a log-linear least-squares fit."""

    rate: float
    intercept: float
    window: tuple[float, float]
    residual_rms: float
    n_points: int


def fit_exponential_rate(times: np.ndarray, values: np.ndarray,
                         window: tuple[float, float],
                         weights: Optional[np.ndarray] = None) -> FitResult:
    """Least-squares line through log(values) on t in [window]; rate = -slope.

    ``weights`` (inverse variances of the log-values), when given, turn the
    fit into weighted least squares; the default is the plain unweighted
    fit.
    """
    t_lo, t_hi = window
    if not t_lo < t_hi:
        raise ValueError(f"empty fit window {window}")
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = (times >= t_lo) & (times <= t_hi)
    if mask.sum() < 10:
        raise ValueError(f"fit window {window} contains {mask.sum()} points; need >= 10")
    y = values[mask]
    if np.any(y <= 0):
        raise NonPositiveValues(
            f"{int(np.sum(y <= 0))} non-positive samples inside fit window {window}"
        )
    t = times[mask]
    logy = np.log(y)
    w = None if weights is None else np.sqrt(np.asarray(weights, dtype=float)[mask])
    slope, intercept = np.polyfit(t, logy, 1, w=w)
    resid = logy - (slope * t + intercept)
    return FitResult(
        rate=-float(slope),
        intercept=float(intercept),
        window=(float(t_lo), float(t_hi)),
        residual_rms=float(np.sqrt(np.mean(resid ** 2))),
        n_points=int(mask.sum()),
    )


def default_fit_window(times: np.ndarray, mean: np.ndarray, std_error: np.ndarray,
                       t_start: float, noise_floor: float = 0.02,
                       snr_stop: float = 8.0) -> tuple[float, float]:
    """Fit window skipping the short-time region and the noise-dominated tail.

    Starts at t_start; ends just before the first time where
    mean - 2*std_error drops below max(noise_floor, snr_stop*std_error) (or
    at the last sample).  The signal-to-noise cutoff keeps the log-linear
    fit conditioned: with a plain absolute floor the tail points carry
    O(1) log-noise at small ensembles and dominate the fitted slope.
    """
    times = np.asarray(times)
    cutoff = np.maximum(noise_floor, snr_stop * std_error)
    below = np.nonzero((mean - 2.0 * std_error < cutoff) & (times > t_start))[0]
    t_hi = times[below[0] - 1] if len(below) and below[0] > 0 else times[-1]
    if t_hi <= t_start:
        t_hi = times[-1]
    return (float(t_start), float(t_hi))


def block_rate_estimate(times: np.ndarray, curves: np.ndarray,
                        window: tuple[float, float], n_blocks: int = 10,
                        noise_floor: float = 0.02) -> tuple[float, float, np.ndarray]:
    """Rate mean and standard error over disjoint trajectory blocks.

    ``curves`` holds one row per trajectory.  The trajectories are split
    into ``n_blocks`` contiguous blocks; each block-mean curve is fitted on
    ``window``, truncated where that block's own values reach the noise
    floor.  The block fits weight each log-point with the inverse of its
    binomial log-variance (proportional to m/(1-m) for occupation curves,
    whose per-trajectory variance is m(1-m)), which keeps the noisy tail
    from dominating the slope.  Returns (mean rate, standard error,
    per-block rates).
    """
    curves = np.asarray(curves)
    n = curves.shape[0]
    if n < n_blocks:
        n_blocks = max(2, n)
    edges = np.linspace(0, n, n_blocks + 1).astype(int)
    rates = []
    for b in range(n_blocks):
        block = curves[edges[b]:edges[b + 1]].mean(axis=0)
        t_lo, t_hi = window
        usable = (times >= t_lo) & (times <= t_hi) & (block > noise_floor)
        if usable.sum() < 10:
            continue
        weights = np.clip(block, 1e-6, 1 - 1e-3)
        weights = weights / (1.0 - weights)
        try:
            fit = fit_exponential_rate(times, block, (t_lo, float(times[usable][-1])),
                                       weights=weights)
        except NonPositiveValues:
            continue
        rates.append(fit.rate)
    if len(rates) < 3:
        raise ValueError("too few usable blocks for a rate uncertainty estimate")
    rates = np.asarray(rates)
    return float(rates.mean()), float(rates.std(ddof=1) / np.sqrt(len(rates))), rates
