"""Seeded parallel trajectory ensembles and exponential-rate extraction.

Trajectory i always uses random substream i of the master seed, and the
engine steps each chunk of trajectories as one batch whose rows do not
depend on each other, so every trajectory's record is independent of worker
count, chunking and merge order.  The merge concatenates the chunks in index
order into one TrajectoryBatch, with one (n, npts) array per observable,
and takes the mean and standard error from it with a two-pass formula,
which makes ensemble statistics bit-stable across reruns and worker
counts, and numerically stable.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import ConfigError, ModelSpec, RunConfig, build_model
from .engine import RngStream, TrajectoryBatch, TrajectoryRecord, run_batch
# ``run_trajectory`` stays importable from this module: benchmarks/tracing.py
# wraps it here by name.
from .engine import run_trajectory  # noqa: F401

WORKERS_ENV = "ZENOSIM_WORKERS"

# Amplitudes per batch (rows x model dimension).  Past a few tens of rows
# a band model's step costs about the same per row (fig10 at dim 206, one
# process on a 2-vCPU x86-64 VM, two rounds: 30-41, 26-43, 26-32 and 27-32
# ms per trajectory in batches of 16, 39, 64 and 159 rows), so its batches
# stay small enough to share the trajectories out evenly among the workers:
# 39 rows.  A 4-level model's batch is one worker's share of the
# trajectories.
BATCH_AMPLITUDES = 2 ** 13

# default_fit_window and block_rate_estimate end a fit where its curve falls
# to this floor.
FIT_FLOOR = 0.02


class NonPositiveValues(ValueError):
    """Log-linear fit requested on data containing values <= 0."""


@dataclass
class EnsembleStatistics:
    """Across-trajectory mean and standard error per recorded time.

    ``trajectories`` is the run's merged batch, one row per trajectory: its
    jumps and final values are always kept, its observables only when the
    ensemble was run with keep_curves=True (block-wise analyses and
    ``record`` need them).
    """

    times: np.ndarray
    mean: dict[str, np.ndarray]
    std_error: dict[str, np.ndarray]
    n_trajectories: int
    total_jumps: int
    trajectories: Optional[TrajectoryBatch] = None

    def observable_names(self) -> tuple[str, ...]:
        return tuple(self.mean.keys())

    def record(self, i: int) -> TrajectoryRecord:
        """Trajectory ``i`` as the run recorded it; needs the curves."""
        if self.trajectories is None or not self.trajectories.observables:
            raise ValueError("per-trajectory records need an ensemble run with keep_curves=True")
        return self.trajectories.record(i)


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


@functools.lru_cache(maxsize=1)
def _horizon_model(spec: ModelSpec, t_max: float):
    """The model a run up to ``t_max`` steps, cached per process for every
    chunk of the run; ``run_ensemble`` frees it.  Not to be shared between
    threads: ``_act`` reuses the model's padded buffers."""
    return build_model(spec).for_horizon(t_max)


def _run_range(config: RunConfig, lo: int, hi: int) -> TrajectoryBatch:
    streams = [RngStream(config.master_seed, i) for i in range(lo, hi)]
    return run_batch(_horizon_model(config.model, config.t_max), config, streams)


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

    The trajectories run in chunks through ``_run_range`` on their process's
    one model of the run, freed when it ends.  The model reuses its buffers,
    so ``run_ensemble`` must not run in several threads of one process at
    once.  A failing trajectory aborts the run; its error names the master
    seed and the trajectory index, so ``run_trajectory`` replays it alone.
    """
    n = config.n_trajectories
    if workers is None:
        workers = default_workers()
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    workers = min(workers, n)
    try:
        # a band model's dimension on the chain this run steps sizes the batches
        dim = _horizon_model(config.model, config.t_max).dim
        size = max(1, min(BATCH_AMPLITUDES // dim, -(-n // workers)))
        ranges = [(lo, min(lo + size, n)) for lo in range(0, n, size)]
        if workers == 1:
            batches = [_run_range(config, lo, hi) for lo, hi in ranges]
        else:
            # imported here: a one-worker run does not load multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(_run_range, config, lo, hi) for lo, hi in ranges]
                try:
                    batches = [fut.result() for fut in futures]
                except BaseException:
                    pool.shutdown(cancel_futures=True)
                    raise
    finally:
        _horizon_model.cache_clear()

    merged = TrajectoryBatch.concatenate(batches)
    mean, std_error = {}, {}
    for k, curves in merged.observables.items():
        mean[k], std_error[k] = mean_and_stderr(curves)
    if not keep_curves:
        merged.observables = {}

    return EnsembleStatistics(
        times=merged.times,
        mean=mean,
        std_error=std_error,
        n_trajectories=n,
        total_jumps=sum(len(j) for j in merged.jumps),
        trajectories=merged,
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
                       t_start: float) -> tuple[float, float]:
    """Fit window skipping the short-time region and the noise-dominated tail.

    Starts at t_start; ends just before the first time where
    mean - 2*std_error drops below max(FIT_FLOOR, 8*std_error) (or at the
    last sample).  The signal-to-noise cutoff keeps the log-linear
    fit conditioned: with a plain absolute floor the tail points carry
    O(1) log-noise at small ensembles and dominate the fitted slope.
    """
    times = np.asarray(times)
    cutoff = np.maximum(FIT_FLOOR, 8.0 * std_error)
    below = np.nonzero((mean - 2.0 * std_error < cutoff) & (times > t_start))[0]
    t_hi = times[below[0] - 1] if len(below) and below[0] > 0 else times[-1]
    if t_hi <= t_start:
        t_hi = times[-1]
    return (float(t_start), float(t_hi))


def block_rate_estimate(times: np.ndarray, curves: np.ndarray,
                        window: tuple[float, float]) -> tuple[float, float, np.ndarray]:
    """Rate mean and standard error over disjoint trajectory blocks.

    ``curves`` holds one row per trajectory.  The trajectories are split
    into 10 contiguous blocks (one per trajectory below 10, at least 2);
    each block-mean curve is fitted on ``window``, truncated where that
    block's own values reach FIT_FLOOR.  The block fits weight each
    log-point with the inverse of its binomial log-variance (proportional
    to m/(1-m) for occupation curves, whose per-trajectory variance is
    m(1-m)), which keeps the noisy tail from dominating the slope.
    Returns (mean rate, standard error, per-block rates).
    """
    curves = np.asarray(curves)
    n = curves.shape[0]
    n_blocks = max(2, min(10, n))
    edges = np.linspace(0, n, n_blocks + 1).astype(int)
    rates = []
    for b in range(n_blocks):
        block = curves[edges[b]:edges[b + 1]].mean(axis=0)
        t_lo, t_hi = window
        usable = (times >= t_lo) & (times <= t_hi) & (block > FIT_FLOOR)
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
