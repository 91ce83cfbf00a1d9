"""Stochastic quantum-jump integrator, stepping a batch of trajectories at once.

A batch of n trajectories is one (n, dim) complex array, one row per
trajectory, advanced together on a uniform grid t_n = n*dt.  Each step first
evolves every row over dt under the non-Hermitian effective Hamiltonian,
without renormalizing, to c'.  Every model's generator is constant in the
frame it is stepped in, so ``model.propagate`` steps exactly with its
cached factor exp(K dt), summed on K's band; a band model first shortens
its chain to the run's horizon (``model.for_horizon``), and an initial state
given in the config is read by ``model.own_amplitudes``.  The collapse
probability of a row's step is the norm that this no-jump evolution lost,
``p = 1 - |c'|^2`` (Dalibard, Castin & Molmer, PRL 68, 580, 1992; Plenio &
Knight, Rev. Mod. Phys. 70, 101, 1998).  Every trajectory draws one
uniform random number ``r`` per step, also when Gamma = 0: if ``p > r`` the
jump operator collapses that row's c', otherwise c' is renormalized.  A
jump is recorded at the grid time t_n at which its step began.  Observables
are recorded after the step, at t_{n+1}, and are given that time; the
initial values at t=0.

Every operation acts row by row, with a rounding that does not depend on the
number of rows, so a trajectory's record is bit-identical whether it runs
alone (``run_trajectory`` is a batch of one) or in a batch of any size, in
any worker.

The states of a block of steps, about ``STATE_BLOCK`` amplitudes, are kept
in one (block + 1, n, dim) array: step s propagates slot s into slot s + 1,
then decides, collapses and renormalizes that slot in place.  When the block
ends, the step-size guard and the recorded observables are evaluated once
on all its kept states, and its last state moves to slot 0.

The rule allows one jump per step, so ``Gamma * dt * excited_weight`` on the
state at the start of the step serves as the step-size guard: above 0.1 it
warns (JumpProbabilityWarning, once per batch), above 1 it raises
ProbabilityOverflow, each reported at its own step; a ZeroNorm in the
middle of a block is raised after the guard of the block's steps up to it,
so an earlier overflow still comes first.  ``TrajectoryBatch.max_jump_prob``
keeps the largest guard.  ProbabilityOverflow, and ZeroNorm for a state
whose norm underflows or is not a number, name the master seed and the
trajectory, so the failure can be replayed alone.

Randomness comes from a counter-based Philox generator keyed by
``(master_seed, stream_id)`` (Salmon et al., SC'11), so any (seed,
trajectory) pair reproduces the identical uniform sequence on every platform
and trajectories are independent by construction.  Each trajectory's
uniforms are drawn in blocks of ``UNIFORM_BLOCK`` steps: a block of k draws
is the same sequence as k single draws, and memory stays bounded.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
import numpy as np

from .models import _weight

JUMP_PROBABILITY_WARN = 0.1
UNIFORM_BLOCK = 1024   # steps of uniforms drawn per trajectory at a time
STATE_BLOCK = 2 ** 15  # amplitudes of the states kept per block of steps
ZERO_NORM_THRESHOLD = 1e-300


class ZeroNorm(ValueError):
    """Raised when a state's squared norm is too small to renormalize (at or
    below ZERO_NORM_THRESHOLD) or is not a number.

    Signals a numerically dead trajectory, e.g. a collapse applied to a state
    with no weight in the collapsed subspace.
    """


class ProbabilityOverflow(RuntimeError):
    """Jump probability per step exceeded 1; the time step is too large."""


class JumpProbabilityWarning(UserWarning):
    """The step-size guard Gamma*dt*w exceeded 0.1: with at most one jump per
    step, the jump statistics become visibly coarse."""


@dataclass(frozen=True)
class RngStream:
    """Keyed substream of the ensemble's random numbers.

    Equal (master_seed, stream_id) pairs give bit-identical uniform
    sequences; distinct pairs give statistically independent streams.
    """

    master_seed: int
    stream_id: int

    def generator(self) -> np.random.Generator:
        key = np.array(
            [self.master_seed & 0xFFFFFFFFFFFFFFFF, self.stream_id & 0xFFFFFFFFFFFFFFFF],
            dtype=np.uint64,
        )
        return np.random.Generator(np.random.Philox(key=key))


@dataclass
class TrajectoryRecord:
    """Recorded time series of one trajectory; ``jumps`` lists the grid times
    at which its collapses were decided."""

    trajectory_id: int
    times: np.ndarray
    observables: dict[str, np.ndarray]
    jumps: list[float]
    seed_used: int
    final_observables: dict[str, float] = field(default_factory=dict)


def _renormalize(c: np.ndarray) -> np.ndarray:
    """``c`` scaled to unit norm by a positive real, so its phase is kept."""
    n2 = _weight(c)
    if not n2 > ZERO_NORM_THRESHOLD:
        raise ZeroNorm(f"state norm underflowed ({n2})")
    return c / np.sqrt(n2)


def _trajectory(stream: RngStream) -> str:
    return f"(master_seed={stream.master_seed}, trajectory={stream.stream_id})"


@dataclass
class TrajectoryBatch:
    """Recorded time series of a batch of trajectories, one row each.

    ``observables`` maps a name to an (n, len(times)) array and
    ``final_observables`` a name to the n values at the end of the run;
    ``jumps[k]`` lists the grid times of the collapses of the trajectory of
    ``streams[k]``; ``max_jump_prob`` is the largest step-size guard
    ``Gamma*dt*w`` over all steps and rows (0 without a detector).
    """

    streams: list[RngStream]
    times: np.ndarray
    observables: dict[str, np.ndarray]
    jumps: list[list[float]]
    final_observables: dict[str, np.ndarray]
    max_jump_prob: float

    @classmethod
    def concatenate(cls, batches: list[TrajectoryBatch]) -> TrajectoryBatch:
        """One batch of the rows of ``batches``, in order; they share a grid."""
        first = batches[0]
        return cls(
            streams=[s for b in batches for s in b.streams],
            times=first.times,
            observables={k: np.concatenate([b.observables[k] for b in batches])
                         for k in first.observables},
            jumps=[j for b in batches for j in b.jumps],
            final_observables={k: np.concatenate([b.final_observables[k] for b in batches])
                               for k in first.final_observables},
            max_jump_prob=max(b.max_jump_prob for b in batches),
        )

    def record(self, k: int) -> TrajectoryRecord:
        """Trajectory ``k`` of the batch on its own."""
        stream = self.streams[k]
        return TrajectoryRecord(
            trajectory_id=stream.stream_id,
            times=self.times,
            observables={name: v[k] for name, v in self.observables.items()},
            jumps=self.jumps[k],
            seed_used=stream.master_seed,
            final_observables={name: float(v[k]) for name, v in self.final_observables.items()},
        )


def _initial_amplitudes(model, config) -> np.ndarray:
    if getattr(config, "initial_amplitudes", None) is not None:
        c = model.own_amplitudes(np.asarray(config.initial_amplitudes, dtype=complex))
    else:
        c = model.initial_amplitudes().astype(complex)
    return _renormalize(c)


def _check_guard(guard: np.ndarray, t: float, streams, warn: bool) -> None:
    """Raise ProbabilityOverflow if a row's guard exceeds 1, else warn if
    ``warn``; called once some row's guard exceeds 0.1."""
    over = np.flatnonzero(guard > 1.0)
    if over.size:
        k = over[0]
        raise ProbabilityOverflow(
            f"jump probability {guard[k]} > 1 at t={t} {_trajectory(streams[k])}"
        )
    if warn:
        k = int(np.argmax(guard))
        warnings.warn(
            f"jump probability reached {guard[k]:.3g} at t={t} {_trajectory(streams[k])}; "
            "dt is large for this model",
            JumpProbabilityWarning,
            stacklevel=3,
        )


def run_batch(model, config, streams) -> TrajectoryBatch:
    """Integrate one stochastic trajectory per stream, all in one batch.

    ``config`` needs dt, t_max, observables, decimation and an
    optional initial_amplitudes override.  Trajectory k is fully determined
    by (model, config, streams[k]): the other rows of the batch do not
    change it.
    """
    dt = config.dt
    if dt <= 0:
        raise ValueError("dt must be > 0")
    n_steps = int(round(config.t_max / dt))
    if n_steps < 1:
        raise ValueError("t_max must be at least one step")
    stride = int(config.decimation) if config.decimation else 1
    if stride < 1:
        raise ValueError("decimation must be >= 1")
    streams = list(streams)
    n = len(streams)
    if n < 1:
        raise ValueError("a batch needs at least one stream")

    model = model.for_horizon(config.t_max)
    names = tuple(config.observables) if config.observables else model.default_observables
    obs_funcs = model.observables()
    unknown = [name for name in names if name not in obs_funcs]
    if unknown:
        raise KeyError(f"unknown observables for this model: {unknown}")
    funcs = [obs_funcs[name] for name in names]

    block = max(1, STATE_BLOCK // (n * model.dim))
    states = np.empty((block + 1, n, model.dim), dtype=complex)
    states[0] = _initial_amplitudes(model, config)
    flat = states.view(np.float64)   # the states' real and imaginary parts
    n_rec = n_steps // stride
    times = np.arange(n_rec + 1) * (stride * dt)
    recs = {name: np.empty((n, n_rec + 1)) for name in names}
    for name, f in zip(names, funcs):
        recs[name][:, 0] = f(states[0], 0.0)

    gamma_dt = model.gamma * dt
    generators = [stream.generator() for stream in streams]
    jumps: list[list[float]] = [[] for _ in streams]
    warned = False
    max_jump_prob = 0.0

    for start in range(0, n_steps, block):
        m = min(block, n_steps - start)
        failure = None
        try:
            for s in range(m):
                i = start + s
                u = i % UNIFORM_BLOCK
                if u == 0:
                    uniforms = np.empty((min(UNIFORM_BLOCK, n_steps - i), n))
                    for k, gen in enumerate(generators):
                        uniforms[:, k] = gen.random(len(uniforms))
                t = i * dt
                c = model.propagate(states[s], dt, out=states[s + 1])
                n2 = _weight(c)
                # the jump probability is the norm the no-jump step lost; one
                # test passes the common step, in which no row jumps and no
                # norm is zero or NaN (1 - n2 is then 1.0 or NaN)
                jumped = ()
                if not (1.0 - n2 <= uniforms[u]).all():
                    if not n2.min() > ZERO_NORM_THRESHOLD:
                        # (a collapse of such a row could only leave a smaller norm)
                        k = int(np.argmin(n2))
                        raise ZeroNorm(f"state norm underflowed ({n2[k]}) at t={t} "
                                       f"{_trajectory(streams[k])}")
                    if gamma_dt > 0.0:
                        jumped = np.flatnonzero(1.0 - n2 > uniforms[u])
                    if len(jumped):
                        post = model.collapse_amplitudes(c[jumped])
                        m2 = _weight(post)
                        if not m2.min() > ZERO_NORM_THRESHOLD:
                            k = jumped[np.argmin(m2)]
                            raise ZeroNorm(f"collapsed state norm underflowed at t={t} "
                                           f"{_trajectory(streams[k])}")
                        post /= np.sqrt(m2)[:, None]
                        for k in jumped:
                            jumps[k].append(t)
                amplitudes = flat[s + 1]
                np.divide(amplitudes, np.sqrt(n2)[:, None], out=amplitudes)
                if len(jumped):
                    c[jumped] = post
        except ZeroNorm as exc:
            # the guard of this step and of the block's earlier ones comes first
            failure, m = exc, s + 1
        if gamma_dt > 0.0:
            guard = gamma_dt * model.excited_weight(states[:m])
            top = guard.max()
            max_jump_prob = max(max_jump_prob, top)
            if top > JUMP_PROBABILITY_WARN:
                for q in np.flatnonzero(guard.max(axis=1) > JUMP_PROBABILITY_WARN):
                    _check_guard(guard[q], (start + q) * dt, streams, warn=not warned)
                    warned = True
        if failure is not None:
            raise failure
        # the steps of the block that end on the record grid
        first = -(start + 1) % stride
        if first < m:
            kept = states[first + 1:m + 1:stride]
            j = (start + first + 1) // stride
            for name, f in zip(names, funcs):
                recs[name][:, j:j + len(kept)] = f(kept, times[j:j + len(kept), None]).T
        states[0] = states[m]

    return TrajectoryBatch(
        streams=streams,
        times=times,
        observables=recs,
        jumps=jumps,
        final_observables={name: f(states[0], n_steps * dt) for name, f in zip(names, funcs)},
        max_jump_prob=float(max_jump_prob),
    )


def run_trajectory(model, config, stream: RngStream) -> TrajectoryRecord:
    """Integrate one stochastic trajectory: a batch of one.

    The result is fully determined by (model, config, stream) and is
    bit-identical to that trajectory's row in any batch.
    """
    return run_batch(model, config, [stream]).record(0)
