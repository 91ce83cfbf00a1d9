"""Stochastic quantum-jump integrator, stepping a batch of trajectories at once.

A batch of n trajectories is one (n, dim) complex array, one row per
trajectory, advanced together on a uniform grid t_n = n*dt.  Each step first
evolves every row over dt under the non-Hermitian effective Hamiltonian,
without renormalizing, to c'.  The model's constant detector generator K is
applied exactly, as ``expm(K dt)`` computed once per model and dt; only the
time-dependent rest (the drive or the reservoir coupling) goes through the
configured integrator, in integrating-factor (Lawson) form.  The collapse
probability of a row's step is the norm that this no-jump evolution lost,
``p = 1 - |c'|^2`` (Dalibard, Castin & Molmer, PRL 68, 580, 1992; Plenio &
Knight, Rev. Mod. Phys. 70, 101, 1998).  Every trajectory draws one uniform
random number ``r`` per step, also when Gamma = 0: if ``p > r`` the jump
operator collapses that row's c', otherwise c' is renormalized.  A jump is
recorded at the grid time t_n at which its step began.  Observables are
recorded after the step, at t_{n+1}; the initial values are recorded at t=0.

Every operation acts row by row, with a rounding that does not depend on the
number of rows, so a trajectory's record is bit-identical whether it runs
alone (``run_trajectory`` is a batch of one) or in a batch of any size, in
any worker.

The rule allows one jump per step, so ``Gamma * dt * excited_weight`` on the
state at the start of the step serves as the step-size guard: above 0.1 it
warns (JumpProbabilityWarning, once per batch), above 1 it raises
ProbabilityOverflow.  That error, and ZeroNorm for a state whose norm
underflows, name the master seed and the trajectory, so the failure can be
replayed alone.

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

from .statevec import ZERO_NORM_THRESHOLD, StateVector, ZeroNorm, norm_squared

JUMP_PROBABILITY_WARN = 0.1
UNIFORM_BLOCK = 1024   # steps of uniforms drawn per trajectory at a time


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


@dataclass(frozen=True)
class JumpEvent:
    """A collapse: grid time at which it was decided, the norm of the
    detector-excited component just before the collapse, and the trajectory
    it belongs to."""

    time: float
    pre_jump_norm: float
    trajectory_id: int


@dataclass
class TrajectoryRecord:
    """Recorded time series of one trajectory."""

    trajectory_id: int
    times: np.ndarray
    observables: dict[str, np.ndarray]
    jumps: list[JumpEvent]
    seed_used: int
    final_observables: dict[str, float] = field(default_factory=dict)


# No-jump steppers: ``model.propagate(c, h)`` is the exact factor expm(K h)
# of the constant generator, ``model.coupling_derivative`` the time-dependent
# rest; both return unnormalized amplitudes.  A stepper may overwrite ``c``
# and ``work`` (an array shaped like c) and returns the evolved amplitudes,
# in one of the two or in a new array.


def _exact_step(model, t, dt, c, work):
    return model.propagate(c, dt, out=work)


def _euler_step(model, t, dt, c, work):
    x = model.coupling_derivative(t, c, out=work)
    x *= dt
    x += c
    return model.propagate(x, dt, out=c)


def _rk4_step(model, t, dt, c, work):
    # Lawson RK4: classical RK4 in the frame that removes K, mapped back
    f = model.coupling_derivative
    e = model.propagate
    half = 0.5 * dt
    e_half_c = e(c, half)
    e_c = e(c, dt)
    k1 = f(t, c)
    k2 = f(t + half, e(c + half * k1, half))
    k3 = f(t + half, e_half_c + half * k2)
    k4 = f(t + dt, e_c + dt * e(k3, half))
    return e_c + (dt / 6.0) * (e(k1, dt) + 2.0 * e(k2, half) + 2.0 * e(k3, half) + k4)


_STEPPERS = {"euler": _euler_step, "rk4": _rk4_step}


def _stepper(model, integrator: str):
    """The no-jump stepper; exact for models whose generator is constant."""
    if model.coupling_derivative is None:
        return _exact_step
    return _STEPPERS[integrator]


def _norm_squared(c: np.ndarray) -> np.ndarray:
    """Squared norm of every row, each reduced on its own."""
    return np.vecdot(c, c).real


def _renormalize(c: np.ndarray) -> np.ndarray:
    n2 = np.real(np.vdot(c, c))
    if n2 <= ZERO_NORM_THRESHOLD:
        raise ZeroNorm(f"state norm underflowed ({n2})")
    return c / np.sqrt(n2)


def _trajectory(stream: RngStream) -> str:
    return f"(master_seed={stream.master_seed}, trajectory={stream.stream_id})"


def jump_probability(state: StateVector, model, dt: float) -> float:
    """First-order collapse probability over one step from ``state``.

    Gamma * dt * (detector-excited probability) / norm^2.  The engine uses it
    as its step-size guard; the jump probability it draws against is the
    norm lost by the no-jump step.  Warns above 0.1 and raises
    ProbabilityOverflow above 1.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    n2 = norm_squared(state)
    p = model.gamma * dt * model.excited_weight(state.amplitudes) / n2
    if p > 1.0:
        raise ProbabilityOverflow(f"jump probability {p} > 1 at t={state.time}")
    if p > JUMP_PROBABILITY_WARN:
        warnings.warn(
            f"jump probability {p:.3g} > {JUMP_PROBABILITY_WARN}; "
            "at most one jump per step becomes a coarse approximation",
            JumpProbabilityWarning,
            stacklevel=2,
        )
    return p


def deterministic_step(state: StateVector, model, t: float, dt: float,
                       integrator: str = "euler") -> StateVector:
    """Advance one no-jump step under the effective Hamiltonian, renormalized."""
    if dt <= 0:
        raise ValueError("dt must be > 0")
    c = state.amplitudes.copy()
    c = _renormalize(_stepper(model, integrator)(model, t, dt, c, np.empty_like(c)))
    return StateVector(c, state.basis, time=t + dt)


def collapse(state: StateVector, model) -> StateVector:
    """Apply the jump operator (detector a -> b transfer) and renormalize."""
    c = _renormalize(model.collapse_amplitudes(state.amplitudes))
    return StateVector(c, state.basis, time=state.time)


@dataclass
class TrajectoryBatch:
    """Recorded time series of a batch of trajectories, one row each.

    ``observables`` maps a name to an (n, len(times)) array and
    ``final_observables`` a name to the n values at the end of the run;
    ``jumps[k]`` lists the collapses of the trajectory of ``streams[k]``.
    """

    streams: list[RngStream]
    times: np.ndarray
    observables: dict[str, np.ndarray]
    jumps: list[list[JumpEvent]]
    final_observables: dict[str, np.ndarray]

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
        c = np.asarray(config.initial_amplitudes, dtype=complex).copy()
        if c.shape != (model.dim,):
            raise ValueError(f"initial amplitudes must have shape ({model.dim},)")
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

    ``config`` needs dt, t_max, integrator, observables, decimation and an
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

    names = tuple(config.observables) if config.observables else model.default_observables
    obs_funcs = model.observables()
    unknown = [name for name in names if name not in obs_funcs]
    if unknown:
        raise KeyError(f"unknown observables for this model: {unknown}")
    funcs = [obs_funcs[name] for name in names]

    c = np.tile(_initial_amplitudes(model, config), (n, 1))
    work = np.empty_like(c)
    n_rec = n_steps // stride
    times = np.arange(n_rec + 1) * (stride * dt)
    recs = {name: np.empty((n, n_rec + 1)) for name in names}
    for name, f in zip(names, funcs):
        recs[name][:, 0] = f(c)

    gamma_dt = model.gamma * dt
    stepper = _stepper(model, config.integrator)
    generators = [stream.generator() for stream in streams]
    jumps: list[list[JumpEvent]] = [[] for _ in streams]
    warned = False

    for i in range(n_steps):
        s = i % UNIFORM_BLOCK
        if s == 0:
            uniforms = np.empty((min(UNIFORM_BLOCK, n_steps - i), n))
            for k, gen in enumerate(generators):
                uniforms[:, k] = gen.random(len(uniforms))
        t = i * dt
        if gamma_dt > 0.0:
            w = model.excited_weight(c)
            if gamma_dt * w.max() > JUMP_PROBABILITY_WARN:
                _check_guard(gamma_dt * w, t, streams, warn=not warned)
                warned = True
        evolved = stepper(model, t, dt, c, work)
        if evolved is work:
            work = c
        c = evolved
        n2 = _norm_squared(c)
        if n2.min() <= ZERO_NORM_THRESHOLD:
            # (a collapse of such a row could only leave a smaller norm)
            k = int(np.argmin(n2))
            raise ZeroNorm(f"state norm underflowed ({n2[k]}) at t={t} "
                           f"{_trajectory(streams[k])}")
        # the jump probability is the norm the no-jump step lost
        jumped = ()
        if gamma_dt > 0.0:
            jump = 1.0 - n2 > uniforms[s]
            if jump.any():
                jumped = np.flatnonzero(jump)
        if len(jumped):
            pre = c[jumped]
            weights = model.excited_weight(pre) / n2[jumped]
            post = model.collapse_amplitudes(pre)
            m2 = _norm_squared(post)
            if m2.min() <= ZERO_NORM_THRESHOLD:
                k = jumped[np.argmin(m2)]
                raise ZeroNorm(f"collapsed state norm underflowed at t={t} "
                               f"{_trajectory(streams[k])}")
            post /= np.sqrt(m2)[:, None]
            for k, w_k in zip(jumped, weights):
                jumps[k].append(JumpEvent(time=t, pre_jump_norm=float(np.sqrt(w_k)),
                                          trajectory_id=streams[k].stream_id))
        amplitudes = c.view(np.float64)
        np.divide(amplitudes, np.sqrt(n2)[:, None], out=amplitudes)
        if len(jumped):
            c[jumped] = post
        if (i + 1) % stride == 0:
            j = (i + 1) // stride
            for name, f in zip(names, funcs):
                recs[name][:, j] = f(c)

    return TrajectoryBatch(
        streams=streams,
        times=times,
        observables=recs,
        jumps=jumps,
        final_observables={name: f(c) for name, f in zip(names, funcs)},
    )


def run_trajectory(model, config, stream: RngStream) -> TrajectoryRecord:
    """Integrate one stochastic trajectory: a batch of one.

    The result is fully determined by (model, config, stream) and is
    bit-identical to that trajectory's row in any batch.
    """
    return run_batch(model, config, [stream]).record(0)
