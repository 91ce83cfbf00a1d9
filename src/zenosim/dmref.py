"""Exact density-matrix integrators used as independent ensemble oracles.

These deterministic references are integrated with fixed-step RK4 at a
finer step than the stochastic engine, so their error is negligible against
Monte Carlo error.  Populations from a large trajectory ensemble must agree
with them pointwise; that comparison is the core consistency check of the
whole package.

Both references are master equations rho' = K rho + rho K^+ + J rho J^+ of
the jump unraveling, applied by one routine (``_lindblad``) with K a band
built from a tridiagonal Hamiltonian (``_band``) and J a map of slots.
The generator is constant, so its RK4 step is the degree-4 Taylor
polynomial of exp(dt L), in Horner form (``_rk4``).  The 4-level master
equation is small: RK4 on its 16 unit matrices gives its step matrix once,
and each recorded point (a power of it) is a single matvec.  The band
density matrix runs on the band's Lanczos chain, as long as its horizon
needs, at O(n^2) a call, with RK4 applied to rho itself.
"""

from __future__ import annotations

import numpy as np

from .models import ReservoirSpec
from .config import ModelSpec, build_model

HERMITICITY_TOL = 1e-8
TRACE_TOL = 1e-7


class ToleranceExceeded(RuntimeError):
    """Integrator drifted outside the density-matrix invariants."""


def check_density_matrix(rho: np.ndarray, hermiticity_tol: float = 1e-10,
                         trace_tol: float = 1e-10, eig_tol: float = 1e-8) -> None:
    """Raise ToleranceExceeded unless rho is Hermitian, unit trace and PSD;
    a NaN fails every check."""
    herm = np.max(np.abs(rho - rho.conj().T))
    if not herm <= hermiticity_tol:
        raise ToleranceExceeded(f"hermiticity defect {herm:.3g}")
    tr = abs(np.trace(rho) - 1.0)
    if not tr <= trace_tol:
        raise ToleranceExceeded(f"trace defect {tr:.3g}")
    eigs = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    if not eigs.min() >= -eig_tol:
        raise ToleranceExceeded(f"negative eigenvalue {eigs.min():.3g}")


def _require_horizon(t_max: float, dt: float, record_every: int | None = None) -> None:
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    if not (np.isfinite(t_max) and t_max >= 0):
        raise ValueError(f"t_max must be finite and >= 0, got {t_max}")
    if record_every is not None and record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")


def _rk4(apply, y, dt, work=None):
    """One classical RK4 step of y' = L y for a constant linear generator L.

    For such an L the four stages collapse to the degree-4 Horner form
    y + dt L(y + dt/2 L(y + dt/3 L(y + dt/4 L y))).  ``apply(v, out)``
    writes L v into ``out``, which never aliases ``v``.  ``work`` holds two
    arrays shaped like ``y``; the new state is returned in the first one.
    """
    w, k = work if work is not None else (np.empty_like(y), np.empty_like(y))
    w[...] = y
    for c in (0.25 * dt, dt / 3.0, 0.5 * dt, dt):
        apply(w, k)
        np.multiply(k, c, out=w)
        w += y
    return w


def _band(diagonal, hopping, detector=None) -> np.ndarray:
    """K = -i H of the real symmetric tridiagonal H = (diagonal, hopping) as
    a band ``k[i, w + m] = K[i, i + m]`` of half-width w.  With a ``detector``
    (DetectorParams) each row of H holds the detector levels a, b in slots
    2 row and 2 row + 1, and K gains each row's 2x2 block over them: splitting
    omega_d/2, decay gamma/2 on a, and lam on the monitored rows (row 0 is the
    system's excited level, every later row a ground one)."""
    levels = 1 if detector is None else 2
    k = np.zeros((levels * len(diagonal), 2 * levels + 1), complex)
    k[:, levels] = -1j * np.repeat(diagonal, levels)
    k[:-levels, -1] = k[levels:, 0] = -1j * np.repeat(hopping, levels)
    if detector is not None:
        k[0::2, 2] += -0.5j * detector.omega_d - 0.5 * detector.gamma
        k[1::2, 2] += 0.5j * detector.omega_d
        monitored = (np.arange(len(diagonal)) > 0) != (detector.coupling_target == "excited")
        k[0::2, 3] = k[1::2, 1] = -1j * detector.lam * monitored
    return k


def _lindblad(k: np.ndarray, jump: tuple[slice, slice], rate: float):
    """``apply(r, out)``: out = K r + r K^+ + rate J r J^+ over the last two
    axes of r, for K the band ``k`` (as ``_band`` makes it) and J the map
    of the slots ``jump[0]`` onto the slots ``jump[1]``.

    K's main diagonal on both sides is one elementwise factor, and every
    other nonzero diagonal one shifted product per side, so a call costs
    O(n^2) where dense products cost O(n^3).
    """
    w = k.shape[1] // 2
    factor = k[:, w, None] + k[:, w].conj()
    shifts = []
    for m in range(1, w + 1):
        # K[i, i + m] and K[i + m, i] for i < n - m: columns for the left
        # side, conjugated rows for the right
        up, down = k[:len(k) - m, w + m], k[m:, w - m]
        if up.any() or down.any():
            shifts.append((m, up[:, None], down[:, None], up.conj(), down.conj()))
    src, dst = jump

    def apply(r, out):
        np.multiply(factor, r, out=out)
        for m, up, down, up_h, down_h in shifts:
            out[..., :-m, :] += up * r[..., m:, :]
            out[..., m:, :] += down * r[..., :-m, :]
            out[..., :-m] += up_h * r[..., m:]
            out[..., m:] += down_h * r[..., :-m]
        out[..., dst, dst] += rate * r[..., src, src]

    return apply


def evolve_master_detector(spec: ModelSpec, t_max: float, dt: float,
                           rho0: np.ndarray | None = None,
                           record_every: int = 1):
    """Integrate the monitored-system master equation on the 4-level basis.

    ``spec`` must be a 'detector' or 'rabi' ModelSpec; ``rho0`` defaults to
    the pure state of the model's initial amplitudes.  Returns (times, rhos)
    with rhos of shape (n_rec, 4, 4): t = 0 and every ``record_every``-th of
    the round(t_max/dt) RK4 steps of size ``dt``.
    The generator is constant (in the rotating frame for a detuned drive),
    so the RK4 step is one 16x16 matrix and ``record_every`` steps are its
    power: one matvec per recorded point.  Hermiticity is checked at every
    recorded point; trace preservation holds to integrator accuracy.
    """
    if spec.variant not in ("detector", "rabi"):
        raise ValueError("master-equation reference covers the 4-level models only")
    _require_horizon(t_max, dt, record_every)
    # the excited row's energy, omega_r and frame: the rabi drive is constant
    # in the frame rotating by exp(i detuning t P_e), where P_e gains detuning
    if spec.variant == "detector":
        energy, omega_r, frame = spec.omega_a, 0.0, 0.0
    else:
        energy, omega_r, frame = spec.drive.detuning, spec.drive.omega_r, spec.drive.detuning

    if rho0 is None:
        psi = build_model(spec).initial_amplitudes()
        rho = np.outer(psi, psi.conj())
    else:
        rho = np.asarray(rho0, dtype=complex).copy()
        check_density_matrix(rho, hermiticity_tol=1e-10, trace_tol=1e-9)

    # the jump takes each a slot to its b slot; unit matrix j steps to column j
    apply = _lindblad(_band([energy, 0.0], [-0.5 * omega_r], spec.detector),
                      (slice(0, None, 2), slice(1, None, 2)), spec.detector.gamma)
    step = _rk4(apply, np.eye(16, dtype=complex).reshape(16, 4, 4), dt)
    prop = np.linalg.matrix_power(step.reshape(16, 16).T, record_every)
    n_rec = int(round(t_max / dt)) // record_every
    times = np.arange(n_rec + 1) * record_every * dt
    vecs = np.empty((n_rec + 1, 16), complex)
    vecs[0] = rho.reshape(16)
    for i in range(n_rec):
        vecs[i + 1] = prop @ vecs[i]
    rhos = vecs.reshape(-1, 4, 4)
    # back to the reported frame: rho_eg picks up exp(i frame t)
    excited = np.array([1.0, 1.0, 0.0, 0.0])
    rhos *= np.exp(1j * frame * times[:, None, None]
                   * (excited[:, None] - excited[None, :]))
    herm = np.max(np.abs(rhos - rhos.conj().transpose(0, 2, 1)), axis=(1, 2))
    if not np.all(herm <= HERMITICITY_TOL):   # a NaN fails too
        i = int(np.argmin(herm <= HERMITICITY_TOL))
        raise ToleranceExceeded(f"hermiticity drift {herm[i]:.3g} at t={times[i]}")
    return times, rhos


def four_level_populations(rhos: np.ndarray) -> dict[str, np.ndarray]:
    """Observables matching the trajectory models' names, from 4-level rhos."""
    rho_aa = np.real(rhos[:, 0, 0] + rhos[:, 2, 2])
    rho_bb = np.real(rhos[:, 1, 1] + rhos[:, 3, 3])
    rho_ee = np.real(rhos[:, 0, 0] + rhos[:, 1, 1])
    rho_gg = np.real(rhos[:, 2, 2] + rhos[:, 3, 3])
    rho_eg = rhos[:, 0, 2] + rhos[:, 1, 3]
    return {
        "rho_aa": rho_aa,
        "rho_bb": rho_bb,
        "rho_ee": rho_ee,
        "rho_gg": rho_gg,
        "rho_eg_re": rho_eg.real,
        "rho_eg_im": rho_eg.imag,
    }


def evolve_measured_decay_dm(res: ReservoirSpec, tau_m: float, t_max: float,
                             dt: float, record_every: int | None = None):
    """Excited-state population of the measured decaying system, reduced DM.

    Integrates the single-excitation Liouville-von Neumann equation with
    the system <-> reservoir coherences additionally damped at 1/tau_m (the
    detector enters through that rate only) by RK4 on the band's Lanczos
    chain, as long as a run to ``t_max`` needs (``ReservoirSpec.chain_sites``).
    The damping is the same on every mode, so the change of basis to the
    chain leaves it as it is, and the chain is exact up to its horizon.

    Returns (times, populations) where populations is the excited-state
    occupation.  Raises ToleranceExceeded if the trace drifts beyond 1e-7.
    """
    _require_horizon(t_max, dt, record_every)
    if not tau_m > 0:
        raise ValueError(f"tau_m must be > 0, got {tau_m}")
    h = res.chain(res.chain_sites(t_max))
    # K = -i h - |0><0|/tau_m and J = sqrt(2/tau_m) |0><0|: the coherences
    # of row 0 decay at 1/tau_m, and its population is kept
    k = _band(np.diag(h), np.diag(h, 1))
    k[0, 1] -= 1.0 / tau_m
    apply = _lindblad(k, (slice(0, 1), slice(0, 1)), 2.0 / tau_m)

    rho = np.zeros(h.shape, complex)
    rho[0, 0] = 1.0
    work = (np.empty_like(rho), np.empty_like(rho))

    n_steps = int(round(t_max / dt))
    if record_every is None:
        record_every = max(1, int(round(1.0 / dt)))
    times = [0.0]
    pops = [1.0]
    for i in range(n_steps):
        rho[...] = _rk4(apply, rho, dt, work)
        if (i + 1) % record_every == 0:
            drift = abs(np.trace(rho).real - 1.0) + abs(np.trace(rho).imag)
            if not drift <= TRACE_TOL:
                raise ToleranceExceeded(f"trace drift {drift:.3g} at t={(i+1)*dt}")
            times.append((i + 1) * dt)
            pops.append(float(rho[0, 0].real))
    return np.array(times), np.array(pops)
