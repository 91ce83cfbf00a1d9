"""The four physical models driving the jump engine.

Each model supplies, over a fixed labeled basis:

* ``derivative(t, c)``     -- action of the non-Hermitian effective
  Hamiltonian, as the time derivative of the amplitude array,
* ``propagate(c, dt)`` and ``coupling_derivative(t, c)`` -- the same
  generator split in two: ``propagate`` applies the exact propagator
  ``expm(K dt)`` of its constant detector part K, and
  ``coupling_derivative`` is the time-dependent rest (the drive or the
  reservoir coupling; ``None`` when there is none), which the engine's
  integrator handles,
* ``excited_weight(c)``    -- total probability in the detector-excited
  subspace (the collapse operator is ``sqrt(Gamma) sigma_-`` on the detector,
  so the jump rate is ``Gamma`` times this weight),
* ``collapse_amplitudes(c)`` -- the unnormalized post-jump amplitudes,
* named observables used for recording.

All of them act on the last axis: ``c`` is one state of shape (dim,) or a
batch of shape (n, dim), one trajectory per row, and each row's result is
computed on its own, with a rounding that does not depend on n.
``propagate`` and ``coupling_derivative`` write into a preallocated ``out``
array when given one (it must not overlap ``c``).

Models
------
``DetectorMeasurementModel``
    Two-level system monitored by a dissipative two-level detector; no
    perturbation.  Written in the frame where the system phase ``omega_a``
    appears explicitly, which is why that parameter exists at all.  It is
    part of the exactly propagated constant generator, so populations and
    jump records do not depend on it; the coherences ``rho_eg_re`` and
    ``rho_eg_im`` are frame quantities and rotate with it.
``RabiMeasuredModel``
    The same monitored system driven by a classical field (rotating-wave
    coupling ``omega_r``, detuning ``detuning``), written in the interaction
    picture so the drive carries explicit ``exp(+/- i detuning t)`` phases.
``FreeDecayModel``
    Excited two-level system coupled to a band of discretized reservoir
    modes; single-excitation sector, interaction picture, no detector and
    hence no jumps.
``MeasuredDecayModel``
    The decaying system of ``FreeDecayModel`` with the detector attached to
    the ground level (or to the excited level, via ``coupling_target``).

Basis ordering follows (system level, mode index, detector level) with
``e`` before ``g`` and ``a`` before ``b``.  Storage is dense; the detector
part acts through 2x2 blocks per system row, and the drive and the
reservoir coupling are matrix-free.  The band models evaluate their mode
phases once per time for the whole batch.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from scipy.linalg import block_diag, expm

from .statevec import BasisLabel, StateVector


@dataclass(frozen=True)
class DetectorParams:
    """Dissipative two-level detector.

    gamma is the decay rate of the excited detector level, lam the coupling
    strength to the monitored system level, omega_d the detector level
    splitting.  coupling_target selects which system level the detector
    monitors ('ground' or 'excited').
    """

    gamma: float = 10.0
    lam: float = 1.0
    omega_d: float = 1.0
    coupling_target: str = "ground"

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if self.coupling_target not in ("ground", "excited"):
            raise ValueError("coupling_target must be 'ground' or 'excited'")


@dataclass(frozen=True)
class DriveParams:
    """Classical drive in the rotating-wave approximation."""

    omega_r: float = 0.0
    detuning: float = 0.0

    def __post_init__(self):
        if self.omega_r < 0:
            raise ValueError("omega_r must be >= 0")


@dataclass(frozen=True)
class ReservoirSpec:
    """Discretized reservoir band.

    n_modes equally spaced mode frequencies span
    [omega_a - half_width, omega_a + half_width] inclusive of both
    endpoints, so the spacing is 2 * half_width / (n_modes - 1) and the
    density of states is its inverse.  The coupling is linear across the
    band: g(w) = g0 * (1 + (slope / half_width) * (w - omega_a)); slope = 0
    gives a flat coupling.
    """

    n_modes: int = 1001
    half_width: float = 0.5
    g0: float = 0.001262
    slope: float = 0.0
    omega_a: float = 1.0

    def __post_init__(self):
        if self.n_modes < 2:
            raise ValueError("n_modes must be >= 2")
        if self.half_width <= 0:
            raise ValueError("half_width must be > 0")

    @property
    def mode_spacing(self) -> float:
        return 2.0 * self.half_width / (self.n_modes - 1)

    @property
    def density_of_states(self) -> float:
        return 1.0 / self.mode_spacing

    def mode_frequencies(self) -> np.ndarray:
        k = np.arange(self.n_modes)
        return self.omega_a - self.half_width + k * self.mode_spacing

    def mode_detunings(self) -> np.ndarray:
        """omega_a - omega_k, computed without touching omega_a.

        Everything downstream depends on the band only through these
        detunings, so building them this way makes all dynamics exactly
        invariant under shifts of omega_a.
        """
        return self.half_width - np.arange(self.n_modes) * self.mode_spacing

    def coupling(self, omega) -> np.ndarray:
        return self.g0 * (1.0 + (self.slope / self.half_width) * (np.asarray(omega) - self.omega_a))

    def mode_couplings(self) -> np.ndarray:
        return self.g0 * (1.0 - (self.slope / self.half_width) * self.mode_detunings())

    def golden_rate(self) -> float:
        """Lowest-order decay rate into the band, 2 pi rho0 g0^2."""
        return 2.0 * np.pi * self.density_of_states * self.g0 ** 2

    def with_modes(self, n_modes: int) -> "ReservoirSpec":
        """Same band and decay rate on a coarser/finer mode grid.

        g0 is rescaled with the square root of the spacing ratio so the
        golden-rule rate is preserved.
        """
        new_spacing = 2.0 * self.half_width / (n_modes - 1)
        scale = np.sqrt(new_spacing / self.mode_spacing)
        return ReservoirSpec(
            n_modes=n_modes,
            half_width=self.half_width,
            g0=self.g0 * scale,
            slope=self.slope,
            omega_a=self.omega_a,
        )


def _detector_phase_rates(omega_d: float, gamma: float) -> tuple[complex, complex]:
    """Per-slot rates of the detector sector.

    Detector-excited slots evolve with -i*omega_d/2 - gamma/2, ground slots
    with +i*omega_d/2.
    """
    return (-0.5j * omega_d - 0.5 * gamma, +0.5j * omega_d)


def _weight(c: np.ndarray) -> np.ndarray:
    """Squared norm over the last axis.

    ``np.vecdot`` reduces each row on its own, so a row's value does not
    depend on how many rows the batch has.
    """
    return np.vecdot(c, c).real


def _new_out(c: np.ndarray, out):
    return np.empty_like(c) if out is None else out


class _MonitoredModel:
    """The detector part shared by the monitored models.

    The constant part K of the generator acts on each system row (a system
    level, or a reservoir mode with the system in g) as a 2x2 block over the
    detector levels (a, b): splitting omega_d/2 and decay gamma/2 on every
    row, the coupling lam on the monitored rows, and a constant row phase.
    ``detector_blocks`` holds the block of the excited row and the block of
    the ground rows.  ``derivative`` is K plus ``coupling_derivative``, the
    time-dependent rest; ``propagate`` applies ``expm(K dt)``, whose blocks
    are computed once per step size.  Subclasses say how a pair of blocks
    acts on their basis (``_operator`` and ``_act``).
    """

    def __init__(self, detector: DetectorParams, excited_phase: complex = 0.0):
        self.detector = detector
        self.gamma = detector.gamma
        ra, rb = _detector_phase_rates(detector.omega_d, detector.gamma)
        lam = -1j * detector.lam
        on_e, on_g = (0.0, lam) if detector.coupling_target == "ground" else (lam, 0.0)
        self.detector_blocks = (
            np.array([[excited_phase + ra, on_e], [on_e, excited_phase + rb]]),
            np.array([[ra, on_g], [on_g, rb]]),
        )
        self._generator = self._operator(self.detector_blocks)
        self._factors: dict[float, object] = {}

    def derivative(self, t: float, c: np.ndarray) -> np.ndarray:
        return self._act(self._generator, c) + self.coupling_derivative(t, c)

    def propagate(self, c: np.ndarray, dt: float, out=None) -> np.ndarray:
        u = self._factors.get(dt)
        if u is None:
            u = self._factors[dt] = self._operator([expm(k * dt) for k in self.detector_blocks])
        return self._act(u, c, out)


class _FourLevelModel(_MonitoredModel):
    """Basis |e,a>, |e,b>, |g,a>, |g,b>: one excited and one ground row."""

    dim = 4

    @staticmethod
    def _operator(blocks):
        # transposed, so that it acts from the right on rows of amplitudes
        return np.ascontiguousarray(block_diag(*blocks).T)

    @staticmethod
    def _act(op_t, c, out=None):
        return np.matmul(c, op_t, out=out)

    def basis_labels(self) -> tuple[BasisLabel, ...]:
        return tuple(
            BasisLabel(s, None, d) for s in ("e", "g") for d in ("a", "b")
        )

    def excited_weight(self, c: np.ndarray) -> np.ndarray:
        return _weight(c[..., 0::2])

    def collapse_amplitudes(self, c: np.ndarray) -> np.ndarray:
        # sigma_- on the detector: a -> b, previous b amplitudes discarded
        out = np.zeros_like(c)
        out[..., 1] = c[..., 0]
        out[..., 3] = c[..., 2]
        return out

    def observables(self):
        return _four_level_observables()


class DetectorMeasurementModel(_FourLevelModel):
    """Unperturbed two-level system continuously monitored by the detector.

    Basis order: |e,a>, |e,b>, |g,a>, |g,b>.  Amplitude equations (ground
    coupling):

        d c_ea/dt = -i (omega_a + omega_d/2 - i gamma/2) c_ea
        d c_eb/dt = -i (omega_a - omega_d/2) c_eb
        d c_ga/dt = -i lam c_gb - i (omega_d/2) c_ga - (gamma/2) c_ga
        d c_gb/dt = -i lam c_ga + i (omega_d/2) c_gb

    For excited coupling the lam terms move symmetrically to the e rows.
    The whole generator is constant, so a no-jump step is exact.
    """

    coupling_derivative = None

    def __init__(self, detector: DetectorParams, omega_a: float = 1.0):
        super().__init__(detector, excited_phase=-1j * omega_a)
        self.omega_a = omega_a

    def initial_amplitudes(self) -> np.ndarray:
        # superposition (|e> + |g>)/sqrt(2), detector in its ground level
        return np.array([0, 1, 0, 1], dtype=complex) / np.sqrt(2)

    def derivative(self, t: float, c: np.ndarray) -> np.ndarray:
        return self._act(self._generator, c)

    default_observables = ("rho_aa", "rho_ee", "rho_gg", "rho_eg_re", "rho_eg_im")


class RabiMeasuredModel(_FourLevelModel):
    """Driven two-level system monitored by the detector, interaction picture.

    Basis order: |e,a>, |e,b>, |g,a>, |g,b>.  The drive couples e and g rows
    with the same detector index through (omega_r/2) exp(+/- i detuning t);
    detector sector and coupling as in DetectorMeasurementModel with the
    system phase absorbed into the picture.  The drive is the
    time-dependent part of the generator.
    """

    def __init__(self, detector: DetectorParams, drive: DriveParams):
        super().__init__(detector)
        self.drive = drive

    def initial_amplitudes(self) -> np.ndarray:
        # system in the ground level, detector in its ground level
        return np.array([0, 0, 0, 1], dtype=complex)

    def coupling_derivative(self, t: float, c: np.ndarray, out=None) -> np.ndarray:
        half_wr = 0.5j * self.drive.omega_r
        ph = cmath.exp(1j * self.drive.detuning * t)
        out = _new_out(c, out)
        np.multiply(c[..., 2:], half_wr * ph, out=out[..., :2])   # e rows: + detuning phase
        np.multiply(c[..., :2], half_wr / ph, out=out[..., 2:])
        return out

    default_observables = ("rho_gg", "rho_ee", "rho_aa")


def _four_level_observables():
    def rho_aa(c):
        return _weight(c[..., 0::2])

    def rho_bb(c):
        return _weight(c[..., 1::2])

    def rho_ee(c):
        return _weight(c[..., :2])

    def rho_gg(c):
        return _weight(c[..., 2:])

    def rho_eg(c):
        # c_ea conj(c_ga) + c_eb conj(c_gb)
        return np.vecdot(c[..., 2:], c[..., :2])

    def rho_eg_re(c):
        return rho_eg(c).real

    def rho_eg_im(c):
        return rho_eg(c).imag

    return {
        "rho_aa": rho_aa,
        "rho_bb": rho_bb,
        "rho_ee": rho_ee,
        "rho_gg": rho_gg,
        "rho_eg_re": rho_eg_re,
        "rho_eg_im": rho_eg_im,
    }


class _BandCoupling:
    """The reservoir coupling of the band models, in the interaction picture.

    The mode phases exp(-i d_k t), d_k = omega_a - omega_k, are computed
    from the absolute time, never accumulated incrementally, once per time
    for the whole batch: ``phases(t)`` keeps the vectors of the last time
    asked for.  The detunings are equally spaced, so mode k = a*B + j (B
    about sqrt(n_modes)) has d_k = d_{aB} - j*spacing, and its phase is the
    product of two phases, each evaluated directly: B + n_modes/B complex
    exponentials per time instead of n_modes.
    """

    def __init__(self, reservoir: ReservoirSpec):
        self.n_modes = reservoir.n_modes
        block = int(np.ceil(np.sqrt(self.n_modes)))
        self._coarse = -1j * reservoir.mode_detunings()[::block]
        self._fine = 1j * reservoir.mode_spacing * np.arange(block)
        g = reservoir.mode_couplings()
        self._into_modes = -1j * g
        self._into_system_conj = 1j * g
        self._to_modes = np.empty(self.n_modes, dtype=complex)
        self._to_system_conj = np.empty(self.n_modes, dtype=complex)
        self._t = None

    def phases(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """``-i g_k exp(-i d_k t)``, the factor by which the system amplitude
        feeds mode k, and the complex conjugate of ``-i g_k exp(i d_k t)``,
        the factor by which mode k feeds the system (the g_k are real)."""
        if t != self._t:
            ph = np.multiply.outer(np.exp(self._coarse * t), np.exp(self._fine * t))
            ph = ph.ravel()[:self.n_modes]
            np.multiply(self._into_modes, ph, out=self._to_modes)
            np.multiply(self._into_system_conj, ph, out=self._to_system_conj)
            self._t = t
        return self._to_modes, self._to_system_conj

    def apply(self, t: float, system, modes, out_system, out_modes) -> None:
        """Write the coupling's action: ``system`` amplitudes (shape (...,))
        feed ``out_modes`` (shape (..., n_modes)), ``modes`` feed
        ``out_system``."""
        to_modes, to_system_conj = self.phases(t)
        np.vecdot(to_system_conj, modes, out=out_system)
        np.multiply(to_modes, system[..., None], out=out_modes)


class FreeDecayModel:
    """Excited system decaying into the discretized band; no detector.

    Basis order: |e,0> followed by |g,k> for k = 0..n_modes-1.  Interaction
    picture: the mode detunings appear as explicit exp(+/- i (omega_a -
    omega_k) t) phases computed from the absolute time, never accumulated
    incrementally.
    """

    def __init__(self, reservoir: ReservoirSpec):
        self.reservoir = reservoir
        self.dim = reservoir.n_modes + 1
        self.gamma = 0.0
        self._band = _BandCoupling(reservoir)

    def basis_labels(self) -> tuple[BasisLabel, ...]:
        labels = [BasisLabel("e", 0, None)]
        labels += [BasisLabel("g", k, None) for k in range(self.reservoir.n_modes)]
        return tuple(labels)

    def initial_amplitudes(self) -> np.ndarray:
        c = np.zeros(self.dim, dtype=complex)
        c[0] = 1.0
        return c

    def coupling_derivative(self, t: float, c: np.ndarray, out=None) -> np.ndarray:
        # no detector: the whole generator is the reservoir coupling
        out = _new_out(c, out)
        self._band.apply(t, c[..., 0], c[..., 1:], out[..., 0], out[..., 1:])
        return out

    def derivative(self, t: float, c: np.ndarray) -> np.ndarray:
        return self.coupling_derivative(t, c)

    def propagate(self, c: np.ndarray, dt: float, out=None) -> np.ndarray:
        if out is None:
            return c.copy()
        np.copyto(out, c)
        return out

    def excited_weight(self, c: np.ndarray) -> np.ndarray:
        return np.zeros(c.shape[:-1])

    def collapse_amplitudes(self, c: np.ndarray) -> np.ndarray:
        raise ValueError("free decay model has no jump operator")

    def observables(self):
        def rho_ee(c):
            return _weight(c[..., :1])

        def rho_gg(c):
            return _weight(c[..., 1:])

        return {"rho_ee": rho_ee, "rho_gg": rho_gg}

    default_observables = ("rho_ee",)


class MeasuredDecayModel(_MonitoredModel):
    """Decaying system with the detector attached, single-excitation sector.

    Basis order: |e,0,a>, |e,0,b>, then |g,k,a>, |g,k,b> per mode k.
    Reservoir terms as in FreeDecayModel on matching detector indices;
    detector terms as in DetectorMeasurementModel on the monitored level
    (k rows for ground coupling, e rows for excited coupling).  The
    reservoir coupling is the time-dependent part of the generator.
    """

    def __init__(self, reservoir: ReservoirSpec, detector: DetectorParams):
        self.reservoir = reservoir
        self.dim = 2 * (reservoir.n_modes + 1)
        self._band = _BandCoupling(reservoir)
        super().__init__(detector)

    def basis_labels(self) -> tuple[BasisLabel, ...]:
        labels = [BasisLabel("e", 0, "a"), BasisLabel("e", 0, "b")]
        for k in range(self.reservoir.n_modes):
            labels.append(BasisLabel("g", k, "a"))
            labels.append(BasisLabel("g", k, "b"))
        return tuple(labels)

    def initial_amplitudes(self) -> np.ndarray:
        c = np.zeros(self.dim, dtype=complex)
        c[1] = 1.0  # |e,0,b>
        return c

    def _operator(self, blocks):
        # Every row is an (a, b) pair of adjacent slots, so the block-diagonal
        # operator is a diagonal plus a within-pair swap: out = diag*c +
        # swap*(c with each pair exchanged).  Both are stored per slot.
        ue, ug = blocks
        n_pairs = self.dim // 2
        diag = np.tile(np.diag(ug), n_pairs)
        swap = np.tile([ug[0, 1], ug[1, 0]], n_pairs)
        diag[:2] = np.diag(ue)
        swap[:2] = ue[0, 1], ue[1, 0]
        return diag, swap

    @staticmethod
    def _act(op, c, out=None):
        diag, swap = op
        out = np.multiply(c, diag, out=out)
        out[..., 0::2] += swap[0::2] * c[..., 1::2]
        out[..., 1::2] += swap[1::2] * c[..., 0::2]
        return out

    def coupling_derivative(self, t: float, c: np.ndarray, out=None) -> np.ndarray:
        out = _new_out(c, out)
        for d in (0, 1):    # the coupling keeps the detector level
            self._band.apply(t, c[..., d], c[..., 2 + d::2], out[..., d], out[..., 2 + d::2])
        return out

    def excited_weight(self, c: np.ndarray) -> np.ndarray:
        return _weight(c[..., 0::2])

    def collapse_amplitudes(self, c: np.ndarray) -> np.ndarray:
        out = np.zeros_like(c)
        out[..., 1::2] = c[..., 0::2]
        return out

    def observables(self):
        def rho_ee(c):
            return _weight(c[..., :2])

        def rho_gg(c):
            return _weight(c[..., 2:])

        def rho_aa(c):
            return self.excited_weight(c)

        return {"rho_ee": rho_ee, "rho_gg": rho_gg, "rho_aa": rho_aa}

    default_observables = ("rho_ee",)


def initial_state(model) -> StateVector:
    """The model's default initial state as a labeled StateVector."""
    return StateVector(model.initial_amplitudes(), model.basis_labels(), time=0.0)
