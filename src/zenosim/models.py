"""The four physical models driving the jump engine.

A state is an array ``c`` of complex amplitudes over the model's basis
(ordered as below).  Each model supplies:

* ``initial_amplitudes()`` -- the default initial state,
* ``own_amplitudes(c)``    -- an initial state given over the basis of the
  model built without a horizon, over this model's basis,
* ``propagate(c, dt)``     -- the exact no-jump step over dt: every
  model's non-Hermitian effective generator K is constant in the frame it
  is stepped in, so the step is one cached factor exp(K dt), a Taylor
  series on K's band,
* ``derivative(c)``        -- the action of K, as the time derivative of
  the amplitude array,
* ``excited_weight(c)``    -- total probability in the detector-excited
  subspace (the collapse operator is ``sqrt(Gamma) sigma_-`` on the detector,
  so the jump rate is ``Gamma`` times this weight),
* ``collapse_amplitudes(c)`` -- the unnormalized post-jump amplitudes,
* ``for_horizon(t_max)``   -- the model that a run up to ``t_max`` steps
  (the band models shorten their chain to it),
* ``observables()``        -- named observables ``f(c, t)`` used for
  recording, where ``t`` is the record time, broadcast against the leading
  axes of ``c``; only the driven model's coherence reads it.

All that take ``c`` act on its last axis: ``c`` is one state of shape
(dim,) or a batch of shape (n, dim), one trajectory per row, and each row's
result is computed on its own, with a rounding that does not depend on n.
``excited_weight`` and the observables accept any leading axes: the engine
evaluates them once on a block of kept states of shape (steps, n, dim).
``propagate`` writes into a preallocated ``out`` array when given one (it
must not overlap ``c``).

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
    coupling ``omega_r``, detuning ``detuning``), stepped in the frame
    rotating at the detuning; its records keep their interaction-picture
    meaning, where the drive carries ``exp(+/- i detuning t)`` phases.
``MeasuredDecayModel``
    Excited two-level system coupled to a band of discretized reservoir
    modes, single-excitation sector, with the detector attached to the
    ground level (or to the excited level, via ``coupling_target``).  The
    band enters as its Lanczos chain, the tridiagonal pair (diagonal,
    hopping) of ``ReservoirSpec.chain``, in the frame rotating at omega_a.
    The jump operator and every observable act on the system and the
    detector only, so this unitary change of the mode basis changes no
    record, and a chain as long as a run's horizon needs
    (``ReservoirSpec.chain_sites``) is exact over that run.
``FreeDecayModel``
    The undetected case of ``MeasuredDecayModel``: a null detector, so the
    state stays in the detector's b level and never jumps.

Basis ordering follows (system level, mode or chain site, detector level)
with ``e`` before ``g`` and ``a`` before ``b``.  Every model gives its
system Hamiltonian as one real symmetric tridiagonal pair (diagonal,
hopping); the 4-level models are the band models' case of one ground row.
States are stored densely; every model builds K and its step factors as
bands of diagonals (``_band_expm``), which the 4-level models apply as
dense 4x4 matrices.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


def _require_finite(params, *names) -> None:
    bad = [name for name in names if not np.isfinite(getattr(params, name))]
    if bad:
        raise ValueError(f"{', '.join(bad)} must be finite")


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
        _require_finite(self, "gamma", "lam", "omega_d")
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
        _require_finite(self, "omega_r", "detuning")
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
        _require_finite(self, "half_width", "g0", "slope", "omega_a")
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

    def mode_detunings(self) -> np.ndarray:
        """omega_a - omega_k, computed without touching omega_a.

        Everything downstream depends on the band only through these
        detunings, so building them this way makes all dynamics exactly
        invariant under shifts of omega_a.
        """
        return self.half_width - np.arange(self.n_modes) * self.mode_spacing

    def mode_couplings(self) -> np.ndarray:
        return self.g0 * (1.0 - (self.slope / self.half_width) * self.mode_detunings())

    def chain_sites(self, t_max: float | None = None) -> int:
        """Length of the Lanczos chain (``chain``) that is exact up to
        ``t_max``: every one of the n_modes sites without a horizon.

        The chain's hopping tends to half_width/2, so an excitation moves
        along it at most half_width sites per unit time, and a chain cut
        after L sites is exact until the front comes back from its end.  On
        a uniform chain the amplitude coming back at time t is J_2L(x), a
        Bessel function of x = half_width t, and the front's width grows as
        x^(1/3); L = x/2 + 5 x^(1/3) keeps J_2L(x) below 1e-13 at every x.
        """
        if t_max is None:
            return self.n_modes
        if not (np.isfinite(t_max) and t_max >= 0):
            raise ValueError(f"t_max must be finite and >= 0, got {t_max}")
        x = self.half_width * t_max
        return min(self.n_modes, int(np.ceil(x / 2 + 5 * x ** (1 / 3))))

    def chain(self, sites: int) -> tuple[np.ndarray, np.ndarray]:
        """The system and the first ``sites`` sites of the band's Lanczos
        chain, as the real symmetric tridiagonal Hamiltonian's pair
        (diagonal, hopping) of lengths sites + 1 and sites (system in row
        0), in the frame rotating at omega_a.

        Site j is the j-th Lanczos vector of the mode energies -d_k started
        from the couplings g_k, orthogonalized twice against all earlier
        ones (full reorthogonalization), so the system couples to site 0
        alone, with |g|, and each site to its neighbours (Chin, Rivas, Huelga
        & Plenio, J. Math. Phys. 51, 092109, 2010).  The moments
        sum_k g_k^2 (-d_k)^m for m < 2 * sites are the band's.  It is built
        from the detunings, so it does not depend on omega_a.  Sites beyond
        the band's Krylov space (all of them for g0 = 0) stay uncoupled.
        """
        energies = -self.mode_detunings()
        diagonal, hopping = np.zeros(sites + 1), np.zeros(sites)
        basis = np.zeros((sites, self.n_modes))
        w = self.mode_couplings()
        hop = np.linalg.norm(w)
        for j in range(sites):
            if hop == 0.0:
                break
            hopping[j] = hop
            basis[j] = w / hop
            w = energies * basis[j]
            diagonal[j + 1] = basis[j] @ w
            for _ in range(2):
                w -= (basis[:j + 1] @ w) @ basis[:j + 1]
            hop = np.linalg.norm(w)
        return diagonal, hopping

    def golden_rate(self) -> float:
        """Lowest-order decay rate into the band, 2 pi rho0 g0^2."""
        return 2.0 * np.pi * self.density_of_states * self.g0 ** 2

    def with_modes(self, n_modes: int) -> "ReservoirSpec":
        """Same band and decay rate on a coarser/finer mode grid.

        g0 is rescaled with the square root of the spacing ratio so the
        golden-rule rate is preserved.
        """
        if n_modes < 2:
            raise ValueError("n_modes must be >= 2")
        new_spacing = 2.0 * self.half_width / (n_modes - 1)
        scale = np.sqrt(new_spacing / self.mode_spacing)
        return ReservoirSpec(
            n_modes=n_modes,
            half_width=self.half_width,
            g0=self.g0 * scale,
            slope=self.slope,
            omega_a=self.omega_a,
        )


# Parts of a step operator below this, a thousandth of the rounding unit,
# change its product with a unit state by far less than that product's own
# rounding error.
_NEGLIGIBLE = np.finfo(float).eps / 1024


def _trim(band: np.ndarray) -> np.ndarray:
    """``band`` without its parts below _NEGLIGIBLE, cut to the half-width
    of the diagonals that hold the rest.

    A band of half-width h is a (rows, 2h + 1) array whose row k is
    m[k, k - h : k + h + 1], zero beyond the edges of m.  The exact
    propagator of a chain over one step falls off faster than exponentially
    away from the diagonal: at the presets' dt = 0.1 its band is 17
    amplitudes wide on each side, a sixth of a row.  Dropping the parts
    below _NEGLIGIBLE also drops those below the smallest normal float,
    whose arithmetic is several times slower.
    """
    band = band.copy()
    for part in (band.real, band.imag):
        part[np.abs(part) < _NEGLIGIBLE] = 0.0
    mid = band.shape[1] // 2
    h = int(np.max(np.abs(np.flatnonzero(band.any(axis=0)) - mid), initial=0))
    return np.ascontiguousarray(band[:, mid - h:mid + h + 1])


def _band_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The band of the product of the matrices whose bands are ``a`` and
    ``b``: one pass over the diagonals of ``a``, cut to half-width
    rows - 1, beyond which a matrix of that many rows has no diagonal."""
    ha, n = a.shape[1] // 2, len(a)
    shifted = np.zeros((n + 2 * ha, b.shape[1]), dtype=complex)
    shifted[ha:ha + n] = b
    out = np.zeros((n, a.shape[1] + b.shape[1] - 1), dtype=complex)
    for j in range(a.shape[1]):
        # m_a[k, k + j - ha] times row k + j - ha of m_b
        out[:, j:j + b.shape[1]] += a[:, j, None] * shifted[j:j + n]
    cut = max(0, out.shape[1] // 2 - (n - 1))
    return out[:, cut:out.shape[1] - cut]


def _band_expm(band: np.ndarray) -> np.ndarray:
    """exp of the matrix whose band is ``band``, as a band trimmed by
    ``_trim``.

    The matrix is scaled by 2^-s so that its row-sum norm is at most 1, its
    Taylor series is summed until a term's row-sum norm falls below
    _NEGLIGIBLE (the rest then adds less than that to any entry), and the
    sum is squared s times, each result trimmed (Al-Mohy & Higham, SIAM J.
    Sci. Comput. 33, 488, 2011).  Each product is a band product, so the
    cost is linear in the number of rows.
    """
    norm = np.abs(band).sum(axis=1).max()
    s = int(np.ceil(np.log2(norm))) if norm > 1.0 else 0
    a = band / 2.0 ** s
    term = total = np.ones((len(band), 1), dtype=complex)
    i = 0
    while np.abs(term).sum(axis=1).max() >= _NEGLIGIBLE:
        i += 1
        term = _band_product(a, term) / i
        grow = (term.shape[1] - total.shape[1]) // 2
        total, narrower = term.copy(), total
        total[:, grow:grow + narrower.shape[1]] += narrower
    total = _trim(total)
    for _ in range(s):
        total = _trim(_band_product(total, total))
    return total


def _weight(c: np.ndarray) -> np.ndarray:
    """Squared norm over the last axis.

    ``np.vecdot`` reduces each row on its own, so a row's value does not
    depend on how many rows the batch has.
    """
    return np.vecdot(c, c).real


class _MonitoredModel:
    """What the monitored models share: K, its step factors, the jump and the
    observables of the system and the detector.

    A model's system is a set of rows, the excited level first, then the
    ground level or the chain's sites with the system in g.  It supplies
    their Hamiltonian in its frame as one real symmetric tridiagonal pair,
    ``_hamiltonian() -> (diagonal, hopping)``.  The constant generator K is
    -i times that Hamiltonian on each detector level plus a 2x2 block over
    the detector levels (a, b) on every row: splitting omega_d/2 and decay
    gamma/2 on every row, the coupling lam on the monitored rows.
    ``detector_blocks`` holds the block of the excited row and the block of
    the ground rows.  K is built as its band of half-width 2 (``_band``) and
    each step factor exp(K dt) as the band that ``_band_expm`` gives, once
    per step size.  ``_operator`` puts each in the form in which ``_act``
    applies it to the rows of amplitudes: ``derivative`` applies K and
    ``propagate`` exp(K dt).
    """

    def __init__(self, detector: DetectorParams):
        self.detector = detector
        self.gamma = detector.gamma
        # detector-excited slots evolve with -i omega_d/2 - gamma/2, ground
        # slots with +i omega_d/2
        ra, rb = -0.5j * detector.omega_d - 0.5 * detector.gamma, 0.5j * detector.omega_d
        lam = -1j * detector.lam
        on_e, on_g = (0.0, lam) if detector.coupling_target == "ground" else (lam, 0.0)
        self.detector_blocks = (np.array([[ra, on_e], [on_e, rb]]),
                                np.array([[ra, on_g], [on_g, rb]]))
        self._factors: dict[float, np.ndarray] = {}
        self._windows: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    def _band(self, diagonal: np.ndarray, hopping: np.ndarray) -> np.ndarray:
        # K of the system Hamiltonian (diagonal, hopping) as a band of
        # half-width 2: the detector blocks at offsets -1..1 within each
        # row's (a, b) pair, the Hamiltonian at 0 and +-2.  Conjugated,
        # because np.vecdot conjugates it back.
        ue, ug = self.detector_blocks
        blocks = np.array([ue] + [ug] * (len(diagonal) - 1))
        k = np.zeros((2 * len(diagonal), 5), dtype=complex)
        k[0::2, 2:4] = blocks[:, 0]
        k[1::2, 1:3] = blocks[:, 1]
        k[:, 2] -= 1j * np.repeat(diagonal, 2)
        hop = -1j * np.repeat(hopping, 2)
        k[:-2, 4] = hop
        k[2:, 0] = hop
        return k.conj()

    @functools.cached_property
    def _k(self) -> np.ndarray:
        return self._band(*self._hamiltonian())

    def _factor(self, dt: float):
        # exp(conj(K) dt) = conj(exp(K dt)), rounded the same way
        return self._operator(_band_expm(self._k * dt))

    def _step(self, dt: float):
        """The step factor for ``dt``, computed on first use."""
        u = self._factors.get(dt)
        if u is None:
            u = self._factors[dt] = self._factor(dt)
        return u

    def _operator(self, band: np.ndarray):
        return band

    def _act(self, band, c, out=None):
        # Amplitude k of a row is the dot product of row k of the band with
        # the window of that row around k.  Its rounding does not depend on
        # the number of rows, as that of a matrix product does, and it runs
        # on one thread, where a BLAS matrix-vector product spawns threads
        # that crowd out the other workers of an ensemble.  The rows are
        # copied into a buffer with zero margins, kept with its window view
        # for each shape of c and half-width h.
        h = band.shape[1] // 2
        key = (c.shape, h)
        if key not in self._windows:
            padded = np.zeros(c.shape[:-1] + (c.shape[-1] + 2 * h,), dtype=complex)
            # (as_strided and sliding_window_view make the same view, in
            # five and fifteen times the time)
            self._windows[key] = padded, np.ndarray(
                c.shape + (2 * h + 1,), complex, padded, 0,
                padded.strides + padded.strides[-1:])
        padded, windows = self._windows[key]
        padded[..., h:h + c.shape[-1]] = c
        return np.vecdot(band, windows, out=out)

    def derivative(self, c: np.ndarray) -> np.ndarray:
        return self._act(self._operator(self._k), c)

    def propagate(self, c: np.ndarray, dt: float, out=None) -> np.ndarray:
        return self._act(self._step(dt), c, out)

    def for_horizon(self, t_max: float):
        """The model that runs up to ``t_max``: this one, whose basis does
        not depend on the horizon."""
        return self

    def own_amplitudes(self, c: np.ndarray) -> np.ndarray:
        """``c``, a state over the basis of this model built without a
        horizon, over this model's basis, which is the same."""
        if c.shape != (self.dim,):
            raise ValueError(f"initial amplitudes must have shape ({self.dim},)")
        return c

    def excited_weight(self, c: np.ndarray) -> np.ndarray:
        return _weight(c[..., 0::2])

    def collapse_amplitudes(self, c: np.ndarray) -> np.ndarray:
        # sigma_- on the detector: a -> b, previous b amplitudes discarded
        out = np.zeros_like(c)
        out[..., 1::2] = c[..., 0::2]
        return out

    def observables(self):
        def rho_ee(c, t):
            return _weight(c[..., :2])

        def rho_gg(c, t):
            return _weight(c[..., 2:])

        def rho_aa(c, t):
            return _weight(c[..., 0::2])

        return {"rho_ee": rho_ee, "rho_gg": rho_gg, "rho_aa": rho_aa}


class _FourLevelModel(_MonitoredModel):
    """Basis |e,a>, |e,b>, |g,a>, |g,b>, in the frame where K is constant.

    Three numbers make the model: the excited row's energy, the drive
    ``omega_r`` (hopping -omega_r/2) and the frequency ``frame`` of the
    phase exp(i frame t) that takes the stepped rho_eg to the recorded one.
    K and its step factors are applied as dense 4x4 matrices: on rows of 4
    amplitudes ``np.matmul`` takes a third to a quarter of the time of the
    band's windowed products (for 50 to 100 rows).
    """

    dim = 4

    def __init__(self, detector: DetectorParams, energy: float, omega_r: float,
                 frame: float):
        super().__init__(detector)
        self._energy, self._omega_r, self._frame = energy, omega_r, frame

    def _hamiltonian(self):
        return np.array([self._energy, 0.0]), np.array([-0.5 * self._omega_r])

    def _operator(self, band):
        # the band's action on the unit rows: the transposed matrix, which
        # np.matmul applies from the right to rows of amplitudes
        return _MonitoredModel._act(self, band, np.eye(4, dtype=complex))

    @staticmethod
    def _act(op_t, c, out=None):
        return np.matmul(c, op_t, out=out)

    def observables(self):
        frame = self._frame

        def rho_bb(c, t):
            return _weight(c[..., 1::2])

        def rho_eg(c, t):
            # c_ea conj(c_ga) + c_eb conj(c_gb), in the recorded frame (a
            # frame of 0 leaves the bits of r, signed zeros included)
            r = np.vecdot(c[..., 2:], c[..., :2])
            return r * np.exp(1j * frame * t) if frame else r

        def rho_eg_re(c, t):
            return rho_eg(c, t).real

        def rho_eg_im(c, t):
            return rho_eg(c, t).imag

        return {**super().observables(), "rho_bb": rho_bb,
                "rho_eg_re": rho_eg_re, "rho_eg_im": rho_eg_im}


class DetectorMeasurementModel(_FourLevelModel):
    """Unperturbed two-level system continuously monitored by the detector.

    Basis order: |e,a>, |e,b>, |g,a>, |g,b>.  Amplitude equations (ground
    coupling):

        d c_ea/dt = -i (omega_a + omega_d/2 - i gamma/2) c_ea
        d c_eb/dt = -i (omega_a - omega_d/2) c_eb
        d c_ga/dt = -i lam c_gb - i (omega_d/2) c_ga - (gamma/2) c_ga
        d c_gb/dt = -i lam c_ga + i (omega_d/2) c_gb

    For excited coupling the lam terms move symmetrically to the e rows.
    The whole generator is constant, so a no-jump step is exact, and the
    records are taken in this frame.
    """

    def __init__(self, detector: DetectorParams, omega_a: float = 1.0):
        self.omega_a = omega_a
        _require_finite(self, "omega_a")
        super().__init__(detector, omega_a, 0.0, 0.0)

    def initial_amplitudes(self) -> np.ndarray:
        # superposition (|e> + |g>)/sqrt(2), detector in its ground level
        return np.array([0, 1, 0, 1], dtype=complex) / np.sqrt(2)

    default_observables = ("rho_aa", "rho_ee", "rho_gg", "rho_eg_re", "rho_eg_im")


class RabiMeasuredModel(_FourLevelModel):
    """Driven two-level system monitored by the detector.

    Basis order: |e,a>, |e,b>, |g,a>, |g,b>.  In the interaction picture
    the drive couples e and g rows with the same detector index through
    (omega_r/2) exp(+/- i detuning t); detector sector and coupling as in
    DetectorMeasurementModel with the system phase absorbed into the
    picture.  The amplitudes are stepped in the frame rotating at the
    detuning, c = p(t) c~ with p = exp(i detuning t) on the e rows, where
    the Hamiltonian is DetectorMeasurementModel's with omega_a = detuning
    plus -omega_r/2 between the rows.  p commutes with the jump and keeps
    every population, so only rho_eg is turned back by p at its record time.
    """

    def __init__(self, detector: DetectorParams, drive: DriveParams):
        super().__init__(detector, drive.detuning, drive.omega_r, drive.detuning)
        self.drive = drive

    def initial_amplitudes(self) -> np.ndarray:
        # system in the ground level, detector in its ground level
        return np.array([0, 0, 0, 1], dtype=complex)

    default_observables = ("rho_gg", "rho_ee", "rho_aa")


class MeasuredDecayModel(_MonitoredModel):
    """Decaying system with the detector attached, single-excitation sector.

    Basis order: |e,a>, |e,b>, then |g,j,a>, |g,j,b> per site j of the
    band's Lanczos chain, which replaces the modes: ``sites`` of them, all
    n_modes for a model built without a horizon, and as many as a run to
    ``t_max`` needs for one built with it or through ``for_horizon``.  The
    chain is built on first use.  In the frame rotating at omega_a the
    Hamiltonian is the chain's (``ReservoirSpec.chain``), so the generator
    is constant and a no-jump step is exact; lam sits on the g rows for
    ground coupling, on the e row for excited coupling.  K is held as its
    band of half-width 2, and each step factor as the band that holds it
    above _NEGLIGIBLE.
    """

    def __init__(self, reservoir: ReservoirSpec, detector: DetectorParams,
                 t_max: float | None = None):
        super().__init__(detector)
        self.reservoir = reservoir
        self.sites = reservoir.chain_sites(t_max)
        self.dim = 2 * (self.sites + 1)

    def for_horizon(self, t_max: float):
        """The model on the chain that a run up to ``t_max`` needs."""
        if self.reservoir.chain_sites(t_max) == self.sites:
            return self
        model = object.__new__(type(self))
        MeasuredDecayModel.__init__(model, self.reservoir, self.detector, t_max)
        return model

    def _hamiltonian(self):
        return self.reservoir.chain(self.sites)

    def initial_amplitudes(self) -> np.ndarray:
        c = np.zeros(self.dim, dtype=complex)
        c[1] = 1.0  # |e,b>
        return c

    def own_amplitudes(self, c: np.ndarray) -> np.ndarray:
        """``c``, a state over |e,a>, |e,b> and |g,k,a>, |g,k,b> per mode k,
        on this model's chain; its modes must be empty."""
        star = 2 * (self.reservoir.n_modes + 1)
        if c.shape != (star,):
            raise ValueError(f"initial amplitudes must have shape ({star},)")
        if np.any(c[2:]):
            raise ValueError("initial amplitudes must leave every band mode empty: "
                             "the chain is exact only for a band that starts empty")
        out = np.zeros(self.dim, dtype=complex)
        out[:2] = c[:2]
        return out

    default_observables = ("rho_ee",)


class FreeDecayModel(MeasuredDecayModel):
    """Excited system decaying into the band, undetected: MeasuredDecayModel
    with a null detector (gamma = lam = omega_d = 0).  The state stays in
    the detector's b level, so it never jumps."""

    def __init__(self, reservoir: ReservoirSpec, t_max: float | None = None):
        super().__init__(reservoir, DetectorParams(gamma=0.0, lam=0.0, omega_d=0.0), t_max)
