import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import block_diag, expm

from zenosim.models import (
    _NEGLIGIBLE,
    DetectorMeasurementModel,
    DetectorParams,
    DriveParams,
    FreeDecayModel,
    MeasuredDecayModel,
    RabiMeasuredModel,
    ReservoirSpec,
)

from conftest import star_hamiltonian, tridiagonal

RNG = np.random.default_rng(42)


def random_state(dim):
    c = RNG.normal(size=dim) + 1j * RNG.normal(size=dim)
    return c / np.linalg.norm(c)


def all_models():
    det = DetectorParams(gamma=10.0, lam=1.0, omega_d=1.0)
    det_exc = DetectorParams(gamma=10.0, lam=1.0, omega_d=1.0, coupling_target="excited")
    res = ReservoirSpec(n_modes=21, half_width=0.5, g0=0.01, slope=1.5)
    return [
        DetectorMeasurementModel(det),
        DetectorMeasurementModel(det_exc),
        RabiMeasuredModel(det, DriveParams(omega_r=0.3, detuning=0.2)),
        RabiMeasuredModel(det_exc, DriveParams(omega_r=0.3, detuning=0.2)),
        FreeDecayModel(res),
        MeasuredDecayModel(res, det),
        MeasuredDecayModel(res, det_exc),
    ]


class TestNormFlowIdentity:
    """d(norm^2)/dt must equal -gamma * detector-excited weight for every
    model: the Hermitian part of the generator moves no probability."""

    @pytest.mark.parametrize("model", all_models(), ids=lambda m: type(m).__name__ + (
        "" if isinstance(m, FreeDecayModel) else m.detector.coupling_target))
    def test_norm_flow(self, model):
        for _ in range(3):
            c = random_state(model.dim)
            d = model.derivative(c)
            flow = 2.0 * np.real(np.vdot(c, d))
            expected = -model.gamma * model.excited_weight(c)
            assert flow == pytest.approx(expected, abs=1e-12)


class TestDetectorModel:
    def test_eigen_decay_rate(self):
        model = DetectorMeasurementModel(DetectorParams(gamma=10.0, lam=1.0, omega_d=1.0))
        c = np.array([1, 0, 0, 0], complex)
        d = model.derivative(c)
        assert 2 * np.real(np.conj(c[0]) * d[0]) == pytest.approx(-10.0, abs=1e-12)

    def test_no_coupling_pure_phase(self):
        model = DetectorMeasurementModel(DetectorParams(gamma=0.0, lam=0.0, omega_d=1.0))
        c = random_state(4)
        d = model.derivative(c)
        growth = 2 * np.real(np.conj(c) * d)
        np.testing.assert_allclose(growth, 0.0, atol=1e-14)

    def test_coupling_feeds_detector(self):
        model = DetectorMeasurementModel(DetectorParams(gamma=10.0, lam=1.0, omega_d=1.0))
        c = np.array([0, 0, 0, 1], complex)
        d = model.derivative(c)
        assert abs(d[2]) == pytest.approx(1.0, abs=1e-12)  # rate lam into g,a
        assert d[0] == 0 and d[1] == 0

    def test_excited_coupling_moves_lambda(self):
        model = DetectorMeasurementModel(
            DetectorParams(gamma=10.0, lam=1.0, omega_d=1.0, coupling_target="excited"))
        c = np.array([0, 1, 0, 0], complex)  # |e,b>
        d = model.derivative(c)
        assert abs(d[0]) == pytest.approx(1.0, abs=1e-12)
        c = np.array([0, 0, 0, 1], complex)  # |g,b> untouched by lam
        d = model.derivative(c)
        assert abs(d[2]) == 0.0


class TestRabiModel:
    def test_reduces_to_detector_without_drive(self):
        # stepped in the frame rotating at the detuning, the undriven model
        # is the detector model with omega_a = detuning
        det = DetectorParams(gamma=10.0, lam=1.0, omega_d=1.0)
        rabi = RabiMeasuredModel(det, DriveParams(omega_r=0.0, detuning=0.7))
        detector = DetectorMeasurementModel(det, omega_a=0.7)
        for _ in range(3):
            c = random_state(4)
            np.testing.assert_array_equal(rabi.derivative(c),
                                          detector.derivative(c))

    def test_excited_variant_reduction(self):
        det = DetectorParams(gamma=10.0, lam=1.0, omega_d=1.0, coupling_target="excited")
        rabi = RabiMeasuredModel(det, DriveParams(omega_r=0.0))
        detector = DetectorMeasurementModel(det, omega_a=0.0)
        c = random_state(4)
        np.testing.assert_array_equal(rabi.derivative(c),
                                      detector.derivative(c))

    def test_free_detuned_oscillation(self):
        # lam = 0, gamma = 0: excited population peaks at omega_r^2/(d^2+omega_r^2)
        model = RabiMeasuredModel(DetectorParams(gamma=0.0, lam=0.0, omega_d=1.0),
                                  DriveParams(omega_r=0.1, detuning=0.2))
        c = model.initial_amplitudes()
        dt = 0.005
        peak = 0.0
        for i in range(int(30.0 / dt)):
            k1 = model.derivative(c)
            k2 = model.derivative(c + dt / 2 * k1)
            k3 = model.derivative(c + dt / 2 * k2)
            k4 = model.derivative(c + dt * k3)
            c = c + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            peak = max(peak, abs(c[0]) ** 2 + abs(c[1]) ** 2)
        assert peak == pytest.approx(0.2, abs=2e-3)


class TestFreeDecayModel:
    def test_no_coupling_all_zero(self):
        res = ReservoirSpec(n_modes=11, half_width=0.5, g0=0.0)
        model = FreeDecayModel(res)
        d = model.derivative(random_state(model.dim))
        np.testing.assert_array_equal(d, np.zeros(model.dim))

    def test_two_mode_exact_diagonalization(self):
        # exact chain steps against the static three-level propagator
        # |<e0| exp(-iHt) |e0>|^2, in the frame rotating at omega_a
        res = ReservoirSpec(n_modes=2, half_width=0.3, g0=0.12, omega_a=1.0)
        model = FreeDecayModel(res)
        d = res.mode_detunings()
        g = res.mode_couplings()
        h = np.array([
            [0.0, g[0], g[1]],
            [g[0], -d[0], 0.0],
            [g[1], 0.0, -d[1]],
        ], dtype=complex)
        c = model.initial_amplitudes()
        for i in range(30):
            c = model.propagate(c, 0.1)
        exact = abs(expm(-1j * h * 3.0)[0, 0]) ** 2
        assert model.observables()["rho_ee"](c, 3.0) == pytest.approx(exact, abs=1e-14)

    def test_norm_conserved(self):
        res = ReservoirSpec(n_modes=9, half_width=0.5, g0=0.05)
        model = FreeDecayModel(res)
        c = random_state(model.dim)
        d = model.derivative(c)
        assert 2 * np.real(np.vdot(c, d)) == pytest.approx(0.0, abs=1e-14)


class TestMeasuredDecayModel:
    def test_reduces_to_free_decay_without_detector(self):
        res = ReservoirSpec(n_modes=7, half_width=0.5, g0=0.03)
        full = MeasuredDecayModel(res, DetectorParams(gamma=0.0, lam=0.0, omega_d=0.0))
        free = FreeDecayModel(res)
        assert (free.dim, free.gamma) == (full.dim, 0.0)
        c = random_state(full.dim)
        c[::2] = 0.0        # the detector's b level only
        d = free.derivative(c)
        np.testing.assert_array_equal(d, full.derivative(c))
        np.testing.assert_array_equal(d[::2], 0.0)  # a-sector inert
        assert free.observables()["rho_aa"](free.propagate(c, 5.0), 5.0) == 0.0

    def test_reduces_to_detector_blocks_without_reservoir(self):
        res = ReservoirSpec(n_modes=5, half_width=0.5, g0=0.0)
        det = DetectorParams(gamma=10.0, lam=1.0, omega_d=1.0)
        full = MeasuredDecayModel(res, det)
        block = DetectorMeasurementModel(det, omega_a=0.0)
        c = random_state(full.dim)
        d = full.derivative(c)
        # e,0 block evolves like the detector's e rows (no lam there)
        eb = np.array([c[0], c[1], 0, 0], complex)
        de = block.derivative(eb)
        assert d[0] == pytest.approx(de[0], abs=1e-15)
        assert d[1] == pytest.approx(de[1], abs=1e-15)
        # each chain site evolves like the detector's g rows
        for k in range(full.sites):
            gk = np.array([0, 0, c[2 + 2 * k], c[3 + 2 * k]], complex)
            dg = block.derivative(gk)
            assert d[2 + 2 * k] == pytest.approx(dg[2], abs=1e-15)
            assert d[3 + 2 * k] == pytest.approx(dg[3], abs=1e-15)

    def test_collapse_moves_a_to_b(self):
        res = ReservoirSpec(n_modes=3, half_width=0.5, g0=0.01)
        model = MeasuredDecayModel(res, DetectorParams())
        c = random_state(model.dim)
        out = model.collapse_amplitudes(c)
        np.testing.assert_array_equal(out[::2], np.zeros(model.dim // 2))
        np.testing.assert_array_equal(out[1::2], c[::2])


class TestChain:
    BANDS = [ReservoirSpec(slope=0.0), ReservoirSpec(slope=2.0),
             ReservoirSpec(n_modes=101, half_width=0.5, g0=0.01, slope=-0.7)]

    @pytest.mark.parametrize("res", BANDS, ids=["flat", "sloped", "small"])
    def test_hermitian_tridiagonal(self, res):
        for sites in (30, res.chain_sites(300.0)):
            diagonal, hopping = res.chain(sites)
            assert (diagonal.shape, hopping.shape) == ((sites + 1,), (sites,))
            assert diagonal.dtype == hopping.dtype == np.float64
            h = tridiagonal(diagonal, hopping)
            assert h.shape == (sites + 1, sites + 1)
            np.testing.assert_array_equal(h, h.T)
            np.testing.assert_array_equal(np.triu(h, 2), 0.0)
            assert h[0, 0] == 0.0
            assert h[0, 1] == pytest.approx(np.linalg.norm(res.mode_couplings()), rel=1e-14)
            assert np.all(np.diag(h, 1) > 0.0)

    @pytest.mark.parametrize("res", BANDS, ids=["flat", "sloped", "small"])
    def test_moments_match_band(self, res):
        # sum_k g_k^2 (-d_k)^m for m < 2L: |g|^2 (T^m)_00 on the L-site chain T
        energies, g2 = -res.mode_detunings(), res.mode_couplings() ** 2
        sites = 40
        h = tridiagonal(*res.chain(sites))
        t = h[1:, 1:]
        p = np.zeros(sites)
        p[0] = 1.0
        for m in range(2 * sites):
            band = np.sum(g2 * energies ** m)
            scale = np.sum(g2 * np.abs(energies) ** m)
            chain = h[0, 1] ** 2 * (p @ np.linalg.matrix_power(t, m))[0]
            assert abs(chain - band) <= 1e-12 * scale, m

    @pytest.mark.parametrize("res", BANDS, ids=["flat", "sloped", "small"])
    def test_shorter_chain_is_a_prefix(self, res):
        # a chain cut after k sites is the start of the longer one, bit for
        # bit: for_horizon and the chain-doubling tests rely on it
        n = res.chain_sites(300.0)
        diagonal, hopping = res.chain(n)
        for k in (1, n // 2, n - 1):
            short_diagonal, short_hopping = res.chain(k)
            assert short_diagonal.tobytes() == diagonal[:k + 1].tobytes(), k
            assert short_hopping.tobytes() == hopping[:k].tobytes(), k

    def test_untruncated_chain_is_the_star(self):
        # all n_modes sites: a unitary change of the mode basis, with the
        # same spectrum and the same weights of the system level
        res = self.BANDS[2]
        h = tridiagonal(*res.chain(res.chain_sites()))
        e_chain, v_chain = np.linalg.eigh(h)
        e_star, v_star = np.linalg.eigh(star_hamiltonian(res))
        np.testing.assert_allclose(e_chain, e_star, rtol=0, atol=1e-14)
        np.testing.assert_allclose(v_chain[0] ** 2, v_star[0] ** 2, rtol=0, atol=1e-13)

    def test_sites_from_horizon(self):
        res = ReservoirSpec()
        assert res.chain_sites() == res.n_modes
        assert res.chain_sites(300.0) == 102          # fig7..fig12
        assert res.chain_sites(30.0) == 20
        assert res.chain_sites(1e5) == res.n_modes
        assert ReservoirSpec(n_modes=101, g0=0.01).chain_sites(300.0) == 101

    @pytest.mark.parametrize("t_max", [-1.0, np.nan, np.inf])
    def test_rejects_bad_horizon(self, t_max):
        with pytest.raises(ValueError, match="t_max"):
            ReservoirSpec().chain_sites(t_max)

    def test_uncoupled_band_is_an_empty_chain(self):
        diagonal, hopping = ReservoirSpec(n_modes=5, g0=0.0).chain(5)
        np.testing.assert_array_equal(diagonal, np.zeros(6))
        np.testing.assert_array_equal(hopping, np.zeros(5))

    def test_horizon_shortens_the_chain(self):
        res = ReservoirSpec(n_modes=101, g0=0.01)
        for model in (FreeDecayModel(res), MeasuredDecayModel(res, DetectorParams())):
            short = model.for_horizon(30.0)
            assert type(short) is type(model)
            assert (model.sites, short.sites, short.dim) == (101, 20, 42)
            assert short.for_horizon(30.0) is short
            assert model.for_horizon(1e4) is model


def dense_generator(model):
    """The band model's K as a dense matrix, built from its blocks."""
    ue, ug = model.detector_blocks
    k = block_diag(ue, *[ug] * model.sites)
    return k - 1j * np.kron(tridiagonal(*model.reservoir.chain(model.sites)), np.eye(2))


def dense(band):
    """The matrix that a band of diagonals holds (see models._trim), checking
    that the band is zero beyond the matrix's edges."""
    n, h = len(band), band.shape[1] // 2
    m = np.zeros((n, n + 2 * h), dtype=complex)
    for k in range(n):
        m[k, k:k + 2 * h + 1] = band[k]
    np.testing.assert_array_equal(m[:, :h], 0.0)
    np.testing.assert_array_equal(m[:, n + h:], 0.0)
    return m[:, h:n + h]


def trimmed_half_width(m):
    """Half-width of the band that holds ``m`` above _NEGLIGIBLE."""
    rows, cols = np.nonzero((np.abs(m.real) >= _NEGLIGIBLE) | (np.abs(m.imag) >= _NEGLIGIBLE))
    return int(np.max(np.abs(rows - cols), initial=0))


class TestBandFactor:
    """The band models build K and its step factors on their band."""

    @pytest.mark.parametrize("slope", [0.0, 2.0])
    @pytest.mark.parametrize("target", ["ground", "excited", "free"])
    def test_factor_matches_dense_expm(self, slope, target):
        res = ReservoirSpec(slope=slope)
        model = (FreeDecayModel(res, t_max=300.0) if target == "free" else
                 MeasuredDecayModel(res, DetectorParams(coupling_target=target), t_max=300.0))
        k = dense_generator(model)
        np.testing.assert_array_equal(dense(model._operator(model._k)).conj(), k)
        for dt in (0.05, 0.1, 0.4, 1.0):
            band = model._factor(dt)
            exact = expm(k * dt)
            assert band.shape[1] // 2 == trimmed_half_width(exact), dt
            # stored conjugated, for np.vecdot
            assert np.max(np.abs(dense(band).conj() - exact)) <= 1e-14, dt

    def test_reused_buffer_keeps_batches_apart(self):
        # one instance propagating batches of 1, 7 and 1 rows in turn gives
        # the bits of a fresh instance for each
        res = ReservoirSpec(n_modes=101, half_width=0.5, g0=0.01, slope=1.5)
        det = DetectorParams()
        model = MeasuredDecayModel(res, det, t_max=30.0)
        for rows in (1, 7, 1):
            c = np.array([random_state(model.dim) for _ in range(rows)])
            fresh = MeasuredDecayModel(res, det, t_max=30.0)
            np.testing.assert_array_equal(model.propagate(c, 0.1),
                                          fresh.propagate(c, 0.1))
            np.testing.assert_array_equal(model.derivative(c[0]),
                                          fresh.derivative(c[0]))

    def test_derivative_is_the_dense_generator(self):
        model = MeasuredDecayModel(ReservoirSpec(n_modes=41, g0=0.01, slope=2.0),
                                   DetectorParams())
        assert model.sites == 41
        c = random_state(model.dim)
        np.testing.assert_allclose(model.derivative(c), dense_generator(model) @ c,
                                   rtol=0, atol=1e-15)

    def test_derivative_of_the_whole_band_stays_small(self):
        # the 1001-mode band without a horizon: 2004 amplitudes, whose dense
        # K would take 64 MB
        model = MeasuredDecayModel(ReservoirSpec(), DetectorParams())
        c = random_state(model.dim)
        tracemalloc.start()
        try:
            model.derivative(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6


class TestReservoirSpec:
    def test_grid_spans_band(self):
        # detunings omega_a - omega_k from +half_width down to -half_width
        res = ReservoirSpec(n_modes=101, half_width=0.5, g0=0.01, omega_a=2.0)
        d = res.mode_detunings()
        assert d[0] == 0.5
        assert d[-1] == pytest.approx(-0.5, abs=1e-15)
        assert res.mode_spacing == pytest.approx(0.01)

    def test_grid_symmetric_about_system_frequency(self):
        res = ReservoirSpec(n_modes=64, half_width=0.7, g0=0.01, omega_a=1.3)
        d = res.mode_detunings()
        np.testing.assert_allclose(d + d[::-1], 0.0, atol=1e-12)

    def test_flat_coupling_exact(self):
        res = ReservoirSpec(n_modes=33, half_width=0.5, g0=0.02, slope=0.0)
        assert np.max(np.abs(res.mode_couplings() - 0.02)) == 0.0

    def test_linear_coupling_endpoints(self):
        res = ReservoirSpec(n_modes=11, half_width=0.5, g0=0.02, slope=2.0)
        g = res.mode_couplings()
        assert g[0] == pytest.approx(0.02 * (1 - 2.0), abs=1e-15)
        assert g[-1] == pytest.approx(0.02 * (1 + 2.0), abs=1e-15)

    def test_with_modes_preserves_golden_rate(self):
        res = ReservoirSpec(n_modes=1001, half_width=0.5, g0=0.001262)
        coarse = res.with_modes(201)
        assert coarse.golden_rate() == pytest.approx(res.golden_rate(), rel=1e-12)

    @pytest.mark.parametrize("n_modes", [1, 0, -3])
    def test_with_modes_rejects_too_few(self, n_modes):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="n_modes must be >= 2"):
                ReservoirSpec().with_modes(n_modes)

    @pytest.mark.parametrize("cls, field", [
        (DetectorParams, "gamma"), (DetectorParams, "lam"), (DetectorParams, "omega_d"),
        (DriveParams, "omega_r"), (DriveParams, "detuning"),
        (ReservoirSpec, "half_width"), (ReservoirSpec, "g0"), (ReservoirSpec, "slope"),
        (ReservoirSpec, "omega_a")])
    def test_rejects_non_finite(self, cls, field):
        for value in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                cls(**{field: value})

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_detector_model_rejects_non_finite_omega_a(self, value):
        # built directly, not through ModelSpec: the parameter is named at
        # construction instead of a norm underflow at the first step
        with pytest.raises(ValueError, match="omega_a must be finite"):
            DetectorMeasurementModel(DetectorParams(), omega_a=value)

    def test_paper_mode_count_spacing(self):
        res = ReservoirSpec(n_modes=1001, half_width=0.5, g0=0.001262)
        assert res.mode_spacing == pytest.approx(0.001, abs=0)


class TestInitialStates:
    def test_detector_default(self):
        c = DetectorMeasurementModel(DetectorParams()).initial_amplitudes()
        np.testing.assert_allclose(c, np.array([0, 1, 0, 1]) / np.sqrt(2), atol=1e-15)

    def test_rabi_default(self):
        c = RabiMeasuredModel(DetectorParams(), DriveParams(omega_r=0.1)).initial_amplitudes()
        np.testing.assert_array_equal(c, [0, 0, 0, 1])

    def test_measured_decay_default(self):
        model = MeasuredDecayModel(ReservoirSpec(n_modes=5, g0=0.01), DetectorParams())
        c = model.initial_amplitudes()
        assert c[1] == 1.0
        assert np.sum(np.abs(c)) == 1.0
        # slot 1 is |e,0,b>: system excited, detector in its ground level
        obs = model.observables()
        assert obs["rho_ee"](c, 0.0) == 1.0
        assert obs["rho_aa"](c, 0.0) == 0.0


class TestFrequencyShiftInvariance:
    def test_reservoir_models_identical_under_shift(self):
        base = ReservoirSpec(n_modes=15, half_width=0.5, g0=0.01, slope=2.0, omega_a=1.0)
        shifted = ReservoirSpec(n_modes=15, half_width=0.5, g0=0.01, slope=2.0, omega_a=7.3)
        for cls_args in ((FreeDecayModel,), (MeasuredDecayModel, DetectorParams())):
            cls, *extra = cls_args
            m1 = cls(base, *extra)
            m2 = cls(shifted, *extra)
            c = random_state(m1.dim)
            np.testing.assert_array_equal(m1.derivative(c), m2.derivative(c))

    def test_detector_observables_shift_invariant(self):
        # omega_a only rotates the phase between the e and g sectors
        from zenosim.engine import RngStream, run_trajectory
        from zenosim.config import ModelSpec, RunConfig

        stats = {}
        for omega_a in (1.0, 3.7):
            spec = ModelSpec("detector", detector=DetectorParams(), omega_a=omega_a)
            cfg = RunConfig(spec, dt=0.01, t_max=5.0, n_trajectories=1,
                            observables=("rho_aa", "rho_ee", "rho_eg_re", "rho_eg_im"))
            from zenosim.config import build_model
            rec = run_trajectory(build_model(spec), cfg, RngStream(5, 0))
            stats[omega_a] = rec.observables
        np.testing.assert_allclose(stats[1.0]["rho_aa"], stats[3.7]["rho_aa"], atol=1e-8)
        np.testing.assert_allclose(stats[1.0]["rho_ee"], stats[3.7]["rho_ee"], atol=1e-8)
        mag1 = np.hypot(stats[1.0]["rho_eg_re"], stats[1.0]["rho_eg_im"])
        mag2 = np.hypot(stats[3.7]["rho_eg_re"], stats[3.7]["rho_eg_im"])
        np.testing.assert_allclose(mag1, mag2, atol=1e-8)
