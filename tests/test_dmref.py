import numpy as np
import pytest

from zenosim import dmref, preset
from zenosim.config import ConfigError, ModelSpec
from zenosim.models import DetectorParams, DriveParams, FreeDecayModel, ReservoirSpec


# (t_max, dt, the argument the error names)
BAD_HORIZONS = [(1.0, -0.05, "dt"), (1.0, 0.0, "dt"), (1.0, np.nan, "dt"),
                (1.0, np.inf, "dt"), (-1.0, 0.05, "t_max"), (np.nan, 0.05, "t_max"),
                (np.inf, 0.05, "t_max")]


class TestMasterDetector:
    def test_uncoupled_populations_frozen(self):
        spec = ModelSpec("detector", detector=DetectorParams(gamma=10.0, lam=0.0))
        psi = np.array([0, 1, 0, 0], complex)
        times, rhos = dmref.evolve_master_detector(spec, 5.0, 0.01,
                                                   rho0=np.outer(psi, psi.conj()))
        pops = dmref.four_level_populations(rhos)
        np.testing.assert_allclose(pops["rho_ee"], 1.0, atol=1e-12)

    def test_trace_preserved(self):
        spec = ModelSpec("detector", detector=DetectorParams())
        times, rhos = dmref.evolve_master_detector(spec, 20.0, 0.01, record_every=100)
        traces = np.einsum("tii->t", rhos).real
        np.testing.assert_allclose(traces, 1.0, atol=1e-9 * 20.0)

    def test_hermiticity_and_positivity(self):
        spec = ModelSpec("detector", detector=DetectorParams())
        times, rhos = dmref.evolve_master_detector(spec, 10.0, 0.01, record_every=200)
        for rho in rhos:
            dmref.check_density_matrix(rho, hermiticity_tol=1e-10, trace_tol=1e-8)

    def test_monitored_populations_constant(self):
        # without a perturbation the measurement does not move the system's
        # level populations
        spec = ModelSpec("detector", detector=DetectorParams())
        times, rhos = dmref.evolve_master_detector(spec, 25.0, 0.01, record_every=50)
        pops = dmref.four_level_populations(rhos)
        np.testing.assert_allclose(pops["rho_ee"], 0.5, atol=1e-9)
        np.testing.assert_allclose(pops["rho_gg"], 0.5, atol=1e-9)

    def test_coherence_decay_envelope(self):
        spec = ModelSpec("detector", detector=DetectorParams())
        times, rhos = dmref.evolve_master_detector(spec, 15.0, 0.005, record_every=20)
        pops = dmref.four_level_populations(rhos)
        mag = np.hypot(pops["rho_eg_re"], pops["rho_eg_im"])
        target = 0.5 * np.exp(-times / 5.0)
        rel = np.abs(mag - target) / target
        assert rel.max() <= 0.10

    def test_drive_moves_populations(self):
        spec = ModelSpec("rabi", detector=DetectorParams(),
                         drive=DriveParams(omega_r=0.1))
        times, rhos = dmref.evolve_master_detector(spec, 30.0, 0.01, record_every=300)
        pops = dmref.four_level_populations(rhos)
        assert pops["rho_gg"][-1] < 0.99
        assert np.einsum("tii->t", rhos).real[-1] == pytest.approx(1.0, abs=1e-8)

    def test_rejects_reservoir_models(self):
        spec = ModelSpec("freedecay", reservoir=ReservoirSpec(n_modes=5, g0=0.01))
        with pytest.raises(ValueError):
            dmref.evolve_master_detector(spec, 1.0, 0.01)

    def test_rejects_nonfinite_frame_frequency(self):
        # a spec with omega_a = nan or inf is never built, so no reference
        # of NaN matrices is returned
        for value in (np.nan, np.inf):
            with pytest.raises(ConfigError, match="omega_a must be finite"):
                dmref.evolve_master_detector(
                    ModelSpec("detector", detector=DetectorParams(), omega_a=value), 1.0, 0.01)

    def test_overflowing_generator_raises(self):
        # gamma dt far beyond RK4's range: the step matrix overflows to NaN,
        # which the hermiticity check reports instead of returning it
        spec = ModelSpec("detector", detector=DetectorParams(gamma=1e100))
        with np.errstate(all="ignore"), pytest.raises(dmref.ToleranceExceeded,
                                                      match="hermiticity drift nan"):
            dmref.evolve_master_detector(spec, 1.0, 0.1)

    def test_rejects_bad_horizon(self):
        spec = ModelSpec("detector", detector=DetectorParams())
        for t_max, dt, name in BAD_HORIZONS:
            with pytest.raises(ValueError, match=name):
                dmref.evolve_master_detector(spec, t_max, dt)
        for record_every in (0, -5):
            with pytest.raises(ValueError, match="record_every"):
                dmref.evolve_master_detector(spec, 1.0, 0.05, record_every=record_every)


class TestMeasuredDecayDm:
    def test_long_measurement_matches_free_decay(self):
        # negligible coherence damping: the reduced matrix must reproduce
        # the pure wavefunction decay on the same band, untruncated (51
        # modes) and on the chain of the paper's band (1001 modes)
        for res in (ReservoirSpec(n_modes=51, half_width=0.5,
                                  g0=float(np.sqrt(0.01 * 0.02 / (2 * np.pi)))),
                    ReservoirSpec(n_modes=1001, half_width=0.5, g0=0.001262)):
            times, pops = dmref.evolve_measured_decay_dm(res, tau_m=1e9, t_max=50.0,
                                                         dt=0.02)
            model = FreeDecayModel(res, t_max=50.0)
            rho_ee = model.observables()["rho_ee"]
            c = model.initial_amplitudes()
            dt = 0.02
            wave = [1.0]
            for i in range(int(round(50.0 / dt))):
                c = model.propagate(c, dt)
                if (i + 1) % 50 == 0:
                    wave.append(rho_ee(c, (i + 1) * dt))
            np.testing.assert_allclose(pops, wave, atol=5e-6)

    @pytest.mark.parametrize("slope", [0.0, 2.0])
    def test_chain_doubling(self, slope):
        # the chain cut for t = 20 is exact up to t = 20: the run on the
        # longer chain of t = 40 starts with the same curve
        res = ReservoirSpec(n_modes=1001, half_width=0.5, g0=0.001262, slope=slope)
        assert res.chain_sites(20.0) < res.chain_sites(40.0) < res.n_modes
        _, short = dmref.evolve_measured_decay_dm(res, 5.0, t_max=20.0, dt=0.05,
                                                  record_every=1)
        _, long = dmref.evolve_measured_decay_dm(res, 5.0, t_max=40.0, dt=0.05,
                                                 record_every=1)
        assert np.max(np.abs(long[:len(short)] - short)) <= 1e-12

    def test_zeno_rate_on_coarse_band(self):
        res = ReservoirSpec(n_modes=1001, half_width=0.5, g0=0.001262).with_modes(101)
        times, pops = dmref.evolve_measured_decay_dm(res, tau_m=5.0, t_max=200.0,
                                                     dt=0.05)
        mask = times >= 10.0
        slope = np.polyfit(times[mask], np.log(pops[mask]), 1)[0]
        from zenosim import oracles
        expected = oracles.measured_decay_rate(res, 5.0).rate
        assert -slope == pytest.approx(expected, rel=0.10)

    def test_anti_zeno_exceeds_free_rate(self):
        res = ReservoirSpec(n_modes=1001, half_width=0.5, g0=0.001262,
                            slope=2.0).with_modes(101)
        times, pops = dmref.evolve_measured_decay_dm(res, tau_m=5.0, t_max=200.0,
                                                     dt=0.05)
        mask = times >= 10.0
        rate = -np.polyfit(times[mask], np.log(pops[mask]), 1)[0]
        from zenosim import oracles
        free = oracles.corrected_free_decay_rate(res).rate
        assert rate > free

    @pytest.mark.parametrize("tau_m", [np.nan, 0.0, -1.0])
    def test_rejects_bad_tau_m(self, tau_m):
        with pytest.raises(ValueError, match="tau_m must be > 0"):
            dmref.evolve_measured_decay_dm(ReservoirSpec(n_modes=51), tau_m, 2.0, 0.05)

    def test_overflowing_generator_raises(self):
        # a coupling far beyond RK4's range: the populations overflow to NaN,
        # which the trace check reports instead of returning them
        with np.errstate(all="ignore"), pytest.raises(dmref.ToleranceExceeded,
                                                      match="trace drift nan"):
            dmref.evolve_measured_decay_dm(ReservoirSpec(n_modes=51, g0=1e100), 5.0, 2.0, 0.05)

    def test_rejects_bad_horizon(self):
        res = ReservoirSpec(n_modes=1001, half_width=0.5, g0=0.001262)
        for t_max, dt, name in BAD_HORIZONS:
            with pytest.raises(ValueError, match=name):
                dmref.evolve_measured_decay_dm(res, 5.0, t_max, dt)
        for record_every in (0, -5):
            with pytest.raises(ValueError, match="record_every"):
                dmref.evolve_measured_decay_dm(res, 5.0, 1.0, 0.05, record_every=record_every)


def rk4_step(rhs, t, y, dt):
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * dt, y + 0.5 * dt * k1)
    k3 = rhs(t + 0.5 * dt, y + 0.5 * dt * k2)
    k4 = rhs(t + dt, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def lab_frame_master(spec, t_max, dt, record_every):
    """The master equation as it was integrated before the constant
    Liouvillian: four-stage RK4 on 4x4 rho, drive phases in the lab frame."""
    sx = np.array([[0, 1], [1, 0]], complex)
    sm = np.kron(np.eye(2), np.array([[0, 0], [1, 0]], complex))
    det = spec.detector
    mon = np.diag([0.0, 1.0] if det.coupling_target == "ground" else [1.0, 0.0])
    h = 0.5 * det.omega_d * np.kron(np.eye(2), np.diag([1.0, -1.0])) \
        + det.lam * np.kron(mon, sx)
    if spec.variant == "detector":
        h = h + spec.omega_a * np.kron(np.diag([1.0, 0.0]), np.eye(2))
        psi = np.array([0, 1, 0, 1], complex) / np.sqrt(2)
    else:
        psi = np.array([0, 0, 0, 1], complex)

    def ham(t):
        if spec.variant == "detector":
            return h
        v = np.zeros((4, 4), complex)
        ph = -0.5 * spec.drive.omega_r * np.exp(1j * spec.drive.detuning * t)
        v[0, 2] = v[1, 3] = ph
        v[2, 0] = v[3, 1] = np.conj(ph)
        return h + v

    sp = sm.conj().T
    spsm = sp @ sm

    def rhs(t, r):
        hh = ham(t)
        return -1j * (hh @ r - r @ hh) + det.gamma * (sm @ r @ sp - 0.5 * (spsm @ r + r @ spsm))

    rho = np.outer(psi, psi.conj())
    rhos = [rho]
    for i in range(int(round(t_max / dt))):
        rho = rk4_step(rhs, i * dt, rho, dt)
        if (i + 1) % record_every == 0:
            rhos.append(rho)
    return np.array(rhos)


EXCITED = DetectorParams(coupling_target="excited")
MASTER_SPECS = {
    "fig2": preset("fig2").model,
    "fig5": preset("fig5").model,
    "excited-detector": ModelSpec("detector", detector=EXCITED),
    "excited-rabi": ModelSpec("rabi", detector=EXCITED, drive=DriveParams(omega_r=0.1)),
}


class TestConstantGeneratorMaster:
    @pytest.mark.parametrize("name", list(MASTER_SPECS))
    def test_matches_explicit_rk4(self, name):
        spec = MASTER_SPECS[name]
        times, rhos = dmref.evolve_master_detector(spec, 30.0, 0.01, record_every=10)
        ref = lab_frame_master(spec, 30.0, 0.01, 10)
        assert times == pytest.approx(np.arange(301) * 0.1, abs=1e-12)
        assert np.max(np.abs(rhos - ref)) <= 1e-12

    def test_detuned_drive_in_rotating_frame(self):
        # RK4 in the rotating and in the lab frame differ by truncation
        # error only: less than the lab loop's own change when dt halves
        spec = ModelSpec("rabi", detector=DetectorParams(),
                         drive=DriveParams(omega_r=0.1, detuning=0.2))
        _, rhos = dmref.evolve_master_detector(spec, 30.0, 0.01, record_every=10)
        lab = lab_frame_master(spec, 30.0, 0.01, 10)
        lab_half = lab_frame_master(spec, 30.0, 0.005, 20)
        assert np.max(np.abs(rhos - lab)) < np.max(np.abs(lab_half - lab))


def dense_band_populations(res, tau_m, t_max, dt):
    """The band density matrix on the star basis of the modes: dense
    h @ r - r @ h in four-stage RK4, rho_ee after every step."""
    dim = res.n_modes + 1
    g = res.mode_couplings()
    h = np.zeros((dim, dim), complex)
    h[np.arange(1, dim), np.arange(1, dim)] = -res.mode_detunings()
    h[0, 1:] = g
    h[1:, 0] = g
    damp = np.zeros((dim, dim))
    damp[0, 1:] = damp[1:, 0] = 1.0 / tau_m

    def rhs(t, r):
        return -1j * (h @ r - r @ h) - damp * r

    rho = np.zeros((dim, dim), complex)
    rho[0, 0] = 1.0
    pops = [1.0]
    for i in range(int(round(t_max / dt))):
        rho = rk4_step(rhs, i * dt, rho, dt)
        pops.append(rho[0, 0].real)
    return np.array(pops)


class TestArrowheadBand:
    @pytest.mark.parametrize("slope", [0.0, 2.0])
    def test_matches_dense_commutator(self, slope):
        res = ReservoirSpec(n_modes=1001, half_width=0.5, g0=0.001262,
                            slope=slope).with_modes(201)
        times, pops = dmref.evolve_measured_decay_dm(res, 5.0, t_max=2.0, dt=0.05,
                                                     record_every=1)
        assert len(pops) == 41
        assert np.max(np.abs(pops - dense_band_populations(res, 5.0, 2.0, 0.05))) <= 1e-10

    def test_generator_is_the_dense_commutator(self):
        # the routine against dense K r + r K^+ + J r J^+ on random
        # non-Hermitian r with a leading axis: the 4-level K with either
        # coupling, and a chain K whose row 0 dephases at 1/tau
        rng = np.random.default_rng(3)
        sx = np.array([[0, 1], [1, 0]])
        for target in ("ground", "excited"):
            det = DetectorParams(gamma=rng.random() * 10, lam=rng.random(),
                                 omega_d=rng.normal(), coupling_target=target)
            energy, hop = rng.normal(size=2)
            mon = np.diag([0.0, 1.0] if target == "ground" else [1.0, 0.0])
            h = (np.kron([[energy, hop], [hop, 0.0]], np.eye(2)) + det.lam * np.kron(mon, sx)
                 + 0.5 * det.omega_d * np.kron(np.eye(2), np.diag([1.0, -1.0])))
            k = -1j * h - 0.5 * det.gamma * np.kron(np.eye(2), np.diag([1.0, 0.0]))
            j = np.sqrt(det.gamma) * np.kron(np.eye(2), [[0, 0], [1, 0]])
            check_generator(dmref._lindblad(dmref._band([energy, 0.0], [hop], det),
                                            (slice(0, None, 2), slice(1, None, 2)),
                                            det.gamma), k, j, rng)
        n, tau = 7, 5.0
        diag, hop = rng.normal(size=n), rng.normal(size=n - 1)
        proj = np.diag(np.arange(n) == 0).astype(float)
        k = -1j * (np.diag(diag) + np.diag(hop, 1) + np.diag(hop, -1)) - proj / tau
        band = dmref._band(diag, hop)
        band[0, 1] -= 1.0 / tau
        check_generator(dmref._lindblad(band, (slice(0, 1), slice(0, 1)), 2.0 / tau),
                        k, np.sqrt(2.0 / tau) * proj, rng)


def check_generator(apply, k, j, rng):
    n = len(k)
    r = rng.normal(size=(2, n, n)) + 1j * rng.normal(size=(2, n, n))
    out = np.empty_like(r)
    apply(r, out)
    dense = k @ r + r @ k.conj().T + j @ r @ j.conj().T
    np.testing.assert_allclose(out, dense, rtol=0, atol=1e-13)


class TestDensityMatrixChecks:
    def test_rejects_nonhermitian(self):
        rho = np.array([[0.5, 0.1], [0.3, 0.5]], complex)
        with pytest.raises(dmref.ToleranceExceeded):
            dmref.check_density_matrix(rho)

    def test_rejects_bad_trace(self):
        rho = np.diag([0.6, 0.6]).astype(complex)
        with pytest.raises(dmref.ToleranceExceeded):
            dmref.check_density_matrix(rho)

    def test_rejects_nan(self):
        rho = np.diag([np.nan, 0.5]).astype(complex)
        with pytest.raises(dmref.ToleranceExceeded, match="hermiticity defect nan"):
            dmref.check_density_matrix(rho)

    @pytest.mark.parametrize("tol, check", [("hermiticity_tol", "hermiticity"),
                                            ("trace_tol", "trace"),
                                            ("eig_tol", "negative eigenvalue")])
    def test_nan_tolerance_fails_its_check(self, tol, check):
        # every comparison fails on a NaN, on either side
        rho = np.diag([0.25, 0.75]).astype(complex)
        with pytest.raises(dmref.ToleranceExceeded, match=check):
            dmref.check_density_matrix(rho, **{tol: np.nan})

    def test_accepts_valid(self):
        rho = np.diag([0.25, 0.75]).astype(complex)
        dmref.check_density_matrix(rho)
