import dataclasses
import warnings

import numpy as np
import pytest
from scipy.linalg import block_diag, expm

from zenosim import engine
from zenosim.config import DEFAULT_MASTER_SEED, ModelSpec, RunConfig, build_model, preset
from zenosim.engine import (
    JumpProbabilityWarning,
    ProbabilityOverflow,
    RngStream,
    TrajectoryBatch,
    ZeroNorm,
    _renormalize,
    run_batch,
    run_trajectory,
)
from zenosim.models import (
    DetectorMeasurementModel,
    DetectorParams,
    DriveParams,
    MeasuredDecayModel,
    RabiMeasuredModel,
    ReservoirSpec,
    _trim,
    _weight,
)

from conftest import BATCH_CASES, star_hamiltonian


def detector_model(**kw):
    return DetectorMeasurementModel(DetectorParams(**kw))


def no_jump_step(model, c, dt):
    """One renormalized no-jump step of the engine on a (1, dim) row."""
    row = np.array(c, dtype=complex).reshape(1, -1)
    return _renormalize(model.propagate(row, dt, out=np.empty_like(row))[0])


def run_detector(amps, dt, t_max=None, n=1, **kw):
    """A detector-model batch of ``n`` streams from ``amps`` (gamma = 10)."""
    spec = ModelSpec("detector", detector=DetectorParams(gamma=10.0, **kw))
    cfg = RunConfig(spec, dt=dt, t_max=t_max or dt, n_trajectories=n,
                    initial_amplitudes=np.asarray(amps, complex))
    streams = [RngStream(DEFAULT_MASTER_SEED, k) for k in range(n)]
    return run_batch(build_model(spec), cfg, streams)


class NanRow(DetectorMeasurementModel):
    """The detector model, whose no-jump step leaves row ``row`` not a
    number from time ``t_nan`` on; it counts its steps to know the time."""

    def __init__(self, row, t_nan, **kw):
        super().__init__(DetectorParams(**kw))
        self.row, self.t_nan = row, t_nan
        self.steps = 0

    def propagate(self, c, dt, out=None):
        out = super().propagate(c, dt, out)
        if self.steps * dt >= self.t_nan:
            out[self.row] = np.nan
        self.steps += 1
        return out


def guard_warnings(*args, **kw):
    """The JumpProbabilityWarning messages of one ``run_detector`` batch."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_detector(*args, **kw)
    return [str(w.message) for w in caught if w.category is JumpProbabilityWarning]


class TestJumpProbability:
    """The step-size guard Gamma*dt*w/|c|^2, on the state at the start of a step."""

    def test_no_detector_excitation(self):
        # gamma*dt = 10: any excited weight above 0.01 would warn
        assert guard_warnings([0, 0, 0, 1], dt=1.0) == []

    def test_full_excitation_warns(self):
        # guard exactly 1.0: warns once per batch, does not raise
        messages = guard_warnings([0, 0, 1, 0], dt=0.1, t_max=2.0, n=3)
        assert len(messages) == 1
        assert messages[0].startswith("jump probability reached 1 at t=0.0 ")
        assert f"(master_seed={DEFAULT_MASTER_SEED}, trajectory=0)" in messages[0]

    def test_partial_weight(self):
        amps = np.sqrt([0.03, 0.5, 0.01, 0.46])
        assert detector_model().excited_weight(amps) == pytest.approx(0.04, abs=1e-12)
        assert guard_warnings(amps, dt=0.1) == []
        [message] = guard_warnings(amps, dt=0.5)
        assert message.startswith("jump probability reached 0.2 at t=0.0 ")

    def test_overflow(self):
        with pytest.raises(ProbabilityOverflow, match=r"trajectory=0\)"):
            run_detector([0, 0, 1, 0], dt=0.2)

    @pytest.mark.parametrize("steps", [1, 5, 12])
    def test_overflow_after_warning(self, steps, monkeypatch):
        # twelve steps in blocks of 1, 5 and 12: the warning of step 1
        # (trajectory 0), then the overflow of step 8 (trajectory 7 of twelve)
        monkeypatch.setattr(engine, "STATE_BLOCK", steps * 12 * 4)
        spec = ModelSpec("detector", detector=DetectorParams(gamma=6.0, lam=2.0))
        cfg = RunConfig(spec, dt=0.4, t_max=5.0, n_trajectories=12, master_seed=23)
        streams = [RngStream(23, k) for k in range(12)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ProbabilityOverflow,
                               match=r"> 1 at t=3.2 \(master_seed=23, trajectory=7\)$"):
                run_batch(build_model(spec), cfg, streams)
        [warning] = [w for w in caught if w.category is JumpProbabilityWarning]
        assert str(warning.message).startswith(
            "jump probability reached 0.231 at t=0.4 (master_seed=23, trajectory=0);")
        assert warning.filename == __file__   # the caller of run_batch

    def test_overflow_before_a_later_nan_row(self):
        # the guard overflows at t = 0, where every row is fully excited
        # (gamma*dt = 2), and a later step of the same block leaves row 1 not
        # a number: the earlier overflow is raised, not ZeroNorm
        spec = ModelSpec("detector", detector=DetectorParams(gamma=10.0))
        cfg = RunConfig(spec, dt=0.2, t_max=2.0, n_trajectories=3,
                        initial_amplitudes=np.array([0, 0, 1, 0], complex))
        streams = [RngStream(9, k) for k in range(3)]
        with pytest.raises(ProbabilityOverflow, match=r"at t=0.0 \(master_seed=9, trajectory=0\)"):
            run_batch(NanRow(row=1, t_nan=0.4, gamma=10.0), cfg, streams)

    def test_unnormalized_ratio_form(self):
        # half the weight excited
        [message] = guard_warnings([0, 0, 2.0, 2.0], dt=0.1)
        assert message.startswith("jump probability reached 0.5 at t=0.0 ")


class TestCollapse:
    def test_transfer_and_discard(self):
        m = detector_model()
        rng = np.random.default_rng(0)
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        c = amps / np.linalg.norm(amps)
        out = _renormalize(m.collapse_amplitudes(c))
        # a amplitudes moved to b slots, previous b content gone
        norm = np.sqrt(abs(amps[0]) ** 2 + abs(amps[2]) ** 2) / np.linalg.norm(amps)
        assert out[0] == 0 and out[2] == 0
        assert out[1] == pytest.approx(c[0] / norm)
        assert out[3] == pytest.approx(c[2] / norm)
        assert _weight(out) == pytest.approx(1.0, abs=1e-12)

    def test_pure_ground_excited_detector(self):
        m = detector_model()
        out = _renormalize(m.collapse_amplitudes(np.array([0, 0, 1, 0], complex)))
        np.testing.assert_allclose(out, [0, 0, 0, 1], atol=1e-15)

    def test_zero_weight_raises(self):
        m = detector_model()
        with pytest.raises(ZeroNorm):
            _renormalize(m.collapse_amplitudes(np.array([0, 1, 0, 0], complex)))

    def test_nan_norm_raises(self):
        with pytest.raises(ZeroNorm):
            _renormalize(np.array([np.nan, 0, 0, 1], complex))

    def test_nan_row_names_its_trajectory(self):
        # a no-jump step that leaves row 2 of four not a number at t = 0.5
        spec = ModelSpec("detector", detector=DetectorParams())
        cfg = RunConfig(spec, dt=0.1, t_max=2.0, n_trajectories=4)
        streams = [RngStream(9, k) for k in range(4)]
        with pytest.raises(ZeroNorm, match=r"\(nan\) at t=0.5 \(master_seed=9, trajectory=2\)"):
            run_batch(NanRow(row=2, t_nan=0.5), cfg, streams)


class TestDeterministicStep:
    def test_invariant_excited_state(self):
        # |e,b> decouples: phase only, all probabilities unchanged
        m = detector_model(gamma=10.0, lam=1.0)
        c = np.array([0, 1, 0, 0], complex)
        for k in range(50):
            c = no_jump_step(m, c, 0.1)
        assert abs(c[1]) == pytest.approx(1.0, abs=1e-12)

    def test_uncoupled_ground_constant(self):
        m = detector_model(gamma=10.0, lam=0.0)
        c = np.array([0, 0, 0, 1], complex)
        for k in range(100):
            c = no_jump_step(m, c, 0.1)
        assert abs(c[3]) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_updates_time(self):
        batch = run_detector([0, 1, 0, 1], dt=0.5, t_max=1.5)
        np.testing.assert_array_equal(batch.times, [0.0, 0.5, 1.0, 1.5])


def generator_matrix(model):
    return np.column_stack([model.derivative(e) for e in np.eye(model.dim, dtype=complex)])


def generic_4_level_state():
    c = np.array([0.3 + 0.1j, 0.5, -0.2j, 0.6 + 0.4j])
    return c / np.linalg.norm(c)


FACTOR_STEPS = (0.001, 0.1, 0.4, 1.0)


class TestExactDetectorFactor:
    @pytest.mark.parametrize("target", ["ground", "excited"])
    def test_step_is_exact_propagator(self, target):
        m = detector_model(gamma=10.0, lam=1.0, omega_d=1.0, coupling_target=target)
        c = generic_4_level_state()
        for dt in FACTOR_STEPS:
            exact = expm(generator_matrix(m) * dt) @ c
            out = no_jump_step(m, c, dt)
            np.testing.assert_allclose(out, exact / np.linalg.norm(exact), rtol=0, atol=1e-14,
                                       err_msg=f"dt={dt}")

    @pytest.mark.parametrize("detuning", [0.0, 0.2])
    def test_drive_step_is_exact_propagator(self, detuning):
        # the driven model is stepped in the frame rotating at the detuning,
        # where its generator K~ is constant: the detector model's with
        # omega_a = detuning, plus the drive -omega_r/2 between the rows.
        # Its step is exp(K~ dt) at every t, with no phase maps.
        det = DetectorParams(gamma=10.0, lam=1.0, omega_d=1.0)
        m = RabiMeasuredModel(det, DriveParams(omega_r=0.1, detuning=detuning))
        rotating = generator_matrix(m)
        drive = 0.5j * m.drive.omega_r * np.kron([[0, 1], [1, 0]], np.eye(2))
        np.testing.assert_allclose(
            rotating, generator_matrix(DetectorMeasurementModel(det, omega_a=detuning)) + drive,
            rtol=0, atol=1e-15)
        for dt in FACTOR_STEPS:
            exact = expm(rotating * dt) @ generic_4_level_state()
            out = no_jump_step(m, generic_4_level_state(), dt)
            np.testing.assert_allclose(out, exact / np.linalg.norm(exact), rtol=0,
                                       atol=1e-14, err_msg=f"dt={dt}")
        c = m.initial_amplitudes()
        exact = expm(rotating * 2.0) @ c
        exact /= np.linalg.norm(exact)
        s = c
        for k in range(20):
            s = no_jump_step(m, s, 0.1)
        np.testing.assert_allclose(s, exact, rtol=0, atol=1e-14)

    def test_records_do_not_depend_on_omega_a(self):
        names = ("rho_aa", "rho_ee", "rho_gg")
        n_jumps = 0
        for sid in range(4):
            recs = []
            for omega_a in (0.5, 1.0, 2.0, 4.0):
                spec = ModelSpec("detector", detector=DetectorParams(gamma=10.0, lam=1.0),
                                 omega_a=omega_a)
                cfg = RunConfig(spec, dt=0.1, t_max=30.0, n_trajectories=1,
                                observables=names)
                recs.append(run_trajectory(build_model(spec), cfg,
                                           RngStream(DEFAULT_MASTER_SEED, sid)))
            first = recs[0]
            n_jumps += len(first.jumps)
            for rec in recs[1:]:
                assert rec.jumps == first.jumps
                for name in names:
                    np.testing.assert_allclose(rec.observables[name],
                                               first.observables[name], rtol=0, atol=1e-12)
        assert n_jumps > 0


def four_level_generator(det, energy, omega_r):
    """K of the 4-level models as a dense matrix, built from the physics: the
    excited row's energy, the drive -omega_r/2 between the rows, the
    detector splitting omega_d/2 (a above b), the coupling lam on the
    monitored row and the decay gamma/2 of the detector's a level."""
    sx, first = np.array([[0, 1], [1, 0]]), np.diag([1, 0])   # e, or a
    monitored = np.diag([0, 1] if det.coupling_target == "ground" else [1, 0])
    h = (energy * np.kron(first, np.eye(2)) - 0.5 * omega_r * np.kron(sx, np.eye(2))
         + 0.5 * det.omega_d * np.kron(np.eye(2), np.diag([1, -1]))
         + det.lam * np.kron(monitored, sx))
    return -1j * h - 0.5 * det.gamma * np.kron(np.eye(2), first)


class TestFourLevelFold:
    """Both 4-level models are one model stepped in its constant frame; the
    driven model turns rho_eg back to the interaction picture when it
    records."""

    def test_detector_model_is_the_undriven_rabi_model(self):
        det = DetectorParams()
        detector = DetectorMeasurementModel(det, omega_a=0.7)
        rabi = RabiMeasuredModel(det, DriveParams(omega_r=0.0, detuning=0.7))
        np.testing.assert_array_equal(detector._k, rabi._k)
        names = ("rho_aa", "rho_bb", "rho_ee", "rho_gg", "rho_eg_re", "rho_eg_im")
        cfg = RunConfig(ModelSpec("detector", detector=det), dt=0.1, t_max=20.0,
                        n_trajectories=8, observables=names,
                        initial_amplitudes=np.array([0.0, 0.6, 0.0, 0.8], complex))
        streams = [RngStream(31, k) for k in range(8)]
        a, b = run_batch(detector, cfg, streams), run_batch(rabi, cfg, streams)
        assert a.jumps == b.jumps and sum(len(j) for j in a.jumps) > 0
        for name in names[:4]:
            np.testing.assert_array_equal(a.observables[name], b.observables[name])
            np.testing.assert_array_equal(a.final_observables[name],
                                          b.final_observables[name])
        # the same rho_eg, turned by exp(i 0.7 t) into the interaction picture
        turn = np.exp(0.7j * a.times)
        eg = a.observables["rho_eg_re"] + 1j * a.observables["rho_eg_im"]
        np.testing.assert_allclose(b.observables["rho_eg_re"] + 1j * b.observables["rho_eg_im"],
                                   eg * turn, rtol=0, atol=1e-15)

    def test_detuned_coherence_matches_dense_replay(self):
        # a jumping detuned trajectory, replayed with a dense expm of the
        # rotating-frame generator, the collapses at its recorded jump steps
        # and exp(+i detuning t) on rho_eg at each record
        det, drive = DetectorParams(), DriveParams(omega_r=0.1, detuning=0.2)
        spec = ModelSpec("rabi", detector=det, drive=drive)
        cfg = RunConfig(spec, dt=0.1, t_max=40.0, n_trajectories=1,
                        observables=("rho_eg_re", "rho_eg_im"))
        rec = run_trajectory(build_model(spec), cfg, RngStream(5, 0))
        assert len(rec.jumps) > 3
        step = expm(four_level_generator(det, drive.detuning, drive.omega_r) * cfg.dt)
        jump_steps = {round(t / cfg.dt) for t in rec.jumps}
        c = np.array([0, 0, 0, 1], complex)
        replay = [c[0] * np.conj(c[2]) + c[1] * np.conj(c[3])]
        for i in range(len(rec.times) - 1):
            c = step @ c
            if i in jump_steps:
                c = np.array([0, c[0], 0, c[2]])
            c /= np.linalg.norm(c)
            rho_eg = c[0] * np.conj(c[2]) + c[1] * np.conj(c[3])
            replay.append(rho_eg * np.exp(1j * drive.detuning * rec.times[i + 1]))
        replay = np.array(replay)
        assert np.max(np.abs(replay)) > 0.01
        np.testing.assert_allclose(rec.observables["rho_eg_re"], replay.real, rtol=0, atol=1e-12)
        np.testing.assert_allclose(rec.observables["rho_eg_im"], replay.imag, rtol=0, atol=1e-12)


class FixedBand(MeasuredDecayModel):
    """The measured band model on a given Hamiltonian ``h`` (system in row 0,
    then the band's sites), at every horizon: K = detector blocks
    - i h x 1_detector, stepped by the engine as any other model."""

    def __init__(self, reservoir, detector, h):
        super().__init__(reservoir, detector)
        self.h = h
        self.sites = len(h) - 1
        self.dim = 2 * len(h)

    def for_horizon(self, t_max):
        return self

    def _factor(self, dt):
        # a dense expm of K, as the band of half-width dim - 1 that holds it,
        # conjugated for np.vecdot as the model's own, then trimmed
        ue, ug = self.detector_blocks
        k = block_diag(ue, *[ug] * self.sites) - 1j * np.kron(self.h, np.eye(2))
        u = expm(k * dt).conj()
        n = len(u)
        band = np.zeros((n, 2 * n - 1), dtype=complex)
        for row in range(n):
            band[row, n - 1 - row:2 * n - 1 - row] = u[row]
        return _trim(band)


def assert_close_records(a, b, atol):
    assert a.jumps == b.jumps
    for k in range(len(a.streams)):
        for name in a.observables:
            np.testing.assert_allclose(a.observables[name][k], b.observables[name][k],
                                       rtol=0, atol=atol)


class TestExactBand:
    """The band models step on the band's Lanczos chain, cut to the run's
    horizon; every no-jump step is the star model's exact propagator."""

    @pytest.mark.parametrize("slope", [0.0, 2.0])
    def test_free_decay_matches_star(self, slope):
        # the 1001-mode bands of fig7 and fig8 on [0, 300], 102 chain sites
        cfg = preset("fig8" if slope else "fig7")
        res = cfg.model.reservoir
        assert res.slope == slope and res.n_modes == 1001
        rec = run_trajectory(build_model(cfg.model), cfg, RngStream(1, 0))
        energies, vectors = np.linalg.eigh(star_hamiltonian(res))
        c_e = np.exp(-1j * np.outer(rec.times, energies)) @ vectors[0] ** 2
        assert rec.times[-1] == 300.0
        err = np.max(np.abs(rec.observables["rho_ee"] - np.abs(c_e) ** 2))
        assert err <= 1e-12

    @pytest.mark.parametrize("name", ["measureddecay-ground", "measureddecay-excited"])
    def test_records_match_star_stepper(self, name):
        # the 101-mode batch band, 20 chain sites at t_max = 30, against
        # dense expm steps on all 101 modes of the star, on the same streams
        cfg = BATCH_CASES[name]
        spec = cfg.model
        streams = [RngStream(cfg.master_seed, i) for i in range(cfg.n_trajectories)]
        chain = run_batch(build_model(spec), cfg, streams)
        star_model = FixedBand(spec.reservoir, spec.detector, star_hamiltonian(spec.reservoir))
        star = run_batch(star_model, cfg, streams)
        # the star's step couples the system to every mode at once: wider
        # than the 42 amplitudes of the 20-site chain
        assert star_model._step(cfg.dt).shape[1] // 2 > 100
        assert sum(len(j) for j in chain.jumps) > 0
        assert_close_records(chain, star, 1e-10)

    @pytest.mark.parametrize("name", ["fig10", "fig12"])
    def test_chain_doubling(self, name):
        # trajectories to t = 300 on the horizon's chain and on twice as many sites
        cfg = preset(name).with_overrides(n_trajectories=3)
        spec = cfg.model
        streams = [RngStream(cfg.master_seed, i) for i in range(cfg.n_trajectories)]
        model = build_model(spec).for_horizon(cfg.t_max)
        double = FixedBand(spec.reservoir, spec.detector, spec.reservoir.chain(2 * model.sites))
        a, b = run_batch(model, cfg, streams), run_batch(double, cfg, streams)
        assert model.sites == 102
        assert sum(len(j) for j in a.jumps) > 0
        assert_close_records(a, b, 1e-10)

    def test_records_do_not_depend_on_omega_a(self, assert_same_record):
        cfg = BATCH_CASES["measureddecay-ground"]
        shifted = dataclasses.replace(cfg.model.reservoir, omega_a=7.3)
        other = cfg.with_overrides(model=ModelSpec("measureddecay", reservoir=shifted,
                                                   detector=cfg.model.detector))
        streams = [RngStream(cfg.master_seed, i) for i in range(4)]
        a = run_batch(build_model(cfg.model), cfg, streams)
        b = run_batch(build_model(other.model), other, streams)
        for k in range(len(streams)):
            assert_same_record(a.record(k), b.record(k))


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(123, 7).generator().random(5)
        b = RngStream(123, 7).generator().random(5)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(123, 7).generator().random(5)
        b = RngStream(123, 8).generator().random(5)
        assert not np.array_equal(a, b)

    def test_seeds_differ(self):
        a = RngStream(123, 7).generator().random(5)
        b = RngStream(124, 7).generator().random(5)
        assert not np.array_equal(a, b)


class TestRunTrajectory:
    def test_frozen_without_dynamics(self):
        # lam = 0, no drive, starting in |e,b>: nothing can happen
        spec = ModelSpec("detector", detector=DetectorParams(gamma=10.0, lam=0.0))
        cfg = RunConfig(spec, dt=0.1, t_max=20.0, n_trajectories=1,
                        observables=("rho_ee",),
                        initial_amplitudes=np.array([0, 1, 0, 0], complex))
        rec = run_trajectory(build_model(spec), cfg, RngStream(1, 0))
        assert len(rec.jumps) == 0
        np.testing.assert_allclose(rec.observables["rho_ee"], 1.0, atol=1e-12)

    def test_bit_identical_rerun(self):
        cfg = preset("fig2").with_overrides(n_trajectories=1, t_max=25.0)
        model = build_model(cfg.model)
        r1 = run_trajectory(model, cfg, RngStream(cfg.master_seed, 3))
        r2 = run_trajectory(model, cfg, RngStream(cfg.master_seed, 3))
        for k in r1.observables:
            np.testing.assert_array_equal(r1.observables[k], r2.observables[k])
        assert r1.jumps == r2.jumps

    def test_probabilities_stay_normalized(self):
        cfg = preset("fig2").with_overrides(
            n_trajectories=1, t_max=30.0,
            observables=("rho_ee", "rho_gg"))
        model = build_model(cfg.model)
        rec = run_trajectory(model, cfg, RngStream(11, 5))
        total = rec.observables["rho_ee"] + rec.observables["rho_gg"]
        np.testing.assert_allclose(total, 1.0, atol=1e-12)

    def test_jump_times_on_grid(self):
        cfg = preset("fig2").with_overrides(n_trajectories=1, t_max=40.0)
        model = build_model(cfg.model)
        for sid in range(6):
            rec = run_trajectory(model, cfg, RngStream(cfg.master_seed, sid))
            for t in rec.jumps:
                steps = t / cfg.dt
                assert steps == pytest.approx(round(steps), abs=1e-9)

    def test_trajectory_dichotomy(self):
        # each realization either keeps jumping (ground collapse) or stays
        # jump-free after the transient (excited collapse)
        cfg = preset("fig2").with_overrides(n_trajectories=1, t_max=50.0,
                                            observables=("rho_gg",))
        model = build_model(cfg.model)
        kinds = set()
        for sid in range(30):
            rec = run_trajectory(model, cfg, RngStream(cfg.master_seed, sid))
            gg = rec.observables["rho_gg"][-1]
            if gg > 0.5:
                assert rec.jumps, "ground-collapsed trajectory must show jumps"
                mean_gap = np.mean(np.diff(rec.jumps)) \
                    if len(rec.jumps) > 1 else np.inf
                assert 0.5 <= mean_gap <= 25.0
                kinds.add("ground")
            else:
                assert len(rec.jumps) <= 3
                kinds.add("excited")
        assert kinds == {"ground", "excited"}

    def test_decimation_grid(self):
        cfg = preset("fig2").with_overrides(n_trajectories=1, t_max=10.0, decimation=5)
        model = build_model(cfg.model)
        rec = run_trajectory(model, cfg, RngStream(2, 0))
        np.testing.assert_allclose(np.diff(rec.times), 0.5, atol=1e-12)
        assert rec.times[0] == 0.0

    def test_overflow_propagates(self):
        spec = ModelSpec("detector", detector=DetectorParams(gamma=10.0, lam=1.0))
        cfg = RunConfig(spec, dt=0.25, t_max=10.0, n_trajectories=1,
                        initial_amplitudes=np.array([0, 0, 1, 0], complex))
        with pytest.raises(ProbabilityOverflow):
            run_trajectory(build_model(spec), cfg, RngStream(1, 0))

    def test_unknown_observable_rejected(self):
        cfg = preset("fig2").with_overrides(n_trajectories=1, observables=("nope",))
        with pytest.raises(KeyError):
            run_trajectory(build_model(cfg.model), cfg, RngStream(1, 0))


class TestBatchInvariance:
    """A trajectory's record depends only on (model, config, stream): not on
    the batch it runs in, nor on how its uniforms are drawn in blocks."""

    def test_rows_do_not_depend_on_batch(self, batch_case, assert_same_record, monkeypatch):
        name, cfg = batch_case
        streams = [RngStream(cfg.master_seed, i) for i in range(cfg.n_trajectories)]
        whole = run_batch(build_model(cfg.model), cfg, streams)
        for size in (1, 7):
            parts = [run_batch(build_model(cfg.model), cfg, streams[lo:lo + size])
                     for lo in range(0, len(streams), size)]
            # each part on its own, then the parts merged back into one batch
            for lo, part in zip(range(0, len(streams), size), parts):
                for k in range(len(part.streams)):
                    assert_same_record(part.record(k), whole.record(lo + k))
            merged = TrajectoryBatch.concatenate(parts)
            for k in range(len(streams)):
                assert_same_record(merged.record(k), whole.record(k))
            assert merged.max_jump_prob == whole.max_jump_prob
        # the states kept in blocks of 1 and 3 steps
        n_steps = round(cfg.t_max / cfg.dt)
        amplitudes = len(streams) * build_model(cfg.model).for_horizon(cfg.t_max).dim
        for steps in (1, 3):
            monkeypatch.setattr(engine, "STATE_BLOCK", steps * amplitudes)
            blocked = run_batch(build_model(cfg.model), cfg, streams)
            for k in range(len(streams)):
                assert_same_record(blocked.record(k), whole.record(k))
            assert blocked.max_jump_prob == whole.max_jump_prob
        monkeypatch.undo()
        assert engine.UNIFORM_BLOCK > n_steps
        monkeypatch.setattr(engine, "UNIFORM_BLOCK", 7)
        blocked = run_batch(build_model(cfg.model), cfg, streams)
        for k in range(len(streams)):
            assert_same_record(blocked.record(k), whole.record(k))
        n_jumps = sum(len(j) for j in whole.jumps)
        assert (n_jumps == 0) if name == "freedecay" else (n_jumps > 0)
