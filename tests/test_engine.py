import numpy as np
import pytest
from scipy.linalg import expm

from zenosim import engine
from zenosim.config import DEFAULT_MASTER_SEED, ModelSpec, RunConfig, build_model, preset
from zenosim.engine import (
    JumpProbabilityWarning,
    ProbabilityOverflow,
    RngStream,
    collapse,
    deterministic_step,
    jump_probability,
    run_batch,
    run_trajectory,
)
from zenosim.models import DetectorMeasurementModel, DetectorParams, DriveParams, RabiMeasuredModel
from zenosim.statevec import StateVector, ZeroNorm, norm_squared


def detector_model(**kw):
    return DetectorMeasurementModel(DetectorParams(**kw))


def state4(amps, model):
    return StateVector(np.asarray(amps, complex), model.basis_labels())


class TestJumpProbability:
    def test_no_detector_excitation(self):
        m = detector_model(gamma=10.0)
        s = state4([0, 0, 0, 1], m)
        assert jump_probability(s, m, 0.1) == 0.0

    def test_full_excitation_warns(self):
        m = detector_model(gamma=10.0)
        s = state4([0, 0, 1, 0], m)
        with pytest.warns(JumpProbabilityWarning):
            p = jump_probability(s, m, 0.1)
        assert p == pytest.approx(1.0)

    def test_partial_weight(self):
        m = detector_model(gamma=10.0)
        amps = np.sqrt([0.03, 0.5, 0.01, 0.46])
        s = state4(amps, m)
        assert jump_probability(s, m, 0.1) == pytest.approx(0.04, abs=1e-12)

    def test_overflow(self):
        m = detector_model(gamma=10.0)
        s = state4([0, 0, 1, 0], m)
        with pytest.raises(ProbabilityOverflow):
            jump_probability(s, m, 0.2)

    def test_unnormalized_ratio_form(self):
        m = detector_model(gamma=10.0)
        s = state4([0, 0, 2.0, 2.0], m)  # half the weight excited
        with pytest.warns(JumpProbabilityWarning):
            assert jump_probability(s, m, 0.1) == pytest.approx(0.5)


class TestCollapse:
    def test_transfer_and_discard(self):
        m = detector_model()
        rng = np.random.default_rng(0)
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        s = state4(amps / np.linalg.norm(amps), m)
        out = collapse(s, m)
        # a amplitudes moved to b slots, previous b content gone
        norm = np.sqrt(abs(amps[0]) ** 2 + abs(amps[2]) ** 2) / np.linalg.norm(amps)
        assert out.amplitudes[0] == 0 and out.amplitudes[2] == 0
        assert out.amplitudes[1] == pytest.approx(s.amplitudes[0] / norm)
        assert out.amplitudes[3] == pytest.approx(s.amplitudes[2] / norm)
        assert norm_squared(out) == pytest.approx(1.0, abs=1e-12)

    def test_pure_ground_excited_detector(self):
        m = detector_model()
        out = collapse(state4([0, 0, 1, 0], m), m)
        np.testing.assert_allclose(out.amplitudes, [0, 0, 0, 1], atol=1e-15)

    def test_zero_weight_raises(self):
        m = detector_model()
        with pytest.raises(ZeroNorm):
            collapse(state4([0, 1, 0, 0], m), m)


class TestDeterministicStep:
    def test_invariant_excited_state(self):
        # |e,b> decouples: phase only, all probabilities unchanged
        m = detector_model(gamma=10.0, lam=1.0)
        s = state4([0, 1, 0, 0], m)
        for k in range(50):
            s = deterministic_step(s, m, k * 0.1, 0.1)
        assert abs(s.amplitudes[1]) == pytest.approx(1.0, abs=1e-12)

    def test_uncoupled_ground_constant(self):
        m = detector_model(gamma=10.0, lam=0.0)
        s = state4([0, 0, 0, 1], m)
        for k in range(100):
            s = deterministic_step(s, m, k * 0.1, 0.1)
        assert abs(s.amplitudes[3]) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_updates_time(self):
        m = detector_model()
        s = deterministic_step(state4([0, 1, 0, 1], m), m, 1.0, 0.5)
        assert s.time == 1.5


def generator_matrix(model, t=0.0):
    return np.column_stack([model.derivative(t, e) for e in np.eye(model.dim, dtype=complex)])


class TestExactDetectorFactor:
    @pytest.mark.parametrize("target", ["ground", "excited"])
    def test_step_is_exact_propagator(self, target):
        m = detector_model(gamma=10.0, lam=1.0, omega_d=1.0, coupling_target=target)
        c = np.array([0.3 + 0.1j, 0.5, -0.2j, 0.6 + 0.4j])
        c /= np.linalg.norm(c)
        exact = expm(generator_matrix(m) * 0.1) @ c
        out = deterministic_step(state4(c, m), m, 0.0, 0.1)
        np.testing.assert_allclose(out.amplitudes, exact / np.linalg.norm(exact),
                                   rtol=0, atol=1e-14)

    @pytest.mark.parametrize("integrator,order", [("euler", 1), ("rk4", 4)])
    def test_drive_convergence_order(self, integrator, order):
        # on resonance the driven generator is constant, so expm is exact
        m = RabiMeasuredModel(DetectorParams(gamma=10.0, lam=1.0, omega_d=1.0),
                              DriveParams(omega_r=0.1))
        c = m.initial_amplitudes()
        exact = expm(generator_matrix(m) * 2.0) @ c
        exact /= np.linalg.norm(exact)
        errors = []
        for dt in (0.1, 0.05):
            s = state4(c, m)
            for k in range(int(round(2.0 / dt))):
                s = deterministic_step(s, m, k * dt, dt, integrator=integrator)
            errors.append(np.max(np.abs(s.amplitudes - exact)))
        assert errors[0] / errors[1] == pytest.approx(2.0 ** order, rel=0.1)

    def test_records_do_not_depend_on_omega_a(self):
        names = ("rho_aa", "rho_ee", "rho_gg")
        n_jumps = 0
        for sid in range(4):
            recs = []
            for omega_a in (0.5, 1.0, 2.0, 4.0):
                spec = ModelSpec("detector", detector=DetectorParams(gamma=10.0, lam=1.0),
                                 omega_a=omega_a)
                cfg = RunConfig(spec, dt=0.1, t_max=30.0, n_trajectories=1,
                                integrator="euler", observables=names)
                recs.append(run_trajectory(build_model(spec), cfg,
                                           RngStream(DEFAULT_MASTER_SEED, sid)))
            first = recs[0]
            n_jumps += len(first.jumps)
            for rec in recs[1:]:
                assert [j.time for j in rec.jumps] == [j.time for j in first.jumps]
                for name in names:
                    np.testing.assert_allclose(rec.observables[name],
                                               first.observables[name], rtol=0, atol=1e-12)
        assert n_jumps > 0


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
        assert [j.time for j in r1.jumps] == [j.time for j in r2.jumps]

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
            for j in rec.jumps:
                steps = j.time / cfg.dt
                assert steps == pytest.approx(round(steps), abs=1e-9)
                assert 0.0 < j.pre_jump_norm <= 1.0

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
                mean_gap = np.mean(np.diff([j.time for j in rec.jumps])) \
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

    def test_rk4_option(self):
        cfg = preset("fig2").with_overrides(n_trajectories=1, t_max=10.0,
                                            integrator="rk4")
        model = build_model(cfg.model)
        rec = run_trajectory(model, cfg, RngStream(9, 1))
        assert np.isfinite(rec.observables["rho_aa"]).all()


class TestBatchInvariance:
    """A trajectory's record depends only on (model, config, stream): not on
    the batch it runs in, nor on how its uniforms are drawn in blocks."""

    def test_rows_do_not_depend_on_batch(self, batch_case, assert_same_record, monkeypatch):
        name, cfg = batch_case
        streams = [RngStream(cfg.master_seed, i) for i in range(cfg.n_trajectories)]
        whole = run_batch(build_model(cfg.model), cfg, streams)
        for size in (1, 7):
            for lo in range(0, len(streams), size):
                part = run_batch(build_model(cfg.model), cfg, streams[lo:lo + size])
                for k in range(len(part.streams)):
                    assert_same_record(part.record(k), whole.record(lo + k))
        assert engine.UNIFORM_BLOCK > round(cfg.t_max / cfg.dt)
        monkeypatch.setattr(engine, "UNIFORM_BLOCK", 7)
        blocked = run_batch(build_model(cfg.model), cfg, streams)
        for k in range(len(streams)):
            assert_same_record(blocked.record(k), whole.record(k))
        n_jumps = sum(len(j) for j in whole.jumps)
        assert (n_jumps == 0) if name == "freedecay" else (n_jumps > 0)
