import numpy as np
import pytest

from zenosim import ensemble
from zenosim.config import ConfigError, ModelSpec, RunConfig, build_model, preset
from zenosim.engine import ProbabilityOverflow, RngStream, run_trajectory
from zenosim.ensemble import (
    NonPositiveValues,
    block_rate_estimate,
    default_fit_window,
    default_workers,
    fit_exponential_rate,
    mean_and_stderr,
    run_ensemble,
)
from zenosim.models import DetectorParams

class TestFitExponentialRate:
    def test_exact_exponential(self):
        t = np.arange(0, 300) * 0.1
        fit = fit_exponential_rate(t, np.exp(-0.01 * t), (0.0, 30.0))
        assert fit.rate == pytest.approx(0.01, abs=1e-12)
        assert fit.residual_rms <= 1e-12

    def test_constant_series(self):
        t = np.arange(0, 100) * 0.5
        fit = fit_exponential_rate(t, np.full_like(t, 0.7), (0.0, 50.0))
        assert fit.rate == pytest.approx(0.0, abs=1e-12)

    def test_amplitude_in_intercept(self):
        t = np.arange(0, 200) * 0.1
        fit = fit_exponential_rate(t, 0.5 * np.exp(-0.05 * t), (0.0, 20.0))
        assert np.exp(fit.intercept) == pytest.approx(0.5, rel=1e-10)

    def test_nonpositive_rejected(self):
        t = np.arange(0, 50) * 1.0
        y = np.exp(-0.1 * t)
        y[20] = 0.0
        with pytest.raises(NonPositiveValues):
            fit_exponential_rate(t, y, (0.0, 49.0))

    def test_window_needs_points(self):
        t = np.arange(0, 50) * 1.0
        with pytest.raises(ValueError):
            fit_exponential_rate(t, np.exp(-t), (0.0, 5.0))

    def test_uniform_weights_match_unweighted(self):
        t = np.arange(0, 100) * 0.3
        y = np.exp(-0.07 * t) * (1 + 0.01 * np.sin(t))
        plain = fit_exponential_rate(t, y, (0.0, 30.0))
        weighted = fit_exponential_rate(t, y, (0.0, 30.0), weights=np.full_like(t, 3.0))
        assert weighted.rate == pytest.approx(plain.rate, rel=1e-9)


class TestDefaultFitWindow:
    def test_skips_start_and_noise_tail(self):
        t = np.arange(0, 400) * 1.0
        mean = np.exp(-0.02 * t)
        se = np.full_like(t, 0.004)
        lo, hi = default_fit_window(t, mean, se, t_start=10.0)
        assert lo == 10.0
        # stops once mean - 2 se < max(0.02, 8 se) = 0.032
        assert mean[int(hi)] - 2 * 0.004 >= 0.02
        assert hi < 399

    def test_clean_curve_uses_full_range(self):
        t = np.arange(0, 100) * 1.0
        mean = np.full_like(t, 0.9)
        se = np.zeros_like(t)
        lo, hi = default_fit_window(t, mean, se, t_start=5.0)
        assert (lo, hi) == (5.0, 99.0)


class TestRunEnsemble:
    def small_config(self, n=8, **kw):
        kw.setdefault("t_max", 10.0)
        kw.setdefault("observables", ("rho_aa", "rho_gg"))
        return preset("fig2").with_overrides(n_trajectories=n, **kw)

    def test_single_trajectory_matches_engine(self):
        cfg = self.small_config(n=1)
        stats = run_ensemble(cfg, workers=1)
        rec = run_trajectory(build_model(cfg.model), cfg, RngStream(cfg.master_seed, 0))
        np.testing.assert_array_equal(stats.mean["rho_aa"], rec.observables["rho_aa"])
        np.testing.assert_array_equal(stats.std_error["rho_aa"],
                                      np.zeros_like(rec.times))

    def test_worker_count_invariance(self):
        cfg = self.small_config(n=10)
        a = run_ensemble(cfg, workers=1)
        b = run_ensemble(cfg, workers=2)
        for k in a.mean:
            np.testing.assert_array_equal(a.mean[k], b.mean[k])
            np.testing.assert_array_equal(a.std_error[k], b.std_error[k])
        assert a.total_jumps == b.total_jumps

    def test_jump_bookkeeping(self):
        cfg = self.small_config(n=6, t_max=30.0)
        stats = run_ensemble(cfg, workers=1)
        batch = stats.trajectories
        assert stats.total_jumps == sum(len(j) for j in batch.jumps)
        assert [s.stream_id for s in batch.streams] == list(range(6))
        assert batch.final_observables["rho_gg"].shape == (6,)

    def test_keep_curves_shape(self):
        cfg = self.small_config(n=5)
        stats = run_ensemble(cfg, workers=1, keep_curves=True)
        curves = stats.trajectories.observables["rho_aa"]
        assert curves.shape == (5, len(stats.times))
        np.testing.assert_allclose(curves.mean(axis=0), stats.mean["rho_aa"], atol=1e-14)

    def test_dropped_curves_keep_jumps_and_final_values(self):
        cfg = self.small_config(n=5, t_max=30.0)
        kept = run_ensemble(cfg, workers=2, keep_curves=True).trajectories
        dropped = run_ensemble(cfg, workers=2)
        assert dropped.trajectories.observables == {}
        assert dropped.trajectories.jumps == kept.jumps
        assert sum(len(j) for j in kept.jumps) > 0
        for name, values in kept.final_observables.items():
            np.testing.assert_array_equal(dropped.trajectories.final_observables[name], values)
        with pytest.raises(ValueError, match="keep_curves"):
            dropped.record(0)

    def test_worker_env_override(self, monkeypatch):
        monkeypatch.setenv("ZENOSIM_WORKERS", "3")
        assert default_workers() == 3
        for bad in ("two", "-3"):
            monkeypatch.setenv("ZENOSIM_WORKERS", bad)
            with pytest.raises(ConfigError, match=f"ZENOSIM_WORKERS.*{bad}"):
                default_workers()

    def test_worker_count_below_1_rejected(self):
        for workers in (0, -3):
            with pytest.raises(ValueError, match="workers"):
                run_ensemble(self.small_config(n=2), workers=workers)

    @pytest.mark.filterwarnings("ignore::zenosim.engine.JumpProbabilityWarning")
    def test_failing_trajectories_abort(self):
        # a step so large that the very first jump decision overflows
        spec = ModelSpec("detector", detector=DetectorParams(gamma=10.0, lam=1.0))
        cfg = RunConfig(spec, dt=0.15, t_max=3.0, n_trajectories=3,
                        initial_amplitudes=np.array([0, 0, 1, 0], complex))
        with pytest.raises(ProbabilityOverflow, match=r"trajectory=0\)"):
            run_ensemble(cfg, workers=1)
        # only trajectory 7 of twelve overflows, inside a chunk and not at
        # its start: the error names it, not the chunk
        spec = ModelSpec("detector", detector=DetectorParams(gamma=6.0, lam=2.0))
        cfg = RunConfig(spec, dt=0.4, t_max=5.0, n_trajectories=12, master_seed=23)
        failing = r"\(master_seed=23, trajectory=7\)"
        for workers in (1, 2):
            with pytest.raises(ProbabilityOverflow, match=failing):
                run_ensemble(cfg, workers=workers)
        with pytest.raises(ProbabilityOverflow, match=failing):
            run_trajectory(build_model(spec), cfg, RngStream(23, 7))

    def test_max_jump_prob_is_the_largest_guard(self):
        # fig2 records rho_aa, the excited weight, at every step: the guard
        # of step i is gamma*dt times its value at t_i, over two chunks
        cfg = preset("fig2").with_overrides(n_trajectories=40)
        assert cfg.decimation == 1
        stats = run_ensemble(cfg, workers=2, keep_curves=True)
        rho_aa = stats.trajectories.observables["rho_aa"]
        gamma_dt = cfg.model.detector.gamma * cfg.dt
        assert stats.trajectories.max_jump_prob == gamma_dt * rho_aa[:, :-1].max()
        assert 0.0 < stats.trajectories.max_jump_prob < 0.1

    def test_records_do_not_depend_on_workers(self, batch_case, assert_same_record):
        _, cfg = batch_case
        runs = [run_ensemble(cfg, workers=w, keep_curves=True) for w in (1, 2)]
        model = build_model(cfg.model)
        for i in range(cfg.n_trajectories):
            replay = run_trajectory(model, cfg, RngStream(cfg.master_seed, i))
            for stats in runs:
                assert_same_record(stats.record(i), replay)
        for k in runs[0].mean:
            np.testing.assert_array_equal(runs[0].mean[k], runs[1].mean[k])
            np.testing.assert_array_equal(runs[0].std_error[k], runs[1].std_error[k])

    def test_worker_builds_the_model_once(self, monkeypatch):
        # the chunks a worker process runs share one model of the run's horizon
        built = []

        def counting_build(spec):
            built.append(spec)
            return build_model(spec)

        monkeypatch.setattr(ensemble, "build_model", counting_build)
        ensemble._horizon_model.cache_clear()
        cfg = RunConfig(preset("fig10").model, dt=0.1, t_max=5.0, n_trajectories=4)
        first = ensemble._run_range(cfg, 0, 2)
        second = ensemble._run_range(cfg, 2, 4)
        ensemble._horizon_model.cache_clear()
        assert built == [cfg.model]
        whole = ensemble._run_range(cfg, 0, 4)
        np.testing.assert_array_equal(
            np.concatenate([first.observables["rho_ee"], second.observables["rho_ee"]]),
            whole.observables["rho_ee"])

    def test_band_start_over_the_modes(self):
        # a band model's initial state is given over its n_modes modes, the
        # basis of build_model's model, whatever chain the run steps
        cfg = preset("fig10").with_overrides(n_trajectories=1, t_max=5.0)
        c = build_model(cfg.model).initial_amplitudes()
        assert c.shape == (2004,)
        given = run_ensemble(cfg.with_overrides(initial_amplitudes=c), workers=1,
                             keep_curves=True)
        default = run_ensemble(cfg, workers=1, keep_curves=True)
        np.testing.assert_array_equal(given.trajectories.observables["rho_ee"],
                                      default.trajectories.observables["rho_ee"])

    def test_band_start_with_a_mode_excited_rejected(self):
        cfg = preset("fig10").with_overrides(n_trajectories=1, t_max=5.0)
        c = build_model(cfg.model).initial_amplitudes()
        c[1] = c[7] = np.sqrt(0.5)
        with pytest.raises(ValueError, match="band that starts empty"):
            run_ensemble(cfg.with_overrides(initial_amplitudes=c), workers=1)
        with pytest.raises(ValueError, match=r"shape \(2004,\)"):
            run_ensemble(cfg.with_overrides(initial_amplitudes=c[:20]), workers=1)

    def test_std_error_scales_with_ensemble_size(self):
        cfg_small = self.small_config(n=250, t_max=20.0)
        cfg_large = self.small_config(n=1000, t_max=20.0)
        small = run_ensemble(cfg_small, workers=2)
        large = run_ensemble(cfg_large, workers=2)
        mid = (small.times >= 5.0)
        ratio = np.median(small.std_error["rho_aa"][mid]
                          / large.std_error["rho_aa"][mid])
        assert ratio == pytest.approx(2.0, rel=0.20)


class TestMeanAndStderr:
    def test_stable_far_from_zero(self):
        # the one-pass E[x^2] - E[x]^2 cancels to nothing at this offset
        rng = np.random.default_rng(5)
        curves = 1e8 + 1e-3 * rng.normal(size=(400, 30))
        mean, se = mean_and_stderr(curves)
        np.testing.assert_allclose(mean, curves.mean(axis=0), rtol=1e-15)
        np.testing.assert_allclose(se, curves.std(axis=0, ddof=1) / np.sqrt(400), rtol=1e-9)


class TestBlockRateEstimate:
    def test_recovers_synthetic_rate(self):
        rng = np.random.default_rng(7)
        t = np.arange(0, 300) * 1.0
        true = np.exp(-0.01 * t)
        # per-trajectory curves: step functions dropping at exp times
        drops = rng.exponential(100.0, size=200)
        curves = (t[None, :] < drops[:, None]).astype(float)
        rate, se, rates = block_rate_estimate(t, curves, (0.0, 250.0))
        assert rate == pytest.approx(0.01, rel=0.25)
        assert (rate - 0.01) / se == pytest.approx(0.0, abs=4.0)
        assert len(rates) >= 5
