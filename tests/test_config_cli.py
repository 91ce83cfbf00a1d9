import json

import numpy as np
import pytest

from zenosim import cli
from zenosim.config import ConfigError, build_model, load_config_file, preset
from zenosim.engine import RngStream, run_trajectory
from zenosim.ensemble import run_ensemble
from zenosim.output import read_ensemble_csv, write_ensemble_csv, write_trajectory_csv


class TestPresetTable:
    """Every preset's physics parameters must equal the published values."""

    def test_detector_family(self):
        for name in ("fig1", "fig2", "fig3"):
            cfg = preset(name)
            assert cfg.dt == 0.1
            det = cfg.model.detector
            assert (det.gamma, det.lam, det.omega_d) == (10.0, 1.0, 1.0)
            assert det.coupling_target == "ground"

    def test_resonant_drive_family(self):
        for name in ("fig4", "fig5"):
            cfg = preset(name)
            assert cfg.dt == 0.1
            det, drv = cfg.model.detector, cfg.model.drive
            assert (det.gamma, det.lam, det.omega_d) == (10.0, 1.0, 1.0)
            assert (drv.omega_r, drv.detuning) == (0.1, 0.0)

    def test_detuned_drive(self):
        cfg = preset("fig6")
        assert cfg.dt == 0.001
        assert (cfg.model.drive.omega_r, cfg.model.drive.detuning) == (0.1, 0.2)

    def test_free_decay_family(self):
        for name, slope in (("fig7", 0.0), ("fig8", 2.0)):
            cfg = preset(name)
            res = cfg.model.reservoir
            assert cfg.dt == 0.1
            assert res.half_width == 0.5
            assert res.g0 == 0.001262
            assert res.slope == slope
            assert res.mode_spacing == pytest.approx(0.001, abs=0)

    def test_measured_decay_family(self):
        for name, slope, target in (("fig9", 0.0, "ground"), ("fig10", 0.0, "ground"),
                                    ("fig11", 0.0, "excited"), ("fig12", 2.0, "ground")):
            cfg = preset(name)
            res, det = cfg.model.reservoir, cfg.model.detector
            assert cfg.dt == 0.1
            assert (det.gamma, det.lam, det.omega_d) == (10.0, 1.0, 1.0)
            assert det.coupling_target == target
            assert res.half_width == 0.5
            assert res.g0 == 0.001262
            assert res.slope == slope

    def test_ensemble_counts(self):
        assert preset("fig2").n_trajectories == 1000
        assert preset("fig5").n_trajectories == 1000
        for name in ("fig1", "fig4", "fig7", "fig8", "fig9", "fig11"):
            assert preset(name).n_trajectories == 1

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset("fig99")


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("""
[run]
model = rabi
dt = 0.05
t_max = 40
n_trajectories = 12
master_seed = 99
integrator = rk4
observables = rho_gg, rho_ee

[detector]
gamma = 8.0
lambda = 0.5
omega_d = 2.0

[drive]
omega_r = 0.2
detuning = 0.1
""")
        cfg = load_config_file(str(path))
        assert cfg.model.variant == "rabi"
        assert cfg.dt == 0.05
        assert cfg.n_trajectories == 12
        assert cfg.master_seed == 99
        assert cfg.integrator == "rk4"
        assert cfg.observables == ("rho_gg", "rho_ee")
        assert cfg.model.detector.gamma == 8.0
        assert cfg.model.detector.lam == 0.5
        assert cfg.model.drive.detuning == 0.1

    def test_unknown_key_rejected_with_location(self, tmp_path):
        path = tmp_path / "bad.cfg"
        for key in ("wibble = 3", "output_path = elsewhere"):
            path.write_text(f"[run]\nmodel = detector\n{key}\n\n[detector]\ngamma = 10\n")
            with pytest.raises(ConfigError) as err:
                load_config_file(str(path))
            assert key.split()[0] in str(err.value)
            assert ":3" in str(err.value)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[run]\nmodel = detector\n\n[detector]\ngamma = 10\n\n[zzz]\nx = 1\n")
        with pytest.raises(ConfigError):
            load_config_file(str(path))

    def test_missing_model_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[run]\ndt = 0.1\n")
        with pytest.raises(ConfigError):
            load_config_file(str(path))

    def test_missing_params_for_variant(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[run]\nmodel = rabi\n\n[detector]\ngamma = 10\n")
        with pytest.raises(ConfigError):
            load_config_file(str(path))


class TestCsvRoundTrip:
    def test_bit_exact(self, tmp_path):
        cfg = preset("fig2").with_overrides(n_trajectories=4, t_max=5.0)
        stats = run_ensemble(cfg, workers=1)
        path = tmp_path / "ens.csv"
        write_ensemble_csv(path, stats)
        back = read_ensemble_csv(path)
        np.testing.assert_array_equal(back["t"], stats.times)
        for k in stats.mean:
            np.testing.assert_array_equal(back[f"{k}_mean"], stats.mean[k])
            np.testing.assert_array_equal(back[f"{k}_stderr"], stats.std_error[k])


class TestCli:
    def test_oracle_measurement_time(self, capsys):
        code = cli.main(["oracle", "tau_m", "--gamma", "10", "--lambda", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "5" in out

    def test_oracle_measured_decay(self, capsys):
        code = cli.main(["oracle", "measured-decay", "--lambda-band", "0.5",
                         "--tau-m", "5", "--gamma0", "0.01"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0.00757" in out

    def test_oracle_anti_zeno_value_and_note(self, capsys):
        code = cli.main(["oracle", "anti-zeno", "--gamma0", "0.01", "--lambda-band",
                         "0.5", "--a", "2", "--tau-m", "5"])
        out = capsys.readouterr().out
        assert code == 0
        value = float(out.split()[1])
        assert value == pytest.approx(0.016430, abs=1e-6)
        assert "2.5" in out  # validity note carries half_width * tau_m

    def test_oracle_missing_parameters_exit_2(self, capsys):
        code = cli.main(["oracle", "tau_m", "--gamma", "10"])
        assert code == 2
        assert "lambda" in capsys.readouterr().err

    def test_simulate_bad_target_exit_2(self, capsys):
        code = cli.main(["simulate", "not-a-preset-or-file"])
        assert code == 2

    def test_simulate_bad_config_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[run]\nmodel = detector\nbogus = 1\n\n[detector]\ngamma = 10\n")
        code = cli.main(["simulate", str(bad)])
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    def test_simulate_preset_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = cli.main(["simulate", "fig1", "--output", str(out), "--per-trajectory",
                         "--t-max", "10"])
        assert code == 0
        assert (out / "ensemble.csv").exists()
        assert (out / "trajectory_0000.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["model"] == "detector"
        assert manifest["config"]["t_max"] == 10
        assert manifest["config"]["detector"]["gamma"] == 10.0
        assert manifest["config"]["omega_a"] == 1.0
        header = (out / "trajectory_0000.csv").read_text().splitlines()[0]
        assert header.startswith("t,") and header.endswith(",jump")

    def test_per_trajectory_csv_matches_replay(self, tmp_path):
        out = tmp_path / "run"
        code = cli.main(["simulate", "fig2", "--output", str(out), "--per-trajectory",
                         "--t-max", "10", "--n-trajectories", "5", "--workers", "2"])
        assert code == 0
        cfg = preset("fig2").with_overrides(t_max=10.0, n_trajectories=5)
        model = build_model(cfg.model)
        jumps = 0
        for i in range(5):
            rec = run_trajectory(model, cfg, RngStream(cfg.master_seed, i))
            jumps += len(rec.jumps)
            write_trajectory_csv(tmp_path / "replay.csv", rec)
            assert ((out / f"trajectory_{i:04d}.csv").read_bytes()
                    == (tmp_path / "replay.csv").read_bytes())
        assert jumps > 0

    def test_simulate_config_file(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("""
[run]
model = detector
dt = 0.1
t_max = 5
n_trajectories = 3

[detector]
gamma = 10
lambda = 1
omega_d = 1
""")
        out = tmp_path / "o"
        code = cli.main(["simulate", str(cfgfile), "--output", str(out)])
        assert code == 0
        assert (out / "ensemble.csv").exists()

    def test_validate_freedecay_suite(self, capsys):
        code = cli.main(["validate", "freedecay"])
        out = capsys.readouterr().out
        assert code == 0
        assert "free-decay-flat" in out
        assert "PASS" in out

    def test_unknown_observable_exit_3(self, tmp_path, capsys):
        code = cli.main(["simulate", "fig1", "--output", str(tmp_path / "x"),
                         "--observables", "bogus"])
        assert code == 3
