import csv
import json

import numpy as np
import pytest

from zenosim import acceptance, cli, oracles
from zenosim.config import (
    ConfigError, ModelSpec, RunConfig, build_model, describe, load_config_file, preset,
    preset_names,
)
from zenosim.engine import RngStream, TrajectoryRecord, run_trajectory
from zenosim.ensemble import EnsembleStatistics, run_ensemble
from zenosim.models import DetectorParams, DriveParams, ReservoirSpec
from zenosim.output import (
    SharedRows,
    read_ensemble_csv,
    write_ensemble_csv,
    write_trajectory_csv,
)


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

    def test_overrides_rederive_decimation(self):
        base = preset("fig2")
        fresh = RunConfig(base.model, dt=base.dt, t_max=3000.0)
        assert base.with_overrides(t_max=3000.0).decimation == fresh.decimation == 8
        assert preset("fig6").with_overrides(dt=0.01).decimation == 6
        assert base.with_overrides(t_max=3000.0, decimation=3).decimation == 3
        kept = base.with_overrides(decimation=3)
        assert kept.with_overrides(t_max=30.0, n_trajectories=2).decimation == 3


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
        assert cfg.observables == ("rho_gg", "rho_ee")
        assert cfg.model.detector.gamma == 8.0
        assert cfg.model.detector.lam == 0.5
        assert cfg.model.drive.detuning == 0.1

    def test_unknown_key_rejected_with_location(self, tmp_path):
        path = tmp_path / "bad.cfg"
        # a removed [run] key (integrator) is rejected like any unknown one
        for key in ("wibble = 3", "output_path = elsewhere", "integrator = rk4"):
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
        for text in ("[run]\ndt = 0.1\n", "dt = 0.1\n"):
            path.write_text(text)
            with pytest.raises(ConfigError):
                load_config_file(str(path))

    def test_missing_params_for_variant(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[run]\nmodel = rabi\n\n[detector]\ngamma = 10\n")
        with pytest.raises(ConfigError):
            load_config_file(str(path))

    def test_manifest_config_loads_back(self, tmp_path):
        # a manifest's ``config`` block, written out as a config file, gives
        # back the run that wrote it
        path = tmp_path / "run.cfg"
        for name in preset_names():
            cfg = preset(name)
            block = json.loads(json.dumps(describe(cfg)))
            lines = ["[run]"]
            for key, value in block.items():
                if isinstance(value, list):
                    value = ", ".join(value)
                if value is not None and not isinstance(value, dict):
                    lines.append(f"{key} = {value}")
            for section, values in block.items():
                if isinstance(values, dict):
                    lines += [f"[{section}]", *(f"{k} = {v}" for k, v in values.items())]
            path.write_text("\n".join(lines) + "\n")
            assert load_config_file(str(path)) == cfg, name

    def test_sections_follow_the_model(self, tmp_path):
        path = tmp_path / "bad.cfg"
        for model, section, key in (("detector", "reservoir", "omega_a = 3.7"),
                                    ("freedecay", "drive", "omega_r = 0.1")):
            path.write_text(f"[run]\nmodel = {model}\n\n[{section}]\n{key}\n")
            with pytest.raises(ConfigError, match=rf"'{model}'.*\[{section}\]"):
                load_config_file(str(path))
        path.write_text("[run]\nmodel = rabi\nomega_a = 3.7\n\n[detector]\n\n[drive]\n")
        with pytest.raises(ConfigError, match=r":3: unknown key 'omega_a'"):
            load_config_file(str(path))
        with pytest.raises(ConfigError, match="does not use drive"):
            ModelSpec("freedecay", reservoir=ReservoirSpec(), drive=DriveParams())
        with pytest.raises(ConfigError, match="does not use omega_a"):
            ModelSpec("rabi", detector=DetectorParams(), drive=DriveParams(), omega_a=3.7)

    def test_detector_frame_frequency_in_run(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[run]\nmodel = detector\nomega_a = 3.7\n\n[detector]\n")
        cfg = load_config_file(str(path))
        assert build_model(cfg.model).omega_a == 3.7
        assert describe(cfg)["omega_a"] == 3.7
        assert "reservoir" not in describe(cfg)

    def test_bad_value_names_its_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[run]\nmodel = freedecay\n\n[reservoir]\nn_modes = many\n")
        with pytest.raises(ConfigError, match=r"\[reservoir\] n_modes"):
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

    # values whose text needs all 17 digits, a signed zero, the smallest
    # subnormal, a huge and an exact zero
    VALUES = np.array([0.1, 1 / 3, -0.0, 5e-324, 1e300, 0.0])

    @staticmethod
    def _reference_bytes(tmp_path, header, rows):
        # the writer kept as an oracle: csv.writer, one format() per cell
        path = tmp_path / "reference.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for row in rows:
                w.writerow([c if isinstance(c, str) else format(float(c), ".17g") for c in row])
        return path.read_bytes()

    def test_trajectory_bytes_match_reference(self, tmp_path):
        v = self.VALUES
        rec = TrajectoryRecord(
            trajectory_id=0, times=np.arange(len(v)) * 0.1,
            observables={"rho_ee": v, "rho_gg": v[::-1].copy()},
            jumps=[0.1], seed_used=1)
        write_trajectory_csv(tmp_path / "traj.csv", rec)
        rows = [[t, a, b, "1" if i == 2 else "0"]
                for i, (t, a, b) in enumerate(zip(rec.times, v, v[::-1]))]
        assert ((tmp_path / "traj.csv").read_bytes()
                == self._reference_bytes(tmp_path, ["t", "rho_ee", "rho_gg", "jump"], rows))

    NAN = np.array([np.nan]).view(np.int64)
    QUIET_NAN, OTHER_NAN = (NAN | np.array([0, 1])).view(np.float64)

    @pytest.mark.parametrize("ref_values, values, copied", [
        # -0.0 == 0.0, but their bits and their text differ
        ([0.1, 1 / 3, 0.0, 0.5, 1e300], [0.1, 1 / 3, -0.0, 0.5, 1e300], 2),
        # NaN != NaN, but equal bits copy; another payload stops the copy
        ([0.1, QUIET_NAN, QUIET_NAN, 0.5], [0.1, QUIET_NAN, OTHER_NAN, 0.5], 2),
    ], ids=["signed-zero", "nan-payload"])
    def test_shared_rows_copy_until_the_first_bit_difference(self, tmp_path, ref_values,
                                                             values, copied):
        def record(v):
            v = np.array(v)
            return TrajectoryRecord(trajectory_id=0, times=np.arange(len(v)) * 0.1,
                                    observables={"rho_ee": v}, jumps=[], seed_used=1)

        rec = record(values)
        path = tmp_path / "traj.csv"
        assert write_trajectory_csv(path, rec, SharedRows(record(ref_values))) == copied
        rows = [[t, v, "0"] for t, v in zip(rec.times, rec.observables["rho_ee"])]
        assert path.read_bytes() == self._reference_bytes(tmp_path, ["t", "rho_ee", "jump"], rows)

    def test_ensemble_bytes_match_reference(self, tmp_path):
        v = self.VALUES
        stats = EnsembleStatistics(
            times=v[::-1].copy(), mean={"rho_ee": v, "rho_gg": -v},
            std_error={"rho_ee": v / 7, "rho_gg": v * 3}, n_trajectories=2, total_jumps=0)
        write_ensemble_csv(tmp_path / "ens.csv", stats)
        rows = zip(v[::-1], v, v / 7, -v, v * 3)
        header = ["t", "rho_ee_mean", "rho_ee_stderr", "rho_gg_mean", "rho_gg_stderr"]
        assert ((tmp_path / "ens.csv").read_bytes()
                == self._reference_bytes(tmp_path, header, rows))

    def test_jump_marks_under_decimation(self, tmp_path):
        # dt = 0.1, stride 3, 200 steps: rows at 0, 0.3, ..., 19.8; a collapse
        # decided in step k marks the first row at or after (k + 1) * dt
        dt, stride = 0.1, 3
        times = np.arange(200 // stride + 1) * (stride * dt)
        rec = TrajectoryRecord(
            trajectory_id=0, times=times, observables={"rho_ee": np.zeros(len(times))},
            jumps=[k * dt for k in (0, 1, 2, 3, 199)],
            seed_used=1)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, rec)
        lines = path.read_text().splitlines()[1:]
        assert len(lines) == 67
        marked = [i for i, line in enumerate(lines) if line.endswith(",1")]
        assert marked == [1, 2]


FLAT = ReservoirSpec(g0=0.001262)
SLOPED = ReservoirSpec(g0=0.001262, slope=2.0)
AMP = oracles.rabi_amplitude(3.0, DriveParams(0.1, 0.2))
# formula -> (flags, the printed values by direct calls to the oracles)
ORACLE_CASES = {
    "tau_m": ("--gamma 10 --lambda 2", [oracles.measurement_time(10.0, 2.0)]),
    "coherence": ("--t 2 --tau-m 5", [oracles.coherence_factor(2.0, 5.0)]),
    "rabi": ("--t 3 --omega-r 0.1 --detuning 0.2", [AMP.real, AMP.imag, abs(AMP) ** 2]),
    "zeno-rate": ("--omega-r 0.1 --detuning 0.2 --gamma 10 --lambda 1",
                  [oracles.zeno_transition_rate(DriveParams(0.1, 0.2), 5.0).rate]),
    "golden": ("--g0 0.001262", [oracles.golden_rule_rate(FLAT).rate]),
    "corrected-free": ("--g0 0.001262 --a 2", [oracles.corrected_free_decay_rate(SLOPED).rate]),
    "measured-decay": ("--g0 0.001262 --tau-m 3", [oracles.measured_decay_rate(FLAT, 3.0).rate]),
    "anti-zeno": ("--g0 0.001262 --a 2 --tau-m 5", [oracles.anti_zeno_rate(SLOPED, 5.0).rate]),
    "resolvent-root": ("--g0 0.001262 --a 2", [oracles.resolvent_decay_rate(SLOPED)]),
    "laplace-root": ("--g0 0.001262 --a 2 --tau-m 5", [oracles.laplace_decay_rate(SLOPED, 5.0)]),
}


class TestCli:
    @pytest.mark.parametrize("formula", list(cli.ORACLES))
    def test_oracle_prints_the_oracle_value(self, formula, capsys):
        flags, expected = ORACLE_CASES[formula]
        code = cli.main(["oracle", formula, *flags.split()])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        # a row is the label padded to 32 columns, the value, an optional note
        assert [float(line[33:].split()[0]) for line in lines] == \
            pytest.approx(expected, rel=1e-9, abs=1e-15)

    @pytest.mark.parametrize("argv", [
        "oracle golden --gamma0 -0.01",
        "oracle zeno-rate --omega-r 0.1 --tau-m 1e400",
        "oracle measured-decay --gamma0 0.01 --tau-m nan",
        "oracle tau_m --gamma 10 --lambda nan",
        "simulate fig1 --dt nan",
        "simulate fig1 --t-max inf",
    ], ids=["negative-gamma0", "infinite-tau-m", "nan-tau-m", "nan-lambda", "nan-dt",
            "infinite-t-max"])
    def test_nonfinite_or_negative_number_exit_2(self, argv, tmp_path, capsys):
        if argv.startswith("simulate"):
            argv += f" --output {tmp_path / 'run'}"
        try:
            code = cli.main(argv.split())
        except SystemExit as exc:   # rejected by the argument parser
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert not (tmp_path / "run").exists()

    def test_oracle_missing_tau_m_exit_2(self, capsys):
        code = cli.main(["oracle", "laplace-root", "--gamma0", "0.01"])
        assert code == 2
        assert "--tau-m" in capsys.readouterr().err

    def test_validate_small_ensemble_fails_a_nonpositive_rate(self, capsys):
        # two trajectories of a growing population: the Monte Carlo scaled
        # tolerance stops at rel 0.5, so a rate <= 0 cannot pass
        code = cli.main(["validate", "antizenodecay", "--n-trajectories", "2",
                         "--workers", "1"])
        line, = [l for l in capsys.readouterr().out.splitlines()
                 if "measured decay rate vs Laplace root" in l]
        assert code == 1
        assert float(line.split("measured=")[1].split()[0]) <= 0.0
        assert line.endswith("tol[rel 0.5] FAIL")

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

    def test_oracle_one_mode_names_n_modes(self, capsys):
        code = cli.main(["oracle", "golden", "--gamma0", "0.01", "--n-modes", "1"])
        assert code == 2
        assert "n_modes" in capsys.readouterr().err

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

    @pytest.mark.parametrize("model, sections", [
        ("detector", "[detector]\ngamma = inf"),
        ("rabi", "[detector]\n\n[drive]\nomega_r = nan"),
        ("freedecay", "[reservoir]\ng0 = nan\nhalf_width = inf"),
        ("detector", "omega_a = nan\n\n[detector]")])
    def test_simulate_nonfinite_parameter_exit_2(self, model, sections, tmp_path, capsys):
        path = tmp_path / "nonfinite.cfg"
        path.write_text(f"[run]\nmodel = {model}\nt_max = 1\n\n{sections}\n")
        with pytest.raises(ConfigError, match="must be finite"):
            load_config_file(str(path))
        out = tmp_path / "out"
        assert cli.main(["simulate", str(path), "--output", str(out), "--workers", "1"]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()

    def test_simulate_preset_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = cli.main(["simulate", "fig1", "--output", str(out), "--per-trajectory",
                         "--t-max", "10", "--n-trajectories", "8"])
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
        stats = run_ensemble(preset("fig1").with_overrides(t_max=10.0, n_trajectories=8),
                             workers=1, keep_curves=True)
        assert manifest["max_jump_prob"] == stats.trajectories.max_jump_prob > 0.0
        phases = manifest["phase_wall_s"]
        assert set(phases) == {"ensemble", "csv"}
        assert min(phases.values()) >= 0
        assert sum(phases.values()) <= manifest["wall_time_s"]
        # with a trajectory that never jumps, each file copies its rows
        # recorded at or before its first jump (a collapse decided in the
        # step from t changes the rows after t)
        jumps, times = stats.trajectories.jumps, stats.times
        assert [] in jumps and any(jumps)
        shared = sum(np.searchsorted(times, j[0], side="right") if j else len(times)
                     for j in jumps)
        assert manifest["trajectory_rows"] == {"written": 8 * len(times), "copied": shared}

    def test_per_trajectory_csv_matches_replay(self, tmp_path):
        # the detector model, the detuned drive's time-dependent frame and
        # the band model
        for target, t_max in (("fig2", 10.0), ("fig6", 2.0), ("fig10", 20.0)):
            out = tmp_path / target
            code = cli.main(["simulate", target, "--output", str(out), "--per-trajectory",
                             "--t-max", str(t_max), "--n-trajectories", "5", "--workers", "2"])
            assert code == 0
            cfg = preset(target).with_overrides(t_max=t_max, n_trajectories=5)
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

    def test_validate_reports_a_raising_criterion(self, capsys):
        # two trajectories leave too few blocks for the block-rate fit
        code = cli.main(["validate", "antizenodecay", "--n-trajectories", "2",
                         "--workers", "1"])
        out, err = capsys.readouterr()
        assert code == 1
        assert "raised ValueError: too few usable blocks" in out
        for name in acceptance.SUITES["antizenodecay"]:
            assert f"{name:30s} => " in out
        assert "passed " in out.splitlines()[-1]
        assert "Traceback" not in out + err

    def test_unknown_observable_exit_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("[run]\nmodel = detector\nobservables = rho_ee, rho_xx\n\n[detector]\n")
        for argv in (["fig1", "--observables", "rho_xx"], [str(cfgfile)]):
            out = tmp_path / "x"
            assert cli.main(["simulate", *argv, "--output", str(out)]) == 2
            assert "rho_xx" in capsys.readouterr().err
            assert not out.exists()

    def test_bad_worker_env_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ZENOSIM_WORKERS", "two")
        out = tmp_path / "x"
        assert cli.main(["simulate", "fig1", "--output", str(out)]) == 2
        assert "ZENOSIM_WORKERS" in capsys.readouterr().err
        assert not out.exists()
        assert cli.main(["validate", "detector"]) == 2

    def test_bad_worker_flag_exit_2(self, tmp_path, capsys):
        for workers in ("0", "-3"):
            out = tmp_path / "x"
            argv = ["simulate", "fig1", "--output", str(out), "--workers", workers]
            assert cli.main(argv) == 2
            assert "--workers" in capsys.readouterr().err
            assert not out.exists()
            assert cli.main(["validate", "freedecay", "--workers", workers]) == 2
            assert "--workers" in capsys.readouterr().err

    def test_bad_n_trajectories_flag_exit_2(self, capsys):
        # rejected before any ensemble runs, also by a suite whose criteria
        # ignore the count
        for n in ("0", "-3"):
            for suite in ("freedecay", "detector"):
                assert cli.main(["validate", suite, "--n-trajectories", n]) == 2
                captured = capsys.readouterr()
                assert f"--n-trajectories must be >= 1, got {n}" in captured.err
                assert captured.out == ""

    def test_acceptance_runs_reject_empty_counts(self):
        # the rule the flag's check relies on, for library callers too
        for name in ("n_detector", "n_zeno", "n_detuned", "n_decay", "n_anti"):
            for n in (0, -3):
                with pytest.raises(ConfigError, match=f"{name} must be >= 1, got {n}"):
                    acceptance.AcceptanceRuns(**{name: n})

    def test_oracle_negative_lambda_exit_2(self, capsys):
        assert cli.main(["oracle", "tau_m", "--gamma", "10", "--lambda", "-1"]) == 2
        assert "lam must be >= 0, got -1.0" in capsys.readouterr().err


class TestCriteriaTable:
    """The acceptance suite's registration and judging, without running it."""

    def test_keys_are_result_names(self, monkeypatch):
        made = []

        class Made(Exception):
            pass

        def record(name):
            made.append(name)
            raise Made

        monkeypatch.setattr(acceptance, "CriterionResult", record)
        for criterion in acceptance.CRITERIA.values():
            with pytest.raises(Made):
                criterion(None)
        assert made == list(acceptance.CRITERIA)

    def test_suites(self):
        assert acceptance.SUITES["all"] == tuple(acceptance.CRITERIA) == (
            "detector-coherence", "jump-statistics", "trajectory-dm-equivalence",
            "zeno-two-level", "anti-zeno-two-level", "free-decay-flat", "free-decay-sloped",
            "measured-decay-zeno", "coupling-target-independence", "measured-decay-anti-zeno",
            "laplace-cross-check", "reduced-dm-oracle", "engine-properties")
        for name, criterion in acceptance.CRITERIA.items():
            assert criterion.__name__ == "criterion_" + name.replace("-", "_")
        for suite in acceptance.SUITES.values():
            assert list(suite) == [n for n in acceptance.SUITES["all"] if n in suite]

    def test_judging_helpers_at_their_bounds(self):
        up, down = (lambda x: np.nextafter(x, np.inf)), (lambda x: np.nextafter(x, -np.inf))
        res = acceptance.CriterionResult("helpers")
        cases = [  # (add a line measuring x, [(x, verdict)], tolerance text, expected)
            (lambda x: res.relative("r", x, 4.0, 0.25),
             [(5.0, True), (up(5.0), False), (3.0, True), (down(3.0), False)], "rel 0.25", 4.0),
            (lambda x: res.absolute("a", x, 4.0, 1.0),
             [(5.0, True), (up(5.0), False), (3.0, True), (down(3.0), False)], "abs 1", 4.0),
            (lambda x: res.absolute("e", x, 4.0, 0.0),
             [(4.0, True), (up(4.0), False), (down(4.0), False)], "exact", 4.0),
            (lambda x: res.within("w", x, 1.5, 1.0, 2.0),
             [(1.0, True), (down(1.0), False), (2.0, True), (up(2.0), False)],
             "within [1, 2]", 1.5),
            (lambda x: res.bound("le", x, "<=", 2.0, expected=0.0),
             [(2.0, True), (up(2.0), False), (down(2.0), True)], "<= 2", 0.0),
            (lambda x: res.bound("lt", x, "<", 2.0),
             [(2.0, False), (up(2.0), False), (down(2.0), True)], "< 2", 2.0),
            (lambda x: res.bound("ge", x, ">=", 2.0),
             [(2.0, True), (up(2.0), True), (down(2.0), False)], ">= 2", 2.0),
            (lambda x: res.bound("gt", x, ">", 2.0),
             [(2.0, False), (up(2.0), True), (down(2.0), False)], "> 2", 2.0),
        ]
        for add, points, text, expected in cases:
            for x, verdict in points:
                add(x)
                line = res.lines[-1]
                assert (line.measured, line.expected, line.tolerance, line.ok) == \
                    (x, expected, text, verdict)

        times = np.arange(4.0)
        stderr = np.array([0.0, 0.25, 0.0, 0.0])
        edge = 5.0 * 0.25 + acceptance.NUMERIC_FLOOR
        for peak, verdict in ((edge, True), (up(edge), False)):
            curve = np.array([0.0, peak, 0.0, 9.0])   # t = 3 lies outside [0, 2]
            acceptance._band_check(res, "band", times, curve, np.zeros(4), stderr,
                                   0.0, 2.0)
            line = res.lines[-1]
            assert (line.ok, line.tolerance) == (verdict, "<= 5*stderr+0.01 on [0,2]")
