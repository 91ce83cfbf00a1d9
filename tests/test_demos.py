import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_demo(name, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_rate_oracles_demo():
    out = _run_demo("07_rate_oracles.py", ROOT)
    assert "measured (pole):       0.007607" in out
    assert "measured (pole):       0.012152" in out


def test_detector_trajectories_demo(tmp_path):
    # reads the jump times of single records and writes their CSV files
    out = _run_demo("01_detector_trajectories.py", tmp_path)
    assert "collapsed to the ground level" in out
    assert "collapsed to the excited level" in out
    assert "mean gap between jumps" in out
    assert (tmp_path / "detector_trajectory_ground.csv").exists()
