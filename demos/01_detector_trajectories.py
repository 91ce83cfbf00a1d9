"""Single measurement records of a monitored two-level system.

A two-level system starts in the superposition (|e> + |g>)/sqrt(2) and is
watched by a dissipative detector atom that couples to the ground level.
Each stochastic trajectory shows one of two behaviours:

* the system collapses to |g>: the detector is driven continuously and
  keeps firing, with jumps roughly the measurement time tau_m apart;
* the system collapses to |e>: the detector stays dark.

Run:  python demos/01_detector_trajectories.py
"""

import numpy as np

from zenosim import RngStream, build_model, preset, run_trajectory
from zenosim.oracles import measurement_time
from zenosim.output import write_trajectory_csv

cfg = preset("fig1").with_overrides(t_max=50.0, observables=("rho_aa", "rho_gg"))
model = build_model(cfg.model)
tau_m = measurement_time(cfg.model.detector.gamma, cfg.model.detector.lam)
print(f"measurement time tau_m = {tau_m:g}\n")

shown = {"ground": None, "excited": None}
for stream_id in range(40):
    rec = run_trajectory(model, cfg, RngStream(cfg.master_seed, stream_id))
    kind = "ground" if rec.observables["rho_gg"][-1] > 0.5 else "excited"
    if shown[kind] is None:
        shown[kind] = (stream_id, rec)
    if all(v is not None for v in shown.values()):
        break

for kind, (stream_id, rec) in shown.items():
    print(f"trajectory {stream_id}: collapsed to the {kind} level")
    print(f"  jumps: {len(rec.jumps)}")
    if len(rec.jumps) > 1:
        gaps = np.diff(rec.jumps)
        print(f"  mean gap between jumps: {gaps.mean():.2f}  (tau_m = {tau_m:g})")
    path = f"detector_trajectory_{kind}.csv"
    write_trajectory_csv(path, rec)
    print(f"  wrote {path}")
    print()

print("columns: t, detector excitation rho_aa, ground population rho_gg, jump flag")
