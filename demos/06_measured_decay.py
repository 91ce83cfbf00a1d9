"""Watching a decaying system changes its lifetime.

The decaying system of demo 05 is now monitored by the detector atom.
With a flat band coupling the decay slows down (Zeno):

    rate -> golden_rate * (2/pi) * arctan(half_width * tau_m)

With the coupling sloped across the band (a = 2) the broadened transition
samples the strongly coupled band edge and the decay speeds up instead
(anti-Zeno).  Single records also show which level the detector touches:
ground coupling fires only after the decay has progressed, excited
coupling fires immediately -- yet the ensemble average is blind to the
difference.

Run:  python demos/06_measured_decay.py   (a few minutes)
"""

from zenosim import (
    RngStream,
    build_model,
    default_fit_window,
    fit_exponential_rate,
    preset,
    run_ensemble,
    run_trajectory,
)
from zenosim.oracles import (
    anti_zeno_rate,
    corrected_free_decay_rate,
    golden_rule_rate,
    measured_decay_rate,
)

TAU_M = 5.0

# --- single records: ground vs excited coupling -----------------------------
for name, label in (("fig9", "ground-coupled"), ("fig11", "excited-coupled")):
    cfg = preset(name).with_overrides(t_max=150.0)
    rec = run_trajectory(build_model(cfg.model), cfg, RngStream(cfg.master_seed, 2))
    first = rec.jumps[0] if rec.jumps else None
    print(f"{label} detector: {len(rec.jumps)} jumps, first at t = {first}")
print()

# --- ensembles: Zeno slowdown and anti-Zeno speedup --------------------------
for name, n, oracle in (
    ("fig10", 150, measured_decay_rate(preset("fig10").model.reservoir, TAU_M)),
    ("fig12", 150, anti_zeno_rate(preset("fig12").model.reservoir, TAU_M)),
):
    cfg = preset(name).with_overrides(n_trajectories=n, observables=("rho_ee",))
    stats = run_ensemble(cfg)
    m, se = stats.mean["rho_ee"], stats.std_error["rho_ee"]
    window = default_fit_window(stats.times, m, se, t_start=2 * TAU_M)
    fit = fit_exponential_rate(stats.times, m, window)
    res = cfg.model.reservoir
    free = (golden_rule_rate(res) if res.slope == 0 else corrected_free_decay_rate(res))
    print(f"{name}: slope a = {res.slope:g}, {n} trajectories")
    print(f"  free-decay rate:         {free.rate:.6f}")
    print(f"  predicted measured rate: {oracle.rate:.6f}   [{oracle.formula_id}]")
    print(f"  fitted measured rate:    {fit.rate:.6f}   (window {fit.window})")
    verdict = "slower" if fit.rate < free.rate else "faster"
    print(f"  the measured system decays {verdict} than the free one\n")
