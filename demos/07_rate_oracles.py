"""All closed-form decay rates in one place, plus their numeric cross-checks.

For the decaying system the package carries three independent routes to
the same numbers:

* closed forms (lowest order, band-corrected, measurement-modified),
* the pole of the resolvent / of the damped-coherence rate equation in the
  Laplace domain (the inner band integral in closed form, one adaptive
  quadrature for the outer one, Newton for the root),
* density-matrix integration on the band's Lanczos chain.

Run:  python demos/07_rate_oracles.py   (a few seconds)
"""

import numpy as np

from zenosim import dmref
from zenosim.models import DriveParams, ReservoirSpec
from zenosim.oracles import (
    anti_zeno_rate,
    corrected_free_decay_rate,
    golden_rule_rate,
    laplace_decay_rate,
    lorentzian_overlap_rate,
    measured_decay_rate,
    measurement_time,
    resolvent_decay_rate,
    zeno_transition_rate,
)

TAU_M = measurement_time(gamma=10.0, lam=1.0)
print(f"measurement time tau_m = {TAU_M:g}\n")

print("driven two-level system: flip rate vs detuning (omega_r = 0.1)")
for detuning in (0.0, 0.1, 0.2, 0.4):
    pred = zeno_transition_rate(DriveParams(0.1, detuning), TAU_M)
    print(f"  detuning {detuning:3.1f}:  {pred.rate:.6f}")
print()

flat = ReservoirSpec(n_modes=1001, half_width=0.5, g0=0.001262, slope=0.0)
sloped = ReservoirSpec(n_modes=1001, half_width=0.5, g0=0.001262, slope=2.0)

print("decaying system, flat band:")
print(f"  lowest order:          {golden_rule_rate(flat).rate:.6f}")
print(f"  resolvent pole:        {resolvent_decay_rate(flat):.6f}")
print(f"  measured (arctan):     {measured_decay_rate(flat, TAU_M).rate:.6f}")
print(f"  measured (pole):       {laplace_decay_rate(flat, TAU_M):.6f}")
print()

print("decaying system, sloped band (a = 2):")
print(f"  band-corrected free:   {corrected_free_decay_rate(sloped).rate:.6f}")
print(f"  resolvent pole:        {resolvent_decay_rate(sloped):.6f}")
anti = anti_zeno_rate(sloped, TAU_M)
note = f"   [{anti.validity_note}]" if anti.validity_note else ""
print(f"  measured (series):     {anti.rate:.6f}{note}")
print(f"  measured (overlap):    {lorentzian_overlap_rate(sloped, TAU_M).rate:.6f}")
print(f"  measured (pole):       {laplace_decay_rate(sloped, TAU_M):.6f}")
print("  the first-order series overshoots its own parent equation at")
print("  half_width*tau_m = 2.5, where the unexpanded overlap is 3.6% from the pole;")
print("  the series and the pole agree for longer measurements:")
for tau in (10.0, 20.0, 50.0):
    series = anti_zeno_rate(sloped, tau).rate
    pole = laplace_decay_rate(sloped, tau)
    print(f"    tau_m {tau:4.0f}:  series {series:.6f}  pole {pole:.6f}  "
          f"({abs(series - pole) / pole:.1%} apart)")
print()

print("density matrix on the 1001-mode band's Lanczos chain (flat coupling):")
times, pops = dmref.evolve_measured_decay_dm(flat, TAU_M, t_max=200.0, dt=0.05)
mask = times >= 2 * TAU_M
rate = -np.polyfit(times[mask], np.log(pops[mask]), 1)[0]
print(f"  fitted decay rate:     {rate:.6f}")
print(f"  arctan prediction:     {measured_decay_rate(flat, TAU_M).rate:.6f}")
