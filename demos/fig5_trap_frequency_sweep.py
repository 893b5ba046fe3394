#!/usr/bin/env python3
"""Carrier lag across three decades of trap frequency at fixed eta.

Changing the trap frequency while holding the Lamb-Dicke parameter and the
temperature fixed (physically: re-aiming the laser as the trap stiffens)
moves the lag far less than any other knob; its main role is to cap the
largest eta reachable at a given geometry. At eta = 0 the lag is exactly
frequency-independent and equals the carrier closed form
0.5 * sqrt_shift(b_w0, b_om, b_w0), which is therefore also its
vanishing-frequency limit. At larger eta the lag drifts by order-unity factors across the sweep (the thermal average
samples different stretches of the oscillating coupling) and the stiff end
freezes the motion out entirely.
"""

import math

from ionquench.numerics import sqrt_shift
from ionquench.params import Branch, reduce
from ionquench.presets import FIG1_CONFIG, figure_presets
from ionquench.sweep import run_specs

rows = run_specs(figure_presets()["fig5"].specs)

print(f"{'eta':>5} | {'lag at nu=5e2':>14} {'lag at nu=5e3':>14} {'lag at nu=5e5':>14} {'spread':>9}")
for eta in (0.0, 0.5, 1.5, 2.5, 3.5):
    pts = {r.nu: r.lag for r in rows if round(r.eta, 10) == eta}
    nus = sorted(pts)
    vals = [pts[nu] for nu in nus]
    spread = (max(vals) - min(vals)) / max(vals)
    print(f"{eta:5.1f} | {pts[nus[0]]:14.5e} {pts[min(nus, key=lambda n: abs(n - 5e3))]:14.5e} "
          f"{pts[nus[-1]]:14.5e} {spread:9.1e}")

# The carrier closed form at eta = 0 against the sweep.
beta = math.log1p(1 / FIG1_CONFIG["nbar"]) / (1.054571817e-34 * FIG1_CONFIG["nu"])
rp = reduce(dict(FIG1_CONFIG, nbar=None, beta=beta), 0, Branch.CARRIER, eta=0.0)
closed = 0.5 * sqrt_shift(rp.b_w0, rp.b_om, rp.b_w0)
flat = {r.nu: r.lag for r in rows if round(r.eta, 10) == 0.0}
print(f"\ncarrier closed form at eta = 0:  {closed:.6e}")
print(f"sweep value at the smallest nu: {flat[min(flat)]:.6e}")
