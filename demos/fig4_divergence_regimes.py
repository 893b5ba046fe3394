#!/usr/bin/env python3
"""Engineering a red-sideband divergence with ultrastrong coupling.

At realistic trap parameters the red-sideband (JC) lag stays finite at zero
temperature. The low-temperature exponents Phi_n^m only turn negative when
the coupling term outweighs the level ladder, which needs a Rabi frequency
beyond anything a trapped ion offers (circuit-QED territory). The fig4
preset realizes both situations: on the left panel only the m = 1 sideband
crosses, on the right panel m = 1 and m = 2 both do.
"""

from ionquench.params import Branch, reduce
from ionquench.presets import figure_presets
from ionquench.sweep import run_specs
from ionquench.thermo import divergence_predicate_reduced, low_temperature_limit, phi_reduced

# The classification needs no temperature; any nbar gives the same answer.
LEFT = dict(block=dict(mass=7e-26, nu=1.2e8, omega0=1.0e8, omega_rabi=0.5e9, nbar=0.5), eta=1.5)
RIGHT = dict(block=dict(mass=7e-26, nu=1.2e8, omega0=1.0e8, omega_rabi=1.0e9, nbar=0.5), eta=1.0)

for name, panel in (("left", LEFT), ("right", RIGHT)):
    block, eta = panel["block"], panel["eta"]
    print(f"{name} panel: omega_rabi = {block['omega_rabi']:.1e} rad/s, eta = {eta}")
    for m in (1, 2):
        rp = reduce(block, m, Branch.JC, eta)
        report = divergence_predicate_reduced(rp)
        limit = low_temperature_limit(rp)
        phi0 = block["nu"] * phi_reduced(0, rp)
        verdict = "diverges" if report.diverges else f"finite, limit {limit.limit_value:g}"
        print(f"  m = {m}: Phi_0 = {phi0:+.3e} rad/s, witnesses {report.witnesses} -> {verdict}")

# The occupation sweep shows it numerically: cooling grows the divergent
# curve without bound while the finite one descends toward its limit.
rows = run_specs(figure_presets()["fig4"].specs)
left_m1 = sorted((r.nbar, r.lag) for r in rows if r.m == 1 and r.omega_rabi == 5e8)
left_m2 = sorted((r.nbar, r.lag) for r in rows if r.m == 2 and r.omega_rabi == 5e8)
print("\nleft panel, coldest three occupations (m=1 climbing, m=2 bounded):")
for (nb, l1), (_, l2) in list(zip(left_m1, left_m2))[:3]:
    print(f"  nbar = {nb:.2e}: lag(m=1) = {l1:.4f}, lag(m=2) = {l2:.4f}")
