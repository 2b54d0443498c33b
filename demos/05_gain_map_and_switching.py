"""Transmission map over (detuning, length) and coherently controlled switching.

The map locates the operating point of the amplifier: where inversionless
gain peaks as a function of probe detuning and optical thickness.  Near the
optimum, small control changes (a few MHz of detuning, a few percent of
drive amplitude) swing the transmitted intensity across orders of
magnitude: absorption -> transparency -> amplification.

A reduced grid keeps the demo quick; the CLI form
``lcq gainmap --omega4 0:300:61 --length 0:60:61`` runs the full map.
"""

from pathlib import Path

import numpy as np

from lcq import QuadratureSpec, gain_map, na2_preset, switching_curve
from lcq.scans import gain_map_records, records_to_csv, transparency_crossings

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

scheme, relax, medium, fields = na2_preset()
quad = QuadratureSpec.for_medium(scheme, medium)

omega4 = np.linspace(100.0, 240.0, 15)
lengths = np.linspace(0.0, 24.0, 25)
result = gain_map(scheme, relax, medium, fields, omega4, lengths, quad=quad)
records_to_csv(gain_map_records(result), OUT / "gain_map.csv")
om_star, l_star = result.argmax()
print(f"map maximum: I4/I40 = {result.max_gain:.1f} at "
      f"omega4 = {om_star:.0f} MHz, L = {l_star:.0f} L4")

L_fix = 10.0
sweep = np.linspace(130.0, 175.0, 19)
curve = switching_curve(scheme, relax, medium, fields, L=L_fix, sweep=sweep,
                        axis="omega4", quad=quad)
records_to_csv(curve, OUT / "switching_omega4.csv")
ys = curve["i4_ratio"]
crossings = transparency_crossings(curve, "omega4")
print(f"detuning switching at L = {L_fix:.0f} L4: transmission spans "
      f"{ys.min():.2e} .. {ys.max():.1f}; transparency crossings at "
      + ", ".join(f"{c:.1f} MHz" for c in crossings))

gsweep = np.linspace(70.0, 105.0, 15)
gcurve = switching_curve(scheme, relax, medium, fields.with_omega4(om_star),
                         L=L_fix, sweep=gsweep, axis="g10", quad=quad)
records_to_csv(gcurve, OUT / "switching_g10.csv")
gy = gcurve["i4_ratio"]
print(f"drive switching: I4/I40 rises from {gy[0]:.2e} at G10 = {gsweep[0]:.0f} MHz "
      f"to {gy[-1]:.1f} at {gsweep[-1]:.0f} MHz")
print(f"wrote gain_map.csv, switching_omega4.csv, switching_g10.csv under {OUT}")
