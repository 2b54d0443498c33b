"""Spatial dynamics of all four waves through the thick medium.

The full integration re-evaluates the velocity-averaged coefficients at the
local drive amplitudes, so saturation, drive depletion and the growth of
the generated Stokes wave all feed back on each other.  At 160 MHz probe
detuning the anti-Stokes transmission first drops (the medium absorbs),
then turns around once the generated Stokes field becomes comparable with
the input, and finally collapses when the drives are spent.
"""

from pathlib import Path

import numpy as np

from lcq import QuadratureSpec, na2_preset, spatial_dynamics
from lcq.scans import records_to_csv

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

scheme, relax, medium, fields = na2_preset()
quad = QuadratureSpec.for_medium(scheme, medium)
f = fields.with_omega4(160.0)

dynamics = spatial_dynamics(scheme, relax, medium, f, L=40.0, quad=quad)
records_to_csv(dynamics, OUT / "dynamics_160MHz.csv")

z, i4, i2 = dynamics["z"], dynamics["i4_ratio"], dynamics["i2_over_i40"]
i1, i3 = dynamics["i1_ratio"], dynamics["i3_ratio"]

imin = int(np.argmin(i4[: i4.size // 3]))
imax = int(np.argmax(i4))
print(f"probe dips to {i4[imin]:.2f} I40 at z = {z[imin]:.1f} L4, "
      f"then grows to {i4[imax]:.0f} I40 at z = {z[imax]:.1f} L4")
icross = int(np.argmax(i2 > i4))
print(f"the generated Stokes intensity passes the probe at z = {z[icross]:.1f} L4")
i20 = int(np.argmin(np.abs(z - 20.0)))
print(f"drive depletion at 20 L4: G1 at {np.sqrt(i1[i20]):.2f} of its input, "
      f"G3 at {np.sqrt(i3[i20]):.2f}")

resonant = spatial_dynamics(
    scheme, relax, medium,
    f.__class__(omega1=0.0, omega3=0.0, omega4=0.0,
                g10=f.g10, g30=f.g30, e40=f.e40, e20=f.e20),
    L=40.0, quad=quad)
records_to_csv(resonant, OUT / "dynamics_resonant.csv")
res_max = resonant["i4_ratio"].max()
print(f"fully resonant configuration for comparison: I4 never exceeds "
      f"{res_max:.3g} I40 (detuning wins by a factor {i4[imax]/res_max:.0f})")
print(f"wrote {OUT/'dynamics_160MHz.csv'} and {OUT/'dynamics_resonant.csv'}")
