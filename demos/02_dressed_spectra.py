"""Dressed coefficient spectra under the 100/40 MHz drives.

Sweeping the anti-Stokes detuning (the Stokes detuning is slaved by
four-photon closure) shows the machinery of the effect: a strong gain
resonance in the Stokes absorption index alpha2, absorption peaks and a
transparency window in alpha4, and the four-wave-mixing couplings that tie
the two probes together.  A second sweep at partially depleted drives
(43/39 MHz, the values reached deep inside the medium) shows how the
spectra deform along the way.
"""

from pathlib import Path

import numpy as np

from lcq import QuadratureSpec, na2_preset, spectra_scan
from lcq.scans import records_to_csv

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

scheme, relax, medium, fields = na2_preset()
quad = QuadratureSpec.for_medium(scheme, medium)
sweep = np.linspace(-400.0, 400.0, 401)

boundary = spectra_scan(scheme, relax, medium, fields, sweep, quad=quad)
records_to_csv(boundary, OUT / "spectra_boundary.csv")

depleted = spectra_scan(scheme, relax, medium, fields, sweep,
                        G1=43.0, G3=39.0, quad=quad)
records_to_csv(depleted, OUT / "spectra_depleted.csv")

alpha2, alpha4 = boundary["alpha2"], boundary["alpha4"]
g4 = np.hypot(boundary["re_gamma4"], boundary["im_gamma4"])
g2 = np.hypot(boundary["re_gamma2"], boundary["im_gamma2"])

i = int(np.argmin(alpha2))
print(f"strongest Stokes gain: alpha2 = {alpha2[i]:.3f}/L4 at "
      f"omega4 = {sweep[i]:.0f} MHz (alpha4 there: {alpha4[i]:.3f})")
print(f"the gain resonance sits {abs(sweep[i]-fields.omega1):.0f} MHz from the "
      f"two-photon point omega4 = omega1 = {fields.omega1:.0f}")
j = int(np.argmin(alpha4))
print(f"anti-Stokes transparency window: alpha4 = {alpha4[j]:.3f}/L4 at "
      f"omega4 = {sweep[j]:.0f} MHz (weak-field value would be ~1)")
print(f"cross couplings peak at |gamma4| = {g4.max():.3f}, "
      f"|gamma2| = {g2.max():.3f} (ratio {g4.max()/g2.max():.2f})")
print(f"wrote {OUT/'spectra_boundary.csv'} and {OUT/'spectra_depleted.csv'}")
