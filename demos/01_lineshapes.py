"""Weak-field lineshapes: the Doppler-broadened probe absorption.

With both drives off, the anti-Stokes absorption profile is a Voigt line:
the 110e6 s^-1 coherence width convolved with the 1.7 GHz Doppler width.
This script sweeps the probe detuning across the inhomogeneous line,
compares the velocity-averaged result against the independent adaptive
convolution oracle, and prints the half-width.
"""

from pathlib import Path

import numpy as np

from lcq import QuadratureSpec, average_coefficients, na2_preset, voigt_reference
from lcq.scheme import RAD_PER_MHZ, doppler_fwhm

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

scheme, relax, medium, fields = na2_preset()
quad = QuadratureSpec.for_medium(scheme, medium)

fwhm = doppler_fwhm(medium.temperature, scheme.wavelengths[3], scheme.mass)
print(f"Doppler FWHM of the 480 nm transition: {fwhm/1e9:.3f} GHz")
print(f"thermal population of level n: {medium.p_n:.3f}")

detunings = np.linspace(-2500.0, 2500.0, 201)
width = medium.doppler_width(scheme, 4)
v0 = voigt_reference(0.0, relax.coh_ml, width)

rows = ["omega4_MHz,alpha4_per_L4,voigt_reference"]
worst = 0.0
for om4 in detunings:
    mc = average_coefficients(scheme, relax, medium,
                              fields.with_omega4(float(om4)), 0.0, 0.0, quad)
    ref = voigt_reference(om4 * RAD_PER_MHZ, relax.coh_ml, width).real / v0.real
    worst = max(worst, abs(mc.alpha4 - ref) / ref)
    rows.append(f"{om4:.17g},{mc.alpha4:.17g},{ref:.17g}")

(OUT / "lineshape.csv").write_text("\n".join(rows) + "\n")
print(f"swept {detunings.size} detunings; worst deviation from the "
      f"independent Voigt oracle: {worst:.2e}")
print(f"wrote {OUT/'lineshape.csv'}")

# half-width read off the curve
alpha = np.array([float(r.split(",")[1]) for r in rows[1:]])
half = detunings[alpha > 0.5].max()
print(f"absorption half-width at half maximum: {half:.0f} MHz "
      f"({2*half*1e6/1e9:.2f} GHz FWHM)")
