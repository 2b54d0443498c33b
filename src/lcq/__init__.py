"""Simulator for coherence-controlled transparency and far-from-degenerate
parametric gain in an optically dense, Doppler-broadened double-lambda medium.

The package computes dressed, velocity-averaged susceptibilities from a
four-level density matrix, propagates four coupled waves through the medium,
and provides spectra, gain-map and optical-switching scans.
"""

__version__ = "0.1.0"

from .coupledwave import BoundaryAmplitudes, OpaCoefficients, eta4_conversion, fwm_gain_limit, opa_solution, oscillation_threshold
from .doppler import MacroscopicCoefficients, QuadratureSpec, average_coefficients, voigt_reference
from .propagate import CoefficientCache, PropagationTrace, gain_map, integrate
from .scans import spatial_dynamics, spectra_scan, switching_curve
from .scheme import (
    FieldConfig,
    LevelScheme,
    MediumParams,
    RelaxationSet,
    boltzmann_fraction,
    doppler_fwhm,
    na2_preset,
)

__all__ = [
    "BoundaryAmplitudes", "OpaCoefficients", "eta4_conversion", "fwm_gain_limit",
    "opa_solution", "oscillation_threshold",
    "MacroscopicCoefficients", "QuadratureSpec", "average_coefficients", "voigt_reference",
    "CoefficientCache", "PropagationTrace", "gain_map", "integrate",
    "spatial_dynamics", "spectra_scan", "switching_curve",
    "FieldConfig", "LevelScheme", "MediumParams", "RelaxationSet",
    "boltzmann_fraction", "doppler_fwhm", "na2_preset",
]
