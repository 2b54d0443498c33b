"""Simulator for coherence-controlled transparency and far-from-degenerate
parametric gain in an optically dense, Doppler-broadened double-lambda medium.

The package computes dressed, velocity-averaged susceptibilities from a
four-level density matrix, propagates four coupled waves through the medium,
and provides spectra, gain-map and optical-switching scans.

The public names load their module on first use (PEP 562), so that
``import lcq.cli`` compiles only the modules its subcommand runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_MODULES = {
    "coupledwave": ("BoundaryAmplitudes", "OpaCoefficients", "eta4_conversion", "fwm_gain_limit",
                    "opa_solution", "oscillation_threshold"),
    "doppler": ("MacroscopicCoefficients", "QuadratureSpec", "average_coefficients",
                "voigt_reference"),
    "propagate": ("CoefficientCache", "PropagationTrace", "gain_map", "integrate"),
    "scans": ("spatial_dynamics", "spectra_scan", "switching_curve"),
    "scheme": ("FieldConfig", "LevelScheme", "MediumParams", "RelaxationSet",
               "boltzmann_fraction", "doppler_fwhm", "na2_preset"),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}

__all__ = [name for names in _MODULES.values() for name in names]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
