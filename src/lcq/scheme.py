"""Domain types, unit conventions, validation, the sodium-dimer preset and its
configuration schema (one table, ``_SCHEMA``, read and written through).

Unit conventions used throughout the package:

* Rates ``Gamma``/``gamma`` are entered in units of 1e6 s^-1, i.e. they are
  already angular rates in rad/us.
* Detunings, Rabi amplitudes and probe amplitudes are entered in MHz (linear
  frequency, the usual laboratory convention).  The physics layer converts
  them to angular rad/us with :data:`RAD_PER_MHZ`.
* Lengths are measured in units of L4 = 1/alpha40, the weak-field resonant
  absorption length of the anti-Stokes probe transition, so ``alpha40 = 1``
  by construction.

The four levels are labelled l (ground), n (low-lying, thermally populated),
g and m (upper).  The four optical transitions are

    wave 1: l-g (drive),  wave 2: n-g (Stokes probe),
    wave 3: n-m (drive),  wave 4: l-m (anti-Stokes probe),

with the frequency-closure condition w4 + w2 = w1 + w3.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

# SI constants.  c, h and k are exact by the 2019 definition of the SI; the
# atomic mass constant is the CODATA 2022 value (as in scipy.constants 1.17).
C_LIGHT = 299792458.0            # m/s
H_PLANCK = 6.62607015e-34        # J s
K_BOLTZMANN = 1.380649e-23       # J/K
ATOMIC_MASS = 1.66053906892e-27  # kg

# Internal angular units per stored MHz.  Stored detunings/Rabi amplitudes are
# linear-frequency MHz; multiplying by 2*pi yields rad/us, the unit the rate
# constants (1e6 s^-1) already carry.
RAD_PER_MHZ = 2.0 * math.pi

NA2_MASS_KG = 2.0 * 22.98976928 * ATOMIC_MASS

# Closure tolerance on 1/l1 + 1/l3 = 1/l2 + 1/l4 (relative).
CLOSURE_RTOL = 1e-6


class ConfigError(ValueError):
    """Raised for malformed or inconsistent configuration input."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


@dataclass(frozen=True)
class LevelScheme:
    """Level topology: wavelengths, relative dipole moments and molecular mass.

    ``wavelengths`` holds the vacuum wavelengths (meters) of waves 1..4 and
    ``dipoles`` the relative dipole moments (d_lg, d_gn, d_nm, d_ml), scaled
    so d_ml = 1 is a natural choice.  Absolute dipole moments and number
    density never enter: they are absorbed in the alpha40 normalization.
    """

    wavelengths: tuple[float, float, float, float]
    dipoles: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)
    mass: float = NA2_MASS_KG

    def __post_init__(self) -> None:
        _require(len(self.wavelengths) == 4, "need four wavelengths")
        _require(all(w > 0 for w in self.wavelengths), "wavelengths must be positive")
        _require(all(d > 0 for d in self.dipoles), "dipole moments must be positive")
        _require(self.mass > 0, "mass must be positive")
        l1, l2, l3, l4 = self.wavelengths
        lhs = 1.0 / l1 + 1.0 / l3
        rhs = 1.0 / l2 + 1.0 / l4
        _require(abs(lhs - rhs) <= CLOSURE_RTOL * abs(lhs),
                 f"frequency closure violated: 1/l1+1/l3 = {lhs:.9e}, 1/l2+1/l4 = {rhs:.9e}")

    def wavenumber(self, j: int) -> float:
        """Vacuum wavenumber k_j = 2*pi/lambda_j in rad/m (j = 1..4)."""
        return 2.0 * math.pi / self.wavelengths[j - 1]

    def splitting_hz(self) -> float:
        """l-n level splitting c*(1/l1 - 1/l2) in Hz."""
        l1, l2 = self.wavelengths[0], self.wavelengths[1]
        return C_LIGHT * (1.0 / l1 - 1.0 / l2)


@dataclass(frozen=True)
class RelaxationSet:
    """Population, coherence and spontaneous interlevel relaxation rates.

    All rates are in units of 1e6 s^-1.  Coherence rates are independent
    inputs: they are *not* reconstructed from half-sums of population rates
    (the tabulated molecular values do not obey such formulas).
    """

    gamma_m: float = 260.0
    gamma_g: float = 200.0
    gamma_n: float = 30.0
    # coherence relaxation, Gamma_ij = Gamma_ji
    coh_ml: float = 110.0
    coh_gl: float = 140.0
    coh_mn: float = 110.0
    coh_gn: float = 140.0
    coh_nl: float = 15.0
    coh_gm: float = 130.0
    # spontaneous interlevel rates
    sp_mn: float = 24.0
    sp_ml: float = 20.0
    sp_gn: float = 10.0
    sp_gl: float = 40.0

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            _require(getattr(self, f.name) >= 0, f"{f.name} must be >= 0")
        _require(self.sp_mn + self.sp_ml <= self.gamma_m * (1 + 1e-12),
                 "branching sum of level m exceeds its population rate")
        _require(self.sp_gn + self.sp_gl <= self.gamma_g * (1 + 1e-12),
                 "branching sum of level g exceeds its population rate")

    @property
    def reservoir_m(self) -> float:
        """Decay of m not captured by the listed spontaneous channels."""
        return self.gamma_m - self.sp_mn - self.sp_ml

    @property
    def reservoir_g(self) -> float:
        return self.gamma_g - self.sp_gn - self.sp_gl


@dataclass(frozen=True)
class MediumParams:
    """Temperature, normalization and zero-field population of level n.

    ``p_n`` is an explicit input (default 0.02) rather than being derived
    from the temperature; :func:`boltzmann_fraction` exists as a consistency
    check only.  ``alpha40`` is fixed at 1 because lengths are measured in
    L4 units.
    """

    temperature: float = 723.15
    alpha40: float = 1.0
    p_n: float = 0.02

    def __post_init__(self) -> None:
        _require(self.temperature > 0, "temperature must be positive")
        _require(self.alpha40 > 0, "alpha40 must be positive")
        _require(0.0 <= self.p_n < 1.0, "p_n must lie in [0, 1)")

    def thermal_speed(self, scheme: LevelScheme) -> float:
        """Most probable speed u = sqrt(2 kB T / M) in m/s."""
        return math.sqrt(2.0 * K_BOLTZMANN * self.temperature / scheme.mass)

    def doppler_width(self, scheme: LevelScheme, j: int) -> float:
        """1/e half-width k_j * u of the Doppler distribution, in rad/us."""
        return scheme.wavenumber(j) * self.thermal_speed(scheme) * 1e-6


@dataclass(frozen=True)
class FieldConfig:
    """Detunings and boundary amplitudes of the four waves.

    Detunings (MHz): Omega1 = w1 - w_gl, Omega3 = w3 - w_mn, Omega4 = w4 - w_ml.
    The Stokes detuning Omega2 = w2 - w_gn is always derived from the
    four-photon closure Omega2 = Omega1 + Omega3 - Omega4 and never stored.

    ``g10``/``g30`` are the boundary drive Rabi amplitudes (MHz, complex);
    ``e40``/``e20`` are the boundary probe amplitudes on a common arbitrary
    scale (Rabi-like MHz units, so that the quadratic probe back-action on
    the drives is well defined).
    """

    omega1: float = 0.0
    omega3: float = 100.0
    omega4: float = 0.0
    g10: complex = 100.0 + 0.0j
    g30: complex = 40.0 + 0.0j
    e40: complex = 0.1 + 0.0j
    e20: complex = 0.0j

    @property
    def omega2(self) -> float:
        return self.omega1 + self.omega3 - self.omega4

    def with_omega4(self, omega4: float) -> "FieldConfig":
        return replace(self, omega4=omega4)

    def with_drives(self, g10: complex, g30: complex) -> "FieldConfig":
        return replace(self, g10=complex(g10), g30=complex(g30))


def closed_lambda2(l1: float, l3: float, l4: float) -> float:
    """Stokes wavelength implied by frequency closure, 1/l2 = 1/l1 + 1/l3 - 1/l4."""
    inv = 1.0 / l1 + 1.0 / l3 - 1.0 / l4
    _require(inv > 0, "closure gives a non-positive Stokes frequency")
    return 1.0 / inv


def na2_preset() -> tuple[LevelScheme, RelaxationSet, MediumParams, FieldConfig]:
    """Full sodium-dimer parameter set.

    The tabulated wavelengths (655, 756, 532, 480 nm) violate frequency
    closure at the 1e-4 level because they are rounded; the Stokes
    wavelength, the least certain of the four, is recomputed from closure,
    giving 755.81 nm.
    """
    l1, l3, l4 = 655e-9, 532e-9, 480e-9
    scheme = LevelScheme(wavelengths=(l1, closed_lambda2(l1, l3, l4), l3, l4))
    return scheme, RelaxationSet(), MediumParams(), FieldConfig()


def doppler_fwhm(temperature: float, wavelength: float, mass: float) -> float:
    """Doppler full width at half maximum in Hz.

    FWHM = (1/lambda) * sqrt(8 ln2 kB T / M).
    """
    _require(temperature > 0, "temperature must be positive")
    _require(wavelength > 0, "wavelength must be positive")
    _require(mass > 0, "mass must be positive")
    return math.sqrt(8.0 * math.log(2.0) * K_BOLTZMANN * temperature / mass) / wavelength


def boltzmann_fraction(temperature: float, splitting_hz: float) -> float:
    """Thermal population ratio exp(-h*dnu/kB*T) of a level dnu above ground."""
    _require(temperature > 0, "temperature must be positive")
    return math.exp(-H_PLANCK * splitting_hz / (K_BOLTZMANN * temperature))


# Configuration (JSON data model).  ``_SCHEMA`` declares each entry once: the
# parameter class and attribute it sets, and a unit (write, read) that turns
# the attribute into the entry's value and a value (with the entry's dotted
# name, for errors) back.  Missing keys fall back to the sodium-dimer preset.

def _number(value, where: str) -> float:
    """A configuration number: a finite JSON int or float, never a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max:  # false for NaN and for a huge int
        raise ConfigError(f"{where} must be a finite number, not {value!r}")
    return float(value)


def _numbers(value, n: int, where: str) -> list[float]:
    if not isinstance(value, (list, tuple)) or len(value) != n:
        raise ConfigError(f"{where} must be a list of {n} numbers, not {value!r}")
    return [_number(v, f"{where}[{i}]") for i, v in enumerate(value)]


# Units.  A complex amplitude is written as a number when it is real, and
# read from a number or a [real, imag] pair.
_PLAIN = (lambda x: x, _number)
# nm / 1e9 gives back 655e-9 itself, where 655.0 * 1e-9 is an ulp above it
_NM = (lambda ws: [w * 1e9 for w in ws],
       lambda v, where: tuple(w / 1e9 for w in _numbers(v, 4, where)))
_FOUR = (list, lambda v, where: tuple(_numbers(v, 4, where)))
_AMU = (lambda m: m / ATOMIC_MASS, lambda v, where: _number(v, where) * ATOMIC_MASS)
_CELSIUS = (lambda t: t - 273.15, lambda v, where: _number(v, where) + 273.15)
_COMPLEX = (lambda z: z.real if z.imag == 0.0 else [z.real, z.imag],
            lambda v, where: complex(*_numbers(v, 2, where)) if isinstance(v, (list, tuple))
            else complex(_number(v, where)))
_PARAMS = (LevelScheme, RelaxationSet, MediumParams, FieldConfig)
# relaxation.<section>.<key> sets RelaxationSet.<prefix>_<key>
_RATE_SECTIONS = {"gamma": "gamma_pop_MHz", "coh": "gamma_coh_MHz", "sp": "gamma_spont_MHz"}

_SCHEMA = {
    "scheme": {
        "wavelengths_nm": (LevelScheme, "wavelengths", _NM),
        "dipoles_rel": (LevelScheme, "dipoles", _FOUR),
        "mass_amu": (LevelScheme, "mass", _AMU),
    },
    "relaxation": {
        section: {f.name.partition("_")[2]: (RelaxationSet, f.name, _PLAIN)
                  for f in dataclasses.fields(RelaxationSet) if f.name.startswith(prefix + "_")}
        for prefix, section in _RATE_SECTIONS.items()
    },
    "medium": {
        "temperature_C": (MediumParams, "temperature", _CELSIUS),
        "alpha40_per_L4": (MediumParams, "alpha40", _PLAIN),
        "p_n": (MediumParams, "p_n", _PLAIN),
    },
    "fields": {
        "Omega1_MHz": (FieldConfig, "omega1", _PLAIN),
        "Omega3_MHz": (FieldConfig, "omega3", _PLAIN),
        "Omega4_MHz": (FieldConfig, "omega4", _PLAIN),
        "G10_MHz": (FieldConfig, "g10", _COMPLEX),
        "G30_MHz": (FieldConfig, "g30", _COMPLEX),
        "E40": (FieldConfig, "e40", _COMPLEX),
        "E20": (FieldConfig, "e20", _COMPLEX),
    },
}


def _at(where: str, key: str) -> str:
    return f"{where}.{key}" if where else key


def _merge(defaults, given, where: str):
    """``given`` laid over ``defaults``: objects key by key, anything else replaced whole."""
    if not isinstance(defaults, dict):
        return given
    if not isinstance(given, dict):
        raise ConfigError(f"{where or 'the configuration'} must be an object")
    unknown = sorted(set(given) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown keys in {where or 'the configuration'}: {unknown}")
    return {key: _merge(value, given[key], _at(where, key)) if key in given else value
            for key, value in defaults.items()}


def preset_config() -> dict:
    """The sodium-dimer preset as a plain configuration dictionary."""
    return params_to_config(*na2_preset())


def params_to_config(scheme: LevelScheme, relax: RelaxationSet, medium: MediumParams,
                     fields: FieldConfig) -> dict:
    """The configuration dictionary of four parameter objects, entries in schema order."""
    params = dict(zip(_PARAMS, (scheme, relax, medium, fields)))

    def write(node):
        if isinstance(node, dict):
            return {key: write(sub) for key, sub in node.items()}
        cls, attr, (to_config, _) = node
        return to_config(getattr(params[cls], attr))

    return write(_SCHEMA)


def config_to_params(config: dict) -> tuple[LevelScheme, RelaxationSet, MediumParams, FieldConfig]:
    """Validated parameter objects from a configuration dictionary laid over the preset.

    A malformed entry is a ConfigError that names it.  The Stokes wavelength is
    always recomputed from frequency closure, so rounded wavelengths are usable.
    """
    kwargs = {cls: {} for cls in _PARAMS}

    def read(node, value, where):
        if isinstance(node, dict):
            for key, sub in node.items():
                read(sub, value[key], _at(where, key))
        else:
            cls, attr, (_, from_config) = node
            kwargs[cls][attr] = from_config(value, where)

    read(_SCHEMA, _merge(preset_config(), config, ""), "")
    l1, _, l3, l4 = kwargs[LevelScheme]["wavelengths"]
    try:
        kwargs[LevelScheme]["wavelengths"] = (l1, closed_lambda2(l1, l3, l4), l3, l4)
        return tuple(cls(**kwargs[cls]) for cls in _PARAMS)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def finite_float(text: str) -> float:
    """A number from a command-line flag: ``float(text)``, or ConfigError unless finite."""
    if not math.isfinite(value := float(text)):
        raise ConfigError(f"not a finite number: {text}")
    return value


def load_config(path: str | Path) -> tuple[LevelScheme, RelaxationSet, MediumParams, FieldConfig]:
    """Validated parameter objects from a JSON configuration file (see config_to_params)."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read configuration file {path}: {exc}") from exc
    except ValueError as exc:  # malformed JSON or text that is not UTF-8
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return config_to_params(data)
