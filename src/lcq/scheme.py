"""Domain types, unit conventions, validation and the sodium-dimer preset.

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

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

from scipy.constants import atomic_mass, c as C_LIGHT, h as H_PLANCK, k as K_BOLTZMANN

# Internal angular units per stored MHz.  Stored detunings/Rabi amplitudes are
# linear-frequency MHz; multiplying by 2*pi yields rad/us, the unit the rate
# constants (1e6 s^-1) already carry.
RAD_PER_MHZ = 2.0 * math.pi

NA2_MASS_KG = 2.0 * 22.98976928 * atomic_mass

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
        _require(
            abs(lhs - rhs) <= CLOSURE_RTOL * abs(lhs),
            f"frequency closure violated: 1/l1+1/l3 = {lhs:.9e}, 1/l2+1/l4 = {rhs:.9e}",
        )

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
        for name in (
            "gamma_m", "gamma_g", "gamma_n",
            "coh_ml", "coh_gl", "coh_mn", "coh_gn", "coh_nl", "coh_gm",
            "sp_mn", "sp_ml", "sp_gn", "sp_gl",
        ):
            _require(getattr(self, name) >= 0, f"{name} must be >= 0")
        _require(
            self.sp_mn + self.sp_ml <= self.gamma_m * (1 + 1e-12),
            "branching sum of level m exceeds its population rate",
        )
        _require(
            self.sp_gn + self.sp_gl <= self.gamma_g * (1 + 1e-12),
            "branching sum of level g exceeds its population rate",
        )

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
    l2 = closed_lambda2(l1, l3, l4)
    scheme = LevelScheme(wavelengths=(l1, l2, l3, l4))
    relax = RelaxationSet()
    medium = MediumParams()
    fields = FieldConfig()
    return scheme, relax, medium, fields


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


# ---------------------------------------------------------------------------
# Configuration file handling (JSON data model).  Missing keys fall back to
# the sodium-dimer preset.
# ---------------------------------------------------------------------------

def _complex_from(value) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(float(value[0]), float(value[1]))
    raise ConfigError(f"cannot parse complex value from {value!r}")


def _complex_to(value: complex):
    if value.imag == 0.0:
        return value.real
    return [value.real, value.imag]


def preset_config() -> dict:
    """The sodium-dimer preset as a plain configuration dictionary."""
    scheme, relax, medium, fields = na2_preset()
    return params_to_config(scheme, relax, medium, fields)


def params_to_config(
    scheme: LevelScheme,
    relax: RelaxationSet,
    medium: MediumParams,
    fields: FieldConfig,
) -> dict:
    return {
        "scheme": {
            "wavelengths_nm": [w * 1e9 for w in scheme.wavelengths],
            "dipoles_rel": list(scheme.dipoles),
            "mass_amu": scheme.mass / atomic_mass,
        },
        "relaxation": {
            "gamma_pop_MHz": {"m": relax.gamma_m, "g": relax.gamma_g, "n": relax.gamma_n},
            "gamma_coh_MHz": {
                "ml": relax.coh_ml, "gl": relax.coh_gl, "mn": relax.coh_mn,
                "gn": relax.coh_gn, "nl": relax.coh_nl, "gm": relax.coh_gm,
            },
            "gamma_spont_MHz": {
                "mn": relax.sp_mn, "ml": relax.sp_ml,
                "gn": relax.sp_gn, "gl": relax.sp_gl,
            },
        },
        "medium": {
            "temperature_C": medium.temperature - 273.15,
            "alpha40_per_L4": medium.alpha40,
            "p_n": medium.p_n,
        },
        "fields": {
            "Omega1_MHz": fields.omega1,
            "Omega3_MHz": fields.omega3,
            "Omega4_MHz": fields.omega4,
            "G10_MHz": _complex_to(complex(fields.g10)),
            "G30_MHz": _complex_to(complex(fields.g30)),
            "E40": _complex_to(complex(fields.e40)),
            "E20": _complex_to(complex(fields.e20)),
        },
    }


def config_to_params(
    config: dict,
) -> tuple[LevelScheme, RelaxationSet, MediumParams, FieldConfig]:
    """Build validated parameter objects from a configuration dictionary.

    The Stokes wavelength is always recomputed from frequency closure so
    that rounded wavelength inputs remain usable.
    """
    base = preset_config()
    if not isinstance(config, dict):
        raise ConfigError("configuration root must be an object")
    unknown = set(config) - set(base)
    if unknown:
        raise ConfigError(f"unknown configuration sections: {sorted(unknown)}")

    merged = {}
    for section, defaults in base.items():
        given = config.get(section, {})
        if not isinstance(given, dict):
            raise ConfigError(f"section {section!r} must be an object")
        bad = set(given) - set(defaults)
        if bad:
            raise ConfigError(f"unknown keys in section {section!r}: {sorted(bad)}")
        entry = dict(defaults)
        for key, value in given.items():
            if isinstance(defaults[key], dict):
                if not isinstance(value, dict):
                    raise ConfigError(f"{section}.{key} must be an object")
                sub = dict(defaults[key])
                badsub = set(value) - set(sub)
                if badsub:
                    raise ConfigError(
                        f"unknown keys in {section}.{key}: {sorted(badsub)}"
                    )
                sub.update(value)
                entry[key] = sub
            else:
                entry[key] = value
        merged[section] = entry

    try:
        wl_nm = [float(w) for w in merged["scheme"]["wavelengths_nm"]]
        if len(wl_nm) != 4:
            raise ConfigError("scheme.wavelengths_nm must have four entries")
        l1, _, l3, l4 = (w * 1e-9 for w in wl_nm)
        l2 = closed_lambda2(l1, l3, l4)
        dipoles = tuple(float(d) for d in merged["scheme"]["dipoles_rel"])
        if len(dipoles) != 4:
            raise ConfigError("scheme.dipoles_rel must have four entries")
        scheme = LevelScheme(
            wavelengths=(l1, l2, l3, l4),
            dipoles=dipoles,
            mass=float(merged["scheme"]["mass_amu"]) * atomic_mass,
        )
        pop = merged["relaxation"]["gamma_pop_MHz"]
        coh = merged["relaxation"]["gamma_coh_MHz"]
        spont = merged["relaxation"]["gamma_spont_MHz"]
        relax = RelaxationSet(
            gamma_m=float(pop["m"]), gamma_g=float(pop["g"]), gamma_n=float(pop["n"]),
            coh_ml=float(coh["ml"]), coh_gl=float(coh["gl"]), coh_mn=float(coh["mn"]),
            coh_gn=float(coh["gn"]), coh_nl=float(coh["nl"]), coh_gm=float(coh["gm"]),
            sp_mn=float(spont["mn"]), sp_ml=float(spont["ml"]),
            sp_gn=float(spont["gn"]), sp_gl=float(spont["gl"]),
        )
        medium = MediumParams(
            temperature=float(merged["medium"]["temperature_C"]) + 273.15,
            alpha40=float(merged["medium"]["alpha40_per_L4"]),
            p_n=float(merged["medium"]["p_n"]),
        )
        f = merged["fields"]
        fields = FieldConfig(
            omega1=float(f["Omega1_MHz"]),
            omega3=float(f["Omega3_MHz"]),
            omega4=float(f["Omega4_MHz"]),
            g10=_complex_from(f["G10_MHz"]),
            g30=_complex_from(f["G30_MHz"]),
            e40=_complex_from(f["E40"]),
            e20=_complex_from(f["E20"]),
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return scheme, relax, medium, fields


def finite_float(text: str) -> float:
    """A number read from input: ``float(text)``, or ConfigError unless finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"not a finite number: {text}")
    return value


def load_config(path: str | Path) -> tuple[LevelScheme, RelaxationSet, MediumParams, FieldConfig]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read configuration file {path}: {exc}") from exc
    try:
        data = json.loads(text, parse_constant=finite_float, parse_float=finite_float)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return config_to_params(data)
