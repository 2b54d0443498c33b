"""Domain types, preset values and unit helpers."""

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.constants
from scipy.constants import atomic_mass

from lcq import scheme
from lcq.scheme import (
    ConfigError,
    FieldConfig,
    LevelScheme,
    MediumParams,
    RelaxationSet,
    boltzmann_fraction,
    closed_lambda2,
    config_to_params,
    doppler_fwhm,
    na2_preset,
    params_to_config,
    preset_config,
)

NA2_MASS = 2 * 22.98976928 * atomic_mass


@pytest.fixture(scope="module")
def preset():
    return na2_preset()


def test_preset_wavelengths_and_rates(preset):
    sch, relax, medium, fields = preset
    lam = sch.wavelengths
    assert lam[0] == 655e-9
    assert lam[2] == 532e-9
    assert lam[3] == 480e-9
    # Stokes wavelength closes the four-photon condition, near the rounded 756 nm
    assert abs(lam[1] - 756e-9) < 1.0e-9
    assert (relax.gamma_m, relax.gamma_g, relax.gamma_n) == (260.0, 200.0, 30.0)
    assert (relax.sp_mn, relax.sp_ml, relax.sp_gn, relax.sp_gl) == (24.0, 20.0, 10.0, 40.0)
    assert relax.coh_mn == relax.coh_ml == 110.0
    assert relax.coh_gm == 130.0
    assert relax.coh_gn == relax.coh_gl == 140.0
    assert medium.temperature == pytest.approx(723.15)
    assert medium.p_n == 0.02
    assert fields.g10 == 100.0
    assert fields.g30 == 40.0
    assert fields.omega1 == 0.0
    assert fields.omega3 == 100.0


def test_preset_satisfies_closure_invariant(preset):
    sch = preset[0]
    lhs = 1 / sch.wavelengths[0] + 1 / sch.wavelengths[2]
    rhs = 1 / sch.wavelengths[1] + 1 / sch.wavelengths[3]
    assert abs(lhs - rhs) / lhs < 1e-12


def test_rounded_wavelengths_violate_closure():
    # the tabulated values are rounded: 1/655+1/532 vs 1/756+1/480 disagree
    # at the 1e-4 level, so a scheme built from them must be rejected
    with pytest.raises(ValueError, match="closure"):
        LevelScheme(wavelengths=(655e-9, 756e-9, 532e-9, 480e-9))


def test_scheme_validation():
    with pytest.raises(ValueError):
        LevelScheme(wavelengths=(655e-9, -1e-9, 532e-9, 480e-9))
    with pytest.raises(ValueError):
        LevelScheme(wavelengths=(655e-9, 755.81e-9, 532e-9, 480e-9),
                    dipoles=(1.0, 0.0, 1.0, 1.0), mass=NA2_MASS)


def test_relaxation_branching_guard():
    with pytest.raises(ValueError, match="branching"):
        RelaxationSet(gamma_m=40.0)  # sp_mn + sp_ml = 44 > 40


def test_field_config_omega2_is_derived():
    f = FieldConfig(omega1=10.0, omega3=100.0, omega4=35.0)
    assert f.omega2 == 75.0
    assert f.with_omega4(100.0).omega2 == 10.0
    assert "omega2" not in vars(f)


def test_si_constants_match_scipy():
    # c, h and k are exact in the SI; the atomic mass constant is measured,
    # and CODATA revisions move it by parts in 1e10
    assert scheme.C_LIGHT == scipy.constants.c
    assert scheme.H_PLANCK == scipy.constants.h
    assert scheme.K_BOLTZMANN == scipy.constants.k
    assert scheme.ATOMIC_MASS == pytest.approx(atomic_mass, rel=1e-9, abs=0.0)


def test_doppler_fwhm_value(preset):
    fwhm = doppler_fwhm(723.0, 480e-9, NA2_MASS)
    assert 1.6e9 < fwhm < 1.9e9  # tabulated value 1.7 GHz


def test_doppler_fwhm_sqrt_temperature_scaling():
    a = doppler_fwhm(300.0, 480e-9, NA2_MASS)
    b = doppler_fwhm(1200.0, 480e-9, NA2_MASS)
    assert abs(b / a - 2.0) < 1e-12


def test_doppler_fwhm_wavelength_ratio():
    a = doppler_fwhm(723.0, 480e-9, NA2_MASS)
    b = doppler_fwhm(723.0, 756e-9, NA2_MASS)
    assert a / b == pytest.approx(756.0 / 480.0, rel=1e-12)


def test_doppler_fwhm_zero_temperature_limit():
    # vanishes with the thermal velocity (9 orders below the 1.7 GHz scale)
    assert doppler_fwhm(1e-12, 480e-9, NA2_MASS) < 1e2
    for bad in ((0.0, 480e-9, NA2_MASS), (300.0, 0.0, NA2_MASS), (300.0, 480e-9, 0.0)):
        with pytest.raises(ValueError):
            doppler_fwhm(*bad)


def test_boltzmann_fraction_preset_value(preset):
    sch, _, medium, _ = preset
    frac = boltzmann_fraction(medium.temperature, sch.splitting_hz())
    assert 0.015 <= frac <= 0.022  # tabulated: 2 percent


def test_boltzmann_fraction_limits():
    assert boltzmann_fraction(1e12, 6e13) == pytest.approx(1.0, abs=1e-8)
    assert boltzmann_fraction(300.0, 0.0) == 1.0
    with pytest.raises(ValueError):
        boltzmann_fraction(0.0, 6e13)


def test_boltzmann_fraction_monotonicity():
    temps = np.linspace(300.0, 1200.0, 10)
    splits = np.linspace(1e13, 9e13, 10)
    for dn in splits:
        vals = [boltzmann_fraction(t, dn) for t in temps]
        assert all(b > a for a, b in zip(vals, vals[1:]))
    for t in temps:
        vals = [boltzmann_fraction(t, dn) for dn in splits]
        assert all(b < a for a, b in zip(vals, vals[1:]))


def test_medium_thermal_speed(preset):
    sch, _, medium, _ = preset
    u = medium.thermal_speed(sch)
    assert 500.0 < u < 525.0
    # doppler width scales with the wavenumber
    assert medium.doppler_width(sch, 4) / medium.doppler_width(sch, 2) == pytest.approx(
        sch.wavelengths[1] / sch.wavelengths[3], rel=1e-12)


def test_config_roundtrip(preset):
    base = preset_config()
    c1 = params_to_config(*config_to_params(base))
    assert c1["fields"] == base["fields"]
    assert c1["relaxation"] == base["relaxation"]
    assert c1["medium"] == base["medium"]
    assert c1["scheme"]["dipoles_rel"] == base["scheme"]["dipoles_rel"]
    assert c1["scheme"]["mass_amu"] == pytest.approx(base["scheme"]["mass_amu"], rel=1e-14)
    # the nm <-> m conversion costs at most an ulp per pass
    assert c1["scheme"]["wavelengths_nm"] == pytest.approx(
        base["scheme"]["wavelengths_nm"], rel=1e-14)


def test_config_defaults_missing_keys():
    sch, relax, medium, fields = config_to_params({"fields": {"Omega4_MHz": 160.0}})
    assert fields.omega4 == 160.0
    assert fields.g10 == 100.0
    assert relax.gamma_m == 260.0
    assert medium.p_n == 0.02
    assert sch.wavelengths[0] == pytest.approx(655e-9, rel=1e-12)


def test_config_complex_entries():
    _, _, _, fields = config_to_params({"fields": {"G10_MHz": [60.0, 80.0]}})
    assert fields.g10 == 60.0 + 80.0j


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        config_to_params({"fields": {"Omega5_MHz": 1.0}})
    with pytest.raises(ConfigError):
        config_to_params({"bogus": {}})
    with pytest.raises(ConfigError):
        config_to_params({"medium": {"temperature_C": "hot"}})


def test_config_recomputes_stokes_wavelength():
    # rounded inputs are accepted; the Stokes wavelength is recomputed
    sch, _, _, _ = config_to_params(
        {"scheme": {"wavelengths_nm": [655.0, 756.0, 532.0, 480.0]}})
    lhs = 1 / sch.wavelengths[0] + 1 / sch.wavelengths[2]
    rhs = 1 / sch.wavelengths[1] + 1 / sch.wavelengths[3]
    assert abs(lhs - rhs) / lhs < 1e-12


def test_load_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"fields": {"Omega3_MHz": 80.0}}))
    _, _, _, fields = scheme.load_config(path)
    assert fields.omega3 == 80.0
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        scheme.load_config(bad)
    with pytest.raises(ConfigError):
        scheme.load_config(tmp_path / "missing.json")


def test_unparsable_configuration_file_is_a_config_error(tmp_path):
    # text that is not UTF-8, and an integer too long for Python to convert
    for name, raw in (("latin.json", b'{"fields": {"E40": \xff}}'),
                      ("digits.json", b'{"fields": {"E40": 1' + b"0" * 5000 + b"}}")):
        (tmp_path / name).write_bytes(raw)
        with pytest.raises(ConfigError, match="invalid JSON"):
            scheme.load_config(tmp_path / name)


def test_medium_params_validation():
    with pytest.raises(ValueError):
        MediumParams(temperature=-1.0)
    with pytest.raises(ValueError):
        MediumParams(p_n=1.0)
    with pytest.raises(ValueError):
        MediumParams(alpha40=0.0)


def _complex_entry():
    """A real amplitude as a number, a complex one as a [real, imag] pair."""
    pair = st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3).filter(bool)).map(list)
    return st.one_of(st.floats(-1e3, 1e3), pair)


@st.composite
def _configs(draw):
    """A valid configuration that sets every entry."""
    # 1/l4 < 2/800 nm <= 1/l1 + 1/l3, so the Stokes frequency is positive
    l1, l3, l4 = draw(st.floats(400.0, 800.0)), draw(st.floats(400.0, 800.0)), \
        draw(st.floats(450.0, 900.0))
    l2 = closed_lambda2(l1 * 1e-9, l3 * 1e-9, l4 * 1e-9) * 1e9
    rate = st.floats(0.0, 300.0)
    pop = {k: draw(rate) for k in ("m", "g", "n")}
    spont = {}
    for level, (a, b) in (("m", ("mn", "ml")), ("g", ("gn", "gl"))):
        spont[a] = draw(st.floats(0.0, 1.0)) * pop[level]
        spont[b] = draw(st.floats(0.0, 1.0)) * (pop[level] - spont[a])
    return {
        "scheme": {"wavelengths_nm": [l1, l2, l3, l4],
                   "dipoles_rel": draw(st.lists(st.floats(0.01, 10.0), min_size=4, max_size=4)),
                   "mass_amu": draw(st.floats(1.0, 500.0))},
        "relaxation": {"gamma_pop_MHz": pop, "gamma_spont_MHz": spont,
                       "gamma_coh_MHz": {k: draw(rate)
                                         for k in ("ml", "gl", "mn", "gn", "nl", "gm")}},
        "medium": {"temperature_C": draw(st.floats(-200.0, 2000.0)),
                   "alpha40_per_L4": draw(st.floats(0.01, 100.0)),
                   "p_n": draw(st.floats(0.0, 0.99))},
        "fields": {**{k: draw(st.floats(-1e3, 1e3))
                      for k in ("Omega1_MHz", "Omega3_MHz", "Omega4_MHz")},
                   **{k: draw(_complex_entry()) for k in ("G10_MHz", "G30_MHz", "E40", "E20")}},
    }


def _entries(config, path=()):
    """The path of every entry of ``config``, and of each number in a list entry."""
    for key, value in config.items():
        if isinstance(value, dict):
            yield from _entries(value, (*path, key))
        else:
            yield (*path, key)
            if isinstance(value, list):
                yield from ((*path, key, i) for i in range(len(value)))


@settings(max_examples=40, deadline=None, derandomize=True, report_multiple_bugs=False)
@given(config=_configs(), data=st.data())
def test_every_entry_round_trips_and_a_malformed_one_is_named(config, data):
    back = params_to_config(*config_to_params(config))
    got, want = back["scheme"], config["scheme"]
    assert got["wavelengths_nm"] == pytest.approx(want["wavelengths_nm"], rel=1e-14)
    assert got["mass_amu"] == pytest.approx(want["mass_amu"], rel=1e-14)
    # the Celsius offset costs at most a few ulps of the kelvin value
    t = config["medium"]["temperature_C"]
    assert back["medium"]["temperature_C"] == pytest.approx(t, abs=1e-15 * (t + 273.15))
    expected = copy.deepcopy(config)
    expected["scheme"].update(wavelengths_nm=got["wavelengths_nm"], mass_amu=got["mass_amu"])
    expected["medium"]["temperature_C"] = back["medium"]["temperature_C"]
    assert back == expected

    path = data.draw(st.sampled_from(list(_entries(config))))
    bad = data.draw(st.sampled_from(["1.0", "nan", True, False, math.nan, math.inf, -math.inf]))
    broken = copy.deepcopy(config)
    node = broken
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = bad
    name = ".".join(k for k in path if isinstance(k, str))
    with pytest.raises(ConfigError, match=name.replace(".", r"\.")):
        config_to_params(broken)
