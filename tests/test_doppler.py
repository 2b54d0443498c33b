"""Velocity averaging, normalization and the independent Voigt oracle."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from lcq import doppler as dp
from lcq import liouville as lv
from lcq import scans
from lcq.scheme import RAD_PER_MHZ, FieldConfig, na2_preset


@pytest.fixture(scope="module")
def preset():
    return na2_preset()


@pytest.fixture(scope="module")
def quad(preset):
    sch, _, medium, _ = preset
    return dp.QuadratureSpec.for_medium(sch, medium)


# --------------------------------------------------------------------------
# quadrature construction
# --------------------------------------------------------------------------

def test_nodes_cover_unit_mass(quad):
    # wing panels carry plain trapezoid (second-order) weights, so the total
    # Maxwell mass is recovered to the 1e-5 level; the absolute scale cancels
    # against the normalization computed with the same rule
    v, w = quad.nodes()
    assert np.all(np.diff(v) > 0)
    assert abs(np.sum(w) - 1.0) < 1e-4


def test_zero_thermal_speed_single_class():
    q = dp.QuadratureSpec(u=0.0)
    v, w = q.nodes()
    assert v.tolist() == [0.0]
    assert w.tolist() == [1.0]


def test_rule_validation():
    with pytest.raises(ValueError):
        dp.QuadratureSpec(u=500.0, rule="simpson")
    with pytest.raises(ValueError):
        dp.QuadratureSpec(u=500.0, n=4)
    with pytest.raises(ValueError):
        dp.QuadratureSpec(u=500.0, core=5.0, span=4.5)


def test_gauss_hermite_rule_basics():
    q = dp.QuadratureSpec(u=500.0, rule="gauss-hermite", n=64)
    v, w = q.nodes()
    assert v.size == 64
    assert abs(np.sum(w) - 1.0) < 1e-12
    # second moment of the Maxwell distribution: <v^2> = u^2/2
    assert np.sum(w * v**2) == pytest.approx(500.0**2 / 2, rel=1e-12)


def test_kahan_sum_matches_plain_sum():
    rng = np.random.default_rng(0)
    vals = rng.normal(size=(500, 3)) + 1j * rng.normal(size=(500, 3))
    w = rng.uniform(0, 1, 500)
    ref = np.tensordot(w, vals, axes=(0, 0))
    got = dp.kahan_sum(vals, w)
    assert np.max(np.abs(got - ref)) < 1e-12


def test_kahan_sum_is_correctly_rounded_under_cancellation():
    # terms spanning ten decades that cancel to a small total: each part of
    # the sum matches math.fsum, which rounds the exact sum once
    rng = np.random.default_rng(4)
    for n in (1, 7, 1511, 4000):
        x = rng.normal(size=(n, 2)) * 10.0 ** rng.uniform(-5, 5, (n, 2))
        vals = np.concatenate([x, -x[::-1] * (1 + 1e-13 * rng.normal(size=(n, 2)))])
        vals = (vals[:, 0] + 1j * vals[:, 1])[rng.permutation(2 * n)]
        w = rng.uniform(0.5, 2.0, 2 * n)
        got = dp.kahan_sum(vals, w)
        terms = w * vals
        assert got.real == math.fsum(terms.real)
        assert got.imag == math.fsum(terms.imag)


# --------------------------------------------------------------------------
# averaging
# --------------------------------------------------------------------------

def test_zero_thermal_speed_equals_single_class(preset):
    sch, relax, medium, fields = preset
    q0 = dp.QuadratureSpec(u=0.0)
    mc = dp.average_coefficients(sch, relax, medium, fields, 50.0, 20.0, q0)
    # same normalization applies; compare against a direct v = 0 evaluation
    # through the same machinery with a trivial two-node rule
    from lcq import liouville as lv
    det = lv.detune_for_velocity(fields, sch, 0.0)
    st = lv.solve_zeroth_order(sch, relax, medium, det, 50.0, 20.0)
    pr = lv.solve_probe_response(st, sch, relax, det, 50.0, 20.0)
    mc0 = dp.average_coefficients(
        sch, relax, medium, fields.with_omega4(0.0), 0.0, 0.0, q0)
    assert mc0.alpha4 == pytest.approx(medium.alpha40)
    # alpha4 ratio equals the single-class ratio of absorption parts
    base = lv.solve_probe_response(
        lv.solve_zeroth_order(sch, relax, medium,
                              lv.detune_for_velocity(fields.with_omega4(0.0), sch, 0.0),
                              0.0, 0.0),
        sch, relax,
        lv.detune_for_velocity(fields.with_omega4(0.0), sch, 0.0), 0.0, 0.0)
    assert mc.alpha4 / medium.alpha40 == pytest.approx(
        np.imag(pr.a4) / np.imag(base.a4), rel=1e-12)


def test_normalization_is_exact(preset, quad):
    sch, relax, medium, fields = preset
    mc = dp.average_coefficients(sch, relax, medium, fields.with_omega4(0.0), 0.0, 0.0, quad)
    assert mc.alpha4 == medium.alpha40


def test_cross_couplings_vanish_without_drives(preset, quad):
    sch, relax, medium, fields = preset
    mc = dp.average_coefficients(sch, relax, medium, fields, 0.0, 0.0, quad)
    assert mc.gamma4 == 0 and mc.gamma2 == 0
    for g1, g3 in ((70.0, 0.0), (0.0, 30.0)):
        mc = dp.average_coefficients(sch, relax, medium, fields, g1, g3, quad)
        assert abs(mc.gamma4) <= 1e-12 and abs(mc.gamma2) <= 1e-12


def test_zero_drive_alpha4_matches_voigt(preset):
    # independent oracle: adaptive convolution quadrature; the production
    # average must track it within 1e-3 relative across the inhomogeneous
    # line, probed out to 3 GHz where the resonant velocity class sits far
    # in the Maxwell tail
    sch, relax, medium, fields = preset
    u = medium.thermal_speed(sch)
    quad_wide = dp.QuadratureSpec(u=u, rule="trapezoid", n=9001, span=5.5)
    width = medium.doppler_width(sch, 4)
    v0 = dp.voigt_reference(0.0, relax.coh_ml, width)
    for om4 in (0.0, 120.0, -350.0, 800.0, 1600.0, 2400.0, 3000.0, -3000.0):
        mc = dp.average_coefficients(
            sch, relax, medium, fields.with_omega4(om4), 0.0, 0.0, quad_wide)
        ref = dp.voigt_reference(om4 * RAD_PER_MHZ, relax.coh_ml, width)
        expected = ref.real / v0.real * medium.alpha40
        assert abs(mc.alpha4 - expected) / expected < 1e-3


def test_quadrature_gate_at_preset(preset, quad):
    sch, relax, medium, fields = preset
    ok, rel = dp.quadrature_gate(sch, relax, medium, fields,
                                 fields.g10, fields.g30, quad)
    assert ok, f"doubling the velocity nodes changed alpha4 by {rel:.2e}"


def test_rule_independence_on_preset(preset):
    # two structurally different resolved rules agree on dressed spectra
    sch, relax, medium, fields = preset
    u = medium.thermal_speed(sch)
    q_core = dp.QuadratureSpec(u=u)
    q_trap = dp.QuadratureSpec(u=u, rule="trapezoid", n=8191)
    for om4 in (0.0, 35.0, 160.0):
        a = dp.average_coefficients(sch, relax, medium, fields.with_omega4(om4),
                                    fields.g10, fields.g30, q_core)
        b = dp.average_coefficients(sch, relax, medium, fields.with_omega4(om4),
                                    fields.g10, fields.g30, q_trap)
        assert abs(a.alpha4 - b.alpha4) / abs(b.alpha4) < 1e-5
        assert abs(a.alpha2 - b.alpha2) / max(abs(b.alpha2), 1e-3) < 1e-4


def test_averaging_reports_failing_node(preset, quad):
    from dataclasses import replace
    sch, relax, medium, fields = preset
    dead = replace(relax, gamma_m=0.0, gamma_g=0.0, gamma_n=0.0,
                   coh_ml=0.0, coh_gl=0.0, coh_mn=0.0, coh_gn=0.0,
                   coh_nl=0.0, coh_gm=0.0, sp_mn=0.0, sp_ml=0.0,
                   sp_gn=0.0, sp_gl=0.0)
    with pytest.raises(dp.AveragingError):
        dp.average_coefficients(sch, dead, medium, fields, 0.0, 0.0, quad)


def test_grid_failure_names_the_velocity_node(preset, quad):
    # without rho_nl coherence decay the probe block is singular where the
    # Raman detuning vanishes, at v = 0 for omega4 = omega3; a drive grid
    # names the same velocity node as a single drive point
    sch, relax, medium, fields = preset
    dead = replace(relax, coh_nl=0.0)
    raman = fields.with_omega4(fields.omega3)
    with pytest.raises(dp.AveragingError) as point:
        dp.average_coefficients(sch, dead, medium, raman, 50.0, 20.0, quad)
    grid = dp.DriveGrid(sch, dead, medium, raman, [0.0, 50.0, 100.0], [0.0, 20.0], quad)
    with pytest.raises(dp.AveragingError) as info:
        grid.coefficients_for(raman)
    node = re.search(r"velocity node \d+ \(v = [-0-9.]+ m/s\)", str(point.value)).group()
    assert node in str(info.value)
    assert "drive point (0, 0)" in str(info.value)


def test_mirror_symmetry_of_spectra(preset, quad):
    # detuning reflection with conjugated drives flips dispersion parts and
    # preserves absorption parts
    sch, relax, medium, _ = preset
    base = FieldConfig(omega1=0.0, omega3=100.0, omega4=70.0, g10=100, g30=40)
    mirror = FieldConfig(omega1=0.0, omega3=-100.0, omega4=-70.0, g10=100, g30=40)
    a = dp.average_coefficients(sch, relax, medium, base, 100.0, 40.0, quad)
    b = dp.average_coefficients(sch, relax, medium, mirror, 100.0, 40.0, quad)
    assert b.alpha4 == pytest.approx(a.alpha4, abs=1e-9)
    assert b.alpha2 == pytest.approx(a.alpha2, abs=1e-9)
    assert b.deltak4 == pytest.approx(-a.deltak4, abs=1e-9)
    assert b.gamma4 == pytest.approx(-np.conj(a.gamma4), abs=1e-9)


def test_fixed_order_summation_reproducible(preset, quad):
    sch, relax, medium, fields = preset
    a = dp.average_coefficients(sch, relax, medium, fields, fields.g10, fields.g30, quad)
    b = dp.average_coefficients(sch, relax, medium, fields, fields.g10, fields.g30, quad)
    assert a == b  # bit-identical dataclasses


def test_drive_state_cache_is_read_only_and_keyed(preset, quad):
    sch, relax, medium, fields = preset
    dp._drive_state.cache_clear()
    key = (sch, relax, medium, fields.omega1, fields.omega3, 100.0 + 0j, 40.0 + 0j, quad)
    state = dp._drive_state(*key)
    for a in (state.v, state.w, state.om1p, state.shift2, state.shift4, state.src):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0
    assert dp._drive_state(*key) is state
    assert dp._drive_state.cache_info().misses == 1
    # another G1, another relaxation set: both miss
    dp._drive_state(sch, relax, medium, fields.omega1, fields.omega3, 99.0 + 0j, 40.0 + 0j, quad)
    assert dp._drive_state.cache_info().misses == 2
    other = replace(relax, coh_nl=16.0)
    dp._drive_state(sch, other, medium, fields.omega1, fields.omega3, 100.0 + 0j, 40.0 + 0j, quad)
    assert dp._drive_state.cache_info().misses == 3


def test_sweep_solves_the_drive_sector_once(preset, quad):
    # one drive point for the sweep plus one for the normalization
    sch, relax, medium, fields = preset
    dp._drive_state.cache_clear()
    dp._norm_constant.cache_clear()
    scans.spectra_scan(sch, relax, medium, fields, np.linspace(-20.0, 20.0, 5), quad=quad)
    assert dp._drive_state.cache_info().misses == 2


def test_non_finite_coefficient_raises(preset, quad, monkeypatch):
    sch, relax, medium, fields = preset
    dp._norm_constant(sch, relax, medium, quad)

    def nan_responses(src, *args):
        return tuple(np.full(np.shape(src[0]), np.nan + 0j) for _ in range(4))

    monkeypatch.setattr(lv, "probe_response_compact", nan_responses)
    with pytest.raises(dp.AveragingError, match="non-finite"):
        dp.average_coefficients(sch, relax, medium, fields, 100.0, 40.0, quad)


# --------------------------------------------------------------------------
# Voigt oracle
# --------------------------------------------------------------------------

def test_voigt_lorentzian_limit():
    for om in (0.0, 55.0, -300.0):
        val = dp.voigt_reference(om, 110.0, 0.0)
        assert val == pytest.approx(110.0 / (110.0 - 1j * om), rel=1e-12)


def test_voigt_symmetry_at_center():
    val = dp.voigt_reference(0.0, 80.0, 80.0)
    assert val.imag == pytest.approx(0.0, abs=1e-10)
    for om in (20.0, 60.0, 200.0):
        assert dp.voigt_reference(om, 80.0, 80.0).real < val.real


def test_voigt_gaussian_fwhm():
    # when the Lorentzian is negligible the absorption profile is the
    # Gaussian: full width at half maximum 2 sqrt(ln 2) widths, checked by a
    # brute-force scan
    gamma, width = 1.0, 1000.0
    peak = dp.voigt_reference(0.0, gamma, width).real
    scan = np.linspace(0.0, 2.0 * width, 4001)
    vals = np.array([dp.voigt_reference(om, gamma, width).real for om in scan[::20]])
    half_idx = np.nonzero(vals < peak / 2)[0][0]
    coarse = scan[::20]
    # refine around the half point
    lo, hi = coarse[half_idx - 1], coarse[half_idx]
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if dp.voigt_reference(mid, gamma, width).real > peak / 2:
            lo = mid
        else:
            hi = mid
    fwhm = lo + hi
    assert abs(fwhm - 2.0 * np.sqrt(np.log(2.0)) * width) / fwhm < 0.02


def test_voigt_input_validation():
    with pytest.raises(ValueError):
        dp.voigt_reference(0.0, 0.0, 100.0)
    with pytest.raises(ValueError):
        dp.voigt_reference(0.0, 10.0, -1.0)
