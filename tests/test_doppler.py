"""Velocity averaging by pole sums, normalization, the velocity rule and the Voigt oracle."""

import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcq import checks
from lcq import doppler as dp
from lcq import liouville as lv
from lcq import scans
from lcq.scheme import RAD_PER_MHZ, FieldConfig, RelaxationSet, na2_preset


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
    # the sinh rule's trapezoid weights recover the Maxwell mass inside
    # +-4.5 u, which misses only erfc(4.5) = 2e-10 of it
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
        dp.QuadratureSpec(u=500.0, span=0.0)


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
# the Faddeeva function
# --------------------------------------------------------------------------

def _upper_half_plane_points(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
    return x + 1j * 10.0 ** rng.uniform(-8.0, 3.0, n)


def test_faddeeva_matches_scipy_wofz():
    from scipy.special import wofz

    rng = np.random.default_rng(11)
    far = 10.0 ** rng.uniform(3.0, 14.0, 2000) * np.exp(1j * rng.uniform(0.0, math.pi, 2000))
    z = np.concatenate([[0.0, 1e-8j, 1e-8, -1e-8], np.linspace(-1000.0, 1000.0, 20001),
                        _upper_half_plane_points(20000, 12), far, [1e14, -1e14, 1e14j]])
    assert np.all(z.imag >= 0)
    exact = wofz(z)
    assert np.max(np.abs(dp._faddeeva(z) - exact) / np.abs(exact)) < 1e-13
    # below the axis Z is the mirror image, -i sqrt(pi) w(-p), not w's continuation
    p = np.conj(z[z.imag > 0])
    expect = -1j * math.sqrt(math.pi) * wofz(-p)
    assert np.max(np.abs(dp._plasma_z(p) - expect) / np.abs(expect)) < 1e-13
    assert np.array_equal(dp._plasma_z(np.conj(p)), np.conj(dp._plasma_z(p)))


def test_plasma_z_of_a_batch_repeats_each_point_alone_bit_for_bit():
    # results must not depend on how points are batched; an in-place Horner
    # step breaks this on SIMD hardware
    z = _upper_half_plane_points(1001, 13)
    z[::3] = np.conj(z[::3])
    alone = np.array([dp._plasma_z(z[k:k + 1])[0] for k in range(z.size)])
    for n in range(1, 1001):
        assert np.array_equal(dp._plasma_z(z[:n]).view(np.int64), alone[:n].view(np.int64)), n
    assert np.array_equal(dp._plasma_z(z[1:]).view(np.int64), alone[1:].view(np.int64))


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
    from lcq import reference

    def a4_at_rest(f, g1, g3):
        om1p, om2p, _, om4p = (w - s for w, s in zip(
            (f.omega1, f.omega2, f.omega3, f.omega4), lv.doppler_shifts(sch, 0.0)))
        rho = reference.zeroth_order_batch(relax, medium.p_n, om1p, om2p, om4p, g1, g3)
        return lv.probe_response_compact(
            lv.compact_sources(rho), om1p, om2p, om4p, g1, g3, relax)[0]

    mc0 = dp.average_coefficients(
        sch, relax, medium, fields.with_omega4(0.0), 0.0, 0.0, q0)
    assert mc0.alpha4 == pytest.approx(medium.alpha40)
    # alpha4 ratio equals the single-class ratio of absorption parts
    assert mc.alpha4 / medium.alpha40 == pytest.approx(
        np.imag(a4_at_rest(fields, 50.0, 20.0))
        / np.imag(a4_at_rest(fields.with_omega4(0.0), 0.0, 0.0)), rel=1e-12)


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


def _fields(ratios, means):
    return [ratios, *means]


def _worst(poles, oracle, scale) -> float:
    """Largest |pole sum - oracle| over each field's Maxwell-averaged modulus."""
    worst = 0.0
    for p, o, s in zip(_fields(*poles), _fields(*oracle), _fields(*scale)):
        err = np.abs(p - o)
        assert np.all(err[s.real == 0] == 0)  # a field that vanishes does so exactly
        worst = max(worst, float(np.max(err / np.where(s.real > 0, s.real, 1.0))))
    return worst


def test_quadrature_gate_at_preset(preset):
    # the oracle's velocity sum converges onto the pole sums at the preset:
    # doubling its nodes moves it from about 1e-10 to below 1e-12 of each
    # field's scale
    sch, relax, medium, fields = preset
    omega4 = np.array([0.0, 35.0, 155.0, 300.0])
    poles = dp._average(sch, relax, medium, dp.QuadratureSpec.for_medium(sch, medium),
                        fields, omega4, fields.g10, fields.g30)
    errors = []
    for n in (1311, 2621):
        quad = dp.QuadratureSpec.for_medium(sch, medium, n=n)
        oracle = dp._node_sums(sch, relax, medium, quad, fields, omega4, fields.g10, fields.g30)
        scale = dp._node_sums(sch, relax, medium, quad, fields, omega4,
                              fields.g10, fields.g30, modulus=True)
        errors.append(_worst(poles, oracle, scale))
    assert errors[0] < 1e-9 and errors[1] < 1e-12, errors


def test_rule_independence_on_preset(preset):
    # the pole sums read only the thermal speed of the quadrature spec, and
    # the oracle's two rules, sinh and uniform trapezoid, agree with them
    sch, relax, medium, fields = preset
    u = medium.thermal_speed(sch)
    q_sinh = dp.QuadratureSpec(u=u)
    q_trap = dp.QuadratureSpec(u=u, rule="trapezoid", n=8191)
    for om4 in (0.0, 35.0, 160.0):
        f = fields.with_omega4(om4)
        a = dp.average_coefficients(sch, relax, medium, f, fields.g10, fields.g30, q_sinh)
        b = dp.average_coefficients(sch, relax, medium, f, fields.g10, fields.g30, q_trap)
        assert a == b
        for quad, rtol in ((q_sinh, 1e-9), (q_trap, 1e-5)):
            ratios, means = dp._node_sums(sch, relax, medium, quad, f, om4, fields.g10, fields.g30)
            poles, exact = dp._average(sch, relax, medium, quad, f, om4, fields.g10, fields.g30)
            assert abs(means[0] - exact[0]) < rtol * abs(exact[0])
            assert abs(means[2] - exact[2]) < rtol * abs(exact[2])


@st.composite
def damped_relaxation_sets(draw):
    """Positive rates in [20, 300] whose spontaneous branches fit inside their level's decay."""
    names = ("gamma_m", "gamma_g", "gamma_n", "coh_ml", "coh_gl", "coh_mn", "coh_gn",
             "coh_nl", "coh_gm")
    rates = {name: draw(st.floats(20.0, 300.0)) for name in names}
    for level, (a, b) in (("m", ("sp_mn", "sp_ml")), ("g", ("sp_gn", "sp_gl"))):
        total = rates["gamma_" + level]
        rates[a] = draw(st.floats(0.0, 1.0)) * total
        rates[b] = draw(st.floats(0.0, 1.0)) * (total - rates[a])
    return RelaxationSet(**rates)


# zero, or above 1e-6 MHz: the cross couplings scale as G1 G3, and their
# averages lose digits to underflow once that product nears the subnormals
_drive = st.builds(lambda r, phi: r * np.exp(1j * phi),
                   st.one_of(st.just(0.0), st.floats(1e-6, 150.0)), st.floats(0.0, 2 * np.pi))
_detuning = st.floats(-300.0, 300.0)


@settings(max_examples=25, deadline=None)
@given(relax=damped_relaxation_sets(), g1=_drive, g3=_drive,
       om=st.tuples(_detuning, _detuning, _detuning, _detuning))
def test_pole_sums_match_the_velocity_sum(relax, g1, g3, om):
    # every field of the exact average against the oracle's 6001-node sinh
    # rule, to 1e-10 of the Maxwell average of the field's modulus.  The
    # rule reaches out to 6 u: cutting it at 4.5 u misses up to 2e-11 of a
    # strongly driven field's scale
    sch, _, medium, _ = na2_preset()
    quad = dp.QuadratureSpec.for_medium(sch, medium, n=6001, span=6.0)
    fields, omega4 = FieldConfig(omega1=om[0], omega3=om[1]), np.array(om[2:])
    poles = dp._average(sch, relax, medium, quad, fields, omega4, g1, g3)
    oracle = dp._node_sums(sch, relax, medium, quad, fields, omega4, g1, g3)
    scale = dp._node_sums(sch, relax, medium, quad, fields, omega4, g1, g3, modulus=True)
    assert _worst(poles, oracle, scale) <= 1e-10


@settings(max_examples=25, deadline=None)
@given(relax=damped_relaxation_sets(), temperature=st.floats(300.0, 1200.0),
       p_n=st.floats(0.0, 0.5), g1=st.lists(_drive, min_size=1, max_size=6),
       g3=st.lists(_drive, min_size=1, max_size=6),
       om=st.tuples(_detuning, _detuning, _detuning, _detuning))
def test_closed_form_poles_match_lapack(relax, temperature, p_n, g1, g3, om):
    # Ferrari's roots against LAPACK's eig of the companion matrix and of
    # K = -M1^-1 M0, at drive points that include G1 = 0, G3 = 0 and both,
    # where the probe block decouples
    sch, _, medium, _ = na2_preset()
    medium = replace(medium, temperature=temperature, p_n=p_n)
    quad = dp.QuadratureSpec.for_medium(sch, medium)
    G1, G3 = (np.array(x, dtype=complex).ravel()
              for x in np.meshgrid([0.0, *g1], [0.0, *g3], indexing="ij"))
    fields, omega4 = FieldConfig(omega1=om[0], omega3=om[1]), np.array(om[2:])
    agreement = checks.pole_agreement(sch, relax, medium, quad, fields, omega4[:, None], G1, G3)
    assert agreement["pole_error"] <= 1e-12, agreement


def test_pole_kernel_repeats_each_point_alone_bit_for_bit(preset, quad):
    # the drive sector, the pencil poles and the averages of 1000 paired
    # points, against the same points in batches of 1 to 999 and as a view
    # at an offset
    sch, relax, medium, fields = preset
    rng = np.random.default_rng(24)
    n = 1000
    g1 = rng.uniform(0.0, 150.0, n) * np.exp(2j * np.pi * rng.random(n))
    g3 = rng.uniform(0.0, 60.0, n) * np.exp(2j * np.pi * rng.random(n))
    g1[::7], g3[::11] = 0.0, 0.0
    w4 = rng.uniform(-300.0, 300.0, n)
    d1, d2, d3, d4 = lv.doppler_shifts(sch, quad.u)
    slopes = np.array(lv.probe_block(-d1, -d2, -d4, 0.0, 0.0, (0.0,) * 4)[:4])
    rad = RAD_PER_MHZ

    def kernel(k):
        with np.errstate(all="ignore"):
            drive = dp._drive_sector(relax, medium.p_n, (rad * fields.omega1, rad * fields.omega3),
                                     (rad * d1, rad * d3), g1[k], g3[k])
            block = lv.probe_block(fields.omega1, fields.omega1 + fields.omega3 - w4[k], w4[k],
                                   g1[k], g3[k], lv.probe_rates(relax))
            lam = dp._pencil_poles(block, slopes)
        return drive.poles, drive.weights, lam

    def average(k):
        ratios, means = dp._average(sch, relax, medium, quad, fields, w4[k], g1[k], g3[k])
        return ratios, means

    whole = kernel(slice(None))
    whole_means = average(slice(None))
    for size in (1, 2, 3, 10, 64, 333, 999):
        stop = 40 if size == 1 else n
        parts = [kernel(slice(a, min(a + size, stop))) for a in range(0, stop, size)]
        for got, ref in zip(zip(*parts), whole):
            assert np.array_equal(np.concatenate(got), ref[:stop], equal_nan=True), size
        parts = [average(slice(a, min(a + size, stop))) for a in range(0, stop, size)]
        for got, ref in zip(zip(*parts), whole_means):
            assert np.array_equal(np.concatenate(got, axis=1), ref[:, :stop]), size
    offset = slice(1, n)
    assert g1[offset].base is not None  # a view that starts one element in
    for got, ref in zip(kernel(offset), whole):
        assert np.array_equal(got, ref[1:], equal_nan=True)
    for got, ref in zip(average(offset), whole_means):
        assert np.array_equal(got, ref[:, 1:])


def _eight_pole_means(drive, point, block, slopes):
    """:func:`lcq.doppler._probe_means` over one set of eight poles [lambda, q]: the 8 x 8
    spread, and the cofactors, the sources and det' M or det M at every pole."""
    lam = dp._pencil_poles(block, slopes)
    poles = np.concatenate([lam, drive.poles[point]], axis=1)
    m = [block[j][:, None] + slopes[j] * poles for j in range(4)]
    cofactors = dp._cofactors(*m, *(c[:, None] for c in block[4:]))
    gap = poles[:, :, None] - poles[:, None, :]
    width = np.abs(poles.imag)
    eye = np.eye(8, dtype=bool)
    spread = np.max((width[:, :, None] + width[:, None, :]) / np.abs(np.where(eye, np.inf, gap)),
                    axis=(1, 2))
    det = np.prod(slopes) * np.prod(np.where(eye[:, :4], 1.0, gap[:, :, :4]), axis=2)
    weights = np.concatenate([dp._plasma_z(lam) / dp._polyval(drive.Q[point], lam),
                              drive.weights[point]], axis=1) / det
    src = dp._polyval(drive.sources[:, point], poles)
    x1_4, x2_4, x1_2, x2_2 = dp._pole_sum(np.stack([
        sum(n * c for n, c in zip(unit, cof) if np.ndim(n))
        for unit in lv.probe_sources(*src) for cof in cofactors]) * weights)
    return np.stack([x2_4, x2_2, np.conj(x1_2), np.conj(x1_4)]), spread


def test_probe_means_equal_the_eight_pole_sums_bit_for_bit(preset, quad):
    # the parts a drive point's columns share, and those the pencil already
    # has at its poles, are computed once; means and spreads are those of
    # the eight-pole form, bit for bit.  The preset's points include zero
    # drives and the probe poles' exceptional point; the twin rates put the
    # drive poles close, where their spread is the block's
    sch, relax, medium, fields = preset
    d1, d2, d3, d4 = lv.doppler_shifts(sch, quad.u)
    slopes = np.array(lv.probe_block(-d1, -d2, -d4, 0.0, 0.0, (0.0,) * 4)[:4])
    omega4, g3_ep = _exceptional_point(sch, relax, medium, fields)
    twin = replace(relax, coh_mn=relax.coh_gl * d3 / d1)
    weak = [1e-3, 0.1, 1.0, 5.0]
    cases = [(relax, fields, [0.0, 0.0, 0.0, 100.0, 100.0, 1e-3],
              [0.0, g3_ep, g3_ep * (1 + 1e-5), 0.0, 40.0, 40.0], [omega4, 155.0, -80.0]),
             (twin, FieldConfig(omega1=30.0, omega3=30.0 * d3 / d1), weak, weak, [50.0, 100.0])]
    for rates, f, g1, g3, columns in cases:
        g1, g3 = np.array(g1, dtype=complex), np.array(g3, dtype=complex)
        point = np.tile(np.arange(g1.size), len(columns))
        w4 = np.repeat(columns, g1.size)
        with np.errstate(all="ignore"):
            drive = dp._drive_sector(rates, medium.p_n,
                                     (RAD_PER_MHZ * f.omega1, RAD_PER_MHZ * f.omega3),
                                     (RAD_PER_MHZ * d1, RAD_PER_MHZ * d3), g1, g3)
            block = lv.probe_block(f.omega1, f.omega1 + f.omega3 - w4, w4, g1[point], g3[point],
                                   lv.probe_rates(rates))
            got, ref = dp._probe_means(drive, point, block, slopes), _eight_pole_means(
                drive, point, block, slopes)
        assert np.isfinite(ref[0]).all()
        for a, b in zip(got, ref):
            assert np.array_equal(a.view(np.uint8), b.view(np.uint8))
    # in the twin case the drive poles' spread is what the block reports
    assert (ref[1] == drive.spread[point]).all() and (ref[1] > 10.0).all()


def _exceptional_point(sch, relax, medium, fields):
    """Probe detuning and G3 at which, with G1 = 0, the poles of rho_nl and rho_ml coalesce.

    With G1 = 0 the pair couples through G3 alone, as the 2 x 2 pencil
    block [[K00, K02], [K20, K22]] of K = -M1^-1 M0.  Its eigenvalues meet
    where Re K00 = Re K22, which fixes omega4, and |Im (K00 - K22)| =
    2 sqrt(K02 K20), which fixes |G3|.
    """
    d1, d2, _, d4 = lv.doppler_shifts(sch, medium.thermal_speed(sch))
    omega4 = (fields.omega3 - fields.omega1) * d4 / (d4 + d2 - d1)
    gap = relax.coh_nl / (2 * math.pi * abs(d2 - d1)) - relax.coh_ml / (2 * math.pi * d4)
    return omega4, abs(gap) * math.sqrt(abs(d2 - d1) * d4) / 2


def test_coalescing_poles_are_averaged_by_the_rule_and_counted(preset, quad):
    sch, relax, medium, fields = preset
    omega4, g3 = _exceptional_point(sch, relax, medium, fields)
    column = (fields, omega4)
    with dp.pole_stats() as stats:
        got = dp._average(sch, relax, medium, quad, *column, 0.0, g3)
    assert stats.exceptional == 1 and stats.worst_condition <= dp._COALESCING
    # the probe responses there are the oracle's sum over the same rule,
    # while the drive poles, which do not coalesce, still give the ratios
    oracle = dp._node_sums(sch, relax, medium, quad, *column, 0.0, g3)
    assert np.array_equal(got[1], oracle[1])
    fine = dp.QuadratureSpec.for_medium(sch, medium, n=8001)
    oracle = dp._node_sums(sch, relax, medium, fine, *column, 0.0, g3)
    scale = dp._node_sums(sch, relax, medium, fine, *column, 0.0, g3, modulus=True)
    assert _worst(got, oracle, scale) < 1e-12
    # a little way off, the poles are apart enough for the pole sums, which
    # the fine oracle confirms
    for shift in (1e-3, 1e-5):
        with dp.pole_stats() as stats:
            got = dp._average(sch, relax, medium, quad, *column, 0.0, g3 * (1 + shift))
        assert stats.exceptional == 0
        oracle = dp._node_sums(sch, relax, medium, fine, *column, 0.0, g3 * (1 + shift))
        scale = dp._node_sums(sch, relax, medium, fine, *column, 0.0,
                              g3 * (1 + shift), modulus=True)
        assert _worst(got, oracle, scale) < 1e-10


def test_coalescing_drive_poles_are_averaged_by_the_rule(preset, quad):
    # with Gamma_mn / D3 = Gamma_gl / D1 and Omega3 / D3 = Omega1 / D1 the two
    # drive Lorentzians share their poles, which weak drives barely split:
    # the drive point, ratios and every column, goes to the velocity rule
    sch, relax, medium, _ = preset
    d1, _, d3, _ = lv.doppler_shifts(sch, quad.u)
    twin = replace(relax, coh_mn=relax.coh_gl * d3 / d1)
    columns = (FieldConfig(omega1=30.0, omega3=30.0 * d3 / d1), np.array([50.0, 100.0]))
    with dp.pole_stats() as stats:
        got = dp._average(sch, twin, medium, quad, *columns, 1e-3, 1e-3)
    assert stats.exceptional == 1
    assert all(np.array_equal(a, b) for a, b in zip(
        _fields(*got), _fields(*dp._node_sums(sch, twin, medium, quad, *columns, 1e-3, 1e-3))))
    fine = dp.QuadratureSpec.for_medium(sch, medium, n=8001, span=6.0)
    oracle = dp._node_sums(sch, twin, medium, fine, *columns, 1e-3, 1e-3)
    scale = dp._node_sums(sch, twin, medium, fine, *columns, 1e-3, 1e-3, modulus=True)
    assert _worst(got, oracle, scale) < 1e-12


def test_far_apart_poles_are_summed_whatever_their_eigenvector_conditioning(preset):
    # with G3 = 0 and a weak G1 two drive poles are close for their modulus,
    # and the companion matrix's eigenvector condition number is 2.2e4, yet
    # they lie more than their widths apart (spread 1): the pole sums hold,
    # where the 1311-node rule misses by 7e-4 of a field's scale
    sch, _, medium, _ = preset
    relax = RelaxationSet(gamma_m=50.0, gamma_g=212.0, gamma_n=231.0, coh_ml=174.0, coh_gl=184.0,
                          coh_mn=20.0, coh_gn=76.0, coh_nl=20.0, coh_gm=84.0, sp_mn=31.0,
                          sp_ml=4.0, sp_gn=0.0, sp_gl=189.0)
    medium = replace(medium, temperature=1006.0, p_n=0.18)
    quad = dp.QuadratureSpec.for_medium(sch, medium)
    column = (FieldConfig(omega1=-284.0, omega3=-299.0), np.array([239.0, 2.6]))
    with dp.pole_stats() as stats:
        got = dp._average(sch, relax, medium, quad, *column, 20.0, 0.0)
    assert stats.exceptional == 0 and stats.worst_condition <= 1.1
    fine = dp.QuadratureSpec.for_medium(sch, medium, n=60001, span=6.0)
    oracle = dp._node_sums(sch, relax, medium, fine, *column, 20.0, 0.0)
    scale = dp._node_sums(sch, relax, medium, fine, *column, 20.0, 0.0, modulus=True)
    assert _worst(got, oracle, scale) < 1e-10


def test_averaging_reports_failing_node(preset, quad):
    from dataclasses import replace
    sch, relax, medium, fields = preset
    dead = replace(relax, gamma_m=0.0, gamma_g=0.0, gamma_n=0.0,
                   coh_ml=0.0, coh_gl=0.0, coh_mn=0.0, coh_gn=0.0,
                   coh_nl=0.0, coh_gm=0.0, sp_mn=0.0, sp_ml=0.0,
                   sp_gn=0.0, sp_gl=0.0)
    with pytest.raises(dp.AveragingError):
        dp.average_coefficients(sch, dead, medium, fields, 0.0, 0.0, quad)
    # the velocity rule names the velocity node where the class solve fails
    with pytest.raises(dp.AveragingError, match=r"velocity node \d+"):
        dp._node_sums(sch, dead, medium, quad, fields, fields.omega4, 0.0, 0.0)


def test_grid_failure_names_the_velocity_node(preset, quad):
    # without rho_nl coherence decay the probe block is singular where the
    # Raman detuning vanishes, at v = 0 for omega4 = omega3; the rule on a
    # drive grid names the same velocity node as at a single drive point
    sch, relax, medium, fields = preset
    dead = replace(relax, coh_nl=0.0)
    raman = fields.omega3
    with pytest.raises(dp.AveragingError) as point:
        dp._node_sums(sch, dead, medium, quad, fields, raman, 50.0, 20.0)
    with pytest.raises(dp.AveragingError) as info:
        dp._node_sums(sch, dead, medium, quad, fields, raman,
                      np.array([0.0, 50.0, 100.0])[:, None],
                      np.array([0.0, 20.0])[None, :])
    node = re.search(r"velocity node \d+ \(v = [-0-9.]+ m/s\)", str(point.value)).group()
    assert node in str(info.value)
    assert "drive point (0, 0)" in str(info.value)


def test_singular_drive_sector_names_the_drive_point(preset, quad):
    # without decay of level g the drive sector is singular wherever G1 = 0,
    # from the first velocity node on; the rule names that drive point
    sch, relax, medium, fields = preset
    no_g_decay = replace(relax, gamma_g=0.0, sp_gn=0.0, sp_gl=0.0)
    with pytest.raises(dp.AveragingError) as info:
        dp._node_sums(sch, no_g_decay, medium, quad, fields, fields.omega4,
                      np.array([100.0, 50.0, 0.0])[:, None],
                      np.array([0.0, 20.0])[None, :])
    assert "velocity node 0 (v = " in str(info.value)
    assert "drive point (2, 0)" in str(info.value)


def test_failure_in_a_later_chunk_on_a_worker_names_the_same_node(preset, quad):
    # on a 40 x 24 grid a chunk of the velocity rule holds 17 classes, so
    # the singular probe block at v = 0 lies in a later chunk, and the grid
    # names the node a single point names.  The pole sums tabulate the same
    # grid at the preset's rates
    sch, relax, medium, fields = preset
    dead = replace(relax, coh_nl=0.0)
    omega4 = np.array([fields.omega4, fields.omega3])   # the second at the Raman resonance
    g1, g3 = np.linspace(0.0, 100.0, 40), np.linspace(0.0, 40.0, 24)
    with pytest.raises(dp.AveragingError) as point:
        dp._node_sums(sch, dead, medium, quad, fields, omega4[1], 50.0, 20.0)
    node = re.search(r"velocity node (\d+) \(v = [-0-9.]+ m/s\)", str(point.value))
    assert int(node.group(1)) // (lv._CHUNK // (40 * 24)) > 3
    with pytest.raises(dp.AveragingError) as info:
        dp._node_sums(sch, dead, medium, quad, fields, omega4[:, None, None],
                      g1[:, None], g3[None, :])
    assert node.group() in str(info.value) and "drive point (0, 0)" in str(info.value)
    grid = dp.DriveGrid(sch, relax, medium, fields, g1, g3, quad)
    tables = grid.tables(omega4)
    assert tables.shape == (2, 40, 24, 12) and np.isfinite(tables).all()


def test_grid_memory_stays_bounded_as_nodes_double(preset):
    # the velocity rule keeps one chunk of classes at a time: the probe
    # sources of every class at every drive point would take 6 nv n1 n3
    # complex numbers
    sch, relax, medium, fields = preset
    omega4 = np.array([150.0, 160.0])[:, None, None]
    g1, g3 = np.linspace(0.0, 105.0, 40)[:, None], np.linspace(0.0, 42.0, 24)[None, :]
    peaks = {}
    for n in (1311, 2621):
        quad = dp.QuadratureSpec.for_medium(sch, medium, n=n)
        tracemalloc.start()
        try:
            dp._node_sums(sch, relax, medium, quad, fields, omega4, g1, g3)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        sources = 6 * quad.nodes()[0].size * 40 * 24 * 16
        assert peaks[n] < sources / 4, (n, peaks[n], sources)
    assert peaks[2621] <= 1.1 * peaks[1311], peaks


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


def _norm_by_average(sch, relax, medium, quad):
    # the normalization as a production pass at zero fields gives it
    zero = FieldConfig(omega1=0.0, omega3=0.0, omega4=0.0)
    _, means = dp._average(sch, relax, medium, quad, zero, 0.0, 0j, 0j)
    d4 = sch.dipoles[3]
    return 2.0 * float(np.imag(1.0 * d4 * d4 * means[0])) / medium.alpha40


def test_closed_form_normalization_is_the_zero_field_pass_bit_for_bit(preset, quad):
    # the single Lorentzian of the idle branch, on the preset and on seeded
    # random media: six coherence rates in 5-300 MHz, p_n in 0.001-0.5
    sch, relax, medium, _ = preset
    rng = np.random.default_rng(38)
    cases = [(relax, medium)]
    for _ in range(100):
        rates = dict(zip(("coh_ml", "coh_gl", "coh_mn", "coh_gn", "coh_nl", "coh_gm"),
                         rng.uniform(5.0, 300.0, 6)))
        cases.append((replace(relax, **rates), replace(medium, p_n=rng.uniform(0.001, 0.5))))
    for r, m in cases:
        q = dp.QuadratureSpec.for_medium(sch, m)
        assert dp._norm_constant.__wrapped__(sch, r, m, q) == _norm_by_average(sch, r, m, q)


def test_normalization_at_rest_sums_the_velocity_nodes(preset, monkeypatch):
    # at u = 0 the slopes vanish and the normalization is _average's pass
    sch, relax, medium, _ = preset
    q0 = dp.QuadratureSpec(u=0.0)
    expected = _norm_by_average(sch, relax, medium, q0)
    calls = []
    average = dp._average
    monkeypatch.setattr(dp, "_average", lambda *a: calls.append(a) or average(*a))
    assert dp._norm_constant.__wrapped__(sch, relax, medium, q0) == expected
    assert len(calls) == 1


def test_sweep_solves_the_drive_sector_once(preset, quad, monkeypatch):
    # the pole sums find the drive poles once for the whole sweep, and the
    # normalization none; the velocity rule solves each velocity class once
    sch, relax, medium, fields = preset
    dp._norm_constant.cache_clear()
    sector = dp._drive_sector
    points = []

    def counted(relax, p_n, alpha, beta, G1, G3):
        points.append(len(G1))
        return sector(relax, p_n, alpha, beta, G1, G3)

    monkeypatch.setattr(dp, "_drive_sector", counted)
    sweep = np.linspace(-20.0, 20.0, 5)
    scans.spectra_scan(sch, relax, medium, fields, sweep, quad=quad)
    assert points == [1]

    solve = lv.drive_steady_state_batch
    systems = []

    def solved(relax, p_n, om1p, om3p, G1, G3):
        systems.append(np.broadcast(om1p, om3p, G1, G3).size)
        return solve(relax, p_n, om1p, om3p, G1, G3)

    monkeypatch.setattr(lv, "drive_steady_state_batch", solved)
    dp._node_sums(sch, relax, medium, quad, fields, sweep, fields.g10, fields.g30)
    assert sum(systems) == quad.nodes()[0].size


def test_pass_memory_does_not_grow_with_the_columns(preset, quad):
    # a sweep's probe detunings and sources live for one group of probe
    # blocks, so eight times the columns cost what the fewer do plus their
    # averages; both counts span several groups, whatever their size
    sch, relax, medium, fields = preset
    small, big = 2 * dp._GROUP_BLOCKS, 16 * dp._GROUP_BLOCKS

    def columns(n):
        return np.linspace(-400.0, 400.0, n)

    dp._average(sch, relax, medium, quad, fields, columns(big), fields.g10, fields.g30)  # warm
    peaks, out = {}, {}
    for n in (small, big):
        cols = columns(n)
        tracemalloc.start()
        try:
            _, means = dp._average(sch, relax, medium, quad, fields, cols, fields.g10, fields.g30)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out[n] = means.nbytes
    assert peaks[big] <= 1.1 * peaks[small] + out[big], (peaks, out)


def test_sweep_grouping_keeps_the_bits(preset, quad, monkeypatch):
    # a sweep at one drive point goes in groups of _GROUP_BLOCKS columns; a
    # lone column, groups that leave a shorter last group and groups larger
    # than the sweep all give the same averages, bit for bit
    sch, relax, medium, fields = preset
    sweep = np.linspace(-400.0, 400.0, 129)
    results = []
    for group in (1, 7, 64, 512, 130):
        monkeypatch.setattr(dp, "_GROUP_BLOCKS", group)
        results.append(dp._average(sch, relax, medium, quad, fields, sweep, fields.g10,
                                   fields.g30))
    for ratios, means in results[1:]:
        assert np.array_equal(ratios, results[0][0])
        assert np.array_equal(means, results[0][1])


def test_non_finite_coefficient_raises(preset, quad, monkeypatch):
    sch, relax, medium, fields = preset
    dp._norm_constant(sch, relax, medium, quad)

    def nan_means(drive, point, block, slopes):
        return np.full((4, len(point)), np.nan + 0j), np.zeros(len(point))

    monkeypatch.setattr(dp, "_probe_means", nan_means)
    with pytest.raises(dp.AveragingError, match="non-finite"):
        dp.average_coefficients(sch, relax, medium, fields, 100.0, 40.0, quad)

    # three columns on a 3 x 4 grid make one group of probe blocks, column
    # after column; one block, column 1 at drive point (1, 2), and the one
    # after it turn NaN, and the error names the first
    monkeypatch.undo()
    means = dp._probe_means

    def nan_blocks(drive, point, block, slopes):
        values, spread = means(drive, point, block, slopes)
        values[:, 12 + 6:12 + 8] = np.nan
        return values, spread

    monkeypatch.setattr(dp, "_probe_means", nan_blocks)
    grid = dp.DriveGrid(sch, relax, medium, fields, np.linspace(0.0, 100.0, 3),
                        np.linspace(0.0, 40.0, 4), quad)
    with pytest.raises(dp.AveragingError,
                       match=r"non-finite averaged coefficient at omega4 = 155 MHz, "
                             r"drive point \(1, 2\)$"):
        grid.tables(np.array([150.0, 155.0, 160.0]))


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
