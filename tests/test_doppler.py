"""Velocity averaging by pole sums, normalization, the velocity rule and the Voigt oracle."""

import math
import re
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    columns = [fields.with_omega4(om) for om in (0.0, 35.0, 155.0, 300.0)]
    poles = dp._average(sch, relax, medium, dp.QuadratureSpec.for_medium(sch, medium),
                        columns, fields.g10, fields.g30)
    errors = []
    for n in (1311, 2621):
        quad = dp.QuadratureSpec.for_medium(sch, medium, n=n)
        oracle = dp._node_sums(sch, relax, medium, quad, columns, fields.g10, fields.g30)
        scale = dp._node_sums(sch, relax, medium, quad, columns,
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
            ratios, (means,) = dp._node_sums(sch, relax, medium, quad, [f], fields.g10, fields.g30)
            poles, (exact,) = dp._average(sch, relax, medium, quad, [f], fields.g10, fields.g30)
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
    columns = [FieldConfig(omega1=om[0], omega3=om[1], omega4=w4) for w4 in om[2:]]
    poles = dp._average(sch, relax, medium, quad, columns, g1, g3)
    oracle = dp._node_sums(sch, relax, medium, quad, columns, g1, g3)
    scale = dp._node_sums(sch, relax, medium, quad, columns, g1, g3, modulus=True)
    assert _worst(poles, oracle, scale) <= 1e-10


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
    column = [fields.with_omega4(omega4)]
    with dp.pole_stats() as stats:
        got = dp._average(sch, relax, medium, quad, column, 0.0, g3)
    assert stats.exceptional == 1 and stats.worst_condition <= dp._COALESCING
    # the probe responses there are the oracle's sum over the same rule,
    # while the drive poles, which do not coalesce, still give the ratios
    oracle = dp._node_sums(sch, relax, medium, quad, column, 0.0, g3)
    assert np.array_equal(got[1][0], oracle[1][0])
    fine = dp.QuadratureSpec.for_medium(sch, medium, n=8001)
    oracle = dp._node_sums(sch, relax, medium, fine, column, 0.0, g3)
    scale = dp._node_sums(sch, relax, medium, fine, column, 0.0, g3, modulus=True)
    assert _worst(got, oracle, scale) < 1e-12
    # a little way off, the poles are apart enough for the pole sums, which
    # the fine oracle confirms
    for shift in (1e-3, 1e-5):
        with dp.pole_stats() as stats:
            got = dp._average(sch, relax, medium, quad, column, 0.0, g3 * (1 + shift))
        assert stats.exceptional == 0
        oracle = dp._node_sums(sch, relax, medium, fine, column, 0.0, g3 * (1 + shift))
        scale = dp._node_sums(sch, relax, medium, fine, column, 0.0,
                              g3 * (1 + shift), modulus=True)
        assert _worst(got, oracle, scale) < 1e-10


def test_coalescing_drive_poles_are_averaged_by_the_rule(preset, quad):
    # with Gamma_mn / D3 = Gamma_gl / D1 and Omega3 / D3 = Omega1 / D1 the two
    # drive Lorentzians share their poles, which weak drives barely split:
    # the drive point, ratios and every column, goes to the velocity rule
    sch, relax, medium, _ = preset
    d1, _, d3, _ = lv.doppler_shifts(sch, quad.u)
    twin = replace(relax, coh_mn=relax.coh_gl * d3 / d1)
    columns = [FieldConfig(omega1=30.0, omega3=30.0 * d3 / d1, omega4=w4) for w4 in (50.0, 100.0)]
    with dp.pole_stats() as stats:
        got = dp._average(sch, twin, medium, quad, columns, 1e-3, 1e-3)
    assert stats.exceptional == 1
    assert all(np.array_equal(a, b) for a, b in zip(
        _fields(*got), _fields(*dp._node_sums(sch, twin, medium, quad, columns, 1e-3, 1e-3))))
    fine = dp.QuadratureSpec.for_medium(sch, medium, n=8001, span=6.0)
    oracle = dp._node_sums(sch, twin, medium, fine, columns, 1e-3, 1e-3)
    scale = dp._node_sums(sch, twin, medium, fine, columns, 1e-3, 1e-3, modulus=True)
    assert _worst(got, oracle, scale) < 1e-12


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
        dp._node_sums(sch, dead, medium, quad, [fields], 0.0, 0.0)


def test_grid_failure_names_the_velocity_node(preset, quad):
    # without rho_nl coherence decay the probe block is singular where the
    # Raman detuning vanishes, at v = 0 for omega4 = omega3; the rule on a
    # drive grid names the same velocity node as at a single drive point
    sch, relax, medium, fields = preset
    dead = replace(relax, coh_nl=0.0)
    raman = fields.with_omega4(fields.omega3)
    with pytest.raises(dp.AveragingError) as point:
        dp._node_sums(sch, dead, medium, quad, [raman], 50.0, 20.0)
    with pytest.raises(dp.AveragingError) as info:
        dp._node_sums(sch, dead, medium, quad, [raman],
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
        dp._node_sums(sch, no_g_decay, medium, quad, [fields],
                      np.array([100.0, 50.0, 0.0])[:, None],
                      np.array([0.0, 20.0])[None, :])
    assert "velocity node 0 (v = " in str(info.value)
    assert "drive point (2, 0)" in str(info.value)


def test_failure_in_a_later_chunk_on_a_worker_names_the_same_node(preset, quad):
    # on a 40 x 24 grid a chunk of the velocity rule holds 17 classes, so
    # the singular probe block at v = 0 lies in a later chunk, and the grid
    # names the node a single point names.  The pole sums split the grid among
    # workers: every thread count gives the same tables, bit for bit
    sch, relax, medium, fields = preset
    dead = replace(relax, coh_nl=0.0)
    raman = fields.with_omega4(fields.omega3)
    g1, g3 = np.linspace(0.0, 100.0, 40), np.linspace(0.0, 40.0, 24)
    with pytest.raises(dp.AveragingError) as point:
        dp._node_sums(sch, dead, medium, quad, [raman], 50.0, 20.0)
    node = re.search(r"velocity node (\d+) \(v = [-0-9.]+ m/s\)", str(point.value))
    assert int(node.group(1)) // (lv._CHUNK // (40 * 24)) > 3
    with pytest.raises(dp.AveragingError) as info:
        dp._node_sums(sch, dead, medium, quad, [fields, raman], g1[:, None], g3[None, :])
    assert node.group() in str(info.value) and "drive point (0, 0)" in str(info.value)
    grid = dp.DriveGrid(sch, relax, medium, fields, g1, g3, quad)
    tables = [grid.tables([fields, raman], threads=threads) for threads in (1, 2, 3)]
    assert all(np.array_equal(t, tables[0]) for t in tables)


def test_grid_memory_stays_bounded_as_nodes_double(preset):
    # the velocity rule keeps one chunk of classes at a time: the probe
    # sources of every class at every drive point would take 6 nv n1 n3
    # complex numbers
    sch, relax, medium, fields = preset
    columns = [fields.with_omega4(150.0), fields.with_omega4(160.0)]
    g1, g3 = np.linspace(0.0, 105.0, 40)[:, None], np.linspace(0.0, 42.0, 24)[None, :]
    peaks = {}
    for n in (1311, 2621):
        quad = dp.QuadratureSpec.for_medium(sch, medium, n=n)
        tracemalloc.start()
        try:
            dp._node_sums(sch, relax, medium, quad, columns, g1, g3)
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


def test_sweep_solves_the_drive_sector_once(preset, quad, monkeypatch):
    # the pole sums find the drive poles once for the whole sweep and once
    # for the normalization; the velocity rule solves each velocity class once
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
    assert points == [1, 1]

    solve = lv.drive_steady_state_batch
    systems = []

    def solved(relax, p_n, om1p, om3p, G1, G3):
        systems.append(np.broadcast(om1p, om3p, G1, G3).size)
        return solve(relax, p_n, om1p, om3p, G1, G3)

    monkeypatch.setattr(lv, "drive_steady_state_batch", solved)
    dp._node_sums(sch, relax, medium, quad,
                  [fields.with_omega4(x) for x in sweep], fields.g10, fields.g30)
    assert sum(systems) == quad.nodes()[0].size


def test_pass_memory_does_not_grow_with_the_columns(preset, quad):
    # a sweep's probe detunings and sources live for one chunk, so 800
    # columns cost what 100 do plus their averages
    sch, relax, medium, fields = preset

    def columns(n):
        return [fields.with_omega4(float(x)) for x in np.linspace(-400.0, 400.0, n)]

    dp._average(sch, relax, medium, quad, columns(800), fields.g10, fields.g30)  # warm caches
    peaks, out = {}, {}
    for n in (100, 800):
        cols = columns(n)
        tracemalloc.start()
        try:
            _, means = dp._average(sch, relax, medium, quad, cols, fields.g10, fields.g30)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out[n] = sum(sys.getsizeof(m) for m in means)
    assert peaks[800] <= 1.1 * peaks[100] + out[800], (peaks, out)


def test_non_finite_coefficient_raises(preset, quad, monkeypatch):
    sch, relax, medium, fields = preset
    dp._norm_constant(sch, relax, medium, quad)

    def nan_means(drive, point, block, slopes):
        return np.full((4, len(point)), np.nan + 0j), np.zeros(len(point))

    monkeypatch.setattr(dp, "_probe_means", nan_means)
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
