"""Four-wave integration, coefficient cache and gain map plumbing."""

import numpy as np
import pytest

from lcq import coupledwave as cw
from lcq import doppler as dp
from lcq import propagate as pg
from lcq import scans
from lcq.scheme import FieldConfig, na2_preset


@pytest.fixture(scope="module")
def preset():
    return na2_preset()


@pytest.fixture(scope="module")
def quad(preset):
    sch, _, medium, _ = preset
    return dp.QuadratureSpec.for_medium(sch, medium)


@pytest.fixture(scope="module")
def dressed_fields():
    return FieldConfig(omega1=0.0, omega3=100.0, omega4=160.0,
                       g10=100.0, g30=40.0, e40=1e-3, e20=0.0)


@pytest.fixture(scope="module")
def dressed_cache(preset, quad, dressed_fields):
    sch, relax, medium, _ = preset
    return pg.CoefficientCache.build(sch, relax, medium, dressed_fields, quad,
                                     validate_probes=0)


# --------------------------------------------------------------------------
# rhs
# --------------------------------------------------------------------------

def state(g1, g3, e4, e2):
    return np.array([[g1, g3, e4, e2]], dtype=complex)


def test_rhs_zero_coefficients(preset):
    sch = preset[0]
    coeffs = dp.MacroscopicCoefficients(0, 0, 0, 0, 0, 0, 0, 0, 0j, 0j)
    d = pg.rhs(state(80 + 1j, 30 - 2j, 0.1j, 0.05), coeffs.to_vector()[None], sch)
    assert d.shape == (1, 4) and np.all(d == 0j)


def test_rhs_probes_off_drives_standalone(preset, quad, dressed_fields):
    sch, relax, medium, _ = preset
    mc = dp.average_coefficients(sch, relax, medium, dressed_fields, 100.0, 40.0, quad)
    dg1, dg3, de4, de2 = pg.rhs(state(100.0, 40.0, 0.0, 0.0), mc.to_vector()[None], sch)[0]
    assert dg1 == 1j * mc.sigma(1) * 100.0
    assert dg3 == 1j * mc.sigma(3) * 40.0
    assert de4 == 0 and de2 == 0


def test_rhs_probe_sector_matches_reduced_system(preset, quad, dressed_fields):
    # with the drive product real and positive, the probe block of the full
    # right-hand side is exactly the reduced two-field system at z = 0
    sch, relax, medium, _ = preset
    mc = dp.average_coefficients(sch, relax, medium, dressed_fields, 100.0, 40.0, quad)
    rng = np.random.default_rng(8)
    for _ in range(100):
        e4 = complex(rng.normal(), rng.normal()) * 1e-3
        e2 = complex(rng.normal(), rng.normal()) * 1e-3
        _, _, de4, de2 = pg.rhs(state(100.0, 40.0, e4, e2), mc.to_vector()[None], sch)[0]
        ref4 = 1j * mc.sigma(4) * e4 + 1j * mc.gamma4 * np.conj(e2)
        ref2 = 1j * mc.sigma(2) * e2 + 1j * mc.gamma2 * np.conj(e4)
        assert abs(de4 - ref4) <= 1e-8 * max(abs(ref4), 1e-12)
        assert abs(de2 - ref2) <= 1e-8 * max(abs(ref2), 1e-12)


def test_rhs_back_action_present_and_quadratic(preset, quad, dressed_fields):
    sch, relax, medium, _ = preset
    mc = dp.average_coefficients(sch, relax, medium, dressed_fields, 100.0, 40.0, quad)
    row = mc.to_vector()[None]
    back1 = pg.rhs(state(100.0, 40.0, 1e-2, 1e-2), row, sch)[0, 0] - 1j * mc.sigma(1) * 100.0
    back2 = pg.rhs(state(100.0, 40.0, 2e-2, 2e-2), row, sch)[0, 0] - 1j * mc.sigma(1) * 100.0
    assert abs(back1) > 0
    assert abs(back2 / back1) == pytest.approx(4.0, rel=1e-9)


# --------------------------------------------------------------------------
# integrate
# --------------------------------------------------------------------------

def test_beer_lambert_drives_off(preset, quad):
    sch, relax, medium, _ = preset
    fields = FieldConfig(omega1=0, omega3=100, omega4=37.0,
                         g10=0.0, g30=0.0, e40=0.1, e20=0.05)
    mc = dp.average_coefficients(sch, relax, medium, fields, 0.0, 0.0, quad)
    trace = pg.integrate(sch, relax, medium, fields, L=20.0, steps=2000,
                         quad=quad, error_estimate=False)
    for ratio, alpha, amp0 in (
        (np.abs(trace.e4) ** 2 / abs(fields.e40) ** 2, mc.alpha4, fields.e40),
        (np.abs(trace.e2) ** 2 / abs(fields.e20) ** 2, mc.alpha2, fields.e20),
    ):
        expected = np.exp(-alpha * trace.z)
        assert np.max(np.abs(ratio - expected) / expected) < 1e-6


def test_frozen_coefficients_reproduce_closed_form(preset, quad):
    sch, relax, medium, _ = preset
    fields = FieldConfig(omega1=0.0, omega3=100.0, omega4=160.0,
                         g10=100.0, g30=40.0, e40=1e-3, e20=2e-4j)
    trace = pg.integrate(sch, relax, medium, fields, L=10.0, steps=4000,
                         quad=quad, freeze_coefficients=True, error_estimate=False)
    mc = dp.average_coefficients(sch, relax, medium, fields, 100.0, 40.0, quad)
    c = cw.OpaCoefficients.from_macroscopic(mc)
    e4ref, e2cref = cw.opa_solution(
        c, cw.BoundaryAmplitudes(fields.e40, fields.e20), trace.z)
    rel4 = np.max(np.abs(np.abs(trace.e4) - np.abs(e4ref)) / np.abs(e4ref))
    assert rel4 < 1e-8
    nonzero = np.abs(e2cref) > 1e-9 * np.max(np.abs(e2cref))
    rel2 = np.max(np.abs(np.abs(trace.e2[nonzero]) - np.abs(e2cref[nonzero]))
                  / np.abs(e2cref[nonzero]))
    assert rel2 < 1e-8


def test_trace_structure(preset, quad, dressed_fields, dressed_cache):
    sch, relax, medium, _ = preset
    trace = pg.integrate(sch, relax, medium, dressed_fields, L=5.0, steps=500,
                         quad=quad, cache=dressed_cache, error_estimate=False,
                         record_at=np.array([1.25, 3.3]))
    assert trace.z[0] == 0.0 and trace.z[-1] == 5.0
    assert np.all(np.diff(trace.z) > 0)
    assert trace.z.size >= 257
    assert trace.g1[0] == dressed_fields.g10
    assert trace.e4[0] == dressed_fields.e40
    assert len(trace.coefficients) == trace.z.size
    for ztarget in (1.25, 3.3):
        idx = trace.index_of(ztarget)
        assert trace.z[idx] == ztarget
    with pytest.raises(KeyError):
        trace.index_of(1.24999)


def test_step_halving_convergence(preset, quad, dressed_fields, dressed_cache):
    sch, relax, medium, _ = preset
    trace = pg.integrate(sch, relax, medium, dressed_fields, L=40.0, steps=2000,
                         quad=quad, cache=dressed_cache, error_estimate=True)
    assert trace.error_estimate is not None
    assert trace.error_estimate < 1e-4


def test_probe_scale_linearity(preset, quad, dressed_fields, dressed_cache):
    # probes never feed back into the coefficients, so scaling both probe
    # inputs scales the whole probe trace; the quadratic back-action breaks
    # this only in second order, and the boundary scale is chosen so that
    # even the parametrically amplified probes keep that term below 1e-10
    sch, relax, medium, base = preset
    f1 = FieldConfig(omega1=0.0, omega3=100.0, omega4=160.0,
                     g10=100.0, g30=40.0, e40=3e-6, e20=6e-7)
    f2 = FieldConfig(omega1=0.0, omega3=100.0, omega4=160.0,
                     g10=100.0, g30=40.0, e40=9e-6, e20=18e-7)
    t1 = pg.integrate(sch, relax, medium, f1, L=11.0, steps=1000, quad=quad,
                      cache=dressed_cache, error_estimate=False)
    t2 = pg.integrate(sch, relax, medium, f2, L=11.0, steps=1000, quad=quad,
                      cache=dressed_cache, error_estimate=False)
    rel = np.abs(t2.e4 - 3.0 * t1.e4) / np.maximum(np.abs(t2.e4), 1e-300)
    assert np.max(rel) < 1e-10


# runaway artificial gain: amplitudes overflow within a few lengths
RUNAWAY = dp.MacroscopicCoefficients(
    alpha1=0.0, alpha2=-600.0, alpha3=0.0, alpha4=-600.0,
    deltak1=0.0, deltak2=0.0, deltak3=0.0, deltak4=0.0,
    gamma4=0j, gamma2=0j,
)


def test_nonfinite_abort_reports_position(preset, quad):
    sch, relax, medium, _ = preset

    class Exploding(pg.CoefficientCache):
        def __init__(self):
            self.fallbacks = 0
            self.columns = [None]

        def rows(self, col, g1_abs, g3_abs):
            return np.tile(RUNAWAY.to_vector(), (len(col), 1))

    fields = FieldConfig(omega1=0, omega3=100, omega4=0.0,
                         g10=10.0, g30=10.0, e40=1.0, e20=0.0)
    with pytest.raises(pg.PropagationError) as err:
        with np.errstate(over="ignore", invalid="ignore"):
            pg.integrate(sch, relax, medium, fields, L=20.0, steps=200,
                         quad=quad, cache=Exploding(), error_estimate=False)
    assert 0.0 < err.value.z <= 20.0


def test_integrate_input_validation(preset, quad, dressed_fields):
    sch, relax, medium, _ = preset
    with pytest.raises(ValueError):
        pg.integrate(sch, relax, medium, dressed_fields, L=0.0, quad=quad)
    with pytest.raises(ValueError):
        pg.integrate(sch, relax, medium, dressed_fields, L=5.0, steps=50, quad=quad)


# --------------------------------------------------------------------------
# cache
# --------------------------------------------------------------------------

def test_cache_validation_passes(preset, quad, dressed_fields):
    sch, relax, medium, _ = preset
    cache = pg.CoefficientCache.build(sch, relax, medium, dressed_fields, quad,
                                      validate_probes=50)
    assert cache.fallbacks == 0
    assert 0.0 < cache.validation_error < 1e-4


def test_unvalidated_cache_reports_no_error(dressed_cache):
    assert dressed_cache.validation_error is None


def test_cache_matches_direct_at_grid_nodes(preset, quad, dressed_fields, dressed_cache):
    # all 12 table fields, at interior, corner and zero-drive nodes, within
    # 1e-12 of each field's scale over the table
    sch, relax, medium, _ = preset
    scale = np.max(np.abs(dressed_cache.tables[0]), axis=(0, 1))
    g1, g3 = dressed_cache.g1_grid, dressed_cache.g3_grid
    for i, j in ((17, 5), (-1, -1), (0, 0), (0, 9), (40, 0)):
        direct = dp.average_coefficients(sch, relax, medium, dressed_fields,
                                         float(g1[i]), float(g3[j]), quad)
        interp = dressed_cache.lookup(float(g1[i]), float(g3[j]))
        assert np.all(np.abs(interp.to_vector() - direct.to_vector()) <= 1e-12 * scale)


def test_cache_out_of_bounds_falls_back(preset, quad, dressed_fields, dressed_cache):
    sch, relax, medium, _ = preset
    before = dressed_cache.fallbacks
    direct = dp.average_coefficients(sch, relax, medium, dressed_fields,
                                     150.0, 10.0, quad)
    got = dressed_cache.lookup(150.0, 10.0)
    assert dressed_cache.fallbacks == before + 1
    assert got.alpha4 == direct.alpha4


def test_cache_on_off_trace_agreement(preset, quad, dressed_fields, dressed_cache):
    # the accuracy contract of the cache: transmitted amplitude within 1e-3
    # of the direct (uncached) integration
    sch, relax, medium, _ = preset
    on = pg.integrate(sch, relax, medium, dressed_fields, L=20.0, steps=600,
                      quad=quad, cache=dressed_cache, error_estimate=False,
                      min_samples=41)
    off = pg.integrate(sch, relax, medium, dressed_fields, L=20.0, steps=600,
                       quad=quad, cache=None, error_estimate=False,
                       min_samples=41)
    rel = np.abs(np.abs(on.e4) - np.abs(off.e4)) / np.maximum(np.abs(off.e4), 1e-300)
    assert np.max(rel) < 1e-3


# --------------------------------------------------------------------------
# gain map
# --------------------------------------------------------------------------

def test_gain_map_drives_off_is_beer_lambert(preset, quad):
    sch, relax, medium, _ = preset
    base = FieldConfig(omega1=0, omega3=100, omega4=0.0,
                       g10=0.0, g30=0.0, e40=0.1, e20=0.0)
    om4 = np.array([0.0, 150.0, 300.0])
    lengths = np.array([0.0, 2.0, 8.0])
    res = pg.gain_map(sch, relax, medium, base, om4, lengths,
                      steps=400, quad=quad, use_cache=False)
    assert res.valid.all()
    for i, om in enumerate(om4):
        mc = dp.average_coefficients(sch, relax, medium,
                                     base.with_omega4(float(om)), 0.0, 0.0, quad)
        for j, L in enumerate(lengths):
            assert res.ratio[i, j] == pytest.approx(np.exp(-mc.alpha4 * L), rel=1e-6)


def test_gain_map_grid_validation(preset, quad):
    sch, relax, medium, fields = preset
    with pytest.raises(ValueError):
        pg.gain_map(sch, relax, medium, fields, np.array([]), np.array([1.0]), quad=quad)
    with pytest.raises(ValueError):
        pg.gain_map(sch, relax, medium, fields, np.array([1.0, 0.5]),
                    np.array([1.0]), quad=quad)


def test_gain_map_threads_deterministic(preset, quad):
    sch, relax, medium, fields = preset
    om4 = np.array([140.0, 160.0])
    lengths = np.array([0.0, 5.0, 11.0])
    kw = dict(steps=400, quad=quad, cache_n1=40, cache_n3=24,
              validate_probes_first=0, validate_probes_rest=0)
    a = pg.gain_map(sch, relax, medium, fields, om4, lengths, threads=1, **kw)
    b = pg.gain_map(sch, relax, medium, fields, om4, lengths, threads=2, **kw)
    assert np.array_equal(a.ratio, b.ratio)


@pytest.fixture(scope="module")
def coarse_quad(preset):
    sch, _, medium, _ = preset
    return dp.QuadratureSpec.for_medium(sch, medium, n=301)


def test_gain_map_column_matches_lone_trajectory(preset, coarse_quad):
    # a column steps inside the batch exactly as it would alone on the same table
    sch, relax, medium, fields = preset
    om4 = np.array([150.0, 155.0, 160.0])
    lengths = np.array([0.0, 3.0, 6.0])
    res = pg.gain_map(sch, relax, medium, fields, om4, lengths, steps=400,
                      quad=coarse_quad, cache_n1=40, cache_n3=24,
                      validate_probes_first=0, validate_probes_rest=0)
    assert res.valid.all()
    for i, om in enumerate(om4):
        f = fields.with_omega4(float(om))
        cache = pg.CoefficientCache.build(sch, relax, medium, f, coarse_quad,
                                          n1=40, n3=24, validate_probes=0)
        trace = pg.integrate(sch, relax, medium, f, L=6.0, steps=400, quad=coarse_quad,
                             cache=cache, error_estimate=False, record_at=lengths[1:])
        for j, L in enumerate(lengths):
            alone = abs(trace.e4[trace.index_of(float(L))]) ** 2 / abs(f.e40) ** 2
            assert res.ratio[i, j] == pytest.approx(alone, rel=1e-12, abs=0.0)


def test_g10_sweep_point_matches_lone_trajectory(preset, coarse_quad):
    sch, relax, medium, fields = preset
    base = fields.with_omega4(155.0)
    sweep = np.array([70.0, 85.0, 100.0])
    recs = scans.switching_curve(sch, relax, medium, base, L=4.0, sweep=sweep,
                                 axis="g10", steps=300, quad=coarse_quad)
    # the sweep's own cache: G1 nodes scaled with the largest swept drive
    top = base.with_drives(100.0, base.g30)
    cache = pg.CoefficientCache.build(sch, relax, medium, top, coarse_quad,
                                      n1=96, validate_probes=0)
    for rec, g10 in zip(recs, sweep):
        f = base.with_drives(g10, base.g30)
        trace = pg.integrate(sch, relax, medium, f, L=4.0, steps=300, quad=coarse_quad,
                             cache=cache, error_estimate=False)
        alone = abs(trace.e4[-1]) ** 2 / abs(f.e40) ** 2
        assert rec.values["i4_ratio"] == pytest.approx(alone, rel=1e-12, abs=0.0)


def test_runaway_column_leaves_the_others_alone(preset, coarse_quad, monkeypatch):
    sch, relax, medium, fields = preset
    om4 = np.array([150.0, 155.0, 160.0])
    lengths = np.array([0.0, 3.0, 6.0])
    kw = dict(steps=300, quad=coarse_quad, cache_n1=40, cache_n3=24,
              validate_probes_first=0, validate_probes_rest=0)
    clean = pg.gain_map(sch, relax, medium, fields, om4, lengths, **kw)
    tabulate = dp.DriveGrid.coefficients_for

    def runaway_at_155(grid, f):
        table = tabulate(grid, f)
        if f.omega4 == 155.0:
            table[...] = RUNAWAY.to_vector()
        return table

    monkeypatch.setattr(dp.DriveGrid, "coefficients_for", runaway_at_155)
    res = pg.gain_map(sch, relax, medium, fields, om4, lengths, **kw)
    assert np.array_equal(res.valid[1], [True, False, False])
    assert res.ratio[1, 0] == 1.0 and np.isnan(res.ratio[1, 1:]).all()
    keep = [0, 2]
    assert res.valid[keep].all()
    assert np.array_equal(res.ratio[keep], clean.ratio[keep])
