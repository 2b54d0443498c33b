"""Four-wave integration, coefficient cache and gain map plumbing."""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from lcq import cli
from lcq import coupledwave as cw
from lcq import doppler as dp
from lcq import propagate as pg
from lcq import scans
from lcq.scheme import ConfigError, FieldConfig, na2_preset


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
    return pg.CoefficientCache.build(sch, relax, medium, [dressed_fields], quad)


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
    # with the drives' self-coefficients zeroed the drive rows are the
    # back-action alone; subtracting a self term 1e7 times larger instead
    # leaves rounding noise of about 1e-9 relative in the difference
    sch, relax, medium, _ = preset
    mc = dp.average_coefficients(sch, relax, medium, dressed_fields, 100.0, 40.0, quad)
    row = mc.to_vector()[None]
    row[:, [0, 1, 4, 5]] = 0.0  # sigma1 and sigma3
    back1 = pg.rhs(state(100.0, 40.0, 1e-2, 1e-2), row, sch)[0, 0]
    back2 = pg.rhs(state(100.0, 40.0, 2e-2, 2e-2), row, sch)[0, 0]
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
    cache = pg.CoefficientCache.build(sch, relax, medium, [fields], quad)
    trace = pg.integrate(sch, relax, medium, fields, L=20.0, steps=2000, quad=quad, cache=cache)
    for ratio, alpha, amp0 in (
        (np.abs(trace.e4) ** 2 / abs(fields.e40) ** 2, mc.alpha4, fields.e40),
        (np.abs(trace.e2) ** 2 / abs(fields.e20) ** 2, mc.alpha2, fields.e20),
    ):
        expected = np.exp(-alpha * trace.z)
        assert np.max(np.abs(ratio - expected) / expected) < 1e-6


class ConstantRows(pg.CoefficientCache):
    """A stub cache of one column, ``fields``, whose rows are ``mc`` at every drive amplitude."""

    def __init__(self, mc, fields):
        self.fallbacks, self.validation_error = 0, None
        self.fields, self.omega4 = fields, np.array([fields.omega4])
        self.g1_grid = self.g3_grid = np.zeros(1)
        self.row = mc.to_vector()

    def reader(self, col, leave=None):
        return lambda a: np.tile(self.row, (len(col), 1))


def test_frozen_coefficients_reproduce_closed_form(preset, quad):
    # rows pinned to their z = 0 values reduce the probe pair to the
    # constant-coefficient solution
    sch, relax, medium, _ = preset
    fields = FieldConfig(omega1=0.0, omega3=100.0, omega4=160.0,
                         g10=100.0, g30=40.0, e40=1e-3, e20=2e-4j)
    mc = dp.average_coefficients(sch, relax, medium, fields, 100.0, 40.0, quad)
    trace = pg.integrate(sch, relax, medium, fields, L=10.0, steps=4000,
                         quad=quad, cache=ConstantRows(mc, fields))
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
                         quad=quad, cache=dressed_cache,
                         record_at=np.array([1.25, 3.3]))
    assert trace.z[0] == 0.0 and trace.z[-1] == 5.0
    assert np.array_equal(trace.z, [0.0, 1.25, 3.3, 5.0])
    assert trace.g1[0] == dressed_fields.g10
    assert trace.e4[0] == dressed_fields.e40
    for amplitudes in (trace.g1, trace.g3, trace.e4, trace.e2):
        assert amplitudes.shape == trace.z.shape and np.isfinite(amplitudes).all()
    for ztarget in (1.25, 3.3):
        idx = trace.index_of(ztarget)
        assert trace.z[idx] == ztarget
    with pytest.raises(KeyError):
        trace.index_of(1.24999)


def test_step_halving_convergence(preset, quad, dressed_fields, dressed_cache):
    # |E4| at 2000 steps against 4000, twice each interval's steps, over its peak
    sch, relax, medium, _ = preset
    coarse, fine = (pg.integrate(sch, relax, medium, dressed_fields, L=40.0, steps=steps,
                                 quad=quad, cache=dressed_cache) for steps in (2000, 4000))
    assert coarse.error_estimate is None
    e4 = np.abs(coarse.e4)
    assert np.max(np.abs(e4 - np.abs(fine.e4))) / np.max(e4) < 1e-4


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
                      cache=dressed_cache)
    t2 = pg.integrate(sch, relax, medium, f2, L=11.0, steps=1000, quad=quad,
                      cache=dressed_cache)
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

    fields = FieldConfig(omega1=0, omega3=100, omega4=0.0,
                         g10=10.0, g30=10.0, e40=1.0, e20=0.0)
    with pytest.raises(pg.PropagationError) as err:
        with np.errstate(over="ignore", invalid="ignore"):
            pg.integrate(sch, relax, medium, fields, L=20.0, steps=200,
                         quad=quad, cache=ConstantRows(RUNAWAY, fields))
    assert 0.0 < err.value.z <= 20.0


def test_cache_without_a_column_for_the_trajectory_is_refused(preset, quad, dressed_fields,
                                                              dressed_cache):
    # the cache holds omega4 = 160 MHz alone; no other column stands in for 155 MHz
    sch, relax, medium, _ = preset
    with pytest.raises(ValueError, match="no cache column"):
        pg.integrate(sch, relax, medium, dressed_fields.with_omega4(155.0), L=5.0, steps=200,
                     quad=quad, cache=dressed_cache)


def test_integrate_input_validation(preset, quad, dressed_fields):
    sch, relax, medium, _ = preset
    with pytest.raises(ValueError):
        pg.integrate(sch, relax, medium, dressed_fields, L=0.0, quad=quad)
    with pytest.raises(ValueError):
        pg.integrate(sch, relax, medium, dressed_fields, L=5.0, steps=50, quad=quad)


def test_record_positions_join_the_samples_once_and_must_be_finite(preset, quad):
    # the runner's positions are z = 0, the record positions and L, each once
    sch, relax, medium, fields = preset
    cache = ConstantRows(dp.MacroscopicCoefficients(0, 0, 0, 0, 0, 0, 0, 0, 0j, 0j), fields)
    y0 = np.array([[fields.g10, fields.g30, fields.e40, fields.e20]], dtype=complex)
    record = [5.0, 1.0, 5.0, 10.0, 0.0]
    z, states, report = pg._run(sch, relax, medium, [fields], y0, 10.0, record, 200, quad, cache)
    assert np.array_equal(z, [0.0, 1.0, 5.0, 10.0])
    assert np.array_equal(z, np.union1d([0.0, 10.0], record))
    assert states.shape == (4, 1, 4) and np.isnan(report.failed_at).all()
    for bad in (np.nan, np.inf, -np.inf, -1.0, 11.0):
        with pytest.raises(ValueError, match="record positions"):
            pg._run(sch, relax, medium, [fields], y0, 10.0, [bad, 5.0], 200, quad, cache)


# --------------------------------------------------------------------------
# cache
# --------------------------------------------------------------------------

def test_cache_grid_stops_at_2048_g1_nodes(preset, coarse_quad, monkeypatch):
    # 0.8 nodes per MHz would ask 2400 |G1| nodes at 3000 MHz; the grid is
    # sized without tabulating it
    sch, relax, medium, fields = preset
    grids = []

    class Sized(Exception):
        pass

    def drive_grid(scheme, relax, medium, field, g1_grid, g3_grid, quad):
        grids.append((g1_grid, g3_grid))
        raise Sized

    monkeypatch.setattr(pg, "DriveGrid", drive_grid)
    with pytest.raises(Sized):
        pg.CoefficientCache.build(sch, relax, medium, [fields.with_drives(3000.0, fields.g30)],
                                  coarse_quad)
    (g1_grid, g3_grid), = grids
    assert g1_grid.size == 2048 and g3_grid.size == 12
    assert g1_grid[-1] == pytest.approx(1.05 * 3000.0)
    assert g3_grid[[0, -1]] == pytest.approx([0.5 * fields.g30, 1.05 * fields.g30])


def test_cache_validation_passes(preset, quad, dressed_fields):
    sch, relax, medium, _ = preset
    cache = pg.CoefficientCache.build(sch, relax, medium, [dressed_fields], quad)
    assert cache.fallbacks == 0
    assert 0.0 < cache.validation_error < 1e-4


def test_unvalidated_cache_reports_no_error(dressed_cache):
    # only build validates; a cache made from its tables reports no error
    c = dressed_cache
    cache = pg.CoefficientCache(c.scheme, c.relax, c.medium, c.fields, c.omega4, c.quad,
                                c.g1_grid, c.g3_grid, c.tables)
    assert cache.validation_error is None


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


@pytest.fixture(scope="module")
def three_column_cache(preset, coarse_quad):
    sch, relax, medium, fields = preset
    columns = [fields.with_omega4(om) for om in (150.0, 155.0, 170.0)]
    return pg.CoefficientCache.build(sch, relax, medium, columns, coarse_quad)


def chebyshev_tables(cache, rng):
    """Tables (3, n1, n3, 12) of polynomials of degree n1 - 1 in |G1| and n3 - 1 in |G3|, and
    the polynomials, sums of c T_k(s1) T_l(s3) with random c, s the amplitude mapped from the
    axis's span onto [-1, 1]."""
    g1, g3 = cache.g1_grid, cache.g3_grid
    k = np.array([0, 1, 7, g1.size - 1])
    ll = np.array([0, 2, g3.size - 1])
    c = rng.normal(size=(3, k.size, ll.size, 12))

    def chebyshev(degrees, x, nodes):
        s = 2.0 * (np.asarray(x)[:, None] - nodes[0]) / (nodes[-1] - nodes[0]) - 1.0
        return np.cos(degrees * np.arccos(np.clip(s, -1, 1)))

    def poly(col, x1, x3):
        return np.einsum("nk,nl,nklf->nf", chebyshev(k, x1, g1), chebyshev(ll, x3, g3), c[col])

    x1, x3 = (a.ravel() for a in np.meshgrid(g1, g3, indexing="ij"))
    tables = np.stack([poly(np.full(x1.size, col), x1, x3) for col in range(3)])
    return tables.reshape(3, g1.size, g3.size, 12), poly


def test_rows_are_the_tensor_chebyshev_interpolant(three_column_cache):
    # every node reads its table row exactly; for tables that are
    # polynomials of degree below n1 by n3, random points, the grid's edges
    # and its corners read the polynomial within 1e-13 of each field's scale
    cache = three_column_cache
    g1, g3 = cache.g1_grid, cache.g3_grid
    nodes1, nodes3 = (a.ravel() for a in np.meshgrid(g1, g3, indexing="ij"))
    for col in range(cache.omega4.size):
        got = cache.rows(np.full(nodes1.size, col), nodes1, nodes3)
        assert np.array_equal(got, cache.tables[col].reshape(-1, 12))
    rng = np.random.default_rng(5)
    tables, poly = chebyshev_tables(cache, rng)
    exact = pg.CoefficientCache(cache.scheme, cache.relax, cache.medium, cache.fields,
                                cache.omega4, cache.quad, g1, g3, tables)
    edge1, edge3 = rng.uniform(0.0, g1[-1], 10), rng.uniform(g3[0], g3[-1], 10)
    points = np.concatenate([
        np.column_stack([rng.uniform(0.0, g1[-1], 200), rng.uniform(g3[0], g3[-1], 200)]),
        np.column_stack([edge1, np.full(10, g3[0])]),
        np.column_stack([edge1, np.full(10, g3[-1])]),
        np.column_stack([np.zeros(10), edge3]), np.column_stack([np.full(10, g1[-1]), edge3]),
        [(0.0, g3[0]), (0.0, g3[-1]), (g1[-1], g3[0]), (g1[-1], g3[-1])],
    ])
    for col in range(cache.omega4.size):
        scale = np.max(np.abs(tables[col]), axis=(0, 1))
        cols = np.full(len(points), col)
        got = exact.rows(cols, points[:, 0], points[:, 1])
        assert np.all(np.abs(got - poly(cols, points[:, 0], points[:, 1])) <= 1e-13 * scale)
    assert cache.fallbacks == 0 and exact.fallbacks == 0


def test_rows_of_a_batch_equal_lone_rows_bitwise(three_column_cache):
    cache = three_column_cache
    rng = np.random.default_rng(6)
    col = rng.integers(0, cache.omega4.size, 40)
    g1 = rng.uniform(0.0, cache.g1_grid[-1], 40)
    g3 = rng.uniform(cache.g3_grid[0], cache.g3_grid[-1], 40)
    batch = cache.rows(col, g1, g3)
    assert len(set(col.tolist())) == cache.omega4.size
    for k in range(40):
        assert np.array_equal(batch[k], cache.rows(col[k:k + 1], g1[k:k + 1], g3[k:k + 1])[0])


def test_reader_over_interleaved_columns_gives_each_row_its_lone_read(three_column_cache):
    # a reader splits its batch, as it comes, into runs of one column; a
    # batch with its columns interleaved and repeated gets its rows and the
    # mask of the point that leaves below the grid in its own order, and
    # each row has the bits of its lone read
    cache = three_column_cache
    before = cache.fallbacks
    rng = np.random.default_rng(8)
    col = np.array([2, 0, 2, 1, 0])
    a = np.column_stack([rng.uniform(0.0, cache.g1_grid[-1], col.size),
                         rng.uniform(cache.g3_grid[0], cache.g3_grid[-1], col.size)])
    a[2, 1] = 0.5 * cache.g3_grid[0]
    left = []
    rows = cache.reader(col, left.append)(a)
    [mask] = left
    assert mask.tolist() == [False, False, True, False, False] and np.isnan(rows[2]).all()
    for k in (0, 1, 3, 4):
        lone = cache.reader(col[k:k + 1])(a[k:k + 1])
        assert np.array_equal(rows[k].view(np.uint8), lone[0].view(np.uint8)), k
    assert cache.fallbacks == before


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_rows_do_not_depend_on_the_grid_scale(three_column_cache, scale):
    # the barycentric weights do not scale with the grid, so drives of
    # 1e-200 MHz neither overflow nor lose the interpolant
    cache = three_column_cache
    scaled = pg.CoefficientCache(cache.scheme, cache.relax, cache.medium, cache.fields,
                                 cache.omega4, cache.quad, scale * cache.g1_grid,
                                 scale * cache.g3_grid, cache.tables)
    rng = np.random.default_rng(7)
    col = rng.integers(0, cache.omega4.size, 100)
    g1 = rng.uniform(0.0, cache.g1_grid[-1], 100)
    g3 = rng.uniform(cache.g3_grid[0], cache.g3_grid[-1], 100)
    field_scale = np.max(np.abs(cache.tables), axis=(0, 1, 2))
    got = scaled.rows(col, scale * g1, scale * g3)
    assert np.all(np.abs(got - cache.rows(col, g1, g3)) <= 1e-13 * field_scale)
    assert scaled.fallbacks == 0


def test_cache_retains_little_beyond_its_tables(preset, coarse_quad):
    # the interpolant reads the node tables themselves; a
    # piecewise-polynomial layout would keep 16 coefficients per cell
    sch, relax, medium, fields = preset
    columns = [fields.with_omega4(om) for om in np.linspace(140.0, 170.0, 16)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cache = pg.CoefficientCache.build(sch, relax, medium, columns, coarse_quad)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained <= 3 * cache.tables.nbytes


def test_cache_on_off_trace_agreement(preset, quad, dressed_fields, dressed_cache):
    # the accuracy contract of the cache: transmitted amplitude within 1e-3
    # of the direct (uncached) integration
    sch, relax, medium, _ = preset
    on = pg.integrate(sch, relax, medium, dressed_fields, L=20.0, steps=600,
                      quad=quad, cache=dressed_cache,
                      record_at=np.linspace(0.0, 20.0, 41))
    off = pg.integrate(sch, relax, medium, dressed_fields, L=20.0, steps=600,
                       quad=quad, cache=None,
                       record_at=np.linspace(0.0, 20.0, 41))
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
    res = pg.gain_map(sch, relax, medium, base, om4, lengths, steps=400, quad=quad)
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


@pytest.fixture(scope="module")
def coarse_quad(preset):
    sch, _, medium, _ = preset
    return dp.QuadratureSpec.for_medium(sch, medium, n=301)


def test_gain_map_column_matches_lone_trajectory(preset, coarse_quad):
    # a column steps inside the batch exactly as it would alone on the same table
    sch, relax, medium, fields = preset
    om4 = np.array([150.0, 155.0, 160.0])
    lengths = np.array([0.0, 3.0, 6.0])
    res = pg.gain_map(sch, relax, medium, fields, om4, lengths, steps=400, quad=coarse_quad)
    assert res.valid.all()
    for i, om in enumerate(om4):
        f = fields.with_omega4(float(om))
        cache = pg.CoefficientCache.build(sch, relax, medium, [f], coarse_quad)
        trace = pg.integrate(sch, relax, medium, f, L=6.0, steps=400, quad=coarse_quad,
                             cache=cache, record_at=lengths[1:])
        for j, L in enumerate(lengths):
            alone = abs(trace.e4[trace.index_of(float(L))]) ** 2 / abs(f.e40) ** 2
            assert res.ratio[i, j] == pytest.approx(alone, rel=1e-12, abs=0.0)


def test_g10_sweep_point_matches_lone_trajectory(preset, coarse_quad):
    sch, relax, medium, fields = preset
    base = fields.with_omega4(155.0)
    sweep = np.array([70.0, 85.0, 100.0])
    curve = scans.switching_curve(sch, relax, medium, base, L=4.0, sweep=sweep,
                                  axis="g10", steps=300, quad=coarse_quad)
    # the sweep's own cache, built for the largest swept drive
    top = base.with_drives(100.0, base.g30)
    cache = pg.CoefficientCache.build(sch, relax, medium, [top], coarse_quad)
    for ratio, g10 in zip(curve["i4_ratio"], sweep):
        f = base.with_drives(g10, base.g30)
        trace = pg.integrate(sch, relax, medium, f, L=4.0, steps=300, quad=coarse_quad,
                             cache=cache, record_at=[4.0])
        alone = abs(trace.e4[-1]) ** 2 / abs(f.e40) ** 2
        assert ratio == pytest.approx(alone, rel=1e-12, abs=0.0)


def test_runaway_column_leaves_the_others_alone(preset, coarse_quad, monkeypatch):
    sch, relax, medium, fields = preset
    om4 = np.array([150.0, 155.0, 160.0])
    lengths = np.array([0.0, 3.0, 6.0])
    kw = dict(steps=300, quad=coarse_quad)
    clean = pg.gain_map(sch, relax, medium, fields, om4, lengths, **kw)
    # the runaway table would fail its column's validation; the point here
    # is the propagation, so the build skips it
    monkeypatch.setattr(pg.CoefficientCache, "_validate", lambda cache: None)
    tabulate = dp.DriveGrid.tables

    def runaway_at_155(grid, omega4):
        tables = tabulate(grid, omega4)
        for table, w in zip(tables, omega4):
            if w == 155.0:
                table[...] = RUNAWAY.to_vector()
        return tables

    monkeypatch.setattr(dp.DriveGrid, "tables", runaway_at_155)
    res = pg.gain_map(sch, relax, medium, fields, om4, lengths, **kw)
    assert np.array_equal(res.valid[1], [True, False, False])
    assert res.ratio[1, 0] == 1.0 and np.isnan(res.ratio[1, 1:]).all()
    keep = [0, 2]
    assert res.valid[keep].all()
    assert np.array_equal(res.ratio[keep], clean.ratio[keep])
    # a switching curve has no cell to drop: its failed point fails the curve
    with pytest.raises(pg.PropagationError):
        scans.switching_curve(sch, relax, medium, fields, L=3.0, sweep=om4, axis="omega4", **kw)


# --------------------------------------------------------------------------
# cache builder
# --------------------------------------------------------------------------

def test_build_validates_columns_in_order(preset, coarse_quad, monkeypatch):
    # every column gets the same 50 probe points, in column order, in the
    # build's one direct-averaging pass
    sch, relax, medium, fields = preset
    calls = []
    direct = pg._direct_rows

    def spy(*args):
        calls.append(args[5:])
        return direct(*args)

    monkeypatch.setattr(pg, "_direct_rows", spy)
    with pg.step_reports() as reports:
        pg.gain_map(sch, relax, medium, fields, np.array([150.0, 155.0, 160.0]),
                    np.array([0.0, 2.0]), steps=100, quad=coarse_quad)
    omega4, g1, g3 = calls[0]
    assert np.array_equal(omega4, np.repeat([150.0, 155.0, 160.0], 50))
    points = np.column_stack((g1, g3)).reshape(3, 50, 2)
    assert np.array_equal(points, np.broadcast_to(points[0], points.shape))
    [(_, report)] = reports
    assert 0.0 < report.validation_error < 1e-4


@pytest.mark.parametrize("group", [1, 2, 3])
def test_build_tables_match_drive_grid(preset, coarse_quad, monkeypatch, group):
    # the probe columns go through each batch of drive points in groups of
    # 1, 2 or 3; five columns divide by neither 2 nor 3, and every grouping
    # gives the tables of a lone column, bit for bit
    sch, relax, medium, fields = preset
    columns = [fields.with_omega4(om) for om in (150.0, 152.5, 155.0, 157.5, 160.0)]
    g1, g3 = pg._drive_nodes(abs(fields.g10), abs(fields.g30), True)
    batches = -(-g1.size * g3.size // dp._POINTS_PER_BATCH)
    assert g1.size * g3.size % batches == 0
    monkeypatch.setattr(dp, "_GROUP_BLOCKS", group * (g1.size * g3.size // batches))
    cache = pg.CoefficientCache.build(sch, relax, medium, columns, coarse_quad)
    assert np.array_equal(cache.g1_grid, g1) and np.array_equal(cache.g3_grid, g3)
    assert cache.g1_grid[-1] == pytest.approx(1.05 * abs(fields.g10), rel=1e-15)
    assert cache.g3_grid[-1] == pytest.approx(1.05 * abs(fields.g30), rel=1e-15)
    grid = dp.DriveGrid(sch, relax, medium, fields, cache.g1_grid, cache.g3_grid, coarse_quad)
    omega4 = [f.omega4 for f in columns]
    assert np.array_equal(cache.tables, grid.tables(omega4))
    for table, f in zip(cache.tables, columns):
        assert np.array_equal(table, grid.coefficients_for(f))


def test_negative_g10_sweep_mirrors_positive(preset, coarse_quad, monkeypatch):
    # the sweep's cache spans the largest |G10|, so no point of a negative
    # sweep falls back, and G10 -> -G10 only flips the drive-product phase
    sch, relax, medium, fields = preset
    base = fields.with_omega4(155.0)
    caches = []
    build = pg.CoefficientCache.build.__func__

    def spy(cls, *args, **kwargs):
        caches.append(build(cls, *args, **kwargs))
        return caches[-1]

    monkeypatch.setattr(pg.CoefficientCache, "build", classmethod(spy))
    ratios = {}
    for sweep in (np.array([50.0, 100.0]), np.array([-100.0, -50.0])):
        curve = scans.switching_curve(sch, relax, medium, base, L=1.0, sweep=sweep,
                                      axis="g10", steps=100, quad=coarse_quad)
        for g10, ratio in zip(curve["g10"], curve["i4_ratio"]):
            ratios.setdefault(abs(g10), []).append(ratio)
    assert [c.fallbacks for c in caches] == [0, 0]
    for positive, negative in ratios.values():
        assert negative == pytest.approx(positive, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("run", [
    pytest.param(lambda sch, relax, medium, f, quad: pg.gain_map(
        sch, relax, medium, f, np.array([150.0, 155.0]), np.array([0.0, 2.0]),
        steps=50, quad=quad), id="gain_map-steps"),
    pytest.param(lambda sch, relax, medium, f, quad: pg.gain_map(
        sch, relax, medium, f, np.array([150.0, 155.0]), np.array([0.0]),
        quad=quad), id="gain_map-length"),
    pytest.param(lambda sch, relax, medium, f, quad: scans.spatial_dynamics(
        sch, relax, medium, f, L=2.0, steps=50, quad=quad), id="dynamics-steps"),
    pytest.param(lambda sch, relax, medium, f, quad: scans.spatial_dynamics(
        sch, relax, medium, f, L=0.0, quad=quad), id="dynamics-length"),
    pytest.param(lambda sch, relax, medium, f, quad: scans.switching_curve(
        sch, relax, medium, f, L=2.0, sweep=np.array([60.0, 100.0]), axis="g10",
        steps=50, quad=quad), id="g10-sweep-steps"),
])
def test_bad_steps_or_length_fail_before_the_cache_is_built(preset, coarse_quad, monkeypatch, run):
    sch, relax, medium, fields = preset

    def build(cls, *args, **kwargs):
        raise AssertionError("cache built before the step count and length were checked")

    monkeypatch.setattr(pg.CoefficientCache, "build", classmethod(build))
    with pytest.raises(ConfigError):
        run(sch, relax, medium, fields.with_omega4(155.0), coarse_quad)


@pytest.mark.parametrize("g10_config", [0.001, 0.0, 100.0])
def test_g10_sweep_node_count_follows_the_sweep(preset, coarse_quad, monkeypatch, g10_config):
    # the configured G10 plays no part in a G10 sweep: the cache has 0.8 G1
    # nodes per MHz of the largest swept |G10|, at least 80.  The spy reads
    # the count from the built cache and stops before the propagation
    sch, relax, medium, fields = preset
    asked = []
    build = pg.CoefficientCache.build.__func__

    class Stop(Exception):
        pass

    def spy(cls, *args, **kwargs):
        asked.append(build(cls, *args, **kwargs).g1_grid.size)
        raise Stop

    monkeypatch.setattr(pg.CoefficientCache, "build", classmethod(spy))
    base = fields.with_drives(g10_config, fields.g30).with_omega4(155.0)
    for sweep in (np.linspace(60.0, 100.0, 5), np.linspace(60.0, 105.0, 25),
                  np.array([-120.0, 10.0]), np.array([5.0, 20.0])):
        with pytest.raises(Stop):
            scans.switching_curve(sch, relax, medium, base, L=10.0, sweep=sweep,
                                  axis="g10", quad=coarse_quad)
    assert asked == [80, 84, 96, 80]


# --------------------------------------------------------------------------
# one coefficient path
# --------------------------------------------------------------------------

@pytest.mark.parametrize("n, drives", [(1, True), (50, True), (4, False)])
def test_paired_column_matches_pointwise_average_bitwise(preset, quad, n, drives):
    # n points, each at its own probe detuning and drives (some or all of
    # them zero), make one paired column whose rows are the lone averages
    sch, relax, medium, fields = preset
    rng = np.random.default_rng(n)
    om4 = rng.uniform(-300.0, 300.0, n)
    g1, g3 = rng.uniform(0.0, 150.0, (2, n)) * drives
    g1[1::7], g3[2::5] = 0.0, 0.0
    paired = dp.coefficient_tables(sch, relax, medium, quad, fields, om4, g1, g3)
    for k in range(n):
        lone = dp.average_coefficients(sch, relax, medium, fields.with_omega4(float(om4[k])),
                                       float(g1[k]), float(g3[k]), quad)
        assert np.array_equal(paired[k], lone.to_vector())


def test_rows_are_read_only_by_rk4_stages(preset, quad):
    # four reads per RK4 step and none at the trace samples
    sch, relax, medium, fields = preset
    mc = dp.average_coefficients(sch, relax, medium, fields, 100.0, 40.0, quad)

    class Counting(ConstantRows):
        calls = 0

        def reader(self, col, leave=None):
            read = super().reader(col, leave)

            def counting(a):
                Counting.calls += 1
                return read(a)

            return counting

    pg.integrate(sch, relax, medium, fields, L=4.0, steps=200, quad=quad,
                 cache=Counting(mc, fields), record_at=np.linspace(0.0, 4.0, 5))
    assert Counting.calls == 4 * 200


def test_rhs_is_called_four_times_per_step(preset, coarse_quad, monkeypatch):
    # the benchmark's tracer counts RK4 steps as the calls of the
    # module-level rhs over four, with a cache or without one
    sch, relax, medium, fields = preset
    calls = []
    rhs = pg.rhs

    def counting(*args, **kwargs):
        calls.append(None)
        return rhs(*args, **kwargs)

    monkeypatch.setattr(pg, "rhs", counting)
    base = fields.with_omega4(155.0)
    batch = [base, base.with_omega4(160.0)]
    cache = pg.CoefficientCache.build(sch, relax, medium, batch, coarse_quad)
    pg.integrate(sch, relax, medium, base, L=2.0, steps=200, quad=coarse_quad, cache=cache,
                 record_at=np.linspace(0.0, 2.0, 5))
    assert len(calls) == 4 * 200
    # transmission steps through its lengths alone, so steps is the step count
    pg.transmission(sch, relax, medium, batch, np.array([0.0, 2.0]),
                    steps=512, quad=coarse_quad, cache=cache)
    assert len(calls) == 4 * (200 + 512)
    pg.transmission(sch, relax, medium, [base.with_drives(base.g10, 0.0)], np.array([2.0]),
                    steps=256, quad=coarse_quad)
    assert len(calls) == 4 * (200 + 512 + 256)
    pg.transmission(sch, relax, medium, batch, np.array([2.0]),
                    steps=100, quad=coarse_quad, cache=cache)
    assert len(calls) == 4 * (200 + 512 + 256 + 100)


def test_each_interval_takes_its_rounded_share_of_the_steps(preset, quad):
    # 2000 steps over 30 intervals of 1 L4 give each interval round(66.7) = 67
    sch, relax, medium, fields = preset
    mc = dp.average_coefficients(sch, relax, medium, fields, 100.0, 40.0, quad)
    calls = []

    class Counting(ConstantRows):
        def reader(self, col, leave=None):
            read = super().reader(col, leave)

            def counting(a):
                calls.append(None)
                return read(a)

            return counting

    trace = pg.integrate(sch, relax, medium, fields, L=30.0, steps=2000, quad=quad,
                         cache=Counting(mc, fields), record_at=np.linspace(0.0, 30.0, 31))
    assert len(calls) == 4 * 30 * 67
    assert trace.error_estimate is None


# --------------------------------------------------------------------------
# the embedded pair: the default step count
# --------------------------------------------------------------------------

# on the dressed cache's column at 80 L4, G10 = 50 MHz takes fewer steps
# than G10 = 100 MHz, which rejects one on the way; the probe input 1e150
# lifts the drives off the grid in the first step
EMBEDDED_LENGTHS = np.array([0.0, 40.0, 80.0])


@pytest.fixture(scope="module")
def embedded_batch(dressed_fields):
    return [dressed_fields.with_drives(50.0, 40.0), dressed_fields,
            replace(dressed_fields, e40=1e150)]


def test_embedded_pair_sizes_each_trajectory_as_its_lone_run(preset, quad, dressed_cache,
                                                             embedded_batch):
    sch, relax, medium, _ = preset
    ratio, failed_at, report = pg.transmission(sch, relax, medium, embedded_batch,
                                               EMBEDDED_LENGTHS, quad=quad, cache=dressed_cache)
    assert report.requested is None
    assert 0 < report.steps[0] < report.steps[1] and report.rejected[1] > 0
    assert (report.error[:2] <= pg._STEP_TOL).all() and np.isnan(report.error[2])
    # the runaway's first step turns non-finite: one stage at z = 0, six in the step
    assert np.isnan(failed_at[:2]).all() and 0.0 < failed_at[2] <= 40.0
    assert report.steps[2] == 0 and report.stages[2] == 7
    for k, f in enumerate(embedded_batch):
        lone, lone_failed_at, lone_report = pg.transmission(
            sch, relax, medium, [f], EMBEDDED_LENGTHS, quad=quad, cache=dressed_cache)
        assert np.array_equal(ratio[k], lone[0], equal_nan=True)
        assert np.array_equal(failed_at[k], lone_failed_at[0], equal_nan=True)
        for name in ("steps", "rejected", "stages", "error"):
            assert np.array_equal(getattr(report, name)[k], getattr(lone_report, name)[0],
                                  equal_nan=True)


def test_embedded_pair_estimate_bounds_the_error(preset, quad, dressed_cache, embedded_batch):
    # against 200 steps per L4, whose own error is about 1e-13 of the peak
    sch, relax, medium, _ = preset
    batch = embedded_batch[:2]
    y0 = np.array([[f.g10, f.g30, f.e40, f.e20] for f in batch], dtype=complex)
    for L, record in ((80.0, EMBEDDED_LENGTHS), (10.0, np.linspace(0.0, 10.0, 5))):
        _, states, report = pg._run(sch, relax, medium, batch, y0, L, record, None, quad,
                                    dressed_cache)
        _, ref, _ = pg._run(sch, relax, medium, batch, y0, L, record, int(200 * L), quad,
                            dressed_cache)
        error = (np.abs(states - ref) / np.max(np.abs(ref), axis=0)).max(axis=(0, 2))
        assert (report.error <= pg._STEP_TOL).all()
        assert (error <= 3.0 * report.error).all()
        # first same as last: one stage at z = 0, then six per step tried
        assert (report.stages == 1 + 6 * (report.steps + report.rejected)).all()


def test_embedded_pair_past_the_cap_is_a_named_failure(preset, coarse_quad, dressed_fields,
                                                       monkeypatch, tmp_path, capsys):
    # the cap sits strictly between the steps the runs take uncapped: to
    # 80 L4 the preset's 100 MHz column is short (alone in the map and in
    # the switch call, which records 80 L4 alone), the dressed trajectory
    # and the 160 MHz column are long
    sch, relax, medium, fields = preset
    cache = pg.CoefficientCache.build(sch, relax, medium, [dressed_fields], coarse_quad)
    switch = ["switch", "--omega4", "100:160:2", "--length", "80", "--quad", "301"]

    with pg.step_reports() as reports:
        pg.integrate(sch, relax, medium, dressed_fields, L=80.0, quad=coarse_quad, cache=cache,
                     record_at=EMBEDDED_LENGTHS)
        pg.gain_map(sch, relax, medium, fields, np.array([100.0, 160.0]), EMBEDDED_LENGTHS,
                    quad=coarse_quad)
    [dressed], [short, long] = (report.steps.tolist() for _, report in reports)
    assert cli.main([*switch, "--out", str(tmp_path / "free.csv")]) == 0
    steps = json.loads((tmp_path / "free.csv.manifest.json").read_text())["steps"]
    short, long = max(short, steps["min"]), min(dressed, long, steps["max"])
    cap = (short + long) // 2
    assert short < cap < long, (dressed, reports, steps)
    capsys.readouterr()
    monkeypatch.setattr(pg, "_STEPS_MAX", cap)
    with pytest.raises(pg.PropagationError, match=f"cap of {cap} steps") as err:
        pg.integrate(sch, relax, medium, dressed_fields, L=80.0, quad=coarse_quad, cache=cache,
                     record_at=EMBEDDED_LENGTHS)
    assert 0.0 < err.value.z < 80.0
    res = pg.gain_map(sch, relax, medium, fields, np.array([100.0, 160.0]), EMBEDDED_LENGTHS,
                      quad=coarse_quad)
    assert res.valid.tolist() == [[True, True, True], [True, False, False]]
    assert cli.main([*switch, "--out", str(tmp_path / "switch.csv")]) == 3
    message = capsys.readouterr().err
    assert message.startswith(f"numerical failure: adaptive steps reach the cap of {cap} steps")


class DriveRows(pg.CoefficientCache):
    """A stub cache of one column whose only non-zero entry is sigma1, ``sigma1(|G1|)``."""

    def __init__(self, fields, sigma1):
        self.fallbacks, self.validation_error = 0, None
        self.fields, self.omega4 = fields, np.array([fields.omega4])
        self.g1_grid = self.g3_grid = np.zeros(1)
        self.sigma1 = sigma1

    def reader(self, col, leave=None):
        def read(a):
            rows = np.zeros((len(col), 6), dtype=complex)
            rows[:, 0] = self.sigma1(a[:, 0])
            return rows.view(float)

        return read


def test_embedded_pair_ends_a_trajectory_at_a_non_finite_trial(preset, dressed_fields):
    # |G1| decays as exp(-z / 20) and its rows turn NaN below 90 MHz, from
    # z = 20 ln(100 / 90) = 2.1 L4 at G10 = 100 MHz; at G10 = 200 MHz they never do
    sch, relax, medium, _ = preset
    cache = DriveRows(dressed_fields, lambda g1: np.where(g1 > 90.0, 0.05j, np.nan))
    batch = [dressed_fields.with_drives(g10, 40.0) for g10 in (100.0, 200.0)]
    lengths = np.array([0.0, 1.0, 10.0])
    ratio, failed_at, report = pg.transmission(sch, relax, medium, batch, lengths, cache=cache)
    # the trial that turned NaN ends its trajectory where it would have
    # landed; it is not tried again with a shorter step
    assert 20.0 * np.log(100.0 / 90.0) < failed_at[0] < 10.0 and np.isnan(failed_at[1])
    assert report.rejected[0] == 1 and report.cause[0] is None
    assert np.isnan(ratio[0, 1:]).all() and np.isfinite(ratio[1]).all()
    assert str(report.failure(0)).startswith("non-finite field amplitude at z =")
    lone, _, lone_report = pg.transmission(sch, relax, medium, batch[1:], lengths, cache=cache)
    assert np.array_equal(ratio[1], lone[0]) and report.steps[1] == lone_report.steps[0]


def test_embedded_pair_names_a_step_size_underflow(preset, dressed_fields, tmp_path):
    # |G1|' = |G1|**2 / 200 runs to infinity at z = 200 / |G10|: at G10 =
    # 100 MHz the steps shrink toward z = 2 until one no longer moves z;
    # at G10 = 10 MHz, |G1|(10 L4) = 20 MHz
    sch, relax, medium, _ = preset
    cache = DriveRows(dressed_fields, lambda g1: -1j * g1 / 200.0)
    with pytest.raises(pg.PropagationError, match="step size underflow") as err:
        pg.integrate(sch, relax, medium, dressed_fields, L=10.0, cache=cache,
                     record_at=np.array([0.0, 10.0]))
    assert err.value.z == pytest.approx(2.0, rel=1e-6)
    assert "at z = 2 L4" in str(err.value)
    gentle = dressed_fields.with_drives(10.0, 40.0)
    trace = pg.integrate(sch, relax, medium, gentle, L=10.0, cache=cache,
                         record_at=np.array([0.0, 10.0]))
    assert abs(trace.g1[-1]) == pytest.approx(20.0, rel=1e-6)


@pytest.mark.parametrize("run", ["gainmap", "switch --g10"])
def test_benchmark_runs_stay_within_1e6_of_their_peaks_against_16000_steps(preset, quad, run):
    # the benchmark's gain map (four columns, 0-30 L4) and G10 sweep (25
    # points at 155 MHz, 10 L4): a gain-map column against its peak over
    # the lengths, a sweep point against its own value
    sch, relax, medium, fields = preset
    if run == "gainmap":
        batch = [fields.with_omega4(om) for om in np.linspace(150.0, 160.0, 4)]
        lengths = np.linspace(0.0, 30.0, 31)
    else:
        batch = [fields.with_omega4(155.0).with_drives(g10, fields.g30)
                 for g10 in np.linspace(60.0, 105.0, 25)]
        lengths = np.array([10.0])
    cache = pg.CoefficientCache.build(sch, relax, medium, batch, quad)
    ratio, _, report = pg.transmission(sch, relax, medium, batch, lengths, quad=quad, cache=cache)
    ref, _, _ = pg.transmission(sch, relax, medium, batch, lengths, steps=16000, quad=quad,
                                cache=cache)
    peak = np.max(np.abs(ref), axis=1, keepdims=True)
    assert (np.abs(ratio - ref) <= 1e-6 * peak).all()
    # the rule that sized _STEP_TOL: half of that bound
    assert (np.abs(ratio - ref) <= 0.5e-6 * peak).all()
    assert (report.error <= pg._STEP_TOL).all()


def test_default_dynamics_stages_are_one_plus_six_per_step(preset, coarse_quad, monkeypatch):
    # 257 positions 1/128 L4 apart: each step is clipped to land on the next,
    # none is rejected, and each costs six stages after the first at z = 0
    sch, relax, medium, fields = preset
    calls = []
    rhs = pg.rhs

    def counting(y, *args):
        calls.append(len(y))
        return rhs(y, *args)

    monkeypatch.setattr(pg, "rhs", counting)
    with pg.step_reports() as reports:
        scans.spatial_dynamics(sch, relax, medium, fields.with_omega4(155.0), L=2.0,
                               quad=coarse_quad)
    [(_, report)] = reports
    assert report.steps.tolist() == [256] and report.rejected.tolist() == [0]
    assert len(calls) == 1 + 6 * 256 and report.stages.tolist() == [sum(calls)]


def _assert_lone_runs_equal_the_batch(preset, quad, batch, cache):
    sch, relax, medium, _ = preset
    lengths = np.array([0.0, 1.0, 2.0])
    ratio, failed_at, _ = pg.transmission(sch, relax, medium, batch, lengths, steps=256,
                                          quad=quad, cache=cache)
    for k, f in enumerate(batch):
        lone, lone_failed_at, _ = pg.transmission(sch, relax, medium, [f], lengths, steps=256,
                                                  quad=quad, cache=cache)
        assert np.array_equal(ratio[k], lone[0], equal_nan=True)
        assert np.array_equal(failed_at[k], lone_failed_at[0], equal_nan=True)
    return ratio, failed_at


def test_general_branches_leave_each_trajectory_its_lone_run(preset, coarse_quad):
    # a stage takes its general branch when a point leaves the cache's grid,
    # a drive is zero or an amplitude is not finite; every row of it is
    # still computed on its own, so each trajectory of a batch gives the
    # bits of its lone run.  Alone, the first trajectory takes the fast
    # path at every stage, in the batch the general one.  The probe inputs
    # 1e150 and 1e200 overflow the back-action at once, so those drives
    # turn infinite in one stage
    sch, relax, medium, fields = preset
    base = fields.with_omega4(155.0)
    cache = pg.CoefficientCache.build(sch, relax, medium, [base], coarse_quad)
    batch = [
        base,
        base.with_drives(1.1 * base.g10, base.g30),  # starts above the grid: falls back
        replace(base, e40=0.0, e20=0.0),             # zero probes: E40 becomes 1e-3 |G10|
        base.with_drives(0.0, base.g30),             # a zero drive
        replace(base, e40=1e150, e20=1e200),         # runaway
    ]
    before = cache.fallbacks
    ratio, failed_at = _assert_lone_runs_equal_the_batch(preset, coarse_quad, batch, cache)
    assert cache.fallbacks > before
    assert np.isnan(failed_at[:4]).all() and np.isfinite(ratio[:4]).all()
    assert 0.0 < failed_at[4] <= 2.0 and np.isnan(ratio[4, 1:]).all()
    # without a cache, the reference, every row is a direct average, and a drive is zero
    free = base.with_drives(base.g10, 0.0)
    ratio, failed_at = _assert_lone_runs_equal_the_batch(
        preset, coarse_quad, [free, replace(free.with_omega4(160.0), e40=0.0)], None)
    assert np.isnan(failed_at).all() and np.isfinite(ratio).all()


def test_runaway_drive_leaves_the_batch_as_failed(preset, coarse_quad):
    # the probe input 1e150 lifts the drives far above the grid while they
    # stay finite; a direct average there would overflow, so such a drive
    # counts as non-finite and only its trajectory fails
    sch, relax, medium, fields = preset
    base = fields.with_omega4(155.0)
    cache = pg.CoefficientCache.build(sch, relax, medium, [base], coarse_quad)
    ratio, failed_at = _assert_lone_runs_equal_the_batch(
        preset, coarse_quad, [base, replace(base, e40=1e150)], cache)
    assert np.isnan(failed_at[0]) and np.isfinite(ratio[0]).all()
    assert 0.0 < failed_at[1] <= 2.0 and np.isnan(ratio[1, 1:]).all()


def count_passes(monkeypatch):
    passes = []
    tabulate = dp.coefficient_tables

    def spy(*args, **kwargs):
        passes.append(args)
        return tabulate(*args, **kwargs)

    monkeypatch.setattr(dp, "coefficient_tables", spy)
    return passes


def test_zero_drive_run_averages_only_to_build_its_cache(preset, coarse_quad, monkeypatch):
    # zero drives stay exactly zero: the cache is the one node (0, 0), which
    # one pass tabulates and one validates, and the propagation averages nothing
    sch, relax, medium, _ = preset
    base = FieldConfig(omega1=0, omega3=100, omega4=0.0, g10=0.0, g30=0.0, e40=0.1, e20=0.05)
    passes = count_passes(monkeypatch)
    with pg.step_reports() as reports:
        res = pg.gain_map(sch, relax, medium, base, np.array([0.0, 150.0, 300.0]),
                          np.array([0.0, 5.0]), steps=200, quad=coarse_quad)
    assert len(passes) == 2 and res.valid.all()
    assert reports[0][1].validation_error <= 1e-12


def test_cache_free_run_averages_once_per_stage(preset, coarse_quad, monkeypatch):
    # without a cache, the reference, every stage is one pass for the whole
    # batch.  The run steps through its lengths alone, so 100 steps
    sch, relax, medium, fields = preset
    batch = [fields.with_omega4(om) for om in (150.0, 155.0, 160.0)]
    passes = count_passes(monkeypatch)
    pg.transmission(sch, relax, medium, batch, np.array([0.0, 2.0]), steps=100,
                    quad=coarse_quad, cache=None)
    assert len(passes) == 4 * 100
    assert all(np.shape(args[6]) == (3,) for args in passes)


@pytest.fixture(scope="module")
def g30_zero_map(preset, coarse_quad):
    sch, relax, medium, fields = preset
    base = fields.with_drives(fields.g10, 0.0)
    om4 = np.array([150.0, 155.0, 160.0])
    lengths = np.array([0.0, 1.5, 3.0])
    with pg.step_reports() as reports:
        res = pg.gain_map(sch, relax, medium, base, om4, lengths, steps=200, quad=coarse_quad)
    return base, res, reports[0][1]


def test_g30_zero_gain_map_column_matches_lone_trajectory(preset, coarse_quad, g30_zero_map):
    # G30 = 0 gives the |G3| axis the one node 0; a column steps in the
    # batch exactly as it would alone on the same cache
    sch, relax, medium, _ = preset
    base, res, report = g30_zero_map
    assert res.valid.all() and 0.0 < report.validation_error <= 1e-4
    columns = [base.with_omega4(float(om)) for om in res.omega4]
    cache = pg.CoefficientCache.build(sch, relax, medium, columns, coarse_quad)
    assert cache.g3_grid.tolist() == [0.0]
    for i, f in enumerate(columns):
        trace = pg.integrate(sch, relax, medium, f, L=3.0, steps=200, quad=coarse_quad,
                             cache=cache, record_at=res.lengths[1:])
        for j, L in enumerate(res.lengths):
            alone = abs(trace.e4[trace.index_of(float(L))]) ** 2 / abs(f.e40) ** 2
            assert res.ratio[i, j] == pytest.approx(alone, rel=1e-12, abs=0.0)
    assert report.fallbacks == 0


def test_g30_zero_gain_map_agrees_with_direct_averages(preset, coarse_quad, g30_zero_map):
    # the cache's tolerance, 1e-4 of each column's peak, against the
    # reference run that averages at every stage
    sch, relax, medium, _ = preset
    base, res, _ = g30_zero_map
    columns = [base.with_omega4(float(om)) for om in res.omega4]
    direct, _, _ = pg.transmission(sch, relax, medium, columns, res.lengths, steps=200,
                                   quad=coarse_quad, cache=None)
    peak = np.max(direct, axis=1, keepdims=True)
    assert (np.abs(res.ratio - direct) <= 1e-4 * peak).all()


def test_one_node_axis_reads_nonzero_amplitudes_directly(preset, coarse_quad):
    # a zero drive's axis has top 0, which judges no runaway: a non-zero
    # |G3| on a G30 = 0 cache is off the grid and averaged directly
    sch, relax, medium, fields = preset
    base = fields.with_drives(fields.g10, 0.0)
    cache = pg.CoefficientCache.build(sch, relax, medium, [base], coarse_quad)
    got = cache.lookup(50.0, 1.0).to_vector()
    direct = pg._direct_rows(sch, relax, medium, coarse_quad, base, np.array([base.omega4]),
                             np.array([50.0]), np.array([1.0]))[0]
    assert np.array_equal(got, direct) and cache.fallbacks == 1


def test_out_of_grid_points_fall_back_in_one_pass(preset, quad, dressed_fields, dressed_cache,
                                                  monkeypatch):
    # above the |G1| top, on the grid, above the |G3| top and below its bottom
    sch, relax, medium, _ = preset
    g1 = np.array([150.0, 50.0, 120.0, 10.0])
    g3 = np.array([30.0, 20.0, 60.0, 5.0])
    before = dressed_cache.fallbacks
    passes = count_passes(monkeypatch)
    rows = dressed_cache.rows(np.zeros(4, int), g1, g3)
    assert len(passes) == 1 and dressed_cache.fallbacks == before + 3
    for k in (0, 2, 3):
        direct = dp.average_coefficients(sch, relax, medium, dressed_fields,
                                         float(g1[k]), float(g3[k]), quad)
        assert np.array_equal(rows[k], direct.to_vector())


def test_reads_below_a_fitted_axis_fall_back_or_leave(preset, quad, dressed_fields,
                                                      dressed_cache):
    # the dressed trajectories share G30 = 40 MHz, so |G3| starts at 20 MHz;
    # outside a run a point below it is averaged directly and counted, and
    # a run's reader gives it a NaN row and names it instead
    sch, relax, medium, _ = preset
    assert dressed_cache.g3_grid[[0, -1]].tolist() == [20.0, 42.0]
    before = dressed_cache.fallbacks
    direct = dp.average_coefficients(sch, relax, medium, dressed_fields, 50.0, 5.0, quad)
    assert np.array_equal(dressed_cache.lookup(50.0, 5.0).to_vector(), direct.to_vector())
    assert dressed_cache.fallbacks == before + 1
    left = []
    read = dressed_cache.reader(np.zeros(2, int), left.append)
    rows = read(np.array([[50.0, 30.0], [50.0, 5.0]]))
    [mask] = left
    assert mask.tolist() == [False, True] and np.isnan(rows[1]).all()
    assert np.isfinite(rows[0]).all() and dressed_cache.fallbacks == before + 1


def test_validation_probes_span_the_fitted_grid(preset, coarse_quad, monkeypatch):
    sch, relax, medium, fields = preset
    calls = []
    direct = pg._direct_rows

    def spy(*args):
        calls.append(args[6:])
        return direct(*args)

    monkeypatch.setattr(pg, "_direct_rows", spy)
    cache = pg.CoefficientCache.build(sch, relax, medium, [fields.with_omega4(155.0)],
                                      coarse_quad)
    [(g1, g3)] = calls
    for probes, nodes in ((g1, cache.g1_grid), (g3, cache.g3_grid)):
        span = nodes[-1] - nodes[0]
        assert nodes[0] <= probes.min() < nodes[0] + 0.05 * span
        assert nodes[-1] - 0.05 * span < probes.max() <= nodes[-1]
    assert cache.g3_grid[0] == 0.5 * abs(fields.g30)


@pytest.mark.parametrize("steps", [None, 400])
def test_a_trajectory_that_leaves_a_fitted_axis_reruns_on_the_full_one(preset, coarse_quad,
                                                                      monkeypatch, steps):
    # at G30 = 5 MHz and 155 MHz, drive 3 falls to 0.41 |G30| by 20 L4 under
    # G10 = 100 MHz and to 0.65 |G30| under 60 MHz: the first leaves the
    # fitted axis [2.5, 5.25] MHz and runs again on the full one, the second
    # stays, and each gives the bits of its lone run; the report counts the
    # work of both passes
    sch, relax, medium, fields = preset
    base = fields.with_omega4(155.0)
    batch = [base.with_drives(60.0, 5.0), base.with_drives(100.0, 5.0)]
    lengths = np.array([0.0, 10.0, 20.0])
    cache = pg.CoefficientCache.build(sch, relax, medium, batch, coarse_quad)
    wide = cache.widened()
    # the full axis is the one of trajectories that do not share one |G30|
    full = pg.CoefficientCache.build(sch, relax, medium, [*batch, base.with_drives(60.0, 0.0)],
                                     coarse_quad)
    assert cache.g3_grid.size == 12 and wide.g3_grid.size == 20
    for a, b in ((wide.g1_grid, cache.g1_grid), (wide.g3_grid, full.g3_grid),
                 (wide.tables, full.tables)):
        assert np.array_equal(a, b)

    def run(trajectories, on):
        return pg.transmission(sch, relax, medium, trajectories, lengths, steps=steps,
                               quad=coarse_quad, cache=on)

    names = ("steps", "rejected", "stages", "error")
    passes = []
    one_pass = pg._pass

    def spy(*args):
        out = one_pass(*args)
        passes.append({name: getattr(out[1], name).copy() for name in names})
        return out

    monkeypatch.setattr(pg, "_pass", spy)
    ratio, failed_at, report = run(batch, cache)
    assert np.isnan(failed_at).all() and np.isfinite(ratio).all()
    assert report.reruns == 1 and report.fallbacks == 0
    assert report.validation_error == max(cache.validation_error, wide.validation_error)
    first, second = passes  # the batch, then trajectory 1 on the full axis
    for name in ("rejected", "stages"):
        assert getattr(report, name)[1] == first[name][1] + second[name][0]
    assert 0 < first["stages"][1] and report.stages[0] == first["stages"][0]
    for k, on, reruns in ((0, cache, 0), (1, cache, 1), (1, wide, 0)):
        lone, _, lone_report = run(batch[k:k + 1], on)
        assert np.array_equal(ratio[k], lone[0]) and lone_report.reruns == reruns
        got = {name: second[name][0] for name in names} if on is wide else {
            name: getattr(report, name)[k] for name in names}
        for name in names:
            assert np.array_equal(got[name], getattr(lone_report, name)[0], equal_nan=True)
    for name in ("steps", "error"):
        assert np.array_equal(getattr(report, name)[1], second[name][0], equal_nan=True)
