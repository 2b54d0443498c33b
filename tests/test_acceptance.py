"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines and timings.  The heavy transmission map is computed once and shared
by the criteria that consume it.
"""

import hashlib
import time

import numpy as np
import pytest

from lcq import cli
from lcq import coupledwave as cw
from lcq import doppler as dp
from lcq import liouville as lv
from lcq import propagate as pg
from lcq import reference
from lcq import scans
from lcq.scheme import (
    NA2_MASS_KG,
    RAD_PER_MHZ,
    FieldConfig,
    doppler_fwhm,
    na2_preset,
)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def preset():
    return na2_preset()


@pytest.fixture(scope="module")
def quad(preset):
    sch, _, medium, _ = preset
    return dp.QuadratureSpec.for_medium(sch, medium)


@pytest.fixture(scope="module")
def awi_map(preset, quad):
    """Transmission map over omega4 in [0, 300] MHz and L in [0, 60] L4."""
    sch, relax, medium, fields = preset
    omega4 = np.linspace(0.0, 300.0, 61)   # 5 MHz columns: exact 10 MHz windows
    lengths = np.linspace(0.0, 60.0, 61)
    t0 = time.perf_counter()
    result = pg.gain_map(sch, relax, medium, fields, omega4, lengths,
                         steps=1500, quad=quad)
    result.wall_time = time.perf_counter() - t0
    return result


def test_criterion_01_beer_lambert(preset, quad):
    """Drives off: probe transmission is exp(-alpha4 L) to 1e-6."""
    sch, relax, medium, _ = preset
    fields = FieldConfig(omega1=0.0, omega3=100.0, omega4=40.0,
                         g10=0.0, g30=0.0, e40=0.1, e20=0.0)
    t0 = time.perf_counter()
    mc = dp.average_coefficients(sch, relax, medium, fields, 0.0, 0.0, quad)
    cache = pg.CoefficientCache.build(sch, relax, medium, [fields], quad)
    trace = pg.integrate(sch, relax, medium, fields, L=20.0, steps=2000, quad=quad, cache=cache,
                         record_at=np.array([1.0, 5.0, 20.0]))
    worst = 0.0
    for L in (1.0, 5.0, 20.0):
        got = abs(trace.e4[trace.index_of(L)]) ** 2 / abs(fields.e40) ** 2
        ref = np.exp(-mc.alpha4 * L)
        worst = max(worst, abs(got - ref) / ref)
    dt = time.perf_counter() - t0
    report(1, worst < 1e-6 and dt < 1.0,
           f"worst rel {worst:.2e} over L in (1, 5, 20), {dt:.2f}s")


def test_criterion_02_closed_form_vs_rk4(preset):
    """opa_solution matches a 1e5-step RK4 run to 1e-8 on 100 random draws."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    n = 100
    alpha4 = rng.uniform(-1, 1, n)
    alpha2 = rng.uniform(-1, 1, n)
    delta_k = rng.uniform(-1, 1, n)
    gamma4 = 0.5 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    gamma2 = 0.5 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    e40 = rng.normal(size=n) + 1j * rng.normal(size=n)
    e20 = rng.normal(size=n) + 1j * rng.normal(size=n)
    L = 7.0
    steps = 100_000
    h = L / steps
    # constant-coefficient form: each wave's half of the phase mismatch is
    # absorbed into the unknowns and restored at the end
    m00 = -0.5 * alpha4 - 0.5j * delta_k
    m11 = -0.5 * alpha2 + 0.5j * delta_k
    m01 = 1j * gamma4
    m10 = -1j * np.conj(gamma2)
    y0 = e40.astype(complex)
    y1 = np.conj(e20).astype(complex)

    def f(y0, y1):
        return m00 * y0 + m01 * y1, m10 * y0 + m11 * y1

    for _ in range(steps):
        a0, a1 = f(y0, y1)
        b0, b1 = f(y0 + 0.5 * h * a0, y1 + 0.5 * h * a1)
        c0, c1 = f(y0 + 0.5 * h * b0, y1 + 0.5 * h * b1)
        d0, d1 = f(y0 + h * c0, y1 + h * c1)
        y0 = y0 + h / 6 * (a0 + 2 * b0 + 2 * c0 + d0)
        y1 = y1 + h / 6 * (a1 + 2 * b1 + 2 * c1 + d1)
    y0 *= np.exp(0.5j * delta_k * L)
    y1 *= np.exp(-0.5j * delta_k * L)

    worst = 0.0
    for i in range(n):
        c = cw.OpaCoefficients(alpha4[i], alpha2[i], delta_k[i],
                               complex(gamma4[i]), complex(gamma2[i]))
        b = cw.BoundaryAmplitudes(complex(e40[i]), complex(e20[i]))
        got4, got2 = cw.opa_solution(c, b, L)
        worst = max(worst,
                    abs(got4 - y0[i]) / max(abs(y0[i]), 1e-12),
                    abs(got2 - y1[i]) / max(abs(y1[i]), 1e-12))
    dt = time.perf_counter() - t0
    report(2, worst < 1e-8 and dt < 10.0,
           f"worst rel {worst:.2e} over 100 draws, {dt:.1f}s")


def test_criterion_03_limit_formulas(preset):
    """Weak-coupling formulas agree with the full solution within 1 percent.

    Draws satisfy the validity premise as stated: the coupling is
    perturbative (|gamma^2/beta^2| <= 1e-2) and absorption/gain exceeds the
    conversion over the whole length (accumulated conversion
    |gamma^2/(2 beta)| L kept small), with dk = 0.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    count = 0
    while count < 60:
        a4 = rng.uniform(0.2, 1.0)
        a2 = -rng.uniform(0.1, 0.8)
        beta = (a4 - a2) / 4.0
        coupling = 10.0 ** rng.uniform(-4.0, np.log10(8e-3))
        gmag = np.sqrt(coupling) * beta
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        c = cw.OpaCoefficients(a4, a2, 0.0, gmag * phase, gmag * phase)
        L = rng.uniform(1.0, 20.0)
        if coupling * beta * L / 2.0 > 3e-3:
            L = 6e-3 / (coupling * beta)
        val, valid = cw.fwm_gain_limit(c, L)
        assert valid
        e4, _ = cw.opa_solution(c, cw.BoundaryAmplitudes(1.0, 0.0), L)
        worst = max(worst, abs(val - abs(e4) ** 2) / abs(e4) ** 2)
        eta, _ = cw.eta4_conversion(c, L)
        e4b, _ = cw.opa_solution(c, cw.BoundaryAmplitudes(0.0, 1.0), L)
        if abs(e4b) ** 2 > 1e-12:
            worst = max(worst, abs(eta - abs(e4b) ** 2) / abs(e4b) ** 2)
        count += 1
    dt = time.perf_counter() - t0
    report(3, worst < 1e-2 and dt < 1.0, f"worst rel {worst:.2e}, {dt:.2f}s")


def test_criterion_04_lossless_conservation():
    """|E4|^2 - |E2|^2 conserved to 1e-9 in the symmetric lossless case."""
    t0 = time.perf_counter()
    c = cw.OpaCoefficients(0.0, 0.0, 0.0, 0.37, 0.37)
    b = cw.BoundaryAmplitudes(1.1 - 0.2j, 0.3 + 0.5j)
    zs = np.linspace(0.0, 10.0, 401)
    e4, e2c = cw.opa_solution(c, b, zs)
    inv = np.abs(e4) ** 2 - np.abs(e2c) ** 2
    drift = float(np.max(np.abs(inv - inv[0])))
    dt = time.perf_counter() - t0
    report(4, drift < 1e-9 and dt < 1.0, f"drift {drift:.2e} over z in [0, 10], {dt:.2f}s")


def test_criterion_05_density_matrix_sanity(preset):
    """Trace, Hermiticity, populations, saturation oracle, dressed doublet."""
    t0 = time.perf_counter()
    sch, relax, medium, _ = preset
    ok = True
    details = []

    rng = np.random.default_rng(55)
    worst_tr, worst_h = 0.0, 0.0
    pops_ok = True
    for _ in range(8):
        om = rng.uniform(-400, 400, 3)
        g1 = rng.uniform(0, 150) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        g3 = rng.uniform(0, 70) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        rho = reference.zeroth_order_batch(
            relax, medium.p_n, om[0], om[0] + om[1] - om[2], om[2], g1, g3)
        worst_tr = max(worst_tr, abs(np.real(np.trace(rho)) - 1.0))
        worst_h = max(worst_h, float(np.max(np.abs(rho - rho.conj().T))))
        pops = np.real(np.diagonal(rho))
        pops_ok = pops_ok and np.all(pops > -1e-12) and np.all(pops < 1 + 1e-12)
    ok &= worst_tr < 1e-12 and worst_h < 1e-12 and pops_ok
    details.append(f"trace {worst_tr:.1e}, herm {worst_h:.1e}")

    worst_sat = 0.0
    for g1 in (1.0, 10.0, 100.0):
        rho = reference.zeroth_order_batch(relax, medium.p_n, 0.0, 50.0, 0.0, g1, 0.0)
        pump = 2 * (RAD_PER_MHZ * g1) ** 2 / relax.coh_gl
        oracle = pump / (relax.gamma_g + pump)
        pops = np.real(np.diagonal(rho))
        worst_sat = max(worst_sat, abs(pops[2] / pops[0] - oracle))
    ok &= worst_sat <= 1e-10
    details.append(f"saturation dev {worst_sat:.1e}")

    g1 = 300.0
    om2 = np.linspace(-700.0, 700.0, 1401)
    rho0 = lv.drive_steady_state_batch(relax, medium.p_n, 0.0, om2, g1, 0.0)
    _, _, a2, _ = lv.probe_response_compact(
        lv.compact_sources(rho0), 0.0, om2, -om2, g1, 0.0, relax)
    absorption = np.imag(a2)
    mid = om2.size // 2
    left = om2[np.argmax(np.abs(absorption[:mid]))]
    right = om2[mid + np.argmax(np.abs(absorption[mid:]))]
    at_ok = abs(abs(left) - g1) / g1 < 0.2 and abs(abs(right) - g1) / g1 < 0.2
    ok &= at_ok
    details.append(f"dressed doublet at {left:.0f}/{right:.0f} for G1 = 300")

    dt = time.perf_counter() - t0
    report(5, ok and dt < 5.0, "; ".join(details) + f", {dt:.1f}s")


def test_criterion_06_doppler_layer(preset):
    """Zero-drive absorption tracks the Voigt oracle; FWHM in [1.6, 1.9] GHz."""
    t0 = time.perf_counter()
    sch, relax, medium, fields = preset
    u = medium.thermal_speed(sch)
    quad_wide = dp.QuadratureSpec(u=u, rule="trapezoid", n=9001, span=5.5)
    width = medium.doppler_width(sch, 4)
    v0 = dp.voigt_reference(0.0, relax.coh_ml, width)
    worst = 0.0
    for om4 in (0.0, 150.0, -400.0, 900.0, 1800.0, -2400.0, 3000.0):
        mc = dp.average_coefficients(
            sch, relax, medium, fields.with_omega4(om4), 0.0, 0.0, quad_wide)
        ref = dp.voigt_reference(om4 * RAD_PER_MHZ, relax.coh_ml, width).real / v0.real
        worst = max(worst, abs(mc.alpha4 - ref) / ref)
    fwhm = doppler_fwhm(723.0, 480e-9, NA2_MASS_KG)
    dt = time.perf_counter() - t0
    report(6, worst < 1e-3 and 1.6e9 <= fwhm <= 1.9e9 and dt < 5.0,
           f"voigt worst rel {worst:.2e}, fwhm {fwhm/1e9:.3f} GHz, {dt:.1f}s")


def test_criterion_07_awi_magnitude(awi_map):
    """Inversionless gain exists: map maximum at least 10, targeting 1e2-1e4."""
    peak = awi_map.max_gain
    om_star, l_star = awi_map.argmax()
    ok = peak >= 10.0 and awi_map.wall_time < 600.0
    report(7, ok,
           f"max I4/I40 = {peak:.1f} at omega4 = {om_star:.0f} MHz, "
           f"L = {l_star:.0f} L4 (published magnitude 1050), "
           f"{awi_map.wall_time:.0f}s")


def test_criterion_08_resonant_configuration_suboptimal(preset, quad, awi_map):
    """All detunings zero: the maximum gain falls at least 10x short."""
    sch, relax, medium, _ = preset
    t0 = time.perf_counter()
    resonant = FieldConfig(omega1=0.0, omega3=0.0, omega4=0.0,
                           g10=100.0, g30=40.0, e40=0.1, e20=0.0)
    res = pg.gain_map(sch, relax, medium, resonant, np.array([0.0]),
                      np.linspace(0.0, 60.0, 61), steps=1500, quad=quad)
    dt = time.perf_counter() - t0
    ratio = awi_map.max_gain / max(res.max_gain, 1e-300)
    report(8, ratio >= 10.0,
           f"resonant max {res.max_gain:.3g} vs detuned {awi_map.max_gain:.1f} "
           f"(factor {ratio:.0f}), {dt:.0f}s")


def test_criterion_09_switching_steepness(preset, quad, awi_map):
    """Ten-fold switching within 10 MHz of detuning and 15 percent of drive.

    The fixed length for the switching figure is not pinned by the published
    account; it is chosen here inside the high-gain plateau of the map (all
    lengths with at least a quarter of the peak transmission) as the first
    length where both switching clauses hold.
    """
    t0 = time.perf_counter()
    sch, relax, medium, fields = preset
    om_grid = awi_map.omega4
    om_star, _ = awi_map.argmax()
    i_star = int(np.argmin(np.abs(om_grid - om_star)))
    col = awi_map.ratio[i_star]
    plateau = awi_map.lengths[(col >= awi_map.max_gain / 4.0) & (awi_map.lengths > 0)]

    step = om_grid[1] - om_grid[0]
    pairs = max(1, int(np.floor(10.0 / step)))  # widest window <= 10 MHz

    def window_ratio(j_len: int) -> float:
        cut = awi_map.ratio[:, j_len]
        best = 1.0
        for k in range(1, pairs + 1):
            with np.errstate(divide="ignore", invalid="ignore"):
                r = np.maximum(cut[k:] / cut[:-k], cut[:-k] / cut[k:])
            r = r[np.isfinite(r)]
            if r.size:
                best = max(best, float(np.max(r)))
        return best

    def fine_window_ratio(L: float, j_len: int) -> float:
        """Dedicated 2-MHz sweep around the steepest coarse window."""
        cut = awi_map.ratio[:, j_len]
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.maximum(cut[1:] / cut[:-1], cut[:-1] / cut[1:])
        center = om_grid[int(np.nanargmax(r))]
        sweep = np.arange(center - 12.0, center + 18.0 + 1e-9, 2.0)
        ys = scans.switching_curve(
            sch, relax, medium, fields, L=float(L), sweep=sweep,
            axis="omega4", steps=1200, quad=quad)["i4_ratio"]
        best = 1.0
        for k in range(1, 6):  # windows of 2..10 MHz
            rr = np.maximum(ys[k:] / ys[:-k], ys[:-k] / ys[k:])
            if rr.size:
                best = max(best, float(np.max(rr)))
        return best

    chosen = None
    candidates = sorted(plateau, key=lambda L: -window_ratio(
        int(np.argmin(np.abs(awi_map.lengths - L)))))[:3]
    for L in candidates:
        j = int(np.argmin(np.abs(awi_map.lengths - L)))
        omega_ratio = window_ratio(j)
        if omega_ratio < 10.0:
            omega_ratio = fine_window_ratio(float(L), j)
        if omega_ratio < 10.0:
            continue
        sweep = np.linspace(60.0, 105.0, 31)
        curve = scans.switching_curve(
            sch, relax, medium, fields.with_omega4(om_star), L=float(L),
            sweep=sweep, axis="g10", steps=1200, quad=quad)
        xs, ys = curve["g10"], curve["i4_ratio"]
        drive_ratio = 1.0
        for i in range(xs.size):
            j15 = int(np.searchsorted(xs, xs[i] * 1.15, side="right")) - 1
            if j15 > i:
                drive_ratio = max(drive_ratio, ys[j15] / ys[i], ys[i] / ys[j15])
        if drive_ratio >= 10.0:
            chosen = (float(L), omega_ratio, drive_ratio)
            break

    dt = time.perf_counter() - t0
    ok = chosen is not None
    detail = "no plateau length satisfies both clauses"
    if ok:
        detail = (f"L = {chosen[0]:.0f} L4: x{chosen[1]:.0f} per <= 10 MHz, "
                  f"x{chosen[2]:.0f} per <= 15% drive change")
    report(9, ok and dt < 420.0, detail + f", {dt:.0f}s")


def test_criterion_10_spatial_dynamics_shape(preset, quad):
    """Initial probe depletion below 0.9, later growth; strong drive decay."""
    t0 = time.perf_counter()
    sch, relax, medium, fields = preset
    f = fields.with_omega4(160.0)
    cache = pg.CoefficientCache.build(sch, relax, medium, [f], quad)
    trace = pg.integrate(sch, relax, medium, f, L=20.0, steps=2000, quad=quad,
                         cache=cache, record_at=np.linspace(0.0, 20.0, 801))
    i4 = np.abs(trace.e4) ** 2 / abs(f.e40) ** 2
    imin = int(np.argmin(i4[: i4.size // 2]))
    dip = i4[imin]
    later_growth = float(np.max(i4[imin:]))
    g1_ratio = abs(trace.g1[trace.index_of(20.0)]) / abs(f.g10)
    dt = time.perf_counter() - t0
    ok = dip < 0.9 and later_growth > 1.0 and np.argmax(i4) > imin and g1_ratio < 0.6
    report(10, ok and dt < 60.0,
           f"dip to {dip:.2f} at z = {trace.z[imin]:.1f}, then x{later_growth:.0f}; "
           f"G1(20 L4)/G10 = {g1_ratio:.3f} (published 0.43), {dt:.0f}s")


def test_criterion_11_reproducibility(tmp_path):
    """Identical CLI invocations are byte-identical, whatever the ignored ``--threads`` says."""
    t0 = time.perf_counter()
    digests = set()
    for threads in (1, 4, 8):
        out = tmp_path / f"map{threads}.csv"
        rc = cli.main(["gainmap", "--omega4", "148:162:4", "--length", "0:12:5",
                       "--steps", "500", "--quad", "301",
                       "--threads", str(threads), "--out", str(out)])
        assert rc == 0
        digests.add(hashlib.sha256(out.read_bytes()).hexdigest())
    dt = time.perf_counter() - t0
    report(11, len(digests) == 1 and dt < 120.0,
           f"3 thread counts, one digest, {dt:.0f}s")
