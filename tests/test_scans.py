"""Scan tables: spectra, dynamics, switching; reproducibility and schema."""

import numpy as np
import pytest

from lcq import doppler as dp
from lcq import scans
from lcq.scheme import RAD_PER_MHZ, FieldConfig, na2_preset


@pytest.fixture(scope="module")
def preset():
    return na2_preset()


@pytest.fixture(scope="module")
def quad(preset):
    sch, _, medium, _ = preset
    return dp.QuadratureSpec.for_medium(sch, medium)


@pytest.fixture(scope="module")
def preset_spectra(preset, quad):
    sch, relax, medium, fields = preset
    sweep = np.linspace(-400.0, 400.0, 321)
    return scans.spectra_scan(sch, relax, medium, fields, sweep, quad=quad)


def row(table, k):
    """Row ``k`` of a scan table as a dict of floats."""
    return {name: float(col[k]) for name, col in table.items()}


def test_table_rejects_non_finite_and_ragged_columns():
    with pytest.raises(ValueError, match="non-finite value in column 'a' of scan 'x'"):
        scans.scan_table("x", a=[0.0, float("nan")])
    with pytest.raises(ValueError, match="columns of scan 'x' differ in length"):
        scans.scan_table("x", a=[0.0, 1.0], b=[0.0])


def test_spectra_matches_standalone_average(preset, quad, preset_spectra):
    # no hidden state: a row equals a direct coefficient call bit for bit
    sch, relax, medium, fields = preset
    rec = row(preset_spectra, 137)
    mc = dp.average_coefficients(
        sch, relax, medium, fields.with_omega4(rec["omega4"]),
        fields.g10, fields.g30, quad)
    assert rec["alpha2"] == mc.alpha2
    assert rec["alpha4"] == mc.alpha4
    assert rec["re_gamma4"] == mc.gamma4.real
    assert rec["im_gamma2"] == mc.gamma2.imag


def test_spectra_ends_and_middle_match_fresh_average_bitwise(preset, quad, preset_spectra):
    # the sweep is one pass over all its columns; a standalone call gives the
    # same row at both ends and mid-sweep
    sch, relax, medium, fields = preset
    n = preset_spectra["omega4"].size
    for rec in (row(preset_spectra, 0), row(preset_spectra, n // 2), row(preset_spectra, -1)):
        mc = dp.average_coefficients(
            sch, relax, medium, fields.with_omega4(rec["omega4"]),
            fields.g10, fields.g30, quad)
        for name in ("alpha1", "alpha2", "alpha3", "alpha4",
                     "deltak1", "deltak2", "deltak3", "deltak4"):
            assert rec[name] == getattr(mc, name)
        for name in ("gamma4", "gamma2"):
            value = getattr(mc, name)
            assert (rec["re_" + name], rec["im_" + name]) == (value.real, value.imag)


def test_spectra_omega2_slaved(preset, preset_spectra):
    fields = preset[3]
    for k in range(0, preset_spectra["omega4"].size, 40):
        rec = row(preset_spectra, k)
        assert rec["omega2"] == pytest.approx(
            fields.omega1 + fields.omega3 - rec["omega4"])


def test_preset_spectra_show_stokes_gain_and_transparency(preset_spectra):
    # dressed spectra: strong amplification in a nonlinear Stokes resonance
    # accompanied by absorption structure and a transparency window for the
    # anti-Stokes probe
    alpha2, alpha4 = preset_spectra["alpha2"], preset_spectra["alpha4"]
    assert alpha2.min() < -0.5          # Stokes gain
    assert alpha4[np.argmin(alpha2)] > 0  # anti-Stokes still absorbing there
    assert alpha4.min() < 0.3 * alpha4.max()  # transparency window
    assert alpha4.max() > 0.5


def test_gain_peak_away_from_raman_resonance(preset, quad):
    # the strongest Stokes resonance does not sit at the two-photon point
    # omega4 = omega1 (where the lower-state coherence would be resonant for
    # the v = 0 class); the offset exceeds the homogeneous linewidth
    sch, relax, medium, fields = preset
    sweep = np.linspace(-80.0, 80.0, 65)
    alpha2 = scans.spectra_scan(sch, relax, medium, fields, sweep, quad=quad)["alpha2"]
    peak_om4 = sweep[int(np.argmin(alpha2))]
    raman_om4 = fields.omega1
    linewidth_mhz = relax.coh_gn / RAD_PER_MHZ
    assert abs(peak_om4 - raman_om4) > linewidth_mhz


def test_gamma_peak_ratio(preset_spectra):
    # the dressed cross couplings differ in size; the published factor is
    # about four, the reconstruction gives a smaller but distinct split
    g4 = np.hypot(preset_spectra["re_gamma4"], preset_spectra["im_gamma4"])
    g2 = np.hypot(preset_spectra["re_gamma2"], preset_spectra["im_gamma2"])
    ratio = g4.max() / g2.max()
    assert 1.2 < ratio < 8.0


def test_zero_drive_spectra_voigt_like(preset, quad):
    sch, relax, medium, fields = preset
    sweep = np.linspace(-300.0, 300.0, 41)
    spectra = scans.spectra_scan(sch, relax, medium, fields, sweep,
                                 G1=0.0, G3=0.0, quad=quad)
    alpha4 = spectra["alpha4"]
    assert np.all(alpha4 > 0)
    assert np.argmax(alpha4) == 20  # centered
    assert np.all((spectra["re_gamma4"] == 0) & (spectra["im_gamma4"] == 0))
    alpha2 = spectra["alpha2"]
    assert np.all(alpha2 > 0)


def test_dynamics_drives_off_beer_lambert(preset, quad):
    sch, relax, medium, _ = preset
    fields = FieldConfig(omega1=0, omega3=100, omega4=25.0,
                         g10=0.0, g30=0.0, e40=0.1, e20=0.0)
    mc = dp.average_coefficients(sch, relax, medium, fields, 0.0, 0.0, quad)
    dynamics = scans.spatial_dynamics(sch, relax, medium, fields, L=10.0,
                                      steps=500, quad=quad)
    z, i4 = dynamics["z"], dynamics["i4_ratio"]
    assert np.max(np.abs(i4 - np.exp(-mc.alpha4 * z))) < 1e-6
    assert np.all(dynamics["i2_over_i40"] == 0)


def test_dynamics_ratios_start_at_one_however_small_the_inputs(preset, quad):
    # |G10|² = 1e-400 underflows to 0; an exactly zero drive keeps a zero ratio
    sch, relax, medium, fields = preset
    tiny = fields.with_drives(1e-200, 1e-200)
    dynamics = scans.spatial_dynamics(sch, relax, medium, tiny, L=1.0, steps=100, quad=quad)
    assert dynamics["i1_ratio"][0] == 1.0 and dynamics["i3_ratio"][0] == 1.0
    assert dynamics["i4_ratio"][0] == 1.0 and dynamics["i2_over_i40"][0] == 0.0
    off = scans.spatial_dynamics(sch, relax, medium, fields.with_drives(0.0, 0.0), L=1.0,
                                 steps=100, quad=quad)
    assert np.all(off["i1_ratio"] == 0.0) and np.all(off["i3_ratio"] == 0.0)


def test_dynamics_preset_dip_then_growth(preset, quad):
    # anti-Stokes transmission first falls well below unity, then grows far
    # above it once the generated Stokes wave has built up
    sch, relax, medium, fields = preset
    f = fields.with_omega4(160.0)
    dynamics = scans.spatial_dynamics(sch, relax, medium, f, L=12.0,
                                      steps=1200, quad=quad)
    i4, i2, i1 = dynamics["i4_ratio"], dynamics["i2_over_i40"], dynamics["i1_ratio"]
    imin = int(np.argmin(i4))
    assert i4[imin] < 0.9
    assert np.max(i4[imin:]) > 2.0
    assert np.argmax(i4) > imin
    assert i2[0] == 0.0 and i2.max() > 0
    assert i1[-1] < i1[0]  # drive depletes


def test_switching_curve_flat_without_drives(preset, quad):
    sch, relax, medium, _ = preset
    base = FieldConfig(omega1=0, omega3=100, omega4=0.0,
                       g10=0.0, g30=0.0, e40=0.1, e20=0.0)
    sweep = np.linspace(140.0, 170.0, 4)
    curve = scans.switching_curve(sch, relax, medium, base, L=5.0, sweep=sweep,
                                  axis="omega4", steps=400, quad=quad)
    ratios = curve["i4_ratio"]
    mcs = [dp.average_coefficients(sch, relax, medium, base.with_omega4(float(om)),
                                   0.0, 0.0, quad) for om in sweep]
    for ratio, mc in zip(ratios, mcs):
        assert ratio == pytest.approx(np.exp(-mc.alpha4 * 5.0), rel=1e-6)
    assert scans.transparency_crossings(curve, "omega4") == []


def test_transparency_crossings_interpolation():
    curve = scans.scan_table("switch", omega4=[0.0, 10.0, 20.0, 30.0],
                             i4_ratio=[0.25, 0.5, 2.0, 0.5])
    crossings = scans.transparency_crossings(curve, "omega4")
    assert len(crossings) == 2
    assert 10.0 < crossings[0] < 20.0
    assert 20.0 < crossings[1] < 30.0


def test_records_reproducible(preset, quad):
    sch, relax, medium, fields = preset
    sweep = np.linspace(-50.0, 50.0, 5)
    a = scans.spectra_scan(sch, relax, medium, fields, sweep, quad=quad)
    b = scans.spectra_scan(sch, relax, medium, fields, sweep, quad=quad)
    assert a.keys() == b.keys()
    assert all(np.array_equal(a[name], b[name]) for name in a)


def test_csv_emission_roundtrip(tmp_path, preset, quad):
    sch, relax, medium, fields = preset
    spectra = scans.spectra_scan(sch, relax, medium, fields,
                                 np.array([0.0, 35.0]), quad=quad)
    path = tmp_path / "spectra.csv"
    scans.records_to_csv(spectra, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("omega4[MHz],omega2[MHz],alpha1[1/L4]")
    assert len(lines) == 3
    # 17 significant digits: parsing back is lossless
    vals = [float(x) for x in lines[1].split(",")]
    assert vals[0] == spectra["omega4"][0]
    assert vals[5] == spectra["alpha4"][0]
