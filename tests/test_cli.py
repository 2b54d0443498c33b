"""Command-line interface: subcommands, exit codes, CSV and manifest output."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import lcq
from lcq import cli, doppler, propagate, scheme
from lcq.scheme import RAD_PER_MHZ, na2_preset

# directory that holds the imported `lcq` package: `src` in a checkout,
# site-packages when installed
PACKAGE_ROOT = Path(lcq.__file__).resolve().parent.parent


def run_python(args, tmp_path=None):
    # the child runs in tmp_path, where a relative PYTHONPATH entry such as
    # `src` resolves to nothing, so hand it the absolute package root first
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_ROOT), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env=env,
        cwd=str(tmp_path) if tmp_path else None,
    )


def run_cli(args, tmp_path=None):
    return run_python(["-m", "lcq.cli", *args], tmp_path)


def test_preset_dump_matches_serialization(tmp_path):
    out = tmp_path / "preset.json"
    rc = cli.main(["preset", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text()) == scheme.preset_config()


def test_preset_roundtrips_through_config_flag(tmp_path):
    # loading the dumped preset reproduces the preset run (the nm <-> m
    # conversion costs at most an ulp on the wavelengths)
    out = tmp_path / "preset.json"
    assert cli.main(["preset", "--out", str(out)]) == 0
    csv1 = tmp_path / "a.csv"
    csv2 = tmp_path / "b.csv"
    base = ["spectra", "--omega4", "0:50:3", "--quad", "301"]
    assert cli.main([*base, "--out", str(csv1)]) == 0
    assert cli.main([*base, "--config", str(out), "--out", str(csv2)]) == 0
    rows1 = csv1.read_text().splitlines()
    rows2 = csv2.read_text().splitlines()
    assert rows1[0] == rows2[0]
    for r1, r2 in zip(rows1[1:], rows2[1:]):
        a = np.array([float(x) for x in r1.split(",")])
        b = np.array([float(x) for x in r2.split(",")])
        assert np.allclose(a, b, rtol=1e-9, atol=1e-12)


def test_spectra_zero_drive_matches_voigt(tmp_path):
    cfg = tmp_path / "nodrive.json"
    cfg.write_text(json.dumps({"fields": {"G10_MHz": 0.0, "G30_MHz": 0.0}}))
    out = tmp_path / "spectra.csv"
    rc = cli.main(["spectra", "--config", str(cfg), "--omega4", "-400:400:81",
                   "--out", str(out)])
    assert rc == 0
    rows = out.read_text().splitlines()
    header = rows[0].split(",")
    i_om = header.index("omega4[MHz]")
    i_a4 = header.index("alpha4[1/L4]")
    sch, relax, medium, _ = na2_preset()
    width = medium.doppler_width(sch, 4)
    v0 = doppler.voigt_reference(0.0, relax.coh_ml, width)
    for row in rows[1::8]:
        cells = [float(x) for x in row.split(",")]
        ref = doppler.voigt_reference(
            cells[i_om] * RAD_PER_MHZ, relax.coh_ml, width).real / v0.real
        assert abs(cells[i_a4] - ref) / ref < 1e-3


def test_manifest_written_alongside_output(tmp_path):
    out = tmp_path / "s.csv"
    rc = cli.main(["spectra", "--omega4", "0:10:2", "--quad", "301",
                   "--out", str(out)])
    assert rc == 0
    manifest = json.loads((tmp_path / "s.csv.manifest.json").read_text())
    assert manifest["config"] == scheme.preset_config()
    assert manifest["quadrature"]["n"] == 301
    assert "wall_time_s" in manifest
    # spectra integrates nothing, so only a propagating scan records its steps
    assert "steps" not in manifest and "threads" not in manifest
    out = tmp_path / "d.csv"
    assert cli.main(["dynamics", "--length", "1", "--quad", "301", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "d.csv.manifest.json").read_text())
    # the default run is sized by the embedded pair: 257 positions give 256
    # intervals of one step each, each clipped to land on its position, and
    # six stages per step after the first at z = 0
    assert manifest["steps"] == {"requested": None, "min": 256, "max": 256, "rejected": 0,
                                 "stages": 1 + 6 * 256}
    assert 0 < manifest["step_error"]["estimate"] <= 1e-7
    assert cli.main(["dynamics", "--length", "1", "--steps", "300", "--quad", "301",
                     "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "d.csv.manifest.json").read_text())
    # 300 steps over 256 intervals round to one fixed step each, six stages
    # per step after the first, as above; the estimate is still reported,
    # with no tolerance, since no control sized the steps
    assert manifest["steps"] == {"requested": 300, "min": 256, "max": 256, "rejected": 0,
                                 "stages": 1 + 6 * 256}
    error = manifest["step_error"]
    assert 0 < error["estimate"] <= 1e-7 and error["tolerance"] is None


@pytest.mark.parametrize("steps", [None, "200"])
def test_manifest_stages_count_the_right_hand_side_rows(tmp_path, monkeypatch, steps):
    # every row that propagate.rhs evaluates, summed over a sweep's trajectories
    rows = []
    rhs = propagate.rhs

    def counting(y, *args):
        rows.append(len(y))
        return rhs(y, *args)

    monkeypatch.setattr(propagate, "rhs", counting)
    out = tmp_path / "sw.csv"
    argv = ["switch", "--omega4", "150:160:3", "--length", "4", "--quad", "301", "--out", str(out)]
    assert cli.main(argv + (["--steps", steps] if steps else [])) == 0
    manifest = json.loads((tmp_path / "sw.csv.manifest.json").read_text())
    assert manifest["steps"]["stages"] == sum(rows) > 0


def test_manifest_step_error_states_its_tolerance(tmp_path, capsys):
    out = tmp_path / "sw.csv"
    argv = ["switch", "--omega4", "150:160:3", "--length", "4", "--quad", "301", "--out", str(out)]
    assert cli.main(argv) == 0
    error = json.loads((tmp_path / "sw.csv.manifest.json").read_text())["step_error"]
    assert 0 < error["estimate"] <= error["tolerance"] == propagate._STEP_TOL
    # --help names the same tolerance
    assert cli.main(["switch", "--help"]) == 0
    assert f"to {propagate._STEP_TOL:g} of" in " ".join(capsys.readouterr().out.split())


def test_dynamics_subcommand(tmp_path):
    out = tmp_path / "dyn.csv"
    rc = cli.main(["dynamics", "--omega4", "160", "--length", "6",
                   "--quad", "301", "--out", str(out)])
    assert rc == 0
    rows = out.read_text().splitlines()
    assert rows[0].split(",")[0] == "z[L4]"
    first = [float(x) for x in rows[1].split(",")]
    assert first[0] == 0.0 and first[3] == 1.0


def test_switch_subcommand_and_crossings(tmp_path):
    out = tmp_path / "sw.csv"
    rc = cli.main(["switch", "--omega4", "150:160:3", "--length", "9",
                   "--quad", "301", "--threads", "2", "--out", str(out)])
    assert rc == 0
    manifest = json.loads((tmp_path / "sw.csv.manifest.json").read_text())
    assert "transparency_crossings" in manifest
    rows = out.read_text().splitlines()
    assert rows[0] == "omega4[MHz],i4_ratio[1]"
    assert len(rows) == 4


def test_g10_switch_without_probe_input(tmp_path):
    # E40 = 0 gets the gain map's small-signal probe, 1e-3 |G10|
    cfg = tmp_path / "noprobe.json"
    cfg.write_text(json.dumps({"fields": {"E40": 0.0}}))
    out = tmp_path / "sw.csv"
    rc = cli.main(["switch", "--config", str(cfg), "--g10", "60:80:3", "--length", "2",
                   "--quad", "101", "--out", str(out)])
    assert rc == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "g10[MHz],i4_ratio[1]" and len(rows) == 4
    assert all(math.isfinite(float(r.split(",")[1])) for r in rows[1:])


def test_dynamics_without_probe_input_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "noprobe.json"
    cfg.write_text(json.dumps({"fields": {"E40": 0.0}}))
    rc = cli.main(["dynamics", "--config", str(cfg), "--length", "2",
                   "--steps", "200", "--quad", "101"])
    assert rc == 2
    assert "configuration error:" in capsys.readouterr().err


@pytest.mark.parametrize("fields, args", [
    ({"G30_MHz": 0.0}, ["gainmap", "--omega4", "150:160:2", "--length", "0:4:3"]),
    ({"G10_MHz": 0.0, "G30_MHz": 0.0}, ["gainmap", "--omega4", "150:160:2", "--length", "0:4:3"]),
    ({"G10_MHz": 0.0}, ["switch", "--omega4", "150:160:2", "--length", "4"]),
    ({}, ["switch", "--g10", "0:0:1", "--length", "4"]),
    ({"G10_MHz": 0.0}, ["switch", "--g10", "60:80:2", "--length", "4"]),
])
def test_zero_boundary_drive_gives_finite_csv(tmp_path, fields, args):
    # a zero drive gives its cache axis the one node 0; a G10 sweep from a
    # zero configured G10 keeps the default G1 node count
    cfg = tmp_path / "drives.json"
    cfg.write_text(json.dumps({"fields": fields}))
    out = tmp_path / "out.csv"
    proc = run_cli([*args, "--config", str(cfg), "--quad", "301", "--out", str(out)],
                   tmp_path)
    assert proc.returncode == 0, proc.stderr
    values = [float(x) for row in out.read_text().splitlines()[1:] for x in row.split(",")]
    assert values and all(math.isfinite(v) for v in values)


@pytest.mark.parametrize("args", [
    ["dynamics", "--length", "1"],
    ["switch", "--omega4", "150:160:3", "--length", "1"],
    ["gainmap", "--omega4", "150:160:2", "--length", "0:1:2"],
], ids=["dynamics", "switch", "gainmap"])
def test_tiny_probe_input_gives_finite_ratios(tmp_path, args):
    # |E40|² underflows to 0, the ratio of the amplitudes does not
    cfg = tmp_path / "probe.json"
    cfg.write_text(json.dumps({"fields": {"E40": 1e-200}}))
    out = tmp_path / "out.csv"
    assert cli.main([*args, "--config", str(cfg), "--steps", "100", "--out", str(out)]) == 0
    header, *rows = out.read_text().splitlines()
    table = dict(zip(header.split(","), np.array([row.split(",") for row in rows], float).T))
    assert all(np.isfinite(col).all() for col in table.values())
    ratio = table.get("i4_ratio[1]", table.get("gain[1]"))
    assert 0.0 < ratio.min() and ratio.max() < 10.0
    z = table.get("z[L4]", table.get("length[L4]"))
    if z is not None:  # cells at z = 0 are the input itself
        assert np.all(ratio[z == 0.0] == 1.0)


@pytest.mark.parametrize("args", [
    ["gainmap", "--omega4", "150:155:2", "--length", "0:4:3", "--steps", "50"],
    ["dynamics", "--length", "2", "--steps", "50"],
    ["switch", "--omega4", "150:155:2", "--length", "2", "--steps", "50"],
    ["gainmap", "--omega4", "150:155:2", "--length", "0"],
    ["switch", "--g10", "60:80:2", "--length", "0"],
])
def test_out_of_range_flag_is_a_config_error(tmp_path, args):
    proc = run_cli([*args, "--quad", "301"], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "configuration error:" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("args, config", [
    (["switch", "--g10", "nan", "--length", "4"], None),
    (["dynamics", "--length", "nan"], None),
    (["spectra", "--omega4", "nan"], None),
    (["spectra", "--omega4", "inf"], None),
    (["spectra", "--omega4=-1e308:1e308:3"], None),
    (["spectra", "--omega4", "0:1:2", "--g1", "nan"], None),
    (["gainmap", "--omega4", "nan", "--length", "0:4:3"], None),
    (["spectra", "--omega4", "0:1:2", "--quad", "0"], None),
    (["spectra", "--omega4", "0:1:2"], '{"fields": {"Omega4_MHz": NaN}}'),
    (["spectra", "--omega4", "0:1:2"], '{"fields": {"G10_MHz": Infinity}}'),
    (["spectra", "--omega4", "0:1:2"], '{"fields": {"G30_MHz": 1e400}}'),
    (["dynamics", "--length", "1"], '{"fields": {"Omega4_MHz": "nan"}}'),
    (["spectra", "--omega4", "0:1:2"], '{"medium": {"temperature_C": "inf"}}'),
    (["spectra", "--omega4", "0:1:2"], '{"fields": {"G10_MHz": true}}'),
    (["spectra", "--omega4", "0:1:2"], '{"scheme": {"mass_amu": "inf"}}'),
    (["spectra", "--omega4", "0:1:2"], '{"fields": {"E40": 1%s}}' % ("0" * 400)),
], ids=["switch-g10-nan", "dynamics-length-nan", "spectra-omega4-nan", "spectra-omega4-inf",
        "spectra-omega4-span-overflows", "spectra-g1-nan", "gainmap-omega4-nan", "quad-0",
        "config-nan", "config-infinity", "config-1e400", "config-nan-string",
        "config-inf-string", "config-true", "config-mass-inf-string", "config-huge-int"])
def test_invalid_number_is_a_config_error(tmp_path, args, config):
    if config is not None:
        (tmp_path / "bad.json").write_text(config)
        args = [*args, "--config", "bad.json"]
    proc = run_cli(args, tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "configuration error:" in proc.stderr and "Traceback" not in proc.stderr
    assert "Warning" not in proc.stderr
    if config is not None:
        # one error line, and it names the entry
        ((section, entry),) = json.loads(config).items()
        (key,) = entry
        assert len(proc.stderr.splitlines()) == 1 and f"{section}.{key}" in proc.stderr


def test_sweep_too_large_to_allocate_is_a_config_error(capsys):
    # 8 PB of grid: no 64-bit address space holds it, so nothing is allocated
    assert cli.main(["spectra", "--omega4", f"0:1:{10**15}"]) == 2
    err = capsys.readouterr().err
    assert "configuration error:" in err and f"'0:1:{10**15}'" in err


def test_too_few_quadrature_nodes_is_a_config_error(tmp_path):
    proc = run_cli(["spectra", "--omega4", "0:1:2", "--quad", "5"], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "configuration error:" in proc.stderr and "Traceback" not in proc.stderr


def test_switch_requires_exactly_one_axis(tmp_path):
    assert cli.main(["switch", "--length", "9"]) == 2
    assert cli.main(["switch", "--length", "9", "--omega4", "0:1:2",
                     "--g10", "0:1:2"]) == 2


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"fields\": {\"Omega9\": 1}}")
    rc = cli.main(["spectra", "--config", str(bad), "--omega4", "0:1:2"])
    assert rc == 2
    rc = cli.main(["spectra", "--omega4", "10:0:5"])
    assert rc == 2


def test_numerical_error_exit_code(tmp_path):
    # zero relaxation rates make the steady state singular
    cfg = tmp_path / "dead.json"
    cfg.write_text(json.dumps({"relaxation": {
        "gamma_pop_MHz": {"m": 0.0, "g": 0.0, "n": 0.0},
        "gamma_coh_MHz": {"ml": 0.0, "gl": 0.0, "mn": 0.0,
                          "gn": 0.0, "nl": 0.0, "gm": 0.0},
        "gamma_spont_MHz": {"mn": 0.0, "ml": 0.0, "gn": 0.0, "gl": 0.0},
    }}))
    proc = run_cli(["spectra", "--config", str(cfg), "--omega4", "0:1:2",
                    "--quad", "301"], tmp_path)
    assert proc.returncode == 3, proc.stderr
    assert "numerical failure" in proc.stderr


@pytest.mark.parametrize("args", [
    ["dynamics", "--length", "2"],
    ["switch", "--omega4", "150:160:3", "--length", "2"],
    ["gainmap", "--omega4", "150:160:3", "--length", "1:2:2"],
    ["gainmap", "--omega4", "150:160:3", "--length", "0:2:3"],
], ids=["dynamics", "switch-omega4", "gainmap", "gainmap-from-0"])
def test_lone_runaway_trajectory_is_a_numerical_failure(tmp_path, args):
    # the probe lifts the drives far above the cache's grid; the trajectory
    # fails there instead of overflowing a direct average.  A switching
    # curve is a failure too, and so is a map whose every column failed,
    # even if its L = 0 cells are valid
    cfg = tmp_path / "runaway.json"
    cfg.write_text(json.dumps({"fields": {"E40": 1e150, "Omega4_MHz": 155.0}}))
    proc = run_cli([*args, "--config", str(cfg), "--quad", "301",
                    "--out", str(tmp_path / "out.csv")], tmp_path)
    assert proc.returncode == 3, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("numerical failure: non-finite field amplitude")


def test_drive_far_above_the_cache_grid_cap_is_a_numerical_failure(tmp_path):
    # the |G1| axis of the cache stops at 2048 nodes, so G10 = 1e200 MHz
    # builds a bounded grid and fails as a named numerical error instead of
    # asking for an array no machine holds
    proc = run_cli(["switch", "--g10=1e200:1e200:1", "--length", "1", "--steps", "100",
                    "--out", str(tmp_path / "out.csv")], tmp_path)
    assert proc.returncode == 3, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure:"), proc.stderr


def test_drive_that_overflows_the_drive_sector_is_named(tmp_path):
    # |G1|^2 of the grid's nodes near 1e200 MHz overflows; the failure names
    # the drive amplitudes instead of the pole search's NaN check
    proc = run_cli(["switch", "--g10=1e200:1e200:1", "--length", "1", "--steps", "100",
                    "--quad", "101", "--out", str(tmp_path / "out.csv")], tmp_path)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("numerical failure: drive amplitudes |G1| = ")
    assert lines[0].endswith("overflow the drive sector")


def test_zero_coherence_rate_is_a_numerical_failure(tmp_path):
    # gamma_nl = 0 passes validation but leaves the probe block singular for
    # the v = 0 class at zero drives, where the normalization is computed
    cfg = tmp_path / "nl0.json"
    cfg.write_text(json.dumps({"relaxation": {"gamma_coh_MHz": {"nl": 0.0}}}))
    proc = run_cli(["spectra", "--config", str(cfg), "--omega4", "0:1:2",
                    "--quad", "301"], tmp_path)
    assert proc.returncode == 3, proc.stderr
    assert "numerical failure" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("args", [
    ["spectra", "--omega4", "0:10:3", "--out", "{missing}/x.csv"],
    ["gainmap", "--omega4", "150:155:2", "--length", "0:2:2", "--manifest", "{missing}/m.json"],
    ["preset", "--out", "{missing}/p.json"],
], ids=["out", "manifest", "preset"])
def test_missing_output_directory_fails_before_any_averaging(tmp_path, monkeypatch, capsys,
                                                            args):
    averaged = []
    monkeypatch.setattr(doppler, "_average", lambda *a, **kw: averaged.append(a))
    missing = tmp_path / "missing"
    rc = cli.main([a.format(missing=missing) for a in args])
    err = capsys.readouterr().err.splitlines()
    assert rc == 2 and averaged == []
    assert len(err) == 1 and err[0].startswith("configuration error: output directory")
    assert not missing.exists()


@pytest.mark.parametrize("args", [
    ["spectra", "--omega4", "0:10:3", "--quad", "301", "--out", "{dir}"],
    ["spectra", "--omega4", "0:10:3", "--quad", "301", "--manifest", "{dir}"],
    ["preset", "--out", "{dir}"],
], ids=["out", "manifest", "preset"])
def test_failed_write_is_a_config_error(tmp_path, args):
    # a directory where the file should go
    proc = run_cli([a.format(dir=tmp_path) for a in args], tmp_path)
    assert proc.returncode == 2, proc.stderr
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error: cannot write"), err


@pytest.mark.parametrize("flag", ["--out", "--manifest"])
def test_directory_as_output_fails_before_any_averaging(tmp_path, monkeypatch, capsys, flag):
    averaged = []
    monkeypatch.setattr(doppler, "_average", lambda *a, **kw: averaged.append(a))
    rc = cli.main(["spectra", "--omega4", "0:10:3", flag, str(tmp_path)])
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert rc == 2 and averaged == [] and captured.out == ""
    assert len(err) == 1 and err[0].startswith("configuration error: cannot write"), err


_RATE_KEYS = {
    "gamma_m": ("gamma_pop_MHz", "m"), "gamma_g": ("gamma_pop_MHz", "g"),
    "gamma_n": ("gamma_pop_MHz", "n"),
    **{f"coh_{k}": ("gamma_coh_MHz", k) for k in ("ml", "gl", "mn", "gn", "nl", "gm")},
    **{f"sp_{k}": ("gamma_spont_MHz", k) for k in ("mn", "ml", "gn", "gl")},
}
# a spontaneous rate may be zero; Gamma_m or Gamma_g alone cannot, as their
# level's branches would exceed them; any other zero rate leaves the
# velocity average undefined
_ZERO_RATE_EXIT = {**dict.fromkeys(_RATE_KEYS, 3), "gamma_m": 2, "gamma_g": 2,
                   **dict.fromkeys(("sp_mn", "sp_ml", "sp_gn", "sp_gl"), 0)}


@pytest.mark.parametrize("command", [
    ["spectra", "--omega4", "0:10:3"],
    ["gainmap", "--omega4", "150:155:2", "--length", "0:2:2", "--steps", "100"],
], ids=["spectra", "gainmap"])
@pytest.mark.parametrize("rate", list(_RATE_KEYS))
def test_zero_rate_gives_finite_csv_or_a_named_error(tmp_path, capsys, rate, command):
    group, key = _RATE_KEYS[rate]
    cfg = tmp_path / "rates.json"
    cfg.write_text(json.dumps({"relaxation": {group: {key: 0.0}}}))
    out = tmp_path / "out.csv"
    rc = cli.main([*command, "--config", str(cfg), "--quad", "101", "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert rc == _ZERO_RATE_EXIT[rate], err
    if rc == 0:
        rows = out.read_text().splitlines()[1:]
        assert rows and all(math.isfinite(float(x)) for row in rows for x in row.split(","))
    elif rc == 2:
        assert len(err) == 1 and err[0].startswith("configuration error:"), err
    else:  # the averaging names the rate it needs positive
        assert len(err) == 1 and err[0].startswith("numerical failure:"), err
        assert f"{rate} = 0" in err[0] and not out.exists(), err


def test_manifest_records_the_averaging_method(tmp_path):
    out = tmp_path / "s.csv"
    assert cli.main(["spectra", "--omega4", "0:10:2", "--quad", "301", "--out", str(out)]) == 0
    quadrature = json.loads((tmp_path / "s.csv.manifest.json").read_text())["quadrature"]
    assert quadrature["method"] == "pole sums of Faddeeva functions"
    assert quadrature["exceptional_points"] == 0
    assert 1.0 <= quadrature["worst_pole_condition"] <= doppler._COALESCING
    assert {"n", "wing_n", "rule"} <= set(quadrature)


def test_manifest_records_argv_given_to_main(tmp_path):
    out = tmp_path / "s.csv"
    argv = ["spectra", "--omega4", "-10:10:3", "--quad", "301", "--out", str(out)]
    assert cli.main(argv) == 0
    manifest = json.loads((tmp_path / "s.csv.manifest.json").read_text())
    assert manifest["argv"] == argv


def _drive():
    polar = st.tuples(st.floats(1.0, 150.0), st.floats(0.0, 2 * math.pi))
    return st.one_of(st.just(0.0), polar.map(lambda p: [p[0] * math.cos(p[1]),
                                                        p[0] * math.sin(p[1])]))


def _probe():
    polar = st.tuples(st.floats(1e-3, 1.0), st.floats(0.0, 2 * math.pi))
    return st.one_of(st.just(0.0), polar.map(lambda p: [p[0] * math.cos(p[1]),
                                                        p[0] * math.sin(p[1])]))


_DETUNING = st.floats(-300.0, 300.0)


def _finite_csv_or_a_named_error(config: dict, runs: list[list[str]]) -> None:
    """Each run of ``runs`` under ``config`` writes a finite CSV or exits 2 or 3 with one line."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps(config))
        for args in runs:
            out = Path(tmp) / "out.csv"
            out.unlink(missing_ok=True)
            err = io.StringIO()
            steps = [] if args[0] == "spectra" else ["--steps", "100"]
            with contextlib.redirect_stderr(err):
                rc = cli.main([*args, "--config", str(cfg), "--quad", "101", *steps,
                               "--out", str(out)])
            lines = err.getvalue().splitlines()
            if rc == 0:
                rows = out.read_text().splitlines()[1:]
                values = [float(x) for row in rows for x in row.split(",")]
                assert values and all(math.isfinite(v) for v in values), args
            else:
                prefix = "configuration error:" if rc == 2 else "numerical failure:"
                assert rc in (2, 3) and len(lines) == 1 and lines[0].startswith(prefix), \
                    (args, rc, lines)


@settings(max_examples=4, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(fields=st.fixed_dictionaries({
    "Omega1_MHz": _DETUNING, "Omega3_MHz": _DETUNING, "Omega4_MHz": _DETUNING,
    "G10_MHz": _drive(), "G30_MHz": _drive(), "E40": _probe(), "E20": _probe(),
}))
def test_any_valid_fields_give_finite_csv_or_a_named_error(fields):
    # every configuration that passes validation either runs to a finite CSV
    # or fails with exit 2 or 3 and one named error line, never a traceback
    omega4 = fields["Omega4_MHz"]
    _finite_csv_or_a_named_error({"fields": fields}, [
        ["dynamics", "--length", "2"],
        ["gainmap", "--omega4", f"{omega4}:{omega4 + 10}:2", "--length", "0:2:2"],
        ["switch", "--g10", "60:100:2", "--length", "2"],
        ["switch", "--omega4", f"{omega4}:{omega4 + 10}:2", "--length", "2"],
        ["spectra", "--omega4", f"{omega4}:{omega4 + 10}:2"],
    ])


@st.composite
def _relaxation(draw):
    """Positive rates in [1, 300] MHz whose spontaneous branches fit inside their level's decay."""
    pop = {k: draw(st.floats(1.0, 300.0)) for k in ("m", "g", "n")}
    coh = {k: draw(st.floats(1.0, 300.0)) for k in ("ml", "gl", "mn", "gn", "nl", "gm")}
    spont = {}
    for level, (a, b) in (("m", ("mn", "ml")), ("g", ("gn", "gl"))):
        spont[a] = draw(st.floats(0.0, 1.0)) * pop[level]
        spont[b] = draw(st.floats(0.0, 1.0)) * (pop[level] - spont[a])
    return {"gamma_pop_MHz": pop, "gamma_coh_MHz": coh, "gamma_spont_MHz": spont}


@settings(max_examples=6, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(relaxation=_relaxation(), medium=st.fixed_dictionaries({
    "temperature_C": st.floats(100.0, 800.0), "p_n": st.floats(0.0, 0.5),
    "alpha40_per_L4": st.floats(0.1, 10.0),
}), omega4=_DETUNING)
def test_any_relaxation_and_medium_give_finite_csv_or_a_named_error(relaxation, medium, omega4):
    # the same holds for any rates the configuration accepts and any medium:
    # the coefficient cache's grid is sized for the preset's rates, so a
    # cache that fails its validation is a named numerical failure
    _finite_csv_or_a_named_error({"relaxation": relaxation, "medium": medium}, [
        ["spectra", "--omega4", f"{omega4}:{omega4 + 10}:2"],
        ["gainmap", "--omega4", f"{omega4}:{omega4 + 10}:2", "--length", "0:2:2"],
        ["dynamics", "--omega4", f"{omega4}", "--length", "2"],
        ["switch", "--g10", "60:100:2", "--length", "2"],
        ["switch", "--omega4", f"{omega4}:{omega4 + 10}:2", "--length", "2"],
    ])


def test_gainmap_manifest_reports_cache_validation_error(tmp_path):
    out = tmp_path / "gm.csv"
    assert cli.main(["gainmap", "--omega4", "150:155:2", "--length", "0:6:3",
                     "--quad", "301", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "gm.csv.manifest.json").read_text())
    error = manifest["cache_validation_error"]
    assert isinstance(error, float) and math.isfinite(error) and error < 1e-4


@pytest.mark.parametrize("args, fields, grid", [
    (["dynamics", "--omega4", "160", "--length", "1"], None, [80, 12, 20.0, 42.0]),
    (["switch", "--omega4", "150:160:2", "--length", "1"], None, [80, 12, 20.0, 42.0]),
    (["switch", "--g10", "60:100:2", "--length", "1"], None, [80, 12, 20.0, 42.0]),
    (["switch", "--g10", "60:100:2", "--length", "1"], {"G30_MHz": 0.0}, [80, 1, 0.0, 0.0]),
    (["gainmap", "--omega4", "150:160:2", "--length", "0:1:2"], None, [80, 12, 20.0, 42.0]),
], ids=["dynamics", "switch-omega4", "switch-g10", "G30-zero", "gainmap"])
def test_propagating_manifests_report_the_cache_of_their_run(tmp_path, args, fields, grid):
    # every command that propagates records the validation error, the grid
    # and the reruns of the cache its run read, G30 = 0 too, whose cache has
    # the one |G3| node 0; at the preset's G30 = 40 MHz the fitted |G3| axis
    # is 12 nodes on [20, 42] MHz
    config = []
    if fields is not None:
        (tmp_path / "fields.json").write_text(json.dumps({"fields": fields}))
        config = ["--config", str(tmp_path / "fields.json")]
    out = tmp_path / "run.csv"
    assert cli.main([*args, "--steps", "100", "--quad", "301", *config, "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
    error = manifest["cache_validation_error"]
    assert isinstance(error, float) and 0.0 < error < 1e-4
    assert not [w for w in manifest["warnings"] if "fell back" in w]
    [cache_grid] = manifest["cache_grid"]
    assert [cache_grid["g1_nodes"], cache_grid["g3_nodes"], *cache_grid["g3_span_MHz"]] == grid
    assert manifest["cache_reruns"] == 0


def test_weak_drive_3_reruns_once_on_the_full_axis(tmp_path, monkeypatch):
    # at G30 = 5 MHz drive 3 falls to 0.41 |G30| by 20 L4, below the fitted
    # axis's 0.5 |G30|: the run goes again on the full axis, once, and its
    # CSV is that of a run whose cache had the full axis from the start
    (tmp_path / "g30.json").write_text(json.dumps({"fields": {"G30_MHz": 5.0}}))
    args = ["dynamics", "--omega4", "155", "--length", "20", "--config",
            str(tmp_path / "g30.json")]
    manifests = {}
    for name in ("fitted", "full"):
        if name == "full":
            nodes = propagate._drive_nodes
            monkeypatch.setattr(propagate, "_drive_nodes",
                                lambda g10, g30, fitted: nodes(g10, g30, False))
        assert cli.main([*args, "--out", str(tmp_path / f"{name}.csv")]) == 0
        manifests[name] = json.loads((tmp_path / f"{name}.csv.manifest.json").read_text())
        assert not [w for w in manifests[name]["warnings"] if "fell back" in w]
    assert manifests["fitted"]["cache_reruns"] == 1 and manifests["full"]["cache_reruns"] == 0
    # the same accepted steps, but the stages count the first pass too
    fitted, full = manifests["fitted"]["steps"], manifests["full"]["steps"]
    assert [fitted["min"], fitted["max"]] == [full["min"], full["max"]]
    assert fitted["stages"] > full["stages"]
    # the manifest lists every grid the run read, the fitted one first
    spans = {name: [grid["g3_span_MHz"] for grid in manifest["cache_grid"]]
             for name, manifest in manifests.items()}
    assert spans == {"fitted": [[2.5, 5.25], [0.0, 5.25]], "full": [[0.0, 5.25]]}
    assert (tmp_path / "fitted.csv").read_bytes() == (tmp_path / "full.csv").read_bytes()


@pytest.mark.parametrize("g30, fitted_nodes, full_nodes", [(80.0, 24, 40), (150.0, 45, 75)])
def test_a_strong_drive_3_gets_its_g3_nodes_in_proportion(tmp_path, monkeypatch, g30,
                                                          fitted_nodes, full_nodes):
    # the benchmark-size gain map at G30 above 40 MHz: 12 fitted |G3| nodes
    # missed the validation bound (4.1e-4 at 80 MHz, 9.4e-3 at 150 MHz), and
    # 20 on the full axis 8.8e-4 at 80 MHz; both counts now grow with |G30|
    (tmp_path / "g30.json").write_text(json.dumps({"fields": {"G30_MHz": g30}}))
    args = ["gainmap", "--omega4=150:160:4", "--length=0:30:31", "--config",
            str(tmp_path / "g30.json")]
    nodes = propagate._drive_nodes
    for name, n3 in (("fitted", fitted_nodes), ("full", full_nodes)):
        if name == "full":
            monkeypatch.setattr(propagate, "_drive_nodes",
                                lambda g10, g30, fitted: nodes(g10, g30, False))
        assert cli.main([*args, "--out", str(tmp_path / f"{name}.csv")]) == 0
        manifest = json.loads((tmp_path / f"{name}.csv.manifest.json").read_text())
        [grid] = manifest["cache_grid"]
        assert grid["g3_nodes"] == n3
        assert manifest["cache_validation_error"] < 1e-5


@pytest.mark.parametrize("command",[["dynamics", "--omega4", "160"],
                                     ["switch", "--omega4", "150:160:2"]])
def test_manifest_warns_of_cache_fallbacks(tmp_path, monkeypatch, command):
    # a grid that stops at half the boundary G10 sends the first reads off it
    nodes = propagate._drive_nodes
    monkeypatch.setattr(propagate, "_drive_nodes",
                        lambda g10, g30, fitted: nodes(g10 / 2, g30, fitted))
    out = tmp_path / "run.csv"
    assert cli.main([*command, "--length", "1", "--steps", "100", "--quad", "301",
                     "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
    [warning] = [w for w in manifest["warnings"] if "fell back" in w]
    assert int(warning.split()[0]) > 0 and warning.endswith(
        "cache lookups fell back to direct evaluation")


@pytest.mark.parametrize("fields, args", [
    (None, ["--omega4", "170:172:2"]),
    ({"G10_MHz": 150.0}, ["--omega4=-5:5:2"]),
    ({"G10_MHz": 60.0}, ["--omega4", "80.5:81:2"]),
], ids=["170MHz", "G10-150MHz", "G10-60MHz"])
def test_gainmap_whose_first_column_curves_hard_passes_validation(tmp_path, fields, args):
    # first columns where an 80 x 32 grid missed the tolerance (errors 5.6e-4
    # and 1.6e-3), and one where 90 x 28 nodes did (1.01e-4 at 80.5 MHz and
    # G10 = 60 MHz); the grid sized from the drives passes every column
    config = []
    if fields is not None:
        (tmp_path / "fields.json").write_text(json.dumps({"fields": fields}))
        config = ["--config", str(tmp_path / "fields.json")]
    out = tmp_path / "gm.csv"
    assert cli.main(["gainmap", *args, "--length", "0:10:3", *config,
                     "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "gm.csv.manifest.json").read_text())
    assert manifest["cache_validation_error"] <= 1e-4


def test_validate_subcommand_passes():
    assert cli.main(["validate", "--quad", "1311"]) == 0


def test_validate_passes_a_medium_unlike_the_preset(tmp_path, capsys):
    # the Doppler-width and thermal-population bands describe the preset;
    # a 150 C medium has its own width and still passes every invariant
    cfg = tmp_path / "warm.json"
    cfg.write_text(json.dumps({"medium": {"temperature_C": 150.0}}))
    assert cli.main(["validate", "--config", str(cfg)]) == 0
    assert "[PASS] doppler fwhm of the medium (1.357 GHz" in capsys.readouterr().out


@pytest.mark.parametrize("args", [
    ["spectra", "--steps", "7"],
    ["spectra", "--threads", "3"],
    ["validate", "--steps", "7"],
    ["validate", "--out", "v.csv"],
])
def test_flag_the_command_does_not_read_is_a_usage_error(tmp_path, args):
    proc = run_cli(args, tmp_path)
    assert proc.returncode == 2 and "unrecognized arguments" in proc.stderr, proc.stderr
    assert not (tmp_path / "v.csv").exists()


def test_validate_runs_without_the_reference_oracle(tmp_path):
    # `lcq validate` checks the production kernels: no CLI path loads the
    # 16x16 oracle of lcq.reference
    code = ("import sys\n"
            "from lcq import cli\n"
            "rc = cli.main(['validate'])\n"
            "assert 'lcq.reference' not in sys.modules, 'lcq.reference was imported'\n"
            "sys.exit(rc)\n")
    proc = run_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "FAIL" not in proc.stdout


def test_cli_import_loads_no_scipy_module(tmp_path):
    # the Faddeeva function and the SI constants are lcq's own; only `lcq
    # validate` (solve_ivp) and the Voigt oracle (quad) import scipy, lazily
    code = ("import sys\n"
            "import lcq.cli\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not loaded, f'scipy modules were imported: {loaded}'\n")
    proc = run_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_cli_import_loads_neither_the_checks_nor_coupledwave(tmp_path):
    # only `lcq validate` imports lcq.checks and, with it, lcq.coupledwave;
    # the package's public names load their modules on first use
    code = ("import sys\n"
            "import lcq.cli\n"
            "loaded = [m for m in ('lcq.checks', 'lcq.coupledwave') if m in sys.modules]\n"
            "assert not loaded, f'{loaded} were imported'\n"
            "import lcq\n"
            "missing = [name for name in lcq.__all__ if not hasattr(lcq, name)]\n"
            "assert not missing, f'{missing} do not resolve'\n"
            "from lcq import OpaCoefficients, opa_solution\n"
            "assert opa_solution is sys.modules['lcq.coupledwave'].opa_solution\n"
            "assert set(lcq.__all__) <= set(dir(lcq))\n")
    proc = run_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_threads_flag_is_ignored_and_loads_no_thread_pool(tmp_path):
    # the benchmark's tiny gain map still passes --threads; it parses, makes
    # no pool (concurrent.futures would import logging), leaves the manifest
    # as it is and the CSV byte for byte that of the call without it
    args = ["gainmap", "--omega4=150:155:2", "--length=0:12:13", "--quad", "101",
            "--steps", "400"]
    code = ("import sys\n"
            "from lcq import cli\n"
            f"rc = cli.main({[*args, '--threads', '2', '--out', 'two.csv']!r})\n"
            "assert rc == 0, rc\n"
            "assert 'concurrent.futures' not in sys.modules, 'concurrent.futures was imported'\n")
    proc = run_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert run_cli([*args, "--out", "one.csv"], tmp_path).returncode == 0
    manifest = json.loads((tmp_path / "two.csv.manifest.json").read_text())
    assert "threads" not in manifest
    assert (tmp_path / "two.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()


def test_one_parser_serves_a_usage_error_then_a_valid_call(tmp_path):
    # main builds its parser once per process; a call that fails to parse
    # leaves nothing behind for the next
    bad, good = ["spectra", "--threads", "3"], ["spectra", "--omega4", "0:10:3", "--quad", "301"]
    code = ("from lcq import cli\n"
            f"print(cli.main({bad!r}), cli.main({[*good, '--out', 'both.csv']!r}),\n"
            "      cli.build_parser() is cli.build_parser())\n")
    both = run_python(["-c", code], tmp_path)
    assert both.stdout == "2 0 True\n", both.stdout + both.stderr
    alone = run_cli(bad, tmp_path)
    assert alone.returncode == 2 and both.stderr == alone.stderr, both.stderr
    assert run_cli([*good, "--out", "alone.csv"], tmp_path).returncode == 0
    assert (tmp_path / "both.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()


def test_validate_fails_when_a_closed_form_pole_is_off(monkeypatch, capsys):
    # LAPACK stays the oracle of the closed-form poles: one probe pole of one
    # drive point moved by 1e-9 of its size fails that check alone
    pencil_poles = doppler._pencil_poles

    def corrupted(block, slopes):
        lam = pencil_poles(block, slopes).copy()
        lam[0, 0] *= 1.0 + 1e-9
        return lam

    monkeypatch.setattr(doppler, "_pencil_poles", corrupted)
    rc = cli.main(["validate"])
    out = capsys.readouterr().out
    failed = [line for line in out.splitlines() if line.startswith("[FAIL]")]
    assert rc == 3
    assert len(failed) == 1 and failed[0].startswith("[FAIL] closed-form poles vs eig"), out


def test_validate_fails_when_301_velocity_nodes_cannot_confirm_the_pole_sums(tmp_path, capsys):
    # at 100 C the Doppler width is 1.27 GHz against the preset's 1.77 GHz,
    # and a velocity rule of 301 nodes misses the pole sums by 3.5e-6 of a
    # field's scale; every other check holds for this medium, and at the
    # default 1311 nodes so does this one
    cfg = tmp_path / "cool.json"
    cfg.write_text(json.dumps({"medium": {"temperature_C": 100.0}}))
    rc = cli.main(["validate", "--config", str(cfg), "--quad", "301"])
    out = capsys.readouterr().out
    assert rc == 3
    failed = [line for line in out.splitlines() if line.startswith("[FAIL]")]
    assert len(failed) == 1 and failed[0].startswith("[FAIL] pole sums vs velocity rule"), out
