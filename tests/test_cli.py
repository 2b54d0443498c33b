"""Command-line interface: subcommands, exit codes, CSV and manifest output."""

import json
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import lcq
from lcq import cli, doppler, scheme
from lcq.scheme import RAD_PER_MHZ, na2_preset

# directory that holds the imported `lcq` package: `src` in a checkout,
# site-packages when installed
PACKAGE_ROOT = Path(lcq.__file__).resolve().parent.parent


def run_cli(args, tmp_path=None, env_extra=None):
    # the child runs in tmp_path, where a relative PYTHONPATH entry such as
    # `src` resolves to nothing, so hand it the absolute package root first
    env = dict(os.environ)
    env.pop("LCQ_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_ROOT), env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "lcq.cli", *args],
        capture_output=True, text=True, env=env,
        cwd=str(tmp_path) if tmp_path else None,
    )
    return proc


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
    assert manifest["steps"] == 2000
    assert "wall_time_s" in manifest


def test_dynamics_subcommand(tmp_path):
    out = tmp_path / "dyn.csv"
    rc = cli.main(["dynamics", "--omega4", "160", "--length", "6",
                   "--steps", "600", "--quad", "301", "--out", str(out)])
    assert rc == 0
    rows = out.read_text().splitlines()
    assert rows[0].split(",")[0] == "z[L4]"
    first = [float(x) for x in rows[1].split(",")]
    assert first[0] == 0.0 and first[3] == 1.0


def test_switch_subcommand_and_crossings(tmp_path):
    out = tmp_path / "sw.csv"
    rc = cli.main(["switch", "--omega4", "150:160:3", "--length", "9",
                   "--steps", "500", "--quad", "301", "--threads", "2",
                   "--out", str(out)])
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
                   "--steps", "200", "--quad", "101", "--out", str(out)])
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


def test_manifest_records_argv_given_to_main(tmp_path):
    out = tmp_path / "s.csv"
    argv = ["spectra", "--omega4", "-10:10:3", "--quad", "301", "--out", str(out)]
    assert cli.main(argv) == 0
    manifest = json.loads((tmp_path / "s.csv.manifest.json").read_text())
    assert manifest["argv"] == argv


def test_gainmap_deterministic_across_threads(tmp_path):
    digests = {}
    for threads in (1, 4, 8):
        out = tmp_path / f"gm{threads}.csv"
        rc = cli.main(["gainmap", "--omega4", "150:160:3", "--length", "0:9:4",
                       "--steps", "400", "--quad", "301",
                       "--threads", str(threads), "--out", str(out)])
        assert rc == 0
        digests[threads] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert len(set(digests.values())) == 1


def test_gainmap_manifest_reports_cache_validation_error(tmp_path):
    out = tmp_path / "gm.csv"
    assert cli.main(["gainmap", "--omega4", "150:155:2", "--length", "0:6:3",
                     "--steps", "400", "--quad", "301", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "gm.csv.manifest.json").read_text())
    error = manifest["cache_validation_error"]
    assert isinstance(error, float) and math.isfinite(error) and error < 1e-4


def test_threads_env_variable(tmp_path):
    out = tmp_path / "env.csv"
    proc = run_cli(["gainmap", "--omega4", "150:155:2", "--length", "0:6:3",
                    "--steps", "400", "--quad", "301", "--out", str(out)],
                   tmp_path, env_extra={"LCQ_THREADS": "2"})
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((tmp_path / "env.csv.manifest.json").read_text())
    assert manifest["threads"] == 2
    proc = run_cli(["spectra", "--omega4", "0:1:2", "--quad", "301"],
                   tmp_path, env_extra={"LCQ_THREADS": "many"})
    assert proc.returncode == 2, proc.stderr


def test_validate_subcommand_passes():
    assert cli.main(["validate", "--quad", "1311"]) == 0


def test_validate_fails_on_inconsistent_config(tmp_path, capsys):
    # a cold medium contradicts the stated thermal population of level n
    cfg = tmp_path / "cold.json"
    cfg.write_text(json.dumps({"medium": {"temperature_C": 100.0}}))
    rc = cli.main(["validate", "--config", str(cfg), "--quad", "301"])
    out = capsys.readouterr().out
    assert rc == 3
    assert "FAIL" in out
