"""Quick self-test of the benchmark harness.

Runs every workload at its tiny size (reduced quadrature, few points, few
steps) through the untraced and the traced path, and checks that each run
passes its checks and prints exactly the metrics ``BENCHMARK.json`` names,
with their units, and that tracing leaves the CSV and the manifest as they
are.  Also checks that the workloads match ``BENCHMARK.json``.  Then checks that the benchmark refuses to run, without
printing a result, in a directory that holds only the benchmark.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _outputs(rdir: Path) -> tuple:
    """The round's CSV and its manifest without the wall time."""
    csv = (rdir / "out.csv").read_text(encoding="utf-8")
    manifest = json.loads((rdir / "out.csv.manifest.json").read_text(encoding="utf-8"))
    manifest.pop("wall_time_s")
    manifest.pop("argv")
    return csv, manifest


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    errors = []
    if [w["name"] for w in spec["workloads"]] != list(workloads.NAMES):
        errors.append("workloads differ between BENCHMARK.json and workloads.py")

    for name in workloads.NAMES:
        outputs = []
        for trace in (0, 1):
            proc = _bench(ROOT, "--workload", name, "--seed", "7", "--seconds", "0",
                          "--trace", str(trace), "--size", "tiny")
            where = f"{name} --trace {trace}"
            try:
                out = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                errors.append(f"{where}: no result (exit {proc.returncode})\n{proc.stderr}")
                continue
            if set(out) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{where}: result keys {sorted(out)}")
            if proc.returncode != 0 or not out.get("correct") or out.get("failed") != 0:
                errors.append(f"{where}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
            got = {m: v["unit"] for m, v in out.get("metrics", {}).items()}
            if got != expected[trace]:
                errors.append(f"{where}: metrics {sorted(got)}")
            bad = [m for m, v in out.get("metrics", {}).items()
                   if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"])]
            if bad:
                errors.append(f"{where}: non-numeric values for {bad}")
            print(f"{where}: {out.get('attempted')} operations, exit {proc.returncode}")
            try:
                outputs.append(_outputs(ROOT / ".bench_work" / name / "0"))
            except OSError as exc:
                errors.append(f"{where}: {exc}")
        if len(outputs) == 2 and outputs[0] != outputs[1]:
            errors.append(f"{name}: tracing changed the CSV or the manifest")

    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _bench(bare, "--workload", "spectra", "--seed", "1", "--seconds", "1", "--trace", "0")
    if proc.returncode == 0 or proc.stdout.strip():
        errors.append(f"without the source: exit {proc.returncode}, output {proc.stdout!r}")
    shutil.rmtree(bare)

    for e in errors:
        print("FAIL", e)
    print("self-test", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
