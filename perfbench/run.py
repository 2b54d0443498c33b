"""Benchmark of the lcq CLI on three scan workloads.

Each round of a workload runs one ``lcq`` CLI call in a fresh Python process
(``child.py``), with the checkout's ``src`` on ``PYTHONPATH``, BLAS and
OpenMP pools pinned to one thread and ``LCQ_THREADS`` removed.  Rounds
repeat until ``--seconds`` have passed (at least one); set-up time is also
sampled in extra processes that stop after the set-up.  Every metric is the
median over its samples.

    python3 perfbench/run.py --workload spectra --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py                  # every workload, untraced

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the rounds run under the span tracer and the metrics are the per-layer
ones.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An operation is the
scan call or one check; a failure is a non-zero exit or a failed check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

SETUP_PROBES = 2
ROUND_TIMEOUT_S = 150


def metric_units(trace: bool) -> dict[str, str]:
    """Names and units of the metrics a run reports, as BENCHMARK.json fixes them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "LCQ_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args: list[str], result: Path) -> dict | None:
    """Run ``child.py`` to completion; its result, or None if it failed."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args, "--result", str(result)],
            env=child_env(), cwd=ROOT, timeout=ROUND_TIMEOUT_S,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        print(f"round timed out after {ROUND_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result.is_file():
        print(proc.stderr, file=sys.stderr, end="")
        return None
    return json.loads(result.read_text(encoding="utf-8"))


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inv = workloads.invocation(name, seed, size, work / "out.csv")
    common = ["--workload", name, "--seed", str(seed), "--size", size]
    if inv.config is not None:
        config = work / "config.json"
        config.write_text(json.dumps(inv.config), encoding="utf-8")
        common += ["--config", str(config)]

    setup = []
    for k in range(SETUP_PROBES):
        probe = run_child([*common, "--work", str(work), "--setup-only"],
                          work / f"setup{k}.json")
        if probe is not None:
            setup.append(probe["setup_s"])

    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rdir = work / str(len(rounds))
        rdir.mkdir()
        rounds.append(run_child(
            [*common, "--work", str(rdir), *(["--trace"] if trace else [])],
            rdir / "result.json"))

    n_checks = workloads.check_count(name)
    attempted = failed = 0
    correct = True
    for r in rounds:
        attempted += 1 + n_checks
        if r is None or r["rc"] != 0:
            failed += 1 + n_checks
            continue
        passed = sum(c["ok"] for c in r["checks"])
        failed += n_checks - passed
        correct = correct and passed == len(r["checks"]) == n_checks
        for c in r["checks"]:
            if not c["ok"] or r is rounds[0]:
                print(f"  [{'PASS' if c['ok'] else 'FAIL'}] {name}: {c['name']} ({c['detail']})")

    good = [r for r in rounds if r is not None and r["rc"] == 0]
    units = metric_units(trace)
    if trace:
        samples = {m: [r["layers"][m] for r in good] for m in units}
    else:
        samples = {m: [r[m] for r in good] for m in units}
        samples["setup_s"] = setup + samples["setup_s"]
    metrics = {m: {"value": statistics.median(v), "unit": units[m]}
               for m, v in samples.items() if v}
    for m, v in metrics.items():
        print(f"  {name:<11} {m:<40} {v['value']:>14.6g} {v['unit']}")
    print(f"  {name:<11} {len(rounds)} round(s), {attempted} operations, {failed} failed")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="lcq CLI benchmark")
    p.add_argument("--workload", default="all", choices=("all", *workloads.NAMES))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0,
                   help="rounds repeat until this much time has passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=workloads.SIZES, default="full",
                   help="'tiny' is the self-test's reduced size")
    args = p.parse_args(argv)
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "lcq" / "cli.py").is_file():
        print(f"no lcq source at {SRC}", file=sys.stderr)
        return 2

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), args.size)
               for n in names}
    expected = metric_units(bool(args.trace))
    if any(r["metrics"].keys() != expected.keys() for r in results.values()):
        print("a workload produced no successful round", file=sys.stderr)
        return 1
    if len(results) == 1:
        out = results[names[0]]
    else:
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
