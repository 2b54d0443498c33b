"""Alternating parent/change pairs of the benchmark, summarised as ``BENCH_<PR>.json``.

    python3 tools/bench_pairs.py --pr 26 --parent a7ad2d0

The change is ``HEAD``; the output names both commits by their short
hashes, ``parent_commit`` and ``change_commit``.  Each side is a clean
``git archive`` copy of its commit in a scratch directory, so neither side
sees the working tree or the other's files.
Every run is ``python3 perfbench/run.py --workload all --seconds 0 --seed S``
in a copy, with ``PYTHONDONTWRITEBYTECODE=1``, so that every run compiles
``lcq`` from source.  One warm-up run per side is discarded; then each of
the ``PAIRS`` pairs k runs both sides at seed 100 PR + 1 + k, the parent
first in even pairs and the change first in odd ones, so that a drift of
the machine's speed weighs on both alike.

For each workload and end-to-end metric of ``BENCHMARK.json`` the summary
holds each side's median and quartiles (``statistics.quantiles``, n = 4),
the change's relative difference of the medians, and ``pairs_won``: the
pairs in which the change reads better than the parent, in the direction
``BENCHMARK.json`` gives; a tie counts for neither.  The raw run outputs are
kept as ``runs.json`` in the scratch directory.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

PAIRS = 20
METHOD = ("alternating parent/change pairs (parent first in even pairs) of `python3 "
          "perfbench/run.py --workload all --seconds 0 --seed S`, one discarded warm-up per "
          "side, clean `git archive` copies, {cores}-core machine, PYTHONDONTWRITEBYTECODE=1 "
          "(every run compiles lcq from source), by tools/bench_pairs.py; pairs_won counts "
          "pairs where the change reads better, ties for neither")


def archive(repo: Path, rev: str, dest: Path) -> None:
    """Extract the files of commit ``rev`` of ``repo`` into the new directory ``dest``."""
    tar = subprocess.run(["git", "-C", str(repo), "archive", "--format=tar", rev],
                         capture_output=True, check=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")


def run_once(copy: Path, seed: int) -> dict:
    """The result object that ``perfbench/run.py`` prints last, for one run in ``copy``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seconds", "0",
         "--seed", str(seed)], cwd=copy, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError(f"benchmark run in {copy} at seed {seed} printed no result "
                           f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}") from None


def _rounded(x: float, digits: int = 5) -> float:
    return round(float(x), digits)


def summarize(pairs: list[tuple[dict, dict]], end_to_end: list[dict]) -> dict:
    """The session summary of (parent, change) run results, as ``BENCH_<PR>.json`` holds it.

    ``end_to_end`` is the ``end_to_end`` list of ``BENCHMARK.json``; a
    metric's samples are the runs' ``metrics["<workload>.<name>"]["value"]``.
    """
    operations = {side: {"attempted": sum(p[i]["attempted"] for p in pairs),
                         "failed": sum(p[i]["failed"] for p in pairs)}
                  for i, side in enumerate(("parent", "change"))}
    workloads = dict.fromkeys(k.split(".", 1)[0] for k in pairs[0][0]["metrics"])
    summary = {}
    for workload in workloads:
        summary[workload] = {}
        for metric in end_to_end:
            key = f"{workload}.{metric['name']}"
            parent = [p[0]["metrics"][key]["value"] for p in pairs]
            change = [p[1]["metrics"][key]["value"] for p in pairs]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            won = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
            p_med, c_med = statistics.median(parent), statistics.median(change)
            q_p, q_c = (statistics.quantiles(x, n=4) if len(x) > 1 else [x[0]] * 3
                        for x in (parent, change))
            summary[workload][metric["name"]] = {
                "unit": metric["unit"],
                "parent_median": _rounded(p_med),
                "change_median": _rounded(c_med),
                "change_vs_parent": _rounded((c_med - p_med) / p_med, 4) if p_med else None,
                "parent_quartiles": [_rounded(q_p[0]), _rounded(q_p[2])],
                "change_quartiles": [_rounded(q_c[0]), _rounded(q_c[2])],
                "pairs_won": int(won),
                "pairs": len(pairs),
            }
    return {"operations": operations,
            "correct": all(p[i]["correct"] for p in pairs for i in (0, 1)),
            "workloads": summary}


def header(repo: Path, pr: int, parent: str, claim: str) -> dict:
    """The fields of ``BENCH_<PR>.json`` before its sessions.

    ``parent_commit`` and ``change_commit`` are the short hashes of
    ``parent`` and of ``HEAD`` in ``repo``, the two commits the pairs ran.
    """
    def short(rev):
        return subprocess.run(["git", "-C", str(repo), "rev-parse", "--short", rev],
                              capture_output=True, text=True, check=True).stdout.strip()

    return {"pr": pr, "parent_commit": short(parent), "change_commit": short("HEAD"),
            "claim": claim, "method": METHOD.format(cores=os.cpu_count())}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="alternating parent/change benchmark pairs")
    p.add_argument("--pr", type=int, required=True, help="number in the output name")
    p.add_argument("--parent", required=True, help="parent commit; the change is HEAD")
    p.add_argument("--claim", default="none; no end-to-end metric worse than its "
                                      "BENCHMARK.json bound")
    p.add_argument("--work", help="scratch directory (default a fresh temporary one)")
    p.add_argument("--out", help="output path (default BENCH_<PR>.json in the repository)")
    args = p.parse_args(argv)
    repo = Path(subprocess.run(["git", "rev-parse", "--show-toplevel"], capture_output=True,
                               text=True, check=True).stdout.strip())
    work = Path(args.work or tempfile.mkdtemp(prefix="bench_pairs_"))
    copies = {"parent": work / "parent", "change": work / "change"}
    head = header(repo, args.pr, args.parent, args.claim)
    for side in ("parent", "change"):
        archive(repo, head[f"{side}_commit"], copies[side])
    seed0 = 100 * args.pr + 1
    for side in ("parent", "change"):
        run_once(copies[side], seed0 - 1)          # warm-up, discarded
    pairs = []
    for k in range(PAIRS):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        result = {side: run_once(copies[side], seed0 + k) for side in order}
        pairs.append((result["parent"], result["change"]))
        print(f"pair {k + 1}/{PAIRS} done", file=sys.stderr)
    (work / "runs.json").write_text(json.dumps(pairs, indent=1) + "\n", encoding="utf-8")
    spec = json.loads((copies["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    session = {"change": "the committed change",
               "seeds": f"{seed0}-{seed0 + PAIRS - 1}",
               **summarize(pairs, spec["end_to_end"])}
    bench = {**head, "sessions": [session]}
    out = Path(args.out) if args.out else repo / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
