"""The summary of tools/bench_pairs.py on canned benchmark run outputs."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "solve_s", "unit": "s", "better": "lower", "bound": 0.25},
              {"name": "peak_rss_mib", "unit": "MiB", "better": "lower", "bound": 0.05},
              {"name": "node_use", "unit": "1", "better": "higher"}]


def run(solve, rss, use, attempted=15, failed=0, correct=True):
    """One run's result object, as perfbench/run.py prints it, of two workloads."""
    metrics = {}
    for workload, scale in (("spectra", 1.0), ("gainmap", 10.0)):
        for name, value, unit in (("solve_s", solve, "s"), ("peak_rss_mib", rss, "MiB"),
                                  ("node_use", use, "1")):
            metrics[f"{workload}.{name}"] = {"value": scale * value, "unit": unit}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def test_summary_medians_quartiles_and_pairs_won():
    # five pairs: the change is faster in three, slower in one, tied in one;
    # its memory ties in every pair, and its node use is higher in two
    parent = [run(1.0, 40.0, 0.5), run(2.0, 40.0, 0.5), run(3.0, 40.0, 0.5),
              run(4.0, 40.0, 0.5), run(5.0, 40.0, 0.5)]
    change = [run(0.5, 40.0, 0.6), run(2.5, 40.0, 0.4), run(2.0, 40.0, 0.5),
              run(4.0, 40.0, 0.7), run(1.0, 40.0, 0.5, failed=2, correct=False)]
    out = bench_pairs.summarize(list(zip(parent, change)), END_TO_END)
    assert list(out["workloads"]) == ["spectra", "gainmap"]
    assert out["operations"] == {"parent": {"attempted": 75, "failed": 0},
                                 "change": {"attempted": 75, "failed": 2}}
    assert out["correct"] is False
    solve = out["workloads"]["spectra"]["solve_s"]
    assert solve["parent_median"] == 3.0 and solve["change_median"] == 2.0
    assert solve["change_vs_parent"] == pytest.approx(-1 / 3, abs=1e-4)
    # statistics.quantiles, exclusive method: the 1.5th and 4.5th of five
    assert solve["parent_quartiles"] == [1.5, 4.5]
    assert solve["change_quartiles"] == [0.75, 3.25]
    assert solve["pairs_won"] == 3 and solve["pairs"] == 5
    assert out["workloads"]["gainmap"]["solve_s"]["parent_median"] == 30.0
    rss = out["workloads"]["spectra"]["peak_rss_mib"]
    assert rss["pairs_won"] == 0 and rss["change_vs_parent"] == 0.0
    assert out["workloads"]["spectra"]["node_use"]["pairs_won"] == 2   # higher is better
    json.dumps(out)   # the summary is plain JSON


def test_summary_of_one_pair():
    out = bench_pairs.summarize([(run(1.0, 40.0, 0.5), run(1.0, 39.0, 0.5))], END_TO_END)
    rss = out["workloads"]["spectra"]["peak_rss_mib"]
    assert rss["parent_quartiles"] == [40.0, 40.0] and rss["pairs_won"] == 1
    assert out["correct"] is True


def test_header_names_the_parent_and_the_change_commit(tmp_path):
    # a repository of two commits: the parent is the first, the change HEAD
    def git(*args):
        return subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t",
                               "-c", "user.email=t@example.com", *args],
                              capture_output=True, text=True, check=True).stdout.strip()

    git("init", "-q")
    for text in ("one", "two"):
        (tmp_path / "f.txt").write_text(text)
        git("add", "f.txt")
        git("commit", "-q", "-m", text)
    out = bench_pairs.header(tmp_path, 27, "HEAD~1", "a claim")
    assert out["parent_commit"] == git("rev-parse", "--short", "HEAD~1")
    assert out["change_commit"] == git("rev-parse", "--short", "HEAD")
    assert out["parent_commit"] != out["change_commit"]
    assert out["pr"] == 27 and out["claim"] == "a claim" and "core machine" in out["method"]
    assert list(out) == ["pr", "parent_commit", "change_commit", "claim", "method"]
