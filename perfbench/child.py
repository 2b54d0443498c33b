"""One round of a workload in a fresh process.

Times the set-up (importing ``lcq.cli``, which brings in numpy and scipy,
and loading the workload's configuration) and the ``lcq.cli.main`` call,
reads the process's CPU time and peak resident memory, and then runs the
workload's checks outside the timed call.  With ``--trace`` the call runs
under the span tracer and the per-layer metrics are written instead.

The result goes to ``--result`` as JSON.  ``--setup-only`` stops after the
set-up, so that ``run.py`` can sample set-up time in several processes.

    python3 perfbench/child.py --workload spectra --seed 1 --size full \
        --work .bench_work/spectra/0 --result .bench_work/spectra/0/result.json
"""

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", default="full")
    p.add_argument("--work", required=True, help="directory for the CSV, manifest and spans")
    p.add_argument("--result", required=True)
    p.add_argument("--config", help="configuration file the workload reads")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    t_setup = time.perf_counter()
    import lcq.cli
    from lcq import scheme

    params = scheme.load_config(args.config) if args.config else scheme.na2_preset()
    setup_s = time.perf_counter() - t_setup
    src = Path(__file__).resolve().parent.parent / "src"
    if not Path(lcq.cli.__file__).resolve().is_relative_to(src):
        print(f"lcq was imported from {lcq.cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = {"setup_s": setup_s}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result), encoding="utf-8")
        return 0

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    work = Path(args.work)
    out = work / "out.csv"
    inv = workloads.invocation(args.workload, args.seed, args.size, out)
    argv_cli = list(inv.argv)
    if args.config:
        argv_cli += ["--config", args.config]

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    w0 = time.perf_counter()
    rc = lcq.cli.main(argv_cli)
    solve_s = time.perf_counter() - w0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    if tracer is not None:
        tracer.uninstall()
    result.update({
        "argv": argv_cli,
        "rc": rc,
        "solve_s": solve_s,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mib": ru1.ru_maxrss / 1024.0,
    })
    if tracer is not None:
        result["layers"] = tracer.metrics(solve_s)
        tracer.write_spans(work / "spans.tsv")

    checks = []
    if rc == 0:
        try:
            checks = [{"name": c.name, "ok": bool(c.ok), "detail": c.detail}
                      for c in workloads.run_checks(
                          args.workload, args.seed, inv.argv, out, params)]
        except Exception:  # a check that cannot run counts as failed, with its traceback
            checks = [{"name": "checks", "ok": False, "detail": traceback.format_exc()}]
    result["checks"] = checks
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
