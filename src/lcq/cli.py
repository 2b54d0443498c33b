"""Command-line front end: config loading, scan subcommands, CSV/manifest output.

Exit codes: 0 on success, 2 for configuration/usage errors (a missing output
directory or a failed write among them), 3 for numerical failures (the
failing position or cell is reported on stderr).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
import time
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__, doppler, liouville, propagate, scans, scheme
from .doppler import QuadratureSpec
from .scheme import ConfigError, finite_float


def _parse_grid(text: str) -> np.ndarray:
    """Parse 'MIN:MAX:N' into a linear grid, or a single float into [value]."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return np.array([finite_float(parts[0])])
        if len(parts) == 3:
            lo, hi, n = finite_float(parts[0]), finite_float(parts[1]), int(parts[2])
            if n < 1 or not 0 <= hi - lo < math.inf:
                raise ValueError
            return np.linspace(lo, hi, n)
    except ValueError:
        pass
    except MemoryError:
        raise ConfigError(f"sweep specification {text!r} has more points than memory holds") from None
    raise ConfigError(f"cannot parse sweep specification {text!r} (want MIN:MAX:N)")


class _Parser(argparse.ArgumentParser):
    """Usage errors, a bad number among them, are configuration errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _load(args) -> tuple:
    if args.config:
        return scheme.load_config(args.config)
    return scheme.na2_preset()


def _quad(args, sch, med) -> QuadratureSpec:
    kwargs = {}
    if args.quad is not None:
        kwargs["n"] = args.quad
    return QuadratureSpec.for_medium(sch, med, **kwargs)


def _check_output_dirs(args) -> None:
    """Reject an output path that cannot be a file to write, before any computation.

    Its directory must exist, and the path itself must not be a directory.
    """
    for path in (args.out, _manifest_path(args)):
        if path and not Path(path).parent.is_dir():
            raise ConfigError(f"output directory {Path(path).parent} does not exist")
        if path and Path(path).is_dir():
            raise ConfigError(f"cannot write {path}: it is a directory")


@contextlib.contextmanager
def _writing(path):
    """An ``OSError`` raised inside becomes a configuration error that names ``path``."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _manifest_path(args) -> str | None:
    if args.command == "preset":
        return None
    if args.manifest is None and args.out:
        return str(args.out) + ".manifest.json"
    return args.manifest


def _write_manifest(args, payload: dict) -> None:
    path = _manifest_path(args)
    if path is None:
        return
    with _writing(path):
        Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _step_manifest(reports: list) -> dict:
    """The manifest's "steps", "step_error" and cache evidence of the runs in ``reports``.

    The steps are the fewest and most accepted steps of any trajectory,
    with the rejected steps and the right-hand-side rows (stages) summed
    over the trajectories, both passes of a rerun's; the estimate is the
    worst local one of the trajectories that finished, with the probe
    detuning and drive of its trajectory and the tolerance the steps were
    sized to (None at a requested count).  The cache error is the worst of
    the runs' caches, the grids every grid the runs read, first pass
    first (None without a cache), and the reruns on a full |G3| axis are
    summed.
    """
    fields = [f for batch, _ in reports for f in batch]
    requested = reports[0][1].requested
    steps = np.concatenate([r.steps for _, r in reports])
    error = np.concatenate([np.where(np.isnan(r.failed_at), r.error, np.nan) for _, r in reports])
    worst = None
    if not np.isnan(error).all():
        k = int(np.nanargmax(error))
        worst = {"estimate": float(error[k]),
                 "tolerance": propagate._STEP_TOL if requested is None else None,
                 "omega4_MHz": fields[k].omega4, "g10_MHz": abs(fields[k].g10)}
    errors = [r.validation_error for _, r in reports if r.validation_error is not None]
    grids = [grid for _, r in reports for grid in r.cache_grid]
    return {"steps": {"requested": requested, "min": int(steps.min()),
                      "max": int(steps.max()),
                      "rejected": int(sum(r.rejected.sum() for _, r in reports)),
                      "stages": int(sum(r.stages.sum() for _, r in reports))},
            "step_error": worst, "cache_validation_error": max(errors, default=None),
            "cache_grid": grids or None,
            "cache_reruns": sum(r.reruns for _, r in reports)}


def _emit(args, table, manifest_extra: dict, t_start: float,
          stats: doppler.PoleStats, reports: list) -> None:
    if args.out:
        with _writing(args.out):
            scans.records_to_csv(table, args.out)
    else:
        sys.stdout.write(scans.csv_text(table))
    payload = {
        "version": __version__,
        "argv": manifest_extra.pop("argv"),
        "config": manifest_extra.pop("config"),
        "wall_time_s": time.perf_counter() - t_start,
        **manifest_extra,
    }
    payload["quadrature"].update(exceptional_points=stats.exceptional,
                                 worst_pole_condition=stats.worst_condition)
    if reports:
        payload.update(_step_manifest(reports))
        fallbacks = sum(r.fallbacks for _, r in reports)
        if fallbacks:
            payload["warnings"].append(f"{fallbacks} cache lookups fell back to direct evaluation")
    _write_manifest(args, payload)


@cache  # one parser per process: parsing leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lcq",
        description=(
            "Coherence-controlled transparency and parametric gain in a "
            "Doppler-broadened double-lambda medium"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, integrates=True, writes=True):
        """The flags a subcommand reads: steps if it integrates, paths if it writes."""
        p.add_argument("--config", help="configuration file (JSON); defaults to the preset")
        p.add_argument("--quad", type=int,
                       help="velocity nodes of the sinh rule that checks the exact average "
                            "and averages exceptional points")
        if integrates:
            p.add_argument("--steps", type=int,
                           help="fixed Dormand-Prince 5(4) steps over the medium (default: "
                                "sized per trajectory by the pair's step control to "
                                f"{propagate._STEP_TOL:g} of its peak per step)")
            # an old flag, still parsed so that old command lines run; it has no effect
            p.add_argument("--threads", type=int, help=argparse.SUPPRESS)
        if writes:
            p.add_argument("--out", help="output CSV path (default stdout)")
            p.add_argument("--manifest", help="manifest path (default OUT.manifest.json)")

    p = sub.add_parser("preset", help="dump the sodium-dimer preset configuration")
    p.add_argument("--out", help="output path (default stdout)")

    p = sub.add_parser("spectra", help="coefficient spectra versus probe detuning")
    common(p, integrates=False)
    p.add_argument("--omega4", default="-400:400:801", help="probe detuning sweep MIN:MAX:N")
    p.add_argument("--g1", type=finite_float, help="override drive amplitude G1 (MHz)")
    p.add_argument("--g3", type=finite_float, help="override drive amplitude G3 (MHz)")

    p = sub.add_parser("dynamics", help="field intensities versus optical length")
    common(p)
    p.add_argument("--omega4", type=finite_float, help="probe detuning (MHz); default from config")
    p.add_argument("--length", type=finite_float, default=40.0, help="medium length (L4)")

    p = sub.add_parser("gainmap", help="transmission map over detuning and length")
    common(p)
    p.add_argument("--omega4", default="0:300:61", help="probe detuning grid MIN:MAX:N")
    p.add_argument("--length", default="0:60:61", help="length grid MIN:MAX:N")

    p = sub.add_parser("switch", help="switching curve at fixed length")
    common(p)
    p.add_argument("--omega4", help="probe detuning sweep MIN:MAX:N")
    p.add_argument("--g10", help="drive amplitude sweep MIN:MAX:N")
    p.add_argument("--length", type=finite_float, default=20.0,
                   help="fixed optical length (L4); the transmission-map optimum is a good choice")

    p = sub.add_parser("validate", help="run the invariant self-checks")
    common(p, integrates=False, writes=False)
    parser.set_defaults(out=None, manifest=None)  # validate writes no file
    return parser


_VALUE_FLAGS = ("--omega4", "--length", "--g10", "--g1", "--g3")


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Join sweep flags with values that start with '-' (e.g. -400:400:801)."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    t_start = time.perf_counter()
    try:
        args = build_parser().parse_args(_merge_negative_values(argv))
        with doppler.pole_stats() as stats, propagate.step_reports() as reports:
            return _dispatch(args, argv, t_start, stats, reports)
    except SystemExit as exc:  # --help and --version
        return 0 if exc.code in (0, None) else 2
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (propagate.PropagationError, doppler.AveragingError, liouville.SingularSystemError,
            propagate.CacheValidationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def _dispatch(args, argv: list[str], t_start: float, stats: doppler.PoleStats,
              reports: list) -> int:
    _check_output_dirs(args)
    if args.command == "preset":
        text = json.dumps(scheme.preset_config(), indent=2) + "\n"
        if args.out:
            with _writing(args.out):
                Path(args.out).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
        return 0

    sch, relax, medium, fields = _load(args)
    config_snapshot = scheme.params_to_config(sch, relax, medium, fields)

    if args.command == "validate":
        from . import checks  # with coupledwave, loaded for this subcommand alone

        ok = checks.run_validation(sch, relax, medium, fields, _quad(args, sch, medium))
        return 0 if ok else 3

    quad = _quad(args, sch, medium)
    manifest = {
        "argv": argv,
        "config": config_snapshot,
        "quadrature": {"method": "pole sums of Faddeeva functions", "rule": quad.rule,
                       "n": quad.n, "wing_n": quad.wing_n, "u_m_per_s": quad.u},
    }
    manifest["warnings"] = []

    if args.command == "spectra":
        sweep = _parse_grid(args.omega4)
        table = scans.spectra_scan(
            sch, relax, medium, fields, sweep,
            G1=args.g1, G3=args.g3, quad=quad,
        )
        _emit(args, table, manifest, t_start, stats, reports)
        return 0

    if args.command == "dynamics":
        f = fields if args.omega4 is None else fields.with_omega4(args.omega4)
        table = scans.spatial_dynamics(
            sch, relax, medium, f, L=args.length, steps=args.steps, quad=quad,
        )
        _emit(args, table, manifest, t_start, stats, reports)
        return 0

    if args.command == "gainmap":
        omega4 = _parse_grid(args.omega4)
        lengths = _parse_grid(args.length)
        result = propagate.gain_map(
            sch, relax, medium, fields, omega4, lengths,
            steps=args.steps, quad=quad,
        )
        table = scans.gain_map_records(result)
        n_invalid = int(np.size(result.valid) - np.count_nonzero(result.valid))
        if n_invalid:
            manifest["warnings"].append(f"{n_invalid} grid cells invalid")
        manifest["max_gain"] = result.max_gain
        manifest["argmax"] = dict(zip(("omega4_MHz", "length_L4"), result.argmax()))
        _emit(args, table, manifest, t_start, stats, reports)
        return 0

    if args.command == "switch":
        if (args.omega4 is None) == (args.g10 is None):
            raise ConfigError("switch needs exactly one of --omega4 or --g10")
        axis = "omega4" if args.omega4 is not None else "g10"
        sweep = _parse_grid(args.omega4 if axis == "omega4" else args.g10)
        table = scans.switching_curve(
            sch, relax, medium, fields, L=args.length, sweep=sweep, axis=axis,
            steps=args.steps, quad=quad,
        )
        crossings = scans.transparency_crossings(table, axis)
        manifest["transparency_crossings"] = crossings
        _emit(args, table, manifest, t_start, stats, reports)
        return 0

    raise ConfigError(f"unknown command {args.command!r}")


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
