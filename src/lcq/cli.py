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

from . import __version__, coupledwave, doppler, liouville, propagate, scans, scheme
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
    worst local one of the trajectories that finished, with the tolerance
    the steps were sized to and the probe detuning and drive of its
    trajectory (None at a requested count).  The cache error is the worst
    of the runs' caches, the grid the first run's cache's (both None
    without one), and the reruns on a full |G3| axis are summed.
    """
    fields = [f for batch, _ in reports for f in batch]
    steps = np.concatenate([r.steps for _, r in reports])
    error = np.concatenate([np.where(np.isnan(r.failed_at), r.error, np.nan) for _, r in reports])
    worst = None
    if not np.isnan(error).all():
        k = int(np.nanargmax(error))
        worst = {"estimate": float(error[k]), "tolerance": propagate._STEP_TOL,
                 "omega4_MHz": fields[k].omega4, "g10_MHz": abs(fields[k].g10)}
    errors = [r.validation_error for _, r in reports if r.validation_error is not None]
    grids = [r.cache_grid for _, r in reports if r.cache_grid is not None]
    return {"steps": {"requested": reports[0][1].requested, "min": int(steps.min()),
                      "max": int(steps.max()),
                      "rejected": int(sum(r.rejected.sum() for _, r in reports)),
                      "stages": int(sum(r.stages.sum() for _, r in reports))},
            "step_error": worst, "cache_validation_error": max(errors, default=None),
            "cache_grid": grids[0] if grids else None,
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
                           help="RK4 steps over the medium (default: sized per trajectory by "
                                f"a Dormand-Prince 5(4) pair to {propagate._STEP_TOL:g} of its "
                                "peak per step)")
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
        ok = run_validation(sch, relax, medium, fields, _quad(args, sch, medium))
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


def run_validation(sch, relax, medium, fields, quad) -> bool:
    """Fast invariant self-checks; prints one PASS/FAIL line per check."""
    checks: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        checks.append((name, bool(ok), detail))

    lam = sch.wavelengths
    closure = abs(1 / lam[0] + 1 / lam[2] - 1 / lam[1] - 1 / lam[3]) * lam[3]
    check("frequency closure", closure < 1e-6, f"residual {closure:.2e}")

    # the tabulated Doppler width and thermal population describe the preset
    # medium; any medium's width must match the one the averages use
    preset, _, preset_medium, _ = scheme.na2_preset()
    fwhm = scheme.doppler_fwhm(preset_medium.temperature, preset.wavelengths[3], preset.mass)
    check("preset doppler fwhm in band", 1.5e9 < fwhm < 2.0e9, f"{fwhm/1e9:.3f} GHz")

    boltz = scheme.boltzmann_fraction(preset_medium.temperature, preset.splitting_hz())
    check("preset thermal population of n", 0.01 < boltz < 0.03, f"{boltz:.4f}")

    fwhm = scheme.doppler_fwhm(medium.temperature, lam[3], sch.mass)
    width = medium.doppler_width(sch, 4)
    rel = abs(fwhm - 2 * math.sqrt(math.log(2)) * width * 1e6 / (2 * math.pi)) / fwhm
    check("doppler fwhm of the medium", rel < 1e-12, f"{fwhm/1e9:.3f} GHz, rel {rel:.1e}")

    # the velocity class at rest, through the production kernels
    def drive_state(g1, g3):
        rho = liouville.drive_steady_state_batch(
            relax, medium.p_n, fields.omega1, fields.omega3, g1, g3)
        return rho, abs(np.trace(rho) - 1)

    rho, trace_err = drive_state(0.0, 0.0)
    eq = np.allclose(np.diagonal(rho).real, [1 - medium.p_n, medium.p_n, 0, 0], atol=1e-12)
    check("zero-field equilibrium", eq and trace_err < 1e-12)

    rho, trace_err = drive_state(fields.g10, fields.g30)
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    check("steady-state hermiticity", trace_err < 1e-12 and herm < 1e-12,
          f"trace err {trace_err:.1e}, herm {herm:.1e}")

    rho, _ = drive_state(fields.g10, 0.0)
    _, b4, _, b2 = liouville.probe_response_compact(
        liouville.compact_sources(rho), fields.omega1, fields.omega2, fields.omega4,
        fields.g10, 0.0, relax)
    check("cross coupling dies with one drive", b4 == 0 and b2 == 0)

    # zero drives: the normalization at omega4 = 0, then the Voigt line
    alpha4 = doppler.MacroscopicCoefficients.columns(doppler.coefficient_tables(
        sch, relax, medium, quad, fields, np.array([0.0, 50.0, 150.0, 300.0]), 0.0, 0.0))["alpha4"]
    check("weak-field normalization", abs(alpha4[0] - medium.alpha40) < 1e-12,
          f"alpha4 = {float(alpha4[0])!r}")

    omega4 = np.array([50.0, 150.0, 300.0])
    v0 = doppler.voigt_reference(0.0, relax.coh_ml, width)
    ref = np.array([doppler.voigt_reference(w * scheme.RAD_PER_MHZ, relax.coh_ml, width).real
                    for w in omega4]) / v0.real
    worst = float(np.max(np.abs(alpha4[1:] - ref * medium.alpha40) / np.abs(ref)))
    check("voigt oracle agreement", worst < 1e-3, f"worst rel {worst:.1e}")

    # the pole sums against the velocity rule, relative to each field's
    # Maxwell-averaged modulus, at the preset drives
    with doppler.pole_stats() as stats:
        poles = doppler._average(sch, relax, medium, quad, fields, omega4, fields.g10, fields.g30)
    rule = doppler._node_sums(sch, relax, medium, quad, fields, omega4, fields.g10, fields.g30)
    scale = doppler._node_sums(sch, relax, medium, quad, fields, omega4, fields.g10, fields.g30,
                               modulus=True)
    worst = max(float(np.max(np.abs(a - b) / s.real)) for a, b, s in zip(poles, rule, scale))
    check("pole sums vs velocity rule", worst < 1e-8,
          f"worst {worst:.1e} of a field's scale, {quad.n} nodes")
    check("pole conditioning", stats.exceptional == 0,
          f"worst condition number {stats.worst_condition:.1e}, "
          f"{stats.exceptional} exceptional points")

    # the closed-form poles against LAPACK at the drive points above
    agreement = pole_agreement(sch, relax, medium, quad, fields, omega4[:, None],
                               np.array([0.0, fields.g10, fields.g10]),
                               np.array([0.0, fields.g30, 0.0]))
    check("closed-form poles vs eig",
          agreement["pole_error"] <= 1e-12 and agreement["condition_error"] <= 1e-8,
          f"poles {agreement['pole_error']:.1e} of the largest, "
          f"condition numbers {agreement['condition_error']:.1e} relative")

    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(5):
        c = coupledwave.OpaCoefficients(
            alpha4=rng.uniform(-1, 1), alpha2=rng.uniform(-1, 1),
            delta_k=rng.uniform(-1, 1),
            gamma4=complex(rng.normal(), rng.normal()) * 0.3,
            gamma2=complex(rng.normal(), rng.normal()) * 0.3,
        )
        b = coupledwave.BoundaryAmplitudes(
            complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal()))
        got4, got2 = coupledwave.opa_solution(c, b, 5.0)
        ref4, ref2 = _ode_reference(c, b, 5.0)
        worst = max(worst, abs(got4 - ref4) / abs(ref4), abs(got2 - ref2) / abs(ref2))
    check("closed form vs integration", worst < 1e-8, f"worst rel {worst:.1e}")

    cl = coupledwave.OpaCoefficients(0.0, 0.0, 0.0, 0.4, 0.4)
    zgrid = np.linspace(0.0, 10.0, 41)
    e4, e2c = coupledwave.opa_solution(
        cl, coupledwave.BoundaryAmplitudes(1.0 + 0.5j, 0.3 - 0.2j), zgrid)
    drift = float(np.max(np.abs((np.abs(e4) ** 2 - np.abs(e2c) ** 2)
                                - (np.abs(e4[0]) ** 2 - np.abs(e2c[0]) ** 2))))
    check("lossless conservation", drift < 1e-9, f"drift {drift:.1e}")

    all_ok = True
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        line = f"[{status}] {name}"
        if detail:
            line += f" ({detail})"
        print(line)
        all_ok = all_ok and ok
    return all_ok


def _eig_poles(matrices: np.ndarray) -> tuple:
    """LAPACK eigenvalues (P, 4) of ``matrices`` (P, 4, 4), and the Frobenius condition
    numbers (P,) of their unit-column eigenvector matrices, inf where one is singular."""
    values, vectors = np.linalg.eig(matrices)
    return values, np.linalg.cond(vectors, "fro")


def _mismatch(got: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Distance (P,) between root sets (P, 4): each root to its nearest in the other set,
    the largest of these, over the reference's largest modulus."""
    gap = np.abs(got[:, :, None] - ref[:, None, :])
    worst = np.maximum(gap.min(axis=1).max(axis=1), gap.min(axis=2).max(axis=1))
    return worst / np.abs(ref).max(axis=1)


def pole_agreement(sch, relax, medium, quad, fields, omega4, G1, G3) -> dict:
    """The closed-form poles of :mod:`lcq.doppler` against LAPACK's ``eig``.

    At the drive points ``G1``, ``G3`` (P,) and probe detunings ``omega4``
    (``w[:, None]`` for every column at each point), as
    :func:`lcq.doppler._average` sets them up: the drive sector's roots are
    the eigenvalues of the companion matrix of its scaled monic quartic, and
    each probe block's poles those of K = -M1^-1 M0; the drive roots take
    a Newton step on the quartic, as the closed form's do.  Both errors are
    over the points whose LAPACK condition number is at most
    :data:`lcq.doppler._COALESCING`, the poles the pole sums would use:
    ``pole_error`` is the largest distance of a root to the nearest root of
    the other set, relative to the point's largest pole, and
    ``condition_error`` the largest relative difference of the condition
    numbers; a closed-form value there that is not finite makes them NaN or
    inf.  ``closed_form_s`` and ``eig_s`` are the times of the two: the
    drive sector and the pencil poles, against ``eig`` and the condition
    numbers.
    """
    rad = scheme.RAD_PER_MHZ
    d1, d2, d3, d4 = liouville.doppler_shifts(sch, quad.u)
    slopes = np.array(liouville.probe_block(-d1, -d2, -d4, 0.0, 0.0, (0.0,) * 4)[:4])
    rates = liouville.probe_rates(relax)
    G1, G3 = np.asarray(G1, dtype=complex), np.asarray(G3, dtype=complex)
    w4, point = (a.ravel() for a in np.broadcast_arrays(omega4, np.arange(G1.size)))
    block = liouville.probe_block(fields.omega1, fields.omega1 + fields.omega3 - w4, w4,
                                  G1[point], G3[point], rates)
    start = time.perf_counter()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        drive = doppler._drive_sector(relax, medium.p_n, (rad * fields.omega1,
                                      rad * fields.omega3), (rad * d1, rad * d3), G1, G3)
        got = [(drive.poles, drive.condition), doppler._pencil_poles(block, slopes)]
    closed_form_s = time.perf_counter() - start
    start = time.perf_counter()
    Q = drive.Q
    scale = (Q[:, 0] / Q[:, 4]) ** 0.25
    companion = np.zeros((len(Q), 4, 4))
    companion[:, [1, 2, 3], [0, 1, 2]] = 1.0
    companion[:, :, 3] = -Q[:, :4] / Q[:, 4:] * scale[:, None] ** np.arange(-4, 0)
    roots, condition = _eig_poles(companion)
    roots = scale[:, None] * roots
    slope = Q[:, 1:] * np.arange(1, 5)
    ref = [(roots - doppler._polyval(Q, roots) / doppler._polyval(slope, roots), condition),
           _eig_poles(-liouville.probe_matrix(*block) / slopes[:, None])]
    eig_s = time.perf_counter() - start
    # only poles that the pole sums would use count: where LAPACK's condition
    # number exceeds the coalescing threshold, the velocity rule averages
    pole_errors, condition_errors = [], []
    for (poles, condition), (ref_poles, ref_condition) in zip(got, ref):
        summed = ref_condition <= doppler._COALESCING
        pole_errors.append(np.max(_mismatch(poles, ref_poles), where=summed, initial=0.0))
        condition_errors.append(np.max(np.abs(condition - ref_condition) / ref_condition,
                                       where=summed, initial=0.0))
    return {"pole_error": float(np.max(pole_errors)),   # NaN if any is
            "condition_error": float(np.max(condition_errors)),
            "closed_form_s": closed_form_s, "eig_s": eig_s}


def _ode_reference(c, b, L):
    """The reduced two-wave equations integrated by DOP853, as an independent check."""
    from scipy.integrate import solve_ivp  # only ``lcq validate`` needs it

    g2c = np.conj(c.gamma2)

    def f(z, y):
        return np.array([
            -0.5 * c.alpha4 * y[0] + 1j * c.gamma4 * np.exp(1j * c.delta_k * z) * y[1],
            -0.5 * c.alpha2 * y[1] - 1j * g2c * np.exp(-1j * c.delta_k * z) * y[0],
        ])

    y0 = np.array([complex(b.e40), np.conj(complex(b.e20))])
    sol = solve_ivp(f, (0.0, L), y0, method="DOP853", rtol=1e-12, atol=1e-14)
    return sol.y[0, -1], sol.y[1, -1]


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
