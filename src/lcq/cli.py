"""Command-line front end: config loading, scan subcommands, CSV/manifest output.

Exit codes: 0 on success, 2 for configuration/usage errors, 3 for numerical
failures (the failing position or cell is reported on stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

from . import __version__, coupledwave, doppler, liouville, propagate, scans, scheme
from .doppler import QuadratureSpec
from .scheme import ConfigError


def _parse_grid(text: str) -> np.ndarray:
    """Parse 'MIN:MAX:N' into a linear grid, or a single float into [value]."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return np.array([float(parts[0])])
        if len(parts) == 3:
            lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
            if n < 1 or hi < lo:
                raise ValueError
            return np.linspace(lo, hi, n)
    except ValueError:
        pass
    raise ConfigError(f"cannot parse sweep specification {text!r} (want MIN:MAX:N)")


def _load(args) -> tuple:
    if args.config:
        return scheme.load_config(args.config)
    return scheme.na2_preset()


def _quad(args, sch, med) -> QuadratureSpec:
    kwargs = {}
    if args.quad:
        kwargs["n"] = args.quad
    return QuadratureSpec.for_medium(sch, med, **kwargs)


def _threads(args) -> int:
    if args.threads is not None:
        return max(1, args.threads)
    env = os.environ.get("LCQ_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ConfigError(f"bad LCQ_THREADS value {env!r}") from exc
    return 1


def _write_manifest(args, payload: dict) -> None:
    path = args.manifest
    if path is None and args.out:
        path = str(args.out) + ".manifest.json"
    if path is None:
        return
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _emit(args, records, manifest_extra: dict, t_start: float) -> None:
    if args.out:
        scans.records_to_csv(records, args.out)
    else:
        columns = list(records[0].values.keys())
        print(",".join(scans.column_header(c) for c in columns))
        for r in records:
            print(",".join(f"{r.values[c]:.17g}" for c in columns))
    payload = {
        "version": __version__,
        "argv": manifest_extra.pop("argv"),
        "config": manifest_extra.pop("config"),
        "wall_time_s": time.perf_counter() - t_start,
        **manifest_extra,
    }
    _write_manifest(args, payload)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcq",
        description=(
            "Coherence-controlled transparency and parametric gain in a "
            "Doppler-broadened double-lambda medium"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="configuration file (JSON); defaults to the preset")
        p.add_argument("--quad", type=int, help="velocity quadrature core node count")
        p.add_argument("--steps", type=int, default=2000, help="integration steps")
        p.add_argument("--threads", type=int, help="worker threads (default LCQ_THREADS or 1)")
        p.add_argument("--out", help="output CSV path (default stdout)")
        p.add_argument("--manifest", help="manifest path (default OUT.manifest.json)")

    p = sub.add_parser("preset", help="dump the sodium-dimer preset configuration")
    p.add_argument("--out", help="output path (default stdout)")

    p = sub.add_parser("spectra", help="coefficient spectra versus probe detuning")
    common(p)
    p.add_argument("--omega4", default="-400:400:801", help="probe detuning sweep MIN:MAX:N")
    p.add_argument("--g1", type=float, help="override drive amplitude G1 (MHz)")
    p.add_argument("--g3", type=float, help="override drive amplitude G3 (MHz)")

    p = sub.add_parser("dynamics", help="field intensities versus optical length")
    common(p)
    p.add_argument("--omega4", type=float, help="probe detuning (MHz); default from config")
    p.add_argument("--length", type=float, default=40.0, help="medium length (L4)")

    p = sub.add_parser("gainmap", help="transmission map over detuning and length")
    common(p)
    p.add_argument("--omega4", default="0:300:61", help="probe detuning grid MIN:MAX:N")
    p.add_argument("--length", default="0:60:61", help="length grid MIN:MAX:N")

    p = sub.add_parser("switch", help="switching curve at fixed length")
    common(p)
    p.add_argument("--omega4", help="probe detuning sweep MIN:MAX:N")
    p.add_argument("--g10", help="drive amplitude sweep MIN:MAX:N")
    p.add_argument("--length", type=float, default=20.0,
                   help="fixed optical length (L4); the transmission-map optimum is a good choice")

    p = sub.add_parser("validate", help="run the invariant self-checks")
    common(p)
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
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_merge_negative_values(list(argv)))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    t_start = time.perf_counter()
    try:
        return _dispatch(args, list(argv), t_start)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except propagate.PropagationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (doppler.AveragingError, liouville.SingularSystemError,
            propagate.CacheValidationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def _dispatch(args, argv: list[str], t_start: float) -> int:
    if args.command == "preset":
        text = json.dumps(scheme.preset_config(), indent=2) + "\n"
        if args.out:
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
    threads = _threads(args)
    manifest = {
        "argv": argv,
        "config": config_snapshot,
        "quadrature": {"rule": quad.rule, "n": quad.n, "wing_n": quad.wing_n,
                       "u_m_per_s": quad.u},
        "steps": args.steps,
        "threads": threads,
        "warnings": [],
    }

    if args.command == "spectra":
        sweep = _parse_grid(args.omega4)
        records = scans.spectra_scan(
            sch, relax, medium, fields, sweep, axis="omega4",
            G1=args.g1, G3=args.g3, quad=quad,
        )
        _emit(args, records, manifest, t_start)
        return 0

    if args.command == "dynamics":
        f = fields if args.omega4 is None else fields.with_omega4(args.omega4)
        records = scans.spatial_dynamics(
            sch, relax, medium, f, L=args.length, steps=args.steps, quad=quad,
        )
        _emit(args, records, manifest, t_start)
        return 0

    if args.command == "gainmap":
        omega4 = _parse_grid(args.omega4)
        lengths = _parse_grid(args.length)
        result = propagate.gain_map(
            sch, relax, medium, fields, omega4, lengths,
            steps=args.steps, quad=quad, threads=threads,
        )
        records = scans.gain_map_records(result)
        if result.cache_fallbacks:
            manifest["warnings"].append(
                f"{result.cache_fallbacks} cache lookups fell back to direct evaluation"
            )
        n_invalid = int(np.size(result.valid) - np.count_nonzero(result.valid))
        if n_invalid:
            manifest["warnings"].append(f"{n_invalid} grid cells invalid")
        manifest["max_gain"] = result.max_gain
        manifest["cache_validation_error"] = result.validation_error
        manifest["argmax"] = dict(zip(("omega4_MHz", "length_L4"), result.argmax()))
        _emit(args, records, manifest, t_start)
        return 0

    if args.command == "switch":
        if (args.omega4 is None) == (args.g10 is None):
            raise ConfigError("switch needs exactly one of --omega4 or --g10")
        axis = "omega4" if args.omega4 is not None else "g10"
        sweep = _parse_grid(args.omega4 if axis == "omega4" else args.g10)
        records = scans.switching_curve(
            sch, relax, medium, fields, L=args.length, sweep=sweep, axis=axis,
            steps=args.steps, quad=quad, threads=threads,
        )
        crossings = scans.transparency_crossings(records, axis)
        manifest["transparency_crossings"] = crossings
        _emit(args, records, manifest, t_start)
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

    fwhm = scheme.doppler_fwhm(medium.temperature, lam[3], sch.mass)
    check("doppler fwhm in band", 1.5e9 < fwhm < 2.0e9, f"{fwhm/1e9:.3f} GHz")

    boltz = scheme.boltzmann_fraction(medium.temperature, sch.splitting_hz())
    check("thermal population of n", 0.01 < boltz < 0.03, f"{boltz:.4f}")

    det0 = liouville.detune_for_velocity(fields, sch, 0.0)
    st = liouville.solve_zeroth_order(sch, relax, medium, det0, 0.0, 0.0)
    eq = np.allclose(st.populations, [1 - medium.p_n, medium.p_n, 0, 0], atol=1e-12)
    check("zero-field equilibrium", eq and abs(st.trace - 1) < 1e-12)

    st2 = liouville.solve_zeroth_order(sch, relax, medium, det0, fields.g10, fields.g30)
    herm = float(np.max(np.abs(st2.rho - st2.rho.conj().T)))
    check("steady-state hermiticity", abs(st2.trace - 1) < 1e-12 and herm < 1e-12,
          f"trace err {abs(st2.trace-1):.1e}, herm {herm:.1e}")

    st_single = liouville.solve_zeroth_order(sch, relax, medium, det0, fields.g10, 0.0)
    pr = liouville.solve_probe_response(st_single, sch, relax, det0, fields.g10, 0.0)
    check("cross coupling dies with one drive", pr.b4 == 0 and pr.b2 == 0)

    mc0 = doppler.average_coefficients(sch, relax, medium, fields.with_omega4(0.0), 0.0, 0.0, quad)
    check("weak-field normalization", abs(mc0.alpha4 - medium.alpha40) < 1e-12,
          f"alpha4 = {mc0.alpha4!r}")

    rad = scheme.RAD_PER_MHZ
    width = medium.doppler_width(sch, 4)
    worst = 0.0
    v0 = doppler.voigt_reference(0.0, relax.coh_gl * 0 + relax.coh_ml, width)
    for om4 in (50.0, 150.0, 300.0):
        mc = doppler.average_coefficients(
            sch, relax, medium, fields.with_omega4(om4), 0.0, 0.0, quad)
        ref = doppler.voigt_reference(om4 * rad, relax.coh_ml, width).real / v0.real
        worst = max(worst, abs(mc.alpha4 - ref * medium.alpha40) / abs(ref))
    check("voigt oracle agreement", worst < 1e-3, f"worst rel {worst:.1e}")

    ok_gate, rel = doppler.quadrature_gate(
        sch, relax, medium, fields, fields.g10, fields.g30, quad)
    check("quadrature convergence gate", ok_gate, f"doubling changes alpha4 by {rel:.1e}")

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


def _ode_reference(c, b, L):
    """The reduced two-wave equations integrated by DOP853, as an independent check."""
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
