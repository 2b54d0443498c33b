"""Workload definitions: the CLI invocation made from a seed, and its checks.

Each workload is one ``lcq`` CLI call.  The seed shifts every sweep grid by
a fraction of its spacing, so every seed does the same amount of work and
keeps the features the checks look for inside the sweep.  The checks run
after the timed call and compare the CSV and manifest against quantities
the benchmark computes itself (a Faddeeva-function Voigt profile, a DOP853
integration with a velocity average at every right-hand-side call) and
against properties the method and the paper require.

``lcq`` is imported inside the functions that need it, so that ``run.py``
can list the workloads without importing the package.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NAMES = ("spectra", "gainmap", "switch-g10")
SIZES = ("full", "tiny")

# Reference integration: DOP853 tolerances, and the largest relative
# difference in I4/I40 accepted between the program and the reference.
# The program's cache is validated to 1e-4 of each coefficient's scale;
# the measured difference is about 1e-5.
_REF_RTOL = 1e-8
_REF_ATOL = 1e-13
_REF_AGREE = 2e-4


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class Invocation:
    """A CLI argument list, plus the configuration file it reads, if any."""

    argv: list[str]
    config: dict | None


def _grid(lo: float, hi: float, n: int, shift: float) -> str:
    """MIN:MAX:N sweep spec shifted by ``shift`` spacings."""
    step = (hi - lo) / (n - 1)
    return f"{float(lo + shift * step)!r}:{float(hi + shift * step)!r}:{n}"


def _sweep(argv: list[str], flag: str) -> np.ndarray:
    """The grid of a ``--flag=MIN:MAX:N`` argument, as the CLI builds it."""
    spec = next(a for a in argv if a.startswith(flag + "=")).split("=", 1)[1]
    lo, hi, n = spec.split(":")
    return np.linspace(float(lo), float(hi), int(n))


def invocation(name: str, seed: int, size: str, out: Path) -> Invocation:
    """The CLI call of one round; ``out`` is the CSV path."""
    rng = np.random.default_rng(seed)
    u = rng.random(2)
    tail = ["--out", str(out)]
    if name == "spectra":
        # 1 MHz spacing over the whole Doppler core at the boundary drives
        lo, hi, n = (-400.0, 400.0, 801) if size == "full" else (-60.0, 60.0, 13)
        return Invocation(["spectra", f"--omega4={_grid(lo, hi, n, u[0])}", *tail], None)
    if name == "gainmap":
        # Four columns around the gain peak, shifted by at most 0.5 MHz.
        # The first column's cache gets 50 validation probes, and between
        # about 143.5 and 147.5 MHz their worst error comes within a few
        # percent of the 1e-4 limit (above it at 144.0-144.5 MHz), so the
        # grid starts at 150 MHz.  The length grid keeps L = 0 and
        # stretches its far end instead of shifting.
        om = (150.0, 160.0, 4) if size == "full" else (150.0, 155.0, 2)
        l_max, n_l = (30.0, 31) if size == "full" else (12.0, 13)
        l_max = float(l_max + (u[1] - 0.5) * l_max / (n_l - 1))
        argv = ["gainmap", f"--omega4={_grid(*om, 0.3 * (u[0] - 0.5))}",
                f"--length=0:{l_max!r}:{n_l}", "--threads", "2", *tail]
        if size == "tiny":
            argv += ["--quad", "101", "--steps", "400"]
        return Invocation(argv, None)
    if name == "switch-g10":
        # G10 from about 60 to 105 MHz.  The shift is at most 0.75 MHz
        # downwards, so the enlarged cache has the same 101 x 32 nodes for
        # every seed (its G1 node count is ceil(0.96 * max G10 / MHz)).
        # With 25 points the RK4 integration is over a third of the call.
        lo, hi, n = (60.0, 105.0, 25) if size == "full" else (60.0, 84.0, 9)
        argv = ["switch", f"--g10={_grid(lo, hi, n, -0.4 * u[0])}", "--length", "10", *tail]
        if size == "tiny":
            argv += ["--quad", "101", "--steps", "400"]
        return Invocation(argv, {"fields": {"Omega4_MHz": 155.0}})
    raise ValueError(f"unknown workload {name!r}")


def check_count(name: str) -> int:
    return {"spectra": 5, "gainmap": 4, "switch-g10": 3}[name]


def read_csv(path: Path) -> dict[str, np.ndarray]:
    """CSV columns keyed by name, with the ``[unit]`` suffix removed."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    names = [h.split("[")[0] for h in rows[0]]
    data = np.array([[float(x) for x in r] for r in rows[1:]])
    return {n: data[:, i] for i, n in enumerate(names)}


def run_checks(name: str, seed: int, argv: list[str], out: Path, params) -> list[Check]:
    """Checks on the CSV at ``out`` and its manifest; never raises on a wrong value."""
    table = read_csv(out)
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text(encoding="utf-8"))
    rng = np.random.default_rng([seed, 1])
    if name == "spectra":
        return _check_spectra(table, manifest, params, rng)
    if name == "gainmap":
        return _check_gainmap(table, manifest, argv, params, rng)
    return _check_switch(table, manifest, argv, params, rng)


def _quad(manifest, params, n=None):
    from lcq.doppler import QuadratureSpec

    sch, _, med, _ = params
    return QuadratureSpec.for_medium(sch, med, n=n or manifest["quadrature"]["n"],
                                     wing_n=manifest["quadrature"]["wing_n"])


def _voigt_alpha4(omega4_mhz, params) -> np.ndarray:
    """Zero-drive alpha4(omega4) in alpha40 units from the Faddeeva function.

    The weak-field line is a Lorentzian of half-width gamma_ml convolved with
    the Gaussian of 1/e half-width k4 u, so alpha4 / alpha40 =
    Re w((omega + i gamma) / d) / Re w(i gamma / d).
    """
    from scipy.special import wofz

    from lcq.scheme import RAD_PER_MHZ

    sch, relax, med, _ = params
    d = med.doppler_width(sch, 4)
    z = (np.asarray(omega4_mhz) * RAD_PER_MHZ + 1j * relax.coh_ml) / d
    return med.alpha40 * wofz(z).real / wofz(1j * relax.coh_ml / d).real


def _check_spectra(t, manifest, params, rng) -> list[Check]:
    from lcq import doppler

    sch, relax, med, fields = params
    out = []
    closure = np.max(np.abs(t["omega2"] - (fields.omega1 + fields.omega3 - t["omega4"])))
    out.append(Check("omega2 closure", closure <= 1e-9, f"max |residual| {closure:.1e} MHz"))

    out.append(Check("stokes gain", t["alpha2"].min() < 0,
                     f"min alpha2 {t['alpha2'].min():.3f} at "
                     f"{t['omega4'][np.argmin(t['alpha2'])]:.1f} MHz"))

    window = t["alpha4"] / _voigt_alpha4(t["omega4"], params)
    out.append(Check("transparency window", window.min() < 0.5,
                     f"min alpha4 / zero-drive alpha4 {window.min():.3f} at "
                     f"{t['omega4'][np.argmin(window)]:.1f} MHz"))

    quad = _quad(manifest, params)
    points = rng.uniform(t["omega4"].min(), t["omega4"].max(), 4)
    got = np.array([doppler.average_coefficients(
        sch, relax, med, fields.with_omega4(p), 0.0, 0.0, quad).alpha4 for p in points])
    err = np.max(np.abs(got - _voigt_alpha4(points, params)))
    out.append(Check("zero-drive voigt", err <= 1e-6, f"max |alpha4 - wofz| {err:.1e}"))

    fine = _quad(manifest, params, n=2 * quad.n - 1)
    rows = rng.choice(t["omega4"].size, 3, replace=False)
    rel = max(
        abs(doppler.average_coefficients(
            sch, relax, med, fields.with_omega4(t["omega4"][i]),
            fields.g10, fields.g30, fine).alpha4 - t["alpha4"][i]) / abs(t["alpha4"][i])
        for i in rows)
    out.append(Check("quadrature doubling", rel < 1e-6,
                     f"--quad {fine.n} moves alpha4 by {rel:.1e} relative"))
    return out


def reference_intensity(params, fields, quad, lengths) -> tuple[np.ndarray, int]:
    """I4(L)/I40 by DOP853 with a direct velocity average at every call.

    Bypasses the coefficient cache and the fixed-step integrator.  The
    equations are the four coupled-wave equations: self terms i sigma_j A_j,
    the probe cross coupling through gamma4/gamma2, and the drives' quadratic
    probe back-action with the wavenumber and dipole ratios of the reverse
    conversion cycle.  Returns the ratios and the number of evaluations.
    """
    from scipy.integrate import solve_ivp

    from lcq import doppler

    sch, relax, med, _ = params
    l1, l2, l3, l4 = sch.wavelengths
    d1, d2, d3, d4 = sch.dipoles
    r1 = (l4 / l1) * d1 * d1 / (d4 * d2)
    r3 = (l4 / l3) * d3 * d3 / ((l4 / l2) * d2 * d4)

    def f(_z, y):
        g1, g3, e4, e2 = y[0::2] + 1j * y[1::2]
        mc = doppler.average_coefficients(sch, relax, med, fields, g1, g3, quad)
        s1, s2, s3, s4 = (mc.deltak1 + 0.5j * mc.alpha1, mc.deltak2 + 0.5j * mc.alpha2,
                          mc.deltak3 + 0.5j * mc.alpha3, mc.deltak4 + 0.5j * mc.alpha4)
        back = e4 * e2
        dy = np.array([
            1j * s1 * g1 + 1j * r1 * np.conj(mc.gamma4) * back / np.conj(g1),
            1j * s3 * g3 + 1j * r3 * np.conj(mc.gamma2) * back / np.conj(g3),
            1j * s4 * e4 + 1j * mc.gamma4 * np.conj(e2),
            1j * s2 * e2 + 1j * mc.gamma2 * np.conj(e4),
        ])
        return np.column_stack([dy.real, dy.imag]).ravel()

    y0 = np.array([fields.g10, fields.g30, fields.e40, fields.e20], dtype=complex)
    lengths = np.asarray(lengths, dtype=float)
    sol = solve_ivp(f, (0.0, float(lengths.max())), np.column_stack([y0.real, y0.imag]).ravel(),
                    method="DOP853", t_eval=lengths, rtol=_REF_RTOL, atol=_REF_ATOL)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    e4 = sol.y[4] + 1j * sol.y[5]
    return np.abs(e4) ** 2 / abs(fields.e40) ** 2, int(sol.nfev)


def _check_gainmap(t, manifest, argv, params, rng) -> list[Check]:
    omega4 = _sweep(argv, "--omega4")
    lengths = _sweep(argv, "--length")
    out = []
    at0 = t["gain"][t["length"] == 0.0]
    out.append(Check("unit transmission at L = 0",
                     at0.size == omega4.size and bool(np.all(at0 == 1.0)),
                     f"{at0.size} cells at L = 0"))
    cells = omega4.size * lengths.size
    invalid = [w for w in manifest["warnings"] if "invalid" in w]
    out.append(Check("every cell valid", t["gain"].size == cells and not invalid,
                     f"{t['gain'].size} of {cells} cells"))
    out.append(Check("anti-Stokes gain", t["gain"].max() >= 10.0,
                     f"peak I4/I40 {t['gain'].max():.2f} at "
                     f"{t['omega4'][np.argmax(t['gain'])]:.2f} MHz, "
                     f"{t['length'][np.argmax(t['gain'])]:.2f} L4"))

    _, _, _, fields = params
    col = int(rng.integers(omega4.size))
    ls = lengths[(lengths > 0) & (lengths <= 5.0 * (1 + 1e-9))]
    sel = (t["omega4"] == omega4[col]) & np.isin(t["length"], ls)
    f_col = fields.with_omega4(float(omega4[col]))
    ref, nfev = reference_intensity(params, f_col, _quad(manifest, params), ls)
    got = t["gain"][sel]
    rel = float(np.max(np.abs(got - ref) / ref)) if got.size == ls.size else np.inf
    out.append(Check("column vs DOP853", rel <= _REF_AGREE,
                     f"{omega4[col]:.2f} MHz to {ls.max():.2f} L4: max rel {rel:.1e}, "
                     f"{nfev} evaluations"))
    return out


def _check_switch(t, manifest, argv, params, rng) -> list[Check]:
    g10, i4 = t["g10"], t["i4_ratio"]
    out = []
    # log-linear interpolation between sweep points, so that the grid's
    # seeded shift does not decide how much of a 15 % step it can see
    top = g10 <= g10[-1] / 1.15
    log_i4 = np.log(i4)
    steep = float(np.exp(np.max(np.abs(
        np.interp(1.15 * g10[top], g10, log_i4) - log_i4[top])))) if top.any() else 0.0
    out.append(Check("steep switching", steep >= 10.0,
                     f"largest I4/I40 change over a 15 % step of G10: {steep:.1f}x"))
    crossings = manifest.get("transparency_crossings", [])
    out.append(Check("transparency crossing", len(crossings) > 0,
                     f"crossings at G10 = {', '.join(f'{c:.2f}' for c in crossings)} MHz"))

    _, _, _, fields = params
    length = float(argv[argv.index("--length") + 1])
    k = int(rng.integers(g10.size))
    point = fields.with_drives(complex(g10[k]), fields.g30)
    ref, nfev = reference_intensity(params, point, _quad(manifest, params), [length])
    rel = abs(i4[k] - ref[0]) / ref[0]
    out.append(Check("sweep point vs DOP853", rel <= _REF_AGREE,
                     f"G10 = {g10[k]:.2f} MHz: rel {rel:.1e}, {nfev} evaluations"))
    return out
