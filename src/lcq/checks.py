"""The invariant self-checks of ``lcq validate`` and their oracles.

:func:`run_validation` checks the production kernels against closed
forms, the velocity rule, LAPACK's ``eig`` (:func:`pole_agreement`) and
an ODE integration of the reduced two-wave equations; only ``lcq
validate`` imports this module.
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import coupledwave, doppler, liouville, scheme


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
          f"largest pole spread {stats.worst_condition:.1e}, "
          f"{stats.exceptional} exceptional points")

    # the closed-form poles against LAPACK at the drive points above
    agreement = pole_agreement(sch, relax, medium, quad, fields, omega4[:, None],
                               np.array([0.0, fields.g10, fields.g10]),
                               np.array([0.0, fields.g30, 0.0]))
    check("closed-form poles vs eig", agreement["pole_error"] <= 1e-12,
          f"poles {agreement['pole_error']:.1e} of the largest")

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
    a Newton step on the quartic, as the closed form's do.  ``pole_error``
    is the largest distance of a root to the nearest root of the other set,
    relative to the point's largest pole, over the points whose LAPACK
    eigenvector condition number is at most :data:`lcq.doppler._COALESCING`,
    where ``eig`` itself is accurate; a closed-form pole there that is not
    finite makes it NaN.  ``closed_form_s`` and ``eig_s`` are the times of
    the two: the drive sector and the pencil poles, against ``eig`` and its
    condition numbers.
    """
    rad = scheme.RAD_PER_MHZ
    d1, _, d3, _ = liouville.doppler_shifts(sch, quad.u)
    slopes = doppler._slopes(sch, quad.u)
    rates = liouville.probe_rates(relax)
    G1, G3 = np.asarray(G1, dtype=complex), np.asarray(G3, dtype=complex)
    w4, point = (a.ravel() for a in np.broadcast_arrays(omega4, np.arange(G1.size)))
    block = liouville.probe_block(fields.omega1, fields.omega1 + fields.omega3 - w4, w4,
                                  G1[point], G3[point], rates)
    start = time.perf_counter()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        drive = doppler._drive_sector(relax, medium.p_n, (rad * fields.omega1,
                                      rad * fields.omega3), (rad * d1, rad * d3), G1, G3)
        got = [drive.poles, doppler._pencil_poles(block, slopes)]
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
    # near an exceptional point eig's own poles lose digits, and the oracle
    # there is no check of the closed form
    pole_errors = [np.max(_mismatch(poles, ref_poles), where=ref_condition <= doppler._COALESCING,
                          initial=0.0) for poles, (ref_poles, ref_condition) in zip(got, ref)]
    return {"pole_error": float(np.max(pole_errors)),   # NaN if any is
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
