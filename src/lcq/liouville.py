"""Per-velocity-class steady state of the driven four-level double-lambda system.

The density matrix is solved exactly (all orders) in the two drive fields and
to first order in the two probe fields, in a single rotating frame made
possible by the four-photon closure w4 + w2 = w1 + w3.  Basis order is
(l, n, g, m) = (0, 1, 2, 3).

The drives couple l-g (Rabi G1) and n-m (G3); the probes couple l-m (G4,
anti-Stokes) and n-g (G2, Stokes).  Because the drive Hamiltonian is block
diagonal in the level groups {l, g} and {n, m}, the zeroth-order solution
contains populations and the drive coherences only, while the first-order
probe response lives in a closed four-dimensional coherence sector
(rho_nl, rho_ng, rho_ml, rho_mg) driven linearly by G4 and conj(G2).  Both
are solved in closed form, batched over velocity classes and drive points:
:func:`drive_steady_state_batch` for the drive sector and
:func:`probe_response_compact` for the probe sector.  The dense 16x16
Liouvillian they are checked against lives in :mod:`lcq.reference`.

All public detunings and Rabi amplitudes are in MHz (linear frequency);
relaxation rates are in 1e6 s^-1.  The conversion to angular units happens
only inside the solvers.
"""
from __future__ import annotations

import numpy as np

from .scheme import RAD_PER_MHZ, LevelScheme, RelaxationSet

_CHUNK = 16384


class SingularSystemError(RuntimeError):
    """A steady-state system is singular; ``index`` is the first failing one, if known."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


def doppler_shifts(scheme: LevelScheme, v) -> list:
    """Doppler shifts v/lambda_j (MHz) of the four waves at velocity v (m/s), scalar or array."""
    return [v / w * 1e-6 for w in scheme.wavelengths]


def probe_response_compact(
    src: tuple,
    om1p, om2p, om4p,
    G1, G3,
    relax: RelaxationSet,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """First-order probe responses (a4, b4, a2, b2) per MHz of probe amplitude.

    a4 (a2) is the self response of the coherence radiating at the probe
    frequency w4 (w2) per unit own Rabi amplitude; b4 (b2) is the cross
    response per unit conjugate partner amplitude and carries the
    drive-product phase.  ``src`` holds the six zeroth-order elements the
    probe sources need, as :func:`compact_sources` extracts them.  Arguments
    broadcast, and all systems are solved at once, so callers bound the batch.
    """
    om1p, om2p, om4p = (np.asarray(x, dtype=float) for x in (om1p, om2p, om4p))
    args = (*probe_block(om1p, om2p, om4p, G1, G3, probe_rates(relax)), *src)
    shape = np.broadcast_shapes(*(np.shape(a) for a in args))
    # all arguments as arrays of one rank: numpy's scalar arithmetic rounds some
    # complex operations differently from its array loops, and a system must
    # come out the same alone and in a batch
    rank = max(len(shape), 1)
    out = _probe_rows(*(np.reshape(a, (1,) * (rank - np.ndim(a)) + np.shape(a)) for a in args))
    return tuple(x.reshape(shape) for x in out)


def probe_rates(relax: RelaxationSet) -> tuple:
    """Decay rates of the probe-block coherences (rho_nl, rho_ng, rho_ml, rho_mg)."""
    return relax.coh_nl, relax.coh_gn, relax.coh_ml, relax.coh_gm


def probe_block(om1p, om2p, om4p, G1, G3, rates) -> tuple:
    """The probe block's diagonal M00..M33 and couplings p, q, r, s in rad/us.

    Detunings and amplitudes are in MHz and may be complex; ``rates`` are
    :func:`probe_rates`.  The layout is that of :func:`_probe_rows`.
    """
    om1p, om2p, om4p = (np.asarray(x) * RAD_PER_MHZ for x in (om1p, om2p, om4p))
    G1, G3 = (np.asarray(x, dtype=complex) * RAD_PER_MHZ for x in (G1, G3))
    h_nn = om2p - om1p          # level n in the rotating frame
    h_gg = -om1p
    h_mm = -om4p
    return (
        -1j * h_nn - rates[0],
        -1j * (h_nn - h_gg) - rates[1],
        -1j * h_mm - rates[2],
        -1j * (h_mm - h_gg) - rates[3],
        -1j * G1, -1j * np.conj(G1), 1j * np.conj(G3), 1j * G3,
    )


def probe_matrix(m00, m11, m22, m33, p, q, r, s) -> np.ndarray:
    """The probe block (..., 4, 4) from the parts :func:`probe_block` gives."""
    M = np.zeros(np.broadcast_shapes(*map(np.shape, (m00, m11, m22, m33, p, q, r, s)))
                 + (4, 4), dtype=complex)
    for j, m in enumerate((m00, m11, m22, m33)):
        M[..., j, j] = m
    M[..., 0, 1] = M[..., 2, 3] = p
    M[..., 1, 0] = M[..., 3, 2] = q
    M[..., 0, 2] = M[..., 1, 3] = r
    M[..., 2, 0] = M[..., 3, 1] = s
    return M


def probe_sources(d4pop, d2pop, rho_lg, rho_gl, rho_nm, rho_mn) -> tuple:
    """Right-hand sides (b0, b1, b2, b3) of the probe block for a unit G4 and a unit conj(G2).

    Each is minus the source commutator of the unit probe, in angular
    units; the arguments are those :func:`compact_sources` extracts.
    """
    c = 1j * RAD_PER_MHZ
    return ((c * rho_nm, 0.0, -c * d4pop, -c * rho_lg),
            (-c * rho_gl, -c * d2pop, 0.0, c * rho_mn))


def _probe_rows(m00, m11, m22, m33, p, q, r, s,
                d4pop, d2pop, rho_lg, rho_gl, rho_nm, rho_mn) -> np.ndarray:
    """Rows 1 and 2 of the probe-block solution for the two unit probe sources.

    The block M of (rho_nl, rho_ng, rho_ml, rho_mg) has the diagonal
    M00..M33, M[0,1] = M[2,3] = p = -i G1, M[1,0] = M[3,2] = q = -i conj(G1),
    M[0,2] = M[1,3] = r = i conj(G3), M[2,0] = M[3,1] = s = i G3, and
    M[0,3] = M[1,2] = M[2,1] = M[3,0] = 0.

    Closed-form Gaussian elimination: x0 and x3 go through the diagonal pivots
    M00 and M33, then the 2x2 system in (x1, x2) through pivot S11, so without
    drives x2 is exactly b2 / M22.  A zero or non-finite determinant (the
    product of the pivots) raises :class:`SingularSystemError` with the flat
    index of the first such system.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        i0 = 1.0 / m00
        i3 = 1.0 / m33
        pq = p * q
        rs = r * s
        s11 = m11 - pq * i0 - rs * i3
        t = i0 + i3
        s12 = -q * r * t
        lower = -p * s * t / s11
        s22 = m22 - rs * i0 - pq * i3 - lower * s12
        det = m00 * m33 * s11 * s22

        def rows12(b0, b1, b2, b3):
            r1 = b1 - q * b0 * i0 - r * b3 * i3
            r2 = b2 - s * b0 * i0 - p * b3 * i3
            x2 = (r2 - lower * r1) / s22
            return (r1 - s12 * x2) / s11, x2

        unit_g4, unit_g2 = probe_sources(d4pop, d2pop, rho_lg, rho_gl, rho_nm, rho_mn)
        x1_4, x2_4 = rows12(*unit_g4)
        x1_2, x2_2 = rows12(*unit_g2)
        out = np.stack(np.broadcast_arrays(x2_4, x2_2, np.conj(x1_2), np.conj(x1_4)))
        bad = np.broadcast_to(~np.isfinite(det) | (det == 0), out.shape[1:])
    if np.any(bad):
        raise SingularSystemError("probe block determinant is zero or non-finite",
                                  index=int(np.flatnonzero(bad)[0]))
    return out


def compact_sources(rho0: np.ndarray) -> tuple:
    """Extract the probe source elements from stacked density matrices."""
    return (
        rho0[..., 0, 0] - rho0[..., 3, 3],
        rho0[..., 2, 2] - rho0[..., 1, 1],
        rho0[..., 0, 2],
        rho0[..., 2, 0],
        rho0[..., 1, 3],
        rho0[..., 3, 1],
    )


def drive_steady_state_batch(
    relax: RelaxationSet,
    p_n: float,
    om1p, om3p,
    G1, G3,
) -> np.ndarray:
    """Drive-only steady state by closed-form elimination, as (..., 4, 4) matrices.

    With both probes off, the cross coherences between the level groups
    {l, g} and {n, m} are unsourced and vanish.  Each drive coherence follows
    from its own row, rho_gl = -i a1 (rho_ll - rho_gg) / z_gl with the
    complex rate z_gl = i om1p - Gamma_gl and a1 = G1 (angular units), and
    rho_mn likewise.  Put into the population balances, they leave the real
    pumping rates R1 = 2 Gamma_gl |a1|^2 / |z_gl|^2 and R3, so that
    rho_gg = fg rho_ll and rho_mm = fm rho_nn, and the nn balance with the
    trace is a 2x2 real system for rho_ll and rho_nn.  Every term is
    non-negative, so nothing cancels.  A zero or non-finite z_gl, z_mn,
    Gamma_g + R1, Gamma_m + R3 or trace denominator raises
    :class:`SingularSystemError` with the flat index of the first such
    system: for instance no relaxation at all, Gamma_g = 0 at G1 = 0, or
    Gamma_gl = 0 at om1p = 0.  Agreement with the 16x16 oracle
    :func:`lcq.reference.zeroth_order_batch` is covered by tests.
    """
    r = relax
    om1p, om3p = (np.asarray(x, dtype=float) * RAD_PER_MHZ for x in (om1p, om3p))
    a1, a3 = (np.asarray(x, dtype=complex) * RAD_PER_MHZ for x in (G1, G3))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        z_gl = 1j * om1p - r.coh_gl
        z_mn = 1j * om3p - r.coh_mn
        pump1 = 2.0 * r.coh_gl * (a1.real**2 + a1.imag**2) / (r.coh_gl**2 + om1p**2)
        pump3 = 2.0 * r.coh_mn * (a3.real**2 + a3.imag**2) / (r.coh_mn**2 + om3p**2)
        sum_g = r.gamma_g + pump1
        sum_m = r.gamma_m + pump3
        fg = pump1 / sum_g  # rho_gg / rho_ll
        fm = pump3 / sum_m  # rho_mm / rho_nn
        # the nn balance A rho_ll = B rho_nn: refill of n from l and g against
        # its thermalisation and its pumping through m into l
        A = r.gamma_n * p_n + (r.sp_gn + p_n * r.reservoir_g) * fg
        B = r.gamma_n * (1.0 - p_n) + (r.gamma_m - r.sp_mn - p_n * r.reservoir_m) * fm
        D = B * (1.0 + fg) + A * (1.0 + fm)
        ll = B / D
        nn = A / D
        # rho_gl / rho_ll, with rho_ll - rho_gg = rho_ll Gamma_g / (Gamma_g + R1)
        # so that nothing cancels; likewise rho_mn / rho_nn
        c1 = -1j * a1 * r.gamma_g / (sum_g * z_gl)
        c3 = -1j * a3 * r.gamma_m / (sum_m * z_mn)
        # a zero z or Gamma + R leaves a NaN pumping fraction, and so a NaN D
        bad = ~np.isfinite(D) | (D == 0) | ~np.isfinite(c1) | ~np.isfinite(c3)
    if np.any(bad):
        raise SingularSystemError("drive sector is singular: zero or non-finite pivot",
                                  index=int(np.flatnonzero(bad)[0]))
    rho = np.zeros(bad.shape + (4, 4), dtype=complex)
    rho[..., 0, 0] = ll
    rho[..., 1, 1] = nn
    rho[..., 2, 2] = fg * ll
    rho[..., 3, 3] = fm * nn
    rho[..., 2, 0] = gl = c1 * ll
    rho[..., 0, 2] = np.conj(gl)
    rho[..., 3, 1] = mn = c3 * nn
    rho[..., 1, 3] = np.conj(mn)
    return rho
