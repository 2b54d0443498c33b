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
(rho_nl, rho_ng, rho_ml, rho_mg) driven linearly by G4 and conj(G2).

All public detunings and Rabi amplitudes are in MHz (linear frequency);
relaxation rates are in 1e6 s^-1.  The conversion to angular units happens
only inside the matrix builders.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scheme import RAD_PER_MHZ, FieldConfig, LevelScheme, MediumParams, RelaxationSet

# Flat (row-major) indices of density-matrix elements used throughout.
IDX = {
    "ll": 0, "ln": 1, "lg": 2, "lm": 3,
    "nl": 4, "nn": 5, "ng": 6, "nm": 7,
    "gl": 8, "gn": 9, "gg": 10, "gm": 11,
    "ml": 12, "mn": 13, "mg": 14, "mm": 15,
}

_TRACE_ROW = np.zeros(16)
_TRACE_ROW[[0, 5, 10, 15]] = 1.0


class SingularSystemError(RuntimeError):
    """A steady-state system is singular; ``index`` is the first failing one, if known."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class VelocityDetunings:
    """Detunings seen by a molecule moving with velocity projection v (MHz).

    For copropagating beams along +z a molecule at velocity v sees wave j
    shifted by -v/lambda_j (linear frequency).  The Stokes detuning obeys the
    same four-photon closure as at rest because the vacuum wavenumbers close.
    """

    omega1p: float
    omega2p: float
    omega3p: float
    omega4p: float


def doppler_shifts(scheme: LevelScheme, v) -> list:
    """Doppler shifts v/lambda_j (MHz) of the four waves at velocity v (m/s), scalar or array."""
    return [v / w * 1e-6 for w in scheme.wavelengths]


def detune_for_velocity(fields: FieldConfig, scheme: LevelScheme, v: float) -> VelocityDetunings:
    """Doppler-shift all four detunings for velocity v (m/s)."""
    shifts = doppler_shifts(scheme, v)
    return VelocityDetunings(
        omega1p=fields.omega1 - shifts[0],
        omega2p=fields.omega2 - shifts[1],
        omega3p=fields.omega3 - shifts[2],
        omega4p=fields.omega4 - shifts[3],
    )


def rotating_hamiltonian(
    om1p, om2p, om4p, G1, G3, G4=0.0, G2=0.0,
) -> np.ndarray:
    """Rotating-frame Hamiltonian in rad/us; arguments in MHz, broadcastable.

    Diagonal entries are the level energies in the frame in which all four
    couplings are static; off-diagonal entries are -G couplings.
    """
    args = np.broadcast(np.asarray(om1p), np.asarray(om2p), np.asarray(om4p),
                        np.asarray(G1), np.asarray(G3), np.asarray(G4), np.asarray(G2))
    shape = args.shape
    om1p, om2p, om4p = (np.broadcast_to(np.asarray(x, dtype=float), shape)
                        for x in (om1p, om2p, om4p))
    G1, G3, G4, G2 = (np.broadcast_to(np.asarray(x, dtype=complex), shape) * RAD_PER_MHZ
                      for x in (G1, G3, G4, G2))
    H = np.zeros(shape + (4, 4), dtype=complex)
    H[..., 1, 1] = (om2p - om1p) * RAD_PER_MHZ
    H[..., 2, 2] = -om1p * RAD_PER_MHZ
    H[..., 3, 3] = -om4p * RAD_PER_MHZ
    H[..., 2, 0] = -G1
    H[..., 0, 2] = -np.conj(G1)
    H[..., 3, 1] = -G3
    H[..., 1, 3] = -np.conj(G3)
    H[..., 3, 0] = -G4
    H[..., 0, 3] = -np.conj(G4)
    H[..., 2, 1] = -G2
    H[..., 1, 2] = -np.conj(G2)
    return H


def relaxation_superop(relax: RelaxationSet, p_n: float) -> np.ndarray:
    """Relaxation superoperator on the row-major vectorized density matrix.

    Population decay of the upper levels is routed through the listed
    spontaneous channels; the remainder goes to a thermal reservoir that
    repopulates l and n in the ratio (1-p_n):p_n.  Level n additionally
    thermalizes with l at rate Gamma_n toward its share p_n, which keeps the
    system closed and reproduces the zero-field population of level n.
    Coherences decay with their tabulated rates.
    """
    R = np.zeros((16, 16), dtype=complex)
    ll, nn, gg, mm = IDX["ll"], IDX["nn"], IDX["gg"], IDX["mm"]
    qm, qg = relax.reservoir_m, relax.reservoir_g

    R[mm, mm] -= relax.gamma_m
    R[gg, gg] -= relax.gamma_g
    R[nn, mm] += relax.sp_mn + p_n * qm
    R[nn, gg] += relax.sp_gn + p_n * qg
    R[ll, mm] += relax.sp_ml + (1.0 - p_n) * qm
    R[ll, gg] += relax.sp_gl + (1.0 - p_n) * qg
    # n <-> l thermalization at rate Gamma_n
    R[nn, nn] -= relax.gamma_n * (1.0 - p_n)
    R[nn, ll] += relax.gamma_n * p_n
    R[ll, nn] += relax.gamma_n * (1.0 - p_n)
    R[ll, ll] -= relax.gamma_n * p_n

    pair_rates = {
        ("l", "n"): relax.coh_nl, ("l", "g"): relax.coh_gl, ("l", "m"): relax.coh_ml,
        ("n", "g"): relax.coh_gn, ("n", "m"): relax.coh_mn, ("g", "m"): relax.coh_gm,
    }
    for (a, b), rate in pair_rates.items():
        R[IDX[a + b], IDX[a + b]] -= rate
        R[IDX[b + a], IDX[b + a]] -= rate
    return R


def full_liouvillian(H: np.ndarray, R: np.ndarray) -> np.ndarray:
    """L such that d vec(rho)/dt = L vec(rho), row-major vectorization."""
    eye = np.eye(4)
    shape = H.shape[:-2]
    HkI = np.einsum("...ab,cd->...acbd", H, eye).reshape(shape + (16, 16))
    IkHT = np.einsum("ab,...cd->...acbd", eye, np.swapaxes(H, -1, -2)).reshape(shape + (16, 16))
    return -1j * (HkI - IkHT) + R


_CHUNK = 16384


def _solve_chunked(matrices: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Batched linear solve in memory-bounded chunks along the first axis."""
    n = matrices.shape[0]
    vector_rhs = rhs.ndim == matrices.ndim - 1
    if vector_rhs:
        rhs = rhs[..., None]
    out = np.empty(rhs.shape, dtype=complex)
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        try:
            out[start:stop] = np.linalg.solve(matrices[start:stop], rhs[start:stop])
        except np.linalg.LinAlgError as exc:
            # LU meets an exactly zero pivot, so the determinant is exactly zero
            hits = np.flatnonzero(np.linalg.det(matrices[start:stop]) == 0)
            raise SingularSystemError(
                str(exc), index=start + int(hits[0]) if hits.size else None) from exc
    return out[..., 0] if vector_rhs else out


def zeroth_order_batch(
    relax: RelaxationSet,
    p_n: float,
    om1p, om2p, om4p,
    G1, G3,
) -> np.ndarray:
    """Steady-state density matrices for broadcastable parameter arrays.

    Returns an array of shape broadcast(...) + (4, 4).  The steady state is
    the unique solution of L vec(rho) = 0 with the trace row replacing the
    (redundant) ll equation.
    """
    H = rotating_hamiltonian(om1p, om2p, om4p, G1, G3)
    shape = H.shape[:-2]
    L = full_liouvillian(H, relaxation_superop(relax, p_n))
    L = L.reshape((-1, 16, 16))
    L[:, IDX["ll"], :] = _TRACE_ROW
    rhs = np.zeros((L.shape[0], 16), dtype=complex)
    rhs[:, IDX["ll"]] = 1.0
    rho = _solve_chunked(L, rhs)
    return rho.reshape(shape + (4, 4))


def _probe_block_entries(om1p, om2p, om4p, G1, G3, relax: RelaxationSet) -> tuple:
    """((M00, M11, M22, M33), p, q, r, s) of the probe block, at the arguments' shapes.

    M[0,1] = M[2,3] = p = -i G1, M[1,0] = M[3,2] = q = -i conj(G1),
    M[0,2] = M[1,3] = r = i conj(G3), M[2,0] = M[3,1] = s = i G3, and
    M[0,3] = M[1,2] = M[2,1] = M[3,0] = 0.
    """
    om1p, om2p, om4p = (np.asarray(x, dtype=float) * RAD_PER_MHZ for x in (om1p, om2p, om4p))
    G1, G3 = (np.asarray(x, dtype=complex) * RAD_PER_MHZ for x in (G1, G3))
    h_nn = om2p - om1p          # level n in the rotating frame
    h_gg = -om1p
    h_mm = -om4p
    diagonal = (
        -1j * h_nn - relax.coh_nl,
        -1j * (h_nn - h_gg) - relax.coh_gn,
        -1j * h_mm - relax.coh_ml,
        -1j * (h_mm - h_gg) - relax.coh_gm,
    )
    return diagonal, -1j * G1, -1j * np.conj(G1), 1j * np.conj(G3), 1j * G3


def probe_block_matrix(om1p, om2p, om4p, G1, G3, relax: RelaxationSet) -> np.ndarray:
    """Evolution matrix of the probe coherence sector (rho_nl, rho_ng, rho_ml, rho_mg).

    This four-dimensional sector is closed under the drive Hamiltonian and
    carries the full first-order response to G4 and conj(G2).
    """
    (m00, m11, m22, m33), p, q, r, s = _probe_block_entries(om1p, om2p, om4p, G1, G3, relax)
    entries = {(0, 0): m00, (1, 1): m11, (2, 2): m22, (3, 3): m33,
               (0, 1): p, (2, 3): p, (1, 0): q, (3, 2): q,
               (0, 2): r, (1, 3): r, (2, 0): s, (3, 1): s}
    shape = np.broadcast_shapes(*(np.shape(x) for x in entries.values()))
    M = np.zeros(shape + (4, 4), dtype=complex)
    for (i, j), x in entries.items():
        M[..., i, j] = x
    return M


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
    diagonal, p, q, r, s = _probe_block_entries(om1p, om2p, om4p, G1, G3, relax)
    args = (*diagonal, p, q, r, s, *src)
    shape = np.broadcast_shapes(*(np.shape(a) for a in args))
    # all arguments as arrays of one rank: numpy's scalar arithmetic rounds some
    # complex operations differently from its array loops, and a system must
    # come out the same alone and in a batch
    rank = max(len(shape), 1)
    out = _probe_rows(*(np.reshape(a, (1,) * (rank - np.ndim(a)) + np.shape(a)) for a in args))
    return tuple(x.reshape(shape) for x in out)


def _probe_rows(m00, m11, m22, m33, p, q, r, s,
                d4pop, d2pop, rho_lg, rho_gl, rho_nm, rho_mn) -> np.ndarray:
    """Rows 1 and 2 of the probe-block solution for the two unit probe sources.

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
            # b: minus the source commutator of a unit probe, in angular units
            r1 = b1 - q * b0 * i0 - r * b3 * i3
            r2 = b2 - s * b0 * i0 - p * b3 * i3
            x2 = (r2 - lower * r1) / s22
            return (r1 - s12 * x2) / s11, x2

        c = 1j * RAD_PER_MHZ
        x1_4, x2_4 = rows12(c * rho_nm, 0.0, -c * d4pop, -c * rho_lg)   # unit G4
        x1_2, x2_2 = rows12(-c * rho_gl, -c * d2pop, 0.0, c * rho_mn)   # unit conj(G2)
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


# Even-sector basis of the drive-only steady state: populations plus the two
# drive coherences and their conjugates.
_EVEN = ("ll", "nn", "gg", "mm", "gl", "lg", "mn", "nm")


def drive_steady_state_batch(
    relax: RelaxationSet,
    p_n: float,
    om1p, om3p,
    G1, G3,
) -> np.ndarray:
    """Fast zeroth-order solve restricted to the closed even sector.

    With both probes off, the cross coherences between the level groups
    {l, g} and {n, m} are unsourced and vanish, so the steady state reduces
    to an 8-dimensional linear system that depends on the drive detunings
    only.  Agreement with the full 16x16 route of :func:`zeroth_order_batch`
    is exact and covered by tests.
    """
    shape = np.broadcast(np.asarray(om1p), np.asarray(om3p),
                         np.asarray(G1), np.asarray(G3)).shape
    om1p = np.broadcast_to(np.asarray(om1p, dtype=float), shape)
    om3p = np.broadcast_to(np.asarray(om3p, dtype=float), shape)
    a1 = np.broadcast_to(np.asarray(G1, dtype=complex), shape) * RAD_PER_MHZ
    a3 = np.broadcast_to(np.asarray(G3, dtype=complex), shape) * RAD_PER_MHZ
    h_gg = -om1p * RAD_PER_MHZ
    # only the difference h_mm - h_nn = -om3p enters the n-m sector
    h_mm_nn = -om3p * RAD_PER_MHZ

    r = relax
    qm, qg = r.reservoir_m, r.reservoir_g
    M = np.zeros(shape + (8, 8), dtype=complex)
    # trace condition replaces the (redundant) ll balance
    M[..., 0, 0] = M[..., 0, 1] = M[..., 0, 2] = M[..., 0, 3] = 1.0
    # nn balance
    M[..., 1, 0] = r.gamma_n * p_n
    M[..., 1, 1] = -r.gamma_n * (1.0 - p_n)
    M[..., 1, 2] = r.sp_gn + p_n * qg
    M[..., 1, 3] = r.sp_mn + p_n * qm
    M[..., 1, 6] = 1j * np.conj(a3)
    M[..., 1, 7] = -1j * a3
    # gg balance
    M[..., 2, 2] = -r.gamma_g
    M[..., 2, 4] = -1j * np.conj(a1)
    M[..., 2, 5] = 1j * a1
    # mm balance
    M[..., 3, 3] = -r.gamma_m
    M[..., 3, 6] = -1j * np.conj(a3)
    M[..., 3, 7] = 1j * a3
    # drive coherences and conjugates
    M[..., 4, 0] = 1j * a1
    M[..., 4, 2] = -1j * a1
    M[..., 4, 4] = -1j * h_gg - r.coh_gl
    M[..., 5, 0] = -1j * np.conj(a1)
    M[..., 5, 2] = 1j * np.conj(a1)
    M[..., 5, 5] = 1j * h_gg - r.coh_gl
    M[..., 6, 1] = 1j * a3
    M[..., 6, 3] = -1j * a3
    M[..., 6, 6] = -1j * h_mm_nn - r.coh_mn
    M[..., 7, 1] = -1j * np.conj(a3)
    M[..., 7, 3] = 1j * np.conj(a3)
    M[..., 7, 7] = 1j * h_mm_nn - r.coh_mn

    rhs = np.zeros(shape + (8,), dtype=complex)
    rhs[..., 0] = 1.0
    x = _solve_chunked(M.reshape((-1, 8, 8)), rhs.reshape((-1, 8))).reshape(shape + (8,))

    rho = np.zeros(shape + (4, 4), dtype=complex)
    rho[..., 0, 0] = x[..., 0]
    rho[..., 1, 1] = x[..., 1]
    rho[..., 2, 2] = x[..., 2]
    rho[..., 3, 3] = x[..., 3]
    rho[..., 2, 0] = x[..., 4]
    rho[..., 0, 2] = x[..., 5]
    rho[..., 3, 1] = x[..., 6]
    rho[..., 1, 3] = x[..., 7]
    return rho


@dataclass(frozen=True)
class ZerothOrderState:
    """Steady state of the drive-coupled sector for one velocity class."""

    rho: np.ndarray  # (4, 4) complex

    @property
    def populations(self) -> np.ndarray:
        return np.real(np.diagonal(self.rho))

    @property
    def rho_gl(self) -> complex:
        return complex(self.rho[2, 0])

    @property
    def rho_mn(self) -> complex:
        return complex(self.rho[3, 1])

    @property
    def rho_nl(self) -> complex:
        return complex(self.rho[1, 0])

    @property
    def rho_gm(self) -> complex:
        return complex(self.rho[2, 3])

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.rho)))


@dataclass(frozen=True)
class ProbeResponse:
    """Microscopic probe-sector responses per MHz of probe Rabi amplitude.

    Both cross responses vanish identically when either drive is off.
    """

    a4: complex
    a2: complex
    b4: complex
    b2: complex


def solve_zeroth_order(
    scheme: LevelScheme,
    relax: RelaxationSet,
    medium: MediumParams,
    det: VelocityDetunings,
    G1: complex,
    G3: complex,
) -> ZerothOrderState:
    """Steady state exact in the drives for a single velocity class."""
    rho = zeroth_order_batch(
        relax, medium.p_n,
        det.omega1p, det.omega2p, det.omega4p,
        complex(G1), complex(G3),
    )
    return ZerothOrderState(rho=rho)


def solve_probe_response(
    state: ZerothOrderState,
    scheme: LevelScheme,
    relax: RelaxationSet,
    det: VelocityDetunings,
    G1: complex,
    G3: complex,
) -> ProbeResponse:
    """Linear response of the probe coherences around a zeroth-order state."""
    a4, b4, a2, b2 = probe_response_compact(
        compact_sources(state.rho),
        det.omega1p, det.omega2p, det.omega4p,
        complex(G1), complex(G3),
        relax,
    )
    return ProbeResponse(a4=complex(a4), a2=complex(a2), b4=complex(b4), b2=complex(b2))
