"""Reference oracle: the 16x16 Liouvillian of one velocity class.

Production code never imports this module.  :mod:`lcq.liouville` computes the
steady state with two closed forms, and the tests and acceptance criterion 5
compare those against the dense master equation built here.  Basis order is
(l, n, g, m) = (0, 1, 2, 3) and the density matrix is vectorized row-major.
The velocity average has no oracle here: the tests check the pole sums of
:mod:`lcq.doppler` against its own velocity rule, :func:`lcq.doppler._node_sums`.

Detunings and Rabi amplitudes are in MHz, relaxation rates in 1e6 s^-1; the
matrices are in rad/us.
"""

from __future__ import annotations

import numpy as np

from .liouville import _CHUNK, SingularSystemError
from .scheme import RAD_PER_MHZ, RelaxationSet

# Flat (row-major) indices of density-matrix elements used throughout.
IDX = {
    "ll": 0, "ln": 1, "lg": 2, "lm": 3,
    "nl": 4, "nn": 5, "ng": 6, "nm": 7,
    "gl": 8, "gn": 9, "gg": 10, "gm": 11,
    "ml": 12, "mn": 13, "mg": 14, "mm": 15,
}

_TRACE_ROW = np.zeros(16)
_TRACE_ROW[[0, 5, 10, 15]] = 1.0

# a trace-replaced Liouvillian above this condition number counts as singular
_MAX_CONDITION = 1e12


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


def _solve_chunked(matrices: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve matrices (n, k, k) against vectors rhs (n, k) in memory-bounded chunks.

    A matrix whose condition number exceeds ``_MAX_CONDITION`` (or is not
    finite) raises :class:`SingularSystemError` with the index of the first
    such matrix: LU would answer it with numbers that carry no digits.
    """
    out = np.empty(rhs.shape, dtype=complex)
    for start in range(0, matrices.shape[0], _CHUNK):
        block = slice(start, start + _CHUNK)
        hits = np.flatnonzero(~(np.linalg.cond(matrices[block]) <= _MAX_CONDITION))
        if hits.size:
            raise SingularSystemError(
                f"condition number above {_MAX_CONDITION:.0e}", index=start + int(hits[0]))
        out[block] = np.linalg.solve(matrices[block], rhs[block, :, None])[..., 0]
    return out


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


_PROBE_SECTOR = np.array([IDX["nl"], IDX["ng"], IDX["ml"], IDX["mg"]])


def probe_block_matrix(om1p, om2p, om4p, G1, G3, relax: RelaxationSet) -> np.ndarray:
    """Evolution matrix of the probe coherence sector (rho_nl, rho_ng, rho_ml, rho_mg).

    The rows and columns of the drive-only Liouvillian for this sector: it is
    closed under the drive Hamiltonian and carries the full first-order
    response to G4 and conj(G2).
    """
    L = full_liouvillian(rotating_hamiltonian(om1p, om2p, om4p, G1, G3),
                         relaxation_superop(relax, 0.0))
    return L[..., _PROBE_SECTOR[:, None], _PROBE_SECTOR]
