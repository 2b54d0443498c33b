"""Maxwell-velocity averaging of the microscopic response into macroscopic
propagation coefficients, plus an independent Voigt-profile oracle.

The macroscopic absorption/dispersion and cross-coupling coefficients are
weighted integrals of the per-velocity-class responses over the Maxwell
distribution W(v) = exp(-v^2/u^2)/(u sqrt(pi)).  A single real scale factor,
fixed by requiring alpha4 = 1 at zero drives and zero probe detuning, maps
the microscopic responses to coefficients in alpha40 units.

Every detuning is linear in x = v/u, so each averaged field (the two drive
ratios and the probe responses a4, b4, a2, b2) is a rational function of x
that vanishes at infinity, and its Maxwell average is exact as a sum over
its poles p_k with residues r_k: sum r_k Z(p_k), where Z is the plasma
dispersion function, i sqrt(pi) w(p) above the real axis and its mirror
below (Fried and Conte, *The Plasma Dispersion Function*, 1961; w by
``scipy.special.wofz``, Weideman, SIAM J. Numer. Anal. 31, 1994).  The
drive sector has four poles per drive point, the roots of the quartic
D P1 P3 of :func:`lcq.liouville.drive_steady_state_batch`'s closed form,
with residues from partial fractions.  The probe block adds four per drive
point and probe column, the eigenvalues of its pencil M0 + x M1, with
residues from Cramer's rule.

Every average is one pass, :func:`_average`: the drive poles of every drive
point once, then the probe poles of every column.  A single point
(:func:`average_coefficients`), a probe-detuning sweep (one column per
point) and the coefficient-cache grid (:class:`DriveGrid`) all go through
it, and so does the normalization.  Where poles coalesce (an exceptional
point, detected by the eigenvector condition number and the poles'
separation) the residues grow and cancel, so such a point alone is
averaged by the velocity rule of :class:`QuadratureSpec` instead,
:func:`_node_sums`, and counted in the :func:`pole_stats` of the run.  The
same rule, summed over every class in memory-bounded chunks, is what the
tests and ``lcq validate`` check the pole sums against; ``--quad`` sizes it
and nothing else.  ``threads`` workers split the batches of drive points.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import wofz

from . import liouville
from .scheme import RAD_PER_MHZ, ConfigError, FieldConfig, LevelScheme, MediumParams, RelaxationSet

QUAD_RULES = ("sinh", "trapezoid")
_SINH_SCALE = 0.6   # v / u = 0.6 sinh(t): nodes 0.6 h apart at the line centre
_SQRT_PI = math.sqrt(math.pi)
# relative size, against the terms' moduli, below which a pole sum is rounding noise
_NOISE = 1e-13


@dataclass(frozen=True)
class QuadratureSpec:
    """Thermal speed, and the velocity rule of the oracle and of exceptional points.

    ``u`` is the most probable speed sqrt(2 kB T / M) in m/s; ``u = 0``
    collapses the average to the single v = 0 class.  The pole sums need
    nothing else.  The velocity rule has ``n`` nodes out to +-span*u: the
    sinh rule v = 0.6 u sinh(t), trapezoidal in t (Trefethen and
    Weideman, SIAM Review 56, 2014), or the uniform trapezoid rule.
    ``wing_n`` sized the wings of an earlier rule; it is kept so that run
    manifests keep their fields, and has no effect.
    """

    u: float
    rule: str = "sinh"
    n: int = 1311
    span: float = 4.5
    wing_n: int = 100

    def __post_init__(self) -> None:
        if self.rule not in QUAD_RULES:
            raise ConfigError(f"unknown quadrature rule {self.rule!r}")
        if self.u < 0:
            raise ConfigError("thermal speed must be >= 0")
        if self.u > 0 and self.n < 8:
            raise ConfigError("need at least 8 quadrature nodes")
        if not self.span > 0:
            raise ConfigError("quadrature span must be positive")

    @classmethod
    def for_medium(cls, scheme: LevelScheme, medium: MediumParams, **kwargs) -> "QuadratureSpec":
        return cls(u=medium.thermal_speed(scheme), **kwargs)

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Velocity nodes (m/s) and Maxwell-weighted quadrature weights."""
        if self.u == 0.0:
            return np.array([0.0]), np.array([1.0])
        if self.rule == "trapezoid":
            v = np.linspace(-self.span, self.span, self.n)
            dv = np.full(self.n, v[1] - v[0])
        else:
            t = np.linspace(-1.0, 1.0, self.n) * math.asinh(self.span / _SINH_SCALE)
            v = _SINH_SCALE * np.sinh(t)
            dv = _SINH_SCALE * np.cosh(t) * (t[1] - t[0])
        dv[[0, -1]] *= 0.5
        return v * self.u, dv * np.exp(-v * v) / _SQRT_PI


def kahan_sum(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted sum over the leading axis, accurate to about one rounding.

    Error-free extraction (Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31,
    2008): adding and subtracting sigma = 2^k >= (n + 2) max|x| splits each
    term (the rounded product of weight and value) into a part on a common
    grid, whose sum is exact in any order, and a remainder below
    eps * sigma, summed pairwise; the two sums, within (n eps)^2 max|x| of
    the exact sum, add last.  Averages of symmetric integrands that cancel
    keep no summation noise.  Real and imaginary parts are summed apart; one
    sigma serves every sum, so a sum whose terms all lie below about
    n eps max|x| gets plain pairwise accuracy.  The order is fixed by the
    array shapes, so results repeat across runs and thread counts.  The
    name is that of the compensated loop this replaced; the benchmark's
    tracer wraps this function by name.
    """
    n = values.shape[0]
    flat = np.ascontiguousarray(values).reshape(n, -1)
    if np.iscomplexobj(flat):
        flat = flat.view(np.float64)
    axis = 0
    if flat.shape[1] < n:  # numpy reduces narrow arrays far faster along rows
        flat, axis = flat.T, 1
    terms = np.multiply(flat, weights if axis else weights[:, None], order="C")
    peak = max(float(np.max(terms)), -float(np.min(terms)))
    sigma = math.ldexp(1.0, math.frexp(peak)[1] + math.frexp(n + 2.0)[1])
    high = terms + sigma
    high -= sigma
    terms -= high  # the remainders, exact
    high, low = (np.sum(part, axis=axis).view(values.dtype).reshape(values.shape[1:])
                 for part in (high, terms))
    return high + low


@dataclass(frozen=True)
class MacroscopicCoefficients:
    """Velocity-averaged propagation coefficients in alpha40 units.

    sigma_j = deltak_j + i alpha_j / 2 multiplies the wave's own amplitude;
    gamma4/gamma2 are the cross-coupling coefficients of the probe pair and
    already include the drive product (amplitudes and phases), so they vanish
    whenever either drive is off.
    """

    alpha1: float
    alpha2: float
    alpha3: float
    alpha4: float
    deltak1: float
    deltak2: float
    deltak3: float
    deltak4: float
    gamma4: complex
    gamma2: complex

    def sigma(self, j: int) -> complex:
        alpha = (self.alpha1, self.alpha2, self.alpha3, self.alpha4)[j - 1]
        deltak = (self.deltak1, self.deltak2, self.deltak3, self.deltak4)[j - 1]
        return deltak + 0.5j * alpha

    @classmethod
    def from_vector(cls, vec: np.ndarray) -> "MacroscopicCoefficients":
        """From a table row: real and imaginary parts of sigma1..sigma4, gamma4, gamma2."""
        re, im = np.asarray(vec)[0::2].tolist(), np.asarray(vec)[1::2].tolist()
        return cls(*(2.0 * x for x in im[:4]), *re[:4],
                   complex(re[4], im[4]), complex(re[5], im[5]))

    def to_vector(self) -> np.ndarray:
        """The table row, which :meth:`from_vector` maps back exactly."""
        s = [self.sigma(j) for j in (1, 2, 3, 4)] + [self.gamma4, self.gamma2]
        return np.array(s, dtype=complex).view(np.float64)


class AveragingError(RuntimeError):
    """A per-velocity solve failed during averaging, or a coefficient is not finite."""


def _drive_ratios(rho0: np.ndarray, om1p, om3p, relax: RelaxationSet) -> tuple:
    """Per-velocity drive coherences per unit Rabi amplitude, rho_gl / G1 and rho_mn / G3.

    They follow from the populations alone, so they stay defined and
    continuous down to zero amplitude, where they are the linear-response
    Lorentzians around the state driven by the other field.
    """
    d1pop = rho0[..., 0, 0] - rho0[..., 2, 2]
    d3pop = rho0[..., 1, 1] - rho0[..., 3, 3]
    r1 = 1j * RAD_PER_MHZ * d1pop / (relax.coh_gl - 1j * RAD_PER_MHZ * np.asarray(om1p))
    r3 = 1j * RAD_PER_MHZ * d3pop / (relax.coh_mn - 1j * RAD_PER_MHZ * np.asarray(om3p))
    return r1, r3


# Polynomials in x = v/u are coefficient arrays (points, degree + 1), lowest first.

def _polymul(a, b) -> np.ndarray:
    out = np.zeros((len(a), a.shape[1] + b.shape[1] - 1), dtype=np.result_type(a, b))
    for k in range(a.shape[1]):
        out[:, k:k + b.shape[1]] += a[:, k, None] * b
    return out


def _polyval(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Polynomials c (..., points, k) at the points' arguments x (points, m), by Horner's rule."""
    out = np.zeros(x.shape, dtype=complex) + c[..., -1, None]
    for k in range(c.shape[-1] - 2, -1, -1):
        out = out * x + c[..., k, None]
    return out


def _poly(points: int, *coefficients) -> np.ndarray:
    """The polynomial with ``coefficients`` (scalars or (points,) arrays) at every point."""
    out = np.empty((points, len(coefficients)), dtype=np.result_type(*coefficients))
    for k, c in enumerate(coefficients):
        out[:, k] = c
    return out


def _plasma_z(p: np.ndarray) -> np.ndarray:
    """Z(p) = pi^-1/2 int exp(-x^2) / (x - p) dx over the real line, for p off it.

    i sqrt(pi) w(p) above the axis and its mirror -i sqrt(pi) w(-p) below.
    """
    sign = np.where(p.imag < 0, -1.0, 1.0)
    return 1j * _SQRT_PI * sign * wofz(sign * p)


def _lorentzian(c, m0, slope) -> np.ndarray:
    """Maxwell average of c / (m0 + slope x), a single pole."""
    return c / slope * _plasma_z(np.asarray(-m0 / slope, dtype=complex))


def _pole_sum(terms: np.ndarray) -> np.ndarray:
    """Sum of pole terms r_k Z(p_k) over the last axis, with rounding noise as 0.

    A real or imaginary part below ``_NOISE`` times the sum of the terms'
    moduli is no larger than the rounding error of the terms themselves,
    and comes out 0: the parts that a symmetry in v cancels, as the
    dispersion does at the all-resonant configuration, are exactly 0.
    """
    total = np.sum(terms, axis=-1)
    noise = _NOISE * np.sum(np.abs(terms), axis=-1)
    return (np.where(np.abs(total.real) > noise, total.real, 0.0)
            + 1j * np.where(np.abs(total.imag) > noise, total.imag, 0.0))


def _condition(V: np.ndarray) -> np.ndarray:
    """Frobenius condition numbers of eigenvector matrices V (P, n, n); inf where V is singular."""
    try:
        return np.linalg.norm(V, axis=(1, 2)) * np.linalg.norm(np.linalg.inv(V), axis=(1, 2))
    except np.linalg.LinAlgError:  # an exactly defective pole set: one matrix at a time
        if len(V) == 1:
            return np.array([np.inf])
        return np.concatenate([_condition(V[k:k + 1]) for k in range(len(V))])


@dataclass
class _DriveSector:
    """The drive sector at P drive points as rational functions of x = v/u.

    Every element is a polynomial over the quartic ``Q`` (P, 5): the
    sources (d4pop, d2pop, rho_lg, rho_gl, rho_nm, rho_mn) of
    :func:`lcq.liouville.compact_sources` in ``sources`` (6, P, 5) and the
    drive ratios rho_gl / G1 and rho_mn / G3 in ``ratios`` (2, P, 4).
    ``poles`` (P, 4) are the roots of Q, ``weights`` = Z(pole) / Q'(pole)
    and ``condition`` the eigenvector condition number of the roots.
    """

    Q: np.ndarray
    sources: np.ndarray
    ratios: np.ndarray
    poles: np.ndarray
    weights: np.ndarray
    condition: np.ndarray


def _drive_sector(relax: RelaxationSet, p_n: float, alpha, beta, G1, G3) -> _DriveSector:
    """The drive sector at drive points G1, G3 (P,), MHz.

    The closed form of :func:`lcq.liouville.drive_steady_state_batch`, with
    the drive detunings Omega_j' = alpha_j - beta_j x in rad/us: the pumping
    fractions are fg = K1 / P1 and fm = K3 / P3 with K1 = 2 Gamma_gl |a1|^2
    and P1 = Gamma_g (Gamma_gl^2 + Omega_1'^2) + K1 (likewise K3, P3), and
    P1 P3 cancels from every element, which leaves the quartic
    Q = D P1 P3.  It is positive on the real axis, so its roots come in
    conjugate pairs off it.  They are the eigenvalues of its companion
    matrix, scaled so that they are of order one, and polished by a Newton
    step; the residues are partial fractions.
    """
    r = relax
    P = len(G1)
    (a1, a3), (b1, b3) = alpha, beta
    K1 = 2.0 * r.coh_gl * RAD_PER_MHZ**2 * np.abs(G1) ** 2
    K3 = 2.0 * r.coh_mn * RAD_PER_MHZ**2 * np.abs(G3) ** 2

    P1 = _poly(P, r.gamma_g * (r.coh_gl**2 + a1 * a1) + K1, -2.0 * r.gamma_g * a1 * b1,
               r.gamma_g * b1 * b1)
    P3 = _poly(P, r.gamma_m * (r.coh_mn**2 + a3 * a3) + K3, -2.0 * r.gamma_m * a3 * b3,
               r.gamma_m * b3 * b3)
    Bt = r.gamma_n * (1.0 - p_n) * P3                   # B P3, with B of the nn balance
    Bt[:, 0] += (r.gamma_m - r.sp_mn - p_n * r.reservoir_m) * K3
    At = r.gamma_n * p_n * P1                           # A P1
    At[:, 0] += (r.sp_gn + p_n * r.reservoir_g) * K1
    P1K, P3K = P1.copy(), P3.copy()
    P1K[:, 0] += K1
    P3K[:, 0] += K3
    Q = _polymul(Bt, P1K) + _polymul(At, P3K)
    ratio1 = _polymul(_poly(P, r.coh_gl + 1j * a1, -1j * b1) * (1j * RAD_PER_MHZ * r.gamma_g), Bt)
    ratio3 = _polymul(_poly(P, r.coh_mn + 1j * a3, -1j * b3) * (1j * RAD_PER_MHZ * r.gamma_m), At)
    g1, g3 = G1[:, None], G3[:, None]
    sources = np.zeros((6, P, 5), dtype=complex)
    sources[0] = _polymul(Bt, P1)                       # rho_ll - rho_mm
    sources[0, :, :3] -= K3[:, None] * At
    sources[1, :, :3] = K1[:, None] * Bt                # rho_gg - rho_nn
    sources[1] -= _polymul(At, P3)
    sources[2, :, :4] = np.conj(g1) * ratio1.conj()     # rho_lg
    sources[3, :, :4] = g1 * ratio1                     # rho_gl
    sources[4, :, :4] = np.conj(g3) * ratio3.conj()     # rho_nm
    sources[5, :, :4] = g3 * ratio3                     # rho_mn

    scale = (Q[:, 0] / Q[:, 4]) ** 0.25
    companion = np.zeros((P, 4, 4))
    companion[:, [1, 2, 3], [0, 1, 2]] = 1.0
    companion[:, :, 3] = -Q[:, :4] / Q[:, 4:] * scale[:, None] ** np.arange(-4, 0)
    roots, V = np.linalg.eig(companion)
    condition = _condition(V)
    dQ = Q[:, 1:] * np.arange(1, 5)
    poles = scale[:, None] * roots
    poles = poles - _polyval(Q, poles) / _polyval(dQ, poles)
    weights = _plasma_z(poles) / _polyval(dQ, poles)
    return _DriveSector(Q, sources, np.stack([ratio1, ratio3]), poles, weights, condition)


def _probe_means(drive: _DriveSector, point: np.ndarray, block, slopes) -> tuple:
    """Averaged probe responses (4, B) of B probe blocks, and their condition numbers (B,).

    Block k is at the drive point ``point[k]`` of ``drive``.
    ``block`` holds :func:`lcq.liouville.probe_block`'s parts at x = 0 and
    ``slopes`` the derivatives of its diagonal in x, so that the block is
    the pencil M(x) = M0 + x M1 with M1 = diag(slopes).  Its poles are the
    eigenvalues lambda_k of K = -M1^-1 M0, and det M(x) = det M1
    prod_k (x - lambda_k).  By Cramer's rule, row i of M^-1 b for a source
    b = n / Q is N_i / (det M Q) with N_i = sum_j n_j C_ji over the
    cofactors C of M, written out for the block's structural zeros, so
    that a response that vanishes with a drive carries that drive as a
    factor.  Its residue at lambda_k is N_i / (det' M Q) there and at a
    drive pole q_j N_i / (det M Q') there.  The condition number is that of
    the eigenvectors of K, or, if larger, the largest (|Im p| + |Im p'|) /
    |p - p'| over the eight poles: coalescing poles have residues that grow
    as they approach and cancel.
    """
    lam, V = np.linalg.eig(-liouville.probe_matrix(*block) / slopes[:, None])
    condition = _condition(V)
    poles = np.concatenate([lam, drive.poles[point]], axis=1)               # (B, 8)
    m0, m1, m2, m3 = (block[j][:, None] + slopes[j] * poles for j in range(4))
    p, q, r, s = (c[:, None] for c in block[4:])
    pq, rs = p * q, r * s
    cofactors = (
        (-q * (m2 * m3 - pq + rs), m0 * (m2 * m3 - pq) - rs * m3,           # C_j1
         r * q * (m0 + m3), -r * (m0 * m2 + pq - rs)),
        (-s * (m1 * m3 + pq - rs), p * s * (m0 + m3),                       # C_j2
         m0 * (m1 * m3 - rs) - pq * m3, -p * (m0 * m1 - pq + rs)),
    )
    gap = poles[:, :, None] - poles[:, None, :]                              # (B, 8, 8)
    width = np.abs(poles.imag)
    eye = np.eye(8, dtype=bool)
    spread = (width[:, :, None] + width[:, None, :]) / np.abs(np.where(eye, np.inf, gap))
    condition = np.maximum(condition, np.max(spread, axis=(1, 2)))
    det = np.prod(slopes) * np.prod(np.where(eye[:, :4], 1.0, gap[:, :, :4]), axis=2)
    weights = np.concatenate([_plasma_z(lam) / _polyval(drive.Q[point], lam),
                              drive.weights[point]], axis=1) / det
    src = _polyval(drive.sources[:, point], poles)
    # the unit sources have a structural zero each, a scalar 0.0
    x1_4, x2_4, x1_2, x2_2 = _pole_sum(np.stack([
        sum(n * c for n, c in zip(unit, cof) if np.ndim(n))
        for unit in liouville.probe_sources(*src) for cof in cofactors]) * weights)
    return np.stack([x2_4, x2_2, np.conj(x1_2), np.conj(x1_4)]), condition


def _node_sums(scheme, relax, medium, quad, columns: list[FieldConfig], G1, G3,
               modulus: bool = False) -> tuple:
    """Maxwell sums over the velocity nodes of ``quad``, as :func:`_average` returns them.

    Each node is one velocity class, solved by
    :func:`lcq.liouville.drive_steady_state_batch` and
    :func:`lcq.liouville.probe_response_compact` for every drive point and
    column.  The classes go in chunks of ``_CHUNK // drive points`` (one
    chunk for a single drive point at up to ``_CHUNK`` nodes), so that a
    batch of drive points holds one chunk of classes at a time; each chunk
    is summed by :func:`kahan_sum` and the chunk sums add in chunk order.
    With ``modulus`` the sums are of the responses' moduli, the scale
    against which the pole sums are checked.  Exceptional points and
    ``u = 0`` take this route, and the tests and ``lcq validate`` check the
    pole sums against it.  A failed solve raises :class:`AveragingError`
    naming its velocity node and, if there are drive points, the drive
    point.
    """
    shape = np.broadcast_shapes(np.shape(G1), np.shape(G3))
    points = math.prod(shape)
    nodes, weights = quad.nodes()
    step = max(1, liouville._CHUNK // points)

    def responses(v):
        sh1, sh2, sh3, sh4 = (x.reshape(-1, *[1] * len(shape))
                              for x in liouville.doppler_shifts(scheme, v))
        om1p, om3p = columns[0].omega1 - sh1, columns[0].omega3 - sh3
        rho0 = liouville.drive_steady_state_batch(relax, medium.p_n, om1p, om3p, G1, G3)
        src = tuple(np.stack(liouville.compact_sources(rho0)))
        yield np.stack(_drive_ratios(rho0, om1p, om3p, relax), axis=1)
        for f in columns:
            yield np.stack(liouville.probe_response_compact(
                src, om1p, f.omega2 - sh2, f.omega4 - sh4, G1, G3, relax), axis=1)

    total = None
    for start in range(0, nodes.size, step):
        v, w = nodes[start:start + step], weights[start:start + step]
        try:
            sums = [kahan_sum(np.abs(x) if modulus else x, w) for x in responses(v)]
        except liouville.SingularSystemError as exc:
            where = "batch"
            if exc.index is not None:
                node, point = divmod(exc.index, points)
                where = f"velocity node {start + node} (v = {v[node]:.3f} m/s)"
                if shape:
                    where += f", drive point {tuple(map(int, np.unravel_index(point, shape)))}"
            raise AveragingError(f"velocity averaging failed at {where}: {exc}") from exc
        total = sums if total is None else [t + x for t, x in zip(total, sums)]
    return total[0], total[1:]


# eigenvector condition number above which poles count as coalescing
_COALESCING = 1e4
_POINTS_PER_BATCH = 1024
_GROUP_BLOCKS = 64
# The rates the pole sums need positive.  Without Gamma_m, Gamma_g or Gamma_n
# the zero-drive steady state is not unique, and a zero coherence rate puts a
# pole of the per-class response on the real velocity axis, where the Maxwell
# average is defined only as the limit of a vanishing rate.  A spontaneous
# rate may be zero.
_DAMPING = ("gamma_m", "gamma_g", "gamma_n", "coh_ml", "coh_gl", "coh_mn", "coh_gn", "coh_nl",
            "coh_gm")


class PoleStats:
    """Exceptional points, and the worst condition number of the poles summed, in `pole_stats`.

    An exceptional point is a drive point, or a drive point of one probe
    column, whose poles coalesce, and which the velocity rule averages
    instead; ``worst_condition`` is over the poles the pole sums used.
    """

    def __init__(self):
        self.lock = threading.Lock()
        self.exceptional, self.worst_condition = 0, 0.0

    def add(self, condition: np.ndarray, exceptional: int = 0) -> None:
        worst = float(np.max(condition, initial=0.0))
        with self.lock:
            self.exceptional += exceptional
            self.worst_condition = max(self.worst_condition, worst)


_POLE_STATS = contextvars.ContextVar("lcq_pole_stats", default=None)


@contextlib.contextmanager
def pole_stats():
    """A fresh :class:`PoleStats`, which every average made inside the block adds to."""
    stats = PoleStats()
    token = _POLE_STATS.set(stats)
    try:
        yield stats
    finally:
        _POLE_STATS.reset(token)


def _average(scheme, relax, medium, quad, columns: list[FieldConfig], G1, G3,
             threads: int = 1) -> tuple:
    """Maxwell averages at the drives ``G1``, ``G3`` for every probe column, in one pass.

    The amplitudes (MHz, real or complex) broadcast to the drive shape: a
    scalar for one point, ``g1[:, None]`` and ``g3[None, :]`` for a grid.
    The drive detunings are those of ``columns[0]``; the columns differ only
    in omega4 (and the slaved omega2).  A column's omega4 may itself be an
    array of the drive shape: it broadcasts against the drive amplitudes
    element by element, so n points that each carry their own probe
    detuning make one paired column, omega4 and G1, G3 all of shape (n,).
    The drive points go in batches, split among ``threads`` workers; each
    batch finds its drive poles once and then every column's probe poles,
    and every point's averages depend on that point alone.
    Returns the averaged drive ratios (2, *shape) and, per column, the
    averaged probe responses (a4, b4, a2, b2) as (4, *shape).
    """
    shape = np.broadcast_shapes(np.shape(G1), np.shape(G3))
    if quad.u == 0.0:
        return _node_sums(scheme, relax, medium, quad, columns, G1, G3)
    undamped = [name for name in _DAMPING if getattr(relax, name) == 0]
    if undamped:
        raise AveragingError(
            f"velocity averaging needs positive rates, not {', '.join(undamped)} = 0")
    g1, g3 = (np.broadcast_to(np.asarray(g, dtype=complex), shape).ravel() for g in (G1, G3))

    def omega4(c: int) -> np.ndarray:
        return np.broadcast_to(np.asarray(columns[c].omega4, dtype=float), shape).reshape(-1)

    top, p_n = columns[0], medium.p_n
    d1, d2, d3, d4 = liouville.doppler_shifts(scheme, quad.u)   # MHz per unit x
    slopes = np.array(liouville.probe_block(-d1, -d2, -d4, 0.0, 0.0, (0.0,) * 4)[:4])
    rad, rates = RAD_PER_MHZ, liouville.probe_rates(relax)
    stats = _POLE_STATS.get() or PoleStats()
    ratios = np.empty((2, g1.size), dtype=complex)
    means = [np.empty((4, *shape), dtype=complex) for _ in columns]

    def by_rule(k: np.ndarray, cols: list[int], drive: bool) -> None:
        # the exceptional drive points k of the columns cols, and of the drive ratios
        if k.size:
            r, m = _node_sums(scheme, relax, medium, quad,
                              [columns[c].with_omega4(omega4(c)[k]) for c in cols], g1[k], g3[k])
            for c, value in zip(cols, m):
                means[c].reshape(4, -1)[:, k] = value
            if drive:
                ratios[:, k] = r
            stats.add((), k.size)

    def batch(rows: slice) -> None:
        # coalescing poles leave infinite or NaN residues, which the velocity rule replaces
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            drive = _drive_sector(relax, p_n, (rad * top.omega1, rad * top.omega3),
                                  (rad * d1, rad * d3), g1[rows], g3[rows])
            ratios[:, rows] = _pole_sum(_polyval(drive.ratios, drive.poles) * drive.weights)
            # without drives each response is a single Lorentzian, with a pole of its own
            idle = (g1[rows] == 0) & (g3[rows] == 0)
            if idle.any():
                ratios[:, rows][:, idle] = np.array([
                    _lorentzian(1j * rad * pop, rate - 1j * rad * omega, 1j * rad * d)
                    for pop, rate, omega, d in ((1 - p_n, relax.coh_gl, top.omega1, d1),
                                                (p_n, relax.coh_mn, top.omega3, d3))
                ])[:, None]
            bad = ~(drive.condition <= _COALESCING) & ~idle
            n = len(idle)
            # columns go in groups of about _GROUP_BLOCKS probe blocks, each a block per drive point
            group = max(1, _GROUP_BLOCKS // n)
            for first in range(0, len(columns), group):
                cols = range(first, min(first + group, len(columns)))
                w4 = np.concatenate([omega4(c)[rows] for c in cols])
                point = np.tile(np.arange(n), len(cols))
                block = liouville.probe_block(top.omega1, top.omega1 + top.omega3 - w4, w4,
                                              g1[rows][point], g3[rows][point], rates)
                values, condition = _probe_means(drive, point, block, slopes)
                still = np.tile(idle, len(cols))
                if still.any():
                    values[:, still] = np.stack(np.broadcast_arrays(
                        _lorentzian(-1j * rad * (1.0 - p_n), block[2][still], slopes[2]), 0.0,
                        np.conj(_lorentzian(1j * rad * p_n, block[1][still], slopes[1])), 0.0))
                condition = np.where(still, 0.0, np.maximum(drive.condition[point], condition))
                stats.add(np.where(condition <= _COALESCING, condition, 0.0))
                for i, c in enumerate(cols):
                    means[c].reshape(4, -1)[:, rows] = values[:, i * n:(i + 1) * n]
                    flagged = ~(condition[i * n:(i + 1) * n] <= _COALESCING)
                    by_rule(rows.start + np.flatnonzero(~bad & flagged), [c], False)
        by_rule(rows.start + np.flatnonzero(bad), list(range(len(columns))), True)

    count = -(-g1.size // _POINTS_PER_BATCH)           # batches, a multiple of the workers
    edges = np.linspace(0, g1.size, threads * -(-count // threads) + 1)
    batches = [slice(a, b) for a, b in zip(edges[:-1].astype(int), edges[1:].astype(int)) if b > a]
    try:
        if threads > 1 and len(batches) > 1:
            with ThreadPoolExecutor(threads) as pool:
                list(pool.map(batch, batches))
        else:
            list(map(batch, batches))
    except np.linalg.LinAlgError as exc:
        raise AveragingError(f"pole search failed: {exc}") from exc
    return ratios.reshape(2, *shape), means


@lru_cache(maxsize=64)
def _norm_constant(
    scheme: LevelScheme,
    relax: RelaxationSet,
    medium: MediumParams,
    quad: QuadratureSpec,
) -> float:
    """Divisor mapping microscopic responses to alpha40 units.

    The averaged weak-field absorption of wave 4 at zero detuning per
    alpha40, from the same pass as production averages, so that dividing
    by it gives exactly alpha40 there.
    """
    zero = FieldConfig(omega1=0.0, omega3=0.0, omega4=0.0)
    _, (means,) = _average(scheme, relax, medium, quad, [zero], 0j, 0j)
    k4 = 1.0  # relative wavenumber of wave 4
    d4 = scheme.dipoles[3]
    raw_alpha4 = 2.0 * float(np.imag(k4 * d4 * d4 * means[0]))
    if raw_alpha4 <= 0:
        raise AveragingError("weak-field resonant absorption is not positive")
    return raw_alpha4 / medium.alpha40


def coefficient_tables(scheme, relax, medium, quad, columns: list[FieldConfig], G1, G3,
                       threads: int = 1) -> np.ndarray:
    """Coefficient tables (len(columns), *shape, 12) from one :func:`_average` pass.

    Rows are read by :meth:`MacroscopicCoefficients.from_vector`.  Raises
    :class:`AveragingError` if a solve fails or a coefficient is not finite.
    """
    ratios, means = _average(scheme, relax, medium, quad, columns, G1, G3, threads)
    norm = _norm_constant(scheme, relax, medium, quad)
    l1, l2, l3, l4 = scheme.wavelengths
    k1, k2, k3 = l4 / l1, l4 / l2, l4 / l3  # relative wavenumbers, k4 = 1
    d1, d2, d3, d4 = scheme.dipoles
    gl_ratio, mn_ratio = ratios
    tables = []
    for a4, b4, a2, b2 in means:
        table = np.stack([
            k1 * d1 * d1 * gl_ratio,  # sigma1
            k2 * d2 * d2 * a2,        # sigma2
            k3 * d3 * d3 * mn_ratio,  # sigma3
            1.0 * d4 * d4 * a4,       # sigma4
            1.0 * d4 * d2 * b4,       # gamma4
            k2 * d2 * d4 * b2,        # gamma2
        ], axis=-1).view(np.float64) / norm
        bad = np.argwhere(~np.isfinite(table))
        if bad.size:
            where = f" at drive point {tuple(bad[0, :-1].tolist())}" if table.ndim > 1 else ""
            raise AveragingError(f"non-finite averaged coefficient{where}")
        tables.append(table)
    return np.stack(tables)


def average_coefficients(
    scheme: LevelScheme,
    relax: RelaxationSet,
    medium: MediumParams,
    fields: FieldConfig,
    G1: complex,
    G3: complex,
    quad: QuadratureSpec,
) -> MacroscopicCoefficients:
    """Doppler-average all propagation coefficients at given drive amplitudes.

    Every velocity class sees the same drive Rabi amplitudes (plane waves);
    only the detunings are shifted.  The drive self-coefficients sigma_1/3
    are effective (intensity-dependent) values defined through the exact
    drive coherences; the probe coefficients come from the first-order
    response.  Raises :class:`AveragingError` if a solve fails or a
    coefficient is not finite.
    """
    return MacroscopicCoefficients.from_vector(coefficient_tables(
        scheme, relax, medium, quad, [fields], complex(G1), complex(G3))[0])


class DriveGrid:
    """A real (|G1|, |G3|) grid at fixed drive detunings, tabulated by :meth:`tables`.

    ``src``, the probe sources kept between calls, is empty, (6, 0, n1, n3):
    the pole sums keep no per-class state.
    """

    def __init__(
        self,
        scheme: LevelScheme,
        relax: RelaxationSet,
        medium: MediumParams,
        fields: FieldConfig,
        g1_grid: np.ndarray,
        g3_grid: np.ndarray,
        quad: QuadratureSpec,
    ):
        self.scheme = scheme
        self.relax = relax
        self.medium = medium
        self.fields = fields
        self.quad = quad
        self.g1_grid = np.asarray(g1_grid, dtype=float)
        self.g3_grid = np.asarray(g3_grid, dtype=float)
        self.src = np.empty((6, 0, self.g1_grid.size, self.g3_grid.size), dtype=complex)

    def tables(self, columns: list[FieldConfig], threads: int = 1) -> np.ndarray:
        """Coefficient tables (len(columns), n1, n3, 12) on the drive grid, one per probe detuning.

        Rows are read by :meth:`MacroscopicCoefficients.from_vector`.  The
        columns must share the drive detunings of the grid; only the probe
        detuning omega4 (and the slaved omega2) may differ.  One pass over
        batches of drive points, split among ``threads`` workers, finds each
        point's drive poles and then every column's probe poles.
        """
        if any((f.omega1, f.omega3) != (self.fields.omega1, self.fields.omega3) for f in columns):
            raise ValueError("drive detunings differ from the tabulated grid")
        return coefficient_tables(self.scheme, self.relax, self.medium, self.quad, columns,
                                  self.g1_grid[:, None], self.g3_grid[None, :], threads)

    def coefficients_for(self, fields: FieldConfig) -> np.ndarray:
        """Coefficient table (n1, n3, 12) for one probe detuning, as :meth:`tables` gives it."""
        return self.tables([fields])[0]


# ---------------------------------------------------------------------------
# Independent Voigt oracle (direct adaptive quadrature; does not reuse the
# averaging machinery above).
# ---------------------------------------------------------------------------

def voigt_reference(omega: float, gamma_coh: float, doppler_width: float) -> complex:
    """Complex Voigt profile by adaptive convolution quadrature.

    Returns the Gaussian-weighted average of the complex Lorentzian
    gamma/(gamma - i(omega - x)) with Gaussian 1/e half-width
    ``doppler_width``; the real part is the absorption profile.  Arguments
    share any common frequency unit.
    """
    from scipy.integrate import quad as adaptive_quad  # no production path needs it

    if gamma_coh <= 0:
        raise ValueError("Lorentzian width must be positive")
    if doppler_width < 0:
        raise ValueError("Doppler width must be >= 0")
    if doppler_width == 0.0:
        return gamma_coh / (gamma_coh - 1j * omega)

    d = doppler_width
    span = 8.0 * d

    def weight(x):
        return math.exp(-((x / d) ** 2)) / (d * math.sqrt(math.pi))

    def integrand_re(x):
        delta = omega - x
        return weight(x) * gamma_coh * gamma_coh / (gamma_coh**2 + delta**2)

    def integrand_im(x):
        delta = omega - x
        return weight(x) * gamma_coh * delta / (gamma_coh**2 + delta**2)

    points = [p for p in (0.0, omega) if -span < p < span]
    re, re_err = adaptive_quad(
        integrand_re, -span, span, points=points, limit=400, epsabs=1e-13, epsrel=1e-11
    )
    im, im_err = adaptive_quad(
        integrand_im, -span, span, points=points, limit=400, epsabs=1e-13, epsrel=1e-11
    )
    if re_err > 1e-8 * max(abs(re), 1e-3) or im_err > 1e-8 * max(abs(im), abs(re), 1e-3):
        raise RuntimeError("adaptive Voigt quadrature did not converge")
    return complex(re, im)
