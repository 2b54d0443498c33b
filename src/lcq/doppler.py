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
Weideman's 40-term rational series, SIAM J. Numer. Anal. 31, 1994,
:func:`_faddeeva`).  The
drive sector has four poles per drive point, the roots of the quartic
D P1 P3 of :func:`lcq.liouville.drive_steady_state_batch`'s closed form,
with residues from partial fractions.  The probe block adds four per drive
point and probe column, the roots of the quartic det(M0 + x M1), with
residues from Cramer's rule.  Both quartics are solved by Ferrari's formula
and a Newton step (:func:`_quartic_roots`); LAPACK's ``eig`` is only
``lcq validate``'s oracle.

Every average is one pass, :func:`_average`: the drive poles of every drive
point once, then the probe poles of every column.  The probe detunings are
one array, the probe axis, that broadcasts against the drive amplitudes: a
single point (:func:`average_coefficients`), a sweep, the coefficient-cache
grid (:class:`DriveGrid`) and paired points all go through it, and so does
the normalization.  Where poles coalesce (an exceptional point, detected
by the poles' spread, :func:`_spread`, or a root the formula cannot give)
the residues grow and cancel, so such a point alone is averaged by the
velocity rule of :class:`QuadratureSpec` instead,
:func:`_node_sums`, and counted in the :func:`pole_stats` of the run.  The
same rule, summed over every class in memory-bounded chunks, is what the
tests and ``lcq validate`` check the pole sums against; ``--quad`` sizes it
and nothing else.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

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
    array shapes, so results repeat across runs.  The name is that of the
    compensated loop this replaced; the benchmark's tracer wraps this
    function by name.
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

    @staticmethod
    def columns(rows: np.ndarray) -> dict[str, np.ndarray]:
        """Table rows (:meth:`from_vector`'s layout) as named columns, alphas first."""
        re, im = rows[..., 0::2], rows[..., 1::2]
        return {**{f"alpha{j + 1}": 2.0 * im[..., j] for j in range(4)},
                **{f"deltak{j + 1}": re[..., j] for j in range(4)},
                "re_gamma4": re[..., 4], "im_gamma4": im[..., 4],
                "re_gamma2": re[..., 5], "im_gamma2": im[..., 5]}

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


def _weideman(n: int) -> tuple[float, np.ndarray]:
    """Scale L and coefficients (highest power first) of Weideman's n-term series for w."""
    m = 2 * n
    scale = math.sqrt(n / math.sqrt(2.0))
    t = scale * np.tan(np.arange(1 - m, m) * (math.pi / (2 * m)))
    f = np.concatenate(([0.0], np.exp(-t * t) * (scale * scale + t * t)))
    a = np.fft.fft(np.fft.fftshift(f)).real / (2 * m)
    return scale, a[n:0:-1]


_W_SCALE, _W_COEFFS = _weideman(40)


def _faddeeva(z: np.ndarray) -> np.ndarray:
    """w(z) = exp(-z^2) erfc(-iz) for Im z >= 0, within about 3e-14 relative.

    Weideman's series (SIAM J. Numer. Anal. 31, 1994): with r = 1 / (L - iz)
    and Z = (L + iz) r = 2 L r - 1 on the closed unit disc,
    w = (2 p(Z) r + pi^-1/2) r for a polynomial p of degree 39.  Horner's
    rule writes each step to a fresh array: numpy's in-place complex multiply
    can round an element of a batch differently from the same element alone,
    and results must not depend on how points are batched.
    """
    r = 1.0 / (_W_SCALE - 1j * z)
    big_z = 2.0 * _W_SCALE * r - 1.0
    p = np.full(big_z.shape, _W_COEFFS[0], dtype=complex)
    for a in _W_COEFFS[1:]:
        p = p * big_z + a
    return (2.0 * p * r + 1.0 / _SQRT_PI) * r


def _plasma_z(p: np.ndarray) -> np.ndarray:
    """Z(p) = pi^-1/2 int exp(-x^2) / (x - p) dx over the real line, for p off it.

    i sqrt(pi) w(p) above the axis and its mirror -i sqrt(pi) w(-p) below.
    """
    sign = np.where(p.imag < 0, -1.0, 1.0)
    return 1j * _SQRT_PI * sign * _faddeeva(sign * p)


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


_CUBE_ROOTS_OF_UNITY = np.exp(2j * np.pi / 3 * np.arange(3))


def _quartic_roots(poly: np.ndarray) -> tuple:
    """Roots (N, 4) of the quartics ``poly`` (N, 5), lowest coefficient first.

    Ferrari's formula on the monic quartic z^4 + c3 z^3 + c2 z^2 + c1 z + c0
    whose roots are those of ``poly`` over ``scale`` = |poly_0 / poly_4|^(1/4),
    so that they are of order one.  With z = t - c3 / 4 the depressed
    quartic t^4 + p t^2 + q t + r is (t^2 + (p + y) / 2)^2 - y (t - q / 2y)^2
    for a root y of the resolvent cubic y^3 + 2p y^2 + (p^2 - 4r) y - q^2,
    found by Cardano's formula, the largest in modulus of its three; the
    difference of squares splits into two quadratics, each solved without
    cancellation.  Every root then takes a Newton step on ``poly``.  A root
    the formula cannot give (a quadruple one) is NaN.
    Each step writes a fresh array, as in :func:`_faddeeva`, so a point's
    roots do not depend on its batch.  Returns the roots and the monic
    coefficients c (N, 4).
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scale = np.abs(poly[:, 0] / poly[:, 4]) ** 0.25
        monic = poly[:, :4] / poly[:, 4:] * scale[:, None] ** np.arange(-4.0, 0.0)
        c0, c1, c2, c3 = (monic[:, k].astype(complex) for k in range(4))
        a = 0.25 * c3
        a2 = a * a
        p = c2 - 6.0 * a2
        q = c1 - 2.0 * a * c2 + 8.0 * a * a2
        r = c0 - a * c1 + a2 * c2 - 3.0 * a2 * a2
        # the resolvent y^3 + B y^2 + C y + D, depressed by y = w - B / 3
        B, C, D = 2.0 * p, p * p - 4.0 * r, -q * q
        P = C - B * B / 3.0
        R = D - B * C / 3.0 + 2.0 * B * B * B / 27.0
        half = -0.5 * R
        root = np.sqrt(half * half + P * P * P / 27.0)
        u3 = np.where(np.abs(half + root) >= np.abs(half - root), half + root, half - root)
        u = np.power(u3, 1.0 / 3.0)[:, None] * _CUBE_ROOTS_OF_UNITY
        y = np.where(u == 0, 0.0, u - P[:, None] / (3.0 * u)) - (B / 3.0)[:, None]
        y = np.take_along_axis(y, np.argmax(np.abs(y), axis=1)[:, None], axis=1)[:, 0]
        s = np.sqrt(y)
        # t^2 -+ s t + (p + y) / 2 +- q / 2s, each root pair from the larger
        b = np.stack([-s, s], axis=1)
        c = (0.5 * (p + y))[:, None] + np.stack([0.5 * q / s, -0.5 * q / s], axis=1)
        disc = np.sqrt(b * b - 4.0 * c)
        big = -0.5 * np.where(np.abs(b + disc) >= np.abs(b - disc), b + disc, b - disc)
        small = np.where(big == 0, 0.0, c / big)
        roots = scale[:, None] * (np.concatenate([big, small], axis=1) - a[:, None])
        roots = roots - _polyval(poly, roots) / _polyval(poly[:, 1:] * np.arange(1, 5), roots)
    return roots, monic


@dataclass
class _DriveSector:
    """The drive sector at P drive points as rational functions of x = v/u.

    Every element is a polynomial over the quartic ``Q`` (P, 5): the
    sources (d4pop, d2pop, rho_lg, rho_gl, rho_nm, rho_mn) of
    :func:`lcq.liouville.compact_sources` in ``sources`` (6, P, 5) and the
    drive ratios rho_gl / G1 and rho_mn / G3 in ``ratios`` (2, P, 4).
    ``poles`` (P, 4) are the roots of Q and ``weights`` = Z(pole) / Q'(pole).
    """

    Q: np.ndarray
    sources: np.ndarray
    ratios: np.ndarray
    poles: np.ndarray
    weights: np.ndarray

    # what every probe column of a point shares, computed at first use and
    # kept for the rest

    @cached_property
    def pole_sources(self) -> np.ndarray:
        """The sources at the poles (6, P, 4)."""
        return _polyval(self.sources, self.poles)

    @cached_property
    def spread(self) -> np.ndarray:
        """The largest (|Im q_i| + |Im q_j|) / |q_i - q_j| (P,) over pairs of the poles:
        the drive point's coalescence test, and its part of each probe block's."""
        q = self.poles
        return _spread(q, q, np.where(np.eye(4, dtype=bool), np.inf,
                                      q[:, :, None] - q[:, None, :]))


def _drive_sector(relax: RelaxationSet, p_n: float, alpha, beta, G1, G3) -> _DriveSector:
    """The drive sector at drive points G1, G3 (P,), MHz.

    The closed form of :func:`lcq.liouville.drive_steady_state_batch`, with
    the drive detunings Omega_j' = alpha_j - beta_j x in rad/us: the pumping
    fractions are fg = K1 / P1 and fm = K3 / P3 with K1 = 2 Gamma_gl |a1|^2
    and P1 = Gamma_g (Gamma_gl^2 + Omega_1'^2) + K1 (likewise K3, P3), and
    P1 P3 cancels from every element, which leaves the quartic
    Q = D P1 P3.  It is positive on the real axis, so its roots come in
    conjugate pairs off it (:func:`_quartic_roots`), and the residues are
    partial fractions.
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

    roots, monic = _quartic_roots(Q)
    over = ~np.isfinite(monic).all(axis=1)
    if over.any():  # |G|^2 and its products overflow long before a drive does
        k = int(np.argmax(over))
        raise AveragingError(f"drive amplitudes |G1| = {abs(G1[k]):.6g} MHz, |G3| = "
                             f"{abs(G3[k]):.6g} MHz overflow the drive sector")
    weights = _plasma_z(roots) / _polyval(Q[:, 1:] * np.arange(1, 5), roots)
    return _DriveSector(Q, sources, np.stack([ratio1, ratio3]), roots, weights)


def _spread(a: np.ndarray, b: np.ndarray, gap: np.ndarray) -> np.ndarray:
    """The largest (|Im a_i| + |Im b_j|) / |gap_ij| (N,) over pairs of poles a, b (N, 4).

    ``gap`` (N, 4, 4) is a_i - b_j, and inf where a pole would pair with
    itself.  Coalescing poles have residues that grow as they approach and
    cancel, and this ratio grows with them; above :data:`_COALESCING`, or
    where a pole is not finite, the pole sums are not trusted.
    """
    return np.max((np.abs(a.imag)[:, :, None] + np.abs(b.imag)[:, None, :]) / np.abs(gap),
                  axis=(1, 2))


def _cofactors(m0, m1, m2, m3, p, q, r, s) -> tuple:
    """Rows 1 and 2 of the adjugate of the probe block, the cofactors C_j1 and C_j2.

    The block has the diagonal m0..m3 and the couplings of
    :func:`lcq.liouville.probe_block`, written out for its structural zeros,
    so that an entry that vanishes with a drive carries that drive as a
    factor.
    """
    pq, rs = p * q, r * s
    return (
        (-q * (m2 * m3 - pq + rs), m0 * (m2 * m3 - pq) - rs * m3,
         r * q * (m0 + m3), -r * (m0 * m2 + pq - rs)),
        (-s * (m1 * m3 + pq - rs), p * s * (m0 + m3),
         m0 * (m1 * m3 - rs) - pq * m3, -p * (m0 * m1 - pq + rs)),
    )


def _pencil_poles(block, slopes) -> np.ndarray:
    """Poles (B, 4) of B probe blocks, as :func:`_pencil` gives them: what ``lcq validate``
    checks against LAPACK."""
    return _pencil(block, slopes)[0]


def _pencil(block, slopes) -> tuple:
    """Poles (B, 4) of B probe blocks M(x) = M0 + x M1, and the parts of the pole sums
    that depend on the poles alone.

    ``block`` holds :func:`lcq.liouville.probe_block`'s parts at x = 0 and
    ``slopes`` the diagonal of M1.  With m_j = M0_jj + x slope_j,
    det M(x) = (m0 m1 - pq)(m2 m3 - pq) - rs (m0 m2 + m1 m3 + 2pq) + (rs)^2,
    whose roots lambda_i (:func:`_quartic_roots`) are the eigenvalues of
    K = -M1^-1 M0.  Returns lambda, then what :func:`_probe_means` reuses:
    rows 1 and 2 of adj M(lambda_i) (:func:`_cofactors`, each entry (B, 4)),
    the gaps lambda_i - lambda_k (B, 4, 4) and det' M(lambda_i) =
    det M1 prod_k (lambda_i - lambda_k) (B, 4).
    """
    m0, m1, m2, m3, p, q, r, s = block
    s0, s1, s2, s3 = slopes
    pq, rs = p * q, r * s
    # det M(x) = A C - rs X + (rs)^2, with the coefficients of the quadratics
    A = (m0 * m1 - pq, m0 * s1 + m1 * s0, s0 * s1)
    C = (m2 * m3 - pq, m2 * s3 + m3 * s2, s2 * s3)
    X = (m0 * m2 + m1 * m3 + 2.0 * pq, m0 * s2 + m2 * s0 + m1 * s3 + m3 * s1, s0 * s2 + s1 * s3)
    det = np.stack(np.broadcast_arrays(
        A[0] * C[0] - rs * X[0] + rs * rs, A[0] * C[1] + A[1] * C[0] - rs * X[1],
        A[0] * C[2] + A[1] * C[1] + A[2] * C[0] - rs * X[2], A[1] * C[2] + A[2] * C[1],
        A[2] * C[2]), axis=1)
    lam, _ = _quartic_roots(det)
    mm = [block[j][:, None] + slopes[j] * lam for j in range(4)]
    cofactors = _cofactors(*mm, *(c[:, None] for c in block[4:]))
    gap = lam[:, :, None] - lam[:, None, :]
    derivative = np.prod(slopes) * np.prod(np.where(np.eye(4, dtype=bool), 1.0, gap), axis=2)
    return lam, cofactors, gap, derivative


def _numerators(src, cofactors) -> np.ndarray:
    """N_i = sum_j n_j C_ji (4, B, poles) of the two unit probe sources n, rows i = 1, 2 each,
    from the drive sources ``src`` (6, B, poles) and cofactor rows 1 and 2 at the poles."""
    # the unit sources have a structural zero each, a scalar 0.0
    return np.stack([sum(n * c for n, c in zip(unit, cof) if np.ndim(n))
                     for unit in liouville.probe_sources(*src) for cof in cofactors])


def _probe_means(drive: _DriveSector, point: np.ndarray, block, slopes) -> tuple:
    """Averaged probe responses (4, B) of B probe blocks, and their pole spreads (B,).

    Block k is at the drive point ``point[k]`` of ``drive``.
    ``block`` holds :func:`lcq.liouville.probe_block`'s parts at x = 0 and
    ``slopes`` the derivatives of its diagonal in x, so that the block is
    the pencil M(x) = M0 + x M1 with M1 = diag(slopes).  Its poles are the
    roots lambda_k of det M(x) = det M1 prod_k (x - lambda_k)
    (:func:`_pencil`).  By Cramer's rule, row i of M^-1 b for a source
    b = n / Q is N_i / (det M Q) with N_i = sum_j n_j C_ji over the
    cofactors C of M (:func:`_cofactors`).  Its residue at lambda_k is
    N_i / (det' M Q) there and at a drive pole q_j N_i / (det M Q') there.
    The spread is the largest (|Im p| + |Im p'|) / |p - p'| over the eight
    poles (:func:`_spread`): coalescing poles have residues that grow as
    they approach and cancel.  Each part is computed once where it is
    known: the drive point's sources at its poles and its drive-drive
    spread come with ``drive``, and the cofactors, gaps and det' M at the
    lambda_k from :func:`_pencil`; only the sources at the lambda_k, the
    cofactors at the q_j, det M there and the pairs (q_j, lambda_k) are
    new.  The terms go [lambda, q] into each sum.
    """
    lam, cofactors, gap, derivative = _pencil(block, slopes)
    poles = drive.poles[point]                                               # (B, 4)
    cross = poles[:, :, None] - lam[:, None, :]                              # q_j - lambda_k
    spread = np.maximum.reduce([_spread(lam, lam, np.where(np.eye(4, dtype=bool), np.inf, gap)),
                                _spread(poles, lam, cross), drive.spread[point]])
    det = np.concatenate([derivative, np.prod(slopes) * np.prod(cross, axis=2)], axis=1)
    weights = np.concatenate([_plasma_z(lam) / _polyval(drive.Q[point], lam),
                              drive.weights[point]], axis=1) / det
    m0, m1, m2, m3 = (block[j][:, None] + slopes[j] * poles for j in range(4))
    # np.take keeps the gathered (6, B, k) sources C-ordered, where [:, point] puts B outermost
    numerators = np.concatenate([
        _numerators(_polyval(np.take(drive.sources, point, axis=1), lam), cofactors),
        _numerators(np.take(drive.pole_sources, point, axis=1),
                    _cofactors(m0, m1, m2, m3, *(c[:, None] for c in block[4:])))], axis=-1)
    x1_4, x2_4, x1_2, x2_2 = _pole_sum(numerators * weights)
    return np.stack([x2_4, x2_2, np.conj(x1_2), np.conj(x1_4)]), spread


def _probe_axis(omega4, shape: tuple) -> tuple:
    """The shape of the probe detunings ``omega4`` broadcast against the drive ``shape``,
    which must be its trailing part, and omega4 as (columns, drive points)."""
    full = np.broadcast_shapes(np.shape(omega4), shape)
    if full[len(full) - len(shape):] != shape:
        raise ValueError(f"probe detunings of shape {np.shape(omega4)} do not end in {shape}")
    omega4 = np.broadcast_to(np.asarray(omega4, dtype=float), full)
    return full, omega4.reshape(-1, math.prod(shape))


def _node_sums(scheme, relax, medium, quad, fields: FieldConfig, omega4, G1, G3,
               modulus: bool = False) -> tuple:
    """Maxwell sums over the velocity nodes of ``quad``, as :func:`_average` returns them.

    Each node is one velocity class, solved by
    :func:`lcq.liouville.drive_steady_state_batch` and
    :func:`lcq.liouville.probe_response_compact` for every drive point and
    probe column.  The classes go in chunks of ``_CHUNK // drive points``
    (one chunk for a single drive point at up to ``_CHUNK`` nodes), so that a
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
    full, w4 = _probe_axis(omega4, shape)
    points = math.prod(shape)
    nodes, weights = quad.nodes()
    step = max(1, liouville._CHUNK // points)

    def responses(v):
        sh1, sh2, sh3, sh4 = (x.reshape(-1, *[1] * len(shape))
                              for x in liouville.doppler_shifts(scheme, v))
        om1p, om3p = fields.omega1 - sh1, fields.omega3 - sh3
        rho0 = liouville.drive_steady_state_batch(relax, medium.p_n, om1p, om3p, G1, G3)
        src = tuple(np.stack(liouville.compact_sources(rho0)))
        yield np.stack(_drive_ratios(rho0, om1p, om3p, relax), axis=1)
        for column in w4.reshape(-1, *shape):
            yield np.stack(liouville.probe_response_compact(
                src, om1p, fields.omega1 + fields.omega3 - column - sh2, column - sh4, G1, G3,
                relax), axis=1)

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
    return total[0], np.stack(total[1:], axis=1).reshape(4, *full)


# pole spread (:func:`_spread`) above which poles count as coalescing
_COALESCING = 1e4
_POINTS_PER_BATCH = 512
# probe blocks per probe call: one full batch's worth, so a call's transients stay a batch's
_GROUP_BLOCKS = _POINTS_PER_BATCH
# The rates the pole sums need positive.  Without Gamma_m, Gamma_g or Gamma_n
# the zero-drive steady state is not unique, and a zero coherence rate puts a
# pole of the per-class response on the real velocity axis, where the Maxwell
# average is defined only as the limit of a vanishing rate.  A spontaneous
# rate may be zero.
_DAMPING = ("gamma_m", "gamma_g", "gamma_n", "coh_ml", "coh_gl", "coh_mn", "coh_gn", "coh_nl",
            "coh_gm")


class PoleStats:
    """Exceptional points, and the largest spread of the poles summed, in `pole_stats`.

    An exceptional point is a drive point, or a drive point of one probe
    column, whose poles coalesce, and which the velocity rule averages
    instead; ``worst_condition`` is the largest pole spread (:func:`_spread`)
    over the poles the pole sums used.
    """

    def __init__(self):
        self.exceptional, self.worst_condition = 0, 0.0

    def add(self, spread: np.ndarray, exceptional: int = 0) -> None:
        self.exceptional += exceptional
        self.worst_condition = max(self.worst_condition, float(np.max(spread, initial=0.0)))


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


def _average(scheme, relax, medium, quad, fields: FieldConfig, omega4, G1, G3) -> tuple:
    """Maxwell averages at the drives ``G1``, ``G3`` and probe detunings ``omega4``, in one pass.

    The amplitudes (MHz, real or complex) broadcast to the drive shape: a
    scalar for one point, ``g1[:, None]`` and ``g3[None, :]`` for a grid.
    The drive detunings are those of ``fields``.  omega4 (and the slaved
    omega2) broadcasts against the drive shape as its trailing part
    (:func:`_probe_axis`); a leading part is the probe columns: a (c,) sweep
    at one point, ``omega4[:, None, None]`` on a grid.  omega4 and G1, G3
    all of shape (n,) pair n points element by element.
    The drive points go in batches of equal size, at most
    :data:`_POINTS_PER_BATCH`; each batch finds its drive poles, and what
    every column shares at them (:class:`_DriveSector`), once and then
    every column's probe poles, and every point's averages depend on that
    point alone.
    Returns the averaged drive ratios (2, *drive shape) and the averaged
    probe responses (a4, b4, a2, b2) as (4, *broadcast shape).
    """
    shape = np.broadcast_shapes(np.shape(G1), np.shape(G3))
    full, w4 = _probe_axis(omega4, shape)
    if quad.u == 0.0:
        return _node_sums(scheme, relax, medium, quad, fields, omega4, G1, G3)
    undamped = [name for name in _DAMPING if getattr(relax, name) == 0]
    if undamped:
        raise AveragingError(
            f"velocity averaging needs positive rates, not {', '.join(undamped)} = 0")
    g1, g3 = (np.broadcast_to(np.asarray(g, dtype=complex), shape).ravel() for g in (G1, G3))
    n_col, p_n = len(w4), medium.p_n
    d1, d2, d3, d4 = liouville.doppler_shifts(scheme, quad.u)   # MHz per unit x
    slopes = np.array(liouville.probe_block(-d1, -d2, -d4, 0.0, 0.0, (0.0,) * 4)[:4])
    rad, rates = RAD_PER_MHZ, liouville.probe_rates(relax)
    stats = _POLE_STATS.get() or PoleStats()
    ratios = np.empty((2, g1.size), dtype=complex)
    means = np.empty((4, n_col, g1.size), dtype=complex)

    def by_rule(k: np.ndarray, cols: np.ndarray, drive: bool) -> None:
        # the exceptional drive points k of the columns cols, and of the drive ratios
        if k.size:
            r, m = _node_sums(scheme, relax, medium, quad, fields, w4[cols[:, None], k],
                              g1[k], g3[k])
            means[:, cols[:, None], k] = m
            if drive:
                ratios[:, k] = r
            stats.add((), k.size)

    edges = np.linspace(0, g1.size, -(-g1.size // _POINTS_PER_BATCH) + 1).astype(int)
    for rows in map(slice, edges[:-1], edges[1:]):
        # coalescing poles leave infinite or NaN residues, which the velocity rule replaces
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            drive = _drive_sector(relax, p_n, (rad * fields.omega1, rad * fields.omega3),
                                  (rad * d1, rad * d3), g1[rows], g3[rows])
            ratios[:, rows] = _pole_sum(_polyval(drive.ratios, drive.poles) * drive.weights)
            # without drives each response is a single Lorentzian, with a pole of its own
            idle = (g1[rows] == 0) & (g3[rows] == 0)
            if idle.any():
                ratios[:, rows][:, idle] = np.array([
                    _lorentzian(1j * rad * pop, rate - 1j * rad * omega, 1j * rad * d)
                    for pop, rate, omega, d in ((1 - p_n, relax.coh_gl, fields.omega1, d1),
                                                (p_n, relax.coh_mn, fields.omega3, d3))
                ])[:, None]
            bad = ~(drive.spread <= _COALESCING) & ~idle
            n = len(idle)
            # columns go in groups of at most _GROUP_BLOCKS probe blocks, each a block per drive point
            group = max(1, _GROUP_BLOCKS // n)
            for first in range(0, n_col, group):
                cols = slice(first, min(first + group, n_col))
                count = cols.stop - first
                w = w4[cols, rows].ravel()
                point = np.tile(np.arange(n), count)
                block = liouville.probe_block(fields.omega1, fields.omega1 + fields.omega3 - w, w,
                                              g1[rows][point], g3[rows][point], rates)
                values, spread = _probe_means(drive, point, block, slopes)
                still = np.tile(idle, count)
                if still.any():
                    values[:, still] = np.stack(np.broadcast_arrays(
                        _lorentzian(-1j * rad * (1.0 - p_n), block[2][still], slopes[2]), 0.0,
                        np.conj(_lorentzian(1j * rad * p_n, block[1][still], slopes[1])), 0.0))
                spread = np.where(still, 0.0, spread)
                stats.add(np.where(spread <= _COALESCING, spread, 0.0))
                means[:, cols, rows] = values.reshape(4, count, n)
                flagged = ~bad & ~(spread <= _COALESCING).reshape(count, n)
                for c in np.flatnonzero(flagged.any(axis=1)):
                    by_rule(rows.start + np.flatnonzero(flagged[c]), np.array([first + c]), False)
        by_rule(rows.start + np.flatnonzero(bad), np.arange(n_col), True)
    return ratios.reshape(2, *shape), means.reshape(4, *full)


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
    _, means = _average(scheme, relax, medium, quad, zero, 0.0, 0j, 0j)
    k4 = 1.0  # relative wavenumber of wave 4
    d4 = scheme.dipoles[3]
    raw_alpha4 = 2.0 * float(np.imag(k4 * d4 * d4 * means[0]))
    if raw_alpha4 <= 0:
        raise AveragingError("weak-field resonant absorption is not positive")
    return raw_alpha4 / medium.alpha40


def coefficient_tables(scheme, relax, medium, quad, fields: FieldConfig, omega4, G1,
                       G3) -> np.ndarray:
    """Coefficient tables (*shape, 12) from one :func:`_average` pass.

    ``shape`` is the probe detunings' broadcast against the drives, as in
    :func:`_average`.  Rows are read by
    :meth:`MacroscopicCoefficients.from_vector`, or as named columns by
    :meth:`MacroscopicCoefficients.columns`.  Raises :class:`AveragingError`
    if a solve fails or a coefficient is not finite, naming the first such
    entry's omega4 and drive point.
    """
    ratios, (a4, b4, a2, b2) = _average(scheme, relax, medium, quad, fields, omega4, G1, G3)
    norm = _norm_constant(scheme, relax, medium, quad)
    l1, l2, l3, l4 = scheme.wavelengths
    k1, k2, k3 = l4 / l1, l4 / l2, l4 / l3  # relative wavenumbers, k4 = 1
    d1, d2, d3, d4 = scheme.dipoles
    gl_ratio, mn_ratio = (np.broadcast_to(r, a4.shape) for r in ratios)
    table = np.stack([
        k1 * d1 * d1 * gl_ratio,  # sigma1
        k2 * d2 * d2 * a2,        # sigma2
        k3 * d3 * d3 * mn_ratio,  # sigma3
        1.0 * d4 * d4 * a4,       # sigma4
        1.0 * d4 * d2 * b4,       # gamma4
        k2 * d2 * d4 * b2,        # gamma2
    ], axis=-1).view(np.float64) / norm
    finite = np.isfinite(table)
    if not finite.all():
        index = np.unravel_index(int(np.argmin(finite)), table.shape)[:-1]
        point = tuple(map(int, index[a4.ndim - ratios.ndim + 1:]))
        raise AveragingError(f"non-finite averaged coefficient at omega4 = "
                             f"{np.broadcast_to(omega4, a4.shape)[index]:.6g} MHz"
                             + (f", drive point {point}" if point else ""))
    return table


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
        scheme, relax, medium, quad, fields, fields.omega4, complex(G1), complex(G3)))


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

    def tables(self, omega4: np.ndarray) -> np.ndarray:
        """Coefficient tables (len(omega4), n1, n3, 12) on the drive grid, one per probe detuning.

        Rows are read by :meth:`MacroscopicCoefficients.from_vector`.  One
        pass over batches of drive points finds each point's drive poles and
        then every column's probe poles.
        """
        return coefficient_tables(self.scheme, self.relax, self.medium, self.quad, self.fields,
                                  np.asarray(omega4, dtype=float)[:, None, None],
                                  self.g1_grid[:, None], self.g3_grid[None, :])

    def coefficients_for(self, fields: FieldConfig) -> np.ndarray:
        """Coefficient table (n1, n3, 12) at the grid's drive detunings, which ``fields``
        must share, and its probe detuning, as :meth:`tables` gives it."""
        if (fields.omega1, fields.omega3) != (self.fields.omega1, self.fields.omega3):
            raise ValueError("drive detunings differ from the tabulated grid")
        return self.tables([fields.omega4])[0]


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
