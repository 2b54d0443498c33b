"""Closed-form solution of the coupled probe pair with constant coefficients.

When the drives are homogeneous along z, the anti-Stokes amplitude E4 and the
conjugate Stokes amplitude E2* obey two linear coupled equations

    dE4/dz  = -(alpha4/2) E4  + i gamma4  exp(+i dk z) E2*,
    dE2*/dz = -(alpha2/2) E2* - i gamma2* exp(-i dk z) E4,

where dk = deltak1 + deltak3 - deltak2 - deltak4 is the residual four-wave
phase mismatch from the medium dispersion (each wave's own dispersion phase
has been factored out of E4 and E2*).  The solution is hyperbolic in
R = sqrt(beta^2 + gamma^2) with beta = [(alpha4 - alpha2)/2 + i dk]/2 and
gamma^2 = gamma2* gamma4; only even functions of R appear, so the square-root
branch is immaterial.  The evaluation factors the growing exponential out to
stay finite for |R z| far beyond the overflow limit of cosh.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .doppler import MacroscopicCoefficients

_SMALL_RZ = 1e-4


@dataclass(frozen=True)
class OpaCoefficients:
    """Constant coefficients of the reduced two-field problem (alpha40 units)."""

    alpha4: float
    alpha2: float
    delta_k: float
    gamma4: complex
    gamma2: complex

    @classmethod
    def from_macroscopic(cls, mc: MacroscopicCoefficients) -> "OpaCoefficients":
        return cls(
            alpha4=mc.alpha4,
            alpha2=mc.alpha2,
            delta_k=mc.deltak1 + mc.deltak3 - mc.deltak2 - mc.deltak4,
            gamma4=mc.gamma4,
            gamma2=mc.gamma2,
        )

    @property
    def beta(self) -> complex:
        return 0.5 * (0.5 * (self.alpha4 - self.alpha2) + 1j * self.delta_k)

    @property
    def gamma_sq(self) -> complex:
        return np.conj(self.gamma2) * self.gamma4

    @property
    def big_r(self) -> complex:
        return cmath.sqrt(self.beta**2 + self.gamma_sq)


@dataclass(frozen=True)
class BoundaryAmplitudes:
    """Input probe amplitudes at z = 0 (common arbitrary scale)."""

    e40: complex = 1.0 + 0.0j
    e20: complex = 0.0j


def opa_solution(c: OpaCoefficients, b: BoundaryAmplitudes, z):
    """Amplitudes (E4, E2*) after propagation over z (L4 units, scalar or array).

    The R -> 0 limit is evaluated analytically through the series of
    sinh(Rz)/R, so degenerate coefficient sets are handled without special
    casing by the caller.
    """
    z = np.asarray(z, dtype=float)
    beta = c.beta
    R = c.big_r
    e40 = complex(b.e40)
    e20c = np.conj(complex(b.e20))
    g4 = complex(c.gamma4)
    g2c = np.conj(complex(c.gamma2))

    small = np.abs(R * z) < _SMALL_RZ
    e4 = np.empty(z.shape, dtype=complex)
    e2c = np.empty(z.shape, dtype=complex)

    if np.any(small):
        zs = z[small]
        rz2 = (R * zs) ** 2
        shc = zs * (1.0 + rz2 / 6.0 + rz2 * rz2 / 120.0)  # sinh(Rz)/R
        ch = np.cosh(R * zs)
        pre4 = np.exp((-0.5 * c.alpha4 + beta) * zs)
        pre2 = np.exp((-0.5 * c.alpha2 - beta) * zs)
        e4[small] = pre4 * (1j * g4 * e20c * shc + e40 * (ch - beta * shc))
        e2c[small] = pre2 * (-1j * g2c * e40 * shc + e20c * (ch + beta * shc))
    if np.any(~small):
        # The growing exponential is folded into the physical eigen-exponents
        # lam/mu, so cosh overflow cannot occur for representable answers; a
        # genuinely overflowing solution propagates inf without warnings.
        zb = z[~small]
        bR = beta / R
        lam_p = -0.5 * c.alpha4 + beta + R
        lam_m = -0.5 * c.alpha4 + beta - R
        mu_p = -0.5 * c.alpha2 - beta + R
        mu_m = -0.5 * c.alpha2 - beta - R
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            el_p = np.exp(lam_p * zb)
            el_m = np.exp(lam_m * zb)
            em_p = np.exp(mu_p * zb)
            em_m = np.exp(mu_m * zb)
            e4[~small] = 0.5 * (
                e40 * (el_p * (1.0 - bR) + el_m * (1.0 + bR))
                + 1j * g4 * e20c * (el_p - el_m) / R
            )
            e2c[~small] = 0.5 * (
                e20c * (em_p * (1.0 + bR) + em_m * (1.0 - bR))
                - 1j * g2c * e40 * (em_p - em_m) / R
            )
    if z.ndim == 0:
        return complex(e4[()]), complex(e2c[()])
    return e4, e2c


def _weak_coupling(c: OpaCoefficients) -> tuple[complex, bool]:
    """beta of the weak-coupling expansion and whether the expansion is valid there."""
    beta = c.beta
    if beta == 0:
        raise ZeroDivisionError("beta = 0: the weak-coupling expansion is undefined")
    coupling = abs(c.gamma_sq) / abs(beta) ** 2
    scale = abs(c.alpha4) + abs(c.alpha2) + abs(c.delta_k)
    return beta, coupling <= 1e-2 and abs(c.delta_k) <= 1e-12 * max(scale, 1.0)


def fwm_gain_limit(c: OpaCoefficients, L: float) -> tuple[float, bool]:
    """Weak-coupling transmission I4/I40 for E20 = 0, with a validity flag.

    Valid when the coupling is perturbative (|gamma^2/beta^2| << 1) and the
    phase mismatch vanishes; the value is computed regardless.
    """
    beta, valid = _weak_coupling(c)
    g2_gain = -c.alpha2
    ratio = c.gamma_sq / (4.0 * beta * beta)
    amp = cmath.exp(-0.5 * c.alpha4 * L) + ratio * (
        cmath.exp(0.5 * g2_gain * L) - cmath.exp(-0.5 * c.alpha4 * L)
    )
    return abs(amp) ** 2, valid


def eta4_conversion(c: OpaCoefficients, L: float) -> tuple[float, bool]:
    """Conversion efficiency I4/I20 for E40 = 0 in the same weak-coupling limit."""
    beta, valid = _weak_coupling(c)
    g2_gain = -c.alpha2
    bracket = abs(cmath.exp(0.5 * g2_gain * L) - cmath.exp(-0.5 * c.alpha4 * L)) ** 2
    return abs(c.gamma4) ** 2 / abs(2.0 * beta) ** 2 * bracket, valid


def oscillation_threshold(
    c: OpaCoefficients,
    L_max: float = 200.0,
    tol: float = 1e-6,
) -> float | None:
    """Smallest length at which the seeded probe returns to its input intensity.

    With E20 = 0 the transmitted intensity first drops (absorption), then may
    recover through parametric coupling; the threshold is the first L > 0
    with |E4(L)|^2 = |E40|^2.  Returns 0.0 when there is no initial
    absorption (gain from the start) and None when no crossing exists up to
    ``L_max``.  Located by a dense bracket scan plus bisection.
    """
    boundary = BoundaryAmplitudes(e40=1.0, e20=0.0)

    def excess(L: float) -> float:
        e4, _ = opa_solution(c, boundary, L)
        return abs(e4) ** 2 - 1.0

    if excess(tol) >= 0.0:
        return 0.0
    n_scan = 4000
    grid = np.linspace(0.0, L_max, n_scan + 1)[1:]
    e4, _ = opa_solution(c, boundary, grid)
    values = np.abs(e4) ** 2 - 1.0
    crossing = np.nonzero(values >= 0.0)[0]
    if crossing.size == 0:
        return None
    hi_idx = crossing[0]
    lo = grid[hi_idx - 1] if hi_idx > 0 else tol
    hi = grid[hi_idx]
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if excess(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
