"""Maxwell-velocity averaging of the microscopic response into macroscopic
propagation coefficients, plus an independent Voigt-profile oracle.

The macroscopic absorption/dispersion and cross-coupling coefficients are
weighted integrals of the per-velocity-class responses over the Maxwell
distribution W(v) = exp(-v^2/u^2)/(u sqrt(pi)).  A single real scale factor,
fixed by requiring alpha4 = 1 at zero drives and zero probe detuning, maps
the microscopic responses to coefficients in alpha40 units.

The integrands contain resonances that are far narrower than the thermal
width (homogeneous widths are a percent of the Doppler width), so the
default quadrature is a velocity grid with a finely sampled core and coarser
wings; uniform trapezoid and Gauss-Hermite rules are available for
cross-checks.  For resolved features the trapezoid weights converge
exponentially, which the convergence gate verifies by node doubling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.polynomial.hermite import hermgauss
from scipy.integrate import quad as _adaptive_quad

from . import liouville
from .scheme import RAD_PER_MHZ, FieldConfig, LevelScheme, MediumParams, RelaxationSet

QUAD_RULES = ("core-refined", "trapezoid", "gauss-hermite")

# Velocity chunk for streaming grid evaluations (bounds peak memory).
_VCHUNK = 48


@dataclass(frozen=True)
class QuadratureSpec:
    """Velocity quadrature: rule, node counts and thermal speed.

    ``u`` is the most probable speed sqrt(2 kB T / M) in m/s.  ``u = 0``
    collapses the average to the single v = 0 class.  For the core-refined
    rule, ``n`` nodes cover the central +-core*u where all drive, probe and
    two-photon resonances of the supported scans live, and ``wing_n`` nodes
    per side cover the smooth Maxwell wings out to +-span*u.
    """

    u: float
    rule: str = "core-refined"
    n: int = 1311
    span: float = 4.5
    core: float = 1.6
    wing_n: int = 100

    def __post_init__(self) -> None:
        if self.rule not in QUAD_RULES:
            raise ValueError(f"unknown quadrature rule {self.rule!r}")
        if self.u < 0:
            raise ValueError("thermal speed must be >= 0")
        if self.u > 0 and self.n < 8:
            raise ValueError("need at least 8 quadrature nodes")
        if self.rule == "core-refined" and not (0 < self.core < self.span):
            raise ValueError("core half-width must lie inside the span")

    @classmethod
    def for_medium(cls, scheme: LevelScheme, medium: MediumParams, **kwargs) -> "QuadratureSpec":
        return cls(u=medium.thermal_speed(scheme), **kwargs)

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Velocity nodes (m/s) and Maxwell-weighted quadrature weights."""
        if self.u == 0.0:
            return np.array([0.0]), np.array([1.0])
        if self.rule == "gauss-hermite":
            x, w = hermgauss(self.n)
            return x * self.u, w / math.sqrt(math.pi)
        if self.rule == "trapezoid":
            v = np.linspace(-self.span * self.u, self.span * self.u, self.n)
            return v, self._trapezoid_weights(v)
        vc = np.linspace(-self.core * self.u, self.core * self.u, self.n)
        vl = np.linspace(-self.span * self.u, -self.core * self.u, self.wing_n + 1)
        vr = np.linspace(self.core * self.u, self.span * self.u, self.wing_n + 1)
        v = np.concatenate([vl[:-1], vc, vr[1:]])
        w = np.zeros_like(v)
        nl = self.wing_n
        for seg in (slice(0, nl + 1), slice(nl, nl + self.n), slice(nl + self.n - 1, None)):
            w[seg] += self._trapezoid_weights(v[seg])
        return v, w

    def _trapezoid_weights(self, v: np.ndarray) -> np.ndarray:
        h = np.diff(v)
        w = np.zeros_like(v)
        w[:-1] += 0.5 * h
        w[1:] += 0.5 * h
        return w * np.exp(-((v / self.u) ** 2)) / (self.u * math.sqrt(math.pi))

    def refined(self) -> "QuadratureSpec":
        """Nested refinement: roughly double the node density everywhere."""
        if self.rule == "gauss-hermite":
            return replace(self, n=2 * self.n)
        return replace(self, n=2 * self.n - 1, wing_n=2 * self.wing_n)


def kahan_sum(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted sum over the leading axis, accurate to about one rounding.

    Vectorized, with an order fixed by the array shapes, so results repeat
    across runs and thread counts.  The name is that of the compensated loop
    it replaced; the benchmark's tracer wraps this function by name.
    """
    return np.add(*_sum_parts(values, weights))


def _sum_parts(x: np.ndarray, weights: np.ndarray | None = None) -> tuple:
    """Weighted sum over the leading axis as a pair adding up to it within (n eps)^2 max|x|.

    Error-free extraction (Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31,
    2008): adding and subtracting sigma = 2^k >= (n + 2) max|x| splits each
    term (the rounded product of weight and value) into a part on a common
    grid, whose sum is exact in any order and comes first, and a remainder
    below eps * sigma, summed pairwise.  Averages of symmetric integrands
    that cancel keep no summation noise.  Real and imaginary parts are summed
    apart; one sigma serves every sum, so a sum whose terms all lie below
    about n eps max|x| gets plain pairwise accuracy.
    """
    n = x.shape[0]
    flat = np.ascontiguousarray(x).reshape(n, -1)
    if np.iscomplexobj(flat):
        flat = flat.view(np.float64)
    axis = 0
    if flat.shape[1] < n:  # numpy reduces narrow arrays far faster along rows
        flat, axis = flat.T, 1
    w = 1.0 if weights is None else weights if axis else weights[:, None]
    terms = np.multiply(flat, w, order="C")
    peak = max(float(np.max(terms)), -float(np.min(terms)))
    sigma = math.ldexp(1.0, math.frexp(peak)[1] + math.frexp(n + 2.0)[1])
    high = terms + sigma
    high -= sigma
    terms -= high  # the remainders, exact
    return tuple(np.sum(part, axis=axis).view(x.dtype).reshape(x.shape[1:])
                 for part in (high, terms))


def _add_chunk(total: tuple, x: np.ndarray, weights: np.ndarray) -> tuple:
    """A running total, as such a pair, plus the weighted sum of ``x`` over its leading axis."""
    return _sum_parts(np.array([*total, *_sum_parts(x, weights)]))


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


class AveragingError(RuntimeError):
    """A per-velocity solve failed during averaging; names the failing node."""


def _averaging_failure(v: np.ndarray, exc: liouville.SingularSystemError) -> AveragingError:
    i = exc.index
    where = "batch" if i is None else f"velocity node {i} (v = {v[i]:.3f} m/s)"
    return AveragingError(f"velocity averaging failed at {where}: {exc}")


def _shifts(scheme: LevelScheme, v: np.ndarray) -> list[np.ndarray]:
    """Doppler shifts v/lambda_j in MHz for each wave."""
    return [v / w * 1e-6 for w in scheme.wavelengths]


def _drive_ratios(
    rho0: np.ndarray,
    om1p, om3p,
    G1, G3,
    relax: RelaxationSet,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-velocity drive coherences per unit Rabi amplitude.

    At zero amplitude the ratio continues smoothly into the linear-response
    Lorentzian around the state driven by the other field, which keeps the
    effective drive susceptibility continuous down to G = 0.
    """
    G1b = np.broadcast_to(np.asarray(G1, dtype=complex), rho0.shape[:-2])
    G3b = np.broadcast_to(np.asarray(G3, dtype=complex), rho0.shape[:-2])
    d1pop = rho0[..., 0, 0] - rho0[..., 2, 2]
    d3pop = rho0[..., 1, 1] - rho0[..., 3, 3]
    lin1 = 1j * RAD_PER_MHZ * d1pop / (relax.coh_gl - 1j * RAD_PER_MHZ * np.asarray(om1p))
    lin3 = 1j * RAD_PER_MHZ * d3pop / (relax.coh_mn - 1j * RAD_PER_MHZ * np.asarray(om3p))
    with np.errstate(invalid="ignore", divide="ignore"):
        r1 = np.where(G1b != 0, rho0[..., 2, 0] / np.where(G1b != 0, G1b, 1.0), lin1)
        r3 = np.where(G3b != 0, rho0[..., 3, 1] / np.where(G3b != 0, G3b, 1.0), lin3)
    return r1, r3


class _DriveState(NamedTuple):
    """What the averages need at one drive point that does not depend on omega4."""

    v: np.ndarray
    w: np.ndarray
    om1p: np.ndarray
    shift2: np.ndarray
    shift4: np.ndarray
    src: np.ndarray  # (6, nv) probe source elements, ordered as compact_sources
    gl_ratio: complex
    mn_ratio: complex


@lru_cache(maxsize=16)
def _drive_state(scheme, relax, medium, omega1, omega3, G1, G3, quad) -> _DriveState:
    """Solve the 8x8 drive sector once per velocity class for one drive point.

    Every point of a probe-detuning sweep reuses it; the arrays are read-only
    because the cache hands the same ones to every caller.
    """
    v, w = quad.nodes()
    sh = _shifts(scheme, v)
    om1p = omega1 - sh[0]
    om3p = omega3 - sh[2]
    try:
        rho0 = liouville.drive_steady_state_batch(relax, medium.p_n, om1p, om3p, G1, G3)
    except liouville.SingularSystemError as exc:
        raise _averaging_failure(v, exc) from exc
    r1, r3 = _drive_ratios(rho0, om1p, om3p, G1, G3, relax)
    src = np.stack(liouville.compact_sources(rho0))
    arrays = (v, w, om1p, sh[1], sh[3], src)
    for a in arrays:
        a.flags.writeable = False
    return _DriveState(*arrays, kahan_sum(r1, w), kahan_sum(r3, w))


def _means(state: _DriveState, omega2, omega4, G1, G3, relax) -> dict:
    """Velocity averages of the probe responses at one probe detuning, and the drive ratios."""
    try:
        responses = liouville.probe_response_compact(
            tuple(state.src), state.om1p, omega2 - state.shift2, omega4 - state.shift4,
            G1, G3, relax,
        )
    except liouville.SingularSystemError as exc:
        raise _averaging_failure(state.v, exc) from exc
    means = kahan_sum(np.stack(responses, axis=-1), state.w)
    return {**dict(zip(("a4", "b4", "a2", "b2"), means)),
            "gl_ratio": state.gl_ratio, "mn_ratio": state.mn_ratio}


@lru_cache(maxsize=64)
def _norm_constant(
    scheme: LevelScheme,
    relax: RelaxationSet,
    medium: MediumParams,
    quad: QuadratureSpec,
) -> float:
    """Scale factor mapping microscopic responses to alpha40 units.

    Defined so that the averaged weak-field absorption of wave 4 at zero
    detuning is exactly alpha40, using the same drive state and probe-mean
    code as production averages.
    """
    state = _drive_state(scheme, relax, medium, 0.0, 0.0, 0j, 0j, quad)
    mean_a4 = _means(state, 0.0, 0.0, 0j, 0j, relax)["a4"]
    k4 = 1.0  # relative wavenumber of wave 4
    d4 = scheme.dipoles[3]
    raw_alpha4 = 2.0 * float(np.imag(k4 * d4 * d4 * mean_a4))
    if raw_alpha4 <= 0:
        raise AveragingError("weak-field resonant absorption is not positive")
    return medium.alpha40 / raw_alpha4


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
    G1, G3 = complex(G1), complex(G3)
    state = _drive_state(scheme, relax, medium, fields.omega1, fields.omega3, G1, G3, quad)
    mc = _assemble(scheme, relax, medium, quad,
                   _means(state, fields.omega2, fields.omega4, G1, G3, relax))
    if not np.all(np.isfinite(list(vars(mc).values()))):
        raise AveragingError(f"non-finite averaged coefficient: {mc}")
    return mc


def _assemble(
    scheme: LevelScheme,
    relax: RelaxationSet,
    medium: MediumParams,
    quad: QuadratureSpec,
    mean: dict,
) -> MacroscopicCoefficients:
    scale = _norm_constant(scheme, relax, medium, quad)
    l1, l2, l3, l4 = scheme.wavelengths
    k1, k2, k3 = l4 / l1, l4 / l2, l4 / l3  # relative wavenumbers, k4 = 1
    d1, d2, d3, d4 = scheme.dipoles

    sigma4 = scale * 1.0 * d4 * d4 * mean["a4"]
    sigma2 = scale * k2 * d2 * d2 * mean["a2"]
    gamma4 = scale * 1.0 * d4 * d2 * mean["b4"]
    gamma2 = scale * k2 * d2 * d4 * mean["b2"]
    sigma1 = scale * k1 * d1 * d1 * mean["gl_ratio"]
    sigma3 = scale * k3 * d3 * d3 * mean["mn_ratio"]

    return MacroscopicCoefficients(
        alpha1=2.0 * float(np.imag(sigma1)),
        alpha2=2.0 * float(np.imag(sigma2)),
        alpha3=2.0 * float(np.imag(sigma3)),
        alpha4=2.0 * float(np.imag(sigma4)),
        deltak1=float(np.real(sigma1)),
        deltak2=float(np.real(sigma2)),
        deltak3=float(np.real(sigma3)),
        deltak4=float(np.real(sigma4)),
        gamma4=complex(gamma4),
        gamma2=complex(gamma2),
    )


def quadrature_gate(
    scheme: LevelScheme,
    relax: RelaxationSet,
    medium: MediumParams,
    fields: FieldConfig,
    G1: complex,
    G3: complex,
    quad: QuadratureSpec,
    rtol: float = 1e-6,
) -> tuple[bool, float]:
    """Convergence gate: relative change of alpha4 under node doubling."""
    coarse = average_coefficients(scheme, relax, medium, fields, G1, G3, quad)
    fine = average_coefficients(scheme, relax, medium, fields, G1, G3, quad.refined())
    rel = abs(coarse.alpha4 - fine.alpha4) / max(abs(fine.alpha4), 1e-300)
    return rel < rtol, rel


# ---------------------------------------------------------------------------
# Grid evaluation used by the propagation coefficient cache.  The zeroth-order
# sources over a (|G1|, |G3|) grid are independent of the probe detuning and
# can be shared by many probe-frequency columns.
# ---------------------------------------------------------------------------

class DriveGrid:
    """Zeroth-order solution tabulated over velocity and a real drive grid.

    Holds the probe source elements for all (v, |G1|, |G3|) combinations and
    the velocity-averaged drive coherences.  Intended to be built once and
    reused by every probe-detuning column of a scan.
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
        self.g1_grid = np.asarray(g1_grid, dtype=float)
        self.g3_grid = np.asarray(g3_grid, dtype=float)
        self.quad = quad
        self.v, self.w = quad.nodes()
        sh = _shifts(scheme, self.v)
        self.om1p = fields.omega1 - sh[0]
        self.om3p = fields.omega3 - sh[2]
        self.shift2 = sh[1]
        self.shift4 = sh[3]

        nv = self.v.size
        ng1 = self.g1_grid.size
        ng3 = self.g3_grid.size
        self.src = np.empty((nv, ng1, ng3, 6), dtype=complex)
        gl = mn = (np.zeros((ng1, ng3), dtype=complex),) * 2  # (exact part, remainder)
        g1b = self.g1_grid[None, :, None]
        g3b = self.g3_grid[None, None, :]
        for start in range(0, nv, _VCHUNK):
            stop = min(start + _VCHUNK, nv)
            rho0 = liouville.drive_steady_state_batch(
                relax, medium.p_n,
                self.om1p[start:stop, None, None], self.om3p[start:stop, None, None],
                g1b, g3b,
            )
            self.src[start:stop] = np.stack(liouville.compact_sources(rho0), axis=-1)
            r1, r3 = _drive_ratios(
                rho0,
                self.om1p[start:stop, None, None], self.om3p[start:stop, None, None],
                g1b, g3b, relax,
            )
            gl = _add_chunk(gl, r1, self.w[start:stop])
            mn = _add_chunk(mn, r3, self.w[start:stop])
        self.mean_gl_ratio, self.mean_mn_ratio = np.add(*gl), np.add(*mn)

    def coefficients_for(self, fields: FieldConfig) -> list[list[MacroscopicCoefficients]]:
        """Macroscopic coefficients on the drive grid for one probe detuning.

        ``fields`` must share the drive detunings of the grid; only the probe
        detuning omega4 (and the slaved omega2) may differ.
        """
        if (fields.omega1, fields.omega3) != (self.fields.omega1, self.fields.omega3):
            raise ValueError("drive detunings differ from the tabulated grid")
        om2p = fields.omega2 - self.shift2
        om4p = fields.omega4 - self.shift4
        nv = self.v.size
        ng1, ng3 = self.mean_gl_ratio.shape
        sums = [(np.zeros((ng1, ng3), dtype=complex),) * 2] * 4  # a4, b4, a2, b2 as pairs
        g1b = self.g1_grid[None, :, None]
        g3b = self.g3_grid[None, None, :]
        for start in range(0, nv, _VCHUNK):
            stop = min(start + _VCHUNK, nv)
            responses = liouville.probe_response_compact(
                tuple(np.moveaxis(self.src[start:stop], -1, 0)),
                self.om1p[start:stop, None, None],
                om2p[start:stop, None, None],
                om4p[start:stop, None, None],
                g1b, g3b, self.relax,
            )
            sums = [_add_chunk(total, x, self.w[start:stop]) for total, x in zip(sums, responses)]
        totals = np.array([np.add(*total) for total in sums])
        return [
            [_assemble(self.scheme, self.relax, self.medium, self.quad, {
                **dict(zip(("a4", "b4", "a2", "b2"), totals[:, i, j])),
                "gl_ratio": self.mean_gl_ratio[i, j],
                "mn_ratio": self.mean_mn_ratio[i, j],
            }) for j in range(ng3)]
            for i in range(ng1)
        ]


# ---------------------------------------------------------------------------
# Independent Voigt oracle (direct adaptive quadrature; does not reuse the
# velocity-grid machinery above).
# ---------------------------------------------------------------------------

def voigt_reference(omega: float, gamma_coh: float, doppler_width: float) -> complex:
    """Complex Voigt profile by adaptive convolution quadrature.

    Returns the Gaussian-weighted average of the complex Lorentzian
    gamma/(gamma - i(omega - x)) with Gaussian 1/e half-width
    ``doppler_width``; the real part is the absorption profile.  Arguments
    share any common frequency unit.
    """
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
    re, re_err = _adaptive_quad(
        integrand_re, -span, span, points=points, limit=400, epsabs=1e-13, epsrel=1e-11
    )
    im, im_err = _adaptive_quad(
        integrand_im, -span, span, points=points, limit=400, epsabs=1e-13, epsrel=1e-11
    )
    if re_err > 1e-8 * max(abs(re), 1e-3) or im_err > 1e-8 * max(abs(im), abs(re), 1e-3):
        raise RuntimeError("adaptive Voigt quadrature did not converge")
    return complex(re, im)
