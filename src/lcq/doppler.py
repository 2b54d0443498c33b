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
cross-checks.  The default rule joins uniform trapezoid segments with kinks
at the core edges, so it converges only algebraically (about as n^-3.4 for
the preset); the convergence gate measures the change under node doubling.
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
    across runs and thread counts.  It is the sum :func:`_velocity_sum`
    gives for an array that fits in one chunk; the kernel itself keeps each
    chunk's sum as a pair.  The name is that of the compensated loop it
    replaced; the benchmark's tracer wraps this function by name.
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


def _velocity_sum(v: np.ndarray, w: np.ndarray, drive_shape: tuple, chunk) -> np.ndarray:
    """Maxwell average over velocity of ``chunk(rows)``, at every drive point.

    ``chunk`` returns its velocity classes ``rows`` along the leading axis.
    The classes go in chunks of ``liouville._CHUNK`` systems over all drive
    points, so a single drive point takes one chunk and an 80 x 32 grid six
    classes at a time.  Chunk sums are carried as (exact part, remainder)
    pairs and added in order.  A failed solve raises :class:`AveragingError`
    naming its velocity node and, on a grid, its drive point.
    """
    points = math.prod(drive_shape)
    step = max(1, liouville._CHUNK // points)
    total = None
    for start in range(0, v.size, step):
        rows = slice(start, start + step)
        try:
            x = chunk(rows)
        except liouville.SingularSystemError as exc:
            where = "batch"
            if exc.index is not None:
                node, point = divmod(exc.index, points)
                node += start
                where = f"velocity node {node} (v = {v[node]:.3f} m/s)"
                if drive_shape:
                    point = tuple(map(int, np.unravel_index(point, drive_shape)))
                    where += f", drive point {point}"
            raise AveragingError(f"velocity averaging failed at {where}: {exc}") from exc
        parts = _sum_parts(x, w[rows])
        total = parts if total is None else _sum_parts(np.array([*total, *parts]))
    return np.add(*total)


class _DriveState(NamedTuple):
    """What the averages need over a drive shape that does not depend on omega4.

    The velocity-indexed arrays carry one trailing unit axis per drive axis,
    so they broadcast against G1 and G3.
    """

    v: np.ndarray
    w: np.ndarray
    om1p: np.ndarray
    shift2: np.ndarray
    shift4: np.ndarray
    src: np.ndarray  # (6, nv, *drive_shape) probe source elements, ordered as compact_sources
    ratios: np.ndarray  # (2, *drive_shape) averaged drive ratios of waves 1 and 3
    G1: complex | np.ndarray
    G3: complex | np.ndarray


def _solve_drive_sector(scheme, relax, medium, omega1, omega3, G1, G3, quad) -> _DriveState:
    """Solve the drive sector of every velocity class at the drive amplitudes.

    G1 and G3 broadcast to the drive shape: scalars for one drive point, or
    ``g1_grid[:, None]`` and ``g3_grid[None, :]`` for a grid.  The arrays are
    read-only, because :func:`_drive_state` hands the same ones to every caller.
    """
    v, w = quad.nodes()
    drive_shape = np.broadcast_shapes(np.shape(G1), np.shape(G3))
    sh = [x.reshape(-1, *(1,) * len(drive_shape)) for x in liouville.doppler_shifts(scheme, v)]
    om1p, om3p = omega1 - sh[0], omega3 - sh[2]
    src = np.empty((6, v.size, *drive_shape), dtype=complex)

    def chunk(rows):
        rho0 = liouville.drive_steady_state_batch(
            relax, medium.p_n, om1p[rows], om3p[rows], G1, G3)
        src[:, rows] = liouville.compact_sources(rho0)
        return np.stack(_drive_ratios(rho0, om1p[rows], om3p[rows], relax), axis=1)

    state = _DriveState(v, w, om1p, sh[1], sh[3], src,
                        _velocity_sum(v, w, drive_shape, chunk), G1, G3)
    for a in state[:7]:
        a.flags.writeable = False
    return state


# Single drive points only, each shared by every point of a probe-detuning
# sweep; a grid's state (371 MB at 80 x 32) never enters the cache.
_drive_state = lru_cache(maxsize=16)(_solve_drive_sector)


def _probe_means(state: _DriveState, omega2, omega4, relax) -> np.ndarray:
    """Velocity averages (a4, b4, a2, b2) of the probe responses at every drive point."""
    om2p, om4p = omega2 - state.shift2, omega4 - state.shift4

    def chunk(rows):
        return np.stack(liouville.probe_response_compact(
            tuple(state.src[:, rows]), state.om1p[rows], om2p[rows], om4p[rows],
            state.G1, state.G3, relax,
        ), axis=1)

    return _velocity_sum(state.v, state.w, state.src.shape[2:], chunk)


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
    mean_a4 = _probe_means(state, 0.0, 0.0, relax)[0]
    k4 = 1.0  # relative wavenumber of wave 4
    d4 = scheme.dipoles[3]
    raw_alpha4 = 2.0 * float(np.imag(k4 * d4 * d4 * mean_a4))
    if raw_alpha4 <= 0:
        raise AveragingError("weak-field resonant absorption is not positive")
    return medium.alpha40 / raw_alpha4


def _coefficient_table(scheme, relax, medium, quad, state: _DriveState,
                       omega2, omega4) -> np.ndarray:
    """Averaged coefficients at every drive point of ``state``, as (*drive_shape, 12) table rows.

    Raises :class:`AveragingError` if a solve fails or a coefficient is not finite.
    """
    means = np.concatenate([_probe_means(state, omega2, omega4, relax), state.ratios])
    table = _assemble(scheme, relax, medium, quad, means)
    bad = np.argwhere(~np.isfinite(table))
    if bad.size:
        where = f" at drive point {tuple(bad[0, :-1].tolist())}" if table.ndim > 1 else ""
        raise AveragingError(f"non-finite averaged coefficient{where}")
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
    state = _drive_state(scheme, relax, medium, fields.omega1, fields.omega3,
                         complex(G1), complex(G3), quad)
    return MacroscopicCoefficients.from_vector(
        _coefficient_table(scheme, relax, medium, quad, state, fields.omega2, fields.omega4))


def _assemble(
    scheme: LevelScheme,
    relax: RelaxationSet,
    medium: MediumParams,
    quad: QuadratureSpec,
    means: np.ndarray,
) -> np.ndarray:
    """Table rows from the stacked averages (a4, b4, a2, b2, gl_ratio, mn_ratio)."""
    scale = _norm_constant(scheme, relax, medium, quad)
    l1, l2, l3, l4 = scheme.wavelengths
    k1, k2, k3 = l4 / l1, l4 / l2, l4 / l3  # relative wavenumbers, k4 = 1
    d1, d2, d3, d4 = scheme.dipoles
    a4, b4, a2, b2, gl_ratio, mn_ratio = means
    return np.stack([
        scale * k1 * d1 * d1 * gl_ratio,  # sigma1
        scale * k2 * d2 * d2 * a2,        # sigma2
        scale * k3 * d3 * d3 * mn_ratio,  # sigma3
        scale * 1.0 * d4 * d4 * a4,       # sigma4
        scale * 1.0 * d4 * d2 * b4,       # gamma4
        scale * k2 * d2 * d4 * b2,        # gamma2
    ], axis=-1).view(np.float64)


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


class DriveGrid:
    """Drive-sector state over velocity and a real (|G1|, |G3|) grid.

    Built once and shared by every probe-detuning column of a scan, and kept
    out of the drive-state cache: the probe sources of the default 80 x 32
    grid take 371 MB.
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
        self.state = _solve_drive_sector(scheme, relax, medium, fields.omega1, fields.omega3,
                                         self.g1_grid[:, None], self.g3_grid[None, :], quad)

    @property
    def src(self) -> np.ndarray:
        """Probe source elements, (6, nv, n1, n3)."""
        return self.state.src

    def coefficients_for(self, fields: FieldConfig) -> np.ndarray:
        """Coefficient table (n1, n3, 12) on the drive grid for one probe detuning.

        Rows are read by :meth:`MacroscopicCoefficients.from_vector`.
        ``fields`` must share the drive detunings of the grid; only the probe
        detuning omega4 (and the slaved omega2) may differ.
        """
        if (fields.omega1, fields.omega3) != (self.fields.omega1, self.fields.omega3):
            raise ValueError("drive detunings differ from the tabulated grid")
        return _coefficient_table(self.scheme, self.relax, self.medium, self.quad,
                                  self.state, fields.omega2, fields.omega4)


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
