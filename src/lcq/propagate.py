"""Propagation of all four waves through the medium with local saturation.

The right-hand sides follow the coupled-wave equations: each wave evolves
under its own intensity-dependent sigma coefficient, the probe pair is
cross-coupled through gamma4/gamma2 (which include the drive product), and
the drives carry the quadratic probe back-action term.  Coefficients are
re-evaluated from the local drive amplitudes at every integration stage,
either directly (velocity average per stage) or through a bicubic
interpolation cache over (|G1|, |G3|) built once per probe detuning.

Because the microscopic response at complex drive amplitudes equals the
response at real amplitudes times the drive-product phase (a gauge
transformation of the level phases), the cache stores coefficients at real
non-negative drive amplitudes and the integrator re-applies the running
phase of G1 G3 to the cross couplings.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from . import doppler
from .doppler import DriveGrid, MacroscopicCoefficients, QuadratureSpec
from .scheme import FieldConfig, LevelScheme, MediumParams, RelaxationSet


class PropagationError(RuntimeError):
    """Field amplitudes became non-finite during integration."""

    def __init__(self, z: float):
        super().__init__(f"non-finite field amplitude at z = {z:.6g} L4")
        self.z = z


@dataclass(frozen=True)
class FieldStateZ:
    """Complex amplitudes of the four waves at one position."""

    z: float
    g1: complex
    g3: complex
    e4: complex
    e2: complex


@dataclass
class PropagationTrace:
    """Sampled field evolution along the medium.

    ``coefficients`` holds the macroscopic coefficients that were in effect
    at each sample (cross couplings carry the local drive phases).
    ``error_estimate`` is the maximum relative deviation of |E4| between the
    nominal and a doubled step count, when requested.
    """

    z: np.ndarray
    g1: np.ndarray
    g3: np.ndarray
    e4: np.ndarray
    e2: np.ndarray
    coefficients: list[MacroscopicCoefficients]
    error_estimate: float | None = None
    cache_fallbacks: int = 0

    def state(self, i: int) -> FieldStateZ:
        return FieldStateZ(
            z=float(self.z[i]), g1=complex(self.g1[i]), g3=complex(self.g3[i]),
            e4=complex(self.e4[i]), e2=complex(self.e2[i]),
        )

    def index_of(self, z: float) -> int:
        i = int(np.argmin(np.abs(self.z - z)))
        if not math.isclose(float(self.z[i]), z, rel_tol=1e-9, abs_tol=1e-12):
            raise KeyError(f"z = {z} is not a trace sample")
        return i


# Power-law exponents of the cache grid spacing along |G1| and |G3|.
_GRID_POWER1 = 1.4
_GRID_POWER3 = 1.3


def cache_grids(
    fields: FieldConfig, n1: int, n3: int, margin: float = 1.05
) -> tuple[np.ndarray, np.ndarray]:
    """Power-spaced drive-amplitude grids covering the propagation range."""
    g1 = margin * abs(fields.g10) * np.linspace(0.0, 1.0, n1) ** _GRID_POWER1
    g3 = margin * abs(fields.g30) * np.linspace(0.0, 1.0, n3) ** _GRID_POWER3
    return g1, g3


class CacheValidationError(RuntimeError):
    """Cache interpolation disagrees with direct evaluation beyond tolerance."""


class CoefficientCache:
    """Bicubic interpolation table of macroscopic coefficients over drive amplitudes.

    The table is a tensor-product cubic spline over a rectangular
    (|G1|, |G3|) grid at fixed detunings; evaluation contracts precomputed
    piecewise-polynomial coefficients for all stored fields at once, which
    keeps a lookup far cheaper than a velocity average.  Queries outside the
    grid fall back to direct evaluation and are counted as warnings.
    """

    def __init__(
        self,
        scheme: LevelScheme,
        relax: RelaxationSet,
        medium: MediumParams,
        fields: FieldConfig,
        quad: QuadratureSpec,
        g1_grid: np.ndarray,
        g3_grid: np.ndarray,
        table: np.ndarray,
    ):
        self.scheme = scheme
        self.relax = relax
        self.medium = medium
        self.fields = fields
        self.quad = quad
        self.g1_grid = g1_grid
        self.g3_grid = g3_grid
        self.table = table
        self.fallbacks = 0
        # two-pass cubic-spline fit: polynomial coefficients per grid cell,
        # laid out as (n1-1, n3-1, field, x power, y power)
        s1 = CubicSpline(g1_grid, table, axis=0)
        c1 = np.moveaxis(s1.c, 0, -1)          # (n1-1, n3, 12, 4)
        s2 = CubicSpline(g3_grid, c1, axis=1)  # .c: (4, n3-1, n1-1, 12, 4)
        self._poly = np.ascontiguousarray(
            np.moveaxis(s2.c, 0, -1).transpose(1, 0, 2, 3, 4)
        )

    @classmethod
    def build(
        cls,
        scheme: LevelScheme,
        relax: RelaxationSet,
        medium: MediumParams,
        fields: FieldConfig,
        quad: QuadratureSpec,
        n1: int = 80,
        n3: int = 32,
        margin: float = 1.05,
        validate_probes: int = 50,
        rtol: float = 1e-4,
        drive_grid: DriveGrid | None = None,
    ) -> "CoefficientCache":
        """Tabulate coefficients over [0, margin*|G10|] x [0, margin*|G30|].

        The grids are power-spaced (denser toward zero amplitude, where the
        coefficients curve most as the drives die out); uniform spacing at
        the same node count fails the trace-level accuracy target by two
        orders of magnitude.  A prebuilt :class:`DriveGrid` sharing the
        drive detunings can be supplied to reuse the zeroth-order solution
        across many probe detunings.  ``validate_probes`` random in-bounds
        queries are compared against direct evaluation after the build.
        """
        g1_grid, g3_grid = cache_grids(fields, n1, n3, margin)
        if drive_grid is None:
            drive_grid = DriveGrid(scheme, relax, medium, fields, g1_grid, g3_grid, quad)
        else:
            if (drive_grid.g1_grid.shape != g1_grid.shape
                    or not np.array_equal(drive_grid.g1_grid, g1_grid)
                    or not np.array_equal(drive_grid.g3_grid, g3_grid)):
                raise ValueError("drive grid does not match the requested cache grid")
        table = drive_grid.coefficients_for(fields)
        cache = cls(scheme, relax, medium, fields, quad, g1_grid, g3_grid, table)
        if validate_probes > 0:
            cache._validate(validate_probes, rtol)
        return cache

    def _validate(self, n_probes: int, rtol: float) -> None:
        # relative to each coefficient's scale over the table; a pointwise
        # quotient is ill-conditioned near the interior zeros of the cross
        # couplings
        rng = np.random.default_rng(20230817)
        scale = np.max(np.abs(self.table), axis=(0, 1))
        scale = np.maximum(scale, 1e-12)
        worst = 0.0
        for _ in range(n_probes):
            g1 = rng.uniform(0.0, self.g1_grid[-1])
            g3 = rng.uniform(0.0, self.g3_grid[-1])
            direct = doppler.average_coefficients(
                self.scheme, self.relax, self.medium, self.fields, g1, g3, self.quad
            ).to_vector()
            interp = self._raw_lookup(g1, g3)
            err = np.max(np.abs(interp - direct) / scale)
            worst = max(worst, float(err))
        if worst > rtol:
            raise CacheValidationError(
                f"cache interpolation error {worst:.3e} exceeds {rtol:.1e}"
            )

    def _raw_lookup(self, g1_abs: float, g3_abs: float) -> np.ndarray:
        i = min(max(int(np.searchsorted(self.g1_grid, g1_abs) - 1), 0),
                self.g1_grid.size - 2)
        j = min(max(int(np.searchsorted(self.g3_grid, g3_abs) - 1), 0),
                self.g3_grid.size - 2)
        dx = g1_abs - self.g1_grid[i]
        dy = g3_abs - self.g3_grid[j]
        poly = self._poly[i, j]  # (12, 4, 4)
        acc = poly[:, 0]
        for a in range(1, 4):
            acc = acc * dx + poly[:, a]
        out = acc[:, 0]
        for b in range(1, 4):
            out = out * dy + acc[:, b]
        return out

    def lookup(self, g1_abs: float, g3_abs: float) -> MacroscopicCoefficients:
        """Coefficients at real drive amplitudes; out-of-bounds goes direct."""
        if (0.0 <= g1_abs <= self.g1_grid[-1]) and (0.0 <= g3_abs <= self.g3_grid[-1]):
            return MacroscopicCoefficients.from_vector(self._raw_lookup(g1_abs, g3_abs))
        self.fallbacks += 1
        return doppler.average_coefficients(
            self.scheme, self.relax, self.medium, self.fields, g1_abs, g3_abs, self.quad
        )


def rhs(state: FieldStateZ, coeffs: MacroscopicCoefficients, scheme: LevelScheme):
    """Right-hand sides (dG1, dG3, dE4, dE2)/dz of the four coupled equations.

    ``coeffs`` must be evaluated at the state's drive amplitudes with the
    drive phases included in the cross couplings.  The drive equations carry
    the quadratic probe back-action with the mixing response renormalized by
    the respective wavenumber and dipole factors (the reverse conversion
    cycle of the corresponding probe pathway).
    """
    l1, l2, l3, l4 = scheme.wavelengths
    d1, d2, d3, d4 = scheme.dipoles
    s1, s2, s3, s4 = (coeffs.sigma(j) for j in (1, 2, 3, 4))
    dg1 = 1j * s1 * state.g1
    dg3 = 1j * s3 * state.g3
    if state.g1 != 0 and state.g3 != 0:
        probe_prod = state.e4 * state.e2
        r1 = (l4 / l1) * d1 * d1 / (1.0 * d4 * d2)
        r3 = (l4 / l3) * d3 * d3 / ((l4 / l2) * d2 * d4)
        dg1 = dg1 + 1j * r1 * np.conj(coeffs.gamma4) * probe_prod / np.conj(state.g1)
        dg3 = dg3 + 1j * r3 * np.conj(coeffs.gamma2) * probe_prod / np.conj(state.g3)
    de4 = 1j * s4 * state.e4 + 1j * coeffs.gamma4 * np.conj(state.e2)
    de2 = 1j * s2 * state.e2 + 1j * coeffs.gamma2 * np.conj(state.e4)
    return dg1, dg3, de4, de2


def _drive_phase(g1: complex, g3: complex) -> complex:
    prod = g1 * g3
    mag = abs(prod)
    return prod / mag if mag > 0 else 1.0 + 0.0j


class _CoefficientProvider:
    """Maps local drive amplitudes to phase-adjusted coefficients."""

    def __init__(self, scheme, relax, medium, fields, quad, cache, freeze_at=None):
        self.scheme = scheme
        self.relax = relax
        self.medium = medium
        self.fields = fields
        self.quad = quad
        self.cache = cache
        self.frozen = None
        self._memo: dict[tuple[float, float], MacroscopicCoefficients] = {}
        if freeze_at is not None:
            self.frozen = self._evaluate(abs(freeze_at[0]), abs(freeze_at[1]))

    def _evaluate(self, g1_abs: float, g3_abs: float) -> MacroscopicCoefficients:
        if self.cache is not None:
            return self.cache.lookup(g1_abs, g3_abs)
        # direct mode: repeated queries at identical amplitudes (constant or
        # zero drives) collapse to a single velocity average
        key = (g1_abs, g3_abs)
        hit = self._memo.get(key)
        if hit is None:
            hit = doppler.average_coefficients(
                self.scheme, self.relax, self.medium, self.fields,
                g1_abs, g3_abs, self.quad,
            )
            if len(self._memo) < 65536:
                self._memo[key] = hit
        return hit

    def __call__(self, g1: complex, g3: complex) -> MacroscopicCoefficients:
        base = self.frozen if self.frozen is not None else self._evaluate(abs(g1), abs(g3))
        phase = _drive_phase(g1, g3)
        if phase == 1.0:
            return base
        return MacroscopicCoefficients(
            alpha1=base.alpha1, alpha2=base.alpha2, alpha3=base.alpha3, alpha4=base.alpha4,
            deltak1=base.deltak1, deltak2=base.deltak2,
            deltak3=base.deltak3, deltak4=base.deltak4,
            gamma4=base.gamma4 * phase, gamma2=base.gamma2 * phase,
        )

    @property
    def fallbacks(self) -> int:
        return self.cache.fallbacks if self.cache is not None else 0


def integrate(
    scheme: LevelScheme,
    relax: RelaxationSet,
    medium: MediumParams,
    fields: FieldConfig,
    L: float,
    steps: int = 2000,
    quad: QuadratureSpec | None = None,
    cache: CoefficientCache | None = None,
    freeze_coefficients: bool = False,
    error_estimate: bool = True,
    record_at: np.ndarray | None = None,
    min_samples: int = 257,
) -> PropagationTrace:
    """Fixed-step 4th-order integration of the four coupled waves to z = L.

    Coefficients are re-evaluated at every stage from the local drive
    amplitudes (or pinned to their z = 0 values with
    ``freeze_coefficients``, which reduces the probe pair to the
    constant-coefficient solution).  The trace records at least
    ``min_samples`` evenly spaced positions plus every entry of
    ``record_at``.  With ``error_estimate`` the run is repeated at twice the
    step count and the maximum relative deviation of |E4| is attached.
    """
    if L <= 0:
        raise ValueError("medium length must be positive")
    if steps < 100:
        raise ValueError("need at least 100 integration steps")
    if quad is None:
        quad = QuadratureSpec.for_medium(scheme, medium)

    provider = _CoefficientProvider(
        scheme, relax, medium, fields, quad, cache,
        freeze_at=(fields.g10, fields.g30) if freeze_coefficients else None,
    )
    sample_z = np.linspace(0.0, L, min_samples)
    if record_at is not None:
        record = np.asarray(record_at, dtype=float)
        if np.any(record < 0) or np.any(record > L * (1 + 1e-12)):
            raise ValueError("record positions must lie in [0, L]")
        sample_z = np.union1d(sample_z, record)

    def run(n_steps: int) -> tuple[np.ndarray, ...]:
        h_target = L / n_steps
        y = np.array([fields.g10, fields.g30, fields.e40, fields.e20], dtype=complex)
        out = np.empty((sample_z.size, 4), dtype=complex)
        coeff_log: list[MacroscopicCoefficients] = []
        out[0] = y
        coeff_log.append(provider(y[0], y[1]))
        z = 0.0
        for k in range(1, sample_z.size):
            seg = sample_z[k] - sample_z[k - 1]
            n_sub = max(1, int(round(seg / h_target)))
            h = seg / n_sub
            for _ in range(n_sub):
                y = _rk4_step(y, h, provider, scheme)
                z += h
                if not np.all(np.isfinite(y.view(float))):
                    raise PropagationError(z)
            out[k] = y
            coeff_log.append(provider(y[0], y[1]))
        return out, coeff_log

    solution, coeff_log = run(steps)
    err = None
    if error_estimate:
        fine, _ = run(2 * steps)
        scale = np.max(np.abs(solution[:, 2]))
        if scale > 0:
            err = float(np.max(np.abs(np.abs(solution[:, 2]) - np.abs(fine[:, 2]))) / scale)
        else:
            err = 0.0
    return PropagationTrace(
        z=sample_z,
        g1=solution[:, 0], g3=solution[:, 1],
        e4=solution[:, 2], e2=solution[:, 3],
        coefficients=coeff_log,
        error_estimate=err,
        cache_fallbacks=provider.fallbacks,
    )


def _rk4_step(y: np.ndarray, h: float, provider, scheme) -> np.ndarray:
    def f(state_vec: np.ndarray) -> np.ndarray:
        coeffs = provider(state_vec[0], state_vec[1])
        state = FieldStateZ(0.0, state_vec[0], state_vec[1], state_vec[2], state_vec[3])
        return np.array(rhs(state, coeffs, scheme), dtype=complex)

    k1 = f(y)
    k2 = f(y + 0.5 * h * k1)
    k3 = f(y + 0.5 * h * k2)
    k4 = f(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@dataclass
class GainMapResult:
    """Transmission map I4(L)/I40 over probe detuning and optical length."""

    omega4: np.ndarray
    lengths: np.ndarray
    ratio: np.ndarray          # (n_omega4, n_lengths)
    valid: np.ndarray          # bool mask, False where integration aborted
    cache_fallbacks: int = 0

    @property
    def max_gain(self) -> float:
        masked = np.where(self.valid, self.ratio, -np.inf)
        return float(np.max(masked))

    def argmax(self) -> tuple[float, float]:
        masked = np.where(self.valid, self.ratio, -np.inf)
        i, j = np.unravel_index(int(np.argmax(masked)), masked.shape)
        return float(self.omega4[i]), float(self.lengths[j])


def gain_map(
    scheme: LevelScheme,
    relax: RelaxationSet,
    medium: MediumParams,
    base: FieldConfig,
    omega4_grid: np.ndarray,
    length_grid: np.ndarray,
    steps: int = 2000,
    quad: QuadratureSpec | None = None,
    use_cache: bool = True,
    threads: int = 1,
    cache_n1: int = 80,
    cache_n3: int = 32,
    validate_probes_first: int = 50,
    validate_probes_rest: int = 4,
) -> GainMapResult:
    """Probe transmission over a (probe detuning, optical length) grid.

    Each detuning column is a single integration to max(length_grid) with
    the transmitted intensity read off at every requested length.  The
    zeroth-order drive solution is tabulated once and shared by all columns;
    the first column's cache receives the full random validation pass and
    the remaining columns a spot check.  Columns run in parallel threads;
    assembly order is fixed by the grid index.
    """
    omega4_grid = np.asarray(omega4_grid, dtype=float)
    length_grid = np.asarray(length_grid, dtype=float)
    if omega4_grid.size == 0 or length_grid.size == 0:
        raise ValueError("scan grids must be non-empty")
    if np.any(np.diff(omega4_grid) <= 0) or np.any(np.diff(length_grid) <= 0):
        raise ValueError("scan grids must be strictly ascending")
    if length_grid[0] < 0:
        raise ValueError("lengths must be non-negative")
    if quad is None:
        quad = QuadratureSpec.for_medium(scheme, medium)

    l_max = float(length_grid[-1])
    positive_l = length_grid[length_grid > 0]
    shared_grid = None
    if use_cache:
        g1_grid, g3_grid = cache_grids(base, cache_n1, cache_n3)
        shared_grid = DriveGrid(scheme, relax, medium, base, g1_grid, g3_grid, quad)

    e40 = base.e40 if base.e40 != 0 else 1e-3 * abs(base.g10)
    ratio = np.full((omega4_grid.size, length_grid.size), np.nan)
    valid = np.zeros((omega4_grid.size, length_grid.size), dtype=bool)
    fallbacks = [0] * omega4_grid.size

    def column(i: int) -> None:
        f_col = FieldConfig(
            omega1=base.omega1, omega3=base.omega3, omega4=float(omega4_grid[i]),
            g10=base.g10, g30=base.g30, e40=e40, e20=base.e20,
        )
        cache = None
        if use_cache:
            cache = CoefficientCache.build(
                scheme, relax, medium, f_col, quad,
                n1=cache_n1, n3=cache_n3,
                validate_probes=validate_probes_first if i == 0 else validate_probes_rest,
                drive_grid=shared_grid,
            )
        i40 = abs(e40) ** 2
        if length_grid[0] == 0.0:
            ratio[i, 0] = 1.0
            valid[i, 0] = True
        try:
            trace = integrate(
                scheme, relax, medium, f_col, l_max, steps=steps, quad=quad,
                cache=cache, error_estimate=False, record_at=positive_l,
            )
        except PropagationError:
            # cells of this column stay invalid; the scan continues
            fallbacks[i] = cache.fallbacks if cache else 0
            return
        for j, L in enumerate(length_grid):
            if L == 0.0:
                continue
            idx = trace.index_of(float(L))
            ratio[i, j] = abs(trace.e4[idx]) ** 2 / i40
            valid[i, j] = True
        fallbacks[i] = trace.cache_fallbacks

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(column, range(omega4_grid.size)))
    else:
        for i in range(omega4_grid.size):
            column(i)

    return GainMapResult(
        omega4=omega4_grid, lengths=length_grid, ratio=ratio, valid=valid,
        cache_fallbacks=int(sum(fallbacks)),
    )
