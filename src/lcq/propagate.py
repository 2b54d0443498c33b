"""Propagation of all four waves through the medium with local saturation.

The right-hand sides follow the coupled-wave equations: each wave evolves
under its own intensity-dependent sigma coefficient, the probe pair is
cross-coupled through gamma4/gamma2 (which include the drive product), and
the drives carry the quadratic probe back-action term.  Coefficients are
re-evaluated from the local drive amplitudes at every integration stage,
either directly (velocity average per stage) or through a bicubic
interpolation cache over (|G1|, |G3|).  One fixed-step RK4 engine advances
n trajectories in lockstep as an (n, 4) complex state [G1, G3, E4, E2],
with one batched (n, 12) coefficient evaluation and one array right-hand
side per stage: a single integration, the columns of a gain map and the
points of a drive-amplitude sweep all run on it.

Because the microscopic response at complex drive amplitudes equals the
response at real amplitudes times the drive-product phase (a gauge
transformation of the level phases), the cache stores coefficients at real
non-negative drive amplitudes and the engine re-applies the running phase
of G1 G3 to the cross couplings.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from . import doppler
from .doppler import DriveGrid, MacroscopicCoefficients, QuadratureSpec
from .scheme import ConfigError, FieldConfig, LevelScheme, MediumParams, RelaxationSet


class PropagationError(RuntimeError):
    """Field amplitudes became non-finite during integration."""

    def __init__(self, z: float):
        super().__init__(f"non-finite field amplitude at z = {z:.6g} L4")
        self.z = z


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
    """Bicubic interpolation tables of macroscopic coefficients over drive amplitudes.

    One table per column (probe detuning) ``columns[k]``, all on one
    rectangular (|G1|, |G3|) grid at fixed drive detunings; ``tables`` is
    (columns, n1, n3, 12).  Each table is a tensor-product cubic spline;
    :meth:`rows` evaluates the precomputed piecewise polynomials for a batch
    of points at once, which keeps a lookup far cheaper than a velocity
    average.  Queries outside the grid fall back to direct evaluation and
    are counted in ``fallbacks``.  ``validation_error`` is the worst scaled
    error of the validation probes over the validated columns, or None if
    no column was validated.
    """

    def __init__(
        self,
        scheme: LevelScheme,
        relax: RelaxationSet,
        medium: MediumParams,
        columns: list[FieldConfig],
        quad: QuadratureSpec,
        g1_grid: np.ndarray,
        g3_grid: np.ndarray,
        tables: np.ndarray,
    ):
        self.scheme = scheme
        self.relax = relax
        self.medium = medium
        self.columns = list(columns)
        self.quad = quad
        self.g1_grid = g1_grid
        self.g3_grid = g3_grid
        self.tables = tables
        self.fallbacks = 0
        self.validation_error: float | None = None
        # two-pass cubic-spline fit per column: polynomial coefficients per
        # grid cell, laid out as (column, n1-1, n3-1, x power, y power, field);
        # one column at a time keeps the fit's temporaries to one column
        self._poly = np.empty((len(tables), g1_grid.size - 1, g3_grid.size - 1, 4, 4, 12))
        for k, table in enumerate(tables):
            s1 = CubicSpline(g1_grid, table, axis=0)
            c1 = np.moveaxis(s1.c, 0, -1)          # (n1-1, n3, 12, 4)
            s2 = CubicSpline(g3_grid, c1, axis=1)  # .c: (4, n3-1, n1-1, 12, 4)
            self._poly[k] = s2.c.transpose(2, 1, 4, 0, 3)

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
        """One-column cache over [0, margin*|G10|] x [0, margin*|G30|].

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
        elif (drive_grid.g1_grid.shape != g1_grid.shape
                or not np.array_equal(drive_grid.g1_grid, g1_grid)
                or not np.array_equal(drive_grid.g3_grid, g3_grid)):
            raise ValueError("drive grid does not match the requested cache grid")
        table = drive_grid.coefficients_for(fields)
        del drive_grid  # a grid built here is freed before the spline fit
        cache = cls(scheme, relax, medium, [fields], quad, g1_grid, g3_grid, table[None])
        if validate_probes > 0:
            cache._validate(0, validate_probes, rtol)
        return cache

    def _validate(self, col: int, n_probes: int, rtol: float = 1e-4) -> None:
        # relative to each coefficient's scale over the column's table; a
        # pointwise quotient is ill-conditioned near the interior zeros of
        # the cross couplings.  Every column draws the same probe points.
        rng = np.random.default_rng(20230817)
        scale = np.maximum(np.max(np.abs(self.tables[col]), axis=(0, 1)), 1e-12)
        probes = np.array([(rng.uniform(0.0, self.g1_grid[-1]), rng.uniform(0.0, self.g3_grid[-1]))
                           for _ in range(n_probes)])
        interp = self.rows(np.full(n_probes, col), probes[:, 0], probes[:, 1])
        worst = 0.0
        for (g1, g3), row in zip(probes.tolist(), interp):
            direct = doppler.average_coefficients(
                self.scheme, self.relax, self.medium, self.columns[col], g1, g3, self.quad
            ).to_vector()
            worst = max(worst, float(np.max(np.abs(row - direct) / scale)))
        self.validation_error = max(worst, self.validation_error or 0.0)
        if worst > rtol:
            raise CacheValidationError(
                f"cache interpolation error {worst:.3e} exceeds {rtol:.1e}"
            )

    def rows(self, col: np.ndarray, g1_abs: np.ndarray, g3_abs: np.ndarray) -> np.ndarray:
        """Table rows (n, 12) of columns ``col`` at real drive amplitudes.

        Points outside the grid are averaged directly, one at a time.
        """
        i = np.minimum(np.maximum(self.g1_grid.searchsorted(g1_abs) - 1, 0), self.g1_grid.size - 2)
        j = np.minimum(np.maximum(self.g3_grid.searchsorted(g3_abs) - 1, 0), self.g3_grid.size - 2)
        dx = (g1_abs - self.g1_grid[i])[:, None, None]
        dy = (g3_abs - self.g3_grid[j])[:, None]
        poly = self._poly[col, i, j]  # (n, 4, 4, 12)
        acc = poly[:, 0]
        for a in range(1, 4):
            acc = acc * dx + poly[:, a]
        out = acc[:, 0]
        for b in range(1, 4):
            out = out * dy + acc[:, b]
        outside = ~((g1_abs >= 0.0) & (g1_abs <= self.g1_grid[-1])
                    & (g3_abs >= 0.0) & (g3_abs <= self.g3_grid[-1]))
        for k in outside.nonzero()[0]:
            self.fallbacks += 1
            out[k] = doppler.average_coefficients(
                self.scheme, self.relax, self.medium, self.columns[col[k]],
                float(g1_abs[k]), float(g3_abs[k]), self.quad,
            ).to_vector()
        return out

    def lookup(self, g1_abs: float, g3_abs: float) -> MacroscopicCoefficients:
        """Coefficients of column 0 at one real drive-amplitude pair."""
        rows = self.rows(np.zeros(1, int), np.array([g1_abs]), np.array([g3_abs]))
        return MacroscopicCoefficients.from_vector(rows[0])


def rhs(y: np.ndarray, rows: np.ndarray, scheme: LevelScheme) -> np.ndarray:
    """Right-hand sides d[G1, G3, E4, E2]/dz of n states ``y`` (n, 4).

    ``rows`` are the states' (n, 12) :meth:`MacroscopicCoefficients.to_vector`
    rows, with the drive phases included in the cross couplings.  The drive
    equations carry the quadratic probe back-action with the mixing response
    renormalized by the respective wavenumber and dipole factors (the
    reverse conversion cycle of the corresponding probe pathway).
    """
    l1, l2, l3, l4 = scheme.wavelengths
    d1, d2, d3, d4 = scheme.dipoles
    r = np.array([(l4 / l1) * d1 * d1 / (1.0 * d4 * d2),
                  (l4 / l3) * d3 * d3 / ((l4 / l2) * d2 * d4)])
    c = np.ascontiguousarray(rows).view(complex)  # sigma1..sigma4, gamma4, gamma2
    gamma = c[:, 4:]
    # self terms i sigma_j A_j, then the probe cross coupling i gamma4 E2*, i gamma2 E4*
    d = 1j * c[:, [0, 2, 3, 1]] * y
    d[:, 2:] += 1j * gamma * np.conj(y[:, [3, 2]])
    # back-action on the drives, where both drives are on
    probe_prod = (y[:, 2] * y[:, 3])[:, None]
    on = (y[:, :2] != 0).all(axis=1)[:, None]
    d[:, :2] += np.divide(1j * r * np.conj(gamma) * probe_prod, np.conj(y[:, :2]),
                          out=np.zeros((y.shape[0], 2), dtype=complex), where=on)
    return d


def _row_source(scheme, relax, medium, fields, quad, cache, freeze):
    """Rows without drive phase of trajectories ``idx``: ``(idx, |G1|, |G3|) -> (len(idx), 12)``.

    A one-column cache serves every trajectory of ``fields``, a cache with
    several columns holds one per trajectory.  Direct mode memoises repeated
    amplitudes (constant or zero drives).  With ``freeze`` every trajectory
    keeps the rows of its boundary drives.
    """
    if cache is not None:
        if len(cache.columns) not in (1, len(fields)):
            raise ValueError("cache columns do not match the trajectories")
        cols = np.arange(len(fields)) if len(cache.columns) > 1 else np.zeros(len(fields), int)

        def source(idx, g1_abs, g3_abs):
            return cache.rows(cols[idx], g1_abs, g3_abs)
    else:
        memo: dict[tuple[int, float, float], np.ndarray] = {}

        def source(idx, g1_abs, g3_abs):
            out = np.empty((len(idx), 12))
            for r, key in enumerate(zip(idx.tolist(), g1_abs.tolist(), g3_abs.tolist())):
                hit = memo.get(key)
                if hit is None:
                    hit = doppler.average_coefficients(
                        scheme, relax, medium, fields[key[0]], key[1], key[2], quad,
                    ).to_vector()
                    if len(memo) < 65536:
                        memo[key] = hit
                out[r] = hit
            return out
    if not freeze:
        return source
    frozen = source(np.arange(len(fields)), np.array([abs(f.g10) for f in fields]),
                    np.array([abs(f.g30) for f in fields]))
    return lambda idx, g1_abs, g3_abs: frozen[idx]


def _sample_positions(L: float, steps: int, record_at, min_samples: int) -> np.ndarray:
    if L <= 0:
        raise ValueError("medium length must be positive")
    if steps < 100:
        raise ValueError("need at least 100 integration steps")
    sample_z = np.linspace(0.0, L, min_samples)
    if record_at is not None:
        record = np.asarray(record_at, dtype=float)
        if np.any(record < 0) or np.any(record > L * (1 + 1e-12)):
            raise ValueError("record positions must lie in [0, L]")
        sample_z = np.union1d(sample_z, record)
    return sample_z


def _lockstep(y0: np.ndarray, sample_z: np.ndarray, steps: int, source, scheme):
    """Fixed-step RK4 of the (n, 4) states ``y0`` from z = 0 through ``sample_z``.

    Returns the states (samples, n, 4) and coefficient rows (samples, n, 12)
    at the samples, and where each trajectory turned non-finite (NaN if it
    never did).  A failed trajectory leaves the batch; its later samples are NaN.
    """
    n = y0.shape[0]
    states = np.full((sample_z.size, n, 4), np.nan, dtype=complex)
    rows = np.full((sample_z.size, n, 12), np.nan)
    failed_at = np.full(n, np.nan)

    def coefficients(idx, y):
        # a non-finite drive gets NaN rows instead of a direct average; its
        # trajectory leaves the batch at the end of the step
        drives = np.abs(y[:, :2])
        ok = np.isfinite(drives).all(axis=1)
        out = np.full((idx.size, 12), np.nan)
        out[ok] = source(idx[ok], drives[ok, 0], drives[ok, 1])
        prod = y[:, 0] * y[:, 1]
        mag = np.abs(prod)
        phase = np.divide(prod, mag, out=np.ones_like(prod), where=mag > 0)
        out.view(complex)[:, 4:] *= phase[:, None]
        return out

    def f(idx, y):
        return rhs(y, coefficients(idx, y), scheme)

    live = np.arange(n)
    y = np.array(y0, dtype=complex)
    h_target = sample_z[-1] / steps
    z = 0.0
    # non-finite states are detected after every step and reported, so the
    # overflow that produces them raises no floating-point warning
    with np.errstate(over="ignore", invalid="ignore"):
        states[0] = y
        rows[0] = coefficients(live, y)
        for k in range(1, sample_z.size):
            seg = sample_z[k] - sample_z[k - 1]
            n_sub = max(1, int(round(seg / h_target)))
            h = seg / n_sub
            for _ in range(n_sub):
                k1 = f(live, y)
                k2 = f(live, y + 0.5 * h * k1)
                k3 = f(live, y + 0.5 * h * k2)
                k4 = f(live, y + h * k3)
                y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                z += h
                bad = ~np.isfinite(y).all(axis=1)
                if bad.any():
                    failed_at[live[bad]] = z
                    live, y = live[~bad], y[~bad]
                    if not live.size:
                        return states, rows, failed_at
            states[k, live] = y
            rows[k, live] = coefficients(live, y)
    return states, rows, failed_at


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
    A cache is read at its column 0.
    """
    sample_z = _sample_positions(L, steps, record_at, min_samples)
    if quad is None:
        quad = QuadratureSpec.for_medium(scheme, medium)
    source = _row_source(scheme, relax, medium, [fields], quad, cache, freeze_coefficients)
    y0 = np.array([[fields.g10, fields.g30, fields.e40, fields.e20]], dtype=complex)

    def run(n_steps: int) -> tuple[np.ndarray, np.ndarray]:
        states, rows, failed_at = _lockstep(y0, sample_z, n_steps, source, scheme)
        if not np.isnan(failed_at[0]):
            raise PropagationError(float(failed_at[0]))
        return states[:, 0], rows[:, 0]

    solution, rows = run(steps)
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
        coefficients=[MacroscopicCoefficients.from_vector(r) for r in rows],
        error_estimate=err,
    )


def transmission(
    scheme: LevelScheme,
    relax: RelaxationSet,
    medium: MediumParams,
    fields: list[FieldConfig],
    lengths: np.ndarray,
    steps: int = 2000,
    quad: QuadratureSpec | None = None,
    cache: CoefficientCache | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Probe transmission I4(L)/I40 of the trajectories ``fields``, integrated in lockstep.

    ``lengths`` ascends to the end of the medium.  A zero probe input E40 is
    replaced by the small-signal probe 1e-3 |G10|.  Returns the
    (n, len(lengths)) ratios and the position where each trajectory turned
    non-finite (NaN where it stayed finite); a failed trajectory's ratios
    beyond z = 0 are NaN.
    """
    lengths = np.asarray(lengths, dtype=float)
    positive = lengths[lengths > 0]
    sample_z = _sample_positions(float(lengths[-1]), steps, positive, 257)
    if quad is None:
        quad = QuadratureSpec.for_medium(scheme, medium)
    e40 = np.array([f.e40 if f.e40 != 0 else 1e-3 * abs(f.g10) for f in fields], dtype=complex)
    if np.any(e40 == 0):
        raise ConfigError("transmission needs a non-zero probe input E40 or drive G10")
    y0 = np.array([[f.g10, f.g30, e, f.e20] for f, e in zip(fields, e40)], dtype=complex)
    source = _row_source(scheme, relax, medium, fields, quad, cache, False)
    states, _, failed_at = _lockstep(y0, sample_z, steps, source, scheme)
    e4 = states[np.searchsorted(sample_z, lengths), :, 2].T
    e4[~np.isnan(failed_at)[:, None] & (lengths > 0)] = np.nan
    return np.abs(e4) ** 2 / (np.abs(e40) ** 2)[:, None], failed_at


@dataclass
class GainMapResult:
    """Transmission map I4(L)/I40 over probe detuning and optical length."""

    omega4: np.ndarray
    lengths: np.ndarray
    ratio: np.ndarray          # (n_omega4, n_lengths)
    valid: np.ndarray          # bool mask, False where integration aborted
    cache_fallbacks: int = 0
    validation_error: float | None = None  # worst over the columns' cache validations

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

    Each detuning column is one trajectory to max(length_grid), and all
    columns step together.  The zeroth-order drive solution is tabulated
    once, and ``threads`` worker threads tabulate the columns' coefficients
    from it.  Then the first column's table receives the full random
    validation pass and the others a spot check, in column order.  A column
    whose fields turn non-finite keeps only its L = 0 cell valid.
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

    columns = [base.with_omega4(float(om)) for om in omega4_grid]
    cache = None
    if use_cache:
        g1_grid, g3_grid = cache_grids(base, cache_n1, cache_n3)
        grid = DriveGrid(scheme, relax, medium, base, g1_grid, g3_grid, quad)
        with ThreadPoolExecutor(max_workers=max(threads, 1)) as pool:
            tables = np.stack(list(pool.map(grid.coefficients_for, columns)))
        # the drive grid (371 MB at 80 x 32) goes before the splines are fitted
        del grid
        cache = CoefficientCache(scheme, relax, medium, columns, quad, g1_grid, g3_grid, tables)
        for i in range(len(columns)):
            probes = validate_probes_first if i == 0 else validate_probes_rest
            if probes > 0:
                cache._validate(i, probes)

    ratio, failed_at = transmission(scheme, relax, medium, columns, length_grid,
                                    steps=steps, quad=quad, cache=cache)
    valid = np.isnan(failed_at)[:, None] | (length_grid == 0.0)[None, :]
    return GainMapResult(
        omega4=omega4_grid, lengths=length_grid, ratio=ratio, valid=valid,
        cache_fallbacks=cache.fallbacks if cache is not None else 0,
        validation_error=cache.validation_error if cache is not None else None,
    )
