"""Propagation of all four waves through the medium with local saturation.

The right-hand sides follow the coupled-wave equations: each wave evolves
under its own intensity-dependent sigma coefficient, the probe pair is
cross-coupled through gamma4/gamma2 (which include the drive product), and
the drives carry the quadratic probe back-action term.  Coefficients are
re-evaluated from the local drive amplitudes at every integration stage,
either directly (one Doppler-averaging pass per stage for the whole batch)
or through a tensor-product cubic-spline cache over (|G1|, |G3|).
:func:`cache_for` decides whether a run gets one, and only
:meth:`CoefficientCache.build` makes it: one column per probe detuning,
its grid sized from the run's largest drives.  :func:`_row_source` gives
each trajectory the column of its detunings.  One fixed-step RK4 engine
advances n trajectories in lockstep as an (n, 4) complex state
[G1, G3, E4, E2]: a single integration, the columns of a gain map and the
points of a switching curve on either axis all run on it.

At the batch sizes of a map or sweep the fixed cost of a numpy call, not
the arithmetic, sets the time of a stage, so a stage makes as few calls
as its arithmetic needs.  What stays fixed for a batch (each trajectory's
cache column and the reader of its rows) is built once, and again only
when a trajectory leaves the batch.  The reader
(:meth:`CoefficientCache.reader`) keeps each trajectory's spline cell, so
while every trajectory stays in its cell a stage's rows cost one
subtraction, one in-cell check, one division by the cell widths and one
evaluation of the cells' local polynomials; only the trajectories that
left their cells are located again.  The drive phase and the back-action divide without masks when
every drive is non-zero, and the state is kept in column-major order, so
:func:`rhs` works on contiguous (k, n) component blocks.  Points off the
grid, non-finite drives and zero drives take the general branch, row by
row, so each row depends on its own trajectory alone.

Because the microscopic response at complex drive amplitudes equals the
response at real amplitudes times the drive-product phase (a gauge
transformation of the level phases), the cache stores coefficients at real
non-negative drive amplitudes and the engine re-applies the running phase
of G1 G3 to the cross couplings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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
    """Sampled field amplitudes along the medium.

    ``error_estimate`` is the maximum relative deviation of |E4| between the
    nominal and a doubled step count, when requested.
    """

    z: np.ndarray
    g1: np.ndarray
    g3: np.ndarray
    e4: np.ndarray
    e2: np.ndarray
    error_estimate: float | None = None

    def index_of(self, z: float) -> int:
        i = int(np.argmin(np.abs(self.z - z)))
        if not math.isclose(float(self.z[i]), z, rel_tol=1e-9, abs_tol=1e-12):
            raise KeyError(f"z = {z} is not a trace sample")
        return i


# The one cache policy, which CoefficientCache.build states: grid size, power
# spacing and reach, and the probes and tolerance of every column's check
_GRID_N1_PER_MHZ = 0.9
_GRID_N1_MIN = 90
_GRID_N3 = 32
_GRID_POWER = 1.2
_GRID_MARGIN = 1.05
_VALIDATION_PROBES = 50
_VALIDATION_RTOL = 1e-4
# Drives this many times the grid's top are runaways: their rows stay NaN, as
# at a non-finite drive, since a direct average there overflows
_RUNAWAY = 1e6


class CacheValidationError(RuntimeError):
    """Cache interpolation disagrees with direct evaluation beyond tolerance."""


def _cubic_cells(grid: np.ndarray):
    """The not-a-knot cubic B-splines on ``grid``, cell by cell.

    The knots are the first and last grid points four times each and the
    inner points but the second and second last once (de Boor, *A Practical
    Guide to Splines*, 1978), so the cells, the spline's polynomial pieces,
    are [x0, x2], [x2, x3], ..., [x(n-3), x(n-1)].  Returns the cells'
    lower bounds and widths, the (cells, 4, 4) matrices whose [j, r, p]
    entry is the coefficient of u**p, u = (x - lower[j]) / width[j], in
    B-spline j + r on cell j (the Cox-de Boor recursion on polynomial
    coefficients; in u they do not scale with the grid), and the (n, n)
    collocation matrix of the B-splines at the grid points.
    """
    n = grid.size
    if n < 4:
        raise ValueError("a cubic spline needs at least 4 grid points")
    t = np.concatenate([np.repeat(grid[0], 4), grid[2:-2], np.repeat(grid[-1], 4)])
    lower, width, j = t[3:n], t[4:n + 1] - t[3:n], np.arange(n - 3)

    def ratio(num, den):  # a term over a zero-length knot span is dropped
        return np.divide(num, den, out=np.zeros(n - 3), where=den > 0)[:, None]

    # poly[j, r, p]: the u**p coefficient of B-spline j + r of the current
    # degree on cell j; slot r = 4 stays zero
    poly = np.zeros((n - 3, 5, 4))
    poly[:, 3, 0] = 1.0
    for k in (1, 2, 3):
        up = np.zeros_like(poly)  # times u
        up[:, :, 1:] = poly[:, :, :3]
        nxt = np.zeros_like(poly)
        for r in range(3 - k, 4):
            i = j + r
            left, right = t[i + k] - t[i], t[i + k + 1] - t[i + 1]
            # (x - t_i) / left B(i, k-1) + (t_(i+k+1) - x) / right B(i+1, k-1)
            # with x = lower + width u
            nxt[:, r] = (ratio(lower - t[i], left) * poly[:, r] + ratio(width, left) * up[:, r]
                         + ratio(t[i + k + 1] - lower, right) * poly[:, r + 1]
                         - ratio(width, right) * up[:, r + 1])
        poly = nxt
    to_powers = poly[:, :4]
    cell = np.searchsorted(lower, grid, "right") - 1
    powers = ((grid - lower[cell]) / width[cell])[:, None] ** np.arange(4)
    colloc = np.zeros((n, n))
    colloc[np.arange(n)[:, None], cell[:, None] + np.arange(4)] = np.einsum(
        "krp,kp->kr", to_powers[cell], powers)
    return lower, width, to_powers, colloc


def _evaluate(u: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Rows (n, 12) of local polynomials ``poly`` (n, 16, 12) at local coordinates ``u`` (n, 2).

    Powers by repeated products, not ``**``, whose vector and scalar
    kernels may round differently, so each row's bits are its own.
    """
    n = len(u)
    powers = np.empty((4, 2, n))  # [p, axis, point]: u**p
    powers[0] = 1.0
    powers[1] = u.T
    np.multiply(powers[1], powers[1], out=powers[2])
    np.multiply(powers[2], powers[1], out=powers[3])
    basis = powers[:, 0, None] * powers[None, :, 1]  # [p, q, point]: u1**p u3**q
    return (basis.reshape(16, n).T[:, None] @ poly).reshape(n, 12)


class CoefficientCache:
    """Cubic-spline interpolation of macroscopic coefficients over drive amplitudes.

    One table per column (probe detuning) ``columns[k]``, all on one
    rectangular (|G1|, |G3|) grid at fixed drive detunings; ``tables`` is
    (columns, n1, n3, 12).  Each column is interpolated by the not-a-knot
    tensor-product cubic spline through its table.  Its B-spline
    coefficients, as large as the tables, come from one solve of the
    collocation system along each axis (:func:`_cubic_cells`); a point is
    read from the polynomial of its cell, 16 x 12 coefficients of the
    powers of its local coordinates (0 at the cell's lower corner, 1 at
    the upper), which one 4 x 4 matrix per axis makes from the cell's
    4 x 4 B-spline coefficients.
    :meth:`rows` locates and reads a batch of points at once, and
    :meth:`reader` keeps each trajectory's cell from one read to the
    next; either keeps a lookup far cheaper than a velocity average.
    Queries outside the grid fall back to direct evaluation and are
    counted in ``fallbacks``.
    ``validation_error`` is the worst scaled error of the validation probes
    over the columns after :meth:`build`, and None for a cache made
    directly from its tables, which nothing validates.
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
        (lo1, w1, m1, colloc1), (lo3, w3, m3, colloc3) = (
            _cubic_cells(np.asarray(g, dtype=float)) for g in (g1_grid, g3_grid))
        self._lower, self._width = (lo1, lo3), (w1, w3)
        # (cells, power, B-spline): they multiply a cell's coefficients from the left
        self._to_powers = (np.ascontiguousarray(m1.transpose(0, 2, 1)),
                           np.ascontiguousarray(m3.transpose(0, 2, 1)))
        self._top = np.array([g1_grid[-1], g3_grid[-1]], dtype=float)
        # B-spline coefficients (columns, n1, n3, 12): interpolate along
        # |G1|, then along |G3|, each one solve of a collocation system
        n_col, n1, n3, n_f = tables.shape
        coef = np.linalg.solve(colloc1, tables.transpose(1, 0, 2, 3).reshape(n1, -1))
        coef = coef.reshape(n1, n_col, n3, n_f).transpose(2, 1, 0, 3).reshape(n3, -1)
        coef = np.linalg.solve(colloc3, coef).reshape(n3, n_col, n1, n_f)
        self._coef = np.ascontiguousarray(coef.transpose(1, 2, 0, 3))
        # flat-row offsets of a cell's 4 x 4 coefficients from its corner
        self._block = np.arange(4)[:, None] * n3 + np.arange(4)

    @classmethod
    def build(
        cls,
        scheme: LevelScheme,
        relax: RelaxationSet,
        medium: MediumParams,
        trajectories: list[FieldConfig],
        quad: QuadratureSpec,
        threads: int = 1,
    ) -> "CoefficientCache":
        """Validated cache for ``trajectories`` over [0, 1.05|G10|] x [0, 1.05|G30|].

        One column per distinct probe detuning of the trajectories, in order
        of first appearance; |G10| and |G30| are the largest of the
        trajectories, so every trajectory starts on the grid.  The
        trajectories share the drives' detunings, hence one
        :class:`DriveGrid` pass over the drive points, which ``threads``
        worker threads split.  One policy, with no settings:
        max(90, ceil(0.9 |G10| / 1 MHz)) |G1| by 32 |G3| nodes, power-spaced
        with exponent 1.2 (denser toward zero amplitude, where the
        coefficients curve most as the drives die out; uniform spacing fails
        the trace-level accuracy target by two orders of magnitude), and
        every column checked at the same 50 random points, where an error
        over 1e-4 of a coefficient's scale raises :class:`CacheValidationError`.
        """
        columns = list({f.omega4: f for f in trajectories}.values())
        g10 = max(abs(f.g10) for f in trajectories)
        g30 = max(abs(f.g30) for f in trajectories)
        n1 = max(_GRID_N1_MIN, math.ceil(_GRID_N1_PER_MHZ * g10))
        g1_grid = _GRID_MARGIN * g10 * np.linspace(0.0, 1.0, n1) ** _GRID_POWER
        g3_grid = _GRID_MARGIN * g30 * np.linspace(0.0, 1.0, _GRID_N3) ** _GRID_POWER
        grid = DriveGrid(scheme, relax, medium, columns[0], g1_grid, g3_grid, quad)
        cache = cls(scheme, relax, medium, columns, quad, g1_grid, g3_grid,
                    grid.tables(columns, threads))
        cache._validate()
        return cache

    def _validate(self) -> None:
        # every column at the same points, in one direct pass; errors are
        # relative to each coefficient's scale over its column's table, as a
        # pointwise quotient is ill-conditioned at the cross couplings' zeros
        rng = np.random.default_rng(20230817)
        probes = rng.uniform(0.0, self._top, (_VALIDATION_PROBES, 2))
        n_col = len(self.columns)
        cols = np.repeat(np.arange(n_col), _VALIDATION_PROBES)
        g1, g3 = np.tile(probes, (n_col, 1)).T
        interp = self.rows(cols, g1, g3)
        direct = _direct_rows(self.scheme, self.relax, self.medium, self.quad, self.columns,
                              cols, g1, g3)
        scale = np.maximum(np.max(np.abs(self.tables), axis=(1, 2)), 1e-12)[cols]
        errors = np.max(np.abs(interp - direct) / scale, axis=1).reshape(n_col, -1).max(axis=1)
        worst = int(np.argmax(errors))
        self.validation_error = float(errors[worst])
        if self.validation_error > _VALIDATION_RTOL:
            raise CacheValidationError(
                f"cache interpolation error {self.validation_error:.3e} exceeds "
                f"{_VALIDATION_RTOL:.1e} at omega4 = {self.columns[worst].omega4:.6g} MHz"
            )

    def rows(self, col: np.ndarray, g1_abs: np.ndarray, g3_abs: np.ndarray) -> np.ndarray:
        """Table rows (n, 12) of columns ``col`` at real drive amplitudes.

        The first read of a fresh :meth:`reader`: each point is located in
        its cell of its own column and read from that cell's polynomial, so
        each row is independent of the rest of the batch.  Points outside
        the grid are averaged directly, all in one :func:`_direct_rows`
        pass, and counted in ``fallbacks``; points with a non-finite
        amplitude, or one over a million times the grid's top, keep NaN
        rows.
        """
        return self.reader(col)(np.column_stack((g1_abs, g3_abs)).astype(float, copy=False))

    def reader(self, col: np.ndarray):
        """``read(a)``: the rows of :meth:`rows` for trajectories in columns ``col``.

        ``a`` is (len(col), 2), the trajectories' current (|G1|, |G3|).  The
        reader keeps each trajectory's cell, its bounds and its local
        polynomial, so a read while every trajectory stays in its cell is
        one subtraction, one check, one division by the cell widths and one
        :func:`_evaluate`; only the trajectories that left their cells are
        located again.  A cell is half-open, [lower, lower + width), so a
        kept cell is the one :meth:`rows` would locate, and a read gives the
        bits of :meth:`rows`; a point on the grid's top is located at every
        read.
        """
        n = len(col)
        lower, width, poly = np.full((n, 2), np.nan), np.zeros((n, 2)), np.zeros((n, 16, 12))

        def read(a):
            d = a - lower
            inside = (d >= 0.0) & (d < width)
            if np.count_nonzero(inside) == inside.size:
                return _evaluate(d / width, poly)
            moved = ~inside.all(axis=1)
            lower[moved], width[moved], poly[moved] = self._cells(col[moved], a[moved])
            return self._off_grid(col, a, lower, _evaluate((a - lower) / width, poly))

        return read

    def _cells(self, col: np.ndarray, a: np.ndarray):
        """Cells of the points ``a`` (n, 2) in columns ``col``.

        Returns their lower bounds and widths (n, 2), NaN bounds for points
        off the grid or not finite, and their polynomials (n, 16, 12) in
        the local coordinates u = (a - lower) / width: entry [4p + q] is
        the coefficient of u1**p u3**q.
        """
        n = len(col)
        (lo1, lo3), (w1, w3) = self._lower, self._width
        # the number of inner cell bounds at or below a point is its cell:
        # the last one at the grid's top, above it and at NaN
        i1 = np.searchsorted(lo1[1:], a[:, 0], "right")
        i3 = np.searchsorted(lo3[1:], a[:, 1], "right")
        lower = np.where((a >= 0.0) & (a <= self._top), np.column_stack((lo1[i1], lo3[i3])), np.nan)
        # the cell's 4 x 4 B-spline coefficients, as rows of the flat table
        _, n1, n3, _ = self._coef.shape
        corner = (col * n1 + i1) * n3 + i3
        block = self._coef.reshape(-1, 12)[corner[:, None, None] + self._block]  # (n, 4, 4, 12)
        m1, m3 = self._to_powers
        poly = m1[i1] @ (m3[i3][:, None] @ block).reshape(n, 4, 48)  # (n, p, 12 q + k)
        return lower, np.column_stack((w1[i1], w3[i3])), poly.reshape(n, 16, 12)

    def _off_grid(self, col: np.ndarray, a: np.ndarray, lower: np.ndarray,
                  out: np.ndarray) -> np.ndarray:
        """``out`` with the rows of the points off the grid (a NaN ``lower``) replaced."""
        off = np.isnan(lower).any(axis=1)
        if not off.any():
            return out
        out[off] = np.nan
        direct = off & (a <= _RUNAWAY * self._top).all(axis=1)
        if direct.any():
            self.fallbacks += int(np.count_nonzero(direct))
            out[direct] = _direct_rows(self.scheme, self.relax, self.medium, self.quad,
                                       self.columns, col[direct], a[direct, 0], a[direct, 1])
        return out

    def lookup(self, g1_abs: float, g3_abs: float) -> MacroscopicCoefficients:
        """Coefficients of column 0 at one real drive-amplitude pair."""
        rows = self.rows(np.zeros(1, int), np.array([g1_abs]), np.array([g3_abs]))
        return MacroscopicCoefficients.from_vector(rows[0])


# the rows of rhs's component-major coefficients: the self coefficient of
# each state component (sigma1, sigma3, sigma4, sigma2), then gamma4, gamma2
_ORDER = np.array([0, 2, 3, 1, 4, 5])


def rhs(y: np.ndarray, rows: np.ndarray, scheme: LevelScheme) -> np.ndarray:
    """Right-hand sides d[G1, G3, E4, E2]/dz of n states ``y`` (n, 4).

    ``rows`` are the states' (n, 12) :meth:`MacroscopicCoefficients.to_vector`
    rows, with the drive phases included in the cross couplings.  The drive
    equations carry the quadratic probe back-action with the mixing response
    renormalized by the respective wavenumber and dipole factors (the
    reverse conversion cycle of the corresponding probe pathway).

    The work runs component by component, on (k, n) arrays, and the result
    is the transpose of one: a state array in column-major order, as
    :func:`_lockstep` keeps its states, makes every operation one
    contiguous run.
    """
    coef = np.ascontiguousarray(rows).view(complex).T.take(_ORDER, axis=0)
    i_coef = 1j * coef
    y = y.T
    y_conj = np.conj(y)
    # self terms i sigma_j A_j, then the probe cross coupling i gamma4 E2*, i gamma2 E4*
    d = i_coef[:4] * y
    d[2:] += i_coef[4:] * y_conj[3:1:-1]
    # back-action on the drives, where both drives are on
    back = _backaction(scheme) * np.conj(coef[4:]) * (y[2] * y[3])
    if y[:2].all():
        d[:2] += back / y_conj[:2]
    else:
        d[:2] += np.divide(back, y_conj[:2], out=np.zeros_like(back), where=y[:2].all(axis=0))
    return d.T


@lru_cache(maxsize=16)
def _backaction(scheme: LevelScheme) -> np.ndarray:
    """i times the wavenumber and dipole ratios of the back-action on drives 1 and 3, (2, 1)."""
    l1, l2, l3, l4 = scheme.wavelengths
    d1, d2, d3, d4 = scheme.dipoles
    return 1j * np.array([[(l4 / l1) * d1 * d1 / (1.0 * d4 * d2)],
                          [(l4 / l3) * d3 * d3 / ((l4 / l2) * d2 * d4)]])


def _direct_rows(scheme, relax, medium, quad, fields: list[FieldConfig], idx: np.ndarray,
                 g1_abs: np.ndarray, g3_abs: np.ndarray) -> np.ndarray:
    """Rows (n, 12) of n points averaged directly, in one Doppler-averaging pass.

    Point k is at the drives (``g1_abs[k]``, ``g3_abs[k]``) and the probe
    detuning of ``fields[idx[k]]``; the drive detunings are those of
    ``fields[0]``.  The points make one paired column of
    :func:`doppler.coefficient_tables`: its omega4 is the array of the
    points' detunings, which broadcasts point by point against the drive
    arrays, so each row equals a one-point average at that point bit for bit.
    """
    column = fields[0].with_omega4(np.array([fields[k].omega4 for k in idx.tolist()]))
    return doppler.coefficient_tables(scheme, relax, medium, quad, [column], g1_abs, g3_abs)[0]


def cache_for(scheme, relax, medium, trajectories: list[FieldConfig], quad,
              threads: int) -> CoefficientCache | None:
    """The :meth:`CoefficientCache.build` cache of a run of ``trajectories``, built on ``threads``.

    None, and the run averages directly, where the largest |G10| or |G30|
    of the trajectories is zero: such a drive would give the grid no width.
    """
    if max(abs(f.g10) for f in trajectories) and max(abs(f.g30) for f in trajectories):
        return CoefficientCache.build(scheme, relax, medium, trajectories, quad, threads=threads)
    return None


def _row_source(scheme, relax, medium, fields, quad, cache):
    """Readers of rows without drive phase: ``bind(idx)`` gives ``read(a)``.

    ``read(a)`` returns fresh (len(idx), 12) rows of trajectories ``idx``
    at the drive amplitudes ``a`` = (|G1|, |G3|), shape (len(idx), 2), and
    NaN rows where an amplitude is not finite (with a cache, also where it
    is over a million times the grid's top).  ``bind`` does the per-batch
    work, so a reader is made once per batch, not per stage.  With a cache
    each trajectory of ``fields`` reads the column of its (omega1, omega3,
    omega4), and ``ValueError`` is raised where no column has them; the
    reader is the cache's :meth:`CoefficientCache.reader`, which keeps each
    trajectory's spline cell from stage to stage.  Without a cache each
    read is one :func:`_direct_rows` pass over the whole batch.  When every boundary
    drive is zero the drives stay exactly zero, so the trajectories keep
    their boundary rows, averaged once.
    """
    if cache is not None:
        column = {(f.omega1, f.omega3, f.omega4): k for k, f in enumerate(cache.columns)}
        try:
            cols = np.array([column[f.omega1, f.omega3, f.omega4] for f in fields], dtype=int)
        except KeyError:
            raise ValueError("no cache column has a trajectory's detunings") from None
        return lambda idx: cache.reader(cols[idx])
    if any((f.omega1, f.omega3) != (fields[0].omega1, fields[0].omega3) for f in fields):
        raise ValueError("trajectories differ in their drive detunings")
    if all(f.g10 == 0 and f.g30 == 0 for f in fields):
        everyone, zero = np.arange(len(fields)), np.zeros(len(fields))
        boundary = _direct_rows(scheme, relax, medium, quad, fields, everyone, zero, zero)
        return lambda idx: lambda a: boundary[idx]

    def bind(idx):
        def read(a):
            out = np.full((idx.size, 12), np.nan)
            finite = np.isfinite(a).all(axis=1)
            if finite.any():
                out[finite] = _direct_rows(scheme, relax, medium, quad, fields, idx[finite],
                                           a[finite, 0], a[finite, 1])
            return out

        return read

    return bind


def check_run(L: float, steps: int) -> None:
    """Reject a medium length or step count no integration accepts, with ``ConfigError``.

    Callers that build a cache check first, so a bad flag costs no build.
    """
    if not (math.isfinite(L) and L > 0):
        raise ConfigError("medium length must be positive and finite")
    if steps < 100:
        raise ConfigError("need at least 100 integration steps")


def _sample_positions(L: float, steps: int, record_at, min_samples: int) -> np.ndarray:
    check_run(L, steps)
    sample_z = np.linspace(0.0, L, min_samples)
    if record_at is not None:
        record = np.asarray(record_at, dtype=float)
        if np.any(record < 0) or np.any(record > L * (1 + 1e-12)):
            raise ValueError("record positions must lie in [0, L]")
        sample_z = np.union1d(sample_z, record)
    return sample_z


def _lockstep(y0: np.ndarray, sample_z: np.ndarray, steps: int, source, scheme):
    """Fixed-step RK4 of the (n, 4) states ``y0`` from z = 0 through ``sample_z``.

    ``source`` is a :func:`_row_source` binder.  Each RK4 stage reads its
    (n, 12) coefficient rows with one call of the batch's reader, and
    nothing else reads them.  Returns the states (samples, n, 4) at the
    samples and where each trajectory turned non-finite (NaN if it never
    did).  A failed trajectory leaves the batch; its later samples are NaN.
    """
    n = y0.shape[0]
    states = np.full((sample_z.size, n, 4), np.nan, dtype=complex)
    failed_at = np.full(n, np.nan)

    def f(y):
        out = read(np.abs(y[:, :2]))
        # the drive phase of G1 G3, 1 where a drive is zero.  numpy rounds a
        # complex product differently in different kernels; an (n, 2) block
        # times an (n, 1) column takes the same one at every n, so a row's
        # bits do not depend on the batch size
        prod = y[:, :1] * y[:, 1:2]
        mag = np.abs(prod)
        if mag.all():
            phase = prod / mag
        else:
            phase = np.divide(prod, mag, out=np.ones_like(prod), where=mag > 0)
        out.view(complex)[:, 4:] *= phase
        return rhs(y, out, scheme)

    live = np.arange(n)
    read = source(live)
    y = np.array(y0, dtype=complex, order="F")  # each component one contiguous run
    h_target = sample_z[-1] / steps
    z = 0.0
    # non-finite states are detected after every step and reported, so the
    # overflow that produces them raises no floating-point warning
    with np.errstate(over="ignore", invalid="ignore"):
        states[0] = y
        for k in range(1, sample_z.size):
            seg = sample_z[k] - sample_z[k - 1]
            n_sub = max(1, int(round(seg / h_target)))
            h = seg / n_sub
            for _ in range(n_sub):
                k1 = f(y)
                k2 = f(y + 0.5 * h * k1)
                k3 = f(y + 0.5 * h * k2)
                k4 = f(y + h * k3)
                y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                z += h
                if not np.isfinite(y).all():
                    bad = ~np.isfinite(y).all(axis=1)
                    failed_at[live[bad]] = z
                    live, y = live[~bad], np.asfortranarray(y[~bad])
                    if not live.size:
                        return states, failed_at
                    read = source(live)
            states[k, live] = y
    return states, failed_at


def integrate(
    scheme: LevelScheme,
    relax: RelaxationSet,
    medium: MediumParams,
    fields: FieldConfig,
    L: float,
    steps: int = 2000,
    quad: QuadratureSpec | None = None,
    cache: CoefficientCache | None = None,
    error_estimate: bool = True,
    record_at: np.ndarray | None = None,
    min_samples: int = 257,
) -> PropagationTrace:
    """Fixed-step 4th-order integration of the four coupled waves to z = L.

    Coefficients are re-evaluated at every stage from the local drive
    amplitudes, through ``cache`` or directly.  The trace records at least
    ``min_samples`` evenly spaced positions plus every entry of
    ``record_at``.  With ``error_estimate`` the run is repeated at twice the
    step count and the maximum relative deviation of |E4| is attached.
    A cache is read at the column of the fields' detunings.
    """
    sample_z = _sample_positions(L, steps, record_at, min_samples)
    if quad is None:
        quad = QuadratureSpec.for_medium(scheme, medium)
    source = _row_source(scheme, relax, medium, [fields], quad, cache)
    y0 = np.array([[fields.g10, fields.g30, fields.e40, fields.e20]], dtype=complex)

    def run(n_steps: int) -> np.ndarray:
        states, failed_at = _lockstep(y0, sample_z, n_steps, source, scheme)
        if not np.isnan(failed_at[0]):
            raise PropagationError(float(failed_at[0]))
        return states[:, 0]

    solution = run(steps)
    err = None
    if error_estimate:
        fine = run(2 * steps)
        scale = np.max(np.abs(solution[:, 2]))
        if scale > 0:
            err = float(np.max(np.abs(np.abs(solution[:, 2]) - np.abs(fine[:, 2]))) / scale)
        else:
            err = 0.0
    return PropagationTrace(
        z=sample_z,
        g1=solution[:, 0], g3=solution[:, 1],
        e4=solution[:, 2], e2=solution[:, 3],
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
    source = _row_source(scheme, relax, medium, fields, quad, cache)
    states, failed_at = _lockstep(y0, sample_z, steps, source, scheme)
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
    threads: int = 1,
) -> GainMapResult:
    """Probe transmission over a (probe detuning, optical length) grid.

    Each detuning column is one trajectory to max(length_grid), and all
    columns step together.  The columns read the :func:`cache_for` cache,
    tabulated on ``threads`` worker threads, or average directly.  A
    column whose fields turn non-finite keeps only its L = 0 cell valid;
    a map whose every column failed raises :class:`PropagationError`.
    """
    omega4_grid = np.asarray(omega4_grid, dtype=float)
    length_grid = np.asarray(length_grid, dtype=float)
    if omega4_grid.size == 0 or length_grid.size == 0:
        raise ConfigError("scan grids must be non-empty")
    if np.any(np.diff(omega4_grid) <= 0) or np.any(np.diff(length_grid) <= 0):
        raise ConfigError("scan grids must be strictly ascending")
    if length_grid[0] < 0:
        raise ConfigError("lengths must be non-negative")
    check_run(float(length_grid[-1]), steps)
    if quad is None:
        quad = QuadratureSpec.for_medium(scheme, medium)

    columns = [base.with_omega4(float(om)) for om in omega4_grid]
    cache = cache_for(scheme, relax, medium, columns, quad, threads)
    ratio, failed_at = transmission(scheme, relax, medium, columns, length_grid,
                                    steps=steps, quad=quad, cache=cache)
    finished = np.isnan(failed_at)
    if not finished.any():
        raise PropagationError(float(failed_at[0]))
    valid = finished[:, None] | (length_grid == 0.0)[None, :]
    return GainMapResult(
        omega4=omega4_grid, lengths=length_grid, ratio=ratio, valid=valid,
        cache_fallbacks=cache.fallbacks if cache is not None else 0,
        validation_error=cache.validation_error if cache is not None else None,
    )
