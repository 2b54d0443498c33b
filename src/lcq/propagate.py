"""Propagation of all four waves through the medium with local saturation.

The right-hand sides follow the coupled-wave equations: each wave evolves
under its own intensity-dependent sigma coefficient, the probe pair is
cross-coupled through gamma4/gamma2 (which include the drive product), and
the drives carry the quadratic probe back-action term.  Coefficients are
re-evaluated from the local drive amplitudes at every integration stage,
through a tensor Chebyshev interpolant over (|G1|, |G3|), or, as the
reference, directly (one Doppler-averaging pass per stage for the whole
batch).  Every run builds its cache with :meth:`CoefficientCache.build`:
one column per probe detuning, its grid sized from the run's largest
drives, its |G3| axis fitted to [1/2, 1.05] |G30| where the trajectories
share one |G30|, and one node on the axis of a zero drive, which stays
zero.  :func:`_row_source` gives each trajectory the column of its
omega4.  One runner (:func:`_run`) advances n trajectories in lockstep as
an (n, 4) complex state [G1, G3, E4, E2]: a single integration, the
columns of a gain map and the points of a switching curve on either axis
all run on it.  It records z = 0, the positions a run asks for and the
medium's end.  Given a step count, it runs fixed-step RK4
(:func:`_lockstep`), each interval its rounded share of the count; given
none, an embedded Dormand-Prince 5(4) pair (:func:`_embedded`) gives each
trajectory its own steps, each step's local error estimate at most
_STEP_TOL of the trajectory's peak (:class:`StepReport`).  Trajectories
that fall below a fitted axis run again from z = 0 on the full one.

At the batch sizes of a map or sweep the fixed cost of a numpy call, not
the arithmetic, sets the time of a stage, so a stage makes as few calls
as its arithmetic needs.  What stays fixed for a batch (each trajectory's
cache column and the reader of its rows, which groups the batch by
column) is built once, and again only when a trajectory leaves the batch.
A read (:meth:`CoefficientCache.reader`) keeps no state: two barycentric
bases, one product with the table of each distinct column and one along
|G3|.  The drive phase and the back-action divide without masks when
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

import contextlib
import contextvars
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import doppler
from .doppler import DriveGrid, MacroscopicCoefficients, QuadratureSpec
from .scheme import ConfigError, FieldConfig, LevelScheme, MediumParams, RelaxationSet


class PropagationError(RuntimeError):
    """A trajectory failed at ``z``: non-finite fields, or adaptive steps capped or underflowed."""

    def __init__(self, z: float, message: str | None = None):
        super().__init__(message or f"non-finite field amplitude at z = {z:.6g} L4")
        self.z = z


@dataclass
class PropagationTrace:
    """Field amplitudes at the recorded positions along the medium.

    ``error_estimate`` is the worst accepted local estimate of a run sized
    by the embedded pair (:class:`StepReport`), and None for a run at a
    step count.
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


# The one cache policy, which CoefficientCache.build states: node counts and
# reach, and the probes and tolerance of every column's check
_GRID_N1_PER_MHZ = 0.8
_GRID_N1_MIN = 80
_GRID_N1_MAX = 2048  # a column's tables stay within 4 MB
_GRID_N3 = 20
_GRID_MARGIN = 1.05
# In the scans at the preset, drive 3 stays above 0.76 |G30|, so where the
# trajectories share one non-zero |G30| its axis starts at half of it
# (_drive_nodes), with fewer nodes
_GRID_N3_FITTED = 12
_GRID_FLOOR = 0.5
_VALIDATION_PROBES = 50
_VALIDATION_RTOL = 1e-4
# The probes are the R2 sequence (Roberts, 2018), frac(1/2 + k (1/g, 1/g**2))
# for k = 1, 2, ..., with g the plastic number, the real root of g**3 = g + 1
_PLASTIC = 1.324717957244746
# Drives this many times the grid's top are runaways: their rows stay NaN, as
# at a non-finite drive, since a direct average there overflows
_RUNAWAY = 1e6
# A run given no step count sizes each trajectory's steps by an embedded
# Dormand-Prince 5(4) pair: a step is accepted where its local error
# estimate, each component over its running peak, is at most _STEP_TOL, and
# a trajectory fails past _STEPS_MAX accepted steps.  5e-7 is the loosest of
# 1e-7, 2e-7, 5e-7 and 1e-6 whose benchmark runs stay within half of 1e-6 of
# each trajectory's peak against 16000 fixed steps (3.4e-7 at worst; 7.2e-7
# at 1e-6)
_STEP_TOL = 5e-7
_STEPS_MAX = 65536
# Dormand and Prince, J. Comput. Appl. Math. 6, 19 (1980): the stage rows
# (the last one the fifth-order weights, whose state is the next step's
# first stage) and the error weights, fifth- less fourth-order, by stage
_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


def _drive_nodes(g10: float, g30: float, fitted: bool) -> tuple[np.ndarray, np.ndarray]:
    """The |G1| and |G3| nodes of :meth:`CoefficientCache.build` for boundary drives |G10|, |G30|.

    Chebyshev points of the second kind, ascending: on [0, 1.05 |G10|],
    and on [0, 1.05 |G30|], or, ``fitted``, 12 on [1/2, 1.05] |G30|, the
    axis of runs that share one |G30|.  A zero drive stays exactly zero,
    so its axis is the one node 0.
    """
    n1 = min(_GRID_N1_MAX, max(_GRID_N1_MIN, math.ceil(_GRID_N1_PER_MHZ * g10))) if g10 else 1
    n3 = (_GRID_N3_FITTED if fitted else _GRID_N3) if g30 else 1
    return (_chebyshev(0.0, _GRID_MARGIN * g10, n1),
            _chebyshev(_GRID_FLOOR * g30 if fitted else 0.0, _GRID_MARGIN * g30, n3))


def _chebyshev(bottom: float, top: float, n: int) -> np.ndarray:
    """n Chebyshev points of the second kind on [``bottom``, ``top``], ascending."""
    return bottom + 0.5 * (top - bottom) * (1.0 - np.cos(np.pi / max(n - 1, 1) * np.arange(n)))


def _weights(m: int) -> np.ndarray:
    """Barycentric weights of m second-kind Chebyshev points: (-1)**j, halved at both ends."""
    w = np.where(np.arange(m) % 2, -1.0, 1.0)
    w[[0, -1]] = 0.5 * w[[0, -1]]
    return w


def _basis(x: np.ndarray, nodes: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The barycentric basis (n, m) of ``nodes`` (m,), weights ``w``, at the points ``x`` (n,).

    Row k is w_j / (x_k - x_j) over its sum (Berrut and Trefethen, SIAM
    Review 46, 501 (2004)); where a quotient is infinite, x_k on a node, it
    is that node's unit row, and on a one-node axis every row is 1.  Every
    step is elementwise or along a row, so each row's bits are its own.
    Call it with division warnings off.
    """
    if nodes.size == 1:
        return np.ones((x.size, 1))
    q = w / (x[:, None] - nodes)
    s = q.sum(axis=1, keepdims=True)
    basis = q / s
    if not np.isfinite(s).all():
        hit = np.isinf(q)
        on = hit.any(axis=1)
        basis[on] = hit[on]
    return basis


class CacheValidationError(RuntimeError):
    """Cache interpolation disagrees with direct evaluation beyond tolerance."""


class CoefficientCache:
    """Tensor Chebyshev interpolation of macroscopic coefficients over drive amplitudes.

    One table per column, the probe detuning ``omega4[k]``, all on one
    (|G1|, |G3|) grid of Chebyshev points of the second kind at the drive
    detunings of ``fields``; ``tables`` is (columns, n1, n3, 12), and it is
    all the cache holds.  Each column is read as the tensor-product
    polynomial through its table, in barycentric form (:func:`_basis`), so
    a point on a node reads that node's row.  :meth:`rows` reads a batch of
    points at once and :meth:`reader` binds a read to a batch's columns;
    either keeps a lookup far cheaper than a velocity average.  Queries
    outside the grid, below a fitted |G3| axis too, fall back to direct
    evaluation and are counted in ``fallbacks``; inside a run, a point
    below the axis sends its trajectory to the full axis (:func:`_run`).
    ``validation_error`` is the worst scaled error of the validation probes
    over the columns after :meth:`build`, and None for a cache made
    directly from its tables, which nothing validates.
    """

    def __init__(
        self,
        scheme: LevelScheme,
        relax: RelaxationSet,
        medium: MediumParams,
        fields: FieldConfig,
        omega4: np.ndarray,
        quad: QuadratureSpec,
        g1_grid: np.ndarray,
        g3_grid: np.ndarray,
        tables: np.ndarray,
    ):
        self.scheme = scheme
        self.relax = relax
        self.medium = medium
        self.fields = fields
        self.omega4 = np.asarray(omega4, dtype=float)
        self.quad = quad
        self.g1_grid = np.asarray(g1_grid, dtype=float)
        self.g3_grid = np.asarray(g3_grid, dtype=float)
        self.tables = tables
        self.fallbacks = 0
        self.validation_error: float | None = None
        self._bottom = np.array([self.g1_grid[0], self.g3_grid[0]])
        self._top = np.array([self.g1_grid[-1], self.g3_grid[-1]])
        self._weights = (_weights(self.g1_grid.size), _weights(self.g3_grid.size))

    @classmethod
    def build(
        cls,
        scheme: LevelScheme,
        relax: RelaxationSet,
        medium: MediumParams,
        trajectories: list[FieldConfig],
        quad: QuadratureSpec,
    ) -> "CoefficientCache":
        """Validated cache for ``trajectories`` over [0, 1.05|G10|] x [0 or 1/2, 1.05] |G30|.

        One column per distinct probe detuning of the trajectories, in order
        of first appearance; |G10| and |G30| are the largest of the
        trajectories, so every trajectory starts on the grid.  The
        trajectories share the drive detunings of the first, which
        :func:`_row_source` checks, hence one :class:`DriveGrid` pass over
        the drive points.  One policy, with no settings
        (:func:`_drive_nodes`): Chebyshev points of the second kind,
        min(2048, max(80, ceil(0.8 |G10| / 1 MHz))) along |G1|; along
        |G3|, 12 on [1/2, 1.05] |G30| where the trajectories share one
        non-zero |G30|, as every scan's do, and 20 on [0, 1.05 |G30|]
        otherwise; one node, 0, on the axis of a zero
        drive.  Every column is checked at the same 50 points of the R2
        sequence over the grid, where an error over 1e-4 of a coefficient's
        scale raises :class:`CacheValidationError`.
        """
        omega4 = np.array(list(dict.fromkeys(f.omega4 for f in trajectories)), dtype=float)
        g10 = max(abs(f.g10) for f in trajectories)
        g30 = {abs(f.g30) for f in trajectories}
        g1_grid, g3_grid = _drive_nodes(g10, max(g30), len(g30) == 1 and max(g30) > 0)
        return cls._tabulated(scheme, relax, medium, trajectories[0], omega4, quad,
                              g1_grid, g3_grid)

    @classmethod
    def _tabulated(cls, scheme, relax, medium, fields, omega4, quad, g1_grid,
                   g3_grid) -> "CoefficientCache":
        grid = DriveGrid(scheme, relax, medium, fields, g1_grid, g3_grid, quad)
        cache = cls(scheme, relax, medium, fields, omega4, quad, g1_grid, g3_grid,
                    grid.tables(omega4))
        cache._validate()
        return cache

    def widened(self) -> "CoefficientCache":
        """A new validated cache of the same columns and |G1| nodes on the full |G3| axis.

        The axis is the one :meth:`build` gives trajectories of different
        |G30|: 20 nodes on [0, 1.05 |G30|], for the |G30| of ``fields``.
        It tabulates without calling :meth:`build`, so a tracer that wraps
        :meth:`build` counts this build's time under the run that asks for
        it, not as a cache build.
        """
        g3_grid = _drive_nodes(0.0, abs(self.fields.g30), False)[1]
        return self._tabulated(self.scheme, self.relax, self.medium, self.fields, self.omega4,
                               self.quad, self.g1_grid, g3_grid)

    def _validate(self) -> None:
        # every column at the same points, in one direct pass; errors are
        # relative to each coefficient's scale over its column's table, as a
        # pointwise quotient is ill-conditioned at the cross couplings' zeros
        k = np.arange(1.0, _VALIDATION_PROBES + 1.0)[:, None]
        span = self._top - self._bottom
        probes = self._bottom + (0.5 + k / _PLASTIC ** np.array([1.0, 2.0])) % 1.0 * span
        n_col = self.omega4.size
        cols = np.repeat(np.arange(n_col), _VALIDATION_PROBES)
        g1, g3 = np.tile(probes, (n_col, 1)).T
        interp = self.rows(cols, g1, g3)
        direct = _direct_rows(self.scheme, self.relax, self.medium, self.quad, self.fields,
                              self.omega4[cols], g1, g3)
        scale = np.maximum(np.max(np.abs(self.tables), axis=(1, 2)), 1e-12)[cols]
        errors = np.max(np.abs(interp - direct) / scale, axis=1).reshape(n_col, -1).max(axis=1)
        worst = int(np.argmax(errors))
        self.validation_error = float(errors[worst])
        if self.validation_error > _VALIDATION_RTOL:
            raise CacheValidationError(
                f"cache interpolation error {self.validation_error:.3e} exceeds "
                f"{_VALIDATION_RTOL:.1e} at omega4 = {self.omega4[worst]:.6g} MHz"
            )

    def rows(self, col: np.ndarray, g1_abs: np.ndarray, g3_abs: np.ndarray) -> np.ndarray:
        """Table rows (n, 12) of columns ``col`` at real drive amplitudes.

        Each point is read from its own column, and its row is independent
        of the rest of the batch.  Points outside the grid, below its bottom
        or above its top, are averaged directly, all in one
        :func:`_direct_rows` pass, and counted in ``fallbacks``; points with
        a non-finite amplitude, or one over a million times the grid's top,
        keep NaN rows.
        """
        return self.reader(np.asarray(col))(
            np.column_stack((g1_abs, g3_abs)).astype(float, copy=False))

    def reader(self, col: np.ndarray, leave=None):
        """``read(a)``: the rows of :meth:`rows` for trajectories in columns ``col``.

        ``a`` is (len(col), 2), the trajectories' current (|G1|, |G3|).
        Given ``leave``, points below the grid's bottom keep NaN rows and
        ``leave`` is called with their mask instead of averaging them.  A
        read keeps no state.  It takes the basis along each axis, then, for
        each distinct column of the batch, the batched product
        (m, 1, n1) @ (n1, n3 12) of its m trajectories with that column's
        table, then the product (n, 1, n3) @ (n, n3, 12) along |G3|.
        Every product is one row's, so a row has the same bits in any
        batch, and no stage gathers tables.
        """
        n, (n_col, n1, n3, n_f) = len(col), self.tables.shape
        flat = self.tables.reshape(n_col, n1, n3 * n_f)
        groups = [(flat[c], np.flatnonzero(col == c)) for c in dict.fromkeys(col.tolist())]

        def read(a):
            along = np.empty((n, 1, n3 * n_f))
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                l1 = _basis(a[:, 0], self.g1_grid, self._weights[0])[:, None]
                for table, idx in groups:
                    along[idx] = l1[idx] @ table
                l3 = _basis(a[:, 1], self.g3_grid, self._weights[1])[:, None]
                out = (l3 @ along.reshape(n, n3, n_f)).reshape(n, n_f)
            return self._off_grid(col, a, out, leave)

        return read

    def _off_grid(self, col: np.ndarray, a: np.ndarray, out: np.ndarray, leave) -> np.ndarray:
        """``out`` with the rows of the points ``a`` off the grid, or not finite, replaced."""
        inside = (a >= self._bottom) & (a <= self._top)  # NaN fails both
        if inside.all():
            return out
        off = ~inside.all(axis=1)
        out[off] = np.nan
        # a one-node axis, a zero drive's, has top 0 and judges no runaway
        direct = off & ((a <= _RUNAWAY * self._top) | (self._top == 0.0)).all(axis=1)
        if leave is not None:
            below = direct & (a < self._bottom).any(axis=1)
            if below.any():
                leave(below)
                direct &= ~below
        if direct.any():
            self.fallbacks += int(np.count_nonzero(direct))
            out[direct] = _direct_rows(self.scheme, self.relax, self.medium, self.quad,
                                       self.fields, self.omega4[col[direct]],
                                       a[direct, 0], a[direct, 1])
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


def _direct_rows(scheme, relax, medium, quad, fields: FieldConfig, omega4: np.ndarray,
                 g1_abs: np.ndarray, g3_abs: np.ndarray) -> np.ndarray:
    """Rows (n, 12) of n points averaged directly, in one Doppler-averaging pass.

    Point k is at the drives (``g1_abs[k]``, ``g3_abs[k]``), the probe
    detuning ``omega4[k]`` and the drive detunings of ``fields``, paired
    point by point, so each row equals a one-point average bit for bit.
    """
    return doppler.coefficient_tables(scheme, relax, medium, quad, fields, omega4, g1_abs, g3_abs)


def _row_source(scheme, relax, medium, fields, quad, cache, left):
    """Readers of rows without drive phase: ``bind(idx)`` gives ``read(a)``.

    ``read(a)`` returns fresh (len(idx), 12) rows of trajectories ``idx``
    at the drive amplitudes ``a`` = (|G1|, |G3|), shape (len(idx), 2), and
    NaN rows where an amplitude is not finite (with a cache, also where it
    is over a million times the grid's top).  ``bind`` does the per-batch
    work, so a reader is made once per batch, not per stage.  The
    trajectories ``fields`` share their drive detunings, with a cache its
    grid's, and each reads the cache column of its omega4; ``ValueError``
    is raised where they do not or where no column has it.  The reader is the
    cache's :meth:`CoefficientCache.reader`, which sets ``left[k]`` where
    trajectory k reads below the grid's bottom and gives it NaN rows.
    Without a cache, the reference, each read is one :func:`_direct_rows`
    pass over the whole batch.
    """
    top = fields[0] if cache is None else cache.fields
    if any((f.omega1, f.omega3) != (top.omega1, top.omega3) for f in fields):
        raise ValueError("trajectories differ in their drive detunings")
    omega4 = np.array([f.omega4 for f in fields], dtype=float)
    if cache is not None:
        match = omega4[:, None] == cache.omega4
        if not match.any(axis=1).all():
            raise ValueError("no cache column has a trajectory's probe detuning")
        columns = match.argmax(axis=1)

        def bind_cache(idx):
            def leave(below):
                left[idx[below]] = True

            return cache.reader(columns[idx], leave)

        return bind_cache

    def bind(idx):
        def read(a):
            out = np.full((idx.size, 12), np.nan)
            finite = np.isfinite(a).all(axis=1)
            if finite.any():
                out[finite] = _direct_rows(scheme, relax, medium, quad, top,
                                           omega4[idx[finite]], a[finite, 0], a[finite, 1])
            return out

        return read

    return bind


def check_run(L: float, steps: int | None) -> None:
    """Reject a medium length or step count no integration accepts, with ``ConfigError``.

    Callers that build a cache check first, so a bad flag costs no build.
    """
    if not (math.isfinite(L) and L > 0):
        raise ConfigError("medium length must be positive and finite")
    if steps is not None and steps < 100:
        raise ConfigError("need at least 100 integration steps")


@dataclass
class StepReport:
    """The steps a run took for each of its n trajectories.

    ``requested`` is the run's RK4 step count, or None for a run sized by
    the embedded pair.  ``steps`` (n,) are each trajectory's accepted
    steps, ``rejected`` (n,) its rejected ones and ``stages`` (n,) the
    right-hand sides it evaluated.  ``error`` (n,) is the worst local
    estimate of its accepted steps: |h sum e_i k_i| of each component over
    its peak along the trajectory, the largest of the four.  It is NaN at a
    requested count and where the trajectory failed.  ``failed_at`` (n,) is
    where a trajectory failed, NaN where it did not, and ``cause`` (n,)
    names a failure other than non-finite fields.  ``fallbacks`` counts the
    run's cache reads off the grid, ``validation_error`` is the worst of its
    caches' and ``cache_grid`` the node counts of the cache it was given,
    with the span of its |G3| axis; None for a run without a cache.
    ``reruns`` is 1 where trajectories left a fitted |G3| axis and ran
    again on the full one (:func:`_run`): their ``steps``, ``error``,
    ``failed_at`` and ``cause`` are the second pass's, and their
    ``rejected``, ``stages`` and the run's ``fallbacks`` count the work of
    both passes.
    """

    requested: int | None
    steps: np.ndarray
    error: np.ndarray
    failed_at: np.ndarray
    rejected: np.ndarray
    stages: np.ndarray
    cause: list[str | None]
    fallbacks: int = 0
    validation_error: float | None = None
    cache_grid: dict | None = None
    reruns: int = 0

    def failure(self, k: int) -> PropagationError:
        """The :class:`PropagationError` of failed trajectory ``k``."""
        z = float(self.failed_at[k])
        return PropagationError(z, self.cause[k] and f"{self.cause[k]} at z = {z:.6g} L4")


_REPORTS = contextvars.ContextVar("lcq_step_reports", default=None)


@contextlib.contextmanager
def step_reports():
    """A list that every run made inside the block appends its (fields, :class:`StepReport`) to."""
    reports = []
    token = _REPORTS.set(reports)
    try:
        yield reports
    finally:
        _REPORTS.reset(token)


def _substeps(positions: np.ndarray, steps: float) -> np.ndarray:
    """Each interval's rounded share of ``steps`` over ``positions``, at least one."""
    return np.maximum(1, np.round(np.diff(positions) / (positions[-1] / steps))).astype(int)


def _derivative(read, y: np.ndarray, scheme) -> np.ndarray:
    """:func:`rhs` of the states ``y`` (n, 4), their rows from one ``read`` call.

    The drive phase of G1 G3, 1 where a drive is zero, goes onto the cross
    couplings first.  numpy rounds a complex product differently in
    different kernels; an (n, 2) block times an (n, 1) column takes the
    same one at every n, so a row's bits do not depend on the batch size.
    """
    out = read(np.abs(y[:, :2]))
    prod = y[:, :1] * y[:, 1:2]
    mag = np.abs(prod)
    if mag.all():
        phase = prod / mag
    else:
        phase = np.divide(prod, mag, out=np.ones_like(prod), where=mag > 0)
    out.view(complex)[:, 4:] *= phase
    return rhs(y, out, scheme)


def _lockstep(y0: np.ndarray, positions: np.ndarray, counts: np.ndarray, source, scheme):
    """Fixed-step RK4 of the (n, 4) states ``y0`` from z = 0 through ``positions``.

    Interval k between the ascending ``positions`` takes ``counts[k]``
    equal steps.  ``source`` is a :func:`_row_source` binder; each RK4
    stage reads its (n, 12) rows with one call of the batch's reader, and
    nothing else reads them.  Returns the states (positions, n, 4), where
    each trajectory turned non-finite (NaN if it never did) and the steps
    each took; a failed trajectory leaves the batch, its later states NaN.
    """
    n = y0.shape[0]
    states = np.full((positions.size, n, 4), np.nan, dtype=complex)
    failed_at = np.full(n, np.nan)
    taken = np.full(n, int(counts.sum()))

    def f(y):
        return _derivative(read, y, scheme)

    live = np.arange(n)
    read = source(live)
    y = np.array(y0, dtype=complex, order="F")  # each component one contiguous run
    z, done = 0.0, 0
    # non-finite states are detected after every step and reported, so the
    # overflow that produces them raises no floating-point warning
    with np.errstate(over="ignore", invalid="ignore"):
        states[0] = y
        for k in range(1, positions.size):
            n_sub = int(counts[k - 1])
            h = (positions[k] - positions[k - 1]) / n_sub
            for _ in range(n_sub):
                k1 = f(y)
                k2 = f(y + 0.5 * h * k1)
                k3 = f(y + 0.5 * h * k2)
                k4 = f(y + h * k3)
                y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                z += h
                done += 1
                if not np.isfinite(y).all():
                    bad = ~np.isfinite(y).all(axis=1)
                    failed_at[live[bad]], taken[live[bad]] = z, done
                    live, y = live[~bad], np.asfortranarray(y[~bad])
                    if not live.size:
                        return states, failed_at, taken
                    read = source(live)
            states[k, live] = y
    return states, failed_at, taken


def _embedded(y0: np.ndarray, positions: np.ndarray, source, scheme):
    """The (n, 4) states ``y0`` from z = 0 through ``positions``, each with its own steps.

    Dormand-Prince 5(4) in lockstep, with the step control of Hairer,
    Norsett and Wanner, *Solving Ordinary Differential Equations I*, II.4.
    Each trajectory carries its position, its step and its next record
    position, and each stage reads the rows of every live trajectory with
    one call of the batch's reader.  The last stage's state is the
    fifth-order result and its derivative the next step's first stage, so
    an accepted step costs six stages.
    - A step is accepted where its estimate |h sum e_i k_i|, each component
      over its peak along the trajectory up to the result (zero for a
      component that stays zero), is at most _STEP_TOL in all four.
    - The next step is the last one times clip(0.9 (estimate /
      _STEP_TOL)**(-1/5), 0.2, 5), and no larger right after a rejection.
    - A step that would pass the next record position is clipped to land
      on it; when accepted, the step it was clipped from stays the next.
    - The first step is _STEP_TOL**(1/5) over the fastest relative rate
      |k1| / |y0| of the components, and no longer than the medium.
    A trajectory ends at the last position, or fails: where a result or
    estimate is not finite, at the position the step would have reached;
    past _STEPS_MAX accepted steps; or where its step no longer moves it.
    The stage sums are scalars times arrays in a fixed order and each
    step's factor is taken row by row, so a trajectory's steps and bits
    are those of its lone run.  Returns the states (positions, n, 4), the
    later ones of a failed trajectory NaN, and the :class:`StepReport`.
    """
    n = y0.shape[0]
    states = np.full((positions.size, n, 4), np.nan, dtype=complex)
    failed_at, error, cause = np.full(n, np.nan), np.zeros(n), [None] * n
    steps, rejected, stages = np.zeros(n, int), np.zeros(n, int), np.zeros(n, int)
    live = np.arange(n)
    read = source(live)
    y = np.array(y0, dtype=complex, order="F")
    z, nxt, peak = np.zeros(n), np.ones(n, int), np.abs(y)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        states[0] = y
        k1 = _derivative(read, y, scheme)
        calls = 1
        rate = np.divide(np.abs(k1), peak, out=np.zeros(peak.shape), where=peak > 0).max(axis=1)
        h = _STEP_TOL ** 0.2 / rate
        h = np.where((h > 0) & (h < positions[-1]), h, positions[-1])  # NaN fails both
        grow = np.ones(n, bool)  # False right after a rejection
        while live.size:
            target = positions[nxt]
            clip = z + h >= target
            step = np.where(clip, target - z, h)
            z_new = np.where(clip, target, z + step)
            h_col = step[:, None]
            k = [k1]
            for a in _DP_A:
                acc = a[0] * k[0]
                for aj, kj in zip(a[1:], k[1:]):
                    if aj:
                        acc += aj * kj
                trial = y + h_col * acc
                k.append(_derivative(read, trial, scheme))
            calls += len(_DP_A)
            acc = _DP_E[0] * k[0]
            for ej, kj in zip(_DP_E[1:], k[1:]):
                if ej:
                    acc += ej * kj
            local = np.abs(h_col * acc)
            top = np.maximum(peak, np.abs(trial))
            est = np.divide(local, top, out=np.zeros(top.shape), where=top > 0).max(axis=1)
            bad = ~(np.isfinite(local).all(axis=1) & np.isfinite(trial).all(axis=1))
            ok = (est <= _STEP_TOL) & ~bad
            # row by row: numpy's vector and scalar power kernels may round differently
            fac = np.array([min(5.0, max(0.2, 0.9 * (e / _STEP_TOL) ** -0.2)) if e > 0 else 5.0
                            for e in est.tolist()])
            fac[ok & ~grow] = np.minimum(fac[ok & ~grow], 1.0)
            h = np.where(ok & clip, np.maximum(h, fac * step), fac * step)
            grow = ok
            steps[live] += ok
            rejected[live] += ~ok
            error[live] = np.where(ok, np.maximum(error[live], est), error[live])
            if ok.all():
                y, k1, z, peak = trial, k[-1], z_new, top
            else:
                y[ok], k1[ok], z[ok], peak[ok] = trial[ok], k[-1][ok], z_new[ok], top[ok]
            landed = ok & clip
            states[nxt[landed], live[landed]] = trial[landed]
            nxt = nxt + landed
            done = nxt == positions.size
            capped = ~done & (steps[live] >= _STEPS_MAX)
            stuck = ~(done | capped | bad) & (z + h == z)
            ended = done | bad | capped | stuck
            if not ended.any():
                continue
            stages[live] += calls
            calls = 0
            failed_at[live[bad]] = z_new[bad]
            failed_at[live[capped | stuck]] = z[capped | stuck]
            for j in live[capped]:
                cause[j] = f"adaptive steps reach the cap of {_STEPS_MAX} steps"
            for j in live[stuck]:
                cause[j] = (f"step size underflow: no step keeps the local error within "
                            f"{_STEP_TOL:g} of the trajectory's peak")
            keep = ~ended
            live, z, h, nxt, peak, grow = (a[keep] for a in (live, z, h, nxt, peak, grow))
            y, k1 = np.asfortranarray(y[keep]), np.asfortranarray(k1[keep])
            if live.size:
                read = source(live)
    error[~np.isnan(failed_at)] = np.nan
    return states, StepReport(None, steps, error, failed_at, rejected, stages, cause)


def _run(scheme, relax, medium, fields: list[FieldConfig], y0: np.ndarray, L: float, record_at,
         steps: int | None, quad: QuadratureSpec | None, cache: CoefficientCache | None):
    """The one runner: trajectories ``fields`` from the states ``y0`` (n, 4) at z = 0 to L.

    It steps through z = 0, ``record_at`` and L alone, after
    :func:`check_run` and a ``ValueError`` for a record position not in
    [0, L]; ``quad`` defaults to :meth:`QuadratureSpec.for_medium`.
    Returns the positions, the states (positions, n, 4) and the run's
    :class:`StepReport`, with where each trajectory failed and its cache's
    evidence, which a :func:`step_reports` block also receives.  A run at
    ``steps`` is fixed-step RK4 (:func:`_lockstep`), each interval its
    rounded share of them; a run given no ``steps`` sizes each trajectory's
    steps by the embedded pair (:func:`_embedded`).  A trajectory that
    reads below the cache's fitted |G3| axis (:func:`_drive_nodes`) leaves
    the batch; when the batch is done, those trajectories run again from
    z = 0, in one batch, on :meth:`CoefficientCache.widened`, once.  Each
    trajectory thus gives the bits of its lone run.
    """
    check_run(L, steps)
    record = np.asarray(record_at, dtype=float).ravel()
    if not np.all((record >= 0) & (record <= L * (1 + 1e-12))):  # NaN fails both
        raise ValueError("record positions must be finite and lie in [0, L]")
    # np.union1d would do, but its np.unique imports numpy.ma on first use
    z = np.sort(np.concatenate(([0.0, L], record)))
    z = z[np.concatenate(([True], z[1:] != z[:-1]))]
    if quad is None:
        quad = QuadratureSpec.for_medium(scheme, medium)
    states, report, left = _pass(scheme, relax, medium, fields, y0, z, steps, quad, cache)
    if left.any():
        idx = np.flatnonzero(left)
        states[:, idx], again, _ = _pass(scheme, relax, medium, [fields[k] for k in idx],
                                         y0[idx], z, steps, quad, cache.widened())
        for name in ("steps", "error", "failed_at"):
            getattr(report, name)[idx] = getattr(again, name)
        report.rejected[idx] += again.rejected  # the work of both passes counts
        report.stages[idx] += again.stages
        for k, cause in zip(idx, again.cause):
            report.cause[k] = cause
        report.fallbacks += again.fallbacks
        report.validation_error = max(report.validation_error or 0.0, again.validation_error)
        report.reruns = 1
    reports = _REPORTS.get()
    if reports is not None:
        reports.append((fields, report))
    return z, states, report


def _pass(scheme, relax, medium, fields, y0, z, steps, quad, cache):
    """One integration of :func:`_run` through ``z``: the states, the report and who left."""
    left = np.zeros(len(fields), bool)
    source = _row_source(scheme, relax, medium, fields, quad, cache, left)
    fallbacks = cache.fallbacks if cache is not None else 0
    if steps is None:
        states, report = _embedded(y0, z, source, scheme)
    else:
        counts = _substeps(z, steps)
        states, failed_at, taken = _lockstep(y0, z, counts, source, scheme)
        n = y0.shape[0]
        report = StepReport(steps, np.full(n, counts.sum()), np.full(n, np.nan), failed_at,
                            np.zeros(n, int), 4 * taken, [None] * n)
    if cache is not None:
        report.fallbacks = cache.fallbacks - fallbacks
        report.validation_error = cache.validation_error
        report.cache_grid = {"g1_nodes": cache.g1_grid.size, "g3_nodes": cache.g3_grid.size,
                             "g3_span_MHz": [float(cache.g3_grid[0]), float(cache.g3_grid[-1])]}
    return states, report, left


def integrate(
    scheme: LevelScheme,
    relax: RelaxationSet,
    medium: MediumParams,
    fields: FieldConfig,
    L: float,
    steps: int | None = None,
    quad: QuadratureSpec | None = None,
    cache: CoefficientCache | None = None,
    record_at: np.ndarray | None = None,
) -> PropagationTrace:
    """Runge-Kutta integration of the four coupled waves to z = L.

    Coefficients are re-evaluated at every stage from the local drive
    amplitudes, through ``cache`` (at the column of the fields' detunings)
    or, where it is None, directly: one Doppler average per stage, zero
    drives too, so a run of many steps wants the cache of
    :meth:`CoefficientCache.build`, as every scan builds; where the
    trajectory falls below that cache's fitted |G3| axis, the run goes
    again on :meth:`CoefficientCache.widened`.  The run records and steps
    through z = 0, ``record_at`` and L alone (:func:`_run`), or 257 evenly
    spaced positions where ``record_at`` is None, at ``steps`` or, where
    that is None, sized by the embedded pair, whose worst accepted local
    estimate is the trace's ``error_estimate``.
    """
    if record_at is None:
        check_run(L, steps)  # before the positions are spaced over L
        record_at = np.linspace(0.0, L, 257)
    y0 = np.array([[fields.g10, fields.g30, fields.e40, fields.e20]], dtype=complex)
    z, states, report = _run(scheme, relax, medium, [fields], y0, L, record_at, steps, quad, cache)
    if not np.isnan(report.failed_at[0]):
        raise report.failure(0)
    err = float(report.error[0]) if steps is None else None
    return PropagationTrace(z, *states[:, 0].T, error_estimate=err)


def transmission(
    scheme: LevelScheme,
    relax: RelaxationSet,
    medium: MediumParams,
    fields: list[FieldConfig],
    lengths: np.ndarray,
    steps: int | None = None,
    quad: QuadratureSpec | None = None,
    cache: CoefficientCache | None = None,
) -> tuple[np.ndarray, np.ndarray, StepReport]:
    """Probe transmission I4(L)/I40 of the trajectories ``fields``, integrated in lockstep.

    ``lengths`` ascends to the end of the medium, and the run records
    them alone (:func:`_run`), at ``steps`` or sized by the embedded pair;
    trajectories that fall below a fitted |G3| axis of ``cache`` go again
    on :meth:`CoefficientCache.widened`.  A
    zero probe input E40 is replaced by the small-signal probe 1e-3 |G10|.
    Returns the (n, len(lengths)) ratios, the position where each
    trajectory failed (NaN where it did not; a failed trajectory's ratios
    beyond z = 0 are NaN) and the run's :class:`StepReport`, whose
    :meth:`StepReport.failure` names a failure.
    """
    lengths = np.asarray(lengths, dtype=float)
    e40 = np.array([f.e40 if f.e40 != 0 else 1e-3 * abs(f.g10) for f in fields], dtype=complex)
    if np.any(e40 == 0):
        raise ConfigError("transmission needs a non-zero probe input E40 or drive G10")
    y0 = np.array([[f.g10, f.g30, e, f.e20] for f, e in zip(fields, e40)], dtype=complex)
    z, states, report = _run(scheme, relax, medium, fields, y0, float(lengths[-1]), lengths,
                             steps, quad, cache)
    failed_at = report.failed_at
    e4 = np.abs(states[:, :, 2])  # ratios of amplitudes, squared, do not underflow
    ratio = ((e4[np.searchsorted(z, lengths)] / e4[0]) ** 2).T
    ratio[~np.isnan(failed_at)[:, None] & (lengths > 0)] = np.nan
    return ratio, failed_at, report


@dataclass
class GainMapResult:
    """Transmission map I4(L)/I40 over probe detuning and optical length."""

    omega4: np.ndarray
    lengths: np.ndarray
    ratio: np.ndarray          # (n_omega4, n_lengths)
    valid: np.ndarray          # bool mask, False where integration aborted

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
    steps: int | None = None,
    quad: QuadratureSpec | None = None,
) -> GainMapResult:
    """Probe transmission over a (probe detuning, optical length) grid.

    Each detuning column is one trajectory to max(length_grid), and all
    columns step together, at ``steps`` or sized by the embedded pair
    (:func:`transmission`).  The columns read the
    :meth:`CoefficientCache.build` cache.  A column that fails (its fields turn non-finite, or its
    adaptive steps pass the cap or underflow) keeps only its L = 0 cell
    valid; a map whose every column failed raises :class:`PropagationError`.
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
    cache = CoefficientCache.build(scheme, relax, medium, columns, quad)
    ratio, failed_at, report = transmission(scheme, relax, medium, columns, length_grid,
                                            steps=steps, quad=quad, cache=cache)
    finished = np.isnan(failed_at)
    if not finished.any():
        raise report.failure(0)
    valid = finished[:, None] | (length_grid == 0.0)[None, :]
    return GainMapResult(omega4=omega4_grid, lengths=length_grid, ratio=ratio, valid=valid)
