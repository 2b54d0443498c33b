"""Scan layer: spectra, spatial dynamics and switching curves as column tables.

Each scan returns a table, a dict of float64 columns in CSV order, carrying
only physical ratios and coefficients (absolute field scales are not
physical in this model).  Tables are reproducible bit-for-bit across runs,
and :data:`UNITS` gives each column's unit for CSV emission.
"""

from __future__ import annotations

import numpy as np

from . import doppler, propagate
from .doppler import QuadratureSpec
from .scheme import ConfigError, FieldConfig, LevelScheme, MediumParams, RelaxationSet

UNITS = {
    "omega4": "MHz",
    "omega2": "MHz",
    "g10": "MHz",
    "z": "L4",
    "length": "L4",
    "alpha1": "1/L4",
    "alpha2": "1/L4",
    "alpha3": "1/L4",
    "alpha4": "1/L4",
    "deltak1": "1/L4",
    "deltak2": "1/L4",
    "deltak3": "1/L4",
    "deltak4": "1/L4",
    "re_gamma4": "1/L4",
    "im_gamma4": "1/L4",
    "re_gamma2": "1/L4",
    "im_gamma2": "1/L4",
    "i1_ratio": "1",
    "i2_over_i40": "1",
    "i3_ratio": "1",
    "i4_ratio": "1",
    "gain": "1",
}


def scan_table(scan: str, **columns) -> dict[str, np.ndarray]:
    """The columns of ``scan`` as float64 arrays, checked to be finite and of one length."""
    out = {name: np.asarray(values, dtype=float) for name, values in columns.items()}
    if len({col.shape for col in out.values()}) > 1:
        raise ValueError(f"columns of scan {scan!r} differ in length")
    for name, col in out.items():
        if not np.isfinite(col).all():
            raise ValueError(f"non-finite value in column {name!r} of scan {scan!r}")
    return out


def column_header(name: str) -> str:
    return f"{name}[{UNITS.get(name, '1')}]"


def spectra_scan(
    scheme: LevelScheme,
    relax: RelaxationSet,
    medium: MediumParams,
    base: FieldConfig,
    sweep: np.ndarray,
    G1: complex | None = None,
    G3: complex | None = None,
    quad: QuadratureSpec | None = None,
) -> dict[str, np.ndarray]:
    """Macroscopic coefficient spectra along a probe-detuning (omega4) sweep.

    The Stokes detuning is slaved to omega2 = omega1 + omega3 - omega4.
    Drive amplitudes default to the boundary values of ``base`` and can be
    overridden (for spectra at partially depleted drives).  The whole sweep
    is one Doppler-averaging pass, with the sweep as its probe axis.
    """
    sweep = np.asarray(sweep, dtype=float)
    if sweep.size == 0:
        raise ValueError("sweep must be non-empty")
    if quad is None:
        quad = QuadratureSpec.for_medium(scheme, medium)
    tables = doppler.coefficient_tables(
        scheme, relax, medium, quad, base, sweep,
        complex(base.g10 if G1 is None else G1), complex(base.g30 if G3 is None else G3))
    return scan_table("spectra", omega4=sweep, omega2=base.omega1 + base.omega3 - sweep,
                      **doppler.MacroscopicCoefficients.columns(tables))


def spatial_dynamics(
    scheme: LevelScheme,
    relax: RelaxationSet,
    medium: MediumParams,
    fields: FieldConfig,
    L: float,
    steps: int | None = None,
    quad: QuadratureSpec | None = None,
) -> dict[str, np.ndarray]:
    """Intensity evolution of all four waves along the medium.

    Emits I_j(z)/I_j(0) for the waves with non-zero input and the generated
    Stokes intensity normalized to the probe input I2(z)/I40, at 257
    evenly spaced positions, integrated at ``steps`` or sized by the
    embedded pair (:func:`propagate.integrate`), through the
    :meth:`propagate.CoefficientCache.build` cache.
    """
    if fields.e40 == 0:
        raise ConfigError("spatial dynamics needs a non-zero probe input E40")
    propagate.check_run(L, steps)
    if quad is None:
        quad = QuadratureSpec.for_medium(scheme, medium)
    trace = propagate.integrate(
        scheme, relax, medium, fields, L, steps=steps, quad=quad,
        cache=propagate.CoefficientCache.build(scheme, relax, medium, [fields], quad),
    )
    g1, g3, e4, e2 = (np.abs(w) for w in (trace.g1, trace.g3, trace.e4, trace.e2))

    def ratio(a, a0):  # of amplitudes, squared, so that it does not underflow
        return (a / a0) ** 2 if a0 else np.zeros_like(a)

    return scan_table("dynamics", z=trace.z, i1_ratio=ratio(g1, g1[0]), i3_ratio=ratio(g3, g3[0]),
                      i4_ratio=ratio(e4, e4[0]), i2_over_i40=ratio(e2, e4[0]))


def switching_curve(
    scheme: LevelScheme,
    relax: RelaxationSet,
    medium: MediumParams,
    base: FieldConfig,
    L: float,
    sweep: np.ndarray,
    axis: str = "omega4",
    steps: int | None = None,
    quad: QuadratureSpec | None = None,
) -> dict[str, np.ndarray]:
    """Transmission I4(L)/I40 at fixed optical length versus a control knob.

    ``axis`` selects the swept control: the probe detuning or the drive
    boundary amplitude G10.  Either way the sweep points are trajectories
    of one :func:`propagate.transmission` run, which reads the
    :meth:`propagate.CoefficientCache.build` cache, at ``steps`` or sized
    by the embedded pair, and a point that fails raises
    :class:`propagate.PropagationError`.  Use :func:`transparency_crossings`
    to locate the points where the curve passes through unity.
    """
    sweep = np.asarray(sweep, dtype=float)
    if sweep.size == 0:
        raise ValueError("sweep must be non-empty")
    if axis == "omega4":
        points = [base.with_omega4(float(value)) for value in sweep]
    elif axis == "g10":
        points = [base.with_drives(value, base.g30) for value in sweep]
    else:
        raise ValueError("axis must be 'omega4' or 'g10'")
    propagate.check_run(L, steps)
    if quad is None:
        quad = QuadratureSpec.for_medium(scheme, medium)
    cache = propagate.CoefficientCache.build(scheme, relax, medium, points, quad)
    ratio, failed_at, report = propagate.transmission(
        scheme, relax, medium, points, np.array([L]), steps=steps, quad=quad, cache=cache)
    failed = np.flatnonzero(~np.isnan(failed_at))
    if failed.size:
        raise report.failure(int(failed[0]))
    return scan_table("switch", **{axis: sweep, "i4_ratio": ratio[:, 0]})


def transparency_crossings(table: dict[str, np.ndarray], column: str) -> list[float]:
    """Interpolated values of ``column`` where the table's I4(L)/I40 crosses unity."""
    xs, ys = table[column].tolist(), table["i4_ratio"].tolist()
    crossings = []
    for i in range(len(xs) - 1):
        lo, hi = ys[i] - 1.0, ys[i + 1] - 1.0
        if lo == 0.0:
            crossings.append(xs[i])
        elif lo * hi < 0.0:
            t = lo / (lo - hi)
            crossings.append(xs[i] + t * (xs[i + 1] - xs[i]))
    if ys[-1] == 1.0:
        crossings.append(xs[-1])
    return crossings


def gain_map_records(result: propagate.GainMapResult) -> dict[str, np.ndarray]:
    """A gain map as a table of its valid cells, detuning-major."""
    omega4, length = np.meshgrid(result.omega4, result.lengths, indexing="ij")
    v = result.valid
    return scan_table("gainmap", omega4=omega4[v], length=length[v], gain=result.ratio[v])


def csv_text(table: dict[str, np.ndarray]) -> str:
    """A table as CSV text with name[unit] headers and 17 significant digits.

    A column whose values all share one bit pattern is written into the
    row template once; the other columns' values fill every row in one
    ``%`` formatting, which gives the digits of ``"{:.17g}".format``.
    """
    columns = [np.asarray(col, dtype=float) for col in table.values()]
    if not columns or not columns[0].size:
        raise ValueError("no rows to write")
    cells, varying = [], []
    for col in columns:
        if (col.view(np.int64) == col[:1].view(np.int64)).all():
            cells.append("%.17g" % col[0])
        else:
            cells.append("%.17g")
            varying.append(col)
    header = ",".join(column_header(c) for c in table).replace("%", "%%")
    values = np.stack(varying, axis=1).ravel().tolist() if varying else []
    return (header + "\n" + (",".join(cells) + "\n") * columns[0].size) % tuple(values)


def records_to_csv(table: dict[str, np.ndarray], path) -> None:
    """Write :func:`csv_text` of the table to ``path``."""
    text = csv_text(table)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
