"""Scan layer: spectra, spatial dynamics and switching curves as records.

Each scan returns a list of :class:`ScanRecord` carrying only physical
ratios and coefficients (absolute field scales are not physical in this
model).  Records are plain numbers, reproducible bit-for-bit across runs and
thread counts, and carry their column units for CSV emission.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class ScanRecord:
    """One row of a scan table: scan id plus named numeric columns."""

    scan: str
    values: dict[str, float]

    def __post_init__(self) -> None:
        for name, val in self.values.items():
            if not np.isfinite(val):
                raise ValueError(f"non-finite value in column {name!r} of scan {self.scan!r}")


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
) -> list[ScanRecord]:
    """Macroscopic coefficient spectra along a probe-detuning (omega4) sweep.

    The Stokes detuning is slaved to omega2 = omega1 + omega3 - omega4.
    Drive amplitudes default to the boundary values of ``base`` and can be
    overridden (for spectra at partially depleted drives).  The whole sweep
    is one Doppler-averaging pass with one probe column per point.
    """
    sweep = np.asarray(sweep, dtype=float)
    if sweep.size == 0:
        raise ValueError("sweep must be non-empty")
    if quad is None:
        quad = QuadratureSpec.for_medium(scheme, medium)
    columns = [base.with_omega4(float(value)) for value in sweep]
    tables = doppler.coefficient_tables(
        scheme, relax, medium, quad, columns,
        complex(base.g10 if G1 is None else G1), complex(base.g30 if G3 is None else G3))
    records = []
    for fields, row in zip(columns, tables):
        mc = doppler.MacroscopicCoefficients.from_vector(row)
        records.append(ScanRecord("spectra", {
            "omega4": fields.omega4,
            "omega2": fields.omega2,
            "alpha1": mc.alpha1,
            "alpha2": mc.alpha2,
            "alpha3": mc.alpha3,
            "alpha4": mc.alpha4,
            "deltak1": mc.deltak1,
            "deltak2": mc.deltak2,
            "deltak3": mc.deltak3,
            "deltak4": mc.deltak4,
            "re_gamma4": mc.gamma4.real,
            "im_gamma4": mc.gamma4.imag,
            "re_gamma2": mc.gamma2.real,
            "im_gamma2": mc.gamma2.imag,
        }))
    return records


def spatial_dynamics(
    scheme: LevelScheme,
    relax: RelaxationSet,
    medium: MediumParams,
    fields: FieldConfig,
    L: float,
    steps: int | None = None,
    quad: QuadratureSpec | None = None,
    threads: int = 1,
) -> list[ScanRecord]:
    """Intensity evolution of all four waves along the medium.

    Emits I_j(z)/I_j(0) for the waves with non-zero input and the generated
    Stokes intensity normalized to the probe input I2(z)/I40, at 257
    evenly spaced positions, integrated at ``steps`` or sized by step
    doubling (:func:`propagate.integrate`).  The
    :func:`propagate.cache_for` build, if any, runs on ``threads`` worker
    threads.
    """
    if fields.e40 == 0:
        raise ConfigError("spatial dynamics needs a non-zero probe input E40")
    propagate.check_run(L, steps)
    if quad is None:
        quad = QuadratureSpec.for_medium(scheme, medium)
    trace = propagate.integrate(
        scheme, relax, medium, fields, L, steps=steps, quad=quad,
        cache=propagate.cache_for(scheme, relax, medium, [fields], quad, threads),
        error_estimate=False,
    )
    i40 = abs(fields.e40) ** 2
    g10 = abs(fields.g10) ** 2
    g30 = abs(fields.g30) ** 2
    records = []
    for i in range(trace.z.size):
        records.append(ScanRecord("dynamics", {
            "z": float(trace.z[i]),
            "i1_ratio": abs(trace.g1[i]) ** 2 / g10 if g10 else 0.0,
            "i3_ratio": abs(trace.g3[i]) ** 2 / g30 if g30 else 0.0,
            "i4_ratio": abs(trace.e4[i]) ** 2 / i40,
            "i2_over_i40": abs(trace.e2[i]) ** 2 / i40,
        }))
    return records


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
    threads: int = 1,
) -> list[ScanRecord]:
    """Transmission I4(L)/I40 at fixed optical length versus a control knob.

    ``axis`` selects the swept control: the probe detuning or the drive
    boundary amplitude G10.  Either way the sweep points are trajectories
    of one :func:`propagate.transmission` run, which reads the
    :func:`propagate.cache_for` cache built on ``threads`` worker threads,
    at ``steps`` or sized by step doubling, and a point that fails raises
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
    cache = propagate.cache_for(scheme, relax, medium, points, quad, threads)
    ratio, failed_at, report = propagate.transmission(
        scheme, relax, medium, points, np.array([L]), steps=steps, quad=quad, cache=cache)
    failed = np.flatnonzero(~np.isnan(failed_at))
    if failed.size:
        raise report.failure(int(failed[0]))
    return [ScanRecord("switch", {axis: float(value), "i4_ratio": float(r)})
            for value, r in zip(sweep, ratio[:, 0])]


def transparency_crossings(records: list[ScanRecord], column: str) -> list[float]:
    """Interpolated control values where I4(L)/I40 crosses unity."""
    xs = np.array([r.values[column] for r in records])
    ys = np.array([r.values["i4_ratio"] for r in records])
    crossings = []
    for i in range(xs.size - 1):
        lo, hi = ys[i] - 1.0, ys[i + 1] - 1.0
        if lo == 0.0:
            crossings.append(float(xs[i]))
        elif lo * hi < 0.0:
            t = lo / (lo - hi)
            crossings.append(float(xs[i] + t * (xs[i + 1] - xs[i])))
    if ys[-1] == 1.0:
        crossings.append(float(xs[-1]))
    return crossings


def gain_map_records(result: propagate.GainMapResult) -> list[ScanRecord]:
    """Flatten a gain map into records, skipping invalid cells."""
    records = []
    for i, omega4 in enumerate(result.omega4):
        for j, length in enumerate(result.lengths):
            if result.valid[i, j]:
                records.append(ScanRecord("gainmap", {
                    "omega4": float(omega4),
                    "length": float(length),
                    "gain": float(result.ratio[i, j]),
                }))
    return records


def csv_text(records: list[ScanRecord]) -> str:
    """Records as CSV text with name[unit] headers and 17 significant digits."""
    if not records:
        raise ValueError("no records to write")
    columns = list(records[0].values.keys())
    for r in records:
        if list(r.values.keys()) != columns:
            raise ValueError("inconsistent record columns")
    lines = [",".join(column_header(c) for c in columns)]
    for r in records:
        lines.append(",".join(f"{r.values[c]:.17g}" for c in columns))
    return "\n".join(lines) + "\n"


def records_to_csv(records: list[ScanRecord], path) -> None:
    """Write :func:`csv_text` of the records to ``path``."""
    text = csv_text(records)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
