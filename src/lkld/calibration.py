"""Calibration of predicted Laplace distributions against realized residuals.

Each residual is converted to a standard score (residual / predicted scale)
and pushed through the standard Laplace CDF. For a calibrated predictor
those CDF values are uniform, so the observed cumulative fraction at each
expected probability should match it. The report carries the resulting
(expected, observed) curve and a scalar summary: the mean absolute gap
between the two, reported here as ``ece``. That summary is an
artifact-defined convenience, not a standard metric.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._util import fmt_sig

__all__ = [
    "PredictionRecord",
    "CalibrationReport",
    "DEFAULT_GRID",
    "standard_score",
    "laplace_cdf",
    "laplace_quantile",
    "calibration_report",
    "calibration_report_arrays",
    "report_to_csv",
    "records_from_csv",
]

DEFAULT_GRID: tuple[float, ...] = tuple(i / 100.0 for i in range(1, 100))


@dataclass(frozen=True)
class PredictionRecord:
    """One residual (label minus predicted location) with its predicted scale."""

    residual: float
    scale: float
    class_name: str = ""

    def __post_init__(self) -> None:
        if not math.isfinite(self.residual):
            raise ValueError(f"residual must be finite, got {self.residual}")
        if not (self.scale > 0.0) or not math.isfinite(self.scale):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")


def standard_score(record: PredictionRecord) -> float:
    """Residual in units of the predicted scale."""
    return record.residual / record.scale


def laplace_cdf(z: float | np.ndarray) -> float | np.ndarray:
    """CDF of the standard Laplace distribution.

    Takes a float or an array; a float gives a float, an array an array of
    the same shape. Non-finite input raises ``ValueError``.
    """
    arr = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"z must be finite, got {z}")
    tail = 0.5 * np.exp(-np.abs(arr))
    cdf = np.where(arr < 0.0, tail, 1.0 - tail)
    return float(cdf) if arr.ndim == 0 else cdf


def laplace_quantile(p: float | np.ndarray) -> float | np.ndarray:
    """Inverse CDF of the standard Laplace distribution, p in (0, 1).

    Takes a float or an array; a float gives a float, an array an array of
    the same shape. Any p outside (0, 1) raises ``ValueError``.
    """
    arr = np.asarray(p, dtype=float)
    if not np.all((arr > 0.0) & (arr < 1.0)):
        raise ValueError(f"p must be in (0, 1), got {p}")
    q = np.where(arr < 0.5, np.log(2.0 * arr), -np.log(2.0 * (1.0 - arr)))
    return float(q) if arr.ndim == 0 else q


@dataclass(frozen=True)
class CalibrationReport:
    """(expected_cdf, observed_cdf) pairs plus their mean absolute gap."""

    curve: tuple[tuple[float, float], ...]
    ece: float
    n: int


def _check_grid(grid: Sequence[float]) -> np.ndarray:
    arr = np.asarray(grid, dtype=float)
    if arr.size == 0:
        raise ValueError("grid must be non-empty")
    if not (np.all(arr > 0.0) and np.all(arr < 1.0)):
        raise ValueError("grid points must lie strictly inside (0, 1)")
    if not np.all(np.diff(arr) > 0.0):
        raise ValueError("grid must be strictly increasing")
    return arr


def calibration_report(
    records: Sequence[PredictionRecord],
    grid: Sequence[float] = DEFAULT_GRID,
) -> CalibrationReport:
    """Observed cumulative fractions of Laplace-CDF scores at each grid point.

    ``observed(p) = |{records : cdf(standard_score) <= p}| / n``.
    """
    n = len(records)
    residuals = np.fromiter((r.residual for r in records), dtype=float, count=n)
    scales = np.fromiter((r.scale for r in records), dtype=float, count=n)
    return calibration_report_arrays(residuals, scales, grid)


def calibration_report_arrays(
    residuals: np.ndarray,
    scales: np.ndarray,
    grid: Sequence[float] = DEFAULT_GRID,
) -> CalibrationReport:
    """``calibration_report`` over parallel residual and scale arrays.

    Validates what ``PredictionRecord`` validates (finite residuals,
    positive finite scales) and rejects a standard score that overflows.
    """
    residuals = np.asarray(residuals, dtype=float)
    scales = np.asarray(scales, dtype=float)
    if residuals.ndim != 1 or residuals.shape != scales.shape:
        raise ValueError("residuals and scales must be 1-d arrays of equal length")
    if residuals.size == 0:
        raise ValueError("records must be non-empty")
    if not np.all(np.isfinite(residuals)):
        raise ValueError("residuals must be finite")
    if not (np.all(scales > 0.0) and np.all(np.isfinite(scales))):
        raise ValueError("scales must be positive and finite")
    grid_arr = _check_grid(grid)
    with np.errstate(over="ignore"):
        z = residuals / scales
    scores = np.sort(laplace_cdf(z))
    # Inclusive comparison: a score CDF equal to the grid point counts.
    observed = np.searchsorted(scores, grid_arr, side="right") / float(scores.size)
    curve = tuple(zip(grid_arr.tolist(), observed.tolist()))
    ece = float(np.mean(np.abs(observed - grid_arr)))
    return CalibrationReport(curve=curve, ece=ece, n=int(scores.size))


def report_to_csv(report: CalibrationReport) -> str:
    """Curve rows followed by a summary line ``ece,<value>``."""
    lines = ["expected_cdf,observed_cdf"]
    for expected, observed in report.curve:
        lines.append(f"{fmt_sig(expected)},{fmt_sig(observed)}")
    lines.append(f"ece,{fmt_sig(report.ece)}")
    return "\n".join(lines) + "\n"


def records_from_csv(text: str) -> list[PredictionRecord]:
    """Parse ``residual,scale,class_name`` rows (header required)."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("prediction CSV is empty") from None
    expected = ["residual", "scale", "class_name"]
    if [h.strip() for h in header] != expected:
        raise ValueError(f"prediction CSV header must be {','.join(expected)!r}, got {header}")
    records: list[PredictionRecord] = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise ValueError(f"line {lineno}: expected 3 columns, got {len(row)}")
        try:
            records.append(
                PredictionRecord(residual=float(row[0]), scale=float(row[1]), class_name=row[2])
            )
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    return records
