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
import math
from array import array
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ._util import fmt_sig

__all__ = [
    "CalibrationReport",
    "DEFAULT_GRID",
    "PredictionColumns",
    "laplace_cdf",
    "laplace_quantile",
    "calibration_report",
    "report_to_csv",
    "records_from_csv",
]

DEFAULT_GRID: tuple[float, ...] = tuple(i / 100.0 for i in range(1, 100))


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


def calibration_report(
    residuals: np.ndarray,
    scales: np.ndarray,
    grid: Sequence[float] = DEFAULT_GRID,
) -> CalibrationReport:
    """Observed cumulative fractions of Laplace-CDF scores at each grid point.

    ``observed(p) = |{i : cdf(residuals[i] / scales[i]) <= p}| / n`` over
    parallel 1-d arrays of residuals (label minus predicted location) and
    predicted scales. Residuals must be finite and scales positive and
    finite; a standard score that overflows is rejected.
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
    grid_arr = np.asarray(grid, dtype=float)
    if grid_arr.size == 0:
        raise ValueError("grid must be non-empty")
    if not (np.all(grid_arr > 0.0) and np.all(grid_arr < 1.0)):
        raise ValueError("grid points must lie strictly inside (0, 1)")
    if not np.all(np.diff(grid_arr) > 0.0):
        raise ValueError("grid must be strictly increasing")
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


@dataclass(frozen=True, eq=False)
class PredictionColumns:
    """Parsed prediction rows as columns.

    ``residuals`` and ``scales`` are float64 arrays. ``classes`` holds the
    distinct class names in first-seen order, and ``codes`` is an int64
    array giving each row's index into ``classes``, so row i's class is
    ``classes[codes[i]]``. Names stay Python strings: a numpy string array
    would drop trailing NULs and merge classes such as ``"a"`` and
    ``"a\\x00"``.
    """

    residuals: np.ndarray
    scales: np.ndarray
    classes: tuple[str, ...]
    codes: np.ndarray

    def __len__(self) -> int:
        return len(self.codes)


def records_from_csv(lines: Iterable[str]) -> PredictionColumns:
    """Parse ``residual,scale,class_name`` rows (header required).

    ``lines`` is an iterable of text lines, such as a file opened with
    ``newline=""``; it is read in one pass and only the columns are kept.
    A ``str`` raises ``TypeError``, since iterating it yields characters.
    Blank rows are skipped, before the header as well. Each row is checked
    once: three columns, a finite residual and a positive finite scale.
    Errors name the file line on which the offending row ends, as
    ``csv.reader`` counts lines.
    """
    if isinstance(lines, str):
        raise TypeError("records_from_csv takes an iterable of lines, such as an open file, not a str")
    reader = csv.reader(lines)
    residuals = array("d")
    scales = array("d")
    codes = array("q")
    index: dict[str, int] = {}
    try:
        header = next((row for row in reader if row), None)
        if header is None:
            raise ValueError("prediction CSV is empty")
        if [h.strip() for h in header] != ["residual", "scale", "class_name"]:
            raise ValueError(f"prediction CSV header must be 'residual,scale,class_name', got {header}")
        for row in reader:
            if not row:
                continue
            if len(row) != 3:
                raise ValueError(f"line {reader.line_num}: expected 3 columns, got {len(row)}")
            try:
                residual, scale = float(row[0]), float(row[1])
            except ValueError as exc:
                raise ValueError(f"line {reader.line_num}: {exc}") from exc
            if not math.isfinite(residual):
                raise ValueError(f"line {reader.line_num}: residual must be finite, got {residual}")
            if not (scale > 0.0 and math.isfinite(scale)):
                raise ValueError(
                    f"line {reader.line_num}: scale must be positive and finite, got {scale}"
                )
            residuals.append(residual)
            scales.append(scale)
            codes.append(index.setdefault(row[2], len(index)))
    except csv.Error as exc:
        raise ValueError(f"line {reader.line_num}: {exc}") from exc
    return PredictionColumns(
        np.frombuffer(residuals, dtype=np.float64),
        np.frombuffer(scales, dtype=np.float64),
        tuple(index),
        np.frombuffer(codes, dtype=np.int64),
    )
