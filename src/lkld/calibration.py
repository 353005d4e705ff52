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

import math
from array import array
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ._util import csv_table, csv_text, fmt_sig

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


def _grid_array(grid: Sequence[float]) -> np.ndarray:
    """A calibration grid as a float array: non-empty, inside (0, 1), strictly increasing."""
    grid_arr = np.asarray(grid, dtype=float)
    if grid_arr.size == 0:
        raise ValueError("grid must be non-empty")
    if not ((grid_arr > 0.0).all() and (grid_arr < 1.0).all()):
        raise ValueError("grid points must lie strictly inside (0, 1)")
    if not (np.diff(grid_arr) > 0.0).all():
        raise ValueError("grid must be strictly increasing")
    return grid_arr


def laplace_cdf(z: float | np.ndarray) -> float | np.ndarray:
    """CDF of the standard Laplace distribution.

    Takes a float or an array; a float gives a float, an array an array of
    the same shape. Non-finite input raises ``ValueError``.
    """
    arr = np.asarray(z, dtype=float)
    if not np.isfinite(arr).all():
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
    finite; a standard score that overflows is rejected. The grid must be
    non-empty, inside (0, 1) and strictly increasing; it is checked on
    every call.
    """
    residuals = np.asarray(residuals, dtype=float)
    scales = np.asarray(scales, dtype=float)
    if residuals.ndim != 1 or residuals.shape != scales.shape:
        raise ValueError("residuals and scales must be 1-d arrays of equal length")
    if residuals.size == 0:
        raise ValueError("records must be non-empty")
    if not np.isfinite(residuals).all():
        raise ValueError("residuals must be finite")
    if not ((scales > 0.0).all() and np.isfinite(scales).all()):
        raise ValueError("scales must be positive and finite")
    grid_arr = _grid_array(grid)
    with np.errstate(over="ignore"):
        z = residuals / scales
    scores = laplace_cdf(z)
    scores.sort()
    # Inclusive comparison: a score CDF equal to the grid point counts.
    observed = np.searchsorted(scores, grid_arr, side="right") / float(scores.size)
    curve = tuple(zip(grid_arr.tolist(), observed.tolist()))
    ece = float(abs(observed - grid_arr).sum() / grid_arr.size)
    return CalibrationReport(curve=curve, ece=ece, n=int(scores.size))


def report_to_csv(report: CalibrationReport) -> str:
    """Curve rows followed by a summary line ``ece,<value>``."""
    rows = [(fmt_sig(expected), fmt_sig(observed)) for expected, observed in report.curve]
    return csv_text(("expected_cdf", "observed_cdf"), [*rows, ("ece", fmt_sig(report.ece))])


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
    ``newline=""``, read once in the ``_util.csv_table`` dialect; only the
    columns are kept. Each row is checked once: three columns, a finite
    residual and a positive finite scale. Errors name the row's file line.
    """
    residuals = array("d")
    scales = array("d")
    codes = array("q")
    index: dict[str, int] = {}
    with csv_table(lines, "prediction") as (header, reader):
        if header != ["residual", "scale", "class_name"]:
            raise ValueError(f"prediction CSV header must be 'residual,scale,class_name', got {header}")
        for row in filter(None, reader):
            try:
                if len(row) != 3:
                    raise ValueError(f"expected 3 columns, got {len(row)}")
                residual, scale = float(row[0]), float(row[1])
                if not math.isfinite(residual):
                    raise ValueError(f"residual must be finite, got {residual}")
                if not (scale > 0.0 and math.isfinite(scale)):
                    raise ValueError(f"scale must be positive and finite, got {scale}")
            except ValueError as exc:
                raise ValueError(f"line {reader.line_num}: {exc}") from exc
            residuals.append(residual)
            scales.append(scale)
            codes.append(index.setdefault(row[2], len(index)))
    return PredictionColumns(
        np.frombuffer(residuals, dtype=np.float64),
        np.frombuffer(scales, dtype=np.float64),
        tuple(index),
        np.frombuffer(codes, dtype=np.int64),
    )
