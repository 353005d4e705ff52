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
import os
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


def records_from_csv(lines: Iterable[str] | os.PathLike) -> PredictionColumns:
    """Parse ``residual,scale,class_name`` rows (header required).

    ``lines`` is an iterable of text lines, such as a file opened with
    ``newline=""``, read once in the ``_util.csv_table`` dialect, or the path
    of a file, which is opened that way (UTF-8, ``newline=""``); only the
    columns are kept. Each row is checked once: three columns, a finite
    residual and a positive finite scale. Errors name the row's file line.

    A path of at least ``2 * _SHARE_BYTES`` bytes is parsed in byte-range
    shares, one per CPU in the affinity mask (Linux only, and only while no
    other Python thread runs): each cut falls just after a newline, this
    process converts the first share and a forked child each other one (see
    ``_fork``), and the shares' columns are joined in file order with the
    classes in first-seen order. A share converts its bytes a chunk at a
    time, without ``csv``, so it fails on any chunk that ``csv`` might read
    otherwise than as plain lines of comma-separated cells: one with a
    ``"`` (a quoted cell may also run across a cut), a NUL or a ``\\r``
    outside ``\\r\\n``. It also fails if it cannot be read or decoded, holds
    a bad row or no header (the first share), or its child dies. If a pipe
    or a fork cannot be had, or any share fails, the whole file is parsed
    in one stream. The columns and every error are thus those of the
    one-stream parse of the open file.
    """
    if not isinstance(lines, os.PathLike):
        return _parse(lines)
    with open(lines, "r", encoding="utf-8", newline="") as handle:
        split = _parse_shares(handle.fileno())
        return _parse(handle) if split is None else split


def _parse(lines: Iterable[str]) -> PredictionColumns:
    """``records_from_csv`` of an iterable of lines: one stream, one pass."""
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
    return _columns(residuals, scales, index, codes)


def _columns(residuals: array, scales: array, index: dict[str, int], codes: array) -> PredictionColumns:
    """The parsed arrays as ``PredictionColumns``, sharing their buffers."""
    return PredictionColumns(
        np.frombuffer(residuals, dtype=np.float64),
        np.frombuffer(scales, dtype=np.float64),
        tuple(index),
        np.frombuffer(codes, dtype=np.int64),
    )


# The smallest share worth a child: forking, piping and reaping one costs
# about as much as parsing 300 kB, so a share is never under 1 MiB.
_SHARE_BYTES = 1 << 20
# Bytes read at a time within a share; each chunk is cut after its last newline.
_CHUNK_BYTES = 1 << 16


def _parse_shares(fd: int) -> PredictionColumns | None:
    """The open file's columns parsed in forked byte-range shares, or ``None``
    if it is too small to split, there is one CPU, or ``_fork.run_shares``
    gives ``None``."""
    size = os.fstat(fd).st_size
    if size < 2 * _SHARE_BYTES:
        return None
    from . import _fork

    n = _fork.workers(size // _SHARE_BYTES)
    if n < 2:
        return None
    cuts = [0]
    for k in range(1, n):
        cuts.append(_line_end(fd, max(cuts[-1], k * size // n), size))
    cuts.append(size)
    parts = _fork.run_shares(lambda k: _share_columns(fd, cuts[k], cuts[k + 1], header=k == 0), n)
    return None if parts is None else _joined(parts)


def _line_end(fd: int, pos: int, size: int) -> int:
    """The offset just past the first newline at or after ``pos``, or ``size``."""
    while pos < size:
        data = os.pread(fd, _CHUNK_BYTES, pos)
        if not data:
            break
        found = data.find(b"\n")
        if found >= 0:
            return pos + found + 1
        pos += len(data)
    return size


def _share_columns(fd: int, start: int, stop: int, header: bool) -> PredictionColumns:
    """The columns of bytes ``[start, stop)``, after the header line if ``header``.

    The bytes come from ``os.pread``, so no file offset moves, in chunks cut
    after their last newline, and each chunk is converted whole. A chunk
    that ``csv.reader`` might read otherwise than as plain comma-separated
    lines (one with a ``"``, a NUL or a ``\\r`` outside ``\\r\\n``, or
    longer than ``csv.field_size_limit()``) raises ``ValueError``, naming
    no line, as does any fault of the rows.
    """
    others = bytes(c for c in range(256) if c not in b",\n")  # every byte but the separators
    residuals, scales, codes = array("d"), array("d"), array("q")
    index: dict[str, int] = {}
    while start < stop:
        data = os.pread(fd, min(_CHUNK_BYTES, stop - start), start)
        end = len(data) if start + len(data) == stop else data.rfind(b"\n") + 1
        chunk = data[:end]
        if b"\r" in chunk:
            chunk = chunk.replace(b"\r\n", b"\n")
        if not end or end > csv.field_size_limit() or any(c in chunk for c in (b'"', b"\0", b"\r")):
            raise ValueError(f"cannot convert the chunk at byte {start}")
        start += end
        # Three cells a line shows as ",,\n" a line among the separators. A
        # chunk with blank lines, or whose last line has no newline, is
        # rewritten first with each non-blank line ended by a newline.
        seps = chunk.translate(None, others)
        if seps != b",,\n" * (len(seps) // 3) or not chunk.endswith(b"\n"):
            chunk = b"".join(line + b"\n" for line in chunk.split(b"\n") if line)
            seps = chunk.translate(None, others)
            if seps != b",,\n" * (len(seps) // 3):
                raise ValueError(f"a line before byte {start} does not have 3 columns")
        if header and chunk:
            line, _, chunk = chunk.partition(b"\n")
            if [cell.strip() for cell in line.decode("utf-8").split(",")] != ["residual", "scale", "class_name"]:
                raise ValueError(f"prediction CSV header must be 'residual,scale,class_name', got {line!r}")
            header = False
        if not chunk:
            continue
        cells = chunk.decode("utf-8").replace("\n", ",").split(",")
        del cells[-1]  # the empty cell after the last newline
        chunk_residuals = array("d", map(float, cells[0::3]))
        chunk_scales = array("d", map(float, cells[1::3]))
        residual, scale = np.frombuffer(chunk_residuals), np.frombuffer(chunk_scales)
        if not (np.isfinite(residual).all() and (scale > 0.0).all() and np.isfinite(scale).all()):
            raise ValueError(f"a residual before byte {start} is not finite or a scale not positive and finite")
        names = cells[2::3]
        for name in dict.fromkeys(names):
            index.setdefault(name, len(index))
        residuals += chunk_residuals
        scales += chunk_scales
        codes += array("q", map(index.__getitem__, names))
    if header:
        raise ValueError("prediction CSV is empty")
    return _columns(residuals, scales, index, codes)


def _joined(parts: list[PredictionColumns]) -> PredictionColumns:
    """The shares' columns end to end, each share's codes mapped into the
    first-seen order of all classes. Empties ``parts``, so that each column
    of the shares is freed as soon as it is copied."""
    index: dict[str, int] = {}
    remaps = [np.array([index.setdefault(name, len(index)) for name in part.classes], dtype=np.int64)
              for part in parts]
    residuals = [part.residuals for part in parts]
    scales = [part.scales for part in parts]
    codes = [part.codes for part in parts]
    parts.clear()
    residuals = np.concatenate(residuals)
    scales = np.concatenate(scales)
    joined = np.empty(len(residuals), dtype=np.int64)
    start = 0
    for remap, piece in zip(remaps, codes):
        np.take(remap, piece, out=joined[start:start + len(piece)])
        start += len(piece)
    return PredictionColumns(residuals, scales, tuple(index), joined)
