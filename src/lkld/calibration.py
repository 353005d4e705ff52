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
    "reports_from_csv",
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
    the same shape. Non-finite input raises ``ValueError``; for an array it
    names the first non-finite value and its index.
    """
    arr = np.asarray(z, dtype=float)
    finite = np.isfinite(arr)
    if not finite.all():
        if arr.ndim == 0:
            raise ValueError(f"z must be finite, got {z}")
        index = np.unravel_index(int(finite.argmin()), arr.shape)
        at = int(index[0]) if arr.ndim == 1 else tuple(map(int, index))
        raise ValueError(f"z must be finite, got {float(arr[index])} at index {at}")
    cdf = _cdf(arr)
    return float(cdf) if arr.ndim == 0 else cdf


def _cdf(z: np.ndarray) -> np.ndarray:
    """``laplace_cdf`` of a finite array, unchecked."""
    tail = 0.5 * np.exp(-np.abs(z))
    return np.where(z < 0.0, tail, 1.0 - tail)


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
    finite; a standard score that overflows is rejected, naming the first
    such record by its 1-based position. The grid must be non-empty, inside
    (0, 1) and strictly increasing; it is checked on every call.
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
    records = PredictionColumns(residuals, scales, ("",), np.zeros(residuals.size, dtype=np.int64))
    return _report(_count_table(records, grid_arr)[0], grid_arr)


def _count_table(records: PredictionColumns, grid_arr: np.ndarray) -> np.ndarray:
    """Per-class counts of Laplace-CDF scores at or below each grid point.

    Row k of the int64 ``(classes, grid + 1)`` table counts the scores of
    class k's records at or below each grid point, then the records. The
    records are grouped by class with one stable argsort of the codes, and
    each class's scores are sorted once. Counts add up exactly, so the
    tables of disjoint record sets can be summed. A standard score that
    overflows raises ``ValueError``, naming the first such record by its
    1-based position.
    """
    residuals, scales, n_classes = records.residuals, records.scales, len(records.classes)
    with np.errstate(over="ignore"):
        z = residuals / scales
    finite = np.isfinite(z)
    if not finite.all():
        i = int(finite.argmin())
        raise ValueError(
            f"record {i + 1}: the standard score overflows: residual {float(residuals[i])!r}, "
            f"scale {float(scales[i])!r}"
        )
    scores = _cdf(z)
    if n_classes > 1:
        # Codes of 8 or 16 bits take numpy's radix sort.
        scores = scores[np.argsort(records.codes.astype(np.min_scalar_type(n_classes)), kind="stable")]
    sizes = np.bincount(records.codes, minlength=n_classes)
    table = np.empty((n_classes, grid_arr.size + 1), dtype=np.int64)
    table[:, -1] = sizes
    start = 0
    for row, size in zip(table, sizes.tolist()):
        class_scores = scores[start:start + size]
        class_scores.sort()
        # Inclusive comparison: a score CDF equal to the grid point counts.
        row[:-1] = np.searchsorted(class_scores, grid_arr, side="right")
        start += size
    return table


def _report(counts: np.ndarray, grid_arr: np.ndarray) -> CalibrationReport:
    """The report of one row of a ``_count_table``."""
    observed = counts[:-1] / float(counts[-1])
    curve = tuple(zip(grid_arr.tolist(), observed.tolist()))
    ece = float(abs(observed - grid_arr).sum() / grid_arr.size)
    return CalibrationReport(curve=curve, ece=ece, n=int(counts[-1]))


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
    """Parse ``residual,scale,class_name`` rows (header required) in one stream.

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
    return _columns(residuals, scales, index, codes)


def reports_from_csv(
    lines: Iterable[str] | os.PathLike, grid: Sequence[float] = DEFAULT_GRID
) -> tuple[CalibrationReport, dict[str, CalibrationReport]]:
    """The pooled report of the rows ``records_from_csv`` reads, and one
    report per class, keyed by class name in first-seen order.

    ``lines`` is an iterable of lines, parsed by ``records_from_csv``, or
    the path of a file, opened the same way (UTF-8, ``newline=""``). The
    grid is checked first. A path is converted in byte-range shares
    (``_count_shares``): one per whole ``_SHARE_BYTES`` of the file and per
    CPU in the affinity mask (Linux only, and only while no other Python
    thread runs), and at least one. Each cut falls just after a newline.
    This process converts the first share, with no pipe and no fork when it
    is the only one, and a forked child each other one (see ``_fork``).
    Each share counts its own rows in ``_count_table``, so a child sends its
    class names and a count table, not its columns; the tables are added
    with the classes in first-seen order, and the pooled counts are the sum
    of the class rows. A share converts its bytes a chunk at a time, without
    ``csv``, so it fails on any chunk that ``csv`` might read otherwise than
    as plain lines of comma-separated cells: one with a ``"`` (a quoted cell
    may also run across a cut), a NUL or a ``\\r`` outside ``\\r\\n``. It
    also fails if it cannot be read or decoded, holds a bad row or no header
    (the first share), a standard score that overflows, or its child dies.
    If a pipe or a fork cannot be had, or any share fails, the open file is
    parsed by ``records_from_csv`` in one stream and counted here. The
    reports are those of ``calibration_report`` on all the records and on
    each class's, and every error is that of the one-stream parse and
    count: an overflow names its record's 1-based position in the file, and
    no rows raise ``ValueError``.
    """
    grid_arr = _grid_array(grid)
    if not isinstance(lines, os.PathLike):
        parts = [_counted(records_from_csv(lines), grid_arr)]
    else:
        with open(lines, "r", encoding="utf-8", newline="") as handle:
            # perfbench/tracing.py wraps records_from_csv by name, so the fallback calls the module's.
            parts = _count_shares(handle.fileno(), grid_arr) or [_counted(records_from_csv(handle), grid_arr)]
    index: dict[str, int] = {}
    remaps = [[index.setdefault(name, len(index)) for name in classes] for classes, _ in parts]
    counts = np.zeros((len(index), grid_arr.size + 1), dtype=np.int64)
    for remap, (_, table) in zip(remaps, parts):
        counts[remap] += table
    pooled = counts.sum(axis=0)
    if not pooled[-1]:
        raise ValueError("records must be non-empty")
    return _report(pooled, grid_arr), {name: _report(row, grid_arr) for name, row in zip(index, counts)}


def _counted(columns: PredictionColumns, grid_arr: np.ndarray) -> tuple[tuple[str, ...], np.ndarray]:
    """The class names of some records and their ``_count_table``."""
    return columns.classes, _count_table(columns, grid_arr)


def _columns(residuals: array, scales: array, index: dict[str, int], codes: array) -> PredictionColumns:
    """The parsed arrays as ``PredictionColumns``, sharing their buffers."""
    return PredictionColumns(
        np.frombuffer(residuals, dtype=np.float64),
        np.frombuffer(scales, dtype=np.float64),
        tuple(index),
        np.frombuffer(codes, dtype=np.int64),
    )


# The smallest share worth a child: forking, piping and reaping one costs
# about as much as parsing 300 kB, so a file is split only into shares of 1 MiB or more.
_SHARE_BYTES = 1 << 20
# Bytes read at a time within a share; each chunk is cut after its last newline.
_CHUNK_BYTES = 1 << 16


def _count_shares(fd: int, grid_arr: np.ndarray) -> list[tuple[tuple[str, ...], np.ndarray]] | None:
    """``_counted`` of the open file's columns in each byte-range share, one
    per ``_SHARE_BYTES`` and CPU and at least one, in file order, or
    ``None`` if ``_fork.run_shares`` gives ``None``."""
    from . import _fork

    size = os.fstat(fd).st_size
    n = _fork.workers(size // _SHARE_BYTES)
    cuts = [0]
    for k in range(1, n):
        cuts.append(_line_end(fd, max(cuts[-1], k * size // n), size))
    cuts.append(size)
    return _fork.run_shares(lambda k: _counted(_share_columns(fd, cuts[k], cuts[k + 1], header=k == 0), grid_arr), n)


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

