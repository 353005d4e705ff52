"""Small shared helpers: float formatting, JSON value checks, the CSV input dialect, the numeric
CSV writer, atomic writes."""

from __future__ import annotations

import csv
import os
import stat
import tempfile
from contextlib import contextmanager
from typing import Any, Iterable, Iterator, Sequence


def fmt_sig(x: float, digits: int = 9) -> str:
    """Format a float with the given number of significant digits."""
    return format(float(x), f".{digits}g")


def json_int(value: object, what: str) -> int:
    """A JSON integer; floats, booleans and strings are rejected, named by ``what``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def json_number(value: object, what: str) -> float:
    """A JSON number as a float; booleans, strings and integers beyond the float
    range are rejected, named by ``what``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(
            f"{what} must be a number within the float range, got an integer of {len(str(abs(value)))} digits"
        ) from None


def json_str(value: object, what: str) -> str:
    """A JSON string; numbers, booleans and ``null`` are rejected, named by ``what``."""
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a string, got {value!r}")
    return value


@contextmanager
def csv_table(lines: Iterable[str], what: str) -> Iterator[tuple[list[str], Any]]:
    """The CSV input dialect: yield the stripped header cells and a reader past them.

    Blank rows before the header are skipped; callers skip later ones with ``filter(None, reader)``
    and name a row by ``reader.line_num``. A ``csv.Error`` in the block becomes ``line N: ...``.
    """
    if isinstance(lines, str):
        raise TypeError(f"the {what} CSV reader takes an iterable of lines, such as an open file, not a str")
    reader = csv.reader(lines)
    try:
        header = next(filter(None, reader), None)
        if header is None:
            raise ValueError(f"{what} CSV is empty")
        yield [cell.strip() for cell in header], reader
    except csv.Error as exc:
        raise ValueError(f"line {reader.line_num}: {exc}") from exc


def csv_text(header: Sequence[str], rows: Iterable[Sequence[str]], comment: str | None = None) -> str:
    """A numeric table as CSV text: each row's cells joined by ``,`` and ended by ``\n``.

    Cells must need no quoting. ``comment``, when given, comes first as a ``# `` line.
    """
    lines = [] if comment is None else [f"# {comment}"]
    lines.append(",".join(header))
    lines += map(",".join, rows)
    return "\n".join(lines) + "\n"


def _umask() -> int:
    """The process umask; reading it means setting it, so it is put back at once."""
    mask = os.umask(0o022)
    os.umask(mask)
    return mask


def write_text_atomic(path: str, text: str) -> None:
    """Write text to path via a temp file + rename so readers never see a partial file.

    A new file gets the mode ``open()`` would give it, 0o666 less the umask;
    a file that exists keeps its mode.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        mode = 0o666 & ~_umask()
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as handle:
            os.chmod(tmp, mode)
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise

