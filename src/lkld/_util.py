"""Small shared helpers: float formatting and atomic file writes."""

from __future__ import annotations

import os
import tempfile


def fmt_sig(x: float, digits: int = 9) -> str:
    """Format a float with the given number of significant digits."""
    return format(float(x), f".{digits}g")


def write_text_atomic(path: str, text: str) -> None:
    """Write text to path via a temp file + rename so readers never see a partial file."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise

