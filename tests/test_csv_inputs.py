"""Tests for the one CSV input dialect that `calib` and `iou-hist` share."""

import csv
import io
import pathlib
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from lkld.calibration import records_from_csv
from lkld.label_uncertainty import ious_from_csv

# (reader, its name in errors, header, a good row around a cell, a bad row, the bad row's error)
READERS = {
    "calib": (records_from_csv, "prediction", "residual,scale,class_name", "0.1,0.5,{cell}",
              "abc,0.5,car", "could not convert string to float: 'abc'"),
    "iou-hist": (ious_from_csv, "records", "label_id,class_name,iou", "{cell},car,0.5",
                 "c,car,abc", "bad iou cell: could not convert string to float: 'abc'"),
}


def quoted(text: str) -> str:
    """One CSV cell holding ``text`` exactly, quoted as csv.writer quotes it."""
    buffer = io.StringIO()
    csv.writer(buffer, quoting=csv.QUOTE_ALL, lineterminator="").writerow([text])
    return buffer.getvalue()


@pytest.mark.parametrize("name", READERS)
class TestSharedDialect:
    @settings(max_examples=150, deadline=None)
    @given(
        chunks=st.lists(
            st.one_of(
                st.sampled_from(["\n", "\r\n", "\r"]),  # a blank line
                st.text(st.sampled_from('ab,"\r\n '), max_size=12),  # a row with a quoted cell
            ),
            max_size=10,
        ),
        before_header=st.sampled_from(["", "\n", "\r\n\n", "\r"]),
    )
    @example(chunks=["a\nb", "\n"], before_header="")
    @example(chunks=["\r", "x\r\n\ry", "\r\n"], before_header="\r\n\n")
    def test_a_bad_cell_is_reported_at_its_physical_line(self, name, chunks, before_header):
        reader, _, header, row, bad_row, message = READERS[name]
        text = before_header + header + "\n"
        for chunk in chunks:
            text += chunk if chunk in ("\n", "\r\n", "\r") else row.format(cell=quoted(chunk)) + "\n"
        # Every line break before the bad row, in a quoted cell or not; "\r\n" is one.
        line = 1 + len(re.findall(r"\r\n|\r|\n", text))
        with pytest.raises(ValueError, match=re.escape(f"line {line}: {message}")):
            reader(io.StringIO(text + bad_row + "\n", newline=""))

    @pytest.mark.parametrize("text", ["", "\n", "\r\n\n\r"])
    def test_a_table_without_a_header_is_empty(self, name, text):
        reader, what = READERS[name][:2]
        with pytest.raises(ValueError, match=f"^{what} CSV is empty$"):
            reader(io.StringIO(text, newline=""))

    def test_a_field_over_the_limit_names_its_line(self, name):
        reader, _, header, row = READERS[name][:4]
        text = f"\n{header}\n{row.format(cell='x')}\n\n{row.format(cell='y' * 200_000)}\n"
        with pytest.raises(ValueError, match=r"^line 5: field larger than field limit \(131072\)$"):
            reader(io.StringIO(text, newline=""))

    @pytest.mark.parametrize("kind", [str, pathlib.Path])
    def test_a_str_or_a_path_is_a_type_error(self, name, kind, tmp_path):
        reader, what, header, row = READERS[name][:4]
        path = tmp_path / "table.csv"
        path.write_text(f"{header}\n{row.format(cell='x')}\n", encoding="utf-8")
        argument = path.read_text(encoding="utf-8") if kind is str else path
        message = f"the {what} CSV reader takes an iterable of lines, such as an open file, not a str or a path"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            reader(argument)

    def test_header_cells_are_stripped(self, name):
        reader, _, header, row = READERS[name][:4]
        spaced = ",".join(f" {cell} " for cell in header.split(","))
        assert len(reader(io.StringIO(f"{spaced}\n{row.format(cell='x')}\n", newline=""))) == 1
