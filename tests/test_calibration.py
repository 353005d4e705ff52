"""Tests for the Laplace CDF, calibration reports, and the prediction CSV parser."""

import csv
import io
import math
import os
import pickle
import re
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from conftest import SHARE_FAILURES, assert_all_children_reaped, cpus, share_failure
from lkld import calibration
from lkld.calibration import (
    DEFAULT_GRID,
    CalibrationReport,
    calibration_report,
    laplace_cdf,
    laplace_quantile,
    records_from_csv,
    report_to_csv,
    reports_from_csv,
)
from oracles import reference_calibration_reports


def perfect_records(n=10_000, scale=1.0):
    """(residuals, scales): residuals exactly at the rank quantiles of a Laplace of that scale."""
    residuals = scale * laplace_quantile((np.arange(1, n + 1) - 0.5) / n)
    return residuals, np.full(n, scale)


class TestLaplaceCdf:
    def test_median(self):
        assert laplace_cdf(0.0) == 0.5

    def test_log_two_quantile(self):
        assert laplace_cdf(math.log(2.0)) == pytest.approx(0.75, abs=1e-15)

    def test_symmetry(self):
        assert laplace_cdf(-math.log(2.0)) == pytest.approx(0.25, abs=1e-15)
        z = np.linspace(-6, 6, 101)
        for v in z:
            assert laplace_cdf(float(v)) + laplace_cdf(float(-v)) == pytest.approx(1.0, abs=1e-12)

    def test_quantile_round_trip(self):
        for p in np.linspace(0.01, 0.99, 43):
            assert laplace_cdf(laplace_quantile(float(p))) == pytest.approx(p, abs=1e-12)

    def test_arrays_match_scalars(self):
        p = np.linspace(0.001, 0.999, 37)
        q = laplace_quantile(p)
        assert isinstance(laplace_quantile(0.3), float)
        assert isinstance(laplace_cdf(0.3), float)
        np.testing.assert_array_equal(q, [laplace_quantile(float(v)) for v in p])
        np.testing.assert_array_equal(laplace_cdf(q), [laplace_cdf(float(v)) for v in q])

    def test_out_of_domain_rejected(self):
        for p in (0.0, 1.0, -0.5, float("nan")):
            with pytest.raises(ValueError):
                laplace_quantile(p)
        with pytest.raises(ValueError):
            laplace_quantile(np.array([0.5, 1.0]))
        for z in (math.inf, math.nan):
            with pytest.raises(ValueError):
                laplace_cdf(z)
        with pytest.raises(ValueError):
            laplace_cdf(np.array([0.0, -math.inf]))

    def test_non_finite_errors_name_the_first_value_and_its_index(self):
        with pytest.raises(ValueError, match=r"^z must be finite, got inf$"):
            laplace_cdf(math.inf)
        with pytest.raises(ValueError, match=r"^z must be finite, got -inf at index 2$"):
            laplace_cdf(np.array([0.0, 1.0, -math.inf, math.nan]))
        # A long array is not printed: only its first bad value is named.
        z = np.zeros(200_000)
        z[123_456:] = math.inf
        with pytest.raises(ValueError, match=r"^z must be finite, got inf at index 123456$"):
            laplace_cdf(z)
        with pytest.raises(ValueError, match=re.escape("z must be finite, got nan at index (1, 0)")):
            laplace_cdf(np.array([[0.0, 1.0], [math.nan, 2.0]]))


class TestCalibrationReport:
    def test_perfectly_calibrated_ranks(self):
        report = calibration_report(*perfect_records())
        assert report.ece < 0.001
        assert report.n == 10_000

    def test_halved_scales_are_visibly_overconfident(self):
        residuals, scales = perfect_records()
        report = calibration_report(residuals, scales * 0.5)
        assert report.ece > 0.05
        curve = dict(report.curve)
        assert curve[0.55] < 0.55  # tails too heavy for the claimed scale

    def test_single_record_boundary_convention(self):
        report = calibration_report([0.0], [1.0], grid=(0.25, 0.5, 0.75))
        assert report.curve == ((0.25, 0.0), (0.5, 1.0), (0.75, 1.0))
        assert report.ece == pytest.approx((0.25 + 0.5 + 0.25) / 3.0, abs=1e-15)

    def test_curve_monotone_for_arbitrary_inputs(self):
        rng = np.random.default_rng(31)
        report = calibration_report(rng.normal(0, 2, 500), 10.0 ** rng.uniform(-1, 1, 500))
        observed = [o for _, o in report.curve]
        assert all(b >= a for a, b in zip(observed, observed[1:]))

    def test_ece_is_mean_absolute_gap(self):
        report = calibration_report(*perfect_records(100), grid=(0.2, 0.4, 0.6, 0.8))
        gaps = [abs(o - e) for e, o in report.curve]
        assert report.ece == pytest.approx(sum(gaps) / len(gaps), abs=1e-15)

    def test_probability_integral_transform_is_uniform(self):
        rng = np.random.default_rng(32)
        n = 50_000
        scales = 10.0 ** rng.uniform(-1, 1, n)
        residuals = scales * np.array([laplace_quantile(float(u)) for u in rng.uniform(1e-12, 1 - 1e-12, n)])
        pit = laplace_cdf(residuals / scales)
        statistic = stats.kstest(pit, "uniform").statistic
        assert statistic < 0.01

    def test_miscaling_in_either_direction_raises_ece(self):
        residuals, scales = perfect_records(5000)
        ece_1 = calibration_report(residuals, scales).ece
        ece_2 = calibration_report(residuals, 2.0 * scales).ece
        ece_half = calibration_report(residuals, 0.5 * scales).ece
        assert ece_1 < ece_2
        assert ece_1 < ece_half

    def test_validation(self):
        with pytest.raises(ValueError):
            calibration_report([], [])
        with pytest.raises(ValueError):
            calibration_report(*perfect_records(10), grid=(0.5, 0.5))
        with pytest.raises(ValueError):
            calibration_report(*perfect_records(10), grid=(0.0, 0.5))

    @pytest.mark.parametrize(
        "residual,scale",
        [
            (math.nan, 1.0),  # non-finite residual
            (math.inf, 1.0),
            (0.5, 0.0),  # non-positive scale
            (0.5, -1.0),
            (0.5, math.inf),
            (1e300, 1e-10),  # standard score overflows to inf
        ],
    )
    def test_array_core_rejects_what_records_reject(self, residual, scale):
        with pytest.raises(ValueError):
            calibration_report(np.array([0.1, residual, -0.2]), np.array([1.0, scale, 0.5]))

    def test_an_overflowing_standard_score_names_its_record(self):
        residuals = np.array([0.1, -0.2, 1e300, -1e300])
        scales = np.array([1.0, 0.5, 1e-10, 1e-10])
        message = "record 3: the standard score overflows: residual 1e+300, scale 1e-10"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            calibration_report(residuals, scales)

    def test_array_core_validation(self):
        with pytest.raises(ValueError):
            calibration_report(np.array([]), np.array([]))
        with pytest.raises(ValueError):
            calibration_report(np.zeros(3), np.ones(2))
        with pytest.raises(ValueError):
            calibration_report(np.zeros(3), np.ones(3), grid=(0.5, 0.5))

    def test_default_grid(self):
        assert len(DEFAULT_GRID) == 99
        assert DEFAULT_GRID[0] == 0.01
        assert DEFAULT_GRID[-1] == 0.99

    def test_default_grid_matches_the_same_grid_passed_as_a_list(self):
        rng = np.random.default_rng(5)
        residuals, scales = rng.laplace(0.0, 0.3, 256), 10.0 ** rng.uniform(-1, 0, 256)
        default = calibration_report(residuals, scales)
        given = calibration_report(residuals, scales, grid=list(DEFAULT_GRID))
        assert default.curve == given.curve
        assert default.ece == given.ece
        assert default.n == given.n

    @pytest.mark.parametrize(
        "grid, message",
        [
            ((), "grid must be non-empty"),
            ((0.0, 0.5), "grid points must lie strictly inside (0, 1)"),
            ((0.5, 1.0), "grid points must lie strictly inside (0, 1)"),
            ((0.5, 0.5), "grid must be strictly increasing"),
            ((0.6, 0.4), "grid must be strictly increasing"),
        ],
    )
    def test_other_grids_are_checked_on_every_call(self, grid, message):
        for _ in range(2):
            with pytest.raises(ValueError, match=re.escape(message)):
                calibration_report(np.zeros(3), np.ones(3), grid=grid)


class TestCsv:
    def test_report_round_trip_format(self):
        report = CalibrationReport(curve=((0.25, 0.2), (0.5, 0.5)), ece=0.025, n=4)
        text = report_to_csv(report)
        assert text == "expected_cdf,observed_cdf\n0.25,0.2\n0.5,0.5\nece,0.025\n"

    def test_parse_records(self):
        text = "residual,scale,class_name\n0.5,0.2,vehicle\n-0.1,1.5,bike\n"
        preds = records_from_csv(io.StringIO(text))
        assert len(preds) == 2
        assert preds.residuals.dtype == preds.scales.dtype == np.float64
        assert preds.codes.dtype == np.int64
        assert preds.residuals.tolist() == [0.5, -0.1]
        assert preds.scales.tolist() == [0.2, 1.5]
        assert preds.classes == ("vehicle", "bike")
        assert preds.codes.tolist() == [0, 1]

    def test_class_names_keep_trailing_nuls(self):
        preds = records_from_csv(io.StringIO('residual,scale,class_name\n0.5,0.2,a\n0.1,0.3,"a\x00"\n'))
        assert preds.classes == ("a", "a\x00")

    def test_classes_and_codes_rebuild_each_row(self):
        names = ["car", "", "a\x00", "a", "car", "x\ry", "x\ny", "a\x00", "", "x\ry", "\u00e9"]
        buffer = io.StringIO(newline="")
        writer = csv.writer(buffer)  # "\r\n" rows, so a "\r" in a name is quoted
        writer.writerow(["residual", "scale", "class_name"])
        writer.writerows([i * 0.25 - 1.0, 1.0 + i, name] for i, name in enumerate(names))
        buffer.seek(0)
        preds = records_from_csv(buffer)
        assert [preds.classes[k] for k in preds.codes] == names
        assert preds.classes == ("car", "", "a\x00", "a", "x\ry", "x\ny", "\u00e9")
        assert preds.residuals.tolist() == [i * 0.25 - 1.0 for i in range(len(names))]

    def test_blank_rows_before_the_header_are_skipped(self):
        preds = records_from_csv(io.StringIO("\n\r\n\nresidual,scale,class_name\n\n0.5,0.2,a\n"))
        assert preds.residuals.tolist() == [0.5]
        assert preds.classes == ("a",)
        with pytest.raises(ValueError, match="prediction CSV is empty"):
            records_from_csv(io.StringIO("\n\n"))
        with pytest.raises(ValueError, match="line 4: expected 3 columns"):
            records_from_csv(io.StringIO("\n\nresidual,scale,class_name\n1.0,2.0\n"))

    def test_parse_memory_per_row_is_bounded(self, tmp_path):
        """Parsing keeps the columns only, not the text or one object per cell."""
        n = 50_000
        names = ("car", "pedestrian", "cyclist", "truck", "")
        path = tmp_path / "records.csv"
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write("residual,scale,class_name\n")
            for i in range(n):
                handle.write(f"{math.sin(i)!r},{1.0 + (i % 97) / 7.0!r},{names[i % 5]}\n")
        with open(path, "r", encoding="utf-8", newline="") as handle:
            tracemalloc.start()
            try:
                preds = records_from_csv(handle)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert len(preds) == n
        assert peak / n < 60.0  # bytes per row; the columns alone take 24

    @pytest.mark.parametrize("kind", ["list", "generator", "StringIO", "open file"])
    def test_any_iterable_of_lines_is_read_in_one_stream(self, tmp_path, kind):
        """Any iterable of lines reads as the open file does; a quoted cell may span two of them."""
        text = 'residual,scale,class_name\r\n0.5,0.2,"a,b"\r\n\r\n-0.1,1.5,"x\ny"\r\n0.25,2.0,a\r\n'
        path = tmp_path / "records.csv"
        path.write_text(text, encoding="utf-8", newline="")

        def lines(text):
            if kind == "list":
                return text.splitlines(keepends=True)
            if kind == "generator":
                return (line for line in text.splitlines(keepends=True))
            if kind == "StringIO":
                return io.StringIO(text, newline="")
            return open(path, "r", encoding="utf-8", newline="")

        preds = records_from_csv(lines(text))
        assert preds.classes == ("a,b", "x\ny", "a")
        assert preds.codes.tolist() == [0, 1, 2]
        assert preds.residuals.tolist() == [0.5, -0.1, 0.25]
        assert repr(reports_from_csv(lines(text))) == repr(reports_from_csv(path))
        path.write_text(text + "abc,1.0,x\r\n", encoding="utf-8", newline="")
        with pytest.raises(ValueError, match="^line 7: could not convert string to float: 'abc'$"):
            records_from_csv(lines(text + "abc,1.0,x\r\n"))

    @pytest.mark.parametrize(
        "body, message",
        [
            ("1.0,2.0\n", r"line 2: expected 3 columns, got 2"),
            ("1.0,0.5,x\nabc,1.0,x\n", r"line 3: could not convert"),
            ("1.0,0.5,x\n\ninf,1.0,x\n", r"line 4: residual must be finite"),
            ("1.0,0.5,\"a\nb\"\n\nabc,1.0,x\n", r"line 5: could not convert"),
            ("1.0,-1.0,x\n", r"line 2: scale must be positive and finite"),
            ("1.0,nan,x\n", r"line 2: scale must be positive and finite"),
            ("1.0,0.5,x\n1.0,0.5,\"" + "y" * 200_000 + "\"\n", r"line 3: field larger than field limit"),
        ],
    )
    def test_parse_errors_name_the_line(self, body, message):
        with pytest.raises(ValueError, match=message):
            records_from_csv(io.StringIO("residual,scale,class_name\n" + body))

    def test_parse_rejects_bad_header_and_rows(self):
        with pytest.raises(ValueError):
            records_from_csv(io.StringIO(""))
        with pytest.raises(ValueError):
            records_from_csv(io.StringIO("foo,bar\n1,2\n"))
        with pytest.raises(ValueError):
            records_from_csv(io.StringIO("residual,scale,class_name\n1.0,-1.0,x\n"))
        with pytest.raises(ValueError):
            records_from_csv(io.StringIO("residual,scale,class_name\nabc,1.0,x\n"))


def counted(source, grid=DEFAULT_GRID):
    """reports_from_csv of a path, or of the open file at a ``str`` path: the
    reports' repr, or the type and message of the error."""
    try:
        if isinstance(source, Path):
            reports = reports_from_csv(source, grid)
        else:
            with open(source, "r", encoding="utf-8", newline="") as handle:
                reports = reports_from_csv(handle, grid)
    except ValueError as exc:
        return type(exc), str(exc)
    return repr(reports)


def write_records(path, n, names=("car", "pedestrian", "cyclist", "truck", "")):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("residual,scale,class_name\n")
        for i in range(n):
            handle.write(f"{math.sin(i)!r},{1.0 + (i % 97) / 7.0!r},{names[i % len(names)]}\n")


def check_a_failing_share(tmp_path, monkeypatch, failure, result):
    """Inject ``failure`` into the second of two shares of a 20k-row file:
    ``result`` of its path must equal ``result`` of the open file."""
    path = tmp_path / "records.csv"
    write_records(path, 20_000)
    parses, waits = [], []
    real_parse, real_waitpid = calibration.records_from_csv, os.waitpid

    def parse(lines):
        parses.append(lines.tell())
        return real_parse(lines)

    def waitpid(pid, options):
        try:
            return real_waitpid(pid, options)
        except ChildProcessError:
            waits.append(pid)
            raise

    monkeypatch.setattr(calibration, "records_from_csv", parse)
    monkeypatch.setattr(os, "waitpid", waitpid)
    monkeypatch.setattr(os, "sched_getaffinity", cpus(2))
    monkeypatch.setattr(calibration, "_SHARE_BYTES", 1 << 16)
    with share_failure(failure, calibration, "_share_columns") as shares:
        got = result(path)
    monkeypatch.undo()
    # A failed share has the whole file parsed here in one stream, from its
    # start, after this process converted the first share; with no pipe or
    # fork to be had, before any share runs. Where SIGCHLD is ignored the
    # child reaps itself, and the value it sent in full is kept.
    if failure == "SIGCHLD ignored":
        assert (len(shares), parses, len(waits)) == (1, [], 1)
    else:
        assert (len(shares), parses, waits) == (0 if failure.startswith("refused") else 1, [0], [])
    assert got == result(str(path))
    assert_all_children_reaped()


ENDINGS = st.sampled_from([b"\n"] * 6 + [b"\r\n", b"\r"])
RESIDUAL_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: repr(x).encode()),
    st.sampled_from([b"1_0", b" 2 ", b"-0.0", b"0"]),
)
SCALE_CELLS = st.one_of(
    st.floats(min_value=1e-300, max_value=1e300).map(lambda x: repr(x).encode()),
    st.sampled_from([b"1_0", b" 2 ", b"1e-320"]),
)
CLASS_CELLS = st.one_of(
    st.sampled_from(["", "car", "\u00e9", "\u8f66", "a\x00", "\x00"]),
    # Lone surrogates (category Cs) have no UTF-8 encoding.
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters='",\r\n'), max_size=3),
).map(lambda name: name.encode("utf-8"))
ROWS = st.one_of(
    st.tuples(RESIDUAL_CELLS, SCALE_CELLS, CLASS_CELLS).map(b",".join),
    st.just(b""),
)
# At most one line that the one-stream parse rejects, or that stops a share.
ODD_LINES = st.sampled_from([
    *[None] * 7,
    b"1.0,2.0",  # two columns
    b"inf,1,x",  # a residual that is not finite
    b"0.5,-0.0,x",  # a scale that is not positive
    b"abc,1,x",  # a residual that is not a number
    b'0.5,1,"a\nb"',  # a quoted cell over two lines
    b'0.5,1,"a\n1,1,b"',
    b'0.5,1,"a,b"',
    b"0.5,1,\xff",  # invalid UTF-8
    b"7",  # one cell and no comma
])


class TestSplitParse:
    """A path of a large file is converted in forked byte-range shares: the
    reports and errors are those of the one-stream parse of the open file,
    and no child outlives the call."""

    @settings(max_examples=150, deadline=None)
    @given(
        header=st.sampled_from([b"residual,scale,class_name", b"residual, scale , class_name"]),
        blanks=st.lists(ENDINGS, max_size=2),
        lines=st.lists(st.tuples(ROWS, ENDINGS), max_size=40),
        odd=ODD_LINES,
        odd_at=st.integers(0, 40),
        last_ending=st.booleans(),
        n_cpus=st.integers(1, 4),
        share_bytes=st.integers(1, 64),
        chunk_bytes=st.sampled_from([64, 1 << 16]),
    )
    # The cut falls inside the quoted cell, whose second line reads as a row.
    @example(header=b"residual,scale,class_name", blanks=[], lines=[(b"1,1,c", b"\n")] * 2,
             odd=b'0.5,1,"a\n1,1,b"', odd_at=0, last_ending=True, n_cpus=2, share_bytes=8, chunk_bytes=1 << 16)
    # The last row has no newline, and its class name is empty.
    @example(header=b"residual,scale,class_name", blanks=[], lines=[(b"0.0,1.0,", b"\n")],
             odd=None, odd_at=0, last_ending=False, n_cpus=2, share_bytes=1, chunk_bytes=64)
    # "\r\n" endings, a blank "\r\n" line among them, and no final ending.
    @example(header=b"residual,scale,class_name", blanks=[b"\r\n"],
             lines=[(b"1,1,c", b"\r\n"), (b"", b"\r\n"), (b"2,3,d", b"\r\n"), (b"-1,2,c", b"\r\n")],
             odd=None, odd_at=0, last_ending=False, n_cpus=2, share_bytes=8, chunk_bytes=64)
    # A last line of one cell and no newline, after a row that has three.
    @example(header=b"residual,scale,class_name", blanks=[], lines=[(b"1,1,c", b"\n")] * 3,
             odd=b"7", odd_at=3, last_ending=False, n_cpus=2, share_bytes=8, chunk_bytes=64)
    # A bare "\r" ends a row in the one-stream parse.
    @example(header=b"residual,scale,class_name", blanks=[], lines=[(b"1,1,c", b"\r"), (b"2,3,d", b"\n")] * 3,
             odd=None, odd_at=0, last_ending=True, n_cpus=2, share_bytes=8, chunk_bytes=64)
    # A class name that is a NUL, in every share.
    @example(header=b"residual,scale,class_name", blanks=[], lines=[(b"1,1,\x00", b"\n"), (b"2,3,a\x00", b"\n")] * 4,
             odd=None, odd_at=0, last_ending=True, n_cpus=2, share_bytes=8, chunk_bytes=64)
    # The first share holds only blank lines, so the header falls in the second
    # (more blank lines than the strategy draws).
    @example(header=b"residual,scale,class_name", blanks=[b"\n"] * 40, lines=[(b"1,1,c", b"\n")],
             odd=None, odd_at=0, last_ending=True, n_cpus=2, share_bytes=1, chunk_bytes=64)
    # Blank lines only: no share holds a header.
    @example(header=b"", blanks=[b"\n"] * 40, lines=[],
             odd=None, odd_at=0, last_ending=True, n_cpus=2, share_bytes=1, chunk_bytes=64)
    # The header's cells are stripped.
    @example(header=b"residual, scale , class_name", blanks=[], lines=[(b"1,1,c", b"\n")] * 4,
             odd=None, odd_at=0, last_ending=True, n_cpus=2, share_bytes=8, chunk_bytes=64)
    # Cells that float() reads and a stricter number parser would not.
    @example(header=b"residual,scale,class_name", blanks=[], lines=[(b"1_0, 2 ,c", b"\n"), (b" 2 ,1_0,d", b"\n")] * 3,
             odd=None, odd_at=0, last_ending=True, n_cpus=2, share_bytes=8, chunk_bytes=64)
    def test_split_equals_the_one_stream_parse(
        self, header, blanks, lines, odd, odd_at, last_ending, n_cpus, share_bytes, chunk_bytes
    ):
        lines = [row + ending for row, ending in lines]
        if odd is not None:
            lines.insert(min(odd_at, len(lines)), odd + b"\n")
        data = b"".join([*blanks, header + b"\n", *lines])
        if not last_ending:
            data = data.rstrip(b"\r\n")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "records.csv"
            path.write_bytes(data)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(os, "sched_getaffinity", cpus(n_cpus))
                patch.setattr(calibration, "_SHARE_BYTES", share_bytes)
                patch.setattr(calibration, "_CHUNK_BYTES", chunk_bytes)
                split = counted(path)
            assert split == counted(str(path))
        assert_all_children_reaped()

    def test_shares_join_in_file_order(self, tmp_path, monkeypatch):
        # Classes first seen in the second and third shares, in another order there.
        path = tmp_path / "records.csv"
        names = ["a"] * 30 + ["c", "b", "a"] * 10 + ["", "d", "b"] * 10
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write("residual,scale,class_name\n")
            handle.writelines(f"{i / 7!r},{1 + i / 3!r},{name}\n" for i, name in enumerate(names))
        forks, shares, parses = [], [], []
        real_fork, real_share, real_parse = os.fork, calibration._share_columns, calibration.records_from_csv
        monkeypatch.setattr(os, "fork", lambda: forks.append(None) or real_fork())
        monkeypatch.setattr(calibration, "_share_columns", lambda fd, start, *rest, **kwargs: shares.append(start)
                            or real_share(fd, start, *rest, **kwargs))
        monkeypatch.setattr(calibration, "records_from_csv", lambda lines: parses.append(None) or real_parse(lines))
        monkeypatch.setattr(os, "sched_getaffinity", cpus(3))
        monkeypatch.setattr(calibration, "_SHARE_BYTES", 256)
        reports = reports_from_csv(path)
        # Two children, this process converted only the first share, and the one-stream parse never ran.
        assert len(forks) == 2 and shares == [0] and parses == []
        per_class = reports[1]
        assert list(per_class) == ["a", "c", "b", "", "d"]
        assert [report.n for report in per_class.values()] == [names.count(name) for name in per_class]
        assert repr(reports) == counted(str(path))
        monkeypatch.setattr(os, "sched_getaffinity", cpus(1))
        assert counted(path) == counted(str(path))
        assert_all_children_reaped()

    @pytest.mark.parametrize("case", ["small", "one-cpu", "thread"])
    def test_no_fork_for_a_small_file_one_cpu_or_another_thread(self, tmp_path, monkeypatch, case):
        path = tmp_path / "records.csv"
        write_records(path, 200)
        monkeypatch.setattr(os, "sched_getaffinity", cpus(1 if case == "one-cpu" else 2))
        size = path.stat().st_size
        monkeypatch.setattr(calibration, "_SHARE_BYTES", size if case == "small" else 64)
        forks, shares, parses = [], [], []
        real_share, real_parse = calibration._share_columns, calibration.records_from_csv
        monkeypatch.setattr(os, "fork", lambda: forks.append(None) or pytest.fail("forked"))
        monkeypatch.setattr(calibration, "_share_columns", lambda *args, **kwargs: shares.append(None)
                            or real_share(*args, **kwargs))
        monkeypatch.setattr(calibration, "records_from_csv", lambda lines: parses.append(None) or real_parse(lines))
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        if case == "thread":
            thread.start()
        try:
            got = counted(path)
        finally:
            stop.set()
            if case == "thread":
                thread.join(timeout=60)
        # One share, converted here; the one-stream parse never ran.
        assert (forks, len(shares), parses) == ([], 1, [])
        monkeypatch.setattr(calibration, "records_from_csv", real_parse)
        assert got == counted(str(path))


def oracle_reports(path, grid=DEFAULT_GRID):
    """The sort-based oracle's reports of the one-stream parse of the file at ``path``."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        return repr(reference_calibration_reports(records_from_csv(handle), grid))


RESIDUALS = st.one_of(
    st.floats(-40.0, 40.0, allow_nan=False),
    st.sampled_from([0.0, -0.0, math.log(2.0), -math.log(2.0)]),  # scores 0.5, 0.75 and 0.25
)


class TestReportsFromCsv:
    """``reports_from_csv`` counts each share's rows where it is converted;
    its reports are those of the sort-based oracle on the one-stream parse."""

    @settings(max_examples=100, deadline=None)
    @given(
        records=st.lists(
            st.tuples(RESIDUALS, st.floats(1e-2, 1e2), st.sampled_from(["", "\x00", "a", "a\x00", "car", "é"])),
            min_size=1,
            max_size=60,
        ),
        on_grid=st.lists(st.integers(0, 59), max_size=6),
        extra=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=6),
        user_grid=st.booleans(),
        n_cpus=st.integers(1, 4),
        share_bytes=st.integers(1, 64),
        chunk_bytes=st.sampled_from([64, 1 << 16]),
    )
    # Scores exactly on grid points, in shares that start with a class's first row.
    @example(records=[(0.0, 1.0, "car"), (math.log(2.0), 1.0, ""), (0.0, 2.0, "\x00"), (-0.0, 1.0, "car")] * 4,
             on_grid=[0, 1], extra=[], user_grid=True, n_cpus=4, share_bytes=8, chunk_bytes=64)
    @example(records=[(0.0, 1.0, "car"), (-math.log(2.0), 0.5, "a")] * 8,
             on_grid=[], extra=[], user_grid=False, n_cpus=2, share_bytes=8, chunk_bytes=1 << 16)
    def test_reports_equal_the_sort_based_oracle(
        self, records, on_grid, extra, user_grid, n_cpus, share_bytes, chunk_bytes
    ):
        grid = DEFAULT_GRID
        if user_grid:
            # Grid points drawn from the records' own scores, so that some scores lie on them.
            scores = laplace_cdf(np.array([r for r, _, _ in records]) / np.array([s for _, s, _ in records]))
            points = {float(scores[i % len(records)]) for i in on_grid} | set(extra)
            grid = sorted(p for p in points if 0.0 < p < 1.0) or [0.5]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "records.csv"
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.write("residual,scale,class_name\n")
                handle.writelines(f"{r!r},{s!r},{name}\n" for r, s, name in records)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(os, "sched_getaffinity", cpus(n_cpus))
                patch.setattr(calibration, "_SHARE_BYTES", share_bytes)
                patch.setattr(calibration, "_CHUNK_BYTES", chunk_bytes)
                split = counted(path, grid)
            assert split == oracle_reports(path, grid) == counted(str(path), grid)
        assert_all_children_reaped()

    @pytest.mark.parametrize("failure", SHARE_FAILURES)
    def test_a_failing_share_gives_the_one_stream_reports(self, tmp_path, monkeypatch, failure):
        check_a_failing_share(tmp_path, monkeypatch, failure, counted)

    def test_what_a_child_sends_does_not_grow_with_the_rows(self, tmp_path, monkeypatch):
        sent = []

        def load(pipe):
            data = pipe.read()
            sent.append(len(data))
            return pickle.loads(data)

        monkeypatch.setattr(pickle, "load", load)
        monkeypatch.setattr(os, "sched_getaffinity", cpus(2))
        monkeypatch.setattr(calibration, "_SHARE_BYTES", 1 << 10)
        for n in (2_000, 40_000):
            path = tmp_path / f"{n}.csv"
            write_records(path, n)
            assert counted(path) == oracle_reports(path)
        # Five class names and a (5, 100) table of counts, whatever the rows.
        small, large = sent
        assert small == large < 5 * 100 * 8 + 500
        assert_all_children_reaped()

    def test_split_count_memory_per_row_is_bounded(self, tmp_path, monkeypatch):
        """A child's columns stay in the child: with two shares this process
        holds the columns of its own share only, about half of the file's."""
        n = 50_000
        path = tmp_path / "records.csv"
        write_records(path, n)
        forks = []
        real_fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(None) or real_fork())
        monkeypatch.setattr(calibration, "_SHARE_BYTES", 1 << 16)
        peaks = []
        for n_cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", cpus(n_cpus))
            tracemalloc.start()
            try:
                reports = reports_from_csv(path)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert reports[0].n == n
            peaks.append(peak / n)
        whole, split = peaks
        assert len(forks) == 1
        assert whole < 70.0  # bytes per row; the columns alone take 24
        assert split < 0.6 * whole
        assert_all_children_reaped()

    def test_a_str_is_not_taken_for_a_path(self, tmp_path):
        path = tmp_path / "records.csv"
        write_records(path, 10)
        message = "the prediction CSV reader takes an iterable of lines, such as an open file, not a str or a path"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            reports_from_csv(str(path))

    def test_an_overflow_in_a_share_names_its_record_in_the_file(self, tmp_path, monkeypatch):
        path = tmp_path / "records.csv"
        write_records(path, 20_000)
        with open(path, encoding="utf-8", newline="") as handle:
            lines = handle.readlines()
        lines[15_001] = "1e300,1e-10,car\n"  # record 15,001, in the second of two shares
        path.write_text("".join(lines), encoding="utf-8", newline="")
        monkeypatch.setattr(calibration, "_SHARE_BYTES", 1 << 16)
        want = (ValueError, "record 15001: the standard score overflows: residual 1e+300, scale 1e-10")
        for n_cpus in (1, 2, 3):
            monkeypatch.setattr(os, "sched_getaffinity", cpus(n_cpus))
            assert counted(path) == want
        assert counted(str(path)) == want
        assert_all_children_reaped()

    def test_the_grid_is_checked_before_the_rows(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("residual,scale,class_name\nabc,1,x\n", encoding="utf-8")
        assert counted(path, (0.5, 0.5)) == (ValueError, "grid must be strictly increasing")
        assert counted(path) == (ValueError, "line 2: could not convert string to float: 'abc'")

    def test_no_rows_is_an_error(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("\nresidual,scale,class_name\n\n", encoding="utf-8")
        assert counted(path) == counted(str(path)) == (ValueError, "records must be non-empty")
