"""Tests for standard scores, the Laplace CDF, and calibration reports."""

import math

import numpy as np
import pytest
from scipy import stats

from lkld.calibration import (
    DEFAULT_GRID,
    CalibrationReport,
    PredictionRecord,
    calibration_report,
    calibration_report_arrays,
    laplace_cdf,
    laplace_quantile,
    records_from_csv,
    report_to_csv,
    standard_score,
)


def perfect_records(n=10_000, scale=1.0):
    """Residuals placed exactly at the rank quantiles of a standard Laplace."""
    return [
        PredictionRecord(residual=scale * laplace_quantile((i - 0.5) / n), scale=scale)
        for i in range(1, n + 1)
    ]


class TestStandardScore:
    def test_zero_residual(self):
        assert standard_score(PredictionRecord(0.0, 0.5)) == 0.0

    def test_positive_residual(self):
        assert standard_score(PredictionRecord(1.0, 0.5)) == 2.0

    def test_sign_preserved(self):
        assert standard_score(PredictionRecord(-0.3, 0.1)) == pytest.approx(-3.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            PredictionRecord(float("nan"), 1.0)
        with pytest.raises(ValueError):
            PredictionRecord(0.0, 0.0)


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


class TestCalibrationReport:
    def test_perfectly_calibrated_ranks(self):
        report = calibration_report(perfect_records())
        assert report.ece < 0.001
        assert report.n == 10_000

    def test_halved_scales_are_visibly_overconfident(self):
        records = [PredictionRecord(r.residual, r.scale * 0.5) for r in perfect_records()]
        report = calibration_report(records)
        assert report.ece > 0.05
        curve = dict(report.curve)
        assert curve[0.55] < 0.55  # tails too heavy for the claimed scale

    def test_single_record_boundary_convention(self):
        report = calibration_report([PredictionRecord(0.0, 1.0)], grid=(0.25, 0.5, 0.75))
        assert report.curve == ((0.25, 0.0), (0.5, 1.0), (0.75, 1.0))
        assert report.ece == pytest.approx((0.25 + 0.5 + 0.25) / 3.0, abs=1e-15)

    def test_curve_monotone_for_arbitrary_inputs(self):
        rng = np.random.default_rng(31)
        records = [
            PredictionRecord(float(r), float(s))
            for r, s in zip(rng.normal(0, 2, 500), 10.0 ** rng.uniform(-1, 1, 500))
        ]
        report = calibration_report(records)
        observed = [o for _, o in report.curve]
        assert all(b >= a for a, b in zip(observed, observed[1:]))

    def test_ece_is_mean_absolute_gap(self):
        report = calibration_report(perfect_records(100), grid=(0.2, 0.4, 0.6, 0.8))
        gaps = [abs(o - e) for e, o in report.curve]
        assert report.ece == pytest.approx(sum(gaps) / len(gaps), abs=1e-15)

    def test_probability_integral_transform_is_uniform(self):
        rng = np.random.default_rng(32)
        n = 50_000
        scales = 10.0 ** rng.uniform(-1, 1, n)
        residuals = scales * np.array([laplace_quantile(float(u)) for u in rng.uniform(1e-12, 1 - 1e-12, n)])
        pit = [
            laplace_cdf(standard_score(PredictionRecord(float(r), float(s))))
            for r, s in zip(residuals, scales)
        ]
        statistic = stats.kstest(pit, "uniform").statistic
        assert statistic < 0.01

    def test_miscaling_in_either_direction_raises_ece(self):
        base = perfect_records(5000)
        ece_1 = calibration_report(base).ece
        ece_2 = calibration_report([PredictionRecord(r.residual, 2.0 * r.scale) for r in base]).ece
        ece_half = calibration_report([PredictionRecord(r.residual, 0.5 * r.scale) for r in base]).ece
        assert ece_1 < ece_2
        assert ece_1 < ece_half

    def test_validation(self):
        with pytest.raises(ValueError):
            calibration_report([])
        with pytest.raises(ValueError):
            calibration_report(perfect_records(10), grid=(0.5, 0.5))
        with pytest.raises(ValueError):
            calibration_report(perfect_records(10), grid=(0.0, 0.5))

    def test_array_core_matches_records(self):
        rng = np.random.default_rng(34)
        for n, grid in ((1, DEFAULT_GRID), (40, (0.1, 0.5, 0.9)), (3000, DEFAULT_GRID)):
            residuals = rng.normal(0, 2, n)
            scales = 10.0 ** rng.uniform(-2, 1, n)
            records = [PredictionRecord(float(r), float(s)) for r, s in zip(residuals, scales)]
            from_arrays = calibration_report_arrays(residuals, scales, grid)
            from_records = calibration_report(records, grid)
            assert from_arrays.curve == from_records.curve
            assert from_arrays.ece == from_records.ece
            assert from_arrays.n == from_records.n == n

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
        residuals = np.array([0.1, residual, -0.2])
        scales = np.array([1.0, scale, 0.5])
        with pytest.raises(ValueError):
            calibration_report_arrays(residuals, scales)
        with pytest.raises(ValueError):
            calibration_report(
                [PredictionRecord(float(r), float(s)) for r, s in zip(residuals, scales)]
            )

    def test_array_core_validation(self):
        with pytest.raises(ValueError):
            calibration_report_arrays(np.array([]), np.array([]))
        with pytest.raises(ValueError):
            calibration_report_arrays(np.zeros(3), np.ones(2))
        with pytest.raises(ValueError):
            calibration_report_arrays(np.zeros(3), np.ones(3), grid=(0.5, 0.5))

    def test_default_grid(self):
        assert len(DEFAULT_GRID) == 99
        assert DEFAULT_GRID[0] == 0.01
        assert DEFAULT_GRID[-1] == 0.99


class TestCsv:
    def test_report_round_trip_format(self):
        report = CalibrationReport(curve=((0.25, 0.2), (0.5, 0.5)), ece=0.025, n=4)
        text = report_to_csv(report)
        assert text == "expected_cdf,observed_cdf\n0.25,0.2\n0.5,0.5\nece,0.025\n"

    def test_parse_records(self):
        text = "residual,scale,class_name\n0.5,0.2,vehicle\n-0.1,1.5,bike\n"
        records = records_from_csv(text)
        assert len(records) == 2
        assert records[0] == PredictionRecord(0.5, 0.2, "vehicle")
        assert records[1].class_name == "bike"

    def test_parse_rejects_bad_header_and_rows(self):
        with pytest.raises(ValueError):
            records_from_csv("")
        with pytest.raises(ValueError):
            records_from_csv("foo,bar\n1,2\n")
        with pytest.raises(ValueError):
            records_from_csv("residual,scale,class_name\n1.0,-1.0,x\n")
        with pytest.raises(ValueError):
            records_from_csv("residual,scale,class_name\nabc,1.0,x\n")
