"""Tests for the Laplace loss functions, their gradients, and loss surfaces."""

import math
import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from lkld import distributions
from lkld.distributions import (
    LaplaceParams,
    gradient_check,
    kld_loss,
    kld_loss_zero_label_scale,
    kld_terms,
    nll_loss,
    nll_terms,
    surface_grid,
)

from oracles import (
    central_difference,
    kl_divergence_quadrature,
    reference_kld_terms,
    reference_nll_terms,
)

# Label-to-predicted scale ratios b / b_hat around the log1p branch edges
# (0.5, 2) and out to 1e+-12.
SCALE_RATIOS = st.one_of(
    st.sampled_from(
        [0.5, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0),
         2.0, math.nextafter(2.0, 0.0), math.nextafter(2.0, 3.0), 1e-12, 1e12]
    ),
    st.floats(0.45, 0.55),
    st.floats(1.9, 2.1),
    st.floats(1e-12, 1e12),
)


def bits(*values: float) -> bytes:
    return struct.pack(f"{len(values)}d", *values)


class TestNllLoss:
    def test_zero_error_unit_scale(self):
        grad = nll_loss(0.0, LaplaceParams(0.0, 1.0))
        assert grad.value == pytest.approx(math.log(2.0), abs=1e-12)
        assert grad.d_location == 0.0
        assert grad.d_scale == 1.0

    def test_hand_computed_case_with_finite_differences(self):
        """y=1, prediction (0, 0.5): value 2, d_location -2, d_scale -2."""
        grad = nll_loss(1.0, LaplaceParams(0.0, 0.5))
        assert grad.value == pytest.approx(2.0, abs=1e-12)
        assert grad.d_location == pytest.approx(-2.0, abs=1e-12)
        assert grad.d_scale == pytest.approx(-2.0, abs=1e-12)

        fd_loc = central_difference(lambda m: nll_loss(1.0, LaplaceParams(m, 0.5)).value, 0.0)
        fd_scale = central_difference(lambda s: nll_loss(1.0, LaplaceParams(0.0, s)).value, 0.5)
        assert grad.d_location == pytest.approx(fd_loc, rel=1e-5)
        assert grad.d_scale == pytest.approx(fd_scale, rel=1e-5)

    @pytest.mark.parametrize("scale", [0.1, 0.01, 0.001])
    def test_zero_error_scale_gradient_diverges(self, scale):
        # At zero error the scale gradient is exactly 1/b_hat, blowing up
        # as the predicted scale shrinks.
        grad = nll_loss(3.0, LaplaceParams(3.0, scale))
        assert grad.d_scale == pytest.approx(1.0 / scale, rel=1e-12)

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            LaplaceParams(0.0, 0.0)
        with pytest.raises(ValueError):
            LaplaceParams(0.0, -1.0)
        with pytest.raises(ValueError):
            LaplaceParams(0.0, float("nan"))
        with pytest.raises(ValueError):
            LaplaceParams(float("inf"), 1.0)


class TestKldLoss:
    def test_identical_distributions_are_stationary(self):
        grad = kld_loss(LaplaceParams(0.0, 0.3), LaplaceParams(0.0, 0.3))
        assert grad.value == 0.0
        assert grad.d_location == 0.0
        assert grad.d_scale == 0.0

    def test_location_shift_against_quadrature_and_finite_differences(self):
        """Label (0, 0.2) against prediction (1, 0.2)."""
        label = LaplaceParams(0.0, 0.2)
        grad = kld_loss(label, LaplaceParams(1.0, 0.2))

        # Frozen from the quadrature oracle; equals 4 + exp(-5) analytically.
        assert grad.value == pytest.approx(4.006737946999086, abs=1e-12)
        quad_value = kl_divergence_quadrature(0.0, 0.2, 1.0, 0.2)
        assert grad.value == pytest.approx(quad_value, abs=1e-6)

        fd_loc = central_difference(lambda m: kld_loss(label, LaplaceParams(m, 0.2)).value, 1.0)
        fd_scale = central_difference(lambda s: kld_loss(label, LaplaceParams(1.0, s)).value, 0.2)
        assert grad.d_location == pytest.approx(4.966310265004573, abs=1e-12)
        assert grad.d_location == pytest.approx(fd_loc, rel=1e-5)
        assert grad.d_scale == pytest.approx(-20.033689734995427, abs=1e-11)
        assert grad.d_scale == pytest.approx(fd_scale, rel=1e-5)

    def test_scale_mismatch_against_quadrature(self):
        """Label (0, 0.2) against prediction (0, 0.5)."""
        grad = kld_loss(LaplaceParams(0.0, 0.2), LaplaceParams(0.0, 0.5))
        expected = math.log(0.5 / 0.2) + 0.2 / 0.5 - 1.0
        assert grad.value == pytest.approx(expected, abs=1e-12)
        assert grad.value == pytest.approx(kl_divergence_quadrature(0.0, 0.2, 0.0, 0.5), abs=1e-6)
        # Zero-error limit of the scale gradient: (1/b_hat) * (1 - b/b_hat).
        assert grad.d_scale == pytest.approx((1.0 / 0.5) * (1.0 - 0.2 / 0.5), rel=1e-12)

    def test_rejects_bad_scales(self):
        with pytest.raises(ValueError):
            kld_loss(LaplaceParams(0.0, 1.0), LaplaceParams(0.0, -0.5))

    def test_huge_scale_ratio_stays_finite(self):
        grad = kld_loss(LaplaceParams(0.0, 1e-3), LaplaceParams(0.5, 1e8))
        assert math.isfinite(grad.value) and grad.value > 0.0
        grad = kld_loss(LaplaceParams(0.0, 1e8), LaplaceParams(0.5, 1e-3))
        assert math.isfinite(grad.value) and grad.value > 0.0


class TestZeroLabelScaleLimit:
    def test_matches_nll_on_hand_case(self):
        grad = kld_loss_zero_label_scale(1.0, LaplaceParams(0.0, 0.5))
        assert grad.d_location == -2.0
        assert grad.d_scale == -2.0

    def test_zero_error_case(self):
        grad = kld_loss_zero_label_scale(0.0, LaplaceParams(0.0, 1.0))
        assert grad.d_location == 0.0
        assert grad.d_scale == 1.0

    def test_bitwise_equal_to_nll_on_grid(self):
        # The exhaustive 100^3 sweep lives in the acceptance suite; this is
        # the same comparison on a coarser grid.
        ys = np.linspace(-2.0, 2.0, 20)
        y_hats = np.linspace(-2.0, 2.0, 20)
        scales = np.geomspace(1e-2, 10.0, 20)
        for y in ys:
            for y_hat in y_hats:
                for b_hat in scales:
                    pred = LaplaceParams(y_hat, b_hat)
                    a = kld_loss_zero_label_scale(y, pred)
                    b = nll_loss(y, pred)
                    assert (a.value, a.d_location, a.d_scale) == (b.value, b.d_location, b.d_scale)

    @settings(max_examples=500, deadline=None)
    @given(
        location=st.floats(-1e6, 1e6),
        error=st.floats(-1e3, 1e3),
        pred_scale=st.floats(1e-6, 1e6),
        fraction=st.floats(0.0, 1.0, exclude_min=True),
    )
    @example(location=0.0, error=1.0, pred_scale=1.0, fraction=1.0)
    @example(location=-3.0, error=1e-3, pred_scale=1e-6, fraction=1e-300)
    def test_kld_terms_partials_equal_nll_terms_once_b_is_below_error_over_50(
        self, location, error, pred_scale, fraction
    ):
        # The real zero-label-scale limit: once |e|/b >= 50, expm1(-|e|/b)
        # rounds to -1 and kld_terms' partials are the NLL's, bit for bit.
        y = location + error
        label_scale = fraction * abs(y - location) / 50.0
        assume(0.0 < label_scale <= abs(y - location) / 50.0)
        _, kld_location, kld_scale = kld_terms(y, label_scale, location, pred_scale)
        _, nll_location, nll_scale = nll_terms(y, location, pred_scale)
        assert bits(kld_location, kld_scale) == bits(nll_location, nll_scale)


class TestFloatKernels:
    """The ``*_loss`` wrappers return exactly their float kernel's tuple."""

    @settings(max_examples=500, deadline=None)
    @given(
        location=st.floats(-1e6, 1e6),
        error=st.one_of(st.just(0.0), st.floats(-1e3, 1e3)),
        pred_scale=st.floats(1e-6, 1e6),
        ratio=SCALE_RATIOS,
    )
    @example(location=0.0, error=0.0, pred_scale=1.0, ratio=1.0)
    @example(location=1.0, error=-0.5, pred_scale=1e-6, ratio=1e12)
    def test_wrappers_equal_terms_bitwise(self, location, error, pred_scale, ratio):
        y, label_scale = location + error, ratio * pred_scale
        pred = LaplaceParams(location, pred_scale)
        cases = [
            (nll_loss(y, pred), nll_terms(y, location, pred_scale)),
            (kld_loss_zero_label_scale(y, pred), nll_terms(y, location, pred_scale)),
            (
                kld_loss(LaplaceParams(y, label_scale), pred),
                kld_terms(y, label_scale, location, pred_scale),
            ),
        ]
        for grad, terms in cases:
            assert bits(grad.value, grad.d_location, grad.d_scale) == bits(*terms)

    @settings(max_examples=500, deadline=None)
    @given(
        y=st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(allow_nan=True)),
        loc=st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(allow_nan=True)),
        b=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        b_hat=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    )
    @example(y=-0.0, loc=0.0, b=0.3, b_hat=0.5)  # err = -0.0
    @example(y=0.0, loc=-0.0, b=0.3, b_hat=0.5)  # err = +0.0
    @example(y=1.0, loc=1.0, b=0.3, b_hat=0.5)
    @example(y=-math.nan, loc=0.0, b=0.3, b_hat=0.5)
    @example(y=1e308, loc=-1e308, b=0.3, b_hat=0.5)  # err = inf
    def test_terms_equal_the_explicit_sign_reference_bitwise(self, y, loc, b, b_hat):
        # Bitwise, except that a NaN matches any NaN: which NaN an operation
        # on two of them returns depends on how the C compiler ordered its
        # operands, not on this code.
        def pattern(values):
            return [None if v != v else bits(v) for v in values]

        nll = nll_terms(y, loc, b_hat)
        kld = kld_terms(y, b, loc, b_hat)
        assert pattern(nll) == pattern(reference_nll_terms(y, loc, b_hat))
        assert pattern(kld) == pattern(reference_kld_terms(y, b, loc, b_hat))
        err = y - loc
        if err == 0.0:
            # sgn(+-0) = 0, so both location partials are -0.0: the NLL's
            # -0 / b_hat and the KL's 0 * expm1(-0) / b_hat.
            assert bits(nll[1], kld[1]) == bits(-0.0, -0.0)
        elif err == err:
            sign = math.copysign(1.0, err)
            assert math.copysign(1.0, nll[1]) == -sign
            assert kld[1] == 0.0 or math.copysign(1.0, kld[1]) == -sign


class TestGradientConsistency:
    @pytest.mark.parametrize("loss_kind", ["nll", "kld"])
    def test_analytic_gradients_match_finite_differences(self, loss_kind):
        result = gradient_check(loss_kind, samples=2000, seed=123)
        assert result.passed, f"{result.failures} gradient mismatches"
        assert result.max_scaled_location <= 1.0
        assert result.max_scaled_scale <= 1.0

    def test_negative_seed_is_rejected(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            gradient_check("nll", samples=10, seed=-1)


class TestKldProperties:
    def test_non_negative_and_zero_iff_equal(self):
        rng = np.random.default_rng(7)
        for _ in range(3000):
            y, y_hat = rng.uniform(-3, 3, 2)
            b, b_hat = 10.0 ** rng.uniform(-2, 1, 2)
            value = kld_loss(LaplaceParams(y, b), LaplaceParams(y_hat, b_hat)).value
            assert value >= 0.0
            if abs(y - y_hat) > 1e-6 or abs(b - b_hat) > 1e-6:
                assert value > 0.0

    @settings(max_examples=500, deadline=None)
    @given(
        location=st.floats(-1e6, 1e6),
        error=st.one_of(st.just(0.0), st.floats(-1e3, 1e3)),
        pred_scale=st.floats(1e-6, 1e6),
        ratio=SCALE_RATIOS,
    )
    @example(location=0.0, error=1e-300, pred_scale=1.0, ratio=math.nextafter(0.5, 1.0))
    def test_non_negative_across_scale_ratios(self, location, error, pred_scale, ratio):
        label = LaplaceParams(location + error, ratio * pred_scale)
        assert kld_loss(label, LaplaceParams(location, pred_scale)).value >= 0.0

    @settings(max_examples=300, deadline=None)
    @given(location=st.floats(-1e12, 1e12), scale=st.floats(1e-12, 1e12))
    def test_exactly_zero_at_a_match(self, location, scale):
        params = LaplaceParams(location, scale)
        assert kld_loss(params, params).value == 0.0

    @settings(max_examples=500, deadline=None)
    @given(
        location=st.floats(-1e6, 1e6),
        error=st.one_of(st.just(0.0), st.floats(-1e3, 1e3)),
        label_scale=st.floats(1e-6, 1e6),
        pred_scale=st.floats(1e-6, 1e6),
    )
    # Adjacent floats: the bracket 1 - (b e^(-|e|/b) + |e|) / b_hat rounds to 0.
    @example(location=0.0, error=4.044961475282535e-05,
             label_scale=22811.144110579866, pred_scale=22811.144110579862)
    def test_scale_gradient_is_negative_below_the_label_scale(
        self, location, error, label_scale, pred_scale
    ):
        # b e^(-|e|/b) + |e| >= b for every error, so the divergence pushes any
        # predicted scale below the label scale back up; the NLL's optimum is |e|.
        assume(pred_scale < label_scale)
        d_scale = kld_terms(location + error, label_scale, location, pred_scale)[2]
        assert d_scale <= 0.0
        if pred_scale < label_scale * (1.0 - 1e-14):  # apart by more than rounding
            assert d_scale < 0.0

    def test_zero_error_location_gradient_vanishes(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            y = rng.uniform(-3, 3)
            b, b_hat = 10.0 ** rng.uniform(-2, 1, 2)
            grad = kld_loss(LaplaceParams(y, b), LaplaceParams(y, b_hat))
            assert grad.d_location == 0.0

    def test_stationary_at_matching_label(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            y = rng.uniform(-3, 3)
            b = 10.0 ** rng.uniform(-2, 1)
            grad = kld_loss(LaplaceParams(y, b), LaplaceParams(y, b))
            assert grad.d_location == 0.0
            assert grad.d_scale == 0.0

    def test_wider_label_scale_lowers_loss_on_grid(self):
        # For b_hat >= b2 > b1 the loss with the wider label scale is
        # strictly smaller, for every error.
        scales = np.geomspace(0.05, 5.0, 8)
        errors = np.linspace(0.0, 4.0, 9)
        for b_hat in scales:
            for b2 in scales:
                for b1 in scales:
                    if not (b_hat >= b2 > b1):
                        continue
                    for err in errors:
                        pred = LaplaceParams(0.0, b_hat)
                        narrow = kld_loss(LaplaceParams(err, b1), pred).value
                        wide = kld_loss(LaplaceParams(err, b2), pred).value
                        assert narrow > wide

    def test_large_error_gradients_match_nll(self):
        # Once |y - y_hat| >= 10 b the exponential terms are below e^-10 and
        # both partials agree with the NLL partials to 1e-4 for moderate
        # predicted scales.
        rng = np.random.default_rng(10)
        for _ in range(500):
            b = 10.0 ** rng.uniform(-2, math.log10(0.2))
            b_hat = rng.uniform(0.5, 5.0)
            err = rng.uniform(10.0 * b, 20.0 * b)
            kld = kld_loss(LaplaceParams(err, b), LaplaceParams(0.0, b_hat))
            nll = nll_loss(err, LaplaceParams(0.0, b_hat))
            assert abs(kld.d_location - nll.d_location) < 1e-4
            assert abs(kld.d_scale - nll.d_scale) < 1e-4


def sorted_axis(low: float, high: float):
    return st.lists(st.floats(low, high), min_size=1, max_size=6, unique=True).map(sorted)


class TestSurfaceGrid:
    @settings(max_examples=200, deadline=None)
    @given(
        errors=sorted_axis(0.0, 1e3),
        scales=sorted_axis(1e-6, 1e6),
        label_scale=st.floats(1e-6, 1e6),
    )
    @example(errors=[0.0, 0.5], scales=[0.1, 0.2, 0.3], label_scale=0.2)
    def test_cells_equal_single_loss_values_bitwise(self, errors, scales, label_scale):
        nll = surface_grid("nll", 0.0, errors, scales)
        kld = surface_grid("kld", label_scale, errors, scales)
        for i, e in enumerate(errors):
            for j, b_hat in enumerate(scales):
                pred = LaplaceParams(0.0, b_hat)
                assert bits(nll.values[i, j]) == bits(nll_loss(e, pred).value)
                want = kld_loss(LaplaceParams(e, label_scale), pred).value
                assert bits(kld.values[i, j]) == bits(want)

    def test_kld_minimum_cell_is_zero(self):
        grid = surface_grid("kld", 0.2, [0.0, 0.5], [0.1, 0.2, 0.3])
        assert grid.values[0, 1] == 0.0

    def test_nll_zero_error_column_decreases_toward_minus_infinity(self):
        scales = list(np.geomspace(1e-6, 1.0, 30))
        grid = surface_grid("nll", 0.0, [0.0], scales)
        column = grid.values[0, :]
        assert np.all(np.diff(column) > 0.0)  # increasing in scale
        assert column[0] == pytest.approx(math.log(2e-6), rel=1e-9)

    def test_wider_label_scale_gives_pointwise_lower_surface(self):
        errors = list(np.linspace(0.0, 2.0, 21))
        scales = list(np.linspace(0.4, 2.0, 17))
        narrow = surface_grid("kld", 0.2, errors, scales)
        wide = surface_grid("kld", 0.4, errors, scales)
        assert np.all(wide.values < narrow.values)

    def test_axis_validation(self):
        with pytest.raises(ValueError):
            surface_grid("nll", 0.0, [], [0.1])
        with pytest.raises(ValueError):
            surface_grid("nll", 0.0, [0.0, 0.0], [0.1])
        with pytest.raises(ValueError):
            surface_grid("nll", 0.0, [0.0], [0.1, 0.05])
        with pytest.raises(ValueError):
            surface_grid("kld", 0.0, [0.0], [0.1])
        with pytest.raises(ValueError):
            surface_grid("bogus", 0.2, [0.0], [0.1])

    def test_cell_limit(self, monkeypatch):
        monkeypatch.setattr(distributions, "MAX_SURFACE_CELLS", 6)
        assert surface_grid("nll", 0.0, [0.0, 0.5], [0.1, 0.2, 0.3]).values.shape == (2, 3)
        with pytest.raises(ValueError) as err:
            surface_grid("nll", 0.0, [0.0, 0.5, 1.0], [0.1, 0.2, 0.3])
        assert str(err.value) == "surface grid of 3 errors x 3 scales has more than 6 cells"

    def test_csv_round_trip_layout(self):
        grid = surface_grid("kld", 0.2, [0.0, 1.0], [0.2, 0.5])
        lines = grid.to_csv().strip().split("\n")
        assert lines[0] == "error,scale,value"
        assert len(lines) == 1 + 4
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0.2"
        # 9 significant digits
        value = kld_loss(LaplaceParams(1.0, 0.2), LaplaceParams(0.0, 0.5)).value
        assert f"{value:.9g}" in lines[4]
