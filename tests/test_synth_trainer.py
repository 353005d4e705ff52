"""Tests for the synthetic data generator, SGD trainer, and comparison runner."""

import dataclasses
import hashlib
import json
import math
import os
import re
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lkld import synth_trainer
from lkld.distributions import LaplaceParams, kld_loss
from lkld.synth_trainer import (
    CompareRow,
    ConstantLabelScale,
    ConstantNoise,
    Dataset,
    FeatureDependentNoise,
    HeuristicLabelScale,
    OracleLabelScale,
    Predictor,
    SynthConfig,
    ZeroLabelScale,
    compare,
    compare_configs_from_dict,
    comparison_to_csv,
    config_from_dict,
    config_to_dict,
    generate,
    resolve_label_scales,
    sample_param_grads,
    train,
    train_report_to_csv,
)
from lkld.synth_trainer import _evaluate

from conftest import SHARE_FAILURES, assert_all_children_reaped, cpus, refuse_fork, share_failure
from oracles import _reference_evaluate, central_difference, reference_train


def small_config(**overrides):
    defaults = dict(
        n_train=200,
        n_test=500,
        feature_dim=4,
        noise=ConstantNoise(0.2),
        label_scale=OracleLabelScale(),
        seed=1,
        epochs=3,
        learning_rate=0.05,
        grad_clip=1.0,
        average_tail_epochs=0,
    )
    defaults.update(overrides)
    return SynthConfig(**defaults)


class TestGenerate:
    def test_zero_noise_labels_equal_targets(self):
        train_set, test_set = generate(small_config(noise=ConstantNoise(0.0)))
        np.testing.assert_array_equal(train_set.labels, train_set.true_targets)
        np.testing.assert_array_equal(test_set.labels, test_set.true_targets)

    def test_laplace_mean_absolute_deviation(self):
        cfg = small_config(n_train=100_000, n_test=1, noise=ConstantNoise(0.2))
        train_set, _ = generate(cfg)
        mad = float(np.mean(np.abs(train_set.labels - train_set.true_targets)))
        assert mad == pytest.approx(0.2, abs=0.005)

    def test_same_seed_gives_bit_identical_datasets(self):
        a_train, a_test = generate(small_config(seed=99))
        b_train, b_test = generate(small_config(seed=99))
        for a, b in [(a_train, b_train), (a_test, b_test)]:
            np.testing.assert_array_equal(a.features, b.features)
            np.testing.assert_array_equal(a.labels, b.labels)
            np.testing.assert_array_equal(a.true_scales, b.true_scales)
            np.testing.assert_array_equal(a.quality, b.quality)

    # sha256 of each float64 array's bytes; changing the draw order, the
    # inverse CDF or its clipping changes every dataset downstream.
    PINNED_DATASETS = {
        "constant": (
            dict(n_train=50, n_test=30, feature_dim=4, noise=ConstantNoise(0.2), seed=1),
            {
                "train.features": "39a2df3ad8011cd435f928a383d1d17f644f857cbef5dfa9e7bbaba81bc3ebb1",
                "train.true_targets": "3f901690937859d34c449f6dcb75a97934769b76ef367f78bd39385acb50bef8",
                "train.labels": "401a8978ce93b1a37501a2f43bb3c36391951618b4f226a6e038c0a24298268d",
                "train.true_scales": "17faad0521124d18b31cf84417a0fe579990a2a4ecc8304c3aaf82cce2d351e0",
                "train.quality": "2eb974c7d536fe37ceddaa334f8f5f3e40fa7d0366b70e6bd8dd31624d6edc23",
                "test.features": "43ff196c9860b27831a9617a5ea33d58bc5d72431fa6c40cf0445dcd5972b092",
                "test.true_targets": "5e7c63295cbdd43bc1333b46f07c524031c55620048b12641096ccafc7756477",
                "test.labels": "3c30c3b92abea6cc54fc0703d9551ed919a9d3c15443378f1d61aa3cbd2259bd",
                "test.true_scales": "deabbc4899fd40dd7d6efff537ea56781123b166eb05af3bc2b986661a284068",
                "test.quality": "948ee21ea38bd9df99f8e66ede4bf685ae2df096b672f12ecbd67fa6d4969fa6",
            },
        ),
        "feature_dependent": (
            dict(n_train=40, n_test=25, feature_dim=3, noise=FeatureDependentNoise(0.1, 0.5), seed=7),
            {
                "train.features": "dedfa9f210f5dd51352105d128802f6e75aaef60a2ccbd2739b15e58b5fc24b5",
                "train.true_targets": "ea282c6b3ac828e6ab863493ecf7a28b591687ccc86ddc5400a4129cd4ab527e",
                "train.labels": "0f540c29b6b28a3084159e0d743c6f29280d9c40ae890295ccc2cac0db2758a7",
                "train.true_scales": "52ee654d7ba36cd1265d0a8a4c8dbe998362f1f56aece62051bebe46132f9b6d",
                "train.quality": "398969ba3e5cce6961eb919811f619f06f2add41e47474ea5dfc4d0e2013a0de",
                "test.features": "5217767a511567010a09a43a110759d77192e80717a2260eae0dd268df5e0828",
                "test.true_targets": "5d8cc0b949e7c154a7d7ac5683ff4a2421945ed45d1cfa08e120bb2937679c56",
                "test.labels": "b3e136db8933cdf8ee381b44b6d24afa6795f24573dc14fbdf453aae86232e02",
                "test.true_scales": "37bcd6a95f161cd4217d8d2555b03bd8571aa70dc2644c1472ddc1f74750b152",
                "test.quality": "4ee8bc137b80f659ddef93556d0bdd1a4eb285c64723067678500822187b3215",
            },
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINNED_DATASETS))
    def test_datasets_are_pinned(self, name):
        settings, expected = self.PINNED_DATASETS[name]
        train_set, test_set = generate(SynthConfig(**settings))
        digests = {
            f"{split}.{field.name}": hashlib.sha256(getattr(data, field.name).tobytes()).hexdigest()
            for split, data in (("train", train_set), ("test", test_set))
            for field in dataclasses.fields(Dataset)
        }
        assert digests == expected

    def test_feature_dependent_noise_tracks_quality(self):
        cfg = small_config(noise=FeatureDependentNoise(0.1, 0.5))
        train_set, _ = generate(cfg)
        expected = 0.5 * (0.1 / 0.5) ** train_set.quality
        np.testing.assert_allclose(train_set.true_scales, expected, rtol=1e-12)
        assert train_set.true_scales.min() >= 0.1 - 1e-12
        assert train_set.true_scales.max() <= 0.5 + 1e-12


class TestLabelScaleResolution:
    def test_modes(self):
        cfg = small_config(noise=FeatureDependentNoise(0.1, 0.5))
        data, _ = generate(cfg)
        assert resolve_label_scales(dataclasses.replace(cfg, label_scale=ZeroLabelScale()), data) is None
        const = resolve_label_scales(
            dataclasses.replace(cfg, label_scale=ConstantLabelScale(0.3)), data
        )
        assert np.all(const == 0.3)
        oracle = resolve_label_scales(cfg, data)
        np.testing.assert_array_equal(oracle, data.true_scales)
        heuristic = resolve_label_scales(
            dataclasses.replace(cfg, label_scale=HeuristicLabelScale((0.5, 0.25, 0.1))), data
        )
        assert heuristic.min() > 0.0

    def test_oracle_requires_positive_noise(self):
        cfg = small_config(noise=ConstantNoise(0.0))
        data, _ = generate(cfg)
        with pytest.raises(ValueError):
            resolve_label_scales(cfg, data)


class TestGradientChain:
    @pytest.mark.parametrize("label_scale", [None, 0.3])
    def test_parameter_gradients_match_finite_differences(self, label_scale):
        rng = np.random.default_rng(17)
        d = 3
        for _ in range(25):
            predictor = Predictor(
                list(rng.normal(0, 0.5, d)),
                float(rng.normal()),
                list(rng.normal(0, 0.3, d)),
                float(rng.normal(0, 0.5)),
            )
            x = tuple(rng.uniform(-1, 1, d))
            y = float(rng.normal(0, 1))
            loss, grads = sample_param_grads(predictor, x, y, label_scale)

            vector = predictor.as_vector()
            for k, analytic in enumerate(grads):
                def loss_at(theta, k=k):
                    perturbed = vector.copy()
                    perturbed[k] = theta
                    p = Predictor(perturbed[:d], perturbed[d], perturbed[d + 1 : 2 * d + 1], perturbed[2 * d + 1])
                    return sample_param_grads(p, x, y, label_scale)[0]

                fd = central_difference(loss_at, vector[k])
                assert analytic == pytest.approx(fd, rel=1e-4, abs=1e-7)
            assert math.isfinite(loss)

    @pytest.mark.parametrize("label_scale", [ZeroLabelScale(), OracleLabelScale()])
    def test_train_applies_the_sample_gradient(self, label_scale):
        # One sample, one epoch, unit rate, no clipping or averaging: the
        # update train() applies is exactly sample_param_grads' gradient.
        rng = np.random.default_rng(23)
        d = 3
        init = Predictor(list(rng.normal(0, 0.5, d)), 0.1, list(rng.normal(0, 0.3, d)), -0.2)
        features = rng.uniform(-1, 1, (1, d))
        data = Dataset(
            features=features,
            true_targets=np.array([0.2]),
            labels=np.array([0.4]),
            true_scales=np.array([0.3]),
            quality=np.array([0.5]),
        )
        cfg = small_config(
            n_train=1, feature_dim=d, epochs=1, learning_rate=1.0, grad_clip=1e12,
            average_tail_epochs=0, label_scale=label_scale,
        )
        label_b = None if isinstance(label_scale, ZeroLabelScale) else 0.3
        _, grads = sample_param_grads(init, tuple(features[0]), 0.4, label_b)
        assert math.sqrt(sum(g * g for g in grads)) < cfg.grad_clip
        predictor, _ = train(cfg, data, data, init=init)
        assert predictor.as_vector() == [p - g for p, g in zip(init.as_vector(), grads)]


def assert_runs_match(got, want):
    """Same parameters, per-epoch stats and final metrics within 1e-9 (relative)."""
    (got_pred, got_report), (want_pred, want_report) = got, want
    assert got_report.diverged == want_report.diverged
    assert len(got_report.epoch_stats) == len(want_report.epoch_stats)
    np.testing.assert_allclose(got_pred.as_vector(), want_pred.as_vector(), rtol=1e-9, atol=0)
    np.testing.assert_allclose(
        [dataclasses.astuple(s) for s in got_report.epoch_stats],
        [dataclasses.astuple(s) for s in want_report.epoch_stats],
        rtol=1e-9,
        atol=0,
    )
    np.testing.assert_allclose(
        [got_report.test_mae, got_report.test_ece],
        [want_report.test_mae, want_report.test_ece],
        rtol=1e-9,
        atol=0,
    )


class TestReferenceLoop:
    """train() against the scalar-loop oracle: only the summation order differs."""

    @pytest.mark.parametrize(
        "label_scale", [ZeroLabelScale(), OracleLabelScale(), HeuristicLabelScale((0.5, 0.25, 0.1))]
    )
    def test_clipped_and_averaged(self, label_scale):
        cfg = small_config(
            n_train=64, noise=FeatureDependentNoise(0.1, 0.5), label_scale=label_scale,
            epochs=5, grad_clip=0.05, average_tail_epochs=2,
        )
        data, _ = generate(cfg)
        label_scales = resolve_label_scales(cfg, data)
        # A step from the initial predictor already exceeds the clip norm.
        _, grads = sample_param_grads(
            Predictor.initial(cfg.feature_dim), tuple(data.features[0]), float(data.labels[0]),
            None if label_scales is None else float(label_scales[0]),
        )
        assert math.sqrt(sum(g * g for g in grads)) > cfg.grad_clip
        assert_runs_match(train(cfg), reference_train(cfg))

    def test_given_init_without_averaging(self):
        cfg = small_config(epochs=3, average_tail_epochs=0, grad_clip=1e12)
        init = Predictor([0.3, -0.2, 0.1, 0.5], 0.2, [0.05, 0.0, -0.1, 0.02], math.log(0.5))
        init_vector = init.as_vector()
        assert_runs_match(train(cfg, init=init), reference_train(cfg, init=init))
        assert init.as_vector() == init_vector  # train() works on a copy

    def test_early_divergence(self):
        cfg = small_config(label_scale=ZeroLabelScale(), learning_rate=5.0, grad_clip=1e12, epochs=5)
        got = train(cfg)
        assert got[1].diverged
        assert len(got[1].epoch_stats) < cfg.epochs
        assert_runs_match(got, reference_train(cfg))

    MODES = {"zero": ZeroLabelScale(), "oracle": OracleLabelScale(), "constant": ConstantLabelScale(0.3)}

    @settings(max_examples=150, deadline=None)
    @given(
        n_train=st.integers(1, 24),
        feature_dim=st.integers(1, 6),
        epochs_and_tail=st.integers(1, 4).flatmap(
            lambda e: st.tuples(st.just(e), st.integers(0, e + 1))
        ),
        grad_clip=st.one_of(st.floats(0.01, 0.5), st.just(1e12)),
        # At rates of 0.5 and more, some runs amplify rounding beyond 1e-9
        # within four epochs, so two summation orders need not agree there.
        learning_rate=st.sampled_from([0.05, 0.2]),
        mode=st.sampled_from(sorted(MODES)),
        seed=st.integers(0, 2**16),
    )
    # Diverges at the 8th step of epoch 4, inside the 3-epoch averaging window.
    @example(
        n_train=10, feature_dim=3, epochs_and_tail=(4, 3), grad_clip=1e12, learning_rate=3.0,
        mode="zero", seed=1,
    )
    def test_matches_reference_loop(
        self, n_train, feature_dim, epochs_and_tail, grad_clip, learning_rate, mode, seed
    ):
        # Draws with n_train below feature_dim + 1 have a singular Gram matrix.
        epochs, tail = epochs_and_tail
        cfg = small_config(
            n_train=n_train, n_test=40, feature_dim=feature_dim,
            noise=FeatureDependentNoise(0.1, 0.5), label_scale=self.MODES[mode], seed=seed,
            epochs=epochs, learning_rate=learning_rate, grad_clip=grad_clip,
            average_tail_epochs=tail,
        )
        assert_runs_match(train(cfg), reference_train(cfg))

    def test_explicit_example_diverges_inside_the_averaging_window(self):
        cfg = small_config(
            n_train=10, n_test=40, feature_dim=3, noise=FeatureDependentNoise(0.1, 0.5),
            label_scale=ZeroLabelScale(), epochs=4, learning_rate=3.0, grad_clip=1e12,
            average_tail_epochs=3,
        )
        _, report = train(cfg)
        assert report.diverged
        assert len(report.epoch_stats) == 4
        # Some steps of the last epoch ran before the divergence.
        assert math.isfinite(report.epoch_stats[-1].mean_abs_error)


class TestEvaluate:
    """_evaluate on head outputs against the oracle's evaluation of the same parameters."""

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 40),
        feature_dim=st.integers(1, 6),
        seed=st.integers(0, 2**16),
        weights=st.lists(st.floats(-3.0, 3.0), min_size=12, max_size=12),
        bias_mean=st.one_of(st.floats(-5.0, 5.0), st.sampled_from([1e300, -1e300])),
        # Above about 709 the predicted scale overflows; below about -745 it is 0.
        bias_logscale=st.one_of(st.floats(-5.0, 5.0), st.floats(-750.0, 750.0)),
    )
    # Finite locations and scales whose standard scores overflow.
    @example(n=8, feature_dim=2, seed=0, weights=[0.0] * 12, bias_mean=1e300,
             bias_logscale=-700.0)
    # Scales that overflow, and scales that underflow to zero.
    @example(n=8, feature_dim=2, seed=0, weights=[0.0] * 12, bias_mean=0.0, bias_logscale=720.0)
    @example(n=8, feature_dim=2, seed=0, weights=[0.0] * 12, bias_mean=0.0, bias_logscale=-750.0)
    def test_matches_reference_evaluate(
        self, n, feature_dim, seed, weights, bias_mean, bias_logscale
    ):
        cfg = small_config(n_train=n, feature_dim=feature_dim, seed=seed,
                           noise=FeatureDependentNoise(0.1, 0.5))
        data, _ = generate(cfg)
        wm, ws = weights[:feature_dim], weights[6 : 6 + feature_dim]
        theta = Predictor(wm, bias_mean, ws, bias_logscale).theta
        rows = np.hstack((data.features, np.ones((n, 1))))
        with np.errstate(over="ignore"):
            outputs = rows @ theta.T
        got = _evaluate(outputs, data)
        want = _reference_evaluate(wm, bias_mean, ws, bias_logscale, data)
        if math.isinf(want[0]):
            assert math.isinf(got[0]) and math.isnan(got[1])
        else:
            assert got[1] == want[1]
            assert got[0] == pytest.approx(want[0], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "locs, log_scales",
        [
            ([0.1, math.nan], [0.0, 0.0]),  # location not finite
            ([0.1, math.inf], [0.0, 0.0]),
            ([0.1, 0.2], [0.0, 710.0]),  # scale overflows; an unguarded exp warns, an error in Tier-1
            ([0.1, 0.2], [0.0, -746.0]),  # scale underflows to 0
            ([0.1, 0.2], [0.0, math.nan]),
            ([0.1, 1e300], [0.0, -700.0]),  # standard score overflows
        ],
    )
    def test_guards(self, locs, log_scales):
        data, _ = generate(small_config(n_train=2, feature_dim=1))
        got = _evaluate(np.column_stack((locs, log_scales)), data)
        assert math.isinf(got[0]) and math.isnan(got[1])


class TestTrain:
    def test_zero_epochs_returns_initialization(self):
        cfg = small_config(epochs=0)
        predictor, report = train(cfg)
        init = Predictor.initial(cfg.feature_dim)
        assert predictor.as_vector() == init.as_vector()
        assert predictor == init
        assert report.epoch_stats == ()
        assert not report.diverged

    def test_stationary_at_matching_labels_and_scales(self):
        # Labels exactly on the linear model and oracle scales equal to the
        # predicted scale: every per-sample gradient is zero, so a full
        # epoch must leave the parameters untouched.
        d = 3
        rng = np.random.default_rng(41)
        features = rng.uniform(-1, 1, (50, d))
        w = np.array([0.5, -1.0, 2.0])
        c = 0.3
        b = 0.25
        targets = features @ w + c
        data = Dataset(
            features=features,
            true_targets=targets,
            labels=targets.copy(),
            true_scales=np.full(50, b),
            quality=np.full(50, 0.5),
        )
        init = Predictor(list(w), c, [0.0] * d, math.log(b))
        cfg = small_config(n_train=50, feature_dim=d, epochs=1, noise=ConstantNoise(b))
        predictor, report = train(cfg, data, data, init=init)
        drift = max(abs(a - b_) for a, b_ in zip(predictor.as_vector(), init.as_vector()))
        assert drift < 1e-10
        assert not report.diverged

    def test_wider_label_scales_lower_the_summed_loss(self):
        # Fixed predictions, label scales b2 > b1, predicted scale >= b2:
        # the wider assumption strictly lowers the total training loss.
        cfg = small_config(n_train=300)
        data, _ = generate(cfg)
        theta = Predictor.initial(cfg.feature_dim).theta  # predicted scale 1.0
        locs, log_scales = (data.features @ theta[:, :-1].T + theta[:, -1]).T
        scales = np.exp(log_scales)

        def total(label_scale):
            return sum(
                kld_loss(
                    LaplaceParams(float(y), label_scale), LaplaceParams(float(m), float(s))
                ).value
                for y, m, s in zip(data.labels, locs, scales)
            )

        assert total(0.5) < total(0.1)

    def test_determinism(self):
        cfg = small_config(epochs=4, average_tail_epochs=2)
        _, first = train(cfg)
        _, second = train(cfg)
        assert first == second

    def test_nll_high_learning_rate_without_clipping_misbehaves(self):
        # Aggressive rate, effectively no clip, pure NLL: the run either
        # diverges outright or ends collapsed and badly miscalibrated.
        cfg = SynthConfig(
            n_train=2000,
            n_test=1000,
            feature_dim=3,
            noise=ConstantNoise(0.2),
            label_scale=ZeroLabelScale(),
            seed=7,
            epochs=10,
            learning_rate=1.0,
            grad_clip=1e12,
            average_tail_epochs=0,
        )
        _, report = train(cfg)
        assert report.diverged or report.test_ece > 0.1

    def test_oracle_scales_converge_calibrated(self):
        # Partial-overfit setting, loose rate, no clipping: the divergence
        # loss with true per-sample scales ends well calibrated.
        cfg = SynthConfig(
            n_train=64,
            n_test=4000,
            feature_dim=24,
            noise=ConstantNoise(0.5),
            label_scale=OracleLabelScale(),
            seed=5,
            epochs=300,
            learning_rate=0.05,
            grad_clip=1e12,
            average_tail_epochs=100,
        )
        _, report = train(cfg)
        assert not report.diverged
        assert report.test_ece < 0.03

    @pytest.mark.parametrize("log_bias", [-354.0, -354.25, -354.5])
    def test_a_gradient_whose_squared_norm_overflows_is_clipped(self, log_bias):
        # A predicted scale near e**-354 gives head partials near 1e154: finite,
        # but the sum of their squares overflows. The step is still clipped to
        # grad_clip, along the gradient.
        cfg = SynthConfig(
            n_train=1, n_test=40, feature_dim=4, label_scale=ZeroLabelScale(), seed=3,
            epochs=1, average_tail_epochs=0,
        )
        train_set, test_set = generate(cfg)
        init = Predictor([0.0] * 4, 0.0, [0.0] * 4, log_bias)
        _, grads = sample_param_grads(
            init, tuple(train_set.features[0]), float(train_set.labels[0]), None
        )
        assert all(map(math.isfinite, grads))
        assert math.isinf(sum(g * g for g in grads))
        predictor, report = train(cfg, train_set, test_set, init=init)
        assert not report.diverged
        moved = np.subtract(predictor.as_vector(), init.as_vector())
        lr_clip = cfg.learning_rate * cfg.grad_clip
        assert float(np.linalg.norm(moved)) == pytest.approx(lr_clip, rel=1e-9)
        direction = np.divide(grads, max(map(abs, grads)))
        np.testing.assert_allclose(
            moved, -lr_clip * direction / np.linalg.norm(direction), rtol=1e-9, atol=1e-15
        )
        assert_runs_match((predictor, report), reference_train(cfg, train_set, test_set, init))

    def test_divergence_is_recorded_not_raised(self):
        cfg = small_config(
            label_scale=ZeroLabelScale(), learning_rate=5.0, grad_clip=1e12, epochs=5
        )
        _, report = train(cfg)
        assert report.diverged
        assert math.isinf(report.test_mae)
        assert len(report.epoch_stats) <= 5

    def test_overflowing_standard_score_is_a_divergence(self):
        # Locations and scales stay finite, but some residual over its scale overflows.
        cfg = SynthConfig(
            n_train=16, n_test=40, feature_dim=2, label_scale=ZeroLabelScale(), seed=2,
            epochs=3, learning_rate=1000.0, grad_clip=1e12, average_tail_epochs=0,
        )
        got = train(cfg)
        assert got[1].diverged
        assert math.isinf(got[1].test_mae) and math.isnan(got[1].test_ece)
        assert_runs_match(got, reference_train(cfg))

    def test_final_scores_that_overflow_mark_the_run_diverged(self):
        # Zero epochs: the test set is scored at the given predictor, whose
        # locations (1e300) and scales (e**-700) are finite but not their ratio.
        cfg = small_config(epochs=0)
        init = Predictor([0.0] * cfg.feature_dim, 1e300, [0.0] * cfg.feature_dim, -700.0)
        locs, log_scales = (generate(cfg)[1].features @ init.theta[:, :-1].T + init.theta[:, -1]).T
        scales = np.exp(log_scales)
        assert np.all(np.isfinite(locs)) and np.all(np.isfinite(scales) & (scales > 0.0))
        _, report = train(cfg, init=init)
        assert report.diverged
        assert math.isinf(report.test_mae) and math.isnan(report.test_ece)


class TestCompare:
    def test_single_config_gives_one_row(self):
        rows = compare([small_config()])
        assert len(rows) == 1
        assert rows[0].mode == "oracle"

    def test_mismatched_generator_settings_rejected(self):
        with pytest.raises(ValueError):
            compare([small_config(seed=1), small_config(seed=2)])
        with pytest.raises(ValueError):
            compare([small_config(), small_config(n_train=150)])

    def test_oracle_is_near_best_for_calibration(self):
        # Four label-scale strategies on shared feature-dependent data; the
        # oracle row's calibration gap is within 0.01 of every other row.
        base = SynthConfig(
            n_train=256,
            n_test=4000,
            feature_dim=64,
            noise=FeatureDependentNoise(0.2, 0.5),
            label_scale=OracleLabelScale(),
            seed=2,
            epochs=400,
            learning_rate=0.03,
            grad_clip=1.0,
            average_tail_epochs=100,
        )
        train_set, _ = generate(base)
        mean_b = round(float(train_set.true_scales.mean()), 3)
        configs = [
            dataclasses.replace(base, label_scale=mode)
            for mode in (
                ZeroLabelScale(),
                ConstantLabelScale(0.5),
                ConstantLabelScale(mean_b),
                OracleLabelScale(),
            )
        ]
        rows = compare(configs)
        assert [r.diverged for r in rows] == [False] * 4
        oracle = rows[-1]
        for row in rows[:-1]:
            assert oracle.test_ece <= row.test_ece + 0.01

    def test_overestimated_constant_scale_hurts_accuracy(self):
        # Label scale far above the true noise slows the location fit down;
        # within a fixed budget the oracle run reaches a better MAE.
        base = SynthConfig(
            n_train=1024,
            n_test=4000,
            feature_dim=8,
            noise=FeatureDependentNoise(0.1, 0.5),
            label_scale=OracleLabelScale(),
            seed=1,
            epochs=25,
            learning_rate=0.05,
            grad_clip=1.0,
            average_tail_epochs=8,
        )
        rows = compare(
            [dataclasses.replace(base, label_scale=ConstantLabelScale(2.0)), base]
        )
        overestimate, oracle = rows
        assert overestimate.test_mae > oracle.test_mae


LABEL_SCALE_MODES = st.one_of(
    st.just(ZeroLabelScale()),
    st.just(OracleLabelScale()),
    st.floats(0.05, 2.0).map(ConstantLabelScale),
    st.just(HeuristicLabelScale((0.5, 0.25, 0.1))),
)


class TestEpochScoring:
    """Only train() scores each epoch on the train set; compare() asks it not to."""

    @pytest.fixture
    def scored_sizes(self, monkeypatch, tmp_path):
        """Reads the record count of each call made through synth_trainer.calibration_report.

        Each call appends its count to a file in one O_APPEND write, so the
        calls that compare() makes in its forked children count too.
        """
        path = tmp_path / "scored_sizes"
        path.touch()
        report = synth_trainer.calibration_report

        def counting(residuals, scales, *args, **kwargs):
            fd = os.open(path, os.O_WRONLY | os.O_APPEND)
            try:
                os.write(fd, f"{len(residuals)}\n".encode())
            finally:
                os.close(fd)
            return report(residuals, scales, *args, **kwargs)

        monkeypatch.setattr(synth_trainer, "calibration_report", counting)
        return lambda: [int(line) for line in path.read_text().split()]

    def test_train_scores_every_epoch_then_the_test_set(self, scored_sizes):
        cfg = small_config(epochs=5, average_tail_epochs=2)
        _, report = train(cfg)
        assert not report.diverged
        assert scored_sizes() == [cfg.n_train] * cfg.epochs + [cfg.n_test]

    def test_compare_scores_only_the_test_set(self, scored_sizes):
        cfg = small_config(epochs=5)
        modes = [ZeroLabelScale(), OracleLabelScale(), ConstantLabelScale(0.3)]
        rows = compare([dataclasses.replace(cfg, label_scale=m) for m in modes])
        assert [r.diverged for r in rows] == [False] * 3
        assert scored_sizes() == [cfg.n_test] * 3

    def test_unscored_report_csv_leaves_ece_empty(self):
        cfg = small_config(epochs=2)
        _, report = train(cfg, score_epochs=False)
        lines = train_report_to_csv(cfg, report).split("\n")
        assert lines[2].startswith("1,") and lines[2].endswith(",")
        assert lines[3].startswith("2,") and lines[3].endswith(",")

    @settings(max_examples=40, deadline=None)
    @given(
        n_train=st.integers(5, 40),
        feature_dim=st.integers(1, 6),
        epochs=st.integers(0, 6),
        average_tail_epochs=st.integers(0, 3),
        # 0.01 and 0.05 stay stable; 5 and 1000 without clipping diverge the NLL.
        learning_rate=st.sampled_from([0.01, 0.05, 5.0, 1000.0]),
        grad_clip=st.sampled_from([1.0, 1e12]),
        seed=st.integers(0, 2**16),
        modes=st.lists(LABEL_SCALE_MODES, min_size=1, max_size=4),
    )
    @example(
        n_train=16, feature_dim=2, epochs=3, average_tail_epochs=0, learning_rate=1000.0,
        grad_clip=1e12, seed=2, modes=[ZeroLabelScale(), OracleLabelScale()],
    )
    def test_compare_equals_train_run_by_run(self, modes, **fields):
        base = SynthConfig(n_test=30, noise=FeatureDependentNoise(0.1, 0.5), **fields)
        configs = [dataclasses.replace(base, label_scale=m) for m in modes]
        rows = compare(configs)
        train_set, test_set = generate(base)
        for cfg, row in zip(configs, rows):
            _, scored = train(cfg, train_set, test_set)
            _, unscored = train(cfg, train_set, test_set, score_epochs=False)
            # repr is exact for floats and lets a nan match a nan.
            final = repr((scored.test_mae, scored.test_ece, scored.diverged))
            assert repr((row.test_mae, row.test_ece, row.diverged)) == final
            assert repr((unscored.test_mae, unscored.test_ece, unscored.diverged)) == final
            assert len(unscored.epoch_stats) == len(scored.epoch_stats)
            assert repr([(s.mean_loss, s.mean_abs_error) for s in unscored.epoch_stats]) == repr(
                [(s.mean_loss, s.mean_abs_error) for s in scored.epoch_stats]
            )
            assert all(s.ece is None for s in unscored.epoch_stats)


class TestForkedCompare:
    """compare() trains the shares after the first in forked children; rows and errors
    are those of the serial loop, and no child outlives the call."""

    @staticmethod
    def configs(n, **fields):
        base = small_config(n_train=40, n_test=50, epochs=2, **fields)
        return [dataclasses.replace(base, label_scale=ConstantLabelScale(0.1 * (i + 1))) for i in range(n)]

    @settings(max_examples=15, deadline=None)
    @given(
        modes=st.lists(LABEL_SCALE_MODES, min_size=1, max_size=5),
        # 1000 without clipping diverges the NLL and the small label scales.
        learning_rate=st.sampled_from([0.05, 1000.0]),
        seed=st.integers(0, 2**16),
    )
    @example(modes=[ZeroLabelScale(), OracleLabelScale(), ZeroLabelScale()], learning_rate=1000.0, seed=2)
    def test_rows_equal_the_serial_rows(self, modes, learning_rate, seed):
        base = SynthConfig(n_train=24, n_test=30, feature_dim=3, noise=FeatureDependentNoise(0.1, 0.5),
                           epochs=4, learning_rate=learning_rate, grad_clip=1e12, seed=seed)
        configs = [dataclasses.replace(base, label_scale=m) for m in modes]
        forks = []
        real_fork = os.fork

        def counted_fork():
            forks.append(None)
            return real_fork()

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(os, "fork", counted_fork)
            patch.setattr(os, "sched_getaffinity", cpus(3))
            forked = repr(compare(configs))
            assert len(forks) == min(len(modes), 3) - 1
            patch.setattr(os, "sched_getaffinity", cpus(1))
            serial = repr(compare(configs))
            patch.setattr(os, "sched_getaffinity", cpus(3))
            patch.setattr(os, "fork", refuse_fork)
            unforked = repr(compare(configs))
        assert forked == serial == unforked
        assert_all_children_reaped()

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_a_child_raises_the_serial_error(self, monkeypatch, n_cpus):
        # Zero noise has no oracle scale: the oracle run fails, in the child with two CPUs.
        monkeypatch.setattr(os, "sched_getaffinity", cpus(n_cpus))
        base = small_config(noise=ConstantNoise(0.0))
        with pytest.raises(ValueError, match="^oracle label scales require strictly positive noise scales$"):
            compare([dataclasses.replace(base, label_scale=ZeroLabelScale()), base])
        assert_all_children_reaped()

    # Three CPUs deal five configs into shares (0, 3), (1, 4) and (2,): the
    # first share is trained here, the others in two children.
    @pytest.mark.parametrize("failing", [{1}, {3}, {1, 3}, {2, 4}, {0, 4}, {3, 4}])
    def test_the_first_failing_config_wins(self, monkeypatch, failing):
        configs = self.configs(5)
        real_train = synth_trainer.train

        def failing_train(cfg, *args, **kwargs):
            if configs.index(cfg) in failing:
                raise ValueError(f"cannot train {cfg.label_scale.label()}")
            return real_train(cfg, *args, **kwargs)

        monkeypatch.setattr(synth_trainer, "train", failing_train)
        first = configs[min(failing)].label_scale.label()
        for n_cpus in (3, 1):
            monkeypatch.setattr(os, "sched_getaffinity", cpus(n_cpus))
            with pytest.raises(ValueError, match=rf"^cannot train {re.escape(first)}$"):
                compare(configs)
        assert_all_children_reaped()

    @pytest.mark.parametrize("failure", SHARE_FAILURES)
    def test_a_failing_share_gives_the_serial_rows(self, monkeypatch, failure):
        # Three CPUs deal five configs into shares (0, 3), (1, 4) and (2,). The
        # child training (1, 4) fails on config 4, after training config 1.
        configs = self.configs(5)
        monkeypatch.setattr(os, "sched_getaffinity", cpus(1))
        serial = repr(compare(configs))
        monkeypatch.setattr(os, "sched_getaffinity", cpus(3))
        with share_failure(failure, synth_trainer, "train",
                           lambda cfg, *args, **kwargs: configs.index(cfg) == 4) as trained:
            rows = repr(compare(configs))
        # With no pipe or fork to be had, all five configs are trained here, once;
        # a failed share has them trained after the first share's two. Where
        # SIGCHLD is ignored the rows the children sent in full are kept.
        assert len(trained) == {"refused fork": 5, "refused pipe": 5, "SIGCHLD ignored": 2}.get(failure, 7)
        assert rows == serial
        assert_all_children_reaped()

    def test_an_interrupt_kills_and_reaps_the_children(self, monkeypatch):
        configs = self.configs(2)
        parent = os.getpid()

        def stuck_train(cfg, *args, **kwargs):
            if os.getpid() != parent:
                time.sleep(30)
            raise KeyboardInterrupt

        monkeypatch.setattr(synth_trainer, "train", stuck_train)
        monkeypatch.setattr(os, "sched_getaffinity", cpus(2))
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            compare(configs)
        assert time.monotonic() - started < 20
        assert_all_children_reaped()

    def test_no_fork_while_another_thread_runs(self, monkeypatch):
        configs = self.configs(3)
        monkeypatch.setattr(os, "sched_getaffinity", cpus(1))
        serial = repr(compare(configs))
        monkeypatch.setattr(os, "sched_getaffinity", cpus(3))
        forks = []
        monkeypatch.setattr(os, "fork", lambda: forks.append(None) or refuse_fork())
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            rows = repr(compare(configs))
        finally:
            stop.set()
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert forks == []
        assert rows == serial
        assert_all_children_reaped()


class TestConfigSerialization:
    def test_round_trip(self):
        cfg = SynthConfig(
            n_train=10,
            n_test=11,
            feature_dim=2,
            noise=FeatureDependentNoise(0.05, 0.4),
            label_scale=HeuristicLabelScale((0.5, 0.2, 0.1)),
            seed=3,
            epochs=7,
            learning_rate=0.125,
            grad_clip=2.0,
            average_tail_epochs=4,
        )
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_defaults_fill_missing_keys(self):
        cfg = config_from_dict({"seed": 5})
        assert cfg.seed == 5
        assert cfg.n_train == SynthConfig().n_train

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"seed": -1}, "seed must be >= 0, got -1"),
            ({"label_scale": {"mode": "heuristic", "anchors": [1e300, 5e299, 2e288]}},
             "anchors must give a fit within the float range, got (1e+300, 5e+299, 2e+288)"),
            ({"label_scale": {"mode": "heuristic", "anchors": [1e308, 1e-300, 5e-324]}},
             "anchors must give a fit within the float range, got (1e+308, 1e-300, 5e-324)"),
        ],
        ids=["negative-seed", "alpha-overflow", "t-underflow"],
    )
    def test_values_the_run_cannot_use_are_rejected(self, doc, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            config_from_dict(doc)

    def test_bad_documents_rejected(self):
        with pytest.raises(ValueError):
            config_from_dict({"noise": {"kind": "nope"}})
        with pytest.raises(ValueError):
            config_from_dict({"label_scale": {"mode": "nope"}})
        with pytest.raises(ValueError):
            config_from_dict([1, 2])

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"learning_rte": 0.5}, "learning_rte"),
            ({"config": {"seed": 3}}, "config"),
            ({"seed": 3, "modes": [{"mode": "zero"}]}, "modes"),
        ],
    )
    def test_unknown_keys_rejected(self, doc, key):
        with pytest.raises(ValueError, match=re.escape(f"unknown config key {key!r}")):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"noise": [0.2]}, "config key 'noise' must be a JSON object"),
            ({"noise": {"kind": "constant"}}, "config key 'noise.b' is missing"),
            ({"noise": {"kind": "feature_dependent", "b_low": 0.1}},
             "config key 'noise.b_high' is missing"),
            ({"label_scale": "zero"}, "config key 'label_scale' must be a JSON object"),
            ({"label_scale": {"mode": "constant"}}, "config key 'label_scale.b' is missing"),
            ({"label_scale": {"mode": "heuristic"}}, "config key 'label_scale.anchors' is missing"),
            ({"label_scale": {"mode": "heuristic", "anchors": 5}},
             "config key 'label_scale.anchors' must be a list"),
        ],
    )
    def test_malformed_nested_objects_name_the_key(self, doc, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"noise": {"kind": "constant", "b": 0.2, "b_hgh": 0.9}},
             "unknown config key 'noise.b_hgh'; known keys: kind, b"),
            ({"noise": {"kind": "feature_dependent", "b_low": 0.1, "b_high": 0.5, "b": 1}},
             "unknown config key 'noise.b'; known keys: kind, b_low, b_high"),
            ({"label_scale": {"mode": "oracle", "b": 0.3}},
             "unknown config key 'label_scale.b'; known keys: mode"),
            ({"label_scale": {"mode": "zero", "anchors": [1, 2]}},
             "unknown config key 'label_scale.anchors'; known keys: mode"),
            ({"label_scale": {"mode": "constant", "b": 0.3, "kind": "constant"}},
             "unknown config key 'label_scale.kind'; known keys: mode, b"),
            ({"label_scale": {"mode": "heuristic", "anchors": [3, 2, 1], "b": 0.3}},
             "unknown config key 'label_scale.b'; known keys: mode, anchors"),
        ],
    )
    def test_unknown_nested_keys_rejected(self, doc, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            config_from_dict(doc)

    @pytest.mark.parametrize("tag", [["constant"], {"kind": "constant"}, 1, None])
    def test_tags_that_are_not_strings_are_unknown(self, tag):
        with pytest.raises(ValueError, match=re.escape(f"unknown noise kind {tag!r}")):
            config_from_dict({"noise": {"kind": tag, "b": 0.2}})

    @pytest.mark.parametrize(
        "key", ["n_train", "n_test", "feature_dim", "seed", "epochs", "average_tail_epochs"]
    )
    @pytest.mark.parametrize("value", [2.9, 3.0, True, "3"])
    def test_integer_keys_reject_non_integers(self, key, value):
        with pytest.raises(ValueError, match=f"config key '{key}' must be an integer"):
            config_from_dict({key: value})

    def test_non_integral_counts_are_not_truncated(self):
        with pytest.raises(ValueError, match="'n_train'"):
            config_from_dict({"n_train": 2.9, "epochs": 3.7, "feature_dim": True})

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"learning_rate": True}, "learning_rate"),
            ({"learning_rate": "0.05"}, "learning_rate"),
            ({"grad_clip": "0.5"}, "grad_clip"),
            ({"grad_clip": False}, "grad_clip"),
            ({"noise": {"kind": "constant", "b": False}}, "noise.b"),
            ({"noise": {"kind": "constant", "b": "0.2"}}, "noise.b"),
            ({"noise": {"kind": "feature_dependent", "b_low": True, "b_high": 0.5}}, "noise.b_low"),
            ({"noise": {"kind": "feature_dependent", "b_low": 0.1, "b_high": "0.5"}}, "noise.b_high"),
            ({"label_scale": {"mode": "constant", "b": True}}, "label_scale.b"),
            ({"label_scale": {"mode": "constant", "b": "0.3"}}, "label_scale.b"),
            ({"label_scale": {"mode": "heuristic", "anchors": [True, 0.2, 0.1]}},
             "label_scale.anchors[0]"),
            ({"label_scale": {"mode": "heuristic", "anchors": [0.5, "0.2", 0.1]}},
             "label_scale.anchors[1]"),
            ({"label_scale": {"mode": "heuristic", "anchors": [0.5, 0.2, False]}},
             "label_scale.anchors[2]"),
        ],
    )
    def test_float_keys_reject_booleans_and_strings(self, doc, key):
        with pytest.raises(ValueError, match=re.escape(f"config key '{key}' must be a number")):
            config_from_dict(doc)

    def test_float_keys_take_integers(self):
        cfg = config_from_dict({
            "learning_rate": 1, "grad_clip": 2, "noise": {"kind": "constant", "b": 0},
            "label_scale": {"mode": "heuristic", "anchors": [4, 2, 1]},
        })
        assert (cfg.learning_rate, cfg.grad_clip, cfg.noise.b) == (1.0, 2.0, 0.0)
        assert cfg.label_scale.anchors == (4.0, 2.0, 1.0)


_positive = st.floats(min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False)
_anchor_steps = st.floats(min_value=0.01, max_value=100.0)
NOISE_KINDS = {
    "constant": st.builds(ConstantNoise, st.floats(min_value=0.0, allow_infinity=False)),
    "feature_dependent": st.lists(_positive, min_size=2, max_size=2).map(
        lambda bounds: FeatureDependentNoise(*sorted(bounds))
    ),
}
LABEL_MODES = {
    "zero": st.just(ZeroLabelScale()),
    "constant": st.builds(ConstantLabelScale, _positive),
    "oracle": st.just(OracleLabelScale()),
    "heuristic": st.tuples(_anchor_steps, _anchor_steps, _anchor_steps).map(
        lambda s: HeuristicLabelScale((s[0] + s[1] + s[2], s[0] + s[1], s[0]))
    ),
}


class TestCompareConfigs:
    def test_one_config_per_mode_on_the_base_config(self):
        configs = compare_configs_from_dict({
            "config": {"seed": 4, "epochs": 2},
            "modes": [{"mode": "zero"}, {"mode": "constant", "b": 0.3}],
        })
        base = SynthConfig(seed=4, epochs=2)
        assert configs == [
            dataclasses.replace(base, label_scale=ZeroLabelScale()),
            dataclasses.replace(base, label_scale=ConstantLabelScale(0.3)),
        ]

    def test_missing_base_config_uses_the_defaults(self):
        assert compare_configs_from_dict({"modes": [{"mode": "oracle"}]}) == [SynthConfig()]

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([], "compare config must be an object with 'config' and 'modes'"),
            ({"config": {}}, "compare config must be an object with 'config' and 'modes'"),
            ({"modes": [{"mode": "zero"}], "seed": 1},
             "unknown compare config key 'seed'; known keys: config, modes"),
            ({"modes": []}, "'modes' must be a non-empty list"),
            ({"modes": {"mode": "zero"}}, "'modes' must be a non-empty list"),
            ({"config": {"learning_rte": 1}, "modes": [{"mode": "zero"}]},
             "unknown config key 'learning_rte'"),
            ({"modes": [{"mode": "zero"}, "oracle"]},
             "config key 'modes[1]' must be a JSON object, got 'oracle'"),
            ({"modes": [{"mode": "zero", "anchors": [1, 2]}]},
             "unknown config key 'modes[0].anchors'; known keys: mode"),
            ({"modes": [{"mode": "nope"}]}, "unknown modes[0] mode 'nope'"),
        ],
    )
    def test_bad_documents_name_the_key(self, doc, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            compare_configs_from_dict(doc)


class TestConfigDocuments:
    """Config documents survive JSON, and the labels and headers are pinned."""

    @pytest.mark.parametrize("mode", sorted(LABEL_MODES))
    @pytest.mark.parametrize("kind", sorted(NOISE_KINDS))
    @given(data=st.data())
    def test_json_round_trip(self, kind, mode, data):
        cfg = data.draw(st.builds(
            SynthConfig,
            n_train=st.integers(1, 10**9),
            n_test=st.integers(1, 10**9),
            feature_dim=st.integers(1, 10**6),
            noise=NOISE_KINDS[kind],
            label_scale=LABEL_MODES[mode],
            seed=st.integers(0),
            epochs=st.integers(0, 10**9),
            learning_rate=_positive,
            grad_clip=st.floats(min_value=0.0, exclude_min=True),
            average_tail_epochs=st.integers(0, 10**9),
        ))
        assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg

    @pytest.mark.parametrize(
        "value, label",
        [
            (ConstantNoise(0.123456789), "constant(0.123457)"),
            (FeatureDependentNoise(1e-7, 12345678.0), "feature_dependent(1e-07;1.23457e+07)"),
            (ZeroLabelScale(), "zero"),
            (ConstantLabelScale(2), "constant(2)"),
            (OracleLabelScale(), "oracle"),
            (HeuristicLabelScale((0.5, 0.25, 1 / 30)), "heuristic(0.5;0.25;0.0333333)"),
        ],
    )
    def test_labels_are_pinned(self, value, label):
        assert value.label() == label

    @pytest.mark.parametrize(
        "cfg, text",
        [
            (SynthConfig(),
             "n_train=256 n_test=4000 feature_dim=128 noise=feature_dependent(0.1;0.5) "
             "label_scale=oracle seed=0 epochs=400 learning_rate=0.03 grad_clip=1 "
             "average_tail_epochs=100"),
            (SynthConfig(n_train=7, n_test=9, feature_dim=2, noise=ConstantNoise(0.25),
                         label_scale=HeuristicLabelScale((3.0, 2.0, 0.5)), seed=4, epochs=0,
                         learning_rate=1 / 3, grad_clip=1e300, average_tail_epochs=0),
             "n_train=7 n_test=9 feature_dim=2 noise=constant(0.25) "
             "label_scale=heuristic(3;2;0.5) seed=4 epochs=0 learning_rate=0.333333 "
             "grad_clip=1e+300 average_tail_epochs=0"),
        ],
    )
    def test_describe_is_pinned(self, cfg, text):
        assert cfg.describe() == text

    def test_comparison_header_omits_the_label_scale(self):
        cfg = SynthConfig(noise=ConstantNoise(0.2), label_scale=ConstantLabelScale(0.3))
        rows = [CompareRow("zero", 0.5, 0.25, False)]
        assert comparison_to_csv(cfg, rows) == (
            "# n_train=256 n_test=4000 feature_dim=128 noise=constant(0.2) seed=0 epochs=400 "
            "learning_rate=0.03 grad_clip=1 average_tail_epochs=100\n"
            "mode,test_mae,test_ece,diverged\n"
            "zero,0.5,0.25,false\n"
        )


class TestInputChecks:
    """The step kernel takes labels on trust; the entry points check them once."""

    def test_nan_label_is_rejected(self):
        cfg = small_config()
        data, test = generate(cfg)
        labels = data.labels.copy()
        labels[7] = math.nan
        with pytest.raises(ValueError, match="labels must be finite"):
            train(cfg, dataclasses.replace(data, labels=labels), test)

    def test_infinite_oracle_scale_is_rejected(self):
        cfg = small_config()
        data, test = generate(cfg)
        scales = data.true_scales.copy()
        scales[3] = math.inf
        with pytest.raises(ValueError, match="label scales must be positive and finite"):
            train(cfg, dataclasses.replace(data, true_scales=scales), test)

    @pytest.mark.parametrize("label_scale", [None, 0.3])
    def test_sample_param_grads_rejects_nan_label(self, label_scale):
        predictor = Predictor.initial(2)
        with pytest.raises(ValueError, match="labels must be finite"):
            sample_param_grads(predictor, (0.1, -0.2), math.nan, label_scale)

    @pytest.mark.parametrize("label_scale", [0.0, -1.0, math.inf, math.nan])
    def test_sample_param_grads_rejects_bad_label_scale(self, label_scale):
        predictor = Predictor.initial(2)
        with pytest.raises(ValueError, match="label scales must be positive and finite"):
            sample_param_grads(predictor, (0.1, -0.2), 0.4, label_scale)

    def test_init_of_the_wrong_width_is_rejected(self):
        cfg = small_config()
        with pytest.raises(ValueError) as err:
            train(cfg, init=Predictor.initial(cfg.feature_dim + 1))
        assert str(err.value) == "init predictor feature_dim 5 != dataset feature_dim 4"

    @pytest.mark.parametrize(
        "which, rows, width, message",
        [
            ("train", 0, 4, "train_set is empty"),
            ("test", 0, 4, "test_set is empty"),
            ("train", 5, 3, "train_set feature_dim 3 != config feature_dim 4"),
            ("test", 5, 3, "test_set feature_dim 3 != config feature_dim 4"),
            ("test", 5, 5, "test_set feature_dim 5 != config feature_dim 4"),
            # Rows of features, true_targets, labels, true_scales and quality.
            ("train", (20, 20, 10, 20, 20), 4, "train_set labels shape (10,) != (20,), one value per features row"),
            ("train", (20, 20, 20, 5, 20), 4, "train_set true_scales shape (5,) != (20,), one value per features row"),
            ("train", (20, 21, 20, 20, 20), 4, "train_set true_targets shape (21,) != (20,), one value per features row"),
            ("train", (20, 20, 20, 20, 0), 4, "train_set quality shape (0,) != (20,), one value per features row"),
            ("test", (30, 30, 10, 30, 30), 4, "test_set labels shape (10,) != (30,), one value per features row"),
            ("test", (30, 29, 30, 30, 30), 4, "test_set true_targets shape (29,) != (30,), one value per features row"),
            ("test", (30, 30, 30, 30, 31), 4, "test_set quality shape (31,) != (30,), one value per features row"),
        ],
    )
    def test_datasets_are_checked_before_the_first_epoch(
        self, which, rows, width, message, monkeypatch
    ):
        cfg = small_config()
        datasets = dict(zip(("train", "test"), generate(cfg)))
        sizes = (rows,) * 5 if isinstance(rows, int) else rows
        features = np.zeros((sizes[0], width))
        datasets[which] = Dataset(features, *(np.zeros(k) for k in sizes[1:]))

        def no_steps(*args):
            raise AssertionError("an epoch ran")

        monkeypatch.setattr(synth_trainer, "_sample_step", no_steps)
        with pytest.raises(ValueError) as err:
            train(cfg, datasets["train"], datasets["test"])
        assert str(err.value) == message

    def test_a_column_of_labels_is_rejected(self):
        # An (n, 1) test-set column would broadcast against the (n,) predictions.
        cfg = small_config()
        data, test = generate(cfg)
        with pytest.raises(ValueError) as err:
            train(cfg, data, dataclasses.replace(test, labels=test.labels[:, None]))
        assert str(err.value) == "test_set labels shape (500, 1) != (500,), one value per features row"

    @pytest.mark.parametrize("x", [(0.1,), (0.1, -0.2, 0.3)])
    def test_sample_param_grads_rejects_a_row_of_the_wrong_width(self, x):
        with pytest.raises(ValueError) as err:
            sample_param_grads(Predictor.initial(2), x, 0.4, None)
        assert str(err.value) == f"feature row has {len(x)} values, predictor feature_dim is 2"


class TestByteIdentity:
    # sha256 of train_report_to_csv for the default config at seed 3 with 20
    # epochs, one per label-scale mode. Any change to the arithmetic of the
    # step, the losses or the evaluation shows here.
    PINS = {
        "zero": "e3f90e7c64ffe76ca2c52fad7af8e393d53e9cb3ac0b9a8c75c36d4a5cc2096c",
        "oracle": "cdee7a9cc370c107a6b2094b34060a27161a01c4fee44922e1e1a036fc512123",
        "constant": "92d3f092ab59474c346cf20b5a6a1dd25cd97f262e94d61fa2d9b4ff926a11bb",
        "heuristic": "624b752c82db04cb13c594dd4f1f441d3bb2eddad4abe757484b39346bc6a3be",
    }
    MODES = {
        "zero": ZeroLabelScale(),
        "oracle": OracleLabelScale(),
        "constant": ConstantLabelScale(0.3),
        "heuristic": HeuristicLabelScale((0.5, 0.25, 0.1)),
    }

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_train_report_bytes_are_pinned(self, mode):
        cfg = SynthConfig(seed=3, epochs=20, label_scale=self.MODES[mode])
        _, report = train(cfg)
        text = train_report_to_csv(cfg, report)
        assert hashlib.sha256(text.encode()).hexdigest() == self.PINS[mode]


class TestExactRuns:
    """Exact reports and final parameters of runs the default pins do not reach.

    Each case pins ``repr(report)`` (exact floats, ``nan`` and ``None`` as
    such) and the sha256 of the returned ``theta``: a divergence through
    each guard of the step loop, active clipping, tail averaging, and both
    settings of ``score_epochs``.
    """

    FD = FeatureDependentNoise(0.1, 0.5)
    CASES = {
        # The head outputs leave the range the step kernel accepts at the
        # 62nd step of the second epoch.
        "range_guard": (
            dict(label_scale=ZeroLabelScale(), learning_rate=0.5, grad_clip=1e12, epochs=4, n_test=40),
            True,
            "4148bd9f0e1d4f2d3b7bcc49068892673a8db4f8437090ab0d6a029cb542b151",
            "TrainReport(epoch_stats=(EpochStats(mean_loss=7.127126076419688, "
            "mean_abs_error=5.123260537150449, ece=0.17222222222222228), "
            "EpochStats(mean_loss=inf, mean_abs_error=8.432815993126798, ece=nan)), "
            "test_mae=inf, test_ece=nan, diverged=True)",
        ),
        # In range, but the loss gradient overflows at the 5th step.
        "finite_guard": (
            dict(n_train=40, n_test=40, feature_dim=3, label_scale=ZeroLabelScale(),
                 learning_rate=200.0, grad_clip=1e12, seed=3),
            True,
            "fd7407c98fd3c0ee60187cccb6a7a55c0c70c2c9c0646cdc29690ec0eadf06bc",
            "TrainReport(epoch_stats=(EpochStats(mean_loss=inf, "
            "mean_abs_error=120.71979347058603, ece=nan),), test_mae=inf, test_ece=nan, "
            "diverged=True)",
        ),
        "clipped": (
            dict(n_train=64, n_test=40, noise=FD, grad_clip=0.05, epochs=3),
            True,
            "d2ab031b0e2f2128c42b962256dd69bf1529e154a453fb79ac7b42f8e9054991",
            "TrainReport(epoch_stats=(EpochStats(mean_loss=2.1605502344888565, "
            "mean_abs_error=1.5830979755101957, ece=0.08717171717171716), "
            "EpochStats(mean_loss=2.127314330120694, mean_abs_error=1.5655904959635811, "
            "ece=0.0832891414141414), EpochStats(mean_loss=2.0965671413668394, "
            "mean_abs_error=1.5471608572904763, ece=0.08017045454545454)), "
            "test_mae=1.459002411407663, test_ece=0.12606060606060607, diverged=False)",
        ),
        "averaged": (
            dict(n_train=64, n_test=40, noise=FD, label_scale=HeuristicLabelScale((0.5, 0.25, 0.1)),
                 epochs=4, average_tail_epochs=2),
            True,
            "23e69c101e5ad835750422e6521ae891f6ed898d6cb7bf1bb516193d077463f2",
            "TrainReport(epoch_stats=(EpochStats(mean_loss=1.881402882502446, "
            "mean_abs_error=1.4171553355169753, ece=0.052266414141414134), "
            "EpochStats(mean_loss=1.5239203991385497, mean_abs_error=0.996286383498475, "
            "ece=0.03821338383838383), EpochStats(mean_loss=1.05482222027571, "
            "mean_abs_error=0.584799541433082, ece=0.05676767676767678), "
            "EpochStats(mean_loss=0.6159949264263359, mean_abs_error=0.31121364802301316, "
            "ece=0.06683712121212121)), test_mae=0.23773696695172405, "
            "test_ece=0.06676767676767678, diverged=False)",
        ),
        "clipped_averaged_unscored": (
            dict(n_train=64, n_test=40, noise=FD, label_scale=ZeroLabelScale(), grad_clip=0.05,
                 epochs=4, average_tail_epochs=3),
            False,
            "d4acd00bccaccee5dae32977faadf31908a69bbba721a6ca1d1c91f3e9a8b555",
            "TrainReport(epoch_stats=(EpochStats(mean_loss=2.2668540941183495, "
            "mean_abs_error=1.5830734265909507, ece=None), "
            "EpochStats(mean_loss=2.2324823543953918, mean_abs_error=1.5653456367601277, "
            "ece=None), EpochStats(mean_loss=2.2010054251022098, "
            "mean_abs_error=1.5466977083018163, ece=None), "
            "EpochStats(mean_loss=2.171580436617773, mean_abs_error=1.5283592962261037, "
            "ece=None)), test_mae=1.4666387213340881, test_ece=0.12732323232323234, "
            "diverged=False)",
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_run_is_pinned(self, name, monkeypatch):
        fields, score_epochs, theta_digest, report_repr = self.CASES[name]
        kernel = synth_trainer._sample_step
        results = []

        def recording(*args):
            results.append(kernel(*args))
            return results[-1]

        monkeypatch.setattr(synth_trainer, "_sample_step", recording)
        cfg = small_config(**fields)
        predictor, report = train(cfg, score_epochs=score_epochs)
        assert repr(report) == report_repr
        assert hashlib.sha256(predictor.theta.tobytes()).hexdigest() == theta_digest
        finite = [r for r in results if r is not None and all(map(math.isfinite, r))]
        if name == "range_guard":
            assert results[-1] is None
        elif name == "finite_guard":
            assert results[-1] is not None and results[-1] not in finite
        else:
            assert finite == results
        sq_head_grads = [g_loc * g_loc + g_log * g_log for _, g_loc, g_log in finite]
        if "clipped" in name:
            assert max(sq_head_grads) > cfg.grad_clip**2
        # No step reaches the clip through a norm whose square overflows.
        assert max(sq_head_grads) < 1e300


class TestReportCsv:
    def test_train_report_layout(self):
        cfg = small_config(epochs=2)
        _, report = train(cfg)
        text = train_report_to_csv(cfg, report)
        lines = text.strip().split("\n")
        assert lines[0].startswith("# n_train=200 ")
        assert lines[1] == "epoch,mean_loss,mean_abs_error,ece"
        assert lines[2].startswith("1,")
        assert lines[-1].startswith("final,")
        assert lines[-1].endswith(",false")

    def test_comparison_layout(self):
        cfg = small_config(epochs=1)
        rows = compare([cfg, dataclasses.replace(cfg, label_scale=ZeroLabelScale())])
        text = comparison_to_csv(cfg, rows)
        lines = text.strip().split("\n")
        assert lines[1] == "mode,test_mae,test_ece,diverged"
        assert lines[2].startswith("oracle,")
        assert lines[3].startswith("zero,")
