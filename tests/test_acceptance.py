"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import dataclasses
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from lkld.calibration import calibration_report, laplace_quantile
from lkld.cli import main
from lkld.distributions import (
    LaplaceParams,
    gradient_check,
    kld_loss,
    kld_loss_zero_label_scale,
    nll_loss,
)
from lkld.geometry import ConvexPolygon, Point2, area, contains_point, convex_hull, intersect_convex, iou
from lkld.label_uncertainty import fit_mapping, map_iou
from lkld.synth_trainer import (
    ConstantNoise,
    FeatureDependentNoise,
    OracleLabelScale,
    SynthConfig,
    ZeroLabelScale,
    train,
)

from oracles import kl_divergence_quadrature, monte_carlo_intersection_area, random_convex_polygon


@contextmanager
def criterion(number, name):
    ok = False
    try:
        yield
        ok = True
    finally:
        print(f"[acceptance] criterion {number:2d} ({name}): {'PASS' if ok else 'FAIL'}")


def test_criterion_01_gradient_oracle_suite():
    with criterion(1, "gradient finite-difference oracle"):
        start = time.perf_counter()
        for loss_kind in ("nll", "kld"):
            result = gradient_check(loss_kind, samples=10_000, seed=2024, step=1e-6, rtol=1e-5)
            assert result.failures == 0, f"{loss_kind}: {result.failures} mismatches"
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"gradient suite took {elapsed:.2f}s"


def test_criterion_02_kld_quadrature_oracle():
    with criterion(2, "divergence value vs quadrature"):
        start = time.perf_counter()
        rng = np.random.default_rng(55)
        for _ in range(200):
            y, y_hat = rng.uniform(-3.0, 3.0, 2)
            b, b_hat = 10.0 ** rng.uniform(-1.5, 0.8, 2)
            closed = kld_loss(LaplaceParams(y, b), LaplaceParams(y_hat, b_hat)).value
            integrated = kl_divergence_quadrature(y, b, y_hat, b_hat)
            assert closed == pytest.approx(integrated, abs=1e-6)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"quadrature suite took {elapsed:.2f}s"


def test_criterion_03_wider_label_scale_strictly_lowers_loss():
    with criterion(3, "label-scale monotonicity grid"):
        grid = np.geomspace(0.01, 10.0, 20)
        errors = np.linspace(0.0, 5.0, 50)
        violations = 0
        checked = 0
        for b_hat in grid:
            for b2 in grid:
                if b2 > b_hat:
                    continue
                for b1 in grid:
                    if not (b2 > b1):
                        continue
                    pred = LaplaceParams(0.0, b_hat)
                    for err in errors:
                        narrow = kld_loss(LaplaceParams(err, b1), pred).value
                        wide = kld_loss(LaplaceParams(err, b2), pred).value
                        checked += 1
                        if not narrow > wide:
                            violations += 1
        assert checked > 0
        assert violations == 0, f"{violations} of {checked} grid points violated"


def test_criterion_04_zero_label_scale_gradients_match_nll_exactly():
    with criterion(4, "zero-label-scale limit equals NLL"):
        ys = np.linspace(-3.0, 3.0, 100)
        y_hats = np.linspace(-3.0, 3.0, 100)
        scales = np.geomspace(1e-2, 10.0, 100)
        for y in ys:
            for y_hat in y_hats:
                for b_hat in scales:
                    pred = LaplaceParams(y_hat, b_hat)
                    limit = kld_loss_zero_label_scale(y, pred)
                    reference = nll_loss(y, pred)
                    assert limit.d_location == reference.d_location
                    assert limit.d_scale == reference.d_scale


def test_criterion_05_geometry_oracles():
    with criterion(5, "geometry hull/intersection/IoU oracles"):
        rng = np.random.default_rng(66)

        # Convex-hull containment on 1000 random clouds.
        for _ in range(1000):
            n = int(rng.integers(3, 40))
            points = [Point2(float(x), float(y)) for x, y in rng.uniform(-3, 3, (n, 2))]
            hull = convex_hull(points)
            if len(hull) < 3:
                continue
            for p in points:
                assert contains_point(hull, p, tol=1e-9)

        # Monte Carlo area oracle on 100 random polygon pairs.
        for _ in range(100):
            va = random_convex_polygon(rng)
            vb = random_convex_polygon(rng)
            a = ConvexPolygon(tuple(Point2(*p) for p in va))
            b = ConvexPolygon(tuple(Point2(*p) for p in vb))
            estimate, se = monte_carlo_intersection_area(va, vb, 1_000_000, rng)
            got = area(intersect_convex(a, b))
            assert abs(got - estimate) <= max(3.0 * se, 1e-9), (got, estimate, se)

        # Hand-computable IoU cases, exact to 1e-9.
        unit = ConvexPolygon((Point2(0, 0), Point2(1, 0), Point2(1, 1), Point2(0, 1)))
        shifted = ConvexPolygon((Point2(0.5, 0), Point2(1.5, 0), Point2(1.5, 1), Point2(0.5, 1)))
        far = ConvexPolygon((Point2(9, 9), Point2(10, 9), Point2(10, 10), Point2(9, 10)))
        assert iou(unit, unit) == pytest.approx(1.0, abs=1e-9)
        assert iou(unit, far) == pytest.approx(0.0, abs=1e-9)
        assert iou(unit, shifted) == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_criterion_06_mapping_anchor_round_trips():
    with criterion(6, "anchor-triple mapping round-trips"):
        triples = [
            (0.50, 0.05, 0.01),
            (0.25, 0.05, 0.01),
            (0.10, 0.05, 0.01),
            (1.00, 0.05, 0.01),
            (2.00, 0.05, 0.01),
        ]
        for triple in triples:
            mapping = fit_mapping(*triple)
            for x, anchor in zip((0.0, 0.5, 1.0), triple):
                assert map_iou(mapping, x) == pytest.approx(anchor, abs=1e-9), triple


def test_criterion_07_calibration_sanity():
    with criterion(7, "calibration evaluator sanity"):
        n = 10_000
        residuals = laplace_quantile((np.arange(1, n + 1) - 0.5) / n)
        assert calibration_report(residuals, np.full(n, 1.0)).ece < 0.001

        assert calibration_report(residuals, np.full(n, 0.5)).ece > 0.05
        assert calibration_report(residuals, np.full(n, 2.0)).ece > 0.05


def _duel(base):
    """(oracle report, pure-NLL report) trained on shared data."""
    train_set, test_set = None, None
    _, oracle = train(dataclasses.replace(base, label_scale=OracleLabelScale()), train_set, test_set)
    _, nll = train(dataclasses.replace(base, label_scale=ZeroLabelScale()), train_set, test_set)
    return oracle, nll


def test_criterion_08_training_comparison():
    with criterion(8, "noisy-label training comparison"):
        start = time.perf_counter()
        wins = 0
        for seed in range(1, 6):
            base = SynthConfig(
                n_train=256,
                n_test=4000,
                feature_dim=128,
                noise=FeatureDependentNoise(0.1, 0.5),
                seed=seed,
                epochs=400,
                learning_rate=0.03,
                grad_clip=1.0,
                average_tail_epochs=100,
            )
            oracle, nll = _duel(base)
            if oracle.diverged:
                continue
            nll_ece = math.inf if nll.diverged else nll.test_ece
            nll_mae = math.inf if nll.diverged else nll.test_mae
            if oracle.test_ece <= nll_ece - 0.02 and oracle.test_mae <= nll_mae * 1.05:
                wins += 1
        elapsed = time.perf_counter() - start
        assert wins >= 4, f"only {wins}/5 seeds satisfied the comparison"
        assert elapsed < 120.0, f"comparison took {elapsed:.1f}s"


def test_criterion_09_nll_instability_exhibit():
    with criterion(9, "NLL instability exhibit"):
        nll_bad = 0
        kld_good = 0
        for seed in range(1, 6):
            base = SynthConfig(
                n_train=48,
                n_test=4000,
                feature_dim=16,
                noise=ConstantNoise(0.5),
                seed=seed,
                epochs=300,
                learning_rate=0.1,
                grad_clip=1e12,
                average_tail_epochs=100,
            )
            oracle, nll = _duel(base)
            if nll.diverged or nll.test_ece > 0.1:
                nll_bad += 1
            if not oracle.diverged and oracle.test_ece < 0.05:
                kld_good += 1
        assert nll_bad >= 4, f"NLL misbehaved in only {nll_bad}/5 seeds"
        assert kld_good >= 4, f"divergence loss calibrated in only {kld_good}/5 seeds"


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "CLI byte-identical reruns"):
        tracks = tmp_path / "tracks.json"
        tracks.write_text(
            json.dumps(
                {
                    "tracks": [
                        {
                            "label_id": "v1",
                            "class_name": "vehicle",
                            "poses": [
                                {
                                    "sweep_id": 0,
                                    "center": [0.0, 0.0],
                                    "theta": 0.2,
                                    "length": 4.0,
                                    "width": 2.0,
                                }
                            ],
                            "points": [{"sweep_id": 0, "xy": [[1.0, 0.5], [-1.0, -0.5], [0.5, -0.8]]}],
                        }
                    ]
                }
            )
        )
        preds = tmp_path / "preds.csv"
        preds.write_text(
            "residual,scale,class_name\n"
            + "".join(f"{0.07 * k - 0.4},0.3,vehicle\n" for k in range(24))
        )
        train_cfg = tmp_path / "train.json"
        train_cfg.write_text(
            json.dumps(
                {
                    "n_train": 64,
                    "n_test": 64,
                    "feature_dim": 3,
                    "noise": {"kind": "constant", "b": 0.2},
                    "label_scale": {"mode": "oracle"},
                    "seed": 9,
                    "epochs": 2,
                    "learning_rate": 0.05,
                    "grad_clip": 1.0,
                    "average_tail_epochs": 1,
                }
            )
        )
        compare_cfg = tmp_path / "compare.json"
        compare_cfg.write_text(
            json.dumps(
                {
                    "config": json.loads(train_cfg.read_text()),
                    "modes": [{"mode": "zero"}, {"mode": "oracle"}],
                }
            )
        )

        commands = {
            "loss-eval": ["loss-eval", "--loss", "kld", "--label-location", "0.3",
                          "--label-scale", "0.2", "--pred-location", "0.1", "--pred-scale", "0.4"],
            "grad-check": ["grad-check", "--loss", "kld", "--samples", "200", "--seed", "4"],
            "surface": ["surface", "--loss", "kld", "--label-scale", "0.2",
                        "--error", "0:1:0.1", "--scale", "0.05:0.5:0.05"],
            "labelunc": ["labelunc", "--tracks", str(tracks), "--anchors", "2.0,0.05,0.01"],
            "fit-map": ["fit-map", "--anchors", "2.0,0.05,0.01"],
            "calib": ["calib", "--records", str(preds)],
            "train": ["train", "--config", str(train_cfg)],
            "compare": ["compare", "--config", str(compare_cfg)],
        }

        outputs = {}
        for name, argv in commands.items():
            first = tmp_path / f"{name}.1.out"
            second = tmp_path / f"{name}.2.out"
            assert main(argv + ["-o", str(first)]) == 0, name
            assert main(argv + ["-o", str(second)]) == 0, name
            assert first.read_bytes() == second.read_bytes(), f"{name} output not deterministic"
            outputs[name] = first

        # iou-hist consumes the labelunc output; checked last for the same property.
        hist1 = tmp_path / "hist.1.out"
        hist2 = tmp_path / "hist.2.out"
        argv = ["iou-hist", "--records", str(outputs["labelunc"]), "--bins", "4"]
        assert main(argv + ["-o", str(hist1)]) == 0
        assert main(argv + ["-o", str(hist2)]) == 0
        assert hist1.read_bytes() == hist2.read_bytes()
