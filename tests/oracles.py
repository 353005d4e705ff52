"""Independent numerical oracles used by the tests.

Everything here deliberately avoids the library's own code paths: the KL
value is integrated with adaptive quadrature, gradients are estimated by
central finite differences, polygon areas by Monte Carlo sampling with a
numpy-only containment test, and reference polygons come from scipy's
convex hull. ``reference_train`` is the trainer's per-sample SGD written as
scalar Python loops, one parameter at a time; it shares only the loss
functions, the dataset generator and the record-based calibration report
with the library.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.spatial import ConvexHull

from lkld.calibration import PredictionRecord, calibration_report
from lkld.distributions import LaplaceParams, kld_loss, kld_loss_zero_label_scale
from lkld.synth_trainer import (
    _LOGSCALE_LIMIT,
    EpochStats,
    Predictor,
    TrainReport,
    generate,
    resolve_label_scales,
)


def kl_divergence_quadrature(
    label_location: float, label_scale: float, pred_location: float, pred_scale: float
) -> float:
    """KL divergence between two Laplace densities by adaptive quadrature."""

    def integrand(t: float) -> float:
        log_p = -abs(t - label_location) / label_scale - math.log(2.0 * label_scale)
        log_q = -abs(t - pred_location) / pred_scale - math.log(2.0 * pred_scale)
        return math.exp(log_p) * (log_p - log_q)

    lo = label_location - 60.0 * label_scale
    hi = label_location + 60.0 * label_scale
    kinks = sorted(p for p in (label_location, pred_location) if lo < p < hi)
    value, _ = quad(integrand, lo, hi, points=kinks, limit=300)
    return value


def central_difference(fn, x: float, step: float = 1e-6) -> float:
    return (fn(x + step) - fn(x - step)) / (2.0 * step)


def points_in_convex(points: np.ndarray, vertices: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Vectorized membership test for a CCW convex polygon."""
    inside = np.ones(len(points), dtype=bool)
    n = len(vertices)
    for i in range(n):
        ax, ay = vertices[i]
        bx, by = vertices[(i + 1) % n]
        cross = (bx - ax) * (points[:, 1] - ay) - (by - ay) * (points[:, 0] - ax)
        inside &= cross >= -tol
    return inside


def monte_carlo_intersection_area(
    verts_a: np.ndarray, verts_b: np.ndarray, n_samples: int, rng: np.random.Generator
) -> tuple[float, float]:
    """(area estimate, standard error) of the intersection of two CCW polygons.

    Samples uniformly over the bounding box of the first polygon, which
    contains the intersection.
    """
    lo = verts_a.min(axis=0)
    hi = verts_a.max(axis=0)
    box_area = float(np.prod(hi - lo))
    samples = rng.uniform(lo, hi, size=(n_samples, 2))
    hit = points_in_convex(samples, verts_a) & points_in_convex(samples, verts_b)
    p = hit.mean()
    return box_area * p, box_area * math.sqrt(p * (1.0 - p) / n_samples)


def random_convex_polygon(rng: np.random.Generator, n_points: int = 8, scale: float = 2.0) -> np.ndarray:
    """CCW vertices of a random convex polygon via scipy's hull."""
    while True:
        cloud = rng.uniform(-scale, scale, size=(n_points, 2))
        hull = ConvexHull(cloud)
        verts = cloud[hull.vertices]  # scipy returns CCW order in 2D
        if len(verts) >= 3:
            return verts


def _reference_evaluate(wm, cm, ws, cs, data) -> tuple[float, float]:
    """(MAE vs true targets, calibration gap vs observed labels)."""
    with np.errstate(over="ignore"):
        locs = data.features @ np.asarray(wm) + cm
        scales = np.exp(data.features @ np.asarray(ws) + cs)
    finite = (
        np.all(np.isfinite(locs)) and np.all(np.isfinite(scales)) and np.all(scales > 0.0)
    )
    if not finite:
        return math.inf, math.nan
    mae = float(np.mean(np.abs(data.true_targets - locs)))
    records = [
        PredictionRecord(residual=float(r), scale=float(s))
        for r, s in zip(data.labels - locs, scales)
    ]
    return mae, calibration_report(records).ece


def reference_train(config, train_set=None, test_set=None, init=None):
    """Scalar-loop per-sample SGD: the same update, clipping and tail averaging as ``train``.

    Returns ``(Predictor, TrainReport)`` like ``train``. Every sum runs left to
    right over the features with the bias first, so results differ from the
    library's vectorized step only in floating-point summation order.
    """
    if train_set is None or test_set is None:
        generated_train, generated_test = generate(config)
        train_set = train_set if train_set is not None else generated_train
        test_set = test_set if test_set is not None else generated_test
    n, d = train_set.features.shape

    scales_arr = resolve_label_scales(config, train_set)
    label_scales = None if scales_arr is None else [float(b) for b in scales_arr]
    xs = [tuple(float(v) for v in row) for row in train_set.features]
    ys = [float(v) for v in train_set.labels]

    start = init or Predictor.initial(d)
    wm = list(start.weights_mean)
    ws = list(start.weights_logscale)
    cm = start.bias_mean
    cs = start.bias_logscale
    lr = config.learning_rate
    clip = config.grad_clip

    order_rng = np.random.default_rng([config.seed, 1])
    stats = []
    diverged = False
    avg_start = max(0, config.epochs - config.average_tail_epochs)
    acc = [0.0] * (2 * d + 2)  # wm..., cm, ws..., cs
    acc_count = 0

    for epoch_idx in range(config.epochs):
        averaging = config.average_tail_epochs > 0 and epoch_idx >= avg_start
        perm = order_rng.permutation(n)
        total_loss = 0.0
        total_abs = 0.0
        seen = 0
        for idx in perm:
            x = xs[idx]
            y = ys[idx]
            loc = cm
            log_scale = cs
            for j in range(d):
                loc += wm[j] * x[j]
                log_scale += ws[j] * x[j]
            if not (math.isfinite(loc) and -_LOGSCALE_LIMIT < log_scale < _LOGSCALE_LIMIT):
                diverged = True
                total_loss = math.inf
                break
            scale = math.exp(log_scale)
            pred = LaplaceParams(loc, scale)
            if label_scales is None:
                grad = kld_loss_zero_label_scale(y, pred)
            else:
                grad = kld_loss(LaplaceParams(y, label_scales[idx]), pred)
            seen += 1
            total_abs += abs(y - loc)
            g_loc = grad.d_location
            g_log = grad.d_scale * scale
            if not (math.isfinite(grad.value) and math.isfinite(g_loc) and math.isfinite(g_log)):
                diverged = True
                total_loss = math.inf
                break
            total_loss += grad.value

            sq = 1.0
            for j in range(d):
                sq += x[j] * x[j]
            norm = math.sqrt((g_loc * g_loc + g_log * g_log) * sq)
            if norm > clip:
                factor = clip / norm
                g_loc *= factor
                g_log *= factor
            step_loc = lr * g_loc
            step_log = lr * g_log
            for j in range(d):
                wm[j] -= step_loc * x[j]
                ws[j] -= step_log * x[j]
            cm -= step_loc
            cs -= step_log
            if averaging:
                for j in range(d):
                    acc[j] += wm[j]
                    acc[d + 1 + j] += ws[j]
                acc[d] += cm
                acc[2 * d + 1] += cs
                acc_count += 1

        if seen:
            mean_loss = total_loss / seen
            mean_abs = total_abs / seen
            epoch_ece = _reference_evaluate(wm, cm, ws, cs, train_set)[1]
        else:
            mean_loss = math.inf
            mean_abs = math.nan
            epoch_ece = math.nan
        stats.append(EpochStats(mean_loss, mean_abs, epoch_ece))
        if diverged:
            break

    if not diverged and acc_count > 0:
        wm = [a / acc_count for a in acc[:d]]
        cm = acc[d] / acc_count
        ws = [a / acc_count for a in acc[d + 1 : 2 * d + 1]]
        cs = acc[2 * d + 1] / acc_count
    if diverged:
        test_mae, test_ece = math.inf, math.nan
    else:
        test_mae, test_ece = _reference_evaluate(wm, cm, ws, cs, test_set)
        if not math.isfinite(test_mae):
            diverged = True
    return Predictor(wm, cm, ws, cs), TrainReport(tuple(stats), test_mae, test_ece, diverged)
