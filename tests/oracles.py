"""Independent numerical oracles used by the tests.

Everything here deliberately avoids the library's own code paths: the KL
value is integrated with adaptive quadrature, gradients are estimated by
central finite differences, polygon areas by Monte Carlo sampling with a
numpy-only containment test, and reference polygons come from scipy's
convex hull. ``reference_train`` is the trainer's per-sample SGD written as
scalar Python loops, one parameter at a time; it shares only the loss
functions, the dataset generator and the record-based calibration report
with the library. ``reference_convex_hull`` is the library's monotone chain
without the Akl-Toussaint prefilter, run on every point.
``reference_drop_interior`` is that prefilter as it ran on one cloud at a
time, ``reference_intersect_convex`` the clip that always re-hulls its
result, and ``reference_evaluate_tracks`` the per-track label-uncertainty
pipeline built from them: the label-frame rotation written as elementwise
products, the prefilter, the hull, the clip and the IoU, one track after
another. ``reference_tracks_from_json`` is the tracks-document parse that
builds each track through ``LabelTrack``, whose point-set gate takes one
sweep at a time. ``reference_nll_terms`` and ``reference_kld_terms`` are
the float loss kernels with the sign taken by an explicit helper.
"""

from __future__ import annotations

import math
import sys
from collections import deque

import numpy as np
from scipy.integrate import quad
from scipy.spatial import ConvexHull

from lkld.calibration import calibration_report
from lkld.distributions import LaplaceParams, kld_loss, kld_loss_zero_label_scale
from lkld.geometry import (
    CLIP_EPS,
    COLLINEAR_EPS,
    PREFILTER_MARGIN,
    PREFILTER_MIN_POINTS,
    ConvexPolygon,
    OrientedRect,
    Point2,
    area,
    rect_to_polygon,
)
from lkld._util import json_int, json_number, json_str
from lkld.label_uncertainty import LabelTrack, LabelUncertaintyRecord, choose_reference_sweep, map_iou
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


def _reference_sgn(x: float) -> float:
    # sgn(0) = 0 for both zeros; a NaN keeps its sign bit.
    if x == 0.0:
        return 0.0
    return math.copysign(1.0, x)


def reference_nll_terms(y: float, loc: float, b_hat: float) -> tuple[float, float, float]:
    """The NLL float kernel with an explicit sign helper, operation for operation."""
    err = y - loc
    abs_err = abs(err)
    value = math.log(2.0 * b_hat) + abs_err / b_hat
    d_location = -_reference_sgn(err) / b_hat
    d_scale = (1.0 - abs_err / b_hat) / b_hat
    return value, d_location, d_scale


def reference_kld_terms(y: float, b: float, loc: float, b_hat: float) -> tuple[float, float, float]:
    """The KL float kernel with an explicit sign helper, operation for operation."""
    err = y - loc
    abs_err = abs(err)
    r = b / b_hat
    s = abs_err / b_hat
    decay = math.expm1(-abs_err / b)
    if 0.5 < r < 2.0:
        value = (s + r * decay) + ((r - 1.0) - math.log1p(r - 1.0))
    elif r > 0.0:
        value = (s + r * decay) + (r - 1.0) - math.log(r)
    else:
        value = math.log(b_hat) - math.log(b) + (b * (decay + 1.0) + abs_err) / b_hat - 1.0
    d_location = _reference_sgn(err) * decay / b_hat
    d_scale = (1.0 - (b * (decay + 1.0) + abs_err) / b_hat) / b_hat
    return value, d_location, d_scale


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


def reference_convex_hull(points) -> ConvexPolygon:
    """``geometry.convex_hull`` on an iterable of points, as it was before the prefilter.

    Dedupes with the first point seen kept, sorts, builds both monotone
    chains on every point and removes near-straight corners, those whose turn
    has a sine of at most COLLINEAR_EPS or whose cross product rounds to at
    most 0, from the finished ring; the output starts at its smallest vertex.
    A point on both
    chains, which only rounding puts there, gives the segment between the
    least and the greatest point. All of it runs on the points times the
    power of two that brings their largest coordinate magnitude into
    [0.5, 1), deduped there, and the hull is scaled back.
    """
    pts = [(float(p[0]), float(p[1])) for p in points]
    for x, y in pts:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"hull input coordinates must be finite, got ({x}, {y})")
    e = math.frexp(max((max(abs(x), abs(y)) for x, y in pts), default=0.0))[1]
    pts = sorted({(math.ldexp(x, -e), math.ldexp(y, -e)) for x, y in pts})

    def scaled_back(ring):
        return ConvexPolygon(tuple(Point2(math.ldexp(x, e), math.ldexp(y, e)) for x, y in ring))

    if len(pts) <= 2:
        return scaled_back(pts)

    def build(ordered):
        chain = []
        for p in ordered:
            while len(chain) >= 2:
                o, a = chain[-2], chain[-1]
                if (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0]) > 0.0:
                    break
                chain.pop()
            chain.append(p)
        return chain

    def heading(p, q):
        # Halved coordinates give the heading of an edge longer than the float range.
        dx, dy = q.x - p.x, q.y - p.y
        if not (math.isfinite(dx) and math.isfinite(dy)):
            dx, dy = q.x / 2 - p.x / 2, q.y / 2 - p.y / 2
        return math.atan2(dy, dx)

    def straight(o, a, b):
        # The turn at a has a sine of at most COLLINEAR_EPS, or a cross product rounded to at most 0.
        cross = (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)
        return math.sin(heading(a, b) - heading(o, a)) <= COLLINEAR_EPS or cross <= 0.0

    lower = build(pts)
    upper = build(pts[::-1])
    if set(lower[1:-1]) & set(upper[1:-1]):
        return scaled_back([pts[0], pts[-1]])
    ring, kept = deque(Point2(*p) for p in lower[:-1] + upper[:-1]), 0
    while kept < len(ring) and len(ring) >= 3:
        if straight(ring[-2], ring[-1], ring[0]):
            ring.pop()
            kept = 0
        else:
            ring.rotate(-1)
            kept += 1
    ring.rotate(-ring.index(min(ring)))
    return scaled_back(ring)


def reference_drop_interior(pts: np.ndarray) -> np.ndarray:
    """Rows of one cloud's ``(n, 2)`` array not strictly inside its extreme polygon.

    The per-cloud Akl-Toussaint prefilter: the points of least and greatest
    x, x + y, y and x - y, first index on ties, in ccw order; a point goes
    only if every edge's cross product exceeds PREFILTER_MARGIN times the
    squared span. Short clouds and clouds with no edge come back whole. The
    tests run on the cloud times the power of two that brings its largest
    coordinate magnitude into [0.5, 1).
    """
    if len(pts) <= PREFILTER_MIN_POINTS:
        return pts
    unit = np.ldexp(pts, -math.frexp(float(np.abs(pts).max()))[1])
    x, y = unit[:, 0], unit[:, 1]
    s, d = x + y, x - y
    ring = [x.argmin(), s.argmin(), y.argmin(), d.argmax(), x.argmax(), s.argmax(), y.argmax(), d.argmin()]
    edges = [(i, j) for i, j in zip(ring, ring[1:] + ring[:1]) if i != j]
    if not edges:
        return pts
    a, b = unit[np.array(edges).T]
    e = b - a
    span = max(x[ring[4]] - x[ring[0]], y[ring[6]] - y[ring[2]])
    cross = e[:, :1] * (y - a[:, 1:]) - e[:, 1:] * (x - a[:, :1])
    return pts[~(cross > PREFILTER_MARGIN * span * span).all(axis=0)]


def reference_intersect_convex(a: ConvexPolygon, b: ConvexPolygon) -> ConvexPolygon:
    """Clip a against every edge of b (the smaller vertex tuple clips), then re-hull.

    A vertex within CLIP_EPS of a clip line, times the breadth of the thinner
    polygon, is inside; a polygon's breadth is its area over half its greater
    extent, or that half extent if less. The clip runs on both polygons times
    the power of two that brings the pair's largest coordinate magnitude into
    [0.5, 1) (at most 2**1021 times up). If no vertex falls outside an edge,
    a's own vertices are re-hulled; otherwise the clipped ones, scaled back.
    """
    if len(a) < 3 or len(b) < 3:
        return ConvexPolygon(())
    if b.vertices < a.vertices:
        a, b = b, a
    e = math.frexp(max(max(abs(p.x), abs(p.y), sys.float_info.min) for p in a.vertices + b.vertices))[1]
    output = [(math.ldexp(p.x, -e), math.ldexp(p.y, -e)) for p in a.vertices]
    halves = [max(max(p.x for p in q.vertices) / 2 - min(p.x for p in q.vertices) / 2,
                  max(p.y for p in q.vertices) / 2 - min(p.y for p in q.vertices) / 2) for q in (a, b)]
    tol = math.ldexp(CLIP_EPS * min(min(half, area(q) / half) for half, q in zip(halves, (a, b))), -e)
    bv = [Point2(math.ldexp(p.x, -e), math.ldexp(p.y, -e)) for p in b.vertices]
    moved = False
    for i in range(len(bv)):
        if not output:
            return ConvexPolygon(())
        e1, e2 = bv[i], bv[(i + 1) % len(bv)]
        ex, ey = e2.x - e1.x, e2.y - e1.y
        if not (ex or ey):  # an edge of b lost at the pair's scale
            return ConvexPolygon(())
        inv_len = 1.0 / math.hypot(ex, ey)
        dists = [((ex * (py - e1.y) - ey * (px - e1.x)) * inv_len) for px, py in output]
        moved = moved or not all(d >= -tol for d in dists)
        clipped = []
        n = len(output)
        for j in range(n):
            p, q = output[j], output[(j + 1) % n]
            dp, dq = dists[j], dists[(j + 1) % n]
            p_in, q_in = dp >= -tol, dq >= -tol
            if p_in:
                clipped.append(p)
            if p_in != q_in:
                t = min(1.0, max(0.0, dp / (dp - dq)))
                clipped.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
        output = clipped
    if not moved:
        return reference_convex_hull(a.vertices)
    if len(output) < 3:
        return ConvexPolygon(())
    return reference_convex_hull([(math.ldexp(x, e), math.ldexp(y, e)) for x, y in output])


@np.errstate(over="ignore", invalid="ignore")
def reference_label_frame(track) -> np.ndarray:
    """A track's points, each sweep's block in its own label frame, in sweep id order."""
    blocks = [np.empty((0, 2))]
    for sweep, pts in sorted(track.points.items()):
        rect = track.poses[sweep]
        c, s = math.cos(rect.theta), math.sin(rect.theta)
        dx, dy = pts[:, 0] - rect.center.x, pts[:, 1] - rect.center.y
        blocks.append(np.stack([dx * c + dy * s, dy * c - dx * s], axis=1))
    return np.concatenate(blocks)


def reference_evaluate_tracks(tracks, mapping=None, per_class=None) -> list:
    """``evaluate_tracks`` one track at a time, on the reference frame change, prefilter, hull and clip."""
    records = []
    for track in tracks:
        chosen = (per_class or {}).get(track.class_name, mapping)
        ref = track.poses[choose_reference_sweep(track)]
        hull = reference_convex_hull(reference_drop_interior(reference_label_frame(track)).tolist())
        box = rect_to_polygon(OrientedRect(Point2(0.0, 0.0), 0.0, ref.length, ref.width))
        inter = area(reference_intersect_convex(hull, box))
        union = area(hull) + area(box) - inter
        value = 0.0 if union <= 0.0 else min(1.0, max(0.0, inter / union))
        records.append(LabelUncertaintyRecord(track.label_id, track.class_name, value,
                                              map_iou(chosen, value), track.n_points, track.n_sweeps))
    return sorted(records, key=lambda r: r.label_id)


def reference_tracks_from_json(doc) -> list:
    """``tracks_from_json`` one track at a time: each built by ``LabelTrack``, gated sweep by sweep."""
    if not isinstance(doc, dict) or "tracks" not in doc:
        raise ValueError("track document must be an object with a 'tracks' list")
    raw_tracks = doc["tracks"]
    if not isinstance(raw_tracks, list):
        raise ValueError("'tracks' must be a list")
    tracks = []
    for idx, raw in enumerate(raw_tracks):
        try:
            label_id = json_str(raw["label_id"], "label_id")
            class_name = json_str(raw["class_name"], "class_name")
            poses = {}
            for pose in raw["poses"]:
                sweep = json_int(pose["sweep_id"], "sweep_id")
                if sweep in poses:
                    raise ValueError(f"duplicate sweep_id {sweep} in poses")
                cx, cy = pose["center"]
                poses[sweep] = OrientedRect(
                    center=Point2(json_number(cx, "center"), json_number(cy, "center")),
                    theta=json_number(pose["theta"], "theta"),
                    length=json_number(pose["length"], "length"),
                    width=json_number(pose["width"], "width"),
                )
            points = {}
            for entry in raw.get("points", []):
                sweep = json_int(entry["sweep_id"], "sweep_id")
                if sweep in points:
                    raise ValueError(f"duplicate sweep_id {sweep} in points")
                xy = entry["xy"]
                if not isinstance(xy, list):
                    raise ValueError(f"xy must be a list, got {xy!r}")
                points[sweep] = xy
            tracks.append(LabelTrack(label_id=label_id, class_name=class_name, poses=poses, points=points))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed track at tracks[{idx}]: {exc}") from exc
    return tracks


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
    with np.errstate(over="ignore"):
        residuals = data.labels - locs
        scores_finite = np.all(np.isfinite(residuals / scales))
    if not scores_finite:
        return math.inf, math.nan
    mae = float(np.mean(np.abs(data.true_targets - locs)))
    return mae, calibration_report(residuals, scales).ece


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
                if norm == math.inf:
                    big = max(abs(g_loc), abs(g_log))
                    g_loc /= big
                    g_log /= big
                    norm = math.sqrt((g_loc * g_loc + g_log * g_log) * sq)
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
