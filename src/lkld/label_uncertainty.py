"""Per-label uncertainty estimated from multi-sweep point-cloud geometry.

A tracked box label is observed over several sensor sweeps, each sweep
contributing a pose for the box and the points seen inside it. The points
are carried rigidly into the reference label's own frame, the convex hull
of the accumulated cloud is compared against the label rectangle via IoU,
and the IoU is mapped to a Laplace scale through an exponential fit
anchored at IoU 0, 0.5, and 1. A sparse, ambiguous label yields a low IoU
and a large scale; a well-supported label yields a small one. Working in
the label frame keeps the IoU independent of where the global origin is.

Records are written as CSV by ``records_to_csv`` (header
``RECORDS_CSV_HEADER``), and ``ious_from_csv`` reads their ``iou`` column
back in the shared CSV input dialect (``_util.csv_table``).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from ._util import csv_table, fmt_sig, json_int, json_number, json_str
# perfbench/tracing.py wraps convex_hull, iou and rigid_transform under this
# module's names: label_iou calls the first two through them, and
# rigid_transform, unused here, is imported only so that name exists.
from .geometry import OrientedRect, Point2, _xy_array, convex_hull, iou, rect_to_polygon, rigid_transform  # noqa: F401

__all__ = [
    "LabelTrack",
    "UncertaintyMapping",
    "LabelUncertaintyRecord",
    "MIN_SCALE",
    "MAX_HISTOGRAM_BINS",
    "choose_reference_sweep",
    "aggregate_points",
    "label_iou",
    "fit_mapping",
    "map_iou",
    "iou_histogram",
    "evaluate_track",
    "evaluate_tracks",
    "tracks_from_json",
    "records_to_csv",
    "ious_from_csv",
    "histogram_to_csv",
]

# Lower clamp for mapped scales: the divergence loss requires a strictly
# positive label scale and pathological anchors can drive gamma <= 0.
MIN_SCALE = 1e-6

# Most bins iou_histogram makes. The records CSV prints IoUs to 6 significant
# digits, steps of 1e-6 below 1, so finer bins separate no more records.
MAX_HISTOGRAM_BINS = 1_000_000

RECORDS_CSV_HEADER = ("label_id", "class_name", "iou", "scale_b", "n_points", "n_sweeps")


@dataclass
class LabelTrack:
    """One object's per-sweep rectangle poses and the points observed inside it.

    Coordinates are in a shared global frame. Every sweep with points must
    also carry a pose; sweeps may have a pose but no points. Each sweep's
    points, ``(x, y)`` pairs or a ``(k, 2)`` array, become one new float64
    ``(k, 2)`` array through the point-set gate ``geometry._xy_array``, which
    rejects string, bytes, boolean, ``None``, complex, NaN and infinite
    coordinates, rows that are not pairs and integers beyond the float range.
    """

    label_id: str
    class_name: str
    poses: dict[int, OrientedRect]
    points: dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.poses:
            raise ValueError(f"track {self.label_id!r} has no poses")
        missing = set(self.points) - set(self.poses)
        if missing:
            raise ValueError(
                f"track {self.label_id!r} has points in sweeps without poses: {sorted(missing)}"
            )
        self.points = {sweep: _xy_array(pts) for sweep, pts in self.points.items()}

    @property
    def n_points(self) -> int:
        return sum(len(pts) for pts in self.points.values())

    @property
    def n_sweeps(self) -> int:
        return len(self.poses)


def choose_reference_sweep(track: LabelTrack) -> int:
    """The sweep holding the most points; ties broken by smallest sweep id."""
    return max(track.poses, key=lambda sweep: (len(track.points.get(sweep, ())), -sweep))


def aggregate_points(track: LabelTrack, reference_sweep: int) -> np.ndarray:
    """Every sweep's points in the reference label's frame, as an ``(n, 2)`` array.

    A point rigidly attached to the box has the same box-local coordinates
    in every sweep, so each sweep's block is expressed in that sweep's own
    label frame, ``R(-theta_s) (p - c_s)``. The reference label is then the
    axis-aligned box centred at the origin. Blocks follow sweep id order; a
    block beyond the float range raises, naming the track and the sweep.
    """
    if reference_sweep not in track.poses:
        raise ValueError(
            f"reference sweep {reference_sweep} not among poses of track {track.label_id!r}"
        )
    blocks = [np.empty((0, 2))]
    with np.errstate(over="ignore", invalid="ignore"):  # checked below, once per track
        for sweep, pts in sorted(track.points.items()):
            center, theta = track.poses[sweep].pose
            c, s = math.cos(theta), math.sin(theta)
            # Row vectors: (p - c) @ R(-theta)^T.
            blocks.append((pts - center) @ np.array([[c, -s], [s, c]]))
    cloud = np.concatenate(blocks)
    if not np.isfinite(cloud).all():
        bad = next(sweep for sweep, block in zip(sorted(track.points), blocks[1:]) if not np.isfinite(block).all())
        raise ValueError(f"track {track.label_id!r} sweep {bad}: "
                         "points moved into the label frame are beyond the float range")
    return cloud


def label_iou(track: LabelTrack, reference_sweep: int) -> float:
    """IoU between the hull of the aggregated points and the reference rectangle.

    Both live in the reference label's frame, where the rectangle is the
    axis-aligned ``length x width`` box centred at the origin, so the result
    does not depend on the global origin. Fewer than three non-collinear
    aggregated points give a degenerate hull and an IoU of 0.
    """
    cloud = aggregate_points(track, reference_sweep)
    hull = convex_hull(cloud)
    ref = track.poses[reference_sweep]
    label_poly = rect_to_polygon(OrientedRect(Point2(0.0, 0.0), 0.0, ref.length, ref.width))
    return iou(hull, label_poly)


@dataclass(frozen=True)
class UncertaintyMapping:
    """IoU -> Laplace-scale mapping ``alpha * exp(-beta * x) + gamma``.

    Fit from the scales desired at IoU 0, 0.5, and 1 (``anchors``). When the
    anchors are exactly equally spaced the exponential degenerates to a
    constant, so the mapping falls back to the straight line through the
    anchors; ``linear`` marks that case and evaluation then uses the anchors
    directly (alpha/beta/gamma are stored as total drop, 0, and the final
    anchor for reference).
    """

    alpha: float
    beta: float
    gamma: float
    anchors: tuple[float, float, float]
    linear: bool = False


def fit_mapping(b_at_iou0: float, b_at_iou_half: float, b_at_iou1: float) -> UncertaintyMapping:
    """Solve the three-anchor exponential in closed form.

    With t = (b_half - b_1) / (b_0 - b_half):
    beta = -2 ln t, alpha = (b_0 - b_half) / (1 - t), gamma = b_0 - alpha.
    Anchors must be strictly decreasing and positive, and alpha, beta and
    gamma finite.
    """
    anchors = (float(b_at_iou0), float(b_at_iou_half), float(b_at_iou1))
    for a in anchors:
        if not (a > 0.0 and math.isfinite(a)):
            raise ValueError(f"anchors must be positive and finite, got {anchors}")
    b0, bh, b1 = anchors
    if not (b0 > bh > b1):
        raise ValueError(f"anchors must be strictly decreasing, got {anchors}")

    t = (bh - b1) / (b0 - bh)
    if abs(t - 1.0) <= 1e-12:
        # Equally spaced anchors: beta would be 0 and the exponential constant.
        return UncertaintyMapping(alpha=b0 - b1, beta=0.0, gamma=b1, anchors=anchors, linear=True)
    # t underflows to 0, or alpha overflows, when the anchors span too many
    # orders of magnitude for one exponential in floats.
    beta = -2.0 * math.log(t) if t > 0.0 else math.inf
    alpha = (b0 - bh) / (1.0 - t)
    gamma = b0 - alpha
    if not all(map(math.isfinite, (alpha, beta, gamma))):
        raise ValueError(f"anchors must give a fit within the float range, got {anchors}")
    return UncertaintyMapping(alpha=alpha, beta=beta, gamma=gamma, anchors=anchors, linear=False)


def map_iou(mapping: UncertaintyMapping, iou_value: float) -> float:
    """Evaluate the fitted mapping at an IoU in [0, 1], clamped below at MIN_SCALE."""
    if not (0.0 <= iou_value <= 1.0):
        raise ValueError(f"iou must be in [0, 1], got {iou_value}")
    if mapping.linear:
        b0, _, b1 = mapping.anchors
        value = b0 + (b1 - b0) * iou_value
    else:
        value = mapping.alpha * math.exp(-mapping.beta * iou_value) + mapping.gamma
    return max(value, MIN_SCALE)


@dataclass(frozen=True)
class LabelUncertaintyRecord:
    """One label's hull IoU and the Laplace scale assigned to it."""

    label_id: str
    class_name: str
    iou: float
    scale_b: float
    n_points: int
    n_sweeps: int


def iou_histogram(ious: Sequence[float], n_bins: int) -> list[tuple[float, float, int]]:
    """Equal-width counts of IoUs over [0, 1].

    Bins are right-open except the last, which is closed so an IoU of
    exactly 1 lands in the top bin. IoUs outside [0, 1] are rejected, and so
    is a bin count outside [1, ``MAX_HISTOGRAM_BINS``] before any bin is made.
    """
    if not 1 <= n_bins <= MAX_HISTOGRAM_BINS:
        raise ValueError(f"n_bins must be between 1 and {MAX_HISTOGRAM_BINS}, got {n_bins}")
    counts = [0] * n_bins
    for value in ious:
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"iou must be in [0, 1], got {value}")
        counts[min(int(value * n_bins), n_bins - 1)] += 1
    return [(i / n_bins, (i + 1) / n_bins, counts[i]) for i in range(n_bins)]


def evaluate_track(track: LabelTrack, mapping: UncertaintyMapping) -> LabelUncertaintyRecord:
    """Run the full heuristic for one track: reference sweep, hull IoU, scale."""
    reference = choose_reference_sweep(track)
    iou_value = label_iou(track, reference)
    return LabelUncertaintyRecord(
        label_id=track.label_id,
        class_name=track.class_name,
        iou=iou_value,
        scale_b=map_iou(mapping, iou_value),
        n_points=track.n_points,
        n_sweeps=track.n_sweeps,
    )


def evaluate_tracks(
    tracks: Sequence[LabelTrack],
    mapping: UncertaintyMapping | None = None,
    per_class: Mapping[str, UncertaintyMapping] | None = None,
) -> list[LabelUncertaintyRecord]:
    """Evaluate many tracks, one mapping per class with an optional default.

    Records come back in label-id order.
    """
    per_class = dict(per_class or {})

    def pick(track: LabelTrack) -> UncertaintyMapping:
        chosen = per_class.get(track.class_name, mapping)
        if chosen is None:
            raise ValueError(
                f"no uncertainty mapping for class {track.class_name!r} and no default given"
            )
        return chosen

    records = [evaluate_track(t, pick(t)) for t in tracks]
    return sorted(records, key=lambda r: r.label_id)


def tracks_from_json(doc: object) -> list[LabelTrack]:
    """Build tracks from the JSON document layout.

    Expected shape::

        {"tracks": [{"label_id": str, "class_name": str,
                     "poses":  [{"sweep_id": int, "center": [x, y],
                                 "theta": rad, "length": m, "width": m}, ...],
                     "points": [{"sweep_id": int, "xy": [[x, y], ...]}, ...]}]}

    Label ids and class names must be JSON strings, sweep ids JSON
    integers, and centers, angles, sizes and point coordinates JSON
    numbers: ``1``, ``null``, ``2.9``, ``true`` and ``"1"`` are rejected
    where they do not fit, not truncated or converted.
    """
    if not isinstance(doc, dict) or "tracks" not in doc:
        raise ValueError("track document must be an object with a 'tracks' list")
    raw_tracks = doc["tracks"]
    if not isinstance(raw_tracks, list):
        raise ValueError("'tracks' must be a list")

    tracks: list[LabelTrack] = []
    for idx, raw in enumerate(raw_tracks):
        where = f"tracks[{idx}]"
        try:
            label_id = json_str(raw["label_id"], "label_id")
            class_name = json_str(raw["class_name"], "class_name")
            poses: dict[int, OrientedRect] = {}
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
            points: dict[int, object] = {}
            for entry in raw.get("points", []):
                sweep = json_int(entry["sweep_id"], "sweep_id")
                if sweep in points:
                    raise ValueError(f"duplicate sweep_id {sweep} in points")
                xy = entry["xy"]
                if not isinstance(xy, list):
                    raise ValueError(f"xy must be a list, got {xy!r}")
                points[sweep] = xy
            tracks.append(
                LabelTrack(label_id=label_id, class_name=class_name, poses=poses, points=points)
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed track at {where}: {exc}") from exc
    return tracks


def records_to_csv(records: Sequence[LabelUncertaintyRecord]) -> str:
    """Records as CSV with 6 significant digits on the float columns."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    # csv.reader ends a row at a bare "\r", which the minimal quoting leaves
    # unquoted under a "\n" line terminator; rows holding one quote every cell.
    quoting_writer = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
    writer.writerow(RECORDS_CSV_HEADER)
    for r in records:
        row = [r.label_id, r.class_name, fmt_sig(r.iou, 6), fmt_sig(r.scale_b, 6), r.n_points, r.n_sweeps]
        if "\r" in r.label_id or "\r" in r.class_name:
            quoting_writer.writerow(row)
        else:
            writer.writerow(row)
    return buf.getvalue()


def ious_from_csv(lines: Iterable[str]) -> list[float]:
    """The ``iou`` column of a records CSV in the ``_util.csv_table`` dialect, each cell in [0, 1]."""
    ious = []
    with csv_table(lines, "records") as (header, reader):
        if "iou" not in header:
            raise ValueError("records CSV must have an 'iou' column")
        col = header.index("iou")
        for cells in filter(None, reader):
            try:
                value = float(cells[col])
            except (IndexError, ValueError) as exc:
                raise ValueError(f"line {reader.line_num}: bad iou cell: {exc}") from exc
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"line {reader.line_num}: iou must be in [0, 1], got {cells[col]!r}")
            ious.append(value)
    return ious


def histogram_to_csv(bins: Sequence[tuple[float, float, int]]) -> str:
    lines = ["bin_low,bin_high,count"]
    for low, high, count in bins:
        lines.append(f"{fmt_sig(low)},{fmt_sig(high)},{count}")
    return "\n".join(lines) + "\n"
