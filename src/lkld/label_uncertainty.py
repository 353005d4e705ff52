"""Per-label uncertainty estimated from multi-sweep point-cloud geometry.

A tracked box label is observed over several sensor sweeps, each sweep
contributing a pose for the box and the points seen inside it. The points
are carried rigidly into the reference label's own frame, the convex hull
of the accumulated cloud is compared against the label rectangle via IoU,
and the IoU is mapped to a Laplace scale through an exponential fit
anchored at IoU 0, 0.5, and 1. A sparse, ambiguous label yields a low IoU
and a large scale; a well-supported label yields a small one. Working in
the label frame keeps the IoU independent of where the global origin is.

The records CSV goes through ``csv.writer``, since label ids and class
names are free text; the histogram's numeric table through ``_util.csv_text``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from ._util import csv_table, csv_text, fmt_sig, json_int, json_number, json_str
# perfbench/tracing.py wraps convex_hull, iou and rigid_transform under this
# module's names. _hull_ious calls iou through its name; convex_hull, like
# rigid_transform, is unused here and imported only so that the tracer can patch it.
from .geometry import (  # noqa: F401
    OrientedRect, Point2, _chain_hull, _drop_interior, _xy_array, convex_hull, iou, rect_to_polygon,
    rigid_transform,
)

__all__ = [
    "LabelTrack",
    "UncertaintyMapping",
    "LabelUncertaintyRecord",
    "MIN_SCALE",
    "MAX_HISTOGRAM_BINS",
    "choose_reference_sweep",
    "aggregate_points",
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

# evaluate_tracks takes whole tracks in runs of about this many points: enough to
# spread numpy's per-call costs, few enough that the frame change's and the
# prefilter's temporaries stay near 0.5 MB each.
RUN_ROWS = 4096

RECORDS_CSV_HEADER = ("label_id", "class_name", "iou", "scale_b", "n_points", "n_sweeps")


@dataclass
class LabelTrack:
    """One object's per-sweep rectangle poses and the points observed inside it.

    Coordinates are in a shared global frame. Every sweep with points must
    also carry a pose; sweeps may have a pose but no points. Each sweep's
    points, ``(x, y)`` pairs or a ``(k, 2)`` array, become a float64
    ``(k, 2)`` array through the point-set gate ``geometry._xy_array``. When
    every sweep is a list, the form JSON gives, the track's sweeps go through
    the gate in one call and each sweep's array is a slice of its result; if
    that call fails, the sweeps are gated one at a time to name the first bad one.
    """

    label_id: str
    class_name: str
    poses: dict[int, OrientedRect]
    points: dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._check_poses()
        sweeps = self.points.values()
        if all(isinstance(pts, list) for pts in sweeps):
            try:
                arr = _xy_array(chain.from_iterable(sweeps))
            except ValueError:  # gated again below, one sweep at a time
                pass
            else:
                ends = accumulate(map(len, sweeps))
                self.points = {sweep: arr[end - len(pts):end]
                               for (sweep, pts), end in zip(self.points.items(), ends)}
                return
        self.points = {sweep: _xy_array(pts) for sweep, pts in self.points.items()}

    def _check_poses(self) -> None:
        if not self.poses:
            raise ValueError(f"track {self.label_id!r} has no poses")
        missing = set(self.points) - set(self.poses)
        if missing:
            raise ValueError(
                f"track {self.label_id!r} has points in sweeps without poses: {sorted(missing)}"
            )

    @property
    def n_points(self) -> int:
        return sum(len(pts) for pts in self.points.values())

    @property
    def n_sweeps(self) -> int:
        return len(self.poses)


def choose_reference_sweep(track: LabelTrack) -> int:
    """The sweep holding the most points; ties broken by smallest sweep id."""
    return max(track.poses, key=lambda sweep: (len(track.points.get(sweep, ())), -sweep))


def _label_frame_points(tracks: Sequence[LabelTrack]) -> tuple[np.ndarray, list[int]]:
    """Every track's points in label frames, as one ``(n, 2)`` array, and each track's row count.

    A point rigidly attached to the box has the same box-local coordinates
    in every sweep, so each sweep's block is expressed in that sweep's own
    label frame, ``R(-theta_s) (p - c_s)``. Blocks follow the tracks' order
    and, within a track, sweep id order. All tracks move in one pass: each
    sweep's center, cosine and sine are spread to its rows by ``np.repeat``
    and the rotation is written as elementwise products. The first block
    beyond the float range in that order raises, naming its track and sweep.
    """
    blocks, frames = [], []
    for track in tracks:
        for sweep, pts in sorted(track.points.items()):
            rect = track.poses[sweep]
            blocks.append(pts)
            frames.append((*rect.center, math.cos(rect.theta), math.sin(rect.theta)))
    per_track = [track.n_points for track in tracks]
    if not blocks:
        return np.empty((0, 2)), per_track
    sizes = [len(block) for block in blocks]
    frames = np.array(frames)
    offset = np.concatenate(blocks)
    moved = np.empty_like(offset)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below, once per call
        offset -= np.repeat(frames[:, :2], sizes, axis=0)
        c, s = np.repeat(frames[:, 2:], sizes, axis=0).T
        dx, dy = offset.T
        np.multiply(dx, c, out=moved[:, 0])
        moved[:, 0] += dy * s
        np.multiply(dy, c, out=moved[:, 1])
        moved[:, 1] -= dx * s
    finite = np.isfinite(moved).all(axis=1)
    if not finite.all():
        block = np.searchsorted(np.cumsum(sizes), finite.argmin(), side="right")
        label_id, sweep = [(t.label_id, sweep) for t in tracks for sweep in sorted(t.points)][block]
        raise ValueError(f"track {label_id!r} sweep {sweep}: "
                         "points moved into the label frame are beyond the float range")
    return moved, per_track


def _track_runs(tracks: Iterable[LabelTrack]) -> Iterator[list[LabelTrack]]:
    """Runs of consecutive whole tracks of about RUN_ROWS points."""
    run, rows = [], 0
    for track in tracks:
        run.append(track)
        rows += track.n_points
        if rows >= RUN_ROWS:
            yield run
            run, rows = [], 0
    if run:
        yield run


def aggregate_points(track: LabelTrack, reference_sweep: int) -> np.ndarray:
    """Every sweep's points in the reference label's frame, as an ``(n, 2)`` array.

    Each sweep's block is in that sweep's own label frame, so the reference
    label is the axis-aligned box centred at the origin; blocks follow sweep
    id order, and a block beyond the float range raises, naming the track
    and the sweep. This is the frame change ``evaluate_tracks`` makes for
    each run of tracks, run on one track.
    """
    if reference_sweep not in track.poses:
        raise ValueError(f"reference sweep {reference_sweep} not among poses of track {track.label_id!r}")
    return _label_frame_points([track])[0]


def _hull_ious(tracks: Sequence[LabelTrack]) -> list[float]:
    """Each track's IoU of the hull of its points with the box of its ``choose_reference_sweep``.

    In the label frame that box is axis-aligned and centred at the origin, so
    the IoU does not depend on the global origin; a degenerate hull gives 0.
    Tracks go in runs of about RUN_ROWS points, each with one frame change
    and one prefilter; each track's survivors then go straight to the
    monotone chain, with no second gate or prefilter, and the hull to IoU.
    """
    clouds = []
    for run in _track_runs(tracks):
        survivors, kept = _drop_interior(*_label_frame_points(run))
        clouds += np.split(survivors, np.cumsum(kept)[:-1])
    ious = []
    for track, cloud in zip(tracks, clouds):
        ref = track.poses[choose_reference_sweep(track)]
        label_poly = rect_to_polygon(OrientedRect(Point2(0.0, 0.0), 0.0, ref.length, ref.width))
        ious.append(iou(_chain_hull(cloud), label_poly))
    return ious


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


def _records(
    tracks: Sequence[LabelTrack], mappings: Sequence[UncertaintyMapping]
) -> list[LabelUncertaintyRecord]:
    return [LabelUncertaintyRecord(t.label_id, t.class_name, v, map_iou(m, v), t.n_points, t.n_sweeps)
            for t, m, v in zip(tracks, mappings, _hull_ious(tracks))]


def evaluate_track(track: LabelTrack, mapping: UncertaintyMapping) -> LabelUncertaintyRecord:
    """Run the full heuristic for one track: reference sweep, hull IoU, scale.

    The same path as ``evaluate_tracks`` on a one-track document.
    """
    return _records([track], [mapping])[0]


def evaluate_tracks(
    tracks: Sequence[LabelTrack] | os.PathLike,
    mapping: UncertaintyMapping | None = None,
    per_class: Mapping[str, UncertaintyMapping] | None = None,
) -> list[LabelUncertaintyRecord]:
    """Evaluate many tracks, one mapping per class with an optional default.

    Whole tracks go in runs of about RUN_ROWS points: each run's points move
    into their label frames in one pass and lose their interior points to one
    segmented prefilter; each track then gets its own hull and IoU. Faults
    are reported in track order: the tracks before one whose class has no
    mapping are evaluated before that is raised. Records come back in
    label-id order.

    ``tracks`` may also be the path of a tracks document, read once as UTF-8
    with universal newlines. A text that is exactly ``{"tracks": [...]}``,
    give or take whitespace, is split into shares of the array: one per
    whole ``_SHARE_CHARS`` characters and per CPU in the affinity mask (Linux
    only, and only while no other Python thread runs), and at least one. A
    share starts at the first ``{`` at or after its nominal point that
    follows a ``,`` and decodes to an object holding ``"poses"``. It decodes
    its elements up to the first one starting at or after the next share's
    nominal point, building each into a track before it decodes the next, so
    that it holds one element's JSON objects at a time, and evaluates its
    tracks as above. This process runs the first share, with no pipe and no
    fork when it is the only one, and a forked child each other one (see
    ``_fork``). The split is kept only if each share stopped where the next
    one started and the last at the array's end, so that the shares cover
    the array exactly, once; its records are then sorted stably by label
    id. If that check fails, a pipe or a fork cannot be had, or any share
    fails (a decode error, a bad track, a class with no mapping), or its
    child dies, and for any text of another shape, the whole text is built
    by ``tracks_from_json(json.loads(text))`` and evaluated in this process.
    The records and every error are thus those of the whole text built and
    evaluated in one pass.
    """
    if isinstance(tracks, os.PathLike):
        with open(tracks, "r", encoding="utf-8") as handle:
            # Read whole on purpose: freeing this buffer raises glibc's dynamic
            # mmap threshold, so the prefilter's run temporaries (about 0.5 MB)
            # come from the heap and not from fresh mmaps. An mmap or a streamed
            # read loses that: with the threshold held at 128 KiB, a fresh run on
            # the 7.3 MB labelunc_mixed input on a 2-vCPU Xeon takes about 34k
            # minor faults in place of 16k and 1.12x the CPU (BENCH_34.json,
            # mmap_threshold).
            text = handle.read()
        split = _evaluate_shares(text, mapping, per_class)
        if split is not None:
            return split
        tracks = tracks_from_json(json.loads(text))
    per_class = dict(per_class or {})
    chosen = [per_class.get(t.class_name, mapping) for t in tracks]
    missing = next((k for k, m in enumerate(chosen) if m is None), len(tracks))
    records = _records(tracks[:missing], chosen[:missing])  # an earlier track's fault comes first
    if missing < len(tracks):
        raise ValueError(
            f"no uncertainty mapping for class {tracks[missing].class_name!r} and no default given"
        )
    return sorted(records, key=lambda r: r.label_id)


# The smallest share worth a child: two shares break even with one pass at
# about 350 kB of document (forking, piping and reaping a child take about
# 4 ms), so a document is split only into shares of 1 Mi characters or more.
_SHARE_CHARS = 1 << 20
_WHITESPACE = re.compile(r"[ \t\n\r]*")
_TRACKS_OPEN = re.compile(r'[ \t\n\r]*\{[ \t\n\r]*"tracks"[ \t\n\r]*:[ \t\n\r]*\[[ \t\n\r]*')
_TRACKS_CLOSE = re.compile(r"\][ \t\n\r]*\}[ \t\n\r]*\Z")


def _evaluate_shares(
    text: str, mapping: UncertaintyMapping | None, per_class: Mapping[str, UncertaintyMapping] | None
) -> list[LabelUncertaintyRecord] | None:
    """``evaluate_tracks`` of a tracks document's text in shares of its array,
    one per ``_SHARE_CHARS`` and CPU and at least one, or ``None`` if it is
    not shaped ``{"tracks": [...]}``, ``_fork.run_shares`` gives ``None``,
    or the shares do not cover the array exactly. Each share hands the
    tracks that ``_decode_elements`` built as it decoded them straight to
    ``evaluate_tracks``; the whole document is never decoded here."""
    opened = _TRACKS_OPEN.match(text)
    close = text.rfind("]")  # the array's end, if the text ends "] }"
    if opened is None or close < opened.end() or not _TRACKS_CLOSE.match(text, close):
        return None
    from . import _fork

    n = _fork.workers(len(text) // _SHARE_CHARS)
    first = opened.end()
    points = [first + k * (close - first) // n for k in range(n)] + [close]

    def run(k: int) -> tuple[int, int, list[LabelUncertaintyRecord]]:
        decoder = json.JSONDecoder()
        start = first if k == 0 else _element_start(text, points[k], close, decoder)
        tracks, stop = _decode_elements(text, start, points[k + 1], close, decoder)
        return start, stop, evaluate_tracks(tracks, mapping, per_class)

    parts = _fork.run_shares(run, n)
    # The chain check: share 0 starts at the first element, each share stops
    # where the next one starts, and the last at the array's end.
    if parts is None or [first] + [stop for _, stop, _ in parts] != [start for start, _, _ in parts] + [close]:
        return None
    return sorted((r for _, _, records in parts for r in records), key=lambda r: r.label_id)


def _element_start(text: str, pos: int, close: int, decoder: json.JSONDecoder) -> int:
    """The first ``{`` at or after ``pos``, before ``close``, that follows a
    ``,`` and decodes to an object holding ``"poses"``; ``close`` if none does."""
    while (pos := text.find("{", pos, close)) >= 0:
        before = pos - 1
        while text[before] in " \t\n\r":
            before -= 1
        if text[before] == ",":
            try:
                item = decoder.raw_decode(text, pos)[0]
            except ValueError:
                item = None
            if isinstance(item, dict) and "poses" in item:
                return pos
        pos += 1
    return close


def _decode_elements(
    text: str, start: int, limit: int, close: int, decoder: json.JSONDecoder
) -> tuple[list[LabelTrack], int]:
    """The tracks of the array elements from the one at ``start`` up to the
    first starting at or after ``limit`` (at most ``close``, the array's end),
    and the offset of that one or of ``close``. Each element goes to
    ``_track_from_json`` as soon as it is decoded and its JSON objects are
    dropped before the next one is decoded, so only one element's tree
    exists at a time. An element that is not a valid track raises what
    ``_track_from_json`` raises; each must be followed by a ``,`` and
    another element, or by the array's end, and anything else raises
    ``ValueError``."""
    tracks, pos = [], start
    while pos < limit:
        raw, end = decoder.raw_decode(text, pos)
        tracks.append(_track_from_json(raw))
        del raw
        end = _WHITESPACE.match(text, end).end()
        if end == close:
            return tracks, close
        if text[end] != ",":
            raise ValueError(f"expected ',' at character {end}")
        pos = _WHITESPACE.match(text, end + 1).end()
        if pos == close:
            raise ValueError(f"trailing ',' at character {end}")
    return tracks, pos


def _track_from_json(raw: dict) -> LabelTrack:
    """One document track, its fields, poses and points checked."""
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
    points: dict[int, list] = {}
    for entry in raw.get("points", []):
        sweep = json_int(entry["sweep_id"], "sweep_id")
        if sweep in points:
            raise ValueError(f"duplicate sweep_id {sweep} in points")
        xy = entry["xy"]
        if not isinstance(xy, list):
            raise ValueError(f"xy must be a list, got {xy!r}")
        points[sweep] = xy
    return LabelTrack(label_id, class_name, poses, points)


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
    where they do not fit, not truncated or converted. Tracks are built in
    document order, and the first fault is raised naming its track.
    """
    if not isinstance(doc, dict) or "tracks" not in doc:
        raise ValueError("track document must be an object with a 'tracks' list")
    raw_tracks = doc["tracks"]
    if not isinstance(raw_tracks, list):
        raise ValueError("'tracks' must be a list")
    tracks: list[LabelTrack] = []
    for idx, raw in enumerate(raw_tracks):
        try:
            tracks.append(_track_from_json(raw))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed track at tracks[{idx}]: {exc}") from exc
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
    return csv_text(("bin_low", "bin_high", "count"),
                    ((fmt_sig(low), fmt_sig(high), str(count)) for low, high, count in bins))
