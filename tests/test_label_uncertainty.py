"""Tests for point aggregation, hull-IoU, the anchor mapping, and the pipeline."""

import json
import math
import os
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import SHARE_FAILURES, assert_all_children_reaped, cpus, share_failure
from oracles import reference_evaluate_tracks, reference_label_frame, reference_tracks_from_json

from lkld import geometry, label_uncertainty
from lkld.geometry import ConvexPolygon, OrientedRect, Point2, area, convex_hull, rigid_transform
from lkld.label_uncertainty import (
    LabelTrack,
    LabelUncertaintyRecord,
    MIN_SCALE,
    aggregate_points,
    choose_reference_sweep,
    evaluate_track,
    evaluate_tracks,
    fit_mapping,
    histogram_to_csv,
    iou_histogram,
    map_iou,
    records_to_csv,
    tracks_from_json,
)


def make_track(poses, points, label_id="t0", class_name="vehicle"):
    return LabelTrack(label_id=label_id, class_name=class_name, poses=poses, points=points)


def simple_rect(cx=0.0, cy=0.0, theta=0.0, length=4.0, width=2.0):
    return OrientedRect(Point2(cx, cy), theta, length, width)


class TestAggregatePoints:
    def test_single_sweep_identity(self):
        # A box at the origin with heading 0: its frame is the global frame.
        pts = [Point2(0.5, 0.1), Point2(-0.3, 0.2)]
        track = make_track({0: simple_rect()}, {0: pts})
        out = aggregate_points(track, 0)
        assert out.shape == (2, 2)
        np.testing.assert_array_equal(out, np.array(pts))

    def test_center_point_maps_to_reference_center(self):
        # Each box centre is the origin of the reference label's frame.
        track = make_track(
            {0: simple_rect(0, 0), 1: simple_rect(1, 0, 0.4)},
            {0: [Point2(0, 0)], 1: [Point2(1, 0)]},
        )
        out = aggregate_points(track, 0)
        assert out.shape == (2, 2)
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_rigid_box_round_trip_over_five_sweeps(self):
        # Eight points rigidly attached to a box, observed under random
        # rigid motion; every sweep's block must reproduce the box-local
        # coordinates, whichever sweep is the reference.
        rng = np.random.default_rng(5)
        local = [
            Point2(2, 1), Point2(-2, 1), Point2(-2, -1), Point2(2, -1),
            Point2(2, 0), Point2(-2, 0), Point2(0, 1), Point2(0, -1),
        ]
        poses = {}
        points = {}
        for sweep in range(5):
            cx, cy = rng.uniform(-10, 10, 2)
            theta = rng.uniform(-math.pi, math.pi)
            poses[sweep] = simple_rect(cx, cy, theta)
            origin = (Point2(0.0, 0.0), 0.0)
            points[sweep] = [rigid_transform(p, origin, (Point2(cx, cy), theta)) for p in local]
        track = make_track(poses, points)
        for reference in (0, 2):
            out = aggregate_points(track, reference)
            assert out.shape == (40, 2)
            for block in out.reshape(5, 8, 2):
                np.testing.assert_allclose(block, np.array(local), rtol=0.0, atol=1e-9)

    def test_unknown_reference_sweep(self):
        track = make_track({0: simple_rect()}, {0: []})
        with pytest.raises(ValueError):
            aggregate_points(track, 3)


def hull_iou(track):
    """The track's hull IoU, through the path ``evaluate_tracks`` takes for one track."""
    return evaluate_track(track, fit_mapping(2.00, 0.05, 0.01)).iou


class TestLabelIou:
    # Each track's reference sweep is the one choose_reference_sweep picks: sweep 0.
    def test_points_at_corners_give_unit_iou(self):
        rect = simple_rect()
        corners = [Point2(2, 1), Point2(-2, 1), Point2(-2, -1), Point2(2, -1)]
        track = make_track({0: rect}, {0: corners})
        assert hull_iou(track) == pytest.approx(1.0, abs=1e-9)

    def test_front_half_grid_gives_half_iou(self):
        rect = simple_rect()  # 4 x 2 box centered at origin
        xs = np.arange(0.0, 2.0 + 1e-9, 0.05)
        ys = np.arange(-1.0, 1.0 + 1e-9, 0.05)
        pts = [Point2(float(x), float(y)) for x in xs for y in ys]
        track = make_track({0: rect}, {0: pts})
        assert hull_iou(track) == pytest.approx(0.5, abs=0.02)

    def test_empty_points_give_zero(self):
        track = make_track({0: simple_rect(), 1: simple_rect(1, 1)}, {0: [], 1: []})
        assert hull_iou(track) == 0.0

    @pytest.mark.parametrize("offset", [12.3, 5e6, 1e8])
    def test_rigid_motion_invariance(self, offset):
        # Map coordinates as large as UTM northings must not change the IoU.
        rng = np.random.default_rng(6)
        rect = simple_rect()
        pts = [Point2(float(x), float(y)) for x, y in rng.uniform(-1.5, 1.5, (40, 2))]
        track = make_track({0: rect}, {0: pts})
        base = hull_iou(track)

        shift = Point2(offset, -0.5 * offset)
        phi = 0.7
        origin = (Point2(0.0, 0.0), 0.0)
        target = (shift, phi)
        moved_rect = OrientedRect(
            rigid_transform(rect.center, origin, target), rect.theta + phi, rect.length, rect.width
        )
        moved_pts = [rigid_transform(p, origin, target) for p in pts]
        moved = make_track({0: moved_rect}, {0: moved_pts})
        assert hull_iou(moved) == pytest.approx(base, abs=1e-6)


class TestReferenceSweepChoice:
    def test_most_points_wins(self):
        track = make_track(
            {0: simple_rect(), 1: simple_rect(), 2: simple_rect()},
            {0: [Point2(0, 0)], 1: [Point2(0, 0), Point2(1, 0)], 2: []},
        )
        assert choose_reference_sweep(track) == 1

    def test_tie_breaks_to_smallest_sweep_id(self):
        track = make_track(
            {3: simple_rect(), 1: simple_rect()},
            {3: [Point2(0, 0)], 1: [Point2(0, 0)]},
        )
        assert choose_reference_sweep(track) == 1


class TestFitMapping:
    def test_paper_style_anchor_triple(self):
        mapping = fit_mapping(2.00, 0.05, 0.01)
        t = (0.05 - 0.01) / (2.00 - 0.05)
        assert t == pytest.approx(0.020513, abs=1e-6)
        assert mapping.beta == pytest.approx(-2.0 * math.log(t), rel=1e-12)
        assert not mapping.linear
        for x, anchor in [(0.0, 2.00), (0.5, 0.05), (1.0, 0.01)]:
            assert map_iou(mapping, x) == pytest.approx(anchor, abs=1e-9)

    def test_second_anchor_triple_round_trip(self):
        mapping = fit_mapping(1.00, 0.05, 0.01)
        for x, anchor in [(0.0, 1.00), (0.5, 0.05), (1.0, 0.01)]:
            assert map_iou(mapping, x) == pytest.approx(anchor, abs=1e-9)

    def test_equally_spaced_anchors_fall_back_to_linear(self):
        mapping = fit_mapping(0.30, 0.20, 0.10)
        assert mapping.linear
        assert map_iou(mapping, 0.25) == pytest.approx(0.30 - 0.20 * 0.25, abs=1e-12)
        for x, anchor in [(0.0, 0.30), (0.5, 0.20), (1.0, 0.10)]:
            assert map_iou(mapping, x) == pytest.approx(anchor, abs=1e-12)

    def test_rejects_non_decreasing_anchors(self):
        with pytest.raises(ValueError):
            fit_mapping(0.05, 0.05, 0.01)
        with pytest.raises(ValueError):
            fit_mapping(0.01, 0.05, 2.0)
        with pytest.raises(ValueError):
            fit_mapping(1.0, 0.5, -0.1)

    @pytest.mark.parametrize(
        "anchors", [(1e300, 5e299, 2e288), (1e308, 1e-300, 5e-324)], ids=["alpha-overflow", "t-underflow"]
    )
    def test_rejects_a_fit_beyond_the_float_range(self, anchors):
        with pytest.raises(ValueError) as err:
            fit_mapping(*anchors)
        assert str(err.value) == f"anchors must give a fit within the float range, got {anchors}"

    def test_convex_violating_gaps_still_fit_and_decrease(self):
        # Second gap wider than the first: the closed form still reproduces
        # the anchors (with a negative curvature parameter) and decreases.
        mapping = fit_mapping(1.0, 0.9, 0.1)
        for x, anchor in [(0.0, 1.0), (0.5, 0.9), (1.0, 0.1)]:
            assert map_iou(mapping, x) == pytest.approx(anchor, abs=1e-9)
        values = [map_iou(mapping, x) for x in np.linspace(0, 1, 101)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestMapIou:
    def test_monotone_between_anchors(self):
        mapping = fit_mapping(2.00, 0.05, 0.01)
        v25 = map_iou(mapping, 0.25)
        assert 0.05 < v25 < 2.00
        assert v25 > map_iou(mapping, 0.26)

    def test_strictly_decreasing_on_dense_grid(self):
        mapping = fit_mapping(2.00, 0.05, 0.01)
        values = [map_iou(mapping, x) for x in np.linspace(0.0, 1.0, 1001)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_clamped_below(self):
        mapping = fit_mapping(1.0, 0.9, 0.1)
        assert map_iou(mapping, 1.0) >= MIN_SCALE

    def test_rejects_out_of_range_iou(self):
        mapping = fit_mapping(2.00, 0.05, 0.01)
        with pytest.raises(ValueError):
            map_iou(mapping, -0.01)
        with pytest.raises(ValueError):
            map_iou(mapping, 1.01)
        with pytest.raises(ValueError):
            map_iou(mapping, float("nan"))


class TestIouHistogram:
    def test_bin_edge_convention(self):
        bins = iou_histogram([0.0, 0.5, 1.0], 2)
        assert bins == [(0.0, 0.5, 1), (0.5, 1.0, 2)]

    def test_empty_records(self):
        bins = iou_histogram([], 4)
        assert [count for _, _, count in bins] == [0, 0, 0, 0]

    def test_counts_conserved_on_synthetic_ious(self):
        rng = np.random.default_rng(21)
        bins = iou_histogram(rng.beta(2.0, 5.0, 10_000).tolist(), 17)
        assert sum(count for _, _, count in bins) == 10_000

    def test_rejects_bad_bin_count(self):
        with pytest.raises(ValueError):
            iou_histogram([], 0)

    def test_bin_count_limit(self, monkeypatch):
        monkeypatch.setattr(label_uncertainty, "MAX_HISTOGRAM_BINS", 4)
        assert len(iou_histogram([0.5], 4)) == 4
        with pytest.raises(ValueError, match="n_bins must be between 1 and 4, got 5"):
            iou_histogram([0.5], 5)

    @pytest.mark.parametrize("value", [-0.5, -1e-12, 1.5, math.inf, math.nan])
    def test_rejects_iou_outside_unit_interval(self, value):
        with pytest.raises(ValueError, match=r"iou must be in \[0, 1\]"):
            iou_histogram([0.25, value], 4)


def _shifted(cloud, shift):
    # Adding 0.0 would turn every -0.0 into 0.0.
    return [(x + shift, y + shift) for x, y in cloud] if shift else cloud


# Point sets on both sides of the hull prefilter's size: ties, duplicates,
# -0.0 beside 0.0, and map-sized offsets.
XY_COORD = st.one_of(
    st.integers(-4, 4).map(float), st.just(-0.0), st.floats(-100.0, 100.0, allow_nan=False)
)
POINT_SETS = st.builds(
    _shifted,
    st.lists(st.tuples(XY_COORD, XY_COORD), max_size=80),
    st.sampled_from([0.0, 1e8, -3e7]),
)


def _forms(points):
    """One point set in every form the point-set gate takes, the array last."""
    return {
        "list rows": [list(p) for p in points],
        "tuple rows": [tuple(p) for p in points],
        "Point2 rows": [Point2(*p) for p in points],
        "array rows": list(np.array(points, dtype=float).reshape(-1, 2)),
        "generator": (tuple(p) for p in points),
        "array": np.array(points, dtype=float).reshape(-1, 2),
    }


class TestInputForms:
    """List, tuple, Point2 and array rows, generators and arrays take one path."""

    @settings(max_examples=100, deadline=None)
    @given(POINT_SETS)
    @example([])
    @example([(-0.0, 0.0), (0.0, -0.0), (1.0, -0.0), (-0.0, 1.0)])
    @example(_shifted([(float(i % 7), float(i // 7)) for i in range(49)], 1e8))
    def test_every_form_converts_the_same(self, points):
        arrays = {name: geometry._xy_array(pts) for name, pts in _forms(points).items()}
        for name, arr in arrays.items():
            assert (arr.dtype, arr.shape) == (np.float64, (len(points), 2)), name
            assert arr.tobytes() == arrays["array"].tobytes(), name
        hulls = {name: repr(convex_hull(pts).vertices) for name, pts in _forms(points).items()}
        assert set(hulls.values()) == {repr(convex_hull(arrays["array"]).vertices)}, hulls

    @settings(max_examples=100, deadline=None)
    @given(POINT_SETS)
    @example([(-0.0, 0.0), (1.0, -0.0), (-0.0, 1.0)])
    def test_polygons_take_every_form(self, points):
        vertices = convex_hull(points).vertices
        polygons = {name: repr(ConvexPolygon(pts).vertices) for name, pts in _forms(vertices).items()}
        assert set(polygons.values()) == {repr(vertices)}, polygons


class TestHullGrowth:
    def test_adding_points_never_shrinks_hull(self):
        rng = np.random.default_rng(22)
        pts = [Point2(float(x), float(y)) for x, y in rng.uniform(-1, 1, (20, 2))]
        base_area = area(convex_hull(pts))
        for _ in range(50):
            extra = [Point2(float(x), float(y)) for x, y in rng.uniform(-2, 2, (3, 2))]
            grown = area(convex_hull(pts + extra))
            assert grown >= base_area - 1e-12


class TestPipeline:
    def make_tracks(self):
        corner_pts = [Point2(2, 1), Point2(-2, 1), Point2(-2, -1), Point2(2, -1)]
        t1 = make_track({0: simple_rect()}, {0: corner_pts}, label_id="b", class_name="vehicle")
        t2 = make_track({0: simple_rect()}, {0: []}, label_id="a", class_name="pedestrian")
        return [t1, t2]

    def test_records_sorted_and_scales_match_mapping(self):
        mapping = fit_mapping(2.00, 0.05, 0.01)
        records = evaluate_tracks(self.make_tracks(), mapping=mapping)
        assert [r.label_id for r in records] == ["a", "b"]
        for r in records:
            assert r.scale_b == pytest.approx(map_iou(mapping, r.iou), abs=1e-12)
        assert records[0].iou == 0.0
        assert records[1].iou == pytest.approx(1.0, abs=1e-9)
        assert records[1].n_points == 4
        assert records[1].n_sweeps == 1

    def test_per_class_mapping_selection(self):
        vehicle_map = fit_mapping(2.00, 0.05, 0.01)
        ped_map = fit_mapping(0.25, 0.05, 0.01)
        records = evaluate_tracks(
            self.make_tracks(), mapping=vehicle_map, per_class={"pedestrian": ped_map}
        )
        by_id = {r.label_id: r for r in records}
        assert by_id["a"].scale_b == pytest.approx(0.25, abs=1e-9)  # iou 0 anchor
        assert by_id["b"].scale_b == pytest.approx(0.01, abs=1e-9)  # iou 1 anchor

    def test_missing_mapping_raises(self):
        with pytest.raises(ValueError):
            evaluate_tracks(self.make_tracks(), mapping=None, per_class={})

    def test_boxes_at_the_ends_of_the_scale(self):
        # Half of a 5e-324 length rounds to 0, so t1's box is a segment: IoU 0,
        # where it raised "polygon has repeated vertices". t2's 1e-6 box has its
        # corners as points: IoU 1, as for a box of any size, where it gave 0.
        corners = [(5e-7, 5e-7), (-5e-7, 5e-7), (-5e-7, -5e-7), (5e-7, -5e-7)]
        tracks = [
            make_track({0: simple_rect(length=5e-324, width=1.0)}, {0: [(0.0, 0.1), (0.0, -0.1)]}, label_id="t1"),
            make_track({0: simple_rect(length=1e-6, width=1e-6)}, {0: corners}, label_id="t2"),
        ]
        t1, t2 = evaluate_tracks(tracks, fit_mapping(1.0, 0.4, 0.1))
        assert (t1.iou, t1.scale_b) == (0.0, pytest.approx(1.0, rel=1e-12))
        assert (t2.iou, t2.scale_b) == (pytest.approx(1.0, abs=1e-12), pytest.approx(0.1, rel=1e-9))


def _track_from(label_id, rect, sweeps, local):
    """A track whose box moves by ``sweeps`` (offset, turn); points are box-local fractions."""
    poses, points = {}, {}
    for sweep, ((dx, dy), turn) in enumerate(sweeps):
        theta = rect.theta + turn
        poses[sweep] = OrientedRect(Point2(rect.center.x + dx, rect.center.y + dy), theta, rect.length, rect.width)
        c, s = math.cos(theta), math.sin(theta)
        pts = [(u * rect.length, v * rect.width) for u, v in local[sweep % len(local)]] if local else []
        points[sweep] = [(poses[sweep].center.x + c * u - s * v, poses[sweep].center.y + s * u + c * v)
                         for u, v in pts]
    return make_track(poses, points, label_id=label_id, class_name="car" if len(sweeps) > 2 else "ped")


# Fractions beyond 0.5 put points outside the box, so some hulls cross its
# edges and get clipped; quarter steps give ties and collinear runs.
_FRACTION = st.one_of(st.floats(-0.7, 0.7), st.integers(-3, 3).map(lambda k: k / 4))
TRACKS = st.lists(
    st.builds(
        _track_from,
        st.text("abc", min_size=1, max_size=3),
        st.builds(
            OrientedRect,
            st.builds(Point2, st.sampled_from([0.0, 12.5, -3e5, 5e6]), st.floats(-1e3, 1e3)),
            st.floats(-math.pi, math.pi),
            st.floats(0.5, 5.0),
            st.floats(0.5, 3.0),
        ),
        st.lists(st.tuples(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)), st.floats(-0.1, 0.1)),
                 min_size=1, max_size=4),
        st.lists(st.lists(st.tuples(_FRACTION, _FRACTION), max_size=30), max_size=3),
    ),
    max_size=5,
)


class TestOneDocumentPass:
    """evaluate_tracks moves and prefilters runs of whole tracks at once, exactly as one track at a time would."""

    MAPPING = fit_mapping(2.00, 0.05, 0.01)
    PER_CLASS = {"ped": fit_mapping(0.25, 0.05, 0.01)}

    @settings(max_examples=150, deadline=None)
    @given(TRACKS, st.sampled_from([1, 7, 64, label_uncertainty.RUN_ROWS]))
    def test_records_equal_the_per_track_reference(self, tracks, run_rows):
        # Run sizes cut the document into runs of one track up to all of them.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(label_uncertainty, "RUN_ROWS", run_rows)
            got = evaluate_tracks(tracks, self.MAPPING, self.PER_CLASS)
        assert got == reference_evaluate_tracks(tracks, self.MAPPING, self.PER_CLASS)
        for track in tracks:
            assert [evaluate_track(track, self.PER_CLASS.get(track.class_name, self.MAPPING))] == (
                reference_evaluate_tracks([track], self.MAPPING, self.PER_CLASS))
            moved = aggregate_points(track, choose_reference_sweep(track))
            assert moved.tobytes() == reference_label_frame(track).tobytes()

    def test_each_point_meets_the_prefilter_once(self, monkeypatch):
        # Points drawn inside their boxes give hulls that no box edge clips, so
        # every row the prefilter sees is a track's point: one segmented pass
        # per run, and no second pass on each track's survivors.
        rng = np.random.default_rng(5)
        sweeps = [((0.4 * k, -0.1 * k), 0.02 * k) for k in range(3)]
        tracks = [
            _track_from(f"t{i}", simple_rect(cx=10.0 * i, theta=0.3 * i), sweeps,
                        [rng.uniform(-0.45, 0.45, (n, 2)).tolist() for _ in sweeps])
            for i, n in enumerate([2, 15, 60, 200, 30, 120])
        ]
        drop = geometry._drop_interior
        rows = []

        def counted(pts, counts):
            rows.append(len(pts))
            return drop(pts, counts)

        monkeypatch.setattr(geometry, "_drop_interior", counted)
        monkeypatch.setattr(label_uncertainty, "_drop_interior", counted)
        monkeypatch.setattr(label_uncertainty, "RUN_ROWS", 400)
        records = evaluate_tracks(tracks, self.MAPPING)
        assert len(rows) > 1
        assert sum(rows) == sum(t.n_points for t in tracks)
        assert records == reference_evaluate_tracks(tracks, self.MAPPING, {})

    def test_the_first_fault_in_track_order_is_reported(self):
        far = {0: simple_rect(), 3: simple_rect(cx=-1e308)}
        tracks = [
            make_track({0: simple_rect()}, {0: [(0.1, 0.2)]}, label_id="z-fine"),
            make_track(far, {0: [(0.1, 0.2)], 3: [(1e308, 0.0)]}, label_id="y-far"),
            make_track(far, {3: [(1e308, 0.0)]}, label_id="a-far", class_name="bicycle"),
        ]
        message = "track 'y-far' sweep 3: points moved into the label frame are beyond the float range"
        with pytest.raises(ValueError, match=f"^{message}$"):
            evaluate_tracks(tracks, self.MAPPING)
        # A track with no mapping is a fault of its own, after those of the tracks before it.
        with pytest.raises(ValueError, match=f"^{message}$"):
            evaluate_tracks(tracks, per_class={"vehicle": self.MAPPING})
        with pytest.raises(ValueError, match="^no uncertainty mapping for class 'vehicle'"):
            evaluate_tracks(tracks, per_class={"bicycle": self.MAPPING})


_JSON_COORD = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.integers(-(2**70), 2**70), st.just(-0.0)
)


@st.composite
def _track_docs(draw):
    """A valid tracks document: up to 6 tracks of 1-3 sweeps, each sweep with 0-12 points or none."""
    tracks = []
    for i in range(draw(st.integers(1, 6))):
        sweeps = draw(st.lists(st.integers(0, 9), min_size=1, max_size=3, unique=True))
        poses = [{"sweep_id": sweep, "center": [draw(st.floats(-1e3, 1e3)), draw(st.floats(-1e3, 1e3))],
                  "theta": draw(st.floats(-4.0, 4.0)), "length": 4.0, "width": 2.0} for sweep in sweeps]
        points = [{"sweep_id": sweep, "xy": draw(st.lists(st.lists(_JSON_COORD, min_size=2, max_size=2),
                                                          max_size=12))}
                  for sweep in draw(st.lists(st.sampled_from(sweeps), unique=True))]
        tracks.append({"label_id": f"t{i}", "class_name": "car", "poses": poses, "points": points})
    return {"tracks": tracks}


# Each makes a bad row from the good row [0.5, 0.25].
POINT_FAULTS = {
    "NaN": [math.nan, 0.25],
    "1e400": [0.5, json.loads("1e400")],
    "10**400": [10**400, 0.25],
    "true": [True, 0.25],
    '"1"': [0.5, "1"],
    "ragged row": [0.5],
    "dict row": {"x": 0.5, "y": 0.25},
}


def _no_poses(track):
    track["poses"] = []


def _points_without_a_pose(track):
    track["points"].append({"sweep_id": 99, "xy": []})


def _string_theta(track):
    track["poses"][-1]["theta"] = "0"


def _zero_length(track):
    track["poses"][0]["length"] = 0


POSE_FAULTS = [_no_poses, _points_without_a_pose, _string_theta, _zero_length]


@st.composite
def _faulty_track_docs(draw):
    """A tracks document with a bad point, a bad pose or both, anywhere."""
    doc = draw(_track_docs())
    tracks = doc["tracks"]
    point, pose = draw(st.sampled_from([(True, False), (False, True), (True, True)]))
    if point:
        entries = [entry for track in tracks for entry in track["points"]]
        if not entries:  # no sweep has points: the last track's first sweep gets an empty list
            entries = [{"sweep_id": tracks[-1]["poses"][0]["sweep_id"], "xy": []}]
            tracks[-1]["points"] += entries
        xy = draw(st.sampled_from(entries))["xy"]
        xy.insert(draw(st.integers(0, len(xy))), draw(st.sampled_from(list(POINT_FAULTS.values()))))
    if pose:
        draw(st.sampled_from(POSE_FAULTS))(draw(st.sampled_from(tracks)))
    return doc


class TestRunGate:
    """tracks_from_json gates each track's sweeps at once, exactly as gating one sweep at a time would."""

    @settings(max_examples=150, deadline=None)
    @given(_track_docs())
    def test_tracks_equal_the_per_sweep_parse(self, doc):
        got, want = tracks_from_json(doc), reference_tracks_from_json(doc)
        assert len(got) == len(want)
        for track, expected in zip(got, want):
            assert (track.label_id, track.class_name, track.poses, track.n_points) == (
                expected.label_id, expected.class_name, expected.poses, expected.n_points)
            assert list(track.points) == list(expected.points)
            for sweep, pts in track.points.items():
                assert (pts.dtype, pts.shape) == (expected.points[sweep].dtype, expected.points[sweep].shape)
                assert pts.tobytes() == expected.points[sweep].tobytes()

    @settings(max_examples=300, deadline=None)
    @given(_faulty_track_docs())
    def test_the_first_fault_is_the_per_sweep_parse_fault(self, doc):
        with pytest.raises(ValueError) as want:
            reference_tracks_from_json(doc)
        with pytest.raises(ValueError) as got:
            tracks_from_json(doc)
        assert str(got.value) == str(want.value)


@st.composite
def _mixed_sweeps(draw):
    """1-6 sweeps of 0-12 points as lists of list, tuple or array rows, or as (k, 2) arrays,
    with a bad point in some of them."""
    points = {}
    for sweep in draw(st.lists(st.integers(0, 9), min_size=1, max_size=6, unique=True)):
        rows = draw(st.lists(st.lists(_JSON_COORD, min_size=2, max_size=2), max_size=12))
        form = draw(st.sampled_from(["list rows", "tuple rows", "array rows", "array"]))
        bad = draw(st.booleans()) and draw(st.integers(0, len(rows)))
        if form == "array":
            pts = np.array(rows, dtype=float).reshape(-1, 2)
            if bad is not False:
                pts = np.insert(pts, bad, [0.5, draw(st.sampled_from([math.nan, math.inf]))], axis=0)
        else:
            row = {"list rows": list, "tuple rows": tuple, "array rows": np.array}[form]
            pts = [row(p) for p in rows]
            if bad is not False:
                pts.insert(bad, draw(st.sampled_from(list(POINT_FAULTS.values()))))
        points[sweep] = pts
    return points


class TestTrackGate:
    """A track gates its sweeps as one set, exactly as gating one sweep at a time would."""

    @settings(max_examples=300, deadline=None)
    @given(_mixed_sweeps())
    def test_the_track_gate_equals_the_per_sweep_gate(self, points):
        poses = {sweep: simple_rect() for sweep in points}
        try:
            want = {sweep: geometry._xy_array(pts) for sweep, pts in points.items()}
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                LabelTrack("t0", "car", poses, points)
            assert str(got.value) == str(exc)
            return
        track = LabelTrack("t0", "car", poses, points)
        assert list(track.points) == list(want)
        for sweep, pts in track.points.items():
            assert (pts.dtype, pts.shape) == (want[sweep].dtype, want[sweep].shape)
            assert pts.tobytes() == want[sweep].tobytes()


class TestJsonAndCsv:
    def sample_doc(self):
        return {
            "tracks": [
                {
                    "label_id": "veh-1",
                    "class_name": "vehicle",
                    "poses": [
                        {"sweep_id": 0, "center": [0.0, 0.0], "theta": 0.0, "length": 4.0, "width": 2.0},
                        {"sweep_id": 1, "center": [1.0, 0.0], "theta": 0.1, "length": 4.0, "width": 2.0},
                    ],
                    "points": [
                        {"sweep_id": 0, "xy": [[0.5, 0.2], [-0.5, -0.2]]},
                        {"sweep_id": 1, "xy": [[1.5, 0.1]]},
                    ],
                }
            ]
        }

    def test_round_trip_through_json(self):
        tracks = tracks_from_json(json.loads(json.dumps(self.sample_doc())))
        assert len(tracks) == 1
        track = tracks[0]
        assert track.label_id == "veh-1"
        assert track.n_points == 3
        assert track.n_sweeps == 2
        assert track.poses[1].center == Point2(1.0, 0.0)

    def test_malformed_documents_rejected(self):
        with pytest.raises(ValueError):
            tracks_from_json([])
        with pytest.raises(ValueError):
            tracks_from_json({"tracks": [{"label_id": "x"}]})
        doc = self.sample_doc()
        doc["tracks"][0]["points"].append({"sweep_id": 9, "xy": [[0, 0]]})
        with pytest.raises(ValueError, match=r"tracks\[0\].*sweeps without poses"):
            tracks_from_json(doc)

    @pytest.mark.parametrize("block", ["poses", "points"])
    def test_duplicate_sweep_ids_rejected(self, block):
        doc = self.sample_doc()
        entries = doc["tracks"][0][block]
        entries.append(dict(entries[0]))
        with pytest.raises(
            ValueError, match=rf"malformed track at tracks\[0\]: duplicate sweep_id 0 in {block}"
        ):
            tracks_from_json(doc)

    @pytest.mark.parametrize(
        "bad_point", [[0.5], [0.5, 0.2, 0.0], 0.5, ["x", 0.2], [None, 0.2], [[0.5, 0.2]], {}]
    )
    def test_points_must_be_numeric_pairs(self, bad_point):
        doc = self.sample_doc()
        doc["tracks"][0]["points"][1]["xy"].append(bad_point)
        with pytest.raises(ValueError, match=r"malformed track at tracks\[0\]"):
            tracks_from_json(doc)

    @pytest.mark.parametrize("side, points", [
        (1e200, [[0.0, 0.0], [1e199, 0.0], [0.0, 1e199]]),  # its IoU read 0; the true one is 0.005
        (1e-200, [[0.0, 0.0], [1e-201, 0.0], [0.0, 1e-201]]),
    ])
    def test_box_area_beyond_the_float_range_names_its_track(self, side, points):
        doc = self.sample_doc()
        doc["tracks"].append({
            "label_id": "huge", "class_name": "vehicle",
            "poses": [{"sweep_id": 0, "center": [0.0, 0.0], "theta": 0.0, "length": side, "width": side}],
            "points": [{"sweep_id": 0, "xy": points}],
        })
        with pytest.raises(ValueError) as err:
            tracks_from_json(doc)
        assert str(err.value) == (
            "malformed track at tracks[1]: length * width must be > 0 and at most "
            f"{geometry.MAX_RECT_AREA:.6g}, got {side} * {side}"
        )

    @pytest.mark.parametrize(
        "first, second, where", [("NaN", "1e400", 0), ("0.5", "1e400", 1), ("-Infinity", "0.5", 0)]
    )
    def test_non_finite_point_coordinates_rejected(self, first, second, where):
        # Python's json reads NaN, Infinity and numbers beyond the float range as floats.
        track = json.dumps(self.sample_doc()["tracks"][0])
        raw = '{"tracks": [%s, %s]}' % (
            track.replace("[1.5, 0.1]", f"[{first}, 0.5]"),
            track.replace("[1.5, 0.1]", f"[{second}, 0.5]"),
        )
        with pytest.raises(ValueError, match=rf"malformed track at tracks\[{where}\]: .*finite"):
            tracks_from_json(json.loads(raw))

    @pytest.mark.parametrize(
        "block, key, value, message",
        [
            ("poses", "sweep_id", 2.9, "sweep_id must be an integer, got 2.9"),
            ("poses", "sweep_id", 1.0, "sweep_id must be an integer, got 1.0"),
            ("poses", "sweep_id", True, "sweep_id must be an integer, got True"),
            ("poses", "sweep_id", "1", "sweep_id must be an integer, got '1'"),
            ("points", "sweep_id", 1.1, "sweep_id must be an integer, got 1.1"),
            ("points", "sweep_id", "1", "sweep_id must be an integer, got '1'"),
            ("poses", "theta", "0.5", "theta must be a number, got '0.5'"),
            ("poses", "theta", False, "theta must be a number, got False"),
            ("poses", "length", "4", "length must be a number, got '4'"),
            ("poses", "width", None, "width must be a number, got None"),
            ("poses", "center", [1.0, "0"], "center must be a number, got '0'"),
            ("poses", "center", [True, 0.0], "center must be a number, got True"),
        ],
    )
    def test_loose_json_types_rejected(self, block, key, value, message):
        doc = self.sample_doc()
        doc["tracks"][0][block][1][key] = value
        with pytest.raises(ValueError) as err:
            tracks_from_json(json.loads(json.dumps(doc)))
        assert str(err.value) == f"malformed track at tracks[0]: {message}"

    @pytest.mark.parametrize(
        "label_id, class_name, message",
        [
            (1, None, "label_id must be a string, got 1"),
            ("veh-1", None, "class_name must be a string, got None"),
            ("veh-1", 7, "class_name must be a string, got 7"),
            (True, "vehicle", "label_id must be a string, got True"),
            (["veh-1"], "vehicle", "label_id must be a string, got ['veh-1']"),
        ],
    )
    def test_label_id_and_class_name_must_be_json_strings(self, label_id, class_name, message):
        # str() would read null as the class 'None' and 1 as the label '1'.
        doc = self.sample_doc()
        doc["tracks"][0].update(label_id=label_id, class_name=class_name)
        with pytest.raises(ValueError) as err:
            tracks_from_json(json.loads(json.dumps(doc)))
        assert str(err.value) == f"malformed track at tracks[0]: {message}"

    @pytest.mark.parametrize(
        "xy", [[["0.5", "0.2"]], [[True, False]], [[0.5, "0.2"]], [[0.5, True]]]
    )
    def test_point_coordinates_must_be_json_numbers(self, xy):
        doc = self.sample_doc()
        doc["tracks"][0]["points"][1]["xy"] = xy
        with pytest.raises(ValueError) as err:
            tracks_from_json(doc)
        assert str(err.value) == "malformed track at tracks[0]: point coordinates must be numbers"

    @pytest.mark.parametrize(
        "pts",
        [
            ((0.5, 0.2), (False, 0.1)),
            [[0.5, np.True_]],
            np.array([[0.5, True]], dtype=object),
            [Point2(0.5, True)],
        ],
    )
    def test_boolean_among_numbers_rejected(self, pts):
        # numpy reads a boolean among numbers as 0.0 or 1.0.
        with pytest.raises(ValueError, match="^point coordinates must be numbers$"):
            make_track({0: simple_rect()}, {0: pts})

    @pytest.mark.parametrize(
        "xy", [[[1.0, 2.0], [3.0]], [[1.0, 2.0], [3.0, 4.0, 5.0]], [[1.0, 2.0], 3.0], [[]]]
    )
    def test_ragged_sweep_is_not_pairs(self, xy):
        doc = self.sample_doc()
        doc["tracks"][0]["points"][1]["xy"] = xy
        with pytest.raises(ValueError) as err:
            tracks_from_json(doc)
        assert str(err.value) == "malformed track at tracks[0]: points must be (x, y) pairs"

    @pytest.mark.parametrize("xy", [{}, "", {"1": 2.0}, 5, None])
    def test_points_must_be_a_json_list(self, xy):
        doc = self.sample_doc()
        doc["tracks"][0]["points"][1]["xy"] = xy
        with pytest.raises(ValueError) as err:
            tracks_from_json(doc)
        assert str(err.value) == f"malformed track at tracks[0]: xy must be a list, got {xy!r}"

    @pytest.mark.parametrize("big", [10**400, -(10**400)], ids=["positive", "negative"])
    def test_integer_coordinate_beyond_the_float_range(self, big):
        doc = self.sample_doc()
        doc["tracks"][0]["points"][1]["xy"] = [[big, 0.0], [1.0, 1.0]]
        with pytest.raises(ValueError) as err:
            tracks_from_json(doc)
        assert str(err.value) == (
            "malformed track at tracks[0]: point coordinates must be numbers within the float range"
        )

    def test_integer_geometry_is_read_as_floats(self):
        doc = self.sample_doc()
        doc["tracks"][0]["poses"][1].update(center=[1, 0], theta=0, length=4, width=2)
        doc["tracks"][0]["points"][1]["xy"] = [[1, 0]]
        pose = tracks_from_json(doc)[0].poses[1]
        assert (pose.center, pose.theta, pose.length, pose.width) == (Point2(1.0, 0.0), 0.0, 4.0, 2.0)
        assert all(type(v) is float for v in (*pose.center, pose.theta, pose.length, pose.width))

    def test_points_converted_to_float_arrays(self):
        track = tracks_from_json(self.sample_doc())[0]
        for sweep, want in [(0, [[0.5, 0.2], [-0.5, -0.2]]), (1, [[1.5, 0.1]])]:
            assert track.points[sweep].dtype == np.float64
            assert track.points[sweep].shape == (len(want), 2)
            np.testing.assert_array_equal(track.points[sweep], np.array(want))

    def test_records_csv_uses_six_significant_digits(self):
        record = LabelUncertaintyRecord(
            label_id="veh-1",
            class_name="vehicle",
            iou=0.123456789,
            scale_b=0.0123456789,
            n_points=7,
            n_sweeps=2,
        )
        text = records_to_csv([record])
        lines = text.strip().split("\n")
        assert lines[0] == "label_id,class_name,iou,scale_b,n_points,n_sweeps"
        assert lines[1] == "veh-1,vehicle,0.123457,0.0123457,7,2"

    def test_histogram_csv(self):
        text = histogram_to_csv([(0.0, 0.5, 3), (0.5, 1.0, 1)])
        assert text == "bin_low,bin_high,count\n0,0.5,3\n0.5,1,1\n"


MAPPING = fit_mapping(1.0, 0.4, 0.1)
PER_CLASS = {"ped": fit_mapping(0.6, 0.3, 0.08)}
LABEL_IDS = st.one_of(
    st.sampled_from(["a", "b", "{", ",", "{,", '"poses"', ', {"poses": []}', "\\", '"', "\n", "é", "\U0001f697"]),
    st.text(max_size=4),
)
# Extra track keys, some holding objects with "poses" that are not tracks.
EXTRA_KEYS = [
    ("nested", {"poses": []}),
    ("list", [0, {"poses": {"poses": [1]}}, {"poses": []}]),
    ("note", "}, {"),
]


@st.composite
def _split_track(draw, i):
    """A track object of 1-2 sweeps with 0-5 points each, its keys in any
    order and maybe extra keys, or (rarely) a fault."""
    sweeps = draw(st.lists(st.integers(0, 9), min_size=1, max_size=2, unique=True))
    poses = [{"sweep_id": sweep, "center": [draw(st.floats(-1e3, 1e3)), draw(st.floats(-1e3, 1e3))],
              "theta": draw(st.floats(-4.0, 4.0)), "length": 4.0, "width": 2.0} for sweep in sweeps]
    points = [{"sweep_id": sweep, "xy": draw(st.lists(st.lists(_JSON_COORD, min_size=2, max_size=2), max_size=5))}
              for sweep in sweeps]
    fields = {"label_id": draw(LABEL_IDS), "class_name": draw(st.sampled_from(["car", "ped", "bike"])),
              "poses": poses, "points": points}
    fields.update(draw(st.lists(st.sampled_from(EXTRA_KEYS), max_size=2)))
    track = {key: fields[key] for key in draw(st.permutations(list(fields)))}
    fault = draw(st.sampled_from([None] * 30 + [*POSE_FAULTS, "no poses key", "not an object"]))
    if fault == "no poses key":
        del track["poses"]
    elif fault == "not an object":
        return i
    elif fault is not None:
        fault(track)
    return track


@st.composite
def _tracks_texts(draw):
    """The text of a tracks document: whitespace, indent and separators vary,
    and it may hold other keys, a BOM or trailing garbage."""
    tracks = [draw(_split_track(i)) for i in range(draw(st.integers(0, 10)))]
    doc = {"tracks": tracks}
    other = draw(st.sampled_from([None, None, None, "before", "after"]))
    if other == "before":
        doc = {"meta": {"tracks": []}, "tracks": tracks}
    elif other == "after":
        doc["meta"] = [{"poses": []}]
    text = json.dumps(doc, indent=draw(st.sampled_from([None, 0, 1, "\t", " \r\n"])),
                      separators=draw(st.sampled_from([None, (",", ":"), (" ,\n ", " : ")])),
                      ensure_ascii=draw(st.booleans()))
    lead, trail = draw(st.sampled_from(["", " ", "\n\t", "\r\n"])), draw(st.sampled_from(["", "\n", " \r"]))
    bom = draw(st.sampled_from([""] * 20 + ["\ufeff"]))
    garbage = draw(st.sampled_from([""] * 20 + ["x", "]", "}", ",", " 1", "{}"]))
    return bom + lead + text + trail + garbage


def evaluated(source, mapping=MAPPING, per_class=PER_CLASS):
    """evaluate_tracks of a path, or of the document decoded from the file at a
    ``str`` path: the records, or the type and message of the error."""
    try:
        if isinstance(source, Path):
            return evaluate_tracks(source, mapping, per_class)
        with open(source, "r", encoding="utf-8") as handle:
            return evaluate_tracks(tracks_from_json(json.load(handle)), mapping, per_class)
    except Exception as exc:
        return type(exc), str(exc)


def track_objects(n, sweeps=3, points=20):
    """n valid track objects in two classes, their ids in reverse order."""
    return [{"label_id": f"t{n - i:05d}", "class_name": ("car", "ped")[i % 2],
             "poses": [{"sweep_id": s, "center": [i + 0.1 * s, -i], "theta": 0.01 * s, "length": 4.0,
                        "width": 2.0} for s in range(sweeps)],
             "points": [{"sweep_id": s, "xy": [[i + 0.1 * s + 1.9 * math.sin(i + k), -i + 0.9 * math.cos(k)]
                                              for k in range(points)]} for s in range(sweeps)]}
            for i in range(n)]


def write_tracks(path, n):
    path.write_text(json.dumps({"tracks": track_objects(n)}, indent=1), encoding="utf-8")
    return len(path.read_text(encoding="utf-8"))


class TestSplitEvaluate:
    """A path of a large tracks document is decoded, gated and evaluated in forked
    shares: the records and errors are those of the whole document decoded and
    evaluated in one pass, and no child outlives the call."""

    @settings(max_examples=150, deadline=None)
    @given(
        text=_tracks_texts(),
        n_cpus=st.integers(1, 4),
        share_chars=st.integers(100, 600),
        default=st.sampled_from([MAPPING] * 6 + [None]),
    )
    def test_split_equals_the_one_pass(self, text, n_cpus, share_chars, default):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "tracks.json"
            path.write_bytes(text.encode("utf-8"))
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(os, "sched_getaffinity", cpus(n_cpus))
                patch.setattr(label_uncertainty, "_SHARE_CHARS", share_chars)
                split = evaluated(path, default)
            assert split == evaluated(str(path), default)
        assert_all_children_reaped()

    def test_shares_join_in_label_id_order(self, tmp_path, monkeypatch):
        path = tmp_path / "tracks.json"
        size = write_tracks(path, 30)
        forks, built = [], []
        real_fork, real_build = os.fork, label_uncertainty._track_from_json
        monkeypatch.setattr(os, "fork", lambda: forks.append(None) or real_fork())
        monkeypatch.setattr(label_uncertainty, "_track_from_json",
                            lambda raw: built.append(raw["label_id"]) or real_build(raw))
        monkeypatch.setattr(os, "sched_getaffinity", cpus(3))
        monkeypatch.setattr(label_uncertainty, "_SHARE_CHARS", size // 3)
        records = evaluated(path)
        # Two children, and this process built only the first share's tracks, once each.
        assert len(forks) == 2 and 0 < len(built) < 30
        assert built == [f"t{30 - i:05d}" for i in range(len(built))]
        assert [r.label_id for r in records] == [f"t{i:05d}" for i in range(1, 31)]
        monkeypatch.setattr(label_uncertainty, "_track_from_json", real_build)
        assert records == evaluated(str(path))
        assert_all_children_reaped()

    # What goes between elements i - 1 and i of a valid array, or after
    # element i - 1 where the array then ends.
    CUT_FAULTS = {
        "a number": ", 1, ",
        "a list": ", [], ",
        "an object without poses": ', {"label_id": "x", "class_name": "car"}, ',
        "two commas": ", , ",
        "no comma": " ",
        "a trailing comma": ", ",
    }

    @pytest.mark.parametrize("fault", CUT_FAULTS)
    def test_a_fault_at_a_cut_is_not_missed(self, tmp_path, monkeypatch, fault):
        # Wherever the fault sits, at the cut too, the one-pass error is raised. A bad
        # element at the cut is one the second share's search passes over, so only
        # the chain check sees the gap.
        monkeypatch.setattr(os, "sched_getaffinity", cpus(2))
        elements = [json.dumps(track) for track in track_objects(12, sweeps=1, points=2)]
        path = tmp_path / "tracks.json"
        for i in range(1, len(elements)):
            rest = "]" if fault == "a trailing comma" else ", ".join(elements[i:]) + "]"
            text = '{"tracks": [' + ", ".join(elements[:i]) + self.CUT_FAULTS[fault] + rest + "}"
            path.write_text(text, encoding="utf-8")
            monkeypatch.setattr(label_uncertainty, "_SHARE_CHARS", len(text) // 2)
            want = evaluated(str(path))
            assert want[0] in (ValueError, json.JSONDecodeError)
            assert evaluated(path) == want
        assert_all_children_reaped()

    @pytest.mark.parametrize("case", ["small", "one-cpu", "thread"])
    def test_no_fork_for_a_small_file_one_cpu_or_another_thread(self, tmp_path, monkeypatch, case):
        path = tmp_path / "tracks.json"
        size = write_tracks(path, 20)
        monkeypatch.setattr(os, "sched_getaffinity", cpus(1 if case == "one-cpu" else 2))
        monkeypatch.setattr(label_uncertainty, "_SHARE_CHARS", size if case == "small" else 64)
        forks, shares, built = [], [], []
        real_decode, real_build = label_uncertainty._decode_elements, label_uncertainty._track_from_json
        monkeypatch.setattr(os, "fork", lambda: forks.append(None) or pytest.fail("forked"))
        monkeypatch.setattr(label_uncertainty, "_decode_elements", lambda *args: shares.append(None)
                            or real_decode(*args))
        monkeypatch.setattr(label_uncertainty, "_track_from_json", lambda raw: built.append(None) or real_build(raw))
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        if case == "thread":
            thread.start()
        try:
            got = evaluated(path)
        finally:
            stop.set()
            if case == "thread":
                thread.join(timeout=60)
        # One share, decoded and built here, each track once; the whole document was never built again.
        assert (forks, len(shares), len(built)) == ([], 1, 20)
        monkeypatch.setattr(label_uncertainty, "_track_from_json", real_build)
        assert got == evaluated(str(path))

    def test_a_share_holds_one_tracks_json_at_a_time(self, tmp_path, monkeypatch):
        # One share of 50 and of 500 tracks of 60 points, run in this process: its
        # tracemalloc peak less the text read (the bytes and the str) grows by less
        # than 64 B a point. A share that decoded its whole slice before building
        # its tracks would hold each point's [x, y] list and two floats at once,
        # over 200 B a point.
        monkeypatch.setattr(os, "sched_getaffinity", cpus(1))
        excess = {}
        for n in (50, 500):
            path = tmp_path / f"tracks{n}.json"
            path.write_text(json.dumps({"tracks": track_objects(n)}), encoding="utf-8")
            tracemalloc.start()
            try:
                evaluate_tracks(path, MAPPING)
                excess[n * 60] = tracemalloc.get_traced_memory()[1] - 2 * path.stat().st_size
            finally:
                tracemalloc.stop()
        (few, few_excess), (many, many_excess) = excess.items()
        assert (many_excess - few_excess) / (many - few) < 64

    @pytest.mark.parametrize("failure", SHARE_FAILURES)
    def test_a_failing_share_gives_the_one_pass_records(self, tmp_path, monkeypatch, failure):
        path = tmp_path / "tracks.json"
        size = write_tracks(path, 40)
        monkeypatch.setattr(os, "sched_getaffinity", cpus(2))
        monkeypatch.setattr(label_uncertainty, "_SHARE_CHARS", size // 2)
        with share_failure(failure, label_uncertainty, "_track_from_json") as built:
            got = evaluated(path)
        # With no pipe or fork to be had, the 40 tracks are built here, once each;
        # a failed share has them all built again after the first share's. Where
        # SIGCHLD is ignored the child's complete records are kept, and this
        # process builds the first share's tracks only.
        if failure in ("exit", "kill", "raise", "truncated"):
            assert 40 < len(built) < 80
        elif failure == "SIGCHLD ignored":
            assert 0 < len(built) < 40
        else:
            assert len(built) == 40
        assert got == evaluated(str(path))
        assert_all_children_reaped()
