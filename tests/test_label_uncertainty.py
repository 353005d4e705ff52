"""Tests for point aggregation, hull-IoU, the anchor mapping, and the pipeline."""

import json
import math

import numpy as np
import pytest

from lkld.geometry import OrientedRect, Point2, area, convex_hull, rigid_transform
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
    label_iou,
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


class TestLabelIou:
    def test_points_at_corners_give_unit_iou(self):
        rect = simple_rect()
        corners = [Point2(2, 1), Point2(-2, 1), Point2(-2, -1), Point2(2, -1)]
        track = make_track({0: rect}, {0: corners})
        assert label_iou(track, 0) == pytest.approx(1.0, abs=1e-9)

    def test_front_half_grid_gives_half_iou(self):
        rect = simple_rect()  # 4 x 2 box centered at origin
        xs = np.arange(0.0, 2.0 + 1e-9, 0.05)
        ys = np.arange(-1.0, 1.0 + 1e-9, 0.05)
        pts = [Point2(float(x), float(y)) for x in xs for y in ys]
        track = make_track({0: rect}, {0: pts})
        assert label_iou(track, 0) == pytest.approx(0.5, abs=0.02)

    def test_empty_points_give_zero(self):
        track = make_track({0: simple_rect(), 1: simple_rect(1, 1)}, {0: [], 1: []})
        assert label_iou(track, 0) == 0.0

    @pytest.mark.parametrize("offset", [12.3, 5e6, 1e8])
    def test_rigid_motion_invariance(self, offset):
        # Map coordinates as large as UTM northings must not change the IoU.
        rng = np.random.default_rng(6)
        rect = simple_rect()
        pts = [Point2(float(x), float(y)) for x, y in rng.uniform(-1.5, 1.5, (40, 2))]
        track = make_track({0: rect}, {0: pts})
        base = label_iou(track, 0)

        shift = Point2(offset, -0.5 * offset)
        phi = 0.7
        origin = (Point2(0.0, 0.0), 0.0)
        target = (shift, phi)
        moved_rect = OrientedRect(
            rigid_transform(rect.center, origin, target), rect.theta + phi, rect.length, rect.width
        )
        moved_pts = [rigid_transform(p, origin, target) for p in pts]
        moved = make_track({0: moved_rect}, {0: moved_pts})
        assert label_iou(moved, 0) == pytest.approx(base, abs=1e-6)


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


def record_with_iou(value, label_id="x"):
    return LabelUncertaintyRecord(
        label_id=label_id, class_name="vehicle", iou=value, scale_b=0.1, n_points=1, n_sweeps=1
    )


class TestIouHistogram:
    def test_bin_edge_convention(self):
        records = [record_with_iou(v) for v in (0.0, 0.5, 1.0)]
        bins = iou_histogram(records, 2)
        assert bins == [(0.0, 0.5, 1), (0.5, 1.0, 2)]

    def test_empty_records(self):
        bins = iou_histogram([], 4)
        assert [count for _, _, count in bins] == [0, 0, 0, 0]

    def test_counts_conserved_on_synthetic_ious(self):
        rng = np.random.default_rng(21)
        records = [record_with_iou(float(v)) for v in rng.beta(2.0, 5.0, 10_000)]
        bins = iou_histogram(records, 17)
        assert sum(count for _, _, count in bins) == 10_000

    def test_rejects_bad_bin_count(self):
        with pytest.raises(ValueError):
            iou_histogram([], 0)


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

    @pytest.mark.parametrize("bad_point", [[0.5], [0.5, 0.2, 0.0], 0.5, ["x", 0.2]])
    def test_points_must_be_numeric_pairs(self, bad_point):
        doc = self.sample_doc()
        doc["tracks"][0]["points"][1]["xy"].append(bad_point)
        with pytest.raises(ValueError, match=r"malformed track at tracks\[0\]"):
            tracks_from_json(doc)

    def test_points_converted_to_point2(self):
        track = tracks_from_json(self.sample_doc())[0]
        assert track.points[0] == [Point2(0.5, 0.2), Point2(-0.5, -0.2)]
        assert all(type(p) is Point2 for p in track.points[1])

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
