"""Tests for rigid transforms, hulls, clipping, areas, and IoU."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from lkld import geometry
from lkld.geometry import (
    PREFILTER_MIN_POINTS,
    ConvexPolygon,
    OrientedRect,
    Point2,
    _chain_hull,
    _drop_interior,
    _xy_array,
    area,
    contains_point,
    convex_hull,
    intersect_convex,
    iou,
    rect_to_polygon,
    rigid_transform,
)
from lkld.label_uncertainty import LabelTrack

from oracles import (
    monte_carlo_intersection_area,
    random_convex_polygon,
    reference_convex_hull,
    reference_drop_interior,
    reference_intersect_convex,
)

# Point clouds for property tests: duplicates, collinear runs and clustered
# points all come up; coordinates are bounded so areas stay well scaled.
COORD = st.floats(-100.0, 100.0, allow_nan=False)
CLOUDS = st.lists(st.builds(Point2, COORD, COORD), max_size=30)
# Set before the property was first run and kept; iou now meets it exactly.
IOU_SYMMETRY_TOL = 1e-9
# The tolerance the labelunc hull IoU keeps at offsets up to 1e8.
RIGID_MOTION_IOU_TOL = 1e-6


def _is_fat(hull):
    # Coordinates at 1e8 round by up to 7.5e-9, which moves an area by about
    # that times the perimeter; an area of at least the perimeter keeps the
    # IoU's share of that within the tolerance.
    v = hull.vertices
    perimeter = sum(math.dist(v[i - 1], v[i]) for i in range(len(v)))
    return len(v) >= 3 and area(hull) >= perimeter


# Hulls of clouds in [-100, 100] that are not slivers.
FAT_HULL = CLOUDS.map(convex_hull).filter(_is_fat)


def _offset(cloud, shift):
    # Adding 0.0 would turn every -0.0 into 0.0.
    return [(x + shift, y + shift) for x, y in cloud] if shift else cloud


# Clouds large enough for convex_hull to prefilter an array: small integers
# give ties, collinear runs and duplicates, -0.0 meets 0.0, and the offsets
# move the cloud to map-sized coordinates.
HULL_COORD = st.one_of(
    st.integers(-4, 4).map(float), st.just(-0.0), st.floats(-100.0, 100.0, allow_nan=False)
)
LARGE_CLOUDS = st.builds(
    _offset,
    st.lists(st.tuples(HULL_COORD, HULL_COORD), min_size=PREFILTER_MIN_POINTS + 1, max_size=80),
    st.sampled_from([0.0, 1e8, -3e7]),
)
# An octagon whose 8 extreme points are its corners, points on its edges, and
# the same edge points one ulp and 1e-12 inward (below the prefilter margin).
_OCTAGON = [(4.0, 0.0), (3.0, 3.0), (0.0, 4.0), (-3.0, 3.0), (-4.0, 0.0), (-3.0, -3.0), (0.0, -4.0), (3.0, -3.0)]
_ON_EDGES = [
    (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
    for a, b in zip(_OCTAGON, _OCTAGON[1:] + _OCTAGON[:1])
    for t in (0.25, 0.5, 0.75)
]
_JUST_INSIDE = [(math.nextafter(x, 0.0), math.nextafter(y, 0.0)) for x, y in _ON_EDGES] + [
    (x - math.copysign(1e-12, x), y - math.copysign(1e-12, y)) for x, y in _ON_EDGES
]
_RNG = np.random.default_rng(17)

# Clouds for the segmented prefilter: either side of PREFILTER_MIN_POINTS, empty,
# one repeated point (no ring edge), collinear, and ties on every extreme.
_TIE_COORD = st.integers(-3, 3).map(float)
PREFILTER_CLOUDS = st.one_of(
    st.lists(st.tuples(HULL_COORD, HULL_COORD), max_size=PREFILTER_MIN_POINTS + 1),
    st.lists(st.tuples(_TIE_COORD, _TIE_COORD), min_size=PREFILTER_MIN_POINTS, max_size=60),
    st.builds(lambda p, n: [p] * n, st.tuples(HULL_COORD, HULL_COORD), st.integers(0, 50)),
    st.builds(lambda ts, a, b: [(t, a * t + b) for t in ts],
              st.lists(HULL_COORD, min_size=PREFILTER_MIN_POINTS - 1, max_size=50), _TIE_COORD, HULL_COORD),
    st.sampled_from([PREFILTER_MIN_POINTS, PREFILTER_MIN_POINTS + 1]).flatmap(
        lambda n: st.lists(st.tuples(HULL_COORD, HULL_COORD), min_size=n, max_size=n)),
)


# Points of one line that rounding at 1e8 once put on both monotone chains.
_FLAT_TO_ROUNDING = [(t, -t - 6.893801387521911) for t in
                     [0.0] * 21 + [-86.75263063542869] + [-0.0] * 14 + [80.82940759362188, -91.0, -92.0]]


def _scaled(cloud, scale):
    # A cloud as a float64 array times scale; beyond 1e300 the largest coordinate becomes |scale|.
    arr = np.array(cloud, dtype=float).reshape(-1, 2)
    if abs(scale) > 1e300 and arr.size:
        scale /= max(1.0, np.abs(arr).max())
    return arr * scale


def _inside(rect, local):
    # Points inside rect: box-local fractions in [-0.5, 0.5] of its length and width.
    c, s = math.cos(rect.theta), math.sin(rect.theta)
    pts = [(u * rect.length, v * rect.width) for u, v in local]
    return [(rect.center.x + c * u - s * v, rect.center.y + s * u + c * v) for u, v in pts]


_RECTS = st.builds(
    OrientedRect,
    st.builds(Point2, st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
    st.floats(-math.pi, math.pi),
    st.floats(0.1, 8.0),
    st.floats(0.1, 8.0),
)
_FRACTION = st.floats(-0.5, 0.5)
# Canonical hulls (as convex_hull returns them) and boxes that are not (they
# start at their +length/+width corner), and hulls of points inside a box.
POLYGONS = st.one_of(
    CLOUDS.map(convex_hull),
    _RECTS.map(rect_to_polygon),
    st.builds(_inside, _RECTS, st.lists(st.tuples(_FRACTION, _FRACTION), max_size=30)).map(convex_hull),
)
CONTAINED_PAIRS = st.builds(
    lambda rect, local: (convex_hull(_inside(rect, local)), rect_to_polygon(rect)),
    _RECTS,
    st.lists(st.tuples(_FRACTION, _FRACTION), min_size=3, max_size=30),
)


def square(x0=0.0, y0=0.0, side=1.0):
    return ConvexPolygon(
        (
            Point2(x0, y0),
            Point2(x0 + side, y0),
            Point2(x0 + side, y0 + side),
            Point2(x0, y0 + side),
        )
    )


class TestRigidTransform:
    def test_identity(self):
        p = rigid_transform(Point2(1, 0), (Point2(0, 0), 0.0), (Point2(0, 0), 0.0))
        assert p == Point2(1.0, 0.0)

    def test_quarter_rotation_about_shared_center(self):
        p = rigid_transform(Point2(1, 0), (Point2(0, 0), 0.0), (Point2(0, 0), math.pi / 2))
        assert p.x == pytest.approx(0.0, abs=1e-12)
        assert p.y == pytest.approx(1.0, abs=1e-12)

    def test_hand_computed_translation_plus_half_turn(self):
        # Offset (1,0) rotated by pi gives (-1,0); adding (5,5) gives (4,5).
        p = rigid_transform(Point2(2, 1), (Point2(1, 1), 0.0), (Point2(5, 5), math.pi))
        assert p.x == pytest.approx(4.0, abs=1e-9)
        assert p.y == pytest.approx(5.0, abs=1e-9)


class TestConvexHull:
    def test_interior_point_excluded(self):
        hull = convex_hull(
            [Point2(0, 0), Point2(1, 0), Point2(1, 1), Point2(0, 1), Point2(0.5, 0.5)]
        )
        assert len(hull) == 4
        assert area(hull) == pytest.approx(1.0, abs=1e-12)

    def test_near_collinear_points_give_negligible_area(self):
        hull = convex_hull([Point2(0, 0), Point2(2, 0), Point2(1, 1e-12)])
        assert area(hull) <= 1e-9

    def test_collinear_points_collapse_to_segment(self):
        hull = convex_hull([Point2(float(i), 0.0) for i in range(5)])
        assert len(hull) == 2
        assert area(hull) == 0.0

    def test_containment_oracle_on_random_disk_cloud(self):
        rng = np.random.default_rng(42)
        radii = np.sqrt(rng.uniform(0, 1, 1000)) * 0.5
        angles = rng.uniform(0, 2 * math.pi, 1000)
        points = [Point2(r * math.cos(a), r * math.sin(a)) for r, a in zip(radii, angles)]
        hull = convex_hull(points)
        for p in points:
            assert contains_point(hull, p, tol=1e-9)
        assert set(hull.vertices) <= {(p.x, p.y) for p in points}
        assert area(hull) <= math.pi * 0.25 + 1e-9

    def test_idempotence(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            points = [Point2(x, y) for x, y in rng.uniform(-1, 1, (30, 2))]
            hull = convex_hull(points)
            again = convex_hull(hull.vertices)
            assert again.vertices == hull.vertices

    def test_a_cloud_flat_to_rounding_gives_the_segment_between_its_ends(self):
        # At 1e8 the cross products of these points on one line are rounding
        # noise, and the point at t = -86.75 went on both chains: a polygon
        # with a repeated vertex, which raised.
        points = _scaled(_FLAT_TO_ROUNDING, 1e8)
        hull = convex_hull(points)
        assert hull.vertices == (tuple(points[-1]), tuple(points[-3]))  # t = -92, then t = 80.8
        assert area(hull) == 0.0
        assert repr(hull.vertices) == repr(reference_convex_hull(points.tolist()).vertices)

    def test_close_points_do_not_hide_a_far_corner(self):
        # (0, 0) and (3.7e-107, 0) are nearly one point; the corner at
        # (1.4e-107, -1) between them in x order is a real one.
        points = [Point2(0.0, 0.0), Point2(1.4e-107, -1.0), Point2(3.7e-107, 0.0), Point2(0.5, 0.0)]
        assert area(convex_hull(points)) == pytest.approx(0.25, rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(CLOUDS)
    def test_hull_of_hull_vertices_is_the_hull(self, points):
        hull = convex_hull(points)
        assert convex_hull(hull.vertices) == hull

    @settings(max_examples=150, deadline=None)
    @given(LARGE_CLOUDS)
    @example([(float(i), 2.0 * i + 1.0) for i in range(50)])  # collinear
    @example([(x, 0.1 * x) for x in np.linspace(-3.0, 7.0, 60).tolist()])  # collinear up to rounding
    @example([(1.5, -2.0)] * 50)  # all points equal
    @example([(float(i), float(j)) for i in range(7) for j in range(7)])  # ties in every direction
    @example([(float(i + j), float(i - j)) for i in range(7) for j in range(7)])  # diagonal ties
    @example(  # the first of -0.0 and 0.0 seen is the vertex
        [(-0.0, -0.0)] + [(float(i), float(j)) for i in range(1, 7) for j in range(7)]
        + [(0.0, 0.0), (0.0, -0.0), (-0.0, 0.0), (-0.0, 3.0), (0.0, 6.0), (-0.0, 6.0)]
    )
    @example([(0.0, 0.0), (-0.0, 6.0)] + [(float(i), float(j)) for i in range(7) for j in range(7)])
    @example(_OCTAGON + _ON_EDGES + _JUST_INSIDE + _RNG.uniform(-2.0, 2.0, (40, 2)).tolist())
    @example(_offset(_RNG.uniform(-1.0, 1.0, (200, 2)).tolist(), 1e8))
    @example(_offset(_RNG.uniform(-1e-3, 1e-3, (200, 2)).tolist(), -3e7))
    def test_array_hull_equals_reference_vertex_for_vertex(self, points):
        # repr tells -0.0 from 0.0, which == does not.
        expected = reference_convex_hull(points)
        assert repr(convex_hull(np.array(points)).vertices) == repr(expected.vertices)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
            min_size=PREFILTER_MIN_POINTS + 1,
            max_size=80,
        ),
        st.sampled_from([1e150, 1e200, 1e300, 1.7e308]),
    )
    def test_huge_coordinates_match_the_reference(self, cloud, scale):
        # Sums and products overflow near the float limit; the prefilter must
        # neither warn (warnings fail the suite) nor drop a vertex.
        points = [(x * scale, y * scale) for x, y in cloud]
        assert repr(convex_hull(points).vertices) == repr(reference_convex_hull(points).vertices)

    def test_prefilter_drops_interior_points_and_keeps_every_vertex(self):
        cloud = np.random.default_rng(8).uniform(-1.0, 1.0, (2000, 2))
        survivors, (kept,) = _drop_interior(cloud, [len(cloud)])
        assert kept == len(survivors)
        assert len(survivors) < len(cloud) // 4
        assert set(reference_convex_hull(cloud.tolist()).vertices) <= set(map(tuple, survivors.tolist()))

    def test_prefilter_temporaries_on_one_large_cloud_are_bounded(self):
        # As many points as the labelunc benchmark's seed-7 document, in one
        # cloud. The cross products, two (8, n) float64 arrays, take 21.3 MB;
        # the bound was set from that count before the first run.
        cloud = np.random.default_rng(0).uniform(-1.0, 1.0, (166_715, 2))
        tracemalloc.start()
        try:
            survivors, (kept,) = _drop_interior(cloud, [len(cloud)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kept == len(survivors)
        assert survivors.tobytes() == reference_drop_interior(cloud).tobytes()
        assert peak < 26e6, f"{peak / 1e6:.1f} MB"

    @settings(max_examples=200, deadline=None)
    @given(st.lists(PREFILTER_CLOUDS, max_size=6), st.sampled_from([1.0, 1e300, -1.7e308]))
    @example([[(1.5, -2.0)] * 50, [], _OCTAGON + _ON_EDGES + _JUST_INSIDE], 1.0)
    @example([[(float(i), float(j)) for i in range(7) for j in range(7)]] * 3, -1.7e308)
    @example([[(-0.0, -0.0)] * 41, []], 1.0)
    def test_segmented_prefilter_keeps_the_rows_of_the_per_cloud_reference(self, clouds, scale):
        # Coordinates up to about 1e302, or up to 1.7e308 in size, where x + y and
        # x - y overflow.
        arrays = [np.array(cloud, dtype=float).reshape(-1, 2) for cloud in clouds]
        if abs(scale) > 1e300:
            scale /= max([1.0] + [np.abs(a).max() for a in arrays if a.size])
        arrays = [a * scale for a in arrays]
        survivors, kept = _drop_interior(np.concatenate([np.empty((0, 2))] + arrays), [len(a) for a in arrays])
        expected = [reference_drop_interior(a) for a in arrays]
        assert kept.tolist() == [len(e) for e in expected]
        assert survivors.tobytes() == np.concatenate([np.empty((0, 2))] + expected).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(PREFILTER_CLOUDS, st.sampled_from([1.0, 1e8, 1e300, -1.7e308]))
    @example(_FLAT_TO_ROUNDING, 1e8)
    @example(_OCTAGON + _ON_EDGES + _JUST_INSIDE, 1.0)
    @example([(-0.0, -0.0)] + [(float(i), float(j)) for i in range(7) for j in range(7)] + [(0.0, 0.0)], 1.0)
    @example([(float(i), 2.0 * i + 1.0) for i in range(50)], -1.7e308)
    def test_chain_on_prefiltered_rows_is_the_hull(self, cloud, scale):
        # The gate only copies finite float64 rows and a second prefilter pass
        # drops nothing, so the chain alone on the survivors is convex_hull.
        arr = _scaled(cloud, scale)
        survivors, (kept,) = _drop_interior(arr, [len(arr)])
        assert kept == len(survivors)
        assert _drop_interior(survivors, [kept])[0].tobytes() == survivors.tobytes()
        # repr tells -0.0 from 0.0, which == does not.
        assert repr(_chain_hull(survivors).vertices) == repr(convex_hull(arr).vertices)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(PREFILTER_CLOUDS, st.sampled_from([1.0, 1e8, 1e300, -1.7e308])), max_size=6))
    @example([(_OCTAGON + _ON_EDGES + _JUST_INSIDE, 1.0), ([(1.5, -2.0)] * 50, 1e8), ([], 1.0)])
    @example([([(float(i), float(j)) for i in range(7) for j in range(7)], -1.7e308), ([(-0.0, 0.0)] * 41, 1.0)])
    def test_chain_on_each_segmented_survivor_cloud_is_its_hull(self, clouds):
        # label_uncertainty hands each cloud that survives a run's segmented
        # pass straight to the chain: each must give its own raw cloud's hull.
        arrays = [_scaled(cloud, scale) for cloud, scale in clouds]
        survivors, kept = _drop_interior(np.concatenate([np.empty((0, 2))] + arrays), [len(a) for a in arrays])
        for raw, cloud in zip(arrays, np.split(survivors, np.cumsum(kept)[:-1])):
            assert _drop_interior(cloud, [len(cloud)])[0].tobytes() == cloud.tobytes()
            assert repr(_chain_hull(cloud).vertices) == repr(convex_hull(raw).vertices)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(CLOUDS, LARGE_CLOUDS, st.builds(
        lambda cloud, scale: [(x * scale, y * scale) for x, y in cloud],
        st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), max_size=60),
        st.sampled_from([1e-150, 1e-7, 1e150, 1e300]),
    )))
    @example([(x, 0.1 * x) for x in np.linspace(-3.0, 7.0, 60).tolist()])  # collinear up to rounding
    @example([(0.0, 0.0), (1.0, 1e-12), (2.0, 0.0), (1.0, 1.0)])  # a corner turning by about COLLINEAR_EPS
    @example([(0.0, 0.0), (1e300, 0.0), (-1e300, -1e300)])  # cross products overflow
    def test_hull_is_a_fixed_point(self, points):
        # intersect_convex returns an unclipped canonical hull as it is, on the
        # strength of this; a polygon on the hull's vertices finds itself canonical.
        hull = convex_hull(points)
        assert repr(convex_hull(hull.vertices).vertices) == repr(hull.vertices)
        assert len(hull) < 3 or ConvexPolygon(hull.vertices)._canonical

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_array_input_with_non_finite_coordinates_rejected(self, bad):
        cloud = np.random.default_rng(9).uniform(-1.0, 1.0, (PREFILTER_MIN_POINTS + 10, 2))
        cloud[7, 1] = bad
        with pytest.raises(ValueError, match="point coordinates must be finite"):
            convex_hull(cloud)

    @pytest.mark.parametrize("shape", [(5,), (5, 3), (2, 5, 2)])
    def test_array_input_must_hold_pairs(self, shape):
        with pytest.raises(ValueError, match="shape"):
            convex_hull(np.zeros(shape))

    @pytest.mark.parametrize(
        "points",
        [
            [(0, 0, 9), (1, 0, 9), (0, 1, 9)],
            [(0,), (1,)],
            [(0.0, 0.0), (1.0,), (0.0, 1.0)],
            [(0.0, 0.0), (1.0, 0.0, 2.0)],
            (p for p in [(0, 0, 9), (1, 0, 9)]),
        ],
    )
    def test_rows_must_be_pairs(self, points):
        with pytest.raises(ValueError, match=r"^points must be \(x, y\) pairs"):
            convex_hull(points)

    def test_no_points_give_the_empty_polygon(self):
        for points in ([], (), np.empty((0, 2)), np.empty(0), iter([])):
            assert convex_hull(points) == ConvexPolygon(())


class TestRectToPolygon:
    def test_axis_aligned_corners(self):
        poly = rect_to_polygon(OrientedRect(Point2(0, 0), 0.0, 2.0, 1.0))
        assert poly.vertices == (
            Point2(1.0, 0.5),
            Point2(-1.0, 0.5),
            Point2(-1.0, -0.5),
            Point2(1.0, -0.5),
        )

    def test_quarter_rotated_corner_set(self):
        poly = rect_to_polygon(OrientedRect(Point2(0, 0), math.pi / 2, 2.0, 1.0))
        got = {(round(p.x, 9), round(p.y, 9)) for p in poly.vertices}
        assert got == {(-0.5, 1.0), (-0.5, -1.0), (0.5, -1.0), (0.5, 1.0)}

    def test_area_identity_on_random_rects(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            rect = OrientedRect(
                Point2(*rng.uniform(-5, 5, 2)),
                rng.uniform(-math.pi, math.pi),
                rng.uniform(0.1, 6.0),
                rng.uniform(0.1, 6.0),
            )
            assert area(rect_to_polygon(rect)) == pytest.approx(
                rect.length * rect.width, rel=1e-12
            )

    def test_rejects_degenerate_rect(self):
        with pytest.raises(ValueError):
            OrientedRect(Point2(0, 0), 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            OrientedRect(Point2(0, 0), 0.0, 1.0, -2.0)

    @pytest.mark.parametrize("side", [1e155, 1e-200])
    def test_rejects_an_area_beyond_the_float_range(self, side):
        # 1e155 squared overflows to inf and 1e-200 squared underflows to 0: the
        # first gave an infinite area and iou(p, p) == 0, the second a polygon
        # check that failed with no word of the rectangle.
        with pytest.raises(ValueError) as err:
            OrientedRect(Point2(0, 0), 0.0, side, side)
        assert str(err.value) == (
            f"length * width must be > 0 and at most {geometry.MAX_RECT_AREA:.6g}, got {side} * {side}"
        )

    def test_the_largest_area_keeps_its_area_and_iou(self):
        width = geometry.MAX_RECT_AREA / 1e154
        rect = OrientedRect(Point2(0, 0), 0.3, 1e154, width)
        poly = rect_to_polygon(rect)
        assert area(poly) == pytest.approx(geometry.MAX_RECT_AREA, rel=1e-12)
        assert iou(poly, poly) == 1.0
        with pytest.raises(ValueError, match=r"^length \* width must be > 0 and at most"):
            OrientedRect(Point2(0, 0), 0.3, 1e154, width * (1 + 1e-9))

    def test_float32_sizes_give_float64_corners(self):
        # A float32 size is the float64 it stands for: the corners are computed
        # in float64, not in float32 as they were when the size was kept as given.
        rect = OrientedRect(Point2(0, 0), 0.3, np.float32(4.1), np.float32(2.0))
        assert type(rect.length) is float and type(rect.width) is float
        assert rect.length == 4.099999904632568
        poly = rect_to_polygon(rect)
        assert poly.vertices[0] == (1.662919550492159, 1.5611528986898504)
        assert all(type(v) is float for corner in poly.vertices for v in corner)
        assert poly == rect_to_polygon(OrientedRect(Point2(0, 0), 0.3, 4.099999904632568, 2.0))

    def test_theta_normalized(self):
        rect = OrientedRect(Point2(0, 0), 3 * math.pi, 1.0, 1.0)
        assert -math.pi < rect.theta <= math.pi
        assert rect.theta == pytest.approx(math.pi)


class TestIntersectConvex:
    def test_self_intersection(self):
        sq = square()
        inter = intersect_convex(sq, sq)
        assert area(inter) == pytest.approx(1.0, abs=1e-12)

    def test_half_overlap(self):
        inter = intersect_convex(square(), square(x0=0.5))
        assert area(inter) == pytest.approx(0.5, abs=1e-12)

    def test_degenerate_input_gives_empty(self):
        assert intersect_convex(ConvexPolygon(()), square()).vertices == ()
        seg = ConvexPolygon((Point2(0, 0), Point2(1, 0)))
        assert intersect_convex(seg, square()).vertices == ()

    def test_against_monte_carlo_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            va = random_convex_polygon(rng)
            vb = random_convex_polygon(rng)
            a = ConvexPolygon(tuple(Point2(*p) for p in va))
            b = ConvexPolygon(tuple(Point2(*p) for p in vb))
            estimate, se = monte_carlo_intersection_area(va, vb, 200_000, rng)
            assert area(intersect_convex(a, b)) == pytest.approx(estimate, abs=max(4 * se, 1e-9))

    def test_symmetry_and_bound(self):
        rng = np.random.default_rng(78)
        for _ in range(50):
            a = ConvexPolygon(tuple(Point2(*p) for p in random_convex_polygon(rng)))
            b = ConvexPolygon(tuple(Point2(*p) for p in random_convex_polygon(rng)))
            ab = area(intersect_convex(a, b))
            ba = area(intersect_convex(b, a))
            assert ab == pytest.approx(ba, abs=1e-9)
            assert ab <= min(area(a), area(b)) + 1e-9

    @settings(max_examples=300, deadline=None)
    @given(CLOUDS, CLOUDS)
    @example(  # clipping either way round would keep a different CLIP_EPS sliver
        [Point2(0.0, 0.0), Point2(0.0, 0.5), Point2(1.0, 0.0)],
        [Point2(1.0, 0.0), Point2(79.0, 0.0078125), Point2(1e-05, 0.0)],
    )
    @example(  # a clipped corner 4e-20 from the next turns sharply but has a cross product of 0
        [Point2(0.0, 0.0), Point2(0.5, 0.0), Point2(-2.0, -2.0)],
        [Point2(0.0001, 0.0), Point2(-1.0, -1.0), Point2(-2.0, -1.0)],
    )
    def test_exactly_symmetric_for_arbitrary_hulls(self, points_a, points_b):
        a, b = convex_hull(points_a), convex_hull(points_b)
        assert intersect_convex(a, b).vertices == intersect_convex(b, a).vertices

    @settings(max_examples=300, deadline=None)
    @given(POLYGONS, POLYGONS)
    @example(square(), square(x0=0.5))
    @example(square(), square(x0=5.0))
    @example(square(x0=0.25, side=0.5), square())
    @example(  # a subnormal x, halved at the pair's scale, loses its last bit
        rect_to_polygon(OrientedRect(Point2(0, 0), 0, 1, 1)),
        convex_hull([(0, 0), (1, 0), (2.225073858507e-311, 1)]),
    )
    def test_equals_the_clip_that_always_re_hulls(self, a, b):
        for p, q in ((a, b), (b, a)):
            assert repr(intersect_convex(p, q).vertices) == repr(reference_intersect_convex(p, q).vertices)

    @settings(max_examples=200, deadline=None)
    @given(CONTAINED_PAIRS)
    @example((convex_hull([(0.5, 0.2), (-0.5, 0.2), (0.0, -0.3)]),
              rect_to_polygon(OrientedRect(Point2(0.0, 0.0), 0.0, 4.0, 2.0))))
    def test_a_hull_inside_a_box_is_its_own_intersection(self, pair):
        hull, box = pair
        assert repr(intersect_convex(hull, box).vertices) == repr(reference_intersect_convex(hull, box).vertices)
        if len(hull) >= 3 and hull.vertices < box.vertices and all(
            contains_point(box, p, tol=0.0) for p in hull.vertices
        ):
            assert intersect_convex(box, hull) is hull


class TestArea:
    def test_unit_square(self):
        assert area(square()) == 1.0

    def test_triangle(self):
        tri = ConvexPolygon((Point2(0, 0), Point2(1, 0), Point2(0, 1)))
        assert area(tri) == pytest.approx(0.5, abs=1e-15)

    def test_regular_hexagon(self):
        hexagon = ConvexPolygon(
            tuple(Point2(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)) for k in range(6))
        )
        assert area(hexagon) == pytest.approx(3.0 * math.sqrt(3.0) / 2.0, abs=1e-12)

    def test_degenerate_polygons_have_zero_area(self):
        assert area(ConvexPolygon(())) == 0.0
        assert area(ConvexPolygon((Point2(1, 2),))) == 0.0
        assert area(ConvexPolygon((Point2(0, 0), Point2(1, 1)))) == 0.0


class TestIou:
    def test_identical_squares(self):
        assert iou(square(), square()) == pytest.approx(1.0, abs=1e-9)

    def test_disjoint_squares(self):
        assert iou(square(), square(x0=5.0)) == 0.0

    def test_half_shifted_squares(self):
        assert iou(square(), square(x0=0.5)) == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_degenerate_pair_maps_to_zero(self):
        a = ConvexPolygon(())
        b = ConvexPolygon((Point2(0, 0), Point2(1, 0)))
        assert iou(a, b) == 0.0

    def test_bounds_and_symmetry(self):
        rng = np.random.default_rng(79)
        for _ in range(50):
            a = ConvexPolygon(tuple(Point2(*p) for p in random_convex_polygon(rng)))
            b = ConvexPolygon(tuple(Point2(*p) for p in random_convex_polygon(rng)))
            v = iou(a, b)
            assert 0.0 <= v <= 1.0
            assert v == pytest.approx(iou(b, a), abs=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(CLOUDS, CLOUDS)
    @example(
        [Point2(0.0, 0.0), Point2(0.0, -1.0), Point2(1.0, 0.0)],
        [Point2(1.0, 1.0), Point2(3.7e-107, 5e-40), Point2(1.4e-107, -1.0)],
    )
    @example(  # clipping either way round keeps a different CLIP_EPS sliver
        [Point2(0.0, 0.0), Point2(0.0, 0.5), Point2(1.0, 0.0)],
        [Point2(1.0, 0.0), Point2(79.0, 0.0078125), Point2(1e-05, 0.0)],
    )
    def test_symmetric_for_arbitrary_hulls(self, points_a, points_b):
        a, b = convex_hull(points_a), convex_hull(points_b)
        assert abs(iou(a, b) - iou(b, a)) <= IOU_SYMMETRY_TOL

    @settings(max_examples=200, deadline=None)
    @given(
        FAT_HULL,
        FAT_HULL,
        st.floats(-math.pi, math.pi),
        st.floats(-1e8, 1e8),
        st.floats(-1e8, 1e8),
    )
    @example(square(), square(x0=0.5), 0.7, 1e8, -1e8)
    def test_invariant_under_a_common_rigid_motion(self, a, b, phi, tx, ty):
        motion = ((Point2(0.0, 0.0), 0.0), (Point2(tx, ty), phi))
        a2 = convex_hull(rigid_transform(p, *motion) for p in a.vertices)
        b2 = convex_hull(rigid_transform(p, *motion) for p in b.vertices)
        assert iou(a2, b2) == pytest.approx(iou(a, b), abs=RIGID_MOTION_IOU_TOL)

    def test_rigid_transform_invariance(self):
        rng = np.random.default_rng(80)
        for _ in range(25):
            a_pts = random_convex_polygon(rng)
            b_pts = random_convex_polygon(rng)
            a = ConvexPolygon(tuple(Point2(*p) for p in a_pts))
            b = ConvexPolygon(tuple(Point2(*p) for p in b_pts))
            pose_from = (Point2(0.0, 0.0), 0.0)
            pose_to = (Point2(*rng.uniform(-10, 10, 2)), rng.uniform(-math.pi, math.pi))
            a2 = ConvexPolygon(tuple(rigid_transform(p, pose_from, pose_to) for p in a.vertices))
            b2 = ConvexPolygon(tuple(rigid_transform(p, pose_from, pose_to) for p in b.vertices))
            assert iou(a2, b2) == pytest.approx(iou(a, b), abs=1e-9)


# Box widths from 1e-100 to 1e100, even in their exponent, and box centres in units of the width.
SCALES = st.floats(-100.0, 100.0).map(lambda e: 10.0 ** e)
CENTRE_UNITS = st.floats(-1e3, 1e3)
# Rectangle sides with areas from 1e-300 to 1e300 and aspect ratios up to 1e300, either way round.
SIDES = st.builds(lambda area_exp, aspect_exp: (10.0 ** ((area_exp + aspect_exp) / 2),
                                                10.0 ** ((area_exp - aspect_exp) / 2)),
                  st.floats(-300.0, 300.0), st.floats(-300.0, 300.0))


def _box(s, theta, u, v, shift=0.0):
    # A 2s x s rectangle at heading theta, centred at s * (u, v) and moved shift * s along its length.
    return rect_to_polygon(OrientedRect(
        Point2(s * (u + shift * math.cos(theta)), s * (v + shift * math.sin(theta))), theta, 2.0 * s, s))


class TestScale:
    """The hull's and the clip's tolerances are not absolute: a box's IoU depends on neither its size nor its shape."""

    @settings(max_examples=300, deadline=None)
    @given(SCALES, st.floats(-math.pi, math.pi), CENTRE_UNITS, CENTRE_UNITS)
    @example(1e-6, 0.0, 0.0, 0.0)  # the corners of a box this small were collinear
    @example(1e-100, 0.3, -1e3, 1e3)
    @example(1e100, -2.0, 1e3, 0.0)
    def test_box_iou_does_not_depend_on_its_size(self, s, theta, u, v):
        box = _box(s, theta, u, v)
        assert iou(box, box) == pytest.approx(1.0, abs=1e-12)
        assert iou(box, _box(s, theta, u, v, shift=1.0)) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_a_tiny_square_keeps_its_corners(self):
        corners = (Point2(0.0, 0.0), Point2(1e-6, 0.0), Point2(1e-6, 1e-6), Point2(0.0, 1e-6))
        assert convex_hull(corners).vertices == corners

    @settings(max_examples=300, deadline=None)
    @given(SCALES, st.floats(0.0, 12.0), st.floats(-math.pi, math.pi), CENTRE_UNITS, CENTRE_UNITS)
    def test_a_flat_box_keeps_its_corners(self, s, aspect_exp, theta, u, v):
        # The area about another first vertex rounds by about 1e-16 of the box's
        # long side and offset over its short side.
        aspect = 10.0 ** aspect_exp
        poly = rect_to_polygon(OrientedRect(Point2(s * u, s * v), theta, aspect * s, s))
        assert len(poly) == 4
        assert iou(poly, poly) == pytest.approx(1.0, abs=1e-14 * (abs(u) + abs(v) + aspect))

    def test_a_1e14_by_1_box_keeps_its_corners(self):
        # Its corners are right angles, however far its sides' ratio is below COLLINEAR_EPS.
        poly = rect_to_polygon(OrientedRect(Point2(0.0, 0.0), 0.0, 1e14, 1.0))
        assert iou(poly, poly) == 1.0

    @settings(max_examples=300, deadline=None)
    @given(
        SCALES,
        st.floats(0.0, 12.0),
        st.one_of(st.just(0.0), st.floats(-math.pi, math.pi)),
        st.floats(-1.5, 1.5),
        st.one_of(st.floats(-3.0, 3.0), st.builds(lambda side, gap: side * (1.0 + gap),
                                                  st.sampled_from([-1.0, 1.0]), st.floats(-1e-3, 1e-3))),
    )
    @example(1.0, 10.0, 0.0, 0.0, 2.0)  # disjoint by a gap far below the span of either box
    @example(1.0, 8.0, 0.0, 0.0, 0.05)
    def test_long_boxes_have_their_exact_iou(self, s, aspect_exp, theta, along, across):
        # Two parallel aspect x 1 boxes, the second moved by along lengths and across
        # widths: their IoU is the product of the overlaps' shares, whatever the aspect.
        # A vertex within CLIP_EPS of the breadth of a clip line counts as inside, and
        # rounding at the corners moves an edge by about 1e-16 of the long side.
        aspect = 10.0 ** aspect_exp
        length, c, sn = aspect * s, math.cos(theta), math.sin(theta)
        a = rect_to_polygon(OrientedRect(Point2(0.0, 0.0), theta, length, s))
        centre = Point2(c * along * length - sn * across * s, sn * along * length + c * across * s)
        b = rect_to_polygon(OrientedRect(centre, theta, length, s))
        shared = max(0.0, 1.0 - abs(along)) * max(0.0, 1.0 - abs(across))
        assert iou(a, b) == pytest.approx(shared / (2.0 - shared), abs=1e-8 + 1e-14 * aspect)

    def test_corners_beyond_the_float_range_apart_are_kept(self):
        # The extent of these corners overflows, so no tolerance can be measured against it.
        corners = (Point2(-1e308, 0.0), Point2(1e308, -1.0), Point2(0.0, 1e308))
        hull = convex_hull(corners)
        assert hull.vertices == corners
        assert 0.0 < hull._breadth < math.inf

    @settings(max_examples=300, deadline=None)
    @given(st.floats(100.0, 158.0), st.floats(0.0, 6.0), st.booleans(), st.floats(-math.pi, math.pi),
           st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))
    @example(154.4, 6.0, False, -2.408, 369.6, 884.4)
    def test_a_rectangle_too_long_for_its_products_keeps_its_area_and_iou(
            self, long_exp, aspect_exp, upright, theta, cx, cy):
        # Past a long side of about 1.3e154 the products of corner differences overflow.
        long, short = 10.0 ** long_exp, 10.0 ** (long_exp - aspect_exp)
        assume(long * short <= geometry.MAX_RECT_AREA)
        poly = rect_to_polygon(OrientedRect(Point2(cx, cy), theta, *((short, long) if upright else (long, short))))
        assert len(poly) == 4
        assert 0.0 < area(poly) < math.inf
        assert iou(poly, poly) == 1.0

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-300.0, 150.0), st.floats(-math.pi, math.pi), CENTRE_UNITS, CENTRE_UNITS)
    @example(-200.0, 0.0, 0.0, 0.0)  # its cross products underflowed: refused
    @example(-170.0, 0.3, 0.0, 0.0)  # refused, with a cross product of 0.0 at vertex 0
    @example(-140.0, 0.914, 1.0, 0.0)  # IoU 0.9999999999999998: its hull's area, about another vertex, rounded lower
    @example(150.0, 0.3, 0.0, 0.0)  # its products of corner differences overflow
    def test_a_square_of_any_size_is_a_polygon_whose_iou_with_itself_is_1(self, side_exp, theta, u, v):
        # A square of side 10**side_exp at heading theta, centred at (u, v) sides.
        side, c, s = 10.0 ** side_exp, math.cos(theta), math.sin(theta)
        poly = ConvexPolygon([(side * (u + c * a - s * b), side * (v + s * a + c * b))
                              for a, b in ((0.5, 0.5), (-0.5, 0.5), (-0.5, -0.5), (0.5, -0.5))])
        assert iou(poly, poly) == 1.0

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-math.pi, math.pi),
           st.builds(lambda long_exp, aspect_exp: (10.0 ** long_exp, 10.0 ** (long_exp - aspect_exp)),
                     st.floats(150.0, 300.0), st.floats(0.0, 6.0)),
           st.booleans())
    @example(2.603185307179586, (8.02e154, 2.51e149), False)  # hulled to a 2-vertex segment
    @example(2.603185307179586, (8.02e154, 2.51e149), True)
    def test_a_long_rectangle_hulls_to_its_corners(self, theta, sides, with_centre):
        # A rectangle with a long side from 1e150 to 1e300 and an aspect ratio of at most
        # 1e6, its corners computed as rect_to_polygon computes them. Past a long side of
        # about 1.3e157 its area passes MAX_RECT_AREA and OrientedRect refuses it, but the
        # hull of its corners is still those corners.
        c, s = math.cos(theta), math.sin(theta)
        hl, hw = 0.5 * sides[0], 0.5 * sides[1]
        corners = [(c * u - s * v, s * u + c * v) for u, v in ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw))]
        hull = convex_hull(corners + [(0.0, 0.0)] * with_centre)
        assert len(hull) == 4
        assert set(hull.vertices) == set(corners)

    def test_a_polygon_lost_at_its_partners_scale_meets_it_in_nothing(self):
        # At the 1e300 square's scale every corner of the 1e-300 triangle rounds to 0, so
        # its clip edges vanish; the pair has no measurable intersection.
        big = square(-1e300, -1e300, 2e300)
        tiny = ConvexPolygon(((0.0, 0.0), (1e-300, 0.0), (0.0, 1e-300)))
        assert intersect_convex(big, tiny) == ConvexPolygon(())
        assert iou(big, tiny) == 0.0

    @settings(max_examples=300, deadline=None)
    @given(SCALES, st.floats(-math.pi, math.pi), CENTRE_UNITS, CENTRE_UNITS)
    @example(1e-12, 0.0, 0.0, 0.0)  # a point 1e-10 outside was inside by an absolute 1e-9
    def test_a_square_holds_its_corners_and_no_point_a_hundredth_of_a_side_outside(self, s, theta, u, v):
        square = rect_to_polygon(OrientedRect(Point2(s * u, s * v), theta, s, s))
        corners = square.vertices
        assert all(contains_point(square, p) for p in corners)
        for a, b in zip(corners, corners[1:] + corners[:1]):
            # The outward normal of a counter-clockwise edge is its direction turned clockwise.
            nx, ny = (b.y - a.y) / s, (a.x - b.x) / s
            assert not contains_point(square, Point2(0.5 * (a.x + b.x) + 0.01 * s * nx,
                                                     0.5 * (a.y + b.y) + 0.01 * s * ny))

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-300.0, 0.0), st.floats(-math.pi, math.pi), CENTRE_UNITS, CENTRE_UNITS)
    @example(-201.0, 0.0, 10.0, 10.0)  # tested unscaled, every edge's cross product with it underflowed
    @example(-300.0, 0.3, 0.0, 0.0)
    def test_a_square_of_any_size_holds_the_origin_only_if_it_covers_it(self, side_exp, theta, u, v):
        # The origin is a point of no magnitude: the test runs at the square's scale.
        side, c, s = 10.0 ** side_exp, math.cos(theta), math.sin(theta)
        poly = ConvexPolygon([(side * (u + c * a - s * b), side * (v + s * a + c * b))
                              for a, b in ((0.5, 0.5), (-0.5, 0.5), (-0.5, -0.5), (0.5, -0.5))])
        # The origin in the square's own frame, in sides.
        reach = max(abs(c * u + s * v), abs(s * u - c * v))
        assume(abs(reach - 0.5) > 1e-6)
        assert contains_point(poly, Point2(0.0, 0.0)) == (reach < 0.5)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-math.pi, math.pi), st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), SIDES)
    @example(0.3, 0.0, 0.0, (1e-300, 1e-23))  # its rounded corners repeat
    @example(0.0, 0.0, 0.0, (5e-324, 1.0))  # half its length rounds to 0
    def test_every_valid_rectangle_has_a_polygon(self, theta, cx, cy, sides):
        # Corners that rounding makes no strictly convex polygon give their hull,
        # a degenerate polygon when the short side is lost against the long one.
        rect = OrientedRect(Point2(cx, cy), theta, *sides)
        c, s = math.cos(rect.theta), math.sin(rect.theta)
        hl, hw = 0.5 * rect.length, 0.5 * rect.width
        corners = tuple(Point2(cx + c * u - s * v, cy + s * u + c * v)
                        for u, v in ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw)))
        poly = rect_to_polygon(rect)
        assert poly.vertices == corners or poly == convex_hull(corners)


class TestPolygonValidation:
    def test_clockwise_rejected(self):
        with pytest.raises(ValueError):
            ConvexPolygon((Point2(0, 0), Point2(0, 1), Point2(1, 1), Point2(1, 0)))

    def test_repeated_vertex_rejected(self):
        with pytest.raises(ValueError):
            ConvexPolygon((Point2(0, 0), Point2(1, 0), Point2(1, 0), Point2(0, 1)))

    def test_collinear_triple_rejected(self):
        with pytest.raises(ValueError):
            ConvexPolygon((Point2(0, 0), Point2(1, 0), Point2(2, 0), Point2(1, 1)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            ConvexPolygon((Point2(0, 0), Point2(1, 0), Point2(1, float("nan"))))


# Point sets the gate rejects, with the message each gives. The bad value sits
# in the first point, which is what contains_point is handed.
_NUMBERS = "^point coordinates must be numbers$"
_PAIRS = r"^points must be \(x, y\) pairs$"
GATE_CASES = {
    "strings": ([("0", "1"), (1, 0), (0, 1)], _NUMBERS),
    "bytes": ([(b"0", b"1"), (1, 0), (0, 1)], _NUMBERS),
    "True": ([(True, 0), (1, 0), (0, 1)], _NUMBERS),
    "np.True_": ([(np.True_, 0), (1, 0), (0, 1)], _NUMBERS),
    "object array holding a bool": (np.array([[0.5, True], [1, 0], [0, 1]], dtype=object), _NUMBERS),
    "None coordinate": ([(None, 0), (1, 0), (0, 1)], _NUMBERS),
    "None": (None, _PAIRS),
    "complex": ([(1j, 0), (1, 0), (0, 1)], _NUMBERS),
    "3-column rows": ([(0, 0, 0), (1, 0, 0), (0, 1, 0)], _PAIRS),
    "10**400": ([(10**400, 0), (1, 0), (0, 1)], "^point coordinates must be numbers within the float range$"),
    "NaN": ([(math.nan, 0), (1, 0), (0, 1)], r"^point coordinates must be finite, got \[nan, 0.0\] at point 0$"),
    # The finiteness pass stops at the NaN, so the cast meets the integer.
    "NaN, then 10**400": ([(math.nan, 10**400), (1, 0), (0, 1)],
                          "^point coordinates must be numbers within the float range$"),
    # Rows that would extend by their items: bytes as small integers, a dict by its keys.
    "bytes row": ([b"01", (1, 0), (0, 1)], _PAIRS),
    "str row": (["01", (1, 0), (0, 1)], _PAIRS),
    "dict row": ([{3: 0, 4: 0}, (1, 0), (0, 1)], _PAIRS),
    "set row": ([{1, 2}, (1, 0), (0, 1)], _PAIRS),
}
_TRIANGLE = ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
ENTRY_POINTS = {
    "convex_hull": convex_hull,
    "ConvexPolygon": ConvexPolygon,
    "contains_point": lambda pts: contains_point(_TRIANGLE, pts if pts is None else pts[0]),
    "LabelTrack": lambda pts: LabelTrack("t", "car", {0: OrientedRect(Point2(0, 0), 0.0, 1.0, 1.0)}, {0: pts}),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("case", GATE_CASES)
def test_every_entry_point_rejects_through_the_one_gate(entry, case):
    points, message = GATE_CASES[case]
    with pytest.raises(ValueError, match=message):
        ENTRY_POINTS[entry](points)


@pytest.mark.skipif(np.finfo(np.longdouble).max <= np.finfo(float).max, reason="long double is float64 here")
@pytest.mark.parametrize("entry", [_xy_array, convex_hull], ids=["_xy_array", "convex_hull"])
@pytest.mark.parametrize("form", [np.array, list], ids=["array", "rows"])
def test_long_double_beyond_the_float_range_is_named_without_a_warning(entry, form):
    big = np.array([[np.longdouble("1e4000"), 0], [1, 0], [0, 1]], dtype=np.longdouble)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^point coordinates must be numbers within the float range$"):
            entry(form(big))
        big[0, 0] = np.inf
        with pytest.raises(ValueError, match=r"^point coordinates must be finite, got \[inf, 0.0\] at point 0$"):
            entry(form(big))
