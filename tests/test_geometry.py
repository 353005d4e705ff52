"""Tests for rigid transforms, hulls, clipping, areas, and IoU."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lkld.geometry import (
    ConvexPolygon,
    OrientedRect,
    Point2,
    area,
    contains_point,
    convex_hull,
    intersect_convex,
    iou,
    rect_to_polygon,
    rigid_transform,
)

from oracles import monte_carlo_intersection_area, random_convex_polygon

# Point clouds for property tests: duplicates, collinear runs and clustered
# points all come up; coordinates are bounded so areas stay well scaled.
COORD = st.floats(-100.0, 100.0, allow_nan=False)
CLOUDS = st.lists(st.builds(Point2, COORD, COORD), max_size=30)
# Set before the property was first run and kept; iou now meets it exactly.
IOU_SYMMETRY_TOL = 1e-9
# The tolerance label_iou keeps at offsets up to 1e8.
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
    def test_exactly_symmetric_for_arbitrary_hulls(self, points_a, points_b):
        a, b = convex_hull(points_a), convex_hull(points_b)
        assert intersect_convex(a, b).vertices == intersect_convex(b, a).vertices


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
