"""2D geometry for oriented box labels in the bird's-eye plane.

Rigid transforms between label frames, convex hulls (monotone chain),
convex polygon intersection (half-plane clipping), shoelace areas, and IoU.
All polygons are counter-clockwise vertex tuples; everything is pure and
thread-safe.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, NamedTuple

__all__ = [
    "Point2",
    "Pose",
    "OrientedRect",
    "ConvexPolygon",
    "rigid_transform",
    "convex_hull",
    "rect_to_polygon",
    "intersect_convex",
    "area",
    "iou",
    "contains_point",
]

# Hull corners whose cross product is at or below this count as collinear and
# are dropped; keeps vertex output strictly convex and deterministic.
COLLINEAR_EPS = 1e-12
# Points within this distance of a clip line count as inside; avoids sliver
# polygons from floating-point jitter.
CLIP_EPS = 1e-9


class Point2(NamedTuple):
    x: float
    y: float


Pose = tuple[Point2, float]  # (center, heading in radians) of a label frame


def _normalize_angle(theta: float) -> float:
    # Wrap into (-pi, pi].
    t = math.remainder(theta, 2.0 * math.pi)
    if t <= -math.pi:
        t += 2.0 * math.pi
    return t


@dataclass(frozen=True)
class OrientedRect:
    """Axis lengths and pose of an oriented rectangle (length along heading)."""

    center: Point2
    theta: float
    length: float
    width: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.center[0]) and math.isfinite(self.center[1])):
            raise ValueError(f"center must be finite, got {self.center}")
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta}")
        if not (self.length > 0.0 and math.isfinite(self.length)):
            raise ValueError(f"length must be > 0, got {self.length}")
        if not (self.width > 0.0 and math.isfinite(self.width)):
            raise ValueError(f"width must be > 0, got {self.width}")
        object.__setattr__(self, "center", Point2(float(self.center[0]), float(self.center[1])))
        object.__setattr__(self, "theta", _normalize_angle(self.theta))

    @property
    def pose(self) -> Pose:
        return (self.center, self.theta)


def _cross(o: Point2, a: Point2, b: Point2) -> float:
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


@dataclass(frozen=True)
class ConvexPolygon:
    """Counter-clockwise convex polygon; 0-2 vertices mean degenerate (area 0)."""

    vertices: tuple[Point2, ...]

    def __post_init__(self) -> None:
        verts = tuple(Point2(float(p[0]), float(p[1])) for p in self.vertices)
        object.__setattr__(self, "vertices", verts)
        for p in verts:
            if not (math.isfinite(p.x) and math.isfinite(p.y)):
                raise ValueError(f"vertex coordinates must be finite, got {p}")
        if len(verts) != len(set(verts)):
            raise ValueError("polygon has repeated vertices")
        n = len(verts)
        if n >= 3:
            for i in range(n):
                c = _cross(verts[i - 1], verts[i], verts[(i + 1) % n])
                if c <= 0.0:
                    raise ValueError(
                        "vertices must be counter-clockwise and strictly convex "
                        f"(cross product {c} at vertex {i})"
                    )

    def __len__(self) -> int:
        return len(self.vertices)


EMPTY_POLYGON = ConvexPolygon(())


def rigid_transform(p: Point2, from_pose: Pose, to_pose: Pose) -> Point2:
    """Carry a point rigidly from one label pose to another.

    Returns ``R_z(theta_to - theta_from) @ (p - c_from) + c_to``.
    """
    (from_center, from_theta) = from_pose
    (to_center, to_theta) = to_pose
    cos_t = math.cos(to_theta - from_theta)
    sin_t = math.sin(to_theta - from_theta)
    dx = p[0] - from_center[0]
    dy = p[1] - from_center[1]
    return Point2(
        cos_t * dx - sin_t * dy + to_center[0],
        sin_t * dx + cos_t * dy + to_center[1],
    )


def convex_hull(points: Iterable[Point2]) -> ConvexPolygon:
    """Minimal CCW convex polygon containing all points (monotone chain).

    Exact duplicates are dropped before the scan; collinear boundary points
    are removed. Fewer than three non-collinear points yield a degenerate
    polygon with area 0. Output starts at the lexicographically smallest
    vertex, which keeps downstream CSV dumps reproducible.
    """
    pts = sorted({(float(p[0]), float(p[1])) for p in points})
    for x, y in pts:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"hull input coordinates must be finite, got ({x}, {y})")
    if len(pts) <= 2:
        return ConvexPolygon(tuple(Point2(*p) for p in pts))

    def build(ordered: list[tuple[float, float]]) -> list[tuple[float, float]]:
        chain: list[tuple[float, float]] = []
        for p in ordered:
            while len(chain) >= 2:
                o, a = chain[-2], chain[-1]
                if (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0]) > 0.0:
                    break
                chain.pop()
            chain.append(p)
        return chain

    lower = build(pts)
    upper = build(pts[::-1])
    # Near-straight corners go only from the finished hull, each losing at most
    # COLLINEAR_EPS / 2: in a partial chain two close points can flatten a far corner.
    # The corner tested is ring[-1]; a lap of corners that all turn more ends the walk.
    ring, kept = deque(Point2(*p) for p in lower[:-1] + upper[:-1]), 0
    while kept < len(ring) and len(ring) >= 3:
        if _cross(ring[-2], ring[-1], ring[0]) <= COLLINEAR_EPS:
            ring.pop()  # ring[-2] has a new neighbour: it is tested next
            kept = 0
        else:
            ring.rotate(-1)
            kept += 1
    ring.rotate(-ring.index(min(ring)))
    return ConvexPolygon(tuple(ring))


def rect_to_polygon(rect: OrientedRect) -> ConvexPolygon:
    """Expand an oriented rectangle into its 4-corner CCW polygon.

    The first vertex is the corner at (+length/2, +width/2) in the rect frame.
    """
    cos_t = math.cos(rect.theta)
    sin_t = math.sin(rect.theta)
    hl = 0.5 * rect.length
    hw = 0.5 * rect.width
    corners = ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw))
    return ConvexPolygon(
        tuple(
            Point2(
                rect.center.x + cos_t * cx - sin_t * cy,
                rect.center.y + sin_t * cx + cos_t * cy,
            )
            for cx, cy in corners
        )
    )


def area(poly: ConvexPolygon) -> float:
    """Shoelace area about the first vertex; 0 for degenerate polygons.

    Taking coordinates relative to a vertex keeps the products as small as
    the polygon: about the global origin, a unit square at 1e8 would sum
    terms of 1e16 and lose every digit of its area.
    """
    v = poly.vertices
    if len(v) < 3:
        return 0.0
    ox, oy = v[0]
    ax, ay = v[1].x - ox, v[1].y - oy
    total = 0.0
    for bx, by in v[2:]:
        bx -= ox
        by -= oy
        total += ax * by - ay * bx
        ax, ay = bx, by
    return 0.5 * total


def contains_point(poly: ConvexPolygon, p: Point2, tol: float = 1e-9) -> bool:
    """True if p lies inside or within tol (distance) of the polygon boundary."""
    v = poly.vertices
    n = len(v)
    if n < 3:
        return False
    px, py = float(p[0]), float(p[1])
    for i in range(n):
        a = v[i]
        b = v[(i + 1) % n]
        edge_len = math.hypot(b.x - a.x, b.y - a.y)
        if (b.x - a.x) * (py - a.y) - (b.y - a.y) * (px - a.x) < -tol * edge_len:
            return False
    return True


def intersect_convex(a: ConvexPolygon, b: ConvexPolygon) -> ConvexPolygon:
    """Intersection of two convex polygons by clipping a against each edge of b.

    Degenerate inputs yield the empty polygon. The clipped vertex set is
    re-canonicalized through convex_hull, which dedupes coincident corners
    and drops collinear jitter. The pair is clipped in a fixed order, so
    ``intersect_convex(a, b) == intersect_convex(b, a)`` exactly.
    """
    if len(a) < 3 or len(b) < 3:
        return EMPTY_POLYGON
    if b.vertices < a.vertices:  # the CLIP_EPS sliver a clip keeps depends on the order
        a, b = b, a

    output: list[tuple[float, float]] = [(p.x, p.y) for p in a.vertices]
    bv = b.vertices
    for i in range(len(bv)):
        if not output:
            return EMPTY_POLYGON
        e1 = bv[i]
        e2 = bv[(i + 1) % len(bv)]
        inv_len = 1.0 / math.hypot(e2.x - e1.x, e2.y - e1.y)
        ex = e2.x - e1.x
        ey = e2.y - e1.y
        # Signed distance of each vertex to the clip line, ccw-inside positive.
        dists = [((ex * (py - e1.y) - ey * (px - e1.x)) * inv_len) for px, py in output]
        clipped: list[tuple[float, float]] = []
        n = len(output)
        for j in range(n):
            p = output[j]
            q = output[(j + 1) % n]
            dp = dists[j]
            dq = dists[(j + 1) % n]
            p_in = dp >= -CLIP_EPS
            q_in = dq >= -CLIP_EPS
            if p_in:
                clipped.append(p)
            if p_in != q_in:
                t = dp / (dp - dq)
                t = min(1.0, max(0.0, t))
                clipped.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
        output = clipped

    if len(output) < 3:
        return EMPTY_POLYGON
    return convex_hull(Point2(*p) for p in output)


def iou(a: ConvexPolygon, b: ConvexPolygon) -> float:
    """Intersection-over-union of two convex polygons; 0 when the union has area 0.

    A degenerate pair maps to 0 rather than NaN: an empty evidence hull
    carries maximal ambiguity, so downstream mappings assign maximal
    uncertainty. ``iou(a, b) == iou(b, a)`` exactly.
    """
    inter = area(intersect_convex(a, b))
    union = area(a) + area(b) - inter
    if union <= 0.0:
        return 0.0
    return min(1.0, max(0.0, inter / union))
