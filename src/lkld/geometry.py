"""2D geometry for oriented box labels in the bird's-eye plane.

Rigid transforms between label frames, convex hulls (monotone chain, with an
Akl-Toussaint prefilter), convex polygon intersection
(half-plane clipping), shoelace areas, and IoU.
All polygons are counter-clockwise vertex tuples; everything is pure and
thread-safe. Point input has one gate, ``_xy_array``, used by ``convex_hull``,
``ConvexPolygon``, ``contains_point`` and ``label_uncertainty.LabelTrack``; it
rejects string, bytes, boolean, ``None``, complex, NaN and infinite
coordinates, rows that are not pairs and integers beyond the float range.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

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
# Hull input arrays longer than this are prefiltered; below it the numpy
# calls cost more than the monotone chain saves.
PREFILTER_MIN_POINTS = 40
# A point is dropped only if each edge's cross product exceeds this times the
# squared span of the cloud: far above rounding (about 1e-16 of the same
# scale), so no point on or near the extreme polygon is ever dropped.
PREFILTER_MARGIN = 1e-9
# Point coordinate types: Python's and numpy's ints and floats, but no bool.
_NUMBER_TYPES = (int, float, np.integer, np.floating)


class Point2(NamedTuple):
    x: float
    y: float


Pose = tuple[Point2, float]  # (center, heading in radians) of a label frame


def _xy_array(points: object) -> np.ndarray:
    """A point set as a new float64 ``(n, 2)`` array: the only conversion of point input.

    An int or float array of shape ``(n, 2)`` or ``(0,)`` is converted whole;
    any other array of that shape, or an iterable of rows (lists, tuples,
    ``Point2`` or 1-D arrays), is concatenated and converted once. ``None``
    (which numpy would read as NaN), string, bytes, boolean and complex
    coordinates raise ``ValueError``, and so do rows that are not pairs,
    integers beyond the float range and NaN and infinite coordinates.
    """
    if isinstance(points, np.ndarray) and points.shape != (0,) and (points.ndim != 2 or points.shape[1] != 2):
        raise ValueError("points must be (x, y) pairs, an array of shape (n, 2)")
    if isinstance(points, np.ndarray) and points.dtype.kind in "iuf":  # other arrays are read as rows
        points = points.astype(float)
        finite = np.isfinite(points).all()
    else:
        flat: list = []
        try:
            rows = list(points)
            any(map(flat.extend, rows))  # extend returns None, so every row is taken
        except TypeError:  # the points, or one of them, are not a sequence
            raise ValueError("points must be (x, y) pairs") from None
        types = set(map(type, flat))  # float and int, the usual ones, need no subclass test
        if not types <= {float, int} and any(t is bool or not issubclass(t, _NUMBER_TYPES) for t in types):
            raise ValueError("point coordinates must be numbers")
        if not set(map(len, rows)) <= {2}:
            raise ValueError("points must be (x, y) pairs")
        try:
            finite = all(map(math.isfinite, flat))
        except OverflowError:  # an integer beyond the float range
            raise ValueError("point coordinates must be numbers within the float range") from None
        points = flat
    arr = np.asarray(points, dtype=float).reshape(-1, 2)
    if not finite:
        k = int(np.flatnonzero(~np.isfinite(arr).all(axis=1))[0])
        raise ValueError(f"point coordinates must be finite, got {arr[k].tolist()} at point {k}")
    return arr


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


def _cross(o: tuple[float, float], a: tuple[float, float], b: tuple[float, float]) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


@dataclass(frozen=True)
class ConvexPolygon:
    """Counter-clockwise convex polygon; 0-2 vertices mean degenerate (area 0)."""

    vertices: tuple[Point2, ...]

    def __post_init__(self) -> None:
        verts = tuple(map(Point2._make, _xy_array(self.vertices).tolist()))
        object.__setattr__(self, "vertices", verts)
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


# Near the float limit sums and products overflow: an infinite margin drops nothing,
# a NaN keeps its point, and an infinite cross product keeps its sign.
@np.errstate(over="ignore", invalid="ignore")
def _drop_interior(pts: np.ndarray) -> np.ndarray:
    """Rows of an ``(n, 2)`` array not strictly inside its extreme polygon.

    Akl-Toussaint: the points of least and greatest x, y, x + y and x - y,
    taken in counter-clockwise order, span a polygon inside the hull, and a
    point strictly inside it (by PREFILTER_MARGIN) cannot be a hull vertex.
    Rows must be finite and keep their order. Short inputs come back whole.
    """
    if len(pts) <= PREFILTER_MIN_POINTS:
        return pts
    x, y = pts[:, 0], pts[:, 1]
    s, d = x + y, x - y
    # Equal points project equally, so each takes its first index in every
    # direction: consecutive distinct indices are distinct points.
    ring = [x.argmin(), s.argmin(), y.argmin(), d.argmax(), x.argmax(), s.argmax(), y.argmax(), d.argmin()]
    edges = [(i, j) for i, j in zip(ring, ring[1:] + ring[:1]) if i != j]
    if not edges:
        return pts
    a, b = pts[np.array(edges).T]
    e = b - a
    span = max(x[ring[4]] - x[ring[0]], y[ring[6]] - y[ring[2]])
    cross = e[:, :1] * (y - a[:, 1:]) - e[:, 1:] * (x - a[:, :1])
    return pts[~(cross > PREFILTER_MARGIN * span * span).all(axis=0)]


def convex_hull(points: Iterable[Point2] | np.ndarray) -> ConvexPolygon:
    """Minimal CCW convex polygon containing all points (monotone chain).

    ``points`` is an iterable of ``(x, y)`` pairs or an ``(n, 2)`` array,
    read through the point-set gate ``_xy_array``, which rejects string,
    bytes, boolean, ``None``, complex, NaN and infinite coordinates, rows
    that are not pairs and integers beyond the float range. More than
    PREFILTER_MIN_POINTS rows first lose every point strictly inside the
    polygon of their 8 extreme points (Akl and Toussaint, 1978). Exact
    duplicates are dropped before the scan (the first one seen is kept, so
    ``-0.0`` or ``0.0`` follows the input order); collinear boundary points
    are removed. Fewer than three non-collinear points yield a degenerate
    polygon with area 0. Output starts at the lexicographically smallest
    vertex, which keeps downstream CSV dumps reproducible.
    """
    pts = sorted(set(map(tuple, _drop_interior(_xy_array(points)).tolist())))
    if len(pts) <= 2:
        return ConvexPolygon(tuple(pts))

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
    ring, kept = deque(lower[:-1] + upper[:-1]), 0
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
    cos_t, sin_t = math.cos(rect.theta), math.sin(rect.theta)
    hl, hw = 0.5 * rect.length, 0.5 * rect.width
    (x, y) = rect.center
    corners = ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw))
    return ConvexPolygon(tuple((x + cos_t * cx - sin_t * cy, y + sin_t * cx + cos_t * cy) for cx, cy in corners))


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
    ((px, py),) = _xy_array((p,)).tolist()
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
    return convex_hull(output)


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
