"""2D geometry for oriented box labels in the bird's-eye plane.

Rigid transforms between label frames, convex hulls (monotone chain, with an
Akl-Toussaint prefilter that takes many clouds in one segmented pass), convex
polygon intersection (half-plane clipping that skips edges nothing crosses),
shoelace areas, and IoU.
All polygons are counter-clockwise vertex tuples; everything is pure and
thread-safe. Point input has one gate, ``_xy_array``, used by ``convex_hull``,
``ConvexPolygon``, ``contains_point`` and ``label_uncertainty``.
``convex_hull`` is the gate, the prefilter and the chain ``_chain_hull``,
which ``label_uncertainty`` calls alone on the clouds it has gated and
prefiltered in runs. ``_chain_hull`` and ``rect_to_polygon`` build polygons
from finite floats, so only the polygon checks run again. The hull drops a
corner by the sine of its turn, the clip measures against the breadth of the
thinner polygon and the prefilter against the span of its cloud, so no
tolerance depends on the size or the shape of the polygons.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

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

# Largest rectangle area: the shoelace sum is twice an area, and an IoU's
# union adds two, so either would overflow above half the float range.
MAX_RECT_AREA = float(np.finfo(np.float64).max) / 2
# Hull corners whose turn has a sine of at most this are collinear and dropped;
# keeps vertex output strictly convex and deterministic.
COLLINEAR_EPS = 1e-12
# Points within this times the breadth of the thinner polygon of a clip line are
# inside; avoids sliver polygons from floating-point jitter.
CLIP_EPS = 1e-9
# Polygons more than twice this across are intersected on coordinates scaled by
# _SHRINK, an exact power of two, so that no product of two coordinate differences
# overflows; coordinates up to the float limit stay above the normal range.
_HUGE_HALF_EXTENT = 2.0**499
_SHRINK = 2.0**-600
# Hull input arrays longer than this are prefiltered; below it the numpy
# calls cost more than the monotone chain saves.
PREFILTER_MIN_POINTS = 40
# A point is dropped only if each edge's cross product exceeds this times the
# squared span of the cloud: far above rounding (about 1e-16 of the same
# scale), so no point on or near the extreme polygon is ever dropped.
PREFILTER_MARGIN = 1e-9
# Point coordinate types: Python's and numpy's ints and floats, but no bool.
_NUMBER_TYPES = (int, float, np.integer, np.floating)
# Row types of an iterable point set: lists, tuples (Point2 among them) and 1-D arrays.
_ROW_TYPES = (list, tuple, np.ndarray)


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
    coordinates raise ``ValueError``, and so do rows that are not pairs
    (a bytes, str, dict or set row among them), numbers beyond the float
    range (a Python integer, or a long double that float64 cannot hold) and
    NaN and infinite coordinates. Types and row lengths are checked in Python;
    numpy casts and checks finiteness once, and only a failing set is read again.
    """
    if isinstance(points, np.ndarray) and points.shape != (0,) and (points.ndim != 2 or points.shape[1] != 2):
        raise ValueError("points must be (x, y) pairs, an array of shape (n, 2)")
    if not (isinstance(points, np.ndarray) and points.dtype.kind in "iuf"):  # other arrays are read as rows
        flat: list = []
        try:
            rows = list(points)
            any(map(flat.extend, rows))  # extend returns None, so every row is taken
        except TypeError:  # the points, or one of them, are not a sequence
            raise ValueError("points must be (x, y) pairs") from None
        # A bytes, str, dict or set row would extend by its items, so only sequences are rows.
        row_types = set(map(type, rows))
        if not row_types <= {list, tuple, Point2} and not all(issubclass(t, _ROW_TYPES) for t in row_types):
            raise ValueError("points must be (x, y) pairs")
        types = set(map(type, flat))  # float and int, the usual ones, need no subclass test
        if not types <= {float, int} and any(t is bool or not issubclass(t, _NUMBER_TYPES) for t in types):
            raise ValueError("point coordinates must be numbers")
        if not set(map(len, rows)) <= {2}:
            raise ValueError("points must be (x, y) pairs")
        points = flat
    try:
        with np.errstate(over="ignore"):  # a long double beyond the float range becomes inf
            arr = np.array(points, dtype=float).reshape(-1, 2)
    except OverflowError:  # an integer beyond the float range
        raise ValueError("point coordinates must be numbers within the float range") from None
    if np.isfinite(arr).all():
        return arr
    k = int(np.flatnonzero(~np.isfinite(arr).all(axis=1))[0])
    given = points[k] if isinstance(points, np.ndarray) else points[2 * k:2 * k + 2]
    if np.isfinite(np.asarray(given, dtype=np.longdouble)).all():
        raise ValueError("point coordinates must be numbers within the float range")
    raise ValueError(f"point coordinates must be finite, got {arr[k].tolist()} at point {k}")


def _normalize_angle(theta: float) -> float:
    # Wrap into (-pi, pi].
    t = math.remainder(theta, 2.0 * math.pi)
    if t <= -math.pi:
        t += 2.0 * math.pi
    return t


@dataclass(frozen=True)
class OrientedRect:
    """Axis lengths and pose of an oriented rectangle (length along heading).

    Its area ``length * width`` must be above 0 and at most MAX_RECT_AREA.
    """

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
        object.__setattr__(self, "length", float(self.length))
        object.__setattr__(self, "width", float(self.width))
        if not 0.0 < self.length * self.width <= MAX_RECT_AREA:
            raise ValueError(f"length * width must be > 0 and at most {MAX_RECT_AREA:.6g}, "
                             f"got {self.length} * {self.width}")


def _cross(o: tuple[float, float], a: tuple[float, float], b: tuple[float, float]) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _direction(p: tuple[float, float], q: tuple[float, float]) -> tuple[float, float]:
    """The unit vector from p to q. Halved coordinates keep a difference beyond the
    float range finite, and scaling by the greater component keeps hypot finite."""
    dx, dy = q[0] - p[0], q[1] - p[1]
    if not (math.isfinite(dx) and math.isfinite(dy)):
        dx, dy = 0.5 * q[0] - 0.5 * p[0], 0.5 * q[1] - 0.5 * p[1]
    m = max(abs(dx), abs(dy))
    dx, dy = dx / m, dy / m
    h = math.hypot(dx, dy)
    return dx / h, dy / h


def _straight(o: tuple[float, float], a: tuple[float, float], b: tuple[float, float]) -> bool:
    """True if the hull drops the corner at a, between o and b: the sine of its turn is at most
    COLLINEAR_EPS, or rounding leaves its cross product, as ConvexPolygon checks it, at most 0."""
    ux, uy, rx, ry = a[0] - o[0], a[1] - o[1], b[0] - o[0], b[1] - o[1]
    cross = ux * ry - uy * rx
    # As |b - a| <= |u| + |r|, a cross product above twice this bound has a sine above it,
    # rounding and all, unless the bound underflows.
    if cross > 2.0 * COLLINEAR_EPS * (abs(ux) + abs(uy)) * (abs(ux) + abs(uy) + abs(rx) + abs(ry)) > 1e-290:
        return False
    (ux, uy), (wx, wy) = _direction(o, a), _direction(a, b)
    return cross <= 0.0 or ux * wy - uy * wx <= COLLINEAR_EPS


@dataclass(frozen=True)
class ConvexPolygon:
    """Counter-clockwise convex polygon; 0-2 vertices mean degenerate (area 0)."""

    vertices: tuple[Point2, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(map(Point2._make, _xy_array(self.vertices).tolist())))
        self._check()

    @classmethod
    def _of_gated(cls, vertices: tuple[Point2, ...]) -> ConvexPolygon:
        """A polygon on float vertices that have passed the point-set gate; checks all the rest."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "vertices", vertices)
        poly._check()
        return poly

    def _check(self) -> None:
        verts = self.vertices
        if len(verts) != len(set(verts)):
            raise ValueError("polygon has repeated vertices")
        n = len(verts)
        for i in range(n if n >= 3 else 0):
            c = _cross(verts[i - 1], verts[i], verts[(i + 1) % n])
            if c <= 0.0:
                raise ValueError("vertices must be counter-clockwise and strictly convex "
                                 f"(cross product {c} at vertex {i})")

    def __len__(self) -> int:
        return len(self.vertices)


EMPTY_POLYGON = ConvexPolygon(())


def rigid_transform(p: Point2, from_pose: Pose, to_pose: Pose) -> Point2:
    """Carry a point rigidly from one label pose to another.

    Returns ``R_z(theta_to - theta_from) @ (p - c_from) + c_to``.
    """
    (from_center, from_theta), (to_center, to_theta) = from_pose, to_pose
    cos_t, sin_t = math.cos(to_theta - from_theta), math.sin(to_theta - from_theta)
    dx, dy = p[0] - from_center[0], p[1] - from_center[1]
    return Point2(cos_t * dx - sin_t * dy + to_center[0], sin_t * dx + cos_t * dy + to_center[1])


# Extreme-polygon corners in ccw order, as rows of the least x, x + y, y, x - y
# and then the greatest, and each corner's successor.
_RING = np.array([[0, 1, 2, 7, 4, 5, 6, 3], [1, 2, 7, 4, 5, 6, 3, 0]])


# Near the float limit sums and products overflow: an infinite margin drops nothing,
# a NaN keeps its point, and an infinite cross product keeps its sign.
@np.errstate(over="ignore", invalid="ignore")
def _drop_interior(pts: np.ndarray, counts: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Rows of an ``(n, 2)`` array not strictly inside their cloud's extreme polygon.

    The rows are cut into consecutive clouds of ``counts`` rows each (empty
    clouds allowed) and all clouds are filtered in one pass, with temporaries
    of 16 floats a row for one cloud and 48 for several; the survivors come
    back in order, with each cloud's survivor count. Akl-Toussaint: the
    points of least and greatest x, y, x + y and x - y of a cloud, taken in
    counter-clockwise order, span a polygon inside its hull, and a point
    strictly inside it (by PREFILTER_MARGIN) cannot be a hull vertex. Clouds
    of at most PREFILTER_MIN_POINTS rows, and clouds of one repeated point,
    come back whole. Rows must be finite.
    """
    counts = np.asarray(counts)
    if len(pts) <= PREFILTER_MIN_POINTS:
        return pts, counts
    full = counts > 0  # reduceat would give an empty cloud its next row
    sizes = counts[full]
    starts = sizes.cumsum() - sizes
    x, y = pts[:, 0], pts[:, 1]
    v = pts[:, [0, 0, 1, 0]].T  # x, x + y, y, x - y
    v[1] += y
    v[3] -= y
    # In each direction, a cloud's corner is the first row reaching its
    # extreme, as argmin or argmax would pick: 8 reduceat extremes, then one
    # lookup of each extreme's first row.
    reached = np.concatenate((v == np.repeat(np.minimum.reduceat(v, starts, axis=1), sizes, axis=1),
                              v == np.repeat(np.maximum.reduceat(v, starts, axis=1), sizes, axis=1)))
    rows = np.flatnonzero(reached)
    offsets = np.arange(0, reached.size, len(pts))[:, None]
    corners = rows[rows.searchsorted(offsets + starts)] - offsets  # least x, x + y, y, x - y, then greatest
    del v, reached, rows  # freed before the (8, rows) cross products
    # The ccw ring and each corner's successor on it. Equal points project equally, so
    # distinct corners are distinct points. A cloud's repeated corner takes the
    # place of its first edge's start, which tests that edge again; a cloud
    # with no edge (one point, repeated) keeps every row, since all its cross
    # products are 0.
    c = pts[corners]  # (8, clouds, 2)
    span = np.maximum(c[4, :, 0] - c[0, :, 0], c[6, :, 1] - c[2, :, 1])
    ring, after = corners[_RING]
    edge = ring != after
    first = edge.argmax(axis=0), np.arange(len(sizes))
    a = pts[np.where(edge, ring, ring[first])]
    e = pts[np.where(edge, after, after[first])] - a
    # An infinite margin keeps every row of a cloud too short to prefilter.
    margin = np.where(sizes > PREFILTER_MIN_POINTS, PREFILTER_MARGIN * span * span, np.inf)
    if len(sizes) > 1:  # one cloud's edges broadcast over its rows, with no (8, rows, 2) copies
        a, e, margin = np.repeat(a, sizes, axis=1), np.repeat(e, sizes, axis=1), np.repeat(margin, sizes)
    # e_x (y - a_y) - e_y (x - a_x), with at most two (8, rows) arrays alive at once
    cross = (y - a[..., 1]) * e[..., 0]
    term = x - a[..., 0]
    term *= e[..., 1]
    cross -= term
    del term
    kept = np.flatnonzero(~(cross > margin).all(axis=0))
    ends = np.cumsum(counts)
    return pts[kept], np.searchsorted(kept, ends) - np.searchsorted(kept, ends - counts)


def convex_hull(points: Iterable[Point2] | np.ndarray) -> ConvexPolygon:
    """Minimal CCW convex polygon containing all points (monotone chain).

    ``points`` is an iterable of ``(x, y)`` pairs or an ``(n, 2)`` array, read
    through the point-set gate ``_xy_array``. More than PREFILTER_MIN_POINTS
    rows first lose every point strictly inside the polygon of their 8
    extreme points (Akl and Toussaint, 1978). Exact duplicates are dropped
    before the scan (the first one seen is kept, so ``-0.0`` or ``0.0``
    follows the input order); collinear boundary points are removed. Fewer
    than three non-collinear points yield a degenerate polygon with area 0,
    and so does a cloud flat to rounding: its hull is the segment between its
    least and greatest points. Output starts at the lexicographically
    smallest vertex, which keeps downstream CSV dumps reproducible.
    """
    arr = _xy_array(points)
    return _chain_hull(_drop_interior(arr, (len(arr),))[0])


def _chain_hull(arr: np.ndarray) -> ConvexPolygon:
    """``convex_hull`` of a finite float64 ``(n, 2)`` array that has passed the gate and the prefilter.

    Survivors of ``_drop_interior`` need neither again: the gate would only
    copy them, and a second pass finds the same corners, span and cross
    products, so it drops nothing.
    """
    pts = sorted(set(map(tuple, arr.tolist())))
    if len(pts) <= 2:
        return ConvexPolygon._of_gated(tuple(map(Point2._make, pts)))

    def build(ordered: list[tuple[float, float]]) -> list[tuple[float, float]]:
        chain: list[tuple[float, float]] = []
        for p in ordered:
            px, py = p
            while len(chain) >= 2:
                (ox, oy), (ax, ay) = chain[-2], chain[-1]
                if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) > 0.0:
                    break
                chain.pop()
            chain.append(p)
        return chain

    lower = build(pts)
    upper = build(pts[::-1])
    ring = lower[:-1] + upper[:-1]
    # Only rounding puts a point on both chains, and only in a cloud that is flat to
    # rounding, so its hull is the segment between its ends, as for a collinear cloud.
    if len(set(ring)) < len(ring):
        return ConvexPolygon._of_gated((Point2._make(pts[0]), Point2._make(pts[-1])))
    # Near-straight corners go only from the finished hull: in a partial chain two close points
    # can flatten a far corner. The corner tested is ring[-1]; a lap of corners that all turn
    # more ends the walk.
    ring, kept = deque(ring), 0
    while kept < len(ring) and len(ring) >= 3:
        if _straight(ring[-2], ring[-1], ring[0]):
            ring.pop()  # ring[-2] has a new neighbour: it is tested next
            kept = 0
        else:
            ring.rotate(-1)
            kept += 1
    ring.rotate(-ring.index(min(ring)))
    return ConvexPolygon._of_gated(tuple(map(Point2._make, ring)))


def rect_to_polygon(rect: OrientedRect) -> ConvexPolygon:
    """Expand an oriented rectangle into its 4-corner CCW polygon.

    The first vertex is the corner at (+length/2, +width/2) in the rect frame.
    Corners beyond the float range, or that rounding leaves repeated or not strictly
    convex, go to ``convex_hull``: its gate names the first, and the second give their
    hull, of area 0 where the short side is lost against the long one.
    """
    cos_t, sin_t = math.cos(rect.theta), math.sin(rect.theta)
    hl, hw = 0.5 * rect.length, 0.5 * rect.width
    (x, y) = rect.center
    vertices = tuple(Point2(x + cos_t * cx - sin_t * cy, y + sin_t * cx + cos_t * cy)
                     for cx, cy in ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw)))
    if all(math.isfinite(v) for corner in vertices for v in corner):
        try:
            return ConvexPolygon._of_gated(vertices)
        except ValueError:  # repeated or not strictly convex
            pass
    return convex_hull(vertices)


def _twice_area(vertices: Sequence[tuple[float, float]]) -> float:
    """The shoelace sum about the first vertex: twice the area of three or more vertices."""
    ox, oy = vertices[0]
    ax, ay = vertices[1][0] - ox, vertices[1][1] - oy
    total = 0.0
    for bx, by in vertices[2:]:
        bx -= ox
        by -= oy
        total += ax * by - ay * bx
        ax, ay = bx, by
    return total


def area(poly: ConvexPolygon) -> float:
    """Shoelace area about the first vertex; 0 for degenerate polygons.

    Taking coordinates relative to a vertex keeps the products as small as
    the polygon: about the global origin, a unit square at 1e8 would sum
    terms of 1e16 and lose every digit of its area. A sum that overflows is
    taken again over coordinates scaled by _SHRINK, and scaled back.
    """
    v = poly.vertices
    if len(v) < 3:
        return 0.0
    twice = _twice_area(v)
    if not math.isfinite(twice):
        twice = _twice_area([(x * _SHRINK, y * _SHRINK) for x, y in v]) / _SHRINK / _SHRINK
    return 0.5 * twice


def contains_point(poly: ConvexPolygon, p: Point2, tol: float | None = None) -> bool:
    """True if p lies inside or within tol (a distance) of the polygon boundary.

    ``tol`` defaults to CLIP_EPS times the polygon's breadth, the tolerance
    ``intersect_convex`` clips with, so it scales with the polygon.
    """
    v = poly.vertices
    n = len(v)
    if n < 3:
        return False
    ((px, py),) = _xy_array((p,)).tolist()
    if tol is None:
        tol = CLIP_EPS * _breadth(poly, _half_extent(poly))
    for i in range(n):
        a = v[i]
        b = v[(i + 1) % n]
        edge_len = math.hypot(b.x - a.x, b.y - a.y)
        if (b.x - a.x) * (py - a.y) - (b.y - a.y) * (px - a.x) < -tol * edge_len:
            return False
    return True


def _canonical(poly: ConvexPolygon) -> bool:
    """True if ``poly`` is what ``convex_hull`` makes of its vertices: it starts at its
    least vertex and it has no corner the hull would drop as straight."""
    v = poly.vertices
    n = len(v)
    return v[0] == min(v) and not any(_straight(v[i - 1], v[i], v[(i + 1) % n]) for i in range(n))


def _half_extent(poly: ConvexPolygon) -> float:
    """Half the greater of a polygon's x and y extents, which halved coordinates keep finite."""
    xs, ys = zip(*poly.vertices)
    return max(0.5 * max(xs) - 0.5 * min(xs), 0.5 * max(ys) - 0.5 * min(ys))


def _breadth(poly: ConvexPolygon, half: float) -> float:
    """About the least width of a convex polygon of half extent ``half``: its area
    over that half extent, capped at it."""
    return min(half, area(poly) / half)  # an area that overflows leaves the half extent


def intersect_convex(a: ConvexPolygon, b: ConvexPolygon) -> ConvexPolygon:
    """Intersection of two convex polygons by clipping a against each edge of b.

    Degenerate inputs yield the empty polygon. An edge that every vertex
    clears (within CLIP_EPS of the thinner polygon's breadth) clips nothing and is
    skipped. A clipped vertex set is re-canonicalized through convex_hull,
    which dedupes coincident corners and drops collinear jitter; when no edge
    clips and ``a`` is already what convex_hull returns (a hull inside the
    other polygon), ``a`` itself is the result. The pair is clipped in a
    fixed order, so ``intersect_convex(a, b) == intersect_convex(b, a)`` exactly.
    Polygons more than 2**500 across are intersected as the hulls of their
    vertices scaled by _SHRINK, and the result scaled back.
    """
    if len(a) < 3 or len(b) < 3:
        return EMPTY_POLYGON
    if b.vertices < a.vertices:  # the CLIP_EPS sliver a clip keeps depends on the order
        a, b = b, a
    half_a, half_b = _half_extent(a), _half_extent(b)
    if max(half_a, half_b) > _HUGE_HALF_EXTENT:
        shrunk = intersect_convex(*(convex_hull([(x * _SHRINK, y * _SHRINK) for x, y in poly.vertices])
                                    for poly in (a, b)))
        return ConvexPolygon._of_gated(tuple(Point2(x / _SHRINK, y / _SHRINK) for x, y in shrunk.vertices))

    output: list[tuple[float, float]] = [(p.x, p.y) for p in a.vertices]
    tol = CLIP_EPS * min(_breadth(a, half_a), _breadth(b, half_b))
    clipped_any = False
    bv = b.vertices
    for e1, e2 in zip(bv, bv[1:] + bv[:1]):
        if not output:
            return EMPTY_POLYGON
        ex, ey = e2.x - e1.x, e2.y - e1.y
        inv_len = 1.0 / math.hypot(ex, ey)
        # Signed distance of each vertex to the clip line, ccw-inside positive.
        dists = [((ex * (py - e1.y) - ey * (px - e1.x)) * inv_len) for px, py in output]
        inside = [dist >= -tol for dist in dists]  # a NaN distance is outside
        if all(inside):
            continue
        clipped_any = True
        ring = list(zip(output, dists, inside))
        output = []
        for (p, dp, p_in), (q, dq, q_in) in zip(ring, ring[1:] + ring[:1]):
            if p_in:
                output.append(p)
            if p_in != q_in:
                t = min(1.0, max(0.0, dp / (dp - dq)))
                output.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))

    if not clipped_any and _canonical(a):
        return a
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
