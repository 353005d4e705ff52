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

Each polygon, and each cloud that enters the prefilter or the chain, has one
scale: it is worked on times the power of two that brings its largest
coordinate magnitude into [0.5, 1), where no sum or product of coordinate
differences overflows, and results are scaled back. That is exact, so no
result depends on the unit unless a coordinate or a product is subnormal at
one of the two scales. A polygon computes its scale, area, breadth and
canonical flag once.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass
from functools import cached_property
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


def _exponent_of(magnitude: float) -> int:
    """The power of two that brings a point set with this largest coordinate magnitude into [0.5, 1),
    one of no normal magnitude (0 among them) at most 2**1021 times up; the greater of two sets' is their union's."""
    return math.frexp(max(magnitude, sys.float_info.min))[1]


def _times(points: Sequence[tuple[float, float]], k: int) -> list[tuple[float, float]]:
    """The points times 2**k."""
    return [(math.ldexp(x, k), math.ldexp(y, k)) for x, y in points]


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


def _straight(o: tuple[float, float], a: tuple[float, float], b: tuple[float, float]) -> bool:
    """True if the hull drops the corner at a, between o and b: the sine of its turn is at most
    COLLINEAR_EPS, or rounding leaves its cross product, as ConvexPolygon checks it, at most 0."""
    ux, uy, rx, ry = a[0] - o[0], a[1] - o[1], b[0] - o[0], b[1] - o[1]
    cross = ux * ry - uy * rx
    # As |b - a| <= |u| + |r|, a cross product above twice this bound has a sine above it,
    # rounding and all.
    if cross > 2.0 * COLLINEAR_EPS * (abs(ux) + abs(uy)) * (abs(ux) + abs(uy) + abs(rx) + abs(ry)):
        return False
    wx, wy = b[0] - a[0], b[1] - a[1]
    hu, hw = math.hypot(ux, uy), math.hypot(wx, wy)
    return cross <= 0.0 or ux / hu * (wy / hw) - uy / hu * (wx / hw) <= COLLINEAR_EPS


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
        """Checks that the vertices are distinct and, at the polygon's scale, strictly convex and ccw."""
        if len(self.vertices) != len(set(self.vertices)):
            raise ValueError("polygon has repeated vertices")
        v, n = self._unit, len(self.vertices)
        for i in range(n if n >= 3 else 0):
            (ox, oy), (ax, ay), (bx, by) = v[i - 1], v[i], v[(i + 1) % n]
            c = (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)
            if c <= 0.0:
                raise ValueError("vertices must be counter-clockwise and strictly convex "
                                 f"(cross product {c} at vertex {i})")

    def __len__(self) -> int:
        return len(self.vertices)

    @cached_property
    def _exponent(self) -> int:
        """The polygon's scale: the power of two that brings its largest coordinate magnitude into [0.5, 1)."""
        return _exponent_of(max((abs(c) for vertex in self.vertices for c in vertex), default=0.0))

    @cached_property
    def _unit(self) -> list[tuple[float, float]]:
        """The vertices at the polygon's scale."""
        return _times(self.vertices, -self._exponent)

    @cached_property
    def _twice_area(self) -> float:
        """The shoelace sum of ``_unit`` about its least vertex, where its hull starts: twice its area.
        About the global origin, a unit square at 1e8 would sum terms of 1e16 and lose its area."""
        v = self._unit
        if len(v) < 3:
            return 0.0
        least = v.index(min(v))
        (ox, oy), (ax, ay), *rest = v[least:] + v[:least]
        ax, ay, total = ax - ox, ay - oy, 0.0
        for bx, by in rest:
            bx -= ox
            by -= oy
            total += ax * by - ay * bx
            ax, ay = bx, by
        return total

    @cached_property
    def _breadth(self) -> float:
        """About the least width of ``_unit``: its area over half its greater extent, at most that."""
        xs, ys = zip(*self._unit)
        half = max(0.5 * max(xs) - 0.5 * min(xs), 0.5 * max(ys) - 0.5 * min(ys))
        return min(half, 0.5 * self._twice_area / half)

    @cached_property
    def _canonical(self) -> bool:
        """True if the polygon is what ``convex_hull`` makes of its vertices: it starts at its
        least vertex and it has no corner the hull would drop as straight."""
        v, n = self._unit, len(self._unit)
        return v[0] == min(v) and not any(_straight(v[i - 1], v[i], v[(i + 1) % n]) for i in range(n))


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
    come back whole. Rows must be finite; each cloud is worked on at its scale.
    """
    counts = np.asarray(counts)
    if len(pts) <= PREFILTER_MIN_POINTS:
        return pts, counts
    full = counts > 0  # reduceat would give an empty cloud its next row
    sizes = counts[full]
    starts = sizes.cumsum() - sizes
    magnitudes = np.maximum.reduceat(np.abs(pts).ravel(), 2 * starts).tolist()  # of each cloud
    exponents = np.array([_exponent_of(m) for m in magnitudes])
    unit = pts * np.repeat(np.ldexp(1.0, -exponents), sizes)[:, None]  # exact, as each factor is a power of two
    x, y = unit[:, 0], unit[:, 1]
    v = unit[:, [0, 0, 1, 0]].T  # x, x + y, y, x - y
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
    c = unit[corners]  # (8, clouds, 2)
    span = np.maximum(c[4, :, 0] - c[0, :, 0], c[6, :, 1] - c[2, :, 1])
    ring, after = corners[_RING]
    edge = ring != after
    first = edge.argmax(axis=0), np.arange(len(sizes))
    a = unit[np.where(edge, ring, ring[first])]
    e = unit[np.where(edge, after, after[first])] - a
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
    products, so it drops nothing. The chain runs on the cloud at its scale,
    where points that round to one are one; the hull is marked canonical.
    """
    e = _exponent_of(float(np.abs(arr).max(initial=0.0)))
    pts = sorted(set(map(tuple, (arr * math.ldexp(1.0, -e)).tolist())))
    ring = deque(_chain(pts)[:-1] + _chain(pts[::-1])[:-1] if len(pts) > 2 else pts)
    # Only rounding puts a point on both chains, and only in a cloud that is flat to
    # rounding, so its hull is the segment between its ends, as for a collinear cloud.
    if len(set(ring)) < len(ring):
        ring = deque((pts[0], pts[-1]))
    # Near-straight corners go only from the finished hull: in a partial chain two close points
    # can flatten a far corner. The corner tested is ring[-1]; a lap of corners that all turn
    # more ends the walk.
    kept = 0
    while kept < len(ring) and len(ring) >= 3:
        if _straight(ring[-2], ring[-1], ring[0]):
            ring.pop()  # ring[-2] has a new neighbour: it is tested next
            kept = 0
        else:
            ring.rotate(-1)
            kept += 1
    ring.rotate(-ring.index(min(ring)) if ring else 0)
    hull = ConvexPolygon._of_gated(tuple(map(Point2._make, _times(ring, e))))
    hull.__dict__["_canonical"] = True
    return hull


def _chain(ordered: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """One monotone chain: the points in order, less each one that does not turn left."""
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


@np.errstate(over="ignore")  # an area past the float range is infinite
def area(poly: ConvexPolygon) -> float:
    """Shoelace area about the least vertex, summed once on the vertices at the polygon's
    scale and scaled back; 0 for degenerate polygons."""
    return float(np.ldexp(0.5 * poly._twice_area, 2 * poly._exponent))


@np.errstate(over="ignore")  # a tol past the float range at the scale is infinite
def contains_point(poly: ConvexPolygon, p: Point2, tol: float | None = None) -> bool:
    """True if p lies inside or within tol (a distance) of the polygon boundary.

    ``tol`` defaults to CLIP_EPS times the polygon's breadth, the tolerance
    ``intersect_convex`` clips with, so it scales with the polygon. The edge
    test runs at the greater of the polygon's scale and p's.
    """
    if len(poly) < 3:
        return False
    ((px, py),) = _xy_array((p,)).tolist()
    e = max(poly._exponent, _exponent_of(max(abs(px), abs(py))))
    tol = CLIP_EPS * math.ldexp(poly._breadth, poly._exponent - e) if tol is None else np.ldexp(tol, -e)
    ((px, py),), v = _times([(px, py)], -e), _times(poly.vertices, -e)
    for (ax, ay), (bx, by) in zip(v, v[1:] + v[:1]):
        if (bx - ax) * (py - ay) - (by - ay) * (px - ax) < -tol * math.hypot(bx - ax, by - ay):
            return False
    return True


def intersect_convex(a: ConvexPolygon, b: ConvexPolygon) -> ConvexPolygon:
    """Intersection of two convex polygons by clipping a against each edge of b.

    Degenerate inputs yield the empty polygon. An edge that every vertex
    clears (within CLIP_EPS of the thinner polygon's breadth) clips nothing and is
    skipped. A clipped vertex set is re-canonicalized through convex_hull,
    which dedupes coincident corners and drops collinear jitter; when no edge
    clips and ``a`` is already what convex_hull returns (a hull inside the
    other polygon), ``a`` itself is the result. The pair is clipped in a
    fixed order, so ``intersect_convex(a, b) == intersect_convex(b, a)`` exactly.
    Both polygons are clipped at the greater of their two scales, and the
    clipped vertices scaled back.
    """
    if len(a) < 3 or len(b) < 3:
        return EMPTY_POLYGON
    if b.vertices < a.vertices:  # the CLIP_EPS sliver a clip keeps depends on the order
        a, b = b, a
    e = max(a._exponent, b._exponent)
    output = _times(a.vertices, -e)
    tol = CLIP_EPS * min(math.ldexp(p._breadth, p._exponent - e) for p in (a, b))
    clipped_any = False
    bv = _times(b.vertices, -e)
    for (e1x, e1y), (e2x, e2y) in zip(bv, bv[1:] + bv[:1]):
        if not output:
            return EMPTY_POLYGON
        ex, ey = e2x - e1x, e2y - e1y
        if not (ex or ey):  # an edge of b far smaller than a, lost at a's scale
            return EMPTY_POLYGON
        inv_len = 1.0 / math.hypot(ex, ey)
        # Signed distance of each vertex to the clip line, ccw-inside positive.
        dists = [((ex * (py - e1y) - ey * (px - e1x)) * inv_len) for px, py in output]
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

    if not clipped_any and a._canonical:
        return a
    if len(output) < 3:
        return EMPTY_POLYGON
    return convex_hull(_times(output, e))


def iou(a: ConvexPolygon, b: ConvexPolygon) -> float:
    """Intersection-over-union of two convex polygons; 0 when the union has area 0.

    A degenerate pair maps to 0 rather than NaN: an empty evidence hull
    carries maximal ambiguity, so downstream mappings assign maximal
    uncertainty. ``iou(a, b) == iou(b, a)`` exactly. The three areas are
    taken at the greater of the two polygons' scales.
    """
    e = max(a._exponent, b._exponent)
    inter, twice_a, twice_b = (math.ldexp(p._twice_area, 2 * (p._exponent - e))
                               for p in (intersect_convex(a, b), a, b))
    union = twice_a + twice_b - inter
    if union <= 0.0:
        return 0.0
    return min(1.0, max(0.0, inter / union))
