"""Exact planar primitives on integer coordinates.

Every predicate here is decided with unbounded integer arithmetic; there is
no floating point anywhere in this module, so results are identical across
runs and platforms for identical inputs.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import IntEnum
from math import gcd
from typing import Iterable, Iterator

from .errors import DegenerateInputError, GeneralPositionError

COORD_LIMIT = 2**31 - 1

# A segment is a pair of vertex indices into a PointSet.
Segment = tuple[int, int]


class Orientation(IntEnum):
    CW = -1
    COLLINEAR = 0
    CCW = 1


@dataclass(frozen=True)
class Point:
    x: int
    y: int

    def __post_init__(self):
        if not isinstance(self.x, int) or not isinstance(self.y, int):
            raise TypeError(f"coordinates must be int, got ({self.x!r}, {self.y!r})")
        if abs(self.x) > COORD_LIMIT or abs(self.y) > COORD_LIMIT:
            raise ValueError(f"coordinate magnitude exceeds {COORD_LIMIT}")


def _as_point(p) -> Point:
    return p if isinstance(p, Point) else Point(int(p[0]), int(p[1]))


def orientation(p: Point, q: Point, r: Point) -> Orientation:
    """Turn direction of the triple (p, q, r).

    CCW means r lies strictly to the left of the directed line p -> q.
    """
    d = (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)
    if d > 0:
        return Orientation.CCW
    if d < 0:
        return Orientation.CW
    return Orientation.COLLINEAR


def _orient_coords(px, py, qx, qy, rx, ry) -> int:
    # Hot-path variant working directly on ints; returns the determinant sign.
    d = (qx - px) * (ry - py) - (qy - py) * (rx - px)
    return (d > 0) - (d < 0)


class PointSet(Sequence):
    """An ordered set of distinct points; indices are stable identities.

    By default construction certifies general position (no duplicates, no
    three collinear points). Intermediate sets can waive the check.
    """

    __slots__ = ("points", "coords")

    def __init__(self, points: Iterable, *, check_general_position: bool = True):
        pts = tuple(_as_point(p) for p in points)
        self.points = pts
        self.coords = tuple((p.x, p.y) for p in pts)
        if check_general_position:
            witness = general_position_check(self)
            if witness is not None:
                raise GeneralPositionError(witness)

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, i):
        return self.points[i]

    def __iter__(self) -> Iterator[Point]:
        return iter(self.points)

    def __eq__(self, other) -> bool:
        return isinstance(other, PointSet) and self.points == other.points

    def __hash__(self):
        return hash(self.points)

    def __repr__(self) -> str:
        return f"PointSet({len(self.points)} points)"


def general_position_check(points) -> tuple[int, ...] | None:
    """Return None if the set is in general position, else a witness.

    The witness is a duplicate index pair (i, j) or a collinear index triple
    (i, j, k), whichever is found first scanning in index order.
    """
    coords = points.coords if isinstance(points, PointSet) else [
        (p.x, p.y) if isinstance(p, Point) else (int(p[0]), int(p[1])) for p in points
    ]
    seen: dict[tuple[int, int], int] = {}
    for i, c in enumerate(coords):
        if c in seen:
            return (seen[c], i)
        seen[c] = i
    n = len(coords)
    for i in range(n - 2):
        xi, yi = coords[i]
        dirs: dict[tuple[int, int], int] = {}
        for j in range(i + 1, n):
            dx = coords[j][0] - xi
            dy = coords[j][1] - yi
            g = gcd(dx, dy)
            dx //= g
            dy //= g
            if dx < 0 or (dx == 0 and dy < 0):
                dx, dy = -dx, -dy
            key = (dx, dy)
            if key in dirs:
                return (i, dirs[key], j)
            dirs[key] = j
    return None


class GeometricGraph:
    """A point set together with an edge set of unordered index pairs.

    The complete graph is represented implicitly (edges is None) so that
    large instances never materialize all pairs.
    """

    __slots__ = ("vertices", "_edges")

    def __init__(self, vertices: PointSet, edges):
        self.vertices = vertices
        self._edges = edges  # frozenset of (i, j) with i < j, or None for complete

    @classmethod
    def complete(cls, vertices: PointSet) -> "GeometricGraph":
        return cls(vertices, None)

    @classmethod
    def from_edges(cls, vertices: PointSet, edges: Iterable[Segment]) -> "GeometricGraph":
        n = len(vertices)
        norm = set()
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a}, {b}) out of range for {n} vertices")
            norm.add((a, b) if a < b else (b, a))
        return cls(vertices, frozenset(norm))

    @property
    def is_complete(self) -> bool:
        return self._edges is None

    @property
    def edge_count(self) -> int:
        n = len(self.vertices)
        if self._edges is None:
            return n * (n - 1) // 2
        return len(self._edges)

    def has_edge(self, a: int, b: int) -> bool:
        if a == b:
            return False
        if self._edges is None:
            n = len(self.vertices)
            return 0 <= a < n and 0 <= b < n
        return ((a, b) if a < b else (b, a)) in self._edges

    def edges_iter(self) -> Iterator[Segment]:
        """Edges in sorted order, generated lazily for complete graphs."""
        if self._edges is None:
            n = len(self.vertices)
            for a in range(n - 1):
                for b in range(a + 1, n):
                    yield (a, b)
        else:
            yield from sorted(self._edges)

    def edges_sorted(self) -> list[Segment]:
        return list(self.edges_iter())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GeometricGraph)
            and self.vertices == other.vertices
            and self._edges == other._edges
        )

    def __repr__(self) -> str:
        kind = "complete" if self.is_complete else f"{self.edge_count} edges"
        return f"GeometricGraph({len(self.vertices)} vertices, {kind})"


def _resolve(seg: Segment, V: PointSet) -> tuple[Point, Point]:
    a, b = seg
    if a == b:
        raise ValueError(f"degenerate segment ({a}, {b})")
    return V[a], V[b]


def segments_cross(s1: Segment, s2: Segment, V: PointSet) -> bool:
    """True iff the two open segments share a point.

    Segments sharing an endpoint never cross. Raises DegenerateInputError if
    any three of the four endpoints are collinear, since the answer would
    then depend on a convention rather than on general position.
    """
    a, b = s1
    c, d = s2
    if a == b or c == d:
        raise ValueError("degenerate segment")
    if a in (c, d) or b in (c, d):
        return False
    pa, pb, pc, pd = V[a], V[b], V[c], V[d]
    o1 = orientation(pa, pb, pc)
    o2 = orientation(pa, pb, pd)
    o3 = orientation(pc, pd, pa)
    o4 = orientation(pc, pd, pb)
    if 0 in (o1, o2, o3, o4):
        raise DegenerateInputError(
            f"collinear endpoints among segments {s1} and {s2}"
        )
    return o1 != o2 and o3 != o4


def segments_avoiding(s1: Segment, s2: Segment, V: PointSet) -> bool:
    """True iff each segment lies strictly on one side of the other's line.

    This is strictly stronger than disjointness. Segments sharing an endpoint
    are never avoiding. Degenerate (collinear) inputs raise, as for crossing.
    """
    a, b = s1
    c, d = s2
    if a == b or c == d:
        raise ValueError("degenerate segment")
    if a in (c, d) or b in (c, d):
        return False
    pa, pb, pc, pd = V[a], V[b], V[c], V[d]
    o1 = orientation(pa, pb, pc)
    o2 = orientation(pa, pb, pd)
    o3 = orientation(pc, pd, pa)
    o4 = orientation(pc, pd, pb)
    if 0 in (o1, o2, o3, o4):
        raise DegenerateInputError(
            f"collinear endpoints among segments {s1} and {s2}"
        )
    return o1 == o2 and o3 == o4


def hull_coords(coords: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Convex hull vertices of coordinate pairs in counterclockwise order.

    Monotone chain on plain int tuples. Interior and collinear points are
    dropped. Sets of one or two points are returned as-is (sorted),
    representing a point or a segment.
    """
    pts = sorted(set(coords))
    if len(pts) <= 2:
        return pts

    def half(seq):
        out = []
        for c in seq:
            while len(out) >= 2:
                (ox, oy), (ax, ay) = out[-2], out[-1]
                if (ax - ox) * (c[1] - oy) - (ay - oy) * (c[0] - ox) > 0:
                    break
                out.pop()
            out.append(c)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    return lower[:-1] + upper[:-1]


def convex_hull(points: Iterable[Point]) -> list[Point]:
    """Vertices of the convex hull in counterclockwise order, as Points.

    See ``hull_coords``, which this wraps.
    """
    return [Point(x, y) for x, y in hull_coords((p.x, p.y) for p in map(_as_point, points))]


def _on_segment(p: Point, q: Point, r: Point) -> bool:
    # Assumes p, q, r collinear; is r within the closed box of pq?
    return min(p.x, q.x) <= r.x <= max(p.x, q.x) and min(p.y, q.y) <= r.y <= max(p.y, q.y)


def _closed_segments_intersect(p: Point, q: Point, r: Point, s: Point) -> bool:
    o1 = orientation(p, q, r)
    o2 = orientation(p, q, s)
    o3 = orientation(r, s, p)
    o4 = orientation(r, s, q)
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and _on_segment(p, q, r):
        return True
    if o2 == 0 and _on_segment(p, q, s):
        return True
    if o3 == 0 and _on_segment(r, s, p):
        return True
    if o4 == 0 and _on_segment(r, s, q):
        return True
    return False


def _point_in_hull(p: Point, hull: list[Point]) -> bool:
    # Closed containment; hull is CCW from convex_hull (or a point / segment).
    h = len(hull)
    if h == 1:
        return p == hull[0]
    if h == 2:
        return orientation(hull[0], hull[1], p) == 0 and _on_segment(hull[0], hull[1], p)
    for i in range(h):
        if orientation(hull[i], hull[(i + 1) % h], p) == Orientation.CW:
            return False
    return True


def _hull_edges(hull: list[Point]):
    h = len(hull)
    if h == 2:
        yield hull[0], hull[1]
    elif h >= 3:
        for i in range(h):
            yield hull[i], hull[(i + 1) % h]


def hulls_disjoint(A, B) -> bool:
    """True iff the convex hulls of the two point collections are disjoint
    as closed sets."""
    pa = [_as_point(p) for p in A]
    pb = [_as_point(p) for p in B]
    if not pa or not pb:
        raise ValueError("hulls_disjoint requires nonempty inputs")
    ha = convex_hull(pa)
    hb = convex_hull(pb)
    if any(_point_in_hull(p, hb) for p in ha):
        return False
    if any(_point_in_hull(q, ha) for q in hb):
        return False
    for e1 in _hull_edges(ha):
        for e2 in _hull_edges(hb):
            if _closed_segments_intersect(e1[0], e1[1], e2[0], e2[1]):
                return False
    return True


def line_meets_hull(x: Point, y: Point, B) -> bool:
    """True iff the infinite line through x and y meets the convex hull of B."""
    x = _as_point(x)
    y = _as_point(y)
    if x == y:
        raise ValueError("line requires two distinct points")
    pos = neg = False
    for b in B:
        b = _as_point(b)
        o = orientation(x, y, b)
        if o == 0:
            return True
        if o > 0:
            pos = True
        else:
            neg = True
        if pos and neg:
            return True
    return False
