"""Exact planar primitives on integer coordinates.

Every predicate here is decided with unbounded integer arithmetic, so
results are identical across runs and platforms for identical inputs. The
one use of floating point is a filter in ``general_position_check`` that is
exact by construction: it only chooses which anchors the integer scan
visits.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import IntEnum
from math import gcd
from typing import Iterable, Iterator

import numpy as np

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

    Each anchor i first goes through a float filter: the slopes dy/dx
    towards every j > i, sorted. Within ``COORD_LIMIT`` every difference is
    below 2**33, so exact in float64, and a correctly rounded division maps
    equal directions to equal quotients. So an anchor without a tied slope
    starts no collinear triple, and only an anchor with a tie is scanned
    exactly, by ``_anchor_witness``; the witness is the one a scan of every
    anchor finds. Coordinates beyond the limit are scanned exactly at every
    anchor.
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
    anchors = range(n - 2)
    if n >= 3 and all(abs(x) <= COORD_LIMIT and abs(y) <= COORD_LIMIT for x, y in coords):
        anchors = _tied_anchors(np.array(coords, dtype=np.float64))
    for i in anchors:
        witness = _anchor_witness(coords, i)
        if witness is not None:
            return witness
    return None


def _tied_anchors(xy) -> Iterator[int]:
    # Anchors i < n - 2 whose slopes towards the points after them tie in
    # float64; no other anchor can start a collinear triple.
    xs, ys = xy[:, 0], xy[:, 1]
    for i in range(len(xy) - 2):
        dx = xs[i + 1 :] - xs[i]
        dy = ys[i + 1 :] - ys[i]
        q = np.divide(dy, dx, out=np.full(len(dx), np.inf), where=dx != 0)
        q.sort()
        if (q[1:] == q[:-1]).any():
            yield i


def _anchor_witness(coords, i: int) -> tuple[int, int, int] | None:
    """First collinear triple (i, j, k) with i < j < k, k least, or None.

    The only code that decides collinearity: directions from anchor i are
    reduced by their gcd and given a canonical sign, in exact integers.
    """
    xi, yi = coords[i]
    dirs: dict[tuple[int, int], int] = {}
    for j in range(i + 1, len(coords)):
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


def vertex_mask(B: Iterable[int]) -> int:
    """Bitmask with bit v set for every vertex v of B, as
    ``GeometricGraph.count_edges`` takes it."""
    mask = 0
    for v in B:
        mask |= 1 << v
    return mask


_BIT = np.array([1 << i for i in range(8)], dtype=np.uint8)


def neighbour_masks(n: int, a: np.ndarray, b: np.ndarray) -> tuple[int, ...]:
    """One neighbour bitmask per vertex of an n-vertex graph whose edges are
    ``{a[k], b[k]}``, as ``GeometricGraph`` keeps them.

    The indices must lie in ``[0, n)`` with ``a[k] != b[k]``; an edge given
    twice sets the same bits again. The bits are set in bulk in a packed
    ``n x ceil(n/8)`` byte array, little-endian within each row, so extra
    memory is O(E) plus the n²/8 bytes the masks take; each row then becomes
    one Python int.
    """
    width = (n + 7) // 8
    packed = np.zeros((n, width), dtype=np.uint8)
    for u, v in ((a, b), (b, a)):
        np.bitwise_or.at(packed, (u, v >> 3), _BIT[v & 7])
    buf = packed.tobytes()
    return tuple(int.from_bytes(buf[i * width : (i + 1) * width], "little") for i in range(n))


class GeometricGraph:
    """A point set together with an edge set of unordered index pairs.

    Edges are kept as one neighbour bitmask (a Python int) per vertex: bit
    ``j`` of ``_adj[i]`` is set iff ``{i, j}`` is an edge. Every edge query
    the pipeline makes is answered here.
    """

    __slots__ = ("vertices", "_adj", "edge_count", "is_complete")

    def __init__(self, vertices: PointSet, adj: tuple[int, ...]):
        self.vertices = vertices
        self._adj = adj
        self.edge_count = sum(mask.bit_count() for mask in adj) // 2
        n = len(vertices)
        self.is_complete = self.edge_count == n * (n - 1) // 2

    @classmethod
    def complete(cls, vertices: PointSet) -> "GeometricGraph":
        full = (1 << len(vertices)) - 1
        return cls(vertices, tuple(full ^ (1 << i) for i in range(len(vertices))))

    @classmethod
    def from_edges(cls, vertices: PointSet, edges: Iterable[Segment]) -> "GeometricGraph":
        n = len(vertices)
        edges = list(edges)
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a}, {b}) out of range for {n} vertices")
        ends = np.array(edges, dtype=np.int64).reshape(-1, 2)
        return cls(vertices, neighbour_masks(n, ends[:, 0], ends[:, 1]))

    def has_edge(self, a: int, b: int) -> bool:
        n = len(self.vertices)
        # Range-check before shifting: a negative shift count raises.
        if a == b or not (0 <= a < n and 0 <= b < n):
            return False
        return bool(self._adj[a] >> b & 1)

    def count_edges(self, A: Sequence[int], b_mask: int) -> int:
        """Number of edges between the vertices of A and the disjoint vertex
        set whose ``vertex_mask`` is ``b_mask``."""
        if self.is_complete:
            return len(A) * b_mask.bit_count()
        adj = self._adj
        return sum((adj[u] & b_mask).bit_count() for u in A)

    def edges_between(self, A: Iterable[int], B: Iterable[int]) -> Iterator[Segment]:
        """Edges joining A to B as ``(min, max)`` pairs, lazily, A-major in
        the orders given."""
        B = tuple(B)
        adj = self._adj
        for u in A:
            row = adj[u]
            for v in B:
                if row >> v & 1:
                    yield (u, v) if u < v else (v, u)

    def edges_iter(self) -> Iterator[Segment]:
        """Edges in sorted order, generated lazily."""
        for a, mask in enumerate(self._adj):
            mask >>= a + 1
            while mask:
                low = mask & -mask
                yield (a, a + low.bit_length())
                mask ^= low

    def edges_sorted(self) -> list[Segment]:
        return list(self.edges_iter())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GeometricGraph)
            and self.vertices == other.vertices
            and self._adj == other._adj
        )

    def __repr__(self) -> str:
        kind = "complete" if self.is_complete else f"{self.edge_count} edges"
        return f"GeometricGraph({len(self.vertices)} vertices, {kind})"


def _segment_orientations(s1: Segment, s2: Segment, V: PointSet) -> tuple[int, int, int, int] | None:
    # Orientations of c, d against a->b and of a, b against c->d; None when
    # the segments share an endpoint.
    a, b = s1
    c, d = s2
    if a == b or c == d:
        raise ValueError("degenerate segment")
    if a in (c, d) or b in (c, d):
        return None
    coords = V.coords
    (ax, ay), (bx, by), (cx, cy), (dx, dy) = coords[a], coords[b], coords[c], coords[d]
    o1 = _orient_coords(ax, ay, bx, by, cx, cy)
    o2 = _orient_coords(ax, ay, bx, by, dx, dy)
    o3 = _orient_coords(cx, cy, dx, dy, ax, ay)
    o4 = _orient_coords(cx, cy, dx, dy, bx, by)
    if not (o1 and o2 and o3 and o4):
        raise DegenerateInputError(
            f"collinear endpoints among segments {s1} and {s2}"
        )
    return o1, o2, o3, o4


def segments_cross(s1: Segment, s2: Segment, V: PointSet) -> bool:
    """True iff the two open segments share a point.

    Segments sharing an endpoint never cross. Raises DegenerateInputError if
    any three of the four endpoints are collinear, since the answer would
    then depend on a convention rather than on general position.
    """
    o = _segment_orientations(s1, s2, V)
    return o is not None and o[0] != o[1] and o[2] != o[3]


def segments_avoiding(s1: Segment, s2: Segment, V: PointSet) -> bool:
    """True iff each segment lies strictly on one side of the other's line.

    This is strictly stronger than disjointness. Segments sharing an endpoint
    are never avoiding. Degenerate (collinear) inputs raise, as for crossing.
    """
    o = _segment_orientations(s1, s2, V)
    return o is not None and o[0] == o[1] and o[2] == o[3]


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


def hull_coords_disjoint(ha, hb) -> bool:
    """True iff two nonempty hulls from ``hull_coords`` are disjoint as
    closed sets.

    They are exactly when their lexicographic vertex ranges miss, or one
    lies strictly right of a directed edge of the other. Disjoint hulls have
    a Minkowski difference that misses the origin. When it is a polygon, the
    origin lies strictly beyond one of its edge lines, each parallel to an
    edge of a hull; when it is a point or a segment, the hulls lie on one
    line, where the ranges miss, or on two parallel lines. A segment hull
    has an edge each way; a point's zero-length edge separates nothing.
    """
    if max(ha) < min(hb) or max(hb) < min(ha):
        return True
    return any(
        all((qx - px) * (ry - py) - (qy - py) * (rx - px) < 0 for rx, ry in other)
        for h, other in ((ha, hb), (hb, ha))
        for (px, py), (qx, qy) in zip(h[-1:] + h[:-1], h)
    )


def hulls_disjoint(A, B) -> bool:
    """True iff the convex hulls of the two point collections are disjoint
    as closed sets.

    See ``hull_coords_disjoint``, which this wraps.
    """
    ca = [(p.x, p.y) for p in map(_as_point, A)]
    cb = [(p.x, p.y) for p in map(_as_point, B)]
    if not ca or not cb:
        raise ValueError("hulls_disjoint requires nonempty inputs")
    return hull_coords_disjoint(hull_coords(ca), hull_coords(cb))


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
