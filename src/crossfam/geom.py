"""Exact planar primitives on integer coordinates.

Every predicate here is decided with unbounded integer arithmetic, so
results are identical across runs and platforms for identical inputs. The
family check ``first_unrelated_pair_int64`` computes the same determinants
in int64, and only within ``INT64_COORD_LIMIT``, where none can overflow.
The one use of floating point is a filter in ``general_position_check``
that is exact by construction: float32 and float64 slopes only choose
which anchors the integer scan visits.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum, IntEnum
from math import gcd
from typing import Iterable, Iterator

import numpy as np

from .errors import DegenerateInputError, GeneralPositionError

COORD_LIMIT = 2**31 - 1

# The one bound behind every int64 kernel. With coordinates at most 2^29 in
# magnitude, every coordinate difference is at most 2^30, every product of
# two differences at most 2^60, and every 2x2 determinant at most 2^61, so
# orientation signs computed in int64 never overflow. Larger inputs take the
# exact Python-int path.
INT64_COORD_LIMIT = 2**29

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
    return Orientation(_orient_coords(p.x, p.y, q.x, q.y, r.x, r.y))


def _orient_coords(px, py, qx, qy, rx, ry) -> int:
    # Hot-path variant working directly on ints; returns the determinant sign.
    d = (qx - px) * (ry - py) - (qy - py) * (rx - px)
    return (d > 0) - (d < 0)


class PointSet(Sequence):
    """An ordered set of distinct points; indices are stable identities.

    By default construction certifies general position (no duplicates, no
    three collinear points). Intermediate sets can waive the check.

    The points are given as ``Point``s or as pairs, coerced with ``int``; a
    coordinate beyond ``COORD_LIMIT`` in magnitude raises ValueError. They
    are held only as ``coords``, int tuples, and ``xy``, a read-only n x 2
    int64 array; indexing, slicing and iteration build ``Point``s on
    demand, and equality and hashing read ``coords``.
    ``within_int64_bound`` is True when every coordinate is at most
    ``INT64_COORD_LIMIT`` in magnitude, so int64 kernels may run.
    """

    __slots__ = ("coords", "xy", "within_int64_bound")

    def __init__(self, points: Iterable, *, check_general_position: bool = True):
        # A list comprehension, which builds faster than a generator.
        coords = tuple([(p.x, p.y) if isinstance(p, Point) else (int(p[0]), int(p[1])) for p in points])
        self.coords = coords
        try:
            xy = np.array(coords, dtype=np.int64).reshape(len(coords), 2)
        except OverflowError:
            raise ValueError(f"coordinate magnitude exceeds {COORD_LIMIT}") from None
        top = max(int(xy.max()), -int(xy.min())) if coords else 0
        if top > COORD_LIMIT:
            raise ValueError(f"coordinate magnitude exceeds {COORD_LIMIT}")
        xy.flags.writeable = False
        self.xy = xy
        self.within_int64_bound = top <= INT64_COORD_LIMIT
        if check_general_position:
            witness = general_position_check(self)
            if witness is not None:
                raise GeneralPositionError(witness)

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(Point(x, y) for x, y in self.coords[i])
        return Point(*self.coords[i])

    def __iter__(self) -> Iterator[Point]:
        return (Point(x, y) for x, y in self.coords)

    def __eq__(self, other) -> bool:
        return isinstance(other, PointSet) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self) -> str:
        return f"PointSet({len(self.coords)} points)"


def general_position_check(points) -> tuple[int, ...] | None:
    """Return None if the set is in general position, else a witness.

    The witness is a duplicate index pair (i, j) or a collinear index triple
    (i, j, k), whichever is found first scanning in index order.

    A float filter, ``_tied_anchors``, picks the anchors that the exact scan
    ``_anchor_witness`` visits, in index order. It sorts the points by
    (x, y), so the slope dy/dx from a point towards any point after it has
    dx >= 0, and dx = 0 only with dy > 0: each direction has one quotient,
    +inf when vertical. Within ``COORD_LIMIT`` every difference is below
    2**33, so exact in float64, and a correctly rounded division maps equal
    directions to equal quotients, equal in float32 too. So a line through
    three or more points ties in the float32 row of its least point in
    (x, y) order, and all its points are in that row's float64 tied group.
    The anchors visited are the points of the tied groups; they include
    every anchor that starts a collinear triple, so the witness is the one
    a scan of every anchor finds. Beyond the limit every anchor is scanned.
    """
    if isinstance(points, PointSet):
        coords, xy = points.coords, points.xy
    else:
        coords = [(p.x, p.y) if isinstance(p, Point) else (int(p[0]), int(p[1])) for p in points]
        xy = None
        if all(abs(x) <= COORD_LIMIT and abs(y) <= COORD_LIMIT for x, y in coords):
            xy = np.array(coords, dtype=np.int64).reshape(len(coords), 2)
    seen: dict[tuple[int, int], int] = {}
    for i, c in enumerate(coords):
        if c in seen:
            return (seen[c], i)
        seen[c] = i
    n = len(coords)
    anchors = range(n - 2)
    if n >= 3 and xy is not None:
        anchors = _tied_anchors(xy.astype(np.float64))
    for i in anchors:
        witness = _anchor_witness(coords, i)
        if witness is not None:
            return witness
    return None


# Entries in one slab of ``_tied_anchors``' slope matrix, so that each of
# its temporaries stays near 64 KB as float64 (32 KB as float32).
_SLOPE_SLAB = 1 << 13


def _tied_anchors(xy) -> list[int]:
    # The indices, in increasing order, of the points of the tied groups of
    # distinct points ``xy``. Row s of the slope matrix holds the slopes
    # from point s in (x, y) order towards the points after it; a row whose
    # float32 slopes tie is flagged, and its tied group is s and the points
    # after it whose float64 slope ties, read off the slopes whose float32
    # value ties. Rows go in slabs against the columns from the slab's first
    # row on, so a row also holds its slopes towards the slab rows before
    # it, and NaN (0/0, never equal) towards itself; a tie there or in
    # float32 alone may flag a row whose tied group is empty, never hides one.
    n = len(xy)
    order = np.lexsort((xy[:, 1], xy[:, 0]))
    xs, ys = xy[order, 0], xy[order, 1]
    tied: set[int] = set()
    with np.errstate(divide="ignore", invalid="ignore"):
        i0 = 0
        while i0 < n - 2:
            i1 = min(n - 2, i0 + max(1, _SLOPE_SLAB // (n - i0 - 1)))
            q = ys[None, i0 + 1 :] - ys[i0:i1, None]
            q /= xs[None, i0 + 1 :] - xs[i0:i1, None]
            f = q.astype(np.float32)
            sf = np.sort(f, axis=1)
            for r in np.flatnonzero((sf[:, 1:] == sf[:, :-1]).any(axis=1)).tolist():
                # Row i0 + r; its slopes towards the points after it start at
                # column r, and only those whose float32 value ties can tie.
                near = np.sort(q[r, r:][np.isin(f[r, r:], sf[r, 1:][sf[r, 1:] == sf[r, :-1]])])
                group = np.isin(q[r, r:], near[1:][near[1:] == near[:-1]])
                if group.any():
                    tied.add(int(order[i0 + r]))
                    tied.update(order[i0 + r + 1 :][group].tolist())
            i0 = i1
    return sorted(tied)


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
    """Bitmask with bit v set for every vertex v of B, to intersect with a
    neighbour or successor bitmask."""
    mask = 0
    for v in B:
        mask |= 1 << v
    return mask


# Temporary bytes one slab of ``neighbour_masks`` or
# ``GeometricGraph.block_edge_counts`` may use.
_SLAB_BYTES = 1 << 22


def neighbour_masks(n: int, a: np.ndarray, b: np.ndarray) -> tuple[int, ...]:
    """One neighbour bitmask per vertex of an n-vertex graph whose edges are
    ``{a[k], b[k]}``, as ``GeometricGraph`` keeps them.

    The indices must lie in ``[0, n)`` with ``a[k] != b[k]``; an edge given
    twice sets the same bits again. Rows go in slabs of about
    ``_SLAB_BYTES`` booleans: each slab's bits are set at flat indices
    row * n + column and packed, little-endian, into an ``n x ceil(n/8)``
    byte array, so extra memory is O(E) plus one slab plus the n²/8 bytes;
    each row then becomes one Python int. The edge ends are sorted by row
    only when there is more than one slab.
    """
    width = (n + 7) // 8
    rows = max(1, _SLAB_BYTES // max(n, 1))
    u = np.concatenate((a, b))
    v = np.concatenate((b, a))
    if n > rows:
        order = np.argsort(u)
        u, v = u[order], v[order]
    packed = np.empty((n, width), dtype=np.uint8)
    for r0 in range(0, n, rows):
        r1 = min(n, r0 + rows)
        if n > rows:
            lo, hi = np.searchsorted(u, (r0, r1))
            su, sv = u[lo:hi] - r0, v[lo:hi]
        else:
            su, sv = u, v
        bits = np.zeros((r1 - r0) * n, dtype=bool)
        bits[su * n + sv] = True
        packed[r0:r1] = np.packbits(bits.reshape(r1 - r0, n), axis=1, bitorder="little")
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
        self.edge_count = sum(map(int.bit_count, adj)) // 2
        n = len(vertices)
        self.is_complete = self.edge_count == n * (n - 1) // 2

    @classmethod
    def complete(cls, vertices: PointSet) -> "GeometricGraph":
        full = (1 << len(vertices)) - 1
        return cls(vertices, tuple([full ^ (1 << i) for i in range(len(vertices))]))

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

    def block_edge_counts(self, row_blocks: Sequence[Sequence[int]], col_blocks: Sequence[Sequence[int]]) -> np.ndarray:
        """Edge counts between blocks of distinct vertices, as an int64
        array: entry ``[i, j]`` is the number of pairs ``(u, v)`` in
        ``row_blocks[i] x col_blocks[j]`` that are edges. A vertex shared
        by the two blocks is not its own neighbour.

        On a complete graph the counts follow from the block sizes and the
        vertices they share. On any other graph they take one numpy pass:
        each row vertex's bitmask is unpacked to n bits and summed over its
        block, then the column vertices are gathered and summed per block.
        Rows go in slabs, so the temporaries stay near ``_SLAB_BYTES``
        whatever n is.
        """
        if self.is_complete:
            col_masks = [vertex_mask(B) for B in col_blocks]
            counts = [
                [len(A) * len(B) - (a_mask & b_mask).bit_count() for B, b_mask in zip(col_blocks, col_masks)]
                for A, a_mask in zip(row_blocks, map(vertex_mask, row_blocks))
            ]
            return np.array(counts, dtype=np.int64).reshape(len(row_blocks), len(col_blocks))
        counts = np.zeros((len(row_blocks), len(col_blocks)), dtype=np.int64)
        # Empty column blocks count nothing and would break reduceat's runs.
        cols = [j for j, blk in enumerate(col_blocks) if len(blk)]
        if not cols:
            return counts
        col_v = np.array([v for j in cols for v in col_blocks[j]], dtype=np.intp)
        col_starts = np.cumsum([0] + [len(col_blocks[j]) for j in cols[:-1]])
        n = len(self.vertices)
        width = (n + 7) // 8
        adj = self._adj
        # Row blocks of one size are summed together by a reshape. A slab
        # holds whole blocks: their unpacked bits, then per block the int32
        # neighbour counts of every vertex and of the gathered columns. A
        # block too large for a slab is unpacked ``chunk`` rows at a time.
        chunk = max(1, _SLAB_BYTES // n)
        by_size: dict[int, list[int]] = {}
        for i, blk in enumerate(row_blocks):
            if len(blk):
                by_size.setdefault(len(blk), []).append(i)
        for size, ids in by_size.items():
            per = max(1, _SLAB_BYTES // (size * n + 4 * (n + len(col_v))))
            for b0 in range(0, len(ids), per):
                batch = ids[b0 : b0 + per]
                degree = 0  # degree[k, v]: neighbours of v in row block batch[k]
                for r0 in range(0, size, chunk):
                    rows = [u for i in batch for u in row_blocks[i][r0 : r0 + chunk]]
                    packed = np.frombuffer(b"".join(adj[u].to_bytes(width, "little") for u in rows), dtype=np.uint8)
                    bits = np.unpackbits(packed.reshape(len(rows), width), axis=1, count=n, bitorder="little")
                    degree = degree + bits.reshape(len(batch), -1, n).sum(axis=1, dtype=np.int32)
                counts[np.ix_(batch, cols)] = np.add.reduceat(degree[:, col_v], col_starts, axis=1, dtype=np.int64)
        return counts

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

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GeometricGraph)
            and self.vertices == other.vertices
            and self._adj == other._adj
        )

    def __repr__(self) -> str:
        kind = "complete" if self.is_complete else f"{self.edge_count} edges"
        return f"GeometricGraph({len(self.vertices)} vertices, {kind})"


def _segment_relation(s1: Segment, s2: Segment, V: PointSet, crossing: bool) -> bool:
    # Whether the segments cross (``crossing``) or avoid each other: c, d
    # on opposite sides of a->b and a, b of c->d, or each pair on one side.
    # Segments sharing an endpoint do neither. With u = b - a, v = d - c
    # and e = c - a, the four determinants are u x e, u x e + u x v, e x v
    # and e x v - u x v; two nonzero ints have opposite signs exactly when
    # their xor is negative.
    a, b = s1
    c, d = s2
    if a == b or c == d:
        raise ValueError("degenerate segment")
    if a == c or a == d or b == c or b == d:
        return False
    coords = V.coords
    (ax, ay), (bx, by), (cx, cy), (dx, dy) = coords[a], coords[b], coords[c], coords[d]
    ux, uy = bx - ax, by - ay
    vx, vy = dx - cx, dy - cy
    ex, ey = cx - ax, cy - ay
    w = ux * vy - uy * vx
    o1 = ux * ey - uy * ex
    o3 = ex * vy - ey * vx
    o2 = o1 + w
    o4 = o3 - w
    if not (o1 and o2 and o3 and o4):
        raise DegenerateInputError(
            f"collinear endpoints among segments {s1} and {s2}"
        )
    if crossing:
        return (o1 ^ o2) < 0 and (o3 ^ o4) < 0
    return (o1 ^ o2) >= 0 and (o3 ^ o4) >= 0


def segments_cross(s1: Segment, s2: Segment, V: PointSet) -> bool:
    """True iff the two open segments share a point.

    Segments sharing an endpoint never cross. Raises DegenerateInputError if
    any three of the four endpoints are collinear, since the answer would
    then depend on a convention rather than on general position.
    """
    return _segment_relation(s1, s2, V, True)


def segments_avoiding(s1: Segment, s2: Segment, V: PointSet) -> bool:
    """True iff each segment lies strictly on one side of the other's line.

    This is strictly stronger than disjointness. Segments sharing an endpoint
    are never avoiding. Degenerate (collinear) inputs raise, as for crossing.
    """
    return _segment_relation(s1, s2, V, False)


class FamilyMode(Enum):
    CROSSING = "crossing"
    AVOIDING = "avoiding"


def _relation(mode: FamilyMode):
    return segments_cross if mode is FamilyMode.CROSSING else segments_avoiding


def _first_edge(G: GeometricGraph, A, B) -> list[Segment]:
    e = next(G.edges_between(sorted(A), sorted(B)), None)
    return [] if e is None else [e]


def first_unrelated_pair(segs: Sequence[Segment], V: PointSet, crossing: bool) -> tuple[int, int] | None:
    """The first pair (i, j), i < j in row-major order, of segments that do
    not cross (``crossing``) or do not avoid each other; None when every
    pair does.

    The scalar reference: one ``segments_cross`` or ``segments_avoiding``
    call per pair, up to the first that fails, so it raises as they do at a
    degenerate pair that comes before it.
    """
    rel = segments_cross if crossing else segments_avoiding
    for i in range(len(segs) - 1):
        for j in range(i + 1, len(segs)):
            if not rel(segs[i], segs[j], V):
                return i, j
    return None


# Int64 entries in one row slab of ``first_unrelated_pair_int64``, so that
# each of its temporaries stays near 64 KB.
_FAMILY_SLAB = 1 << 13


def first_unrelated_pair_int64(segs: Sequence[Segment], V: PointSet, crossing: bool) -> tuple[int, int] | None:
    """``first_unrelated_pair`` in int64 numpy arithmetic, for ``V`` within
    the int64 bound (``V.within_int64_bound``); same arguments, same result.

    Rows of the pair matrix go in slabs, each against the segments from the
    slab's first row on. An entry holds the four determinants of
    ``_segment_relation`` for its pair: within the bound u x e, u x v
    and e x v are at most 2^61 in magnitude and their sums at most 2^62, so
    none overflows. An entry below the diagonal repeats the pair above it
    with its determinants swapped, so the first row with a failing entry
    has its first failing entry after the diagonal. A zero determinant off
    the diagonal, from a shared endpoint or three collinear endpoints,
    hands the whole family to ``first_unrelated_pair``: the pair returned,
    or the error raised, is always the scalar loop's. A family of fewer
    than two segments has no pair and builds no array.
    """
    f = len(segs)
    if f < 2:
        return None
    ends = np.array(segs, dtype=np.intp).reshape(f, 2)
    a = V.xy[ends[:, 0]]
    ax, ay = a.T
    ux, uy = (V.xy[ends[:, 1]] - a).T
    step = max(1, _FAMILY_SLAB // f)
    for i0 in range(0, f, step):
        i1 = min(f, i0 + step)
        rx, ry = ux[i0:i1, None], uy[i0:i1, None]
        cx, cy = ux[i0:], uy[i0:]
        # Row i, column j: u = b_i - a_i, v = b_j - a_j, e = a_j - a_i.
        ex = ax[i0:] - ax[i0:i1, None]
        ey = ay[i0:] - ay[i0:i1, None]
        w = rx * cy - ry * cx
        o1 = rx * ey - ry * ex
        o3 = ex * cy - ey * cx
        o2 = o1 + w
        o4 = o3 - w
        # Each row's own column is its one entry of zero determinants.
        zero = (o1 == 0) | (o2 == 0) | (o3 == 0) | (o4 == 0)
        if np.count_nonzero(zero) > i1 - i0:
            return first_unrelated_pair(segs, V, crossing)
        # Two nonzero determinants differ in sign iff their xor is negative.
        split_ab = (o1 ^ o2) < 0
        split_cd = (o3 ^ o4) < 0
        bad = ~(split_ab & split_cd) if crossing else split_ab | split_cd
        diag = np.arange(i1 - i0)
        bad[diag, diag] = False
        rows = np.flatnonzero(bad.any(axis=1))
        if len(rows):
            r = int(rows[0])
            return i0 + r, i0 + int(np.argmax(bad[r]))
    return None


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
