"""Relative orders on separated point sets and the chain machinery built on them.

For separated sets A and B, a point x of A precedes y (written here as
LESS under B) when all of B lies strictly to the left of the directed line
x -> y. This relation is a strict partial order; two points are incomparable
exactly when their line meets the convex hull of B.

Comparability is decided by a two-tangent test. Every point x of A lies
outside conv(B), because the sets are separated, so B is seen from x inside
a wedge narrower than a half-turn, bounded by two tangent vertices of the
hull. All of B lies strictly on one side of a line through x exactly when
both tangent vertices do. The reference, ``_compare_side``, is a scalar loop
on Python ints, exact over the whole coordinate range: one scan of the hull
per x finds its tangents, and each pair (x, y) then costs two orientation
signs. A tangent vertex on the line x -> y, a zero sign, happens only off
general position; the loop then hands the pair to ``_classify_pair``. That
scans the hull in order. It raises when it reaches a vertex on the line,
unless it has already seen vertices on both sides of the line: then it
returns INCOMPARABLE without reaching that vertex.

Under B the order on A is the intersection of two linear orders, which
the int64 kernel, ``_rank_int64``, finds by sorting. Rank the points x of
A by the counterclockwise angle of the direction from x to its first
tangent vertex, and apart by the angle to its last. Then x precedes y
exactly when x comes first in both rankings, and x, y are incomparable
exactly when the rankings disagree. Why: move the viewpoint from x to y
along their line. The direction to every hull vertex left of the line
turns counterclockwise, and to every vertex right of it clockwise. If all
of B is on the left, both tangent angles grow; on the right, both shrink.
If B is on both sides, the line meets the hull ahead of both points or
behind both (the hulls of A and B are disjoint), so one tangent stays on
each side of the line, and one angle grows while the other shrinks. All
these directions point from A to B, so they lie in one open half-plane,
and within ``geom.INT64_COORD_LIMIT`` an int64 cross product, at most
2^61, orders any two of them exactly; a float64 key that grows with the
angle sorts them, and the cross product of every pair of neighbours
checks the sort. A tangent vertex on a line through two points of A is a
supporting line of the hull through both, so it gives them parallel
tangent directions of the same kind: an exact tie between neighbours. A
tie, or a negative cross product from a float misorder, hands the whole
side to ``_compare_side``, so a degenerate input raises, or gives up at a
cap, exactly as the scalar loop does.

The kernel takes a batch of problems, each a side against the padded
edge arrays of a hull (``hull_edges``), and returns both orders of each;
``_side_tables`` then counts one side's incomparable pairs in row slabs,
giving up at a cap, and packs its tables. Sides of at least
``_INT64_MIN_SIDE`` and at most ``SIZE_CAP`` points within the int64
bound take it (``takes_int64_kernel``), others the scalar loop.
``_compare_side_int64`` is its one-problem case, which
``build_pair_poset`` and ``iota_sum_capped`` (the second leaves the tables
unpacked) call for each side; ``rank_pairs`` ranks many cluster pairs in
one batch for the pair scan and keeps each pair's orders in a
``RankedPair``, which gives the pair what those two give it.

The chain routines read each order as ``PairPoset`` holds it: every
element's bitmask of the elements it precedes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import chain
from math import comb
from typing import Mapping, Sequence

import numpy as np

from .errors import DegenerateInputError, HypothesisViolatedError, NotSeparatedError
from .geom import PointSet, _orient_coords, hull_coords, hull_coords_disjoint, vertex_mask

# Comparability tables are materialized in O(m^2); keep inputs cluster-sized.
SIZE_CAP = 4096

# Sides smaller than this are compared by the scalar loop. Measured on a
# shared 2-vCPU x86-64 machine with numpy 2.4, on random sides against
# hulls of about 10 vertices: the int64 kernel costs about 55 us a call on
# small sides and ties the scalar loop at about 16 points on a full table;
# at 24 it takes about half the scalar time on a full table, and still wins
# when a cap stops the scalar loop halfway.
_INT64_MIN_SIDE = 24
# Entries in one row slab of the int64 kernel: int64 tangent tests, so that
# each of their temporaries stays near 64 KB, or boolean rank comparisons.
_PAIR_SLAB = 1 << 13


class Cmp(Enum):
    LESS = "less"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"


def _classify_pair(xc, yc, hull_coords) -> Cmp:
    """Side of every hull vertex relative to the directed line x -> y.

    All strictly left means LESS, all strictly right means GREATER, a mix
    means INCOMPARABLE. A hull vertex exactly on the line is degenerate.
    """
    px, py = xc
    qx, qy = yc
    pos = neg = False
    for rx, ry in hull_coords:
        s = _orient_coords(px, py, qx, qy, rx, ry)
        if s == 0:
            raise DegenerateInputError(
                f"point ({rx}, {ry}) lies on the line through ({px}, {py}) and ({qx}, {qy})"
            )
        if s > 0:
            pos = True
        else:
            neg = True
        if pos and neg:
            return Cmp.INCOMPARABLE
    return Cmp.LESS if pos else Cmp.GREATER


@dataclass(frozen=True)
class PairPoset:
    """Comparability data for a separated pair of vertex-index sets.

    ``succ_a`` maps each vertex u of ``a`` to a bitmask over vertex indices:
    bit v is set when u is LESS than v relative to ``b``. A pair set in
    neither direction is incomparable. ``iota_a`` counts unordered
    incomparable pairs on the ``a`` side. ``succ_b`` and ``iota_b`` describe
    ``b`` alike.
    """

    a: tuple[int, ...]
    b: tuple[int, ...]
    succ_a: dict[int, int]
    succ_b: dict[int, int]
    iota_a: int
    iota_b: int

    def less_in_a(self, x: int, y: int) -> bool:
        return self.succ_a[x] >> y & 1 == 1

    def less_in_b(self, x: int, y: int) -> bool:
        return self.succ_b[x] >> y & 1 == 1

    @property
    def iota_sum(self) -> int:
        return self.iota_a + self.iota_b

    @property
    def is_zero_avoiding(self) -> bool:
        return self.iota_a == 0 and self.iota_b == 0


# Tangent sign pairs that stand for a verdict of the full hull scan, used
# when a tangent vertex lies on the line.
_TANGENT_SIGNS = {Cmp.LESS: (1, 1), Cmp.GREATER: (-1, -1), Cmp.INCOMPARABLE: (1, -1)}


def _compare_side(side, coords, hull, cap: int) -> tuple[dict[int, int], int] | None:
    """Compare every pair of ``side`` relative to ``hull`` by the two-tangent test.

    ``side`` holds indices into ``coords``; ``hull`` is the counterclockwise
    hull of the opposite set, which must not contain any point of ``side``.
    Returns each element's successor bitmask, with bit v of u's set when u
    is LESS than v, and the number of incomparable pairs; or None as soon
    as that number exceeds ``cap``.
    """
    iota = 0
    pts = [coords[v] for v in side]
    bits = [1 << v for v in side]
    succ = [0] * len(side)
    k = len(pts)
    for i in range(k - 1):
        px, py = pts[i]
        # Tangent vectors from x: every hull vertex lies clockwise of
        # (hx, hy) and counterclockwise of (lx, ly), or on their rays.
        hx, hy = lx, ly = hull[0][0] - px, hull[0][1] - py
        for rx, ry in hull:
            rx -= px
            ry -= py
            if hx * ry - hy * rx > 0:
                hx, hy = rx, ry
            if lx * ry - ly * rx < 0:
                lx, ly = rx, ry
        for j in range(i + 1, k):
            qx, qy = pts[j]
            dx = qx - px
            dy = qy - py
            s_hi = dx * hy - dy * hx
            s_lo = dx * ly - dy * lx
            if not (s_hi and s_lo):
                s_hi, s_lo = _TANGENT_SIGNS[_classify_pair(pts[i], pts[j], hull)]
            if s_hi * s_lo < 0:
                iota += 1
                if iota > cap:
                    return None
            elif s_hi > 0:
                succ[i] |= bits[j]
            else:
                succ[j] |= bits[i]
    return dict(zip(side, succ)), iota


def _pseudo_angle(dot, cross):
    """A float64 key that grows with the angle from a direction c to v,
    over the open interval from -pi to pi, given c . v and c x v.

    1 - dot / (|dot| + |cross|) grows from 0 to 2 as the angle's size
    grows from 0 to pi, and the sign of cross gives it the angle's sign.
    It takes only arithmetic the pipeline runs elsewhere, where an
    ``arctan2`` would map more of numpy's code into memory.
    """
    return np.sign(cross) * (1 - dot / (np.abs(dot) + np.abs(cross)))


def hull_edges(hulls) -> np.ndarray:
    """Vertex rows vx, vy and edge rows ex, ey, ec of counterclockwise
    hulls, one block per hull, w + 1 columns for the widest hull's w: (x, y)
    is strictly right of edge e when ex * y - ey * x < ec. Columns past a
    hull's own repeat its vertex 0 and edge 0, so a cyclic run of edges
    seeing a point still ends where it did, and starts there or at the
    first repeat, which stands for vertex 0."""
    sizes = [len(h) for h in hulls]
    Q, w = len(hulls), max(sizes) + 1
    # Each hull's vertices, then its vertex 0 up to column w.
    S = np.fromiter(
        chain.from_iterable(chain.from_iterable(h + h[:1] * (w + 1 - len(h)) for h in hulls)),
        dtype=np.int64,
        count=2 * Q * (w + 1),
    ).reshape(Q, w + 1, 2).transpose(0, 2, 1)
    out = np.empty((Q, 5, w), dtype=np.int64)
    out[:, :2] = S[..., :-1]
    edges = S[..., 1:] - S[..., :-1]
    out[:, 2:4] = np.where(np.arange(w) < np.array(sizes)[:, None, None], edges, edges[..., :1])
    vx, vy, ex, ey = out[:, 0], out[:, 1], out[:, 2], out[:, 3]
    out[:, 4] = ex * vy - ey * vx
    return out


def _rank_int64(V: PointSet, sides: np.ndarray, edges: np.ndarray):
    """Row q of ``sides`` (vertex indices of ``V``, all rows of one length
    k) against hull q of ``edges``, disjoint from it: returns (rows, p,
    exact), where ``rows[q]`` lists side q's positions by the angle to
    their first tangent, ``p[q, r]`` is row r's place by the angle to its
    last, and ``exact[q]`` is false when the sort met a tie or a misorder.

    A point's tangents end the cyclic run of hull edges that see it on
    their right. Angles are taken from the direction c of a problem's
    first tangent: coordinates of at most 2^30 keep every cross or dot
    product within 2^61, and ``_pseudo_angle`` (raised by 8 for the last
    tangents) sorts both orders in one stable argsort, checked by the int64
    cross product of neighbours. Temporaries go in slabs of about
    ``_PAIR_SLAB`` entries.
    """
    Q, k = sides.shape
    w = edges.shape[2]
    vx, vy, ex, ey, ec = (edges[:, r] for r in range(5))
    x = V.xy[sides, 0]
    y = V.xy[sides, 1]
    tangents = np.empty((Q, 2, k), dtype=np.intp)
    step = max(8, _PAIR_SLAB // (w - 1))
    qs, rs = max(1, step // k), min(k, step)
    for q0 in range(0, Q, qs):
        q = slice(q0, q0 + qs)
        for r0 in range(0, k, rs):
            r = slice(r0, r0 + rs)
            seen = ex[q, None] * y[q, r, None] - ey[q, None] * x[q, r, None] < ec[q, None]
            # Each point's edges in cyclic order, with one more column on
            # each side, to find where runs start and end. With no edge
            # seeing x (a hull of one point, or a segment hull on x's line),
            # vertex 0 and its successor are tangents all the same.
            ring = np.concatenate((seen[..., -1:], seen, seen[..., :1]), axis=2)
            tangents[q, 0, r] = np.argmax(seen > ring[..., :-2], axis=2)
            tangents[q, 1, r] = np.argmax(seen > ring[..., 2:], axis=2) + 1
    # Rows of the batch's arrays go one after another in the flat indices
    # below: problem q starts at q * w, q * 2k or q * k.
    first = np.arange(Q)[:, None]
    tangents += first[:, None] * w
    tx = (vx.ravel()[tangents] - x[:, None]).reshape(Q, 2 * k)
    ty = (vy.ravel()[tangents] - y[:, None]).reshape(Q, 2 * k)
    cx, cy = tx[:, :1], ty[:, :1]
    key = _pseudo_angle(cx * tx + cy * ty, cx * ty - cy * tx)
    key[:, k:] += 8
    # Stable, as ``clusters.build_clusters``' lexsort is, for the same
    # reason as ``_pseudo_angle``.
    order = key.argsort(axis=1, kind="stable")
    flat = order + first * (2 * k)
    ox = tx.ravel()[flat]
    oy = ty.ravel()[flat]
    cross = ox[:, :-1] * oy[:, 1:] - oy[:, :-1] * ox[:, 1:]
    # Column k - 1 pairs the last of one order with the first of the other.
    cross[:, k - 1] = 1
    exact = (cross > 0).all(axis=1).tolist()
    rows = order[:, :k]
    place = np.empty(Q * k, dtype=np.intp)
    place[flat[:, k:] - first * k - k] = np.arange(k)
    return rows, place[rows + first * k], exact


def _side_tables(side, rows, p, cap: int, tables: bool):
    """``_compare_side``'s result for ``side`` from its ``_rank_int64``
    orders ``rows`` and ``p``, or without ``tables`` its count alone.

    Row r is LESS than the rows after it that also come after it in the
    last order; every other pair is incomparable. Row slabs of about
    ``_PAIR_SLAB`` rank comparisons go through the side. After each slab
    the incomparable pairs with an end in the rows so far are known, so
    None is returned once they exceed ``cap``, never for a count of 0;
    with ``tables`` the slab's successor bits are set at bit positions
    v - base of a row, packed little-endian as ``neighbour_masks`` does,
    then shifted by base.
    """
    k = len(side)
    span = 0
    if tables:
        base = min(side) & ~7
        span = max(side) - base + 1
        width = (span + 7) // 8
        cols = np.array(side, dtype=np.intp)[rows] - base
        packed = np.empty((k, width), dtype=np.uint8)
    # A row holds up to k rank comparisons and span unpacked bits. At least
    # 8 rows, or the whole side, go in a slab: a large side then pays the
    # per-slab steps fewer times, for temporaries of 8 rows of k entries.
    step = min(k, max(8, _PAIR_SLAB // max(k, span // 8)))
    diagonal = np.arange(step)
    above = diagonal[:, None] < diagonal
    less = 0
    for i0 in range(0, k, step):
        i1 = min(k, i0 + step)
        after = p[i0:i1, None] < p[i0:]
        after[:, : i1 - i0] &= above[: i1 - i0, : i1 - i0]
        less += np.count_nonzero(after)
        iota = comb(k, 2) - comb(k - i1, 2) - less
        if iota > max(cap, 0):
            return None
        if tables:
            bits = np.zeros((i1 - i0, span), dtype=bool)
            bits[:, cols[i0:]] = after
            packed[rows[i0:i1]] = np.packbits(bits, axis=1, bitorder="little")
    if not tables:
        return iota
    buf = packed.tobytes()
    succ = [int.from_bytes(buf[r * width : (r + 1) * width], "little") << base for r in range(k)]
    return dict(zip(side, succ)), iota


def takes_int64_kernel(V: PointSet, k: int) -> bool:
    """Whether sides of k points of ``V`` go to the int64 kernel: at least
    ``_INT64_MIN_SIDE`` and at most ``SIZE_CAP`` of them, within the int64
    bound."""
    return V.within_int64_bound and _INT64_MIN_SIDE <= k <= SIZE_CAP


def _within_cap(compare, cap: int, tables: bool):
    """``compare(q, cap)`` for side q = 0, then 1, each given what side 0
    left of ``cap``: both sides' ``_compare_side`` results, or with
    ``tables`` false their counts; None as soon as one is None."""
    sides = []
    for q in range(2):
        result = compare(q, cap)
        if result is None:
            return None
        sides.append(result)
        cap -= result[1] if tables else result
    return sides


def _pair_poset(a, b, sides) -> PairPoset | None:
    """The ``PairPoset`` of two sides' ``_compare_side`` results, if any."""
    if sides is None:
        return None
    (succ_a, iota_a), (succ_b, iota_b) = sides
    return PairPoset(a, b, succ_a, succ_b, iota_a, iota_b)


@dataclass(frozen=True)
class RankedPair:
    """A separated pair of sides with the ``_rank_int64`` orders (rows, p)
    of each side against the other's hull. ``poset`` and
    ``iota_sum_capped`` give what ``build_pair_poset`` and
    ``iota_sum_capped`` give the pair, with the same caps, from the
    orders."""

    a: tuple[int, ...]
    b: tuple[int, ...]
    rank_a: tuple
    rank_b: tuple

    def _compare(self, cap: int | None, tables: bool):
        if cap is None:
            cap = len(self.a) ** 2 + len(self.b) ** 2
        sides = ((self.a, self.rank_a), (self.b, self.rank_b))
        return _within_cap(lambda q, cap: _side_tables(sides[q][0], *sides[q][1], cap, tables), cap, tables)

    def poset(self, cap: int | None = None) -> PairPoset | None:
        return _pair_poset(self.a, self.b, self._compare(cap, True))

    def iota_sum_capped(self, cap: int) -> int | None:
        sides = self._compare(cap, False)
        return None if sides is None else sum(sides)


def rank_pairs(V: PointSet, sides, edges: np.ndarray, pairs) -> list[RankedPair | None]:
    """Each pair (i, j) of ``pairs`` in one ``_rank_int64`` batch, side i
    against hull j of ``edges`` and side j against hull i: a
    ``RankedPair``, or None where a sort met a tie or a misorder. The
    sides must have one length, take the kernel and be separated; the
    caller bounds the batch, whose arrays hold a few entries per point."""
    if not pairs:
        return []
    problems = np.array(pairs, dtype=np.intp)
    rows, p, exact = _rank_int64(
        V, np.array([sides[h] for h in problems.ravel()], dtype=np.intp), edges[problems[:, ::-1].ravel()]
    )
    return [
        RankedPair(sides[i], sides[j], (rows[2 * t], p[2 * t]), (rows[2 * t + 1], p[2 * t + 1]))
        if exact[2 * t] and exact[2 * t + 1]
        else None
        for t, (i, j) in enumerate(pairs)
    ]


def _compare_side_int64(side, V: PointSet, hull, cap: int, tables: bool = True):
    """``_compare_side`` by the int64 kernel, for ``V`` within the int64
    bound; same arguments but ``V`` for ``coords``, same result, or the
    count alone without ``tables``. An exact tie or a float misorder hands
    the side to ``_compare_side``, so a degenerate input raises, or gives
    up at the cap, exactly as the scalar loop does."""
    rows, p, exact = _rank_int64(V, np.array([side], dtype=np.intp), hull_edges([hull]))
    if exact[0]:
        return _side_tables(side, rows[0], p[0], cap, tables)
    table = _compare_side(side, V.coords, hull, cap)
    return table if tables or table is None else table[1]


def _compare_pair(A, B, V: PointSet, hull_a, hull_b, cap: int | None, tables: bool):
    """The work of ``build_pair_poset`` (``tables``) or ``iota_sum_capped``:
    the argument and disjointness checks, then each side against the other
    side's hull. Returns both sides' ``_compare_side`` results, or with
    ``tables`` false their incomparable counts; None once the two counts
    together exceed ``cap``.
    """
    a = tuple(A)
    b = tuple(B)
    if not a or not b:
        raise ValueError("both sides must be nonempty")
    if set(a) & set(b):
        raise ValueError("sides must be disjoint index sets")
    if len(a) > SIZE_CAP or len(b) > SIZE_CAP:
        raise ValueError(f"side exceeds the comparability table cap ({SIZE_CAP})")
    coords = V.coords
    if hull_a is None:
        hull_a = hull_coords(coords[i] for i in a)
    if hull_b is None:
        hull_b = hull_coords(coords[i] for i in b)
    if not hull_coords_disjoint(hull_a, hull_b):
        raise NotSeparatedError("convex hulls of the two sides intersect")
    if cap is None:
        # Fewer than len(a)**2 + len(b)**2 pairs exist, so this cap never binds.
        cap = len(a) ** 2 + len(b) ** 2
    sides = ((a, hull_b), (b, hull_a))

    def compare(q, cap):
        side, other_hull = sides[q]
        if takes_int64_kernel(V, len(side)):
            return _compare_side_int64(side, V, other_hull, cap, tables)
        result = _compare_side(side, coords, other_hull, cap)
        return result if tables or result is None else result[1]

    return _within_cap(compare, cap, tables)


def build_pair_poset(A, B, V: PointSet, hull_a=None, hull_b=None, cap: int | None = None) -> PairPoset | None:
    """Construct the full comparability tables for both sides of a pair.

    Each side is compared against the opposite side's convex hull by the
    two-tangent test: in int64 arrays for a side of at least
    ``_INT64_MIN_SIDE`` points within the int64 bound, else by the scalar
    loop, with one result either way. Raises NotSeparatedError when the
    hulls intersect, since the test is meaningless otherwise. Callers that
    already hold each side's ``hull_coords`` pass them as ``hull_a`` and
    ``hull_b``; the disjointness check runs on them all the same.

    With a ``cap``, returns None as soon as the incomparable pairs of both
    sides together exceed it, so tangled pairs are rejected before their
    tables are finished; any poset returned is the one built without a
    cap. The argument checks, the disjointness check and the degeneracy
    check of a tangent vertex on a line run with or without a cap.
    """
    a = tuple(A)
    b = tuple(B)
    return _pair_poset(a, b, _compare_pair(a, b, V, hull_a, hull_b, cap, True))


def iota_sum_capped(A, B, V: PointSet, cap: int, hull_a=None, hull_b=None) -> int | None:
    """Incomparable-pair count over both sides, or None once it exceeds cap.

    The count of ``build_pair_poset`` with the same arguments, found by the
    same checks and the same kernels with the successor bits left unpacked:
    it is None exactly when that build returns None, and it raises exactly
    when that build raises. The pair scan ranks candidate pairs that miss
    edges by it and builds the tables of the one pair it returns.
    """
    sides = _compare_pair(A, B, V, hull_a, hull_b, cap, False)
    return None if sides is None else sum(sides)


@dataclass(frozen=True)
class Chain:
    """Ordered disjoint blocks, each entirely below the next."""

    blocks: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.blocks)


def _predecessor_masks(items: Sequence[int], later: Sequence[int]) -> list[int]:
    """Transpose of the successor masks: ``pred[p]`` is the bitmask over
    positions i of the items with bit ``items[p]`` set in ``later[i]``.

    The masks are unpacked to bits, little-endian, from the lowest multiple
    of 8 at or below the least item, in slabs of at least 8 rows and about
    64 KB of bits; the items' columns are gathered and the transposed slab
    is packed into bytes of each ``pred`` row.
    """
    N = len(items)
    base = min(items) & ~7
    span = max(items) - base + 1
    width = (span + 7) // 8
    cols = np.array(items, dtype=np.intp) - base
    packed = np.zeros((N, (N + 7) // 8), dtype=np.uint8)
    step = max(8, (8 * _PAIR_SLAB // span) & ~7)
    for r0 in range(0, N, step):
        rows = later[r0 : r0 + step]
        raw = np.frombuffer(b"".join((s >> base).to_bytes(width, "little") for s in rows), dtype=np.uint8)
        bits = np.unpackbits(raw.reshape(len(rows), width), axis=1, count=span, bitorder="little")
        packed[:, r0 // 8 : (r0 + len(rows) + 7) // 8] = np.packbits(bits[:, cols].T, axis=1, bitorder="little")
    buf = packed.tobytes()
    w = packed.shape[1]
    return [int.from_bytes(buf[p * w : (p + 1) * w], "little") for p in range(N)]


def interval_chains(elements: Sequence[int], succ: Mapping[int, int], n: int, k: int) -> Chain:
    """Extract k blocks of n elements, blockwise totally ordered.

    ``succ`` maps each element (a non-negative int) to the bitmask of the
    elements it precedes, as ``PairPoset.succ_a`` does; bits of anything
    outside ``elements`` are ignored. The construction drops every element
    incomparable to too many others, linearly extends the rest (ties broken
    by position in ``elements``), and takes k intervals of length n
    separated by a fixed buffer of skipped elements. Requires |P| > nk and
    16k * iota <= (|P| - nk)^2; otherwise raises HypothesisViolatedError
    carrying the offending quantities before any pairwise work.
    """
    items = list(elements)
    N = len(items)
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    mask = vertex_mask(items)
    later = [succ[x] & mask for x in items]
    iota = comb(N, 2) - sum(s.bit_count() for s in later)
    slack = N - n * k
    if slack <= 0 or 16 * k * iota > slack * slack:
        raise HypothesisViolatedError(N, n, k, iota)

    # pred[i]: bitmask over positions of the elements below items[i].
    pred = _predecessor_masks(items, later)

    # Keep elements with |I_x| < T where T = slack / (4k), compared exactly.
    inc_count = [N - 1 - later[i].bit_count() - pred[i].bit_count() for i in range(N)]
    rest = vertex_mask(i for i in range(N) if inc_count[i] * 4 * k < slack)

    # Topological order of the kept elements, ties by position: each step
    # takes the lowest kept position with no kept predecessor left.
    order: list[int] = []
    while rest:
        waiting = rest
        i = (waiting & -waiting).bit_length() - 1
        while pred[i] & rest:
            waiting &= waiting - 1
            assert waiting, "comparability tables are not acyclic"
            i = (waiting & -waiting).bit_length() - 1
        order.append(i)
        rest ^= 1 << i

    buffer = slack // (2 * k)  # floor(2T)
    blocks = [tuple(items[i] for i in order[b * (n + buffer) :][:n]) for b in range(k)]
    assert all(len(blk) == n for blk in blocks), "kept set too small for the intervals"

    if __debug__:
        above = 0
        for blk in reversed(blocks):
            assert all(succ[u] & above == above for u in blk), "interval blocks are not totally ordered"
            above |= vertex_mask(blk)
    return Chain(tuple(blocks))


def longest_chain(succ: Mapping[int, int]) -> list[int]:
    """A maximum-length chain of a strict partial order.

    ``succ`` maps each element (a non-negative int) to the bitmask of the
    elements it precedes; bits of anything outside its keys are ignored.
    The relation must be irreflexive and transitive. Among maximum chains
    the lexicographically smallest element sequence is returned.
    """
    keys = vertex_mask(succ)
    succ = {x: s & keys for x, s in succ.items()}
    # levels[h]: the elements whose longest chain upwards has h + 1
    # elements. By transitivity the successors of x meet exactly the levels
    # below its own, so bisection finds it once every successor is placed;
    # successors have fewer successors, so they come first in this order.
    levels: list[int] = []
    for x in sorted(succ, key=lambda x: succ[x].bit_count()):
        lo, hi = 0, len(levels)
        while lo < hi:
            mid = (lo + hi) // 2
            if succ[x] & levels[mid]:
                lo = mid + 1
            else:
                hi = mid
        if lo == len(levels):
            levels.append(0)
        levels[lo] |= 1 << x
    chain: list[int] = []
    candidates = keys
    for level in reversed(levels):
        low = candidates & level
        chain.append((low & -low).bit_length() - 1)
        candidates = succ[chain[-1]]
    return chain
