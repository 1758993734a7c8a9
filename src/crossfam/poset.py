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
``_compare_side_int64`` finds by sorting. Rank the points x of A by the
counterclockwise angle of the direction from x to its first tangent vertex,
and apart by the angle to its last. Then x precedes y exactly when x comes
first in both rankings, and x, y are incomparable exactly when the rankings
disagree. Why: move the viewpoint from x to y along their line. The
direction to every hull vertex left of the line turns counterclockwise, and
to every vertex right of it clockwise. If all of B is on the left, both
tangent angles grow; on the right, both shrink. If B is on both sides, the
line meets the hull ahead of both points or behind both (the hulls of A and
B are disjoint), so one tangent stays on each side of the line, and one
angle grows while the other shrinks. All these directions point from A to
B, so they lie in one open half-plane, and within ``geom.INT64_COORD_LIMIT``
an int64 cross product, at most 2^61, orders any two of them exactly; a
float64 key that grows with the angle sorts them, and the cross product of
every pair of neighbours checks the sort. A tangent vertex on a line through two points of A is a supporting
line of the hull through both, so it gives them parallel tangent directions
of the same kind: an exact tie between neighbours. A tie, or a negative
cross product from a float misorder, hands the whole side to
``_compare_side``, so a degenerate input raises, or gives up at a cap,
exactly as the scalar loop does. ``build_pair_poset`` sends the kernel
every side of at least ``_INT64_MIN_SIDE`` points whose point set lies
within the int64 bound; smaller sides and larger coordinates take the
scalar loop.

Two functions lead into the kernel, through one private path with one set
of checks. ``build_pair_poset`` builds both sides' tables; given a cap, it
gives up as soon as the incomparable pairs exceed it, and the theory
recursion's split rejects tangled block pairs so. ``iota_sum_capped`` gives
the same count, or the same None, without packing successor bits: the pair
scan ranks its candidates missing edges by it, and its complete candidates
by a capped build whose tables it keeps.

The chain routines read each order as ``PairPoset`` holds it: every
element's bitmask of the elements it precedes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import comb
from typing import Mapping, Sequence

import numpy as np

from .errors import DegenerateInputError, HypothesisViolatedError, NotSeparatedError
from .geom import Point, PointSet, _orient_coords, convex_hull, hull_coords, hull_coords_disjoint, vertex_mask

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


def less_under(x: Point, y: Point, B) -> Cmp:
    """Compare x against y relative to the point collection B."""
    if x == y:
        raise ValueError("less_under requires distinct points")
    hull = convex_hull(list(B))
    if not hull:
        raise ValueError("B must be nonempty")
    return _classify_pair((x.x, x.y), (y.x, y.y), [(p.x, p.y) for p in hull])


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


def _tangent_orders(tx, ty):
    """Both rows of directions (tx, ty) in counterclockwise order: the
    first row's column indices, sorted, then the second's; or None unless
    both orders are strict and exact.

    All directions must lie in one open half-plane, with coordinates of
    at most 2^30, so that every cross or dot product below is at most 2^61
    in magnitude, and the sum of two at most 2^62. Then the angle from the
    first direction c to any other lies strictly between -pi and pi, and
    it grows with the counterclockwise order. The ``_pseudo_angle`` of
    that angle, from the exact int64 cross and dot products with c and
    raised by 8 (more than its range) on the second row, sorts both rows
    in one argsort; then the int64 cross product of every pair of
    neighbours in a row must be positive. Zero is an exact tie, negative a
    float misorder.
    """
    k = tx.shape[1]
    cx, cy = tx[0, 0], ty[0, 0]
    key = _pseudo_angle(cx * tx + cy * ty, cx * ty - cy * tx)
    key[1] += 8
    # Stable, as ``clusters.build_clusters``' lexsort is, for the same
    # reason as ``_pseudo_angle``.
    order = key.argsort(axis=None, kind="stable")
    ox = tx.ravel()[order]
    oy = ty.ravel()[order]
    cross = ox[:-1] * oy[1:] - oy[:-1] * ox[1:]
    # Entry k - 1 pairs the last of one row with the first of the other.
    cross[k - 1 : k] = 1
    if np.count_nonzero(cross <= 0):
        return None
    order[k:] -= k
    return order


def _compare_side_int64(side, V: PointSet, hull, cap: int, tables: bool = True):
    """``_compare_side`` in int64 numpy arithmetic, for ``V`` within the
    int64 bound (``V.within_int64_bound``) and a side whose hull is disjoint
    from ``hull``; same arguments but ``V`` for ``coords``, same result.
    With ``tables`` false the successor bits are not packed, and the result
    is the incomparable count alone, or None.

    The side's tangent vertices are found in row slabs: for each point x,
    the hull edges that see x strictly on their right form one run, and
    its two ends are x's tangent vertices. ``_tangent_orders`` sorts the
    directions from the side to its first tangents, and apart to its last;
    x is LESS than y exactly when x comes first in both orders, and the
    pair is incomparable when the orders disagree. Row slabs of
    ``_PAIR_SLAB`` rank comparisons then go through the side in the first
    order. After each slab the incomparable pairs with an end in the rows
    so far are known, so None is returned once they exceed ``cap``, never
    for a count of 0; and the slab's successor bits are packed. An exact
    tie or a float misorder hands the whole side to ``_compare_side``, so
    a degenerate input raises, or gives up at the cap, exactly as the
    scalar loop does.
    """
    k = len(side)
    idx = np.array(side, dtype=np.intp)
    xy = V.xy[idx]
    H = np.array(hull + hull[:1], dtype=np.int64)
    hx, hy = H[:-1, 0], H[:-1, 1]
    m = len(hx)
    # Edge e runs from hull vertex e to e + 1; (x, y) is strictly right of
    # it when ex * y - ey * x < ec.
    ex, ey = (H[1:] - H[:-1]).T
    ec = ex * hy - ey * hx
    tangents = np.empty((2, k), dtype=np.intp)
    step = max(8, _PAIR_SLAB // m)
    for i0 in range(0, k, step):
        seen = ex * xy[i0 : i0 + step, 1:] - ey * xy[i0 : i0 + step, :1] < ec
        # Columns -1 .. m of the edges' cyclic order, to find where runs
        # start and end. With no edge seeing x (a hull of one point, or a
        # segment hull on x's line), vertex 0 and its successor are
        # tangents all the same.
        ring = np.concatenate((seen[:, -1:], seen, seen[:, :1]), axis=1)
        tangents[0, i0 : i0 + step] = np.argmax(seen > ring[:, :-2], axis=1)
        tangents[1, i0 : i0 + step] = (np.argmax(seen > ring[:, 2:], axis=1) + 1) % m
    order = _tangent_orders(hx[tangents] - xy[:, 0], hy[tangents] - xy[:, 1])
    if order is None:
        table = _compare_side(side, V.coords, hull, cap)
        return table if tables or table is None else table[1]
    # Row r is the side's r-th point in the first order, and p[r] its
    # place in the last order; it is LESS than the points after it in the
    # first order that also come after it in the last.
    rows = order[:k]
    p = np.empty(k, dtype=np.intp)
    p[order[k:]] = np.arange(k)
    p = p[rows]
    # Successor bits are set at bit positions v - base of a row, packed
    # little-endian as ``neighbour_masks`` does, then shifted by base.
    base = min(side) & ~7
    span = max(side) - base + 1
    width = (span + 7) // 8
    cols = idx[rows] - base
    # A row holds up to k rank comparisons and span unpacked bits. At least
    # 8 rows, or the whole side, go in a slab: a large side then pays the
    # per-slab steps fewer times, for temporaries of 8 rows of k entries.
    step = min(k, max(8, _PAIR_SLAB // max(k, span // 8)))
    diagonal = np.arange(step)
    above = diagonal[:, None] < diagonal
    packed = np.empty((k, width), dtype=np.uint8) if tables else None
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
    sides = []
    for side, other_hull in ((a, hull_b), (b, hull_a)):
        if V.within_int64_bound and len(side) >= _INT64_MIN_SIDE:
            result = _compare_side_int64(side, V, other_hull, cap, tables)
        else:
            result = _compare_side(side, coords, other_hull, cap)
            if result is not None and not tables:
                result = result[1]
        if result is None:
            return None
        sides.append(result)
        cap -= result[1] if tables else result
    return sides


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
    sides = _compare_pair(a, b, V, hull_a, hull_b, cap, True)
    if sides is None:
        return None
    (succ_a, iota_a), (succ_b, iota_b) = sides
    return PairPoset(a, b, succ_a, succ_b, iota_a, iota_b)


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
