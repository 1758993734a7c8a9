"""Relative orders on separated point sets and the chain machinery built on them.

For separated sets A and B, a point x of A precedes y (written here as
LESS under B) when all of B lies strictly to the left of the directed line
x -> y. This relation is a strict partial order; two points are incomparable
exactly when their line meets the convex hull of B.

Comparability is decided by a two-tangent test. Every point x of A lies
outside conv(B), because the sets are separated, so B is seen from x inside
a wedge narrower than a half-turn, bounded by two tangent vertices of the
hull. All of B lies strictly on one side of a line through x exactly when
both tangent vertices do. One scan of the hull per x finds its tangents;
each pair (x, y) then costs two orientation signs instead of one per hull
vertex. The arithmetic is on Python ints, so it is exact over the whole
coordinate range. A tangent vertex on the line x -> y happens only off
general position; such a pair is handed to ``_classify_pair``, which scans
the hull in order. It raises when it reaches a vertex on the line, unless
it has already seen vertices on both sides of the line: then it returns
INCOMPARABLE without reaching that vertex.

``build_pair_poset`` is the one way in to the kernel. Given a cap, it gives
up as soon as the incomparable pairs exceed it: the pair scan and the split
reject tangled pairs so, and keep the tables of the pairs they accept.

The chain routines read each order as ``PairPoset`` holds it: every
element's bitmask of the elements it precedes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import comb
from typing import Mapping, Sequence

from .errors import DegenerateInputError, HypothesisViolatedError, NotSeparatedError
from .geom import Point, PointSet, _orient_coords, convex_hull, hull_coords, hull_coords_disjoint, vertex_mask

# Comparability tables are materialized in O(m^2); keep inputs cluster-sized.
SIZE_CAP = 4096


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


def build_pair_poset(A, B, V: PointSet, hull_a=None, hull_b=None, cap: int | None = None) -> PairPoset | None:
    """Construct the full comparability tables for both sides of a pair.

    Each side is compared against the opposite side's convex hull by the
    two-tangent test. Raises NotSeparatedError when the hulls intersect,
    since the test is meaningless otherwise. Callers that already hold each
    side's ``hull_coords`` pass them as ``hull_a`` and ``hull_b``; the
    disjointness check runs on them all the same.

    With a ``cap``, returns None as soon as the incomparable pairs of both
    sides together exceed it, so tangled pairs are rejected before their
    tables are finished; any poset returned is the one built without a
    cap. The argument checks, the disjointness check and the degeneracy
    check of a tangent vertex on a line run with or without a cap.
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
    tables = []
    for side, other_hull in ((a, hull_b), (b, hull_a)):
        table = _compare_side(side, coords, other_hull, cap)
        if table is None:
            return None
        tables.append(table)
        cap -= table[1]
    (succ_a, iota_a), (succ_b, iota_b) = tables
    return PairPoset(a, b, succ_a, succ_b, iota_a, iota_b)


def iota_sum_capped(A, B, V: PointSet, cap: int, hull_a=None, hull_b=None) -> int | None:
    """Incomparable-pair count over both sides, or None once it exceeds cap.

    A library wrapper over ``build_pair_poset`` with a cap; no pipeline
    module calls it. It is kept so that lookups of the pipeline's layers by
    name, such as the benchmark's tracer, still find it.
    """
    P = build_pair_poset(A, B, V, hull_a, hull_b, cap)
    return None if P is None else P.iota_sum


@dataclass(frozen=True)
class Chain:
    """Ordered disjoint blocks, each entirely below the next."""

    blocks: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.blocks)


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
    pos = {x: i for i, x in enumerate(items)}
    pred = [0] * N
    for i, s in enumerate(later):
        while s:
            low = s & -s
            pred[pos[low.bit_length() - 1]] |= 1 << i
            s ^= low

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
