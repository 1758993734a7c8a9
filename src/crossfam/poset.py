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
the whole hull and raises.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

from .errors import DegenerateInputError, HypothesisViolatedError, NotSeparatedError
from .geom import Point, PointSet, _orient_coords, convex_hull, hull_coords, hulls_disjoint

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

    ``less_a`` holds ordered pairs (u, v) of indices of ``a`` with u LESS v
    relative to ``b``; absent in both directions means incomparable.
    ``iota_a`` counts unordered incomparable pairs on the ``a`` side.
    """

    a: tuple[int, ...]
    b: tuple[int, ...]
    less_a: frozenset[tuple[int, int]]
    less_b: frozenset[tuple[int, int]]
    iota_a: int
    iota_b: int

    def cmp_ab(self, x: int, y: int) -> Cmp:
        if (x, y) in self.less_a:
            return Cmp.LESS
        if (y, x) in self.less_a:
            return Cmp.GREATER
        return Cmp.INCOMPARABLE

    def cmp_ba(self, x: int, y: int) -> Cmp:
        if (x, y) in self.less_b:
            return Cmp.LESS
        if (y, x) in self.less_b:
            return Cmp.GREATER
        return Cmp.INCOMPARABLE

    def less_in_a(self, x: int, y: int) -> bool:
        return (x, y) in self.less_a

    def less_in_b(self, x: int, y: int) -> bool:
        return (x, y) in self.less_b

    @property
    def iota_sum(self) -> int:
        return self.iota_a + self.iota_b

    @property
    def is_zero_avoiding(self) -> bool:
        return self.iota_a == 0 and self.iota_b == 0


# Tangent sign pairs that stand for a verdict of the full hull scan, used
# when a tangent vertex lies on the line.
_TANGENT_SIGNS = {Cmp.LESS: (1, 1), Cmp.GREATER: (-1, -1), Cmp.INCOMPARABLE: (1, -1)}


def _compare_side(side, coords, hull, cap: int, less: set | None = None) -> int | None:
    """Compare every pair of ``side`` relative to ``hull`` by the two-tangent test.

    ``side`` holds indices into ``coords``; ``hull`` is the counterclockwise
    hull of the opposite set, which must not contain any point of ``side``.
    Pairs (u, v) with u LESS v are added to ``less`` when it is given.
    Returns the number of incomparable pairs, or None as soon as it exceeds
    ``cap``.
    """
    iota = 0
    pts = [coords[v] for v in side]
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
            elif less is not None:
                less.add((side[i], side[j]) if s_hi > 0 else (side[j], side[i]))
    return iota


def build_pair_poset(A, B, V: PointSet, *, check_separated: bool = True) -> PairPoset:
    """Construct the full comparability tables for both sides of a pair.

    Each side is compared against the opposite side's convex hull by the
    two-tangent test. Raises NotSeparatedError when the hulls intersect;
    ``check_separated=False`` is only for sides already known to be
    separated, since the test is meaningless otherwise.
    """
    a = tuple(A)
    b = tuple(B)
    if not a or not b:
        raise ValueError("both sides must be nonempty")
    if set(a) & set(b):
        raise ValueError("sides must be disjoint index sets")
    if len(a) > SIZE_CAP or len(b) > SIZE_CAP:
        raise ValueError(f"side exceeds the comparability table cap ({SIZE_CAP})")
    if check_separated and not hulls_disjoint([V[i] for i in a], [V[i] for i in b]):
        raise NotSeparatedError("convex hulls of the two sides intersect")
    coords = V.coords
    tables = []
    for side, other in ((a, b), (b, a)):
        # Filled as a set: a frozenset copied from a set gets a smaller table
        # than one built from a list. A side of k points has fewer than k**2
        # pairs, so this cap never binds.
        less: set[tuple[int, int]] = set()
        iota = _compare_side(side, coords, hull_coords(coords[i] for i in other), len(side) ** 2, less)
        tables.append((frozenset(less), iota))
    (less_a, iota_a), (less_b, iota_b) = tables
    return PairPoset(a, b, less_a, less_b, iota_a, iota_b)


def iota_sum_capped(A, B, V: PointSet, cap: int, hull_a=None, hull_b=None) -> int | None:
    """Incomparable-pair count over both sides, or None once it exceeds cap.

    Used by pair scanners to reject tangled pairs early without building the
    full tables. The sides must be separated. Callers that scan many pairs
    pass each side's ``hull_coords`` as ``hull_a`` and ``hull_b`` so hulls are
    built once per set rather than once per pair.
    """
    coords = V.coords
    if hull_a is None:
        hull_a = hull_coords(coords[i] for i in A)
    if hull_b is None:
        hull_b = hull_coords(coords[i] for i in B)
    iota_a = _compare_side(tuple(A), coords, hull_b, cap)
    if iota_a is None:
        return None
    iota_b = _compare_side(tuple(B), coords, hull_a, cap - iota_a)
    if iota_b is None:
        return None
    return iota_a + iota_b


@dataclass(frozen=True)
class Chain:
    """Ordered disjoint blocks, each entirely below the next."""

    blocks: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.blocks)


def interval_chains(elements: Sequence, less: Callable, n: int, k: int) -> Chain:
    """Extract k blocks of n elements, blockwise totally ordered.

    The construction drops every element incomparable to too many others,
    linearly extends the rest (ties broken by original position), and takes
    k intervals of length n separated by a fixed buffer of skipped elements.
    Requires |P| > nk and 16k * iota <= (|P| - nk)^2; otherwise raises
    HypothesisViolatedError carrying the offending quantities.
    """
    items = list(elements)
    N = len(items)
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")

    # Pairwise comparability; cmp[i][j] True when items[i] < items[j].
    inc_count = [0] * N
    lt = [[False] * N for _ in range(N)]
    iota = 0
    for i in range(N - 1):
        for j in range(i + 1, N):
            if less(items[i], items[j]):
                lt[i][j] = True
            elif less(items[j], items[i]):
                lt[j][i] = True
            else:
                iota += 1
                inc_count[i] += 1
                inc_count[j] += 1

    slack = N - n * k
    if slack <= 0 or 16 * k * iota > slack * slack:
        raise HypothesisViolatedError(N, n, k, iota)

    # Keep elements with |I_x| < T where T = slack / (4k), compared exactly.
    q_idx = [i for i in range(N) if inc_count[i] * 4 * k < slack]

    # Stable topological order of the kept elements, ties by original index.
    pos_in_q = {v: i for i, v in enumerate(q_idx)}
    indeg = [0] * len(q_idx)
    succs: list[list[int]] = [[] for _ in q_idx]
    for qi, i in enumerate(q_idx):
        for qj, j in enumerate(q_idx):
            if lt[i][j]:
                succs[qi].append(qj)
                indeg[qj] += 1
    ready = [i for i in range(len(q_idx)) if indeg[i] == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        cur = heapq.heappop(ready)
        order.append(q_idx[cur])
        for nxt in succs[cur]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                heapq.heappush(ready, nxt)
    assert len(order) == len(q_idx), "comparability tables are not acyclic"

    buffer = slack // (2 * k)  # floor(2T)
    blocks = []
    for b in range(k):
        start = b * (n + buffer)
        blocks.append(tuple(items[i] for i in order[start : start + n]))
    assert all(len(blk) == n for blk in blocks), "kept set too small for the intervals"

    if __debug__:
        for bi in range(k - 1):
            for bj in range(bi + 1, k):
                for u in blocks[bi]:
                    for v in blocks[bj]:
                        assert less(u, v), "interval blocks are not totally ordered"
    return Chain(tuple(blocks))


def longest_chain(items: Sequence, dominates: Callable) -> list:
    """A maximum-length chain under a strict partial order.

    ``dominates(a, b)`` must be irreflexive and transitive, with True meaning
    a precedes b. Among maximum chains the lexicographically smallest index
    sequence is returned.
    """
    n = len(items)
    if n == 0:
        return []
    dom = [[dominates(items[i], items[j]) for j in range(n)] for i in range(n)]
    # Transitivity makes "number of dominators" a valid topological height.
    ndom = [sum(dom[j][i] for j in range(n)) for i in range(n)]
    topo = sorted(range(n), key=lambda i: (ndom[i], i))
    suffix = [1] * n
    for i in reversed(topo):
        best = 0
        for j in range(n):
            if dom[i][j] and suffix[j] > best:
                best = suffix[j]
        suffix[i] = 1 + best
    total = max(suffix)
    chain: list[int] = []
    need = total
    candidates = range(n)
    while need > 0:
        pick = min(
            i
            for i in candidates
            if suffix[i] == need and (not chain or dom[chain[-1]][i])
        )
        chain.append(pick)
        need -= 1
        candidates = [j for j in range(n) if dom[pick][j]]
    return [items[i] for i in chain]
