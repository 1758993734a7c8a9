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

Under B the order on A is the intersection of two linear orders, and
``PairPoset`` holds a pair's comparability as those orders. Rank the points
x of A by the counterclockwise angle of the direction from x to its first
tangent vertex, and apart by the angle to its last. Then x precedes y
exactly when x comes first in both rankings, and x, y are incomparable
exactly when the rankings disagree. Why: move the viewpoint from x to y
along their line. The direction to every hull vertex left of the line
turns counterclockwise, and to every vertex right of it clockwise. If all
of B is on the left, both tangent angles grow; on the right, both shrink.
If B is on both sides, the line meets the hull ahead of both points or
behind both (the hulls of A and B are disjoint), so one tangent stays on
each side of the line, and one angle grows while the other shrinks.

All these directions point from A to B, so they lie in one open
half-plane, and one cross product orders any two of them exactly.
``rank_sides`` ranks the sides of a point set within
``geom.INT64_COORD_LIMIT``, where an int64 cross product is at most 2^61,
in one batch of the int64 kernel, ``_rank_int64``: a float64 key that
grows with the angle sorts them, and the cross product of every pair of
neighbours checks the sort. Sides beyond the bound, and those the floats
misorder, take one comparator sort on Python ints, ``_rank_exact``. A
tangent vertex on a line through two points of A is a supporting line of
the hull through both, so it gives them parallel tangent directions of the
same kind: an exact tie between neighbours. A tie hands the side to ``_compare_side`` at
what is left of the cap, so a degenerate input raises, or gives up at a
cap, exactly as the scalar loop does.

``poset_from_rankings`` counts each side's incomparable pairs from its
rankings, giving up at a cap, and ``ranked_chain`` reads a longest chain
off them. Theory mode's chain routines read each order as every element's
bitmask of the elements it precedes, which ``PairPoset.succ_a`` packs from
the rankings on first read.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property, cmp_to_key
from itertools import chain
from math import comb
from typing import Mapping, Sequence

import numpy as np

from .errors import DegenerateInputError, HypothesisViolatedError, NotSeparatedError
from .geom import PointSet, _orient_coords, hull_coords, hull_coords_disjoint, vertex_mask

# Comparability tables are packed in O(m^2); keep the sides they are packed
# for cluster-sized.
SIZE_CAP = 4096

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

    ``order_a`` lists ``a`` by the angle of the direction to its first
    tangent vertex of conv(``b``), and ``place_a[r]`` is the place of
    ``order_a[r]`` by the angle to its last: u is LESS than v relative to
    ``b`` when u comes first in both rankings, and a pair that the
    rankings order differently is incomparable. ``iota_a`` counts
    unordered incomparable pairs on the ``a`` side. ``order_b``,
    ``place_b`` and ``iota_b`` describe ``b`` alike.

    ``succ_a`` maps each vertex u of ``a`` to a bitmask over vertex
    indices: bit v is set when u is LESS than v. It is packed from the
    rankings on first read and raises ValueError for a side of more than
    ``SIZE_CAP`` points. ``succ_b`` describes ``b`` alike.
    """

    a: tuple[int, ...]
    b: tuple[int, ...]
    order_a: tuple[int, ...]
    place_a: tuple[int, ...]
    iota_a: int
    order_b: tuple[int, ...]
    place_b: tuple[int, ...]
    iota_b: int

    @cached_property
    def succ_a(self) -> dict[int, int]:
        return _pack_tables(self.order_a, self.place_a)

    @cached_property
    def succ_b(self) -> dict[int, int]:
        return _pack_tables(self.order_b, self.place_b)

    def less_in_a(self, x: int, y: int) -> bool:
        return self.succ_a[x] >> y & 1 == 1

    def less_in_b(self, x: int, y: int) -> bool:
        return self.succ_b[x] >> y & 1 == 1

    @property
    def iota_sum(self) -> int:
        return self.iota_a + self.iota_b


# Tangent sign pairs that stand for a verdict of the full hull scan, used
# when a tangent vertex lies on the line.
_TANGENT_SIGNS = {Cmp.LESS: (1, 1), Cmp.GREATER: (-1, -1), Cmp.INCOMPARABLE: (1, -1)}


def _tangents(px, py, hull):
    """Directions from (px, py), outside the counterclockwise ``hull``, to
    its first and last tangent vertices: every hull vertex lies clockwise
    of the first and counterclockwise of the last, or on their rays."""
    hx, hy = lx, ly = hull[0][0] - px, hull[0][1] - py
    for rx, ry in hull:
        rx -= px
        ry -= py
        if hx * ry - hy * rx > 0:
            hx, hy = rx, ry
        if lx * ry - ly * rx < 0:
            lx, ly = rx, ry
    return (hx, hy), (lx, ly)


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
        (hx, hy), (lx, ly) = _tangents(px, py, hull)
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


def _rank_exact(side, coords, hull):
    """``_rank_int64``'s rankings (rows, place) of one side against
    ``hull``, or None on an exact tie, by a comparator sort on Python ints:
    exact over the whole coordinate range."""
    k = len(side)
    tangents = [_tangents(*coords[v], hull) for v in side]
    ranks = []
    for end in range(2):
        d = [t[end] for t in tangents]
        # i comes first when d[j] is counterclockwise of d[i].
        order = sorted(range(k), key=cmp_to_key(lambda i, j: d[j][0] * d[i][1] - d[j][1] * d[i][0]))
        if any(d[i][0] * d[j][1] == d[i][1] * d[j][0] for i, j in zip(order, order[1:])):
            return None
        ranks.append(order)
    rows, last = (np.array(order, dtype=np.intp) for order in ranks)
    place = np.empty(k, dtype=np.intp)
    place[last] = np.arange(k)
    return rows, place[rows]


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


def rank_sides(V: PointSet, sides, hulls, edges: np.ndarray | None = None) -> list:
    """The rankings (rows, place) of each side of ``sides`` against the hull
    at its place in ``hulls``, as ``_rank_int64`` gives them, or None where
    an exact tie leaves the side unranked. The sides have one length and
    are separated from their hulls. Within the int64 bound the sides go to
    the int64 kernel in one batch, on ``edges``, the ``hull_edges`` of
    ``hulls`` (built here when not given); sides beyond the bound, and
    those whose float sort misordered, go to ``_rank_exact``. The caller
    bounds the batch, whose arrays hold a few entries per point."""
    if not sides:
        return []
    exact = [False] * len(sides)
    if V.within_int64_bound:
        rows, place, exact = _rank_int64(V, np.array(sides, dtype=np.intp), hull_edges(hulls) if edges is None else edges)
    return [
        (rows[q], place[q]) if exact[q] else _rank_exact(side, V.coords, hull)
        for q, (side, hull) in enumerate(zip(sides, hulls))
    ]


@cache
def _above(step: int) -> np.ndarray:
    """The read-only step x step mask of entries right of the diagonal.
    ``_row_slabs``' steps are at most max(8, sqrt(``_PAIR_SLAB``)) = 90, so
    the cache holds at most 90 masks of at most 8 KB."""
    above = np.triu(np.ones((step, step), dtype=bool), 1)
    above.flags.writeable = False
    return above


def _row_slabs(place, span: int = 0):
    """Row slabs of a side from the places of its rows in the last ranking:
    yields (i0, i1, after), where ``after[r, s]`` says that row i0 + r is
    LESS than row i0 + s, that is the latter comes after it in both
    rankings. A row holds up to k rank comparisons and ``span`` unpacked
    bits; at least 8 rows, or the whole side, go in a slab of about
    ``_PAIR_SLAB`` entries, so that a large side pays the per-slab steps
    fewer times, for temporaries of 8 rows of k entries."""
    k = len(place)
    step = min(k, max(8, _PAIR_SLAB // max(k, span // 8)))
    above = _above(step)
    for i0 in range(0, k, step):
        i1 = min(k, i0 + step)
        after = place[i0:i1, None] < place[i0:]
        after[:, : i1 - i0] &= above[: i1 - i0, : i1 - i0]
        yield i0, i1, after


def _side_count(place, cap: int) -> int | None:
    """A side's incomparable pairs from its places, or None once they
    exceed ``cap``. After each row slab the incomparable pairs with an end
    in the rows so far are known, so None is returned at the first slab
    that exceeds the cap, never for a count of 0."""
    k = len(place)
    less = 0
    for _, i1, after in _row_slabs(place):
        less += np.count_nonzero(after)
        iota = comb(k, 2) - comb(k - i1, 2) - less
        if iota > max(cap, 0):
            return None
    return iota


def _pack_tables(order, place) -> dict[int, int]:
    """``_compare_side``'s successor bitmasks of a side from its rankings:
    each slab's successor bits are set at bit positions v - base of a row,
    packed little-endian as ``neighbour_masks`` does, then shifted by
    base. Raises ValueError for a side of more than ``SIZE_CAP`` points."""
    if len(order) > SIZE_CAP:
        raise ValueError(f"side exceeds the comparability table cap ({SIZE_CAP})")
    base = min(order) & ~7
    span = max(order) - base + 1
    width = (span + 7) // 8
    cols = np.array(order, dtype=np.intp) - base
    packed = np.empty((len(order), width), dtype=np.uint8)
    for i0, i1, after in _row_slabs(np.array(place, dtype=np.intp), span):
        bits = np.zeros((i1 - i0, span), dtype=bool)
        bits[:, cols[i0:]] = after
        packed[i0:i1] = np.packbits(bits, axis=1, bitorder="little")
    buf = packed.tobytes()
    return {v: int.from_bytes(buf[r * width : (r + 1) * width], "little") << base for r, v in enumerate(order)}


def ranked_chain(order, place) -> list[int]:
    """The chain that ``longest_chain`` gives for a side's tables, listed
    upwards, from the side's rankings: ``order`` lists the side in its
    first ranking and ``place`` the places of its rows in its last.

    A chain is a run of rows whose places rise, so patience sorting finds
    each row's level, the rows of the longest chain upwards from it; then,
    from the top level down, each step takes the least vertex among the
    rows of the level that come after the last row taken in both rankings.
    """
    tails: list[int] = []  # tails[h]: minus the greatest place at level h
    levels: list[list[int]] = []
    for r in reversed(range(len(order))):
        h = bisect_left(tails, -place[r])
        if h == len(tails):
            tails.append(0)
            levels.append([])
        tails[h] = -place[r]
        levels[h].append(r)
    chain: list[int] = []
    low, at = -1, -1  # the last row taken and its place
    for level in reversed(levels):
        low = min((r for r in level if r > low and place[r] > at), key=order.__getitem__)
        at = place[low]
        chain.append(order[low])
    return chain


def poset_from_rankings(a, b, V: PointSet, hull_a, hull_b, rankings, cap: int) -> PairPoset | None:
    """The ``PairPoset`` of sides ``a`` and ``b``, from ``rankings``, which
    yields the ``rank_sides`` result of side a against ``hull_b``, then of
    side b against ``hull_a``; or None once the incomparable pairs of both
    sides together exceed ``cap``. Raises NotSeparatedError when the hulls
    intersect. Side b's rankings are read only when side a stays within
    the cap. A side left unranked by a tie goes to ``_compare_side`` at
    what is left of the cap, which raises DegenerateInputError or gives up.
    """
    if not hull_coords_disjoint(hull_a, hull_b):
        raise NotSeparatedError("convex hulls of the two sides intersect")
    sides = []
    for (side, hull), ranks in zip(((a, hull_b), (b, hull_a)), rankings):
        if ranks is None:
            tied = _compare_side(side, V.coords, hull, cap)
            assert tied is None, "a tied side has a degenerate pair"
            return None
        rows, place = ranks
        iota = _side_count(place, cap)
        if iota is None:
            return None
        cap -= iota
        sides.append((tuple(side[r] for r in rows.tolist()), tuple(place.tolist()), iota))
    return PairPoset(a, b, *sides[0], *sides[1])


def build_pair_poset(A, B, V: PointSet, hull_a=None, hull_b=None, cap: int | None = None) -> PairPoset | None:
    """Rank both sides of a pair and count their incomparable pairs.

    Each side is ranked against the opposite side's convex hull
    (``rank_sides``): in int64 arrays within the int64 bound, else by the
    exact comparator sort, with one result either way. Raises
    NotSeparatedError when the hulls intersect, since the rankings are
    meaningless otherwise. Callers that already hold each side's
    ``hull_coords`` pass them as ``hull_a`` and ``hull_b``; the
    disjointness check runs on them all the same.

    With a ``cap``, returns None as soon as the incomparable pairs of both
    sides together exceed it, so tangled pairs are rejected before side b
    is ranked; any poset returned is the one built without a cap. The
    argument checks, the disjointness check and the degeneracy check of a
    tangent vertex on a line run with or without a cap.
    """
    a = tuple(A)
    b = tuple(B)
    if not a or not b:
        raise ValueError("both sides must be nonempty")
    if set(a) & set(b):
        raise ValueError("sides must be disjoint index sets")
    coords = V.coords
    if hull_a is None:
        hull_a = hull_coords(coords[i] for i in a)
    if hull_b is None:
        hull_b = hull_coords(coords[i] for i in b)
    if cap is None:
        # Fewer than len(a)**2 + len(b)**2 pairs exist, so this cap never binds.
        cap = len(a) ** 2 + len(b) ** 2
    rankings = (rank_sides(V, [side], [hull])[0] for side, hull in ((a, hull_b), (b, hull_a)))
    return poset_from_rankings(a, b, V, hull_a, hull_b, rankings, cap)


def iota_sum_capped(A, B, V: PointSet, cap: int, hull_a=None, hull_b=None) -> int | None:
    """Incomparable-pair count over both sides, or None once it exceeds cap:
    the ``iota_sum`` of ``build_pair_poset`` with the same arguments, None
    exactly when that build returns None, raising exactly when it raises.
    """
    P = build_pair_poset(A, B, V, hull_a, hull_b, cap)
    return None if P is None else P.iota_sum


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
