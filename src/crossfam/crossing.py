"""Drivers that extract large pairwise crossing or pairwise avoiding segment
families from a geometric graph.

The pipeline finds a separated pair of clusters that is dense and nearly
untangled. Practical mode returns the base of that pair: a longest run of
edges between its longest chains, rank-matched. Theory mode runs the paper's
recursion instead: it splits the pair into blockwise totally ordered
sub-pairs whose edges relate across blocks, recurses into the blocks, and
unions the results. Every returned family is re-verified pairwise with
exact predicates before it leaves a driver; soundness never depends on the
search heuristics.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations
from math import comb, log
from typing import Sequence

from .clusters import find_avoiding_dense_pair
from .errors import (
    EmptyGraphError,
    NoEligiblePairsError,
    NotTotalOrderError,
)
from .geom import (
    GeometricGraph,
    PointSet,
    Segment,
    line_meets_hull,
    convex_hull,
    first_unrelated_pair,
    first_unrelated_pair_int64,
    hull_coords,
    segments_avoiding,
    segments_cross,
    vertex_mask,
)
from .poset import PairPoset, build_pair_poset, interval_chains, longest_chain


class FamilyMode(Enum):
    CROSSING = "crossing"
    AVOIDING = "avoiding"


def _relation(mode: FamilyMode):
    return segments_cross if mode is FamilyMode.CROSSING else segments_avoiding


@dataclass(frozen=True)
class SegmentFamily:
    """A verified family of segments that pairwise cross or pairwise avoid."""

    mode: FamilyMode
    segments: tuple[Segment, ...]
    verified: bool
    graph: GeometricGraph | None = None

    def __len__(self) -> int:
        return len(self.segments)


# Families smaller than this are checked by the scalar pair loop. Measured on
# a 2-vCPU x86-64 machine with numpy 2.4, on pairwise crossing chords of a
# convex polygon: the int64 kernel costs about 40-60 us a call on small
# families and ties the scalar loop at about 10 segments (45 pairs); at 16
# it takes under half the scalar time, at 128 about a twentieth.
_INT64_MIN_FAMILY = 10


def make_family(mode: FamilyMode, segments, G: GeometricGraph | None, V: PointSet) -> SegmentFamily:
    """Normalize, sanity-check, and pairwise-verify a segment family.

    Every pair is checked exactly: by ``geom.first_unrelated_pair_int64``
    for a family of at least ``_INT64_MIN_FAMILY`` segments whose point set
    lies within the int64 bound, else by the scalar loop
    ``geom.first_unrelated_pair``, with one verdict either way. Raises if
    the family is unsound; construction is the last line of defence, so a
    failure here is a bug in the caller, not bad input.
    """
    segs = sorted((a, b) if a < b else (b, a) for a, b in segments)
    seen: set[int] = set()
    for a, b in segs:
        if a in seen or b in seen or a == b:
            raise AssertionError(f"family reuses endpoint in segment ({a}, {b})")
        seen.add(a)
        seen.add(b)
        if G is not None and not G.has_edge(a, b):
            raise AssertionError(f"segment ({a}, {b}) is not an edge of the source graph")
    if len(segs) > len(V) // 2:
        raise AssertionError("family larger than floor(n/2) is impossible")
    crossing = mode is FamilyMode.CROSSING
    if V.within_int64_bound and len(segs) >= _INT64_MIN_FAMILY:
        bad = first_unrelated_pair_int64(segs, V, crossing)
    else:
        bad = first_unrelated_pair(segs, V, crossing)
    if bad is not None:
        i, j = bad
        raise AssertionError(f"family fails pairwise {mode.value} check at {segs[i]} vs {segs[j]}")
    return SegmentFamily(mode, tuple(segs), True, G)


def _total_order(side: Sequence[int], succ) -> list[int]:
    """``side`` sorted upwards in the total order that ``succ`` masks give it."""
    side_mask = vertex_mask(side)
    return sorted(side, key=lambda x: -(succ[x] & side_mask).bit_count())


def match_avoiding_pair(A, B, V: PointSet, *, mode: FamilyMode = FamilyMode.CROSSING) -> SegmentFamily:
    """Match two totally ordered separated sets into a verified family.

    Both induced orders must be total (no incomparable pair); otherwise
    NotTotalOrderError is raised. Crossing mode matches equal ranks; avoiding
    mode matches opposite ranks.
    """
    a = tuple(A)
    b = tuple(B)
    if len(a) != len(b):
        raise ValueError("sides must have equal size")
    P = build_pair_poset(a, b, V)
    if P.iota_a or P.iota_b:
        raise NotTotalOrderError(
            f"pair has incomparable pairs (iota_a={P.iota_a}, iota_b={P.iota_b})"
        )
    segs = _rank_matching(_total_order(a, P.succ_a), _total_order(b, P.succ_b), mode)
    return make_family(mode, segs, None, V)


def _rank_matching(order_a, order_b, mode: FamilyMode) -> list[Segment]:
    """Equal ranks (crossing) or opposite ranks (avoiding) of two equally
    long sides, each listed upwards in its order relative to the other.

    The orders may be relative to any separated supersets of the sides: a
    chain relative to a set keeps its order relative to every subset.
    """
    if mode is FamilyMode.AVOIDING:
        order_b = order_b[::-1]
    return list(zip(order_a, order_b))


def _restricted_iota(side: Sequence[int], succ) -> int:
    """Incomparable pairs within ``side`` under the ``succ`` masks."""
    side_mask = vertex_mask(side)
    return comb(len(side), 2) - sum((succ[x] & side_mask).bit_count() for x in side)


def _verify_split_blocks(parts, G: GeometricGraph, mode: FamilyMode, budget_pairs: int = 20_000) -> None:
    rel = _relation(mode)
    V = G.vertices
    edge_lists = [list(G.edges_between(Ai, Bi)) for Ai, Bi, _ in parts]
    total_checks = 0
    for i in range(len(parts) - 1):
        for j in range(i + 1, len(parts)):
            total_checks += len(edge_lists[i]) * len(edge_lists[j])
    if total_checks > budget_pairs:
        return
    for i in range(len(parts) - 1):
        for j in range(i + 1, len(parts)):
            for e in edge_lists[i]:
                for f in edge_lists[j]:
                    assert rel(e, f, V), (
                        f"edges {e} and {f} from blocks {i} and {j} violate the "
                        f"{mode.value} guarantee"
                    )


def check_incomparability_localized(P: PairPoset, A, d_blocks, V: PointSet) -> None:
    """Assert that a pair incomparable relative to B stays incomparable
    relative to at most one of the ordered B-blocks."""
    hulls = [convex_hull([V[i] for i in blk]) for blk in d_blocks]
    for u, v in combinations(A, 2):
        if (P.succ_a[u] >> v | P.succ_a[v] >> u) & 1:
            continue
        hits = sum(1 for h in hulls if line_meets_hull(V[u], V[v], h))
        assert hits <= 1, f"pair ({u}, {v}) incomparable relative to {hits} blocks"


def _grid_successors(cells, tk: int, mode: FamilyMode) -> dict[int, int]:
    """Dominance among the ``(ai, bi, ...)`` cells of a tk x tk block grid:
    cell e precedes every cell in a later row and a later column (crossing)
    or an earlier column (avoiding). Returns each cell index's successor
    bitmask, from row and column masks in O(len(cells) + tk) operations."""
    # rows[i], cols[j]: the cells in rows >= i, in columns >= j.
    rows, cols = [0] * (tk + 1), [0] * (tk + 1)
    for e, (ai, bi, *_) in enumerate(cells):
        rows[ai] |= 1 << e
        cols[bi] |= 1 << e
    for i in reversed(range(tk)):
        rows[i] |= rows[i + 1]
        cols[i] |= cols[i + 1]
    if mode is FamilyMode.CROSSING:
        return {e: rows[ai + 1] & cols[bi + 1] for e, (ai, bi, *_) in enumerate(cells)}
    return {e: rows[ai + 1] & ~cols[bi] for e, (ai, bi, *_) in enumerate(cells)}


def split_pair(
    G: GeometricGraph,
    A,
    B,
    P: PairPoset,
    t: int,
    k: int,
    m: int,
    *,
    mode: FamilyMode = FamilyMode.CROSSING,
    theory: bool = False,
):
    """Split a separated pair into a chain of dense, untangled block pairs.

    Extracts t*k ordered blocks of size m from each side, scores every block
    pair, and returns a longest chain of eligible pairs. Crossing mode chains
    pairs with both indices increasing; avoiding mode reverses the second
    coordinate. Each returned pair carries its own comparability tables.
    ``P`` is the poset of a pair whose sides start with A and B: the
    recursion splits prefixes of the sides its poset was built for.
    """
    a = tuple(A)
    b = tuple(B)
    if t < 1 or k < 1 or m < 1:
        raise ValueError("t, k, m must be positive")
    if theory and t < 3:
        raise ValueError("theory mode requires t >= 3")
    expected = (t + 1) * k * m
    if len(a) != expected or len(b) != expected:
        raise ValueError(f"sides must have exactly (t+1)km = {expected} elements")
    V = G.vertices
    delta = Fraction(1, t)
    eps = Fraction(1, 32 * t * t * k)
    if theory:
        big = len(a) * len(a)
        edges = int(G.block_edge_counts([a], [b])[0, 0])
        if edges * delta.denominator < 8 * delta.numerator * big:
            raise ValueError("pair is not dense enough for the guaranteed split")
        iota = _restricted_iota(a, P.succ_a) + _restricted_iota(b, P.succ_b)
        budget = eps * delta * big
        if iota * budget.denominator > budget.numerator:
            raise ValueError("pair is too tangled for the guaranteed split")

    tk = t * k
    c_blocks = interval_chains(a, P.succ_a, m, tk).blocks
    d_blocks = interval_chains(b, P.succ_b, m, tk).blocks
    coords = V.coords
    c_hulls = [hull_coords(coords[v] for v in blk) for blk in c_blocks]
    d_hulls = [hull_coords(coords[v] for v in blk) for blk in d_blocks]
    counts = G.block_edge_counts(c_blocks, d_blocks).tolist()

    iota_cap = (eps.numerator * m * m) // eps.denominator
    eligible: list[tuple[int, int, PairPoset]] = []
    for ai in range(tk):
        for bi in range(tk):
            if counts[ai][bi] * t < m * m:
                continue
            sub = build_pair_poset(c_blocks[ai], d_blocks[bi], V, c_hulls[ai], d_hulls[bi], iota_cap)
            if sub is not None:
                eligible.append((ai, bi, sub))
    if not eligible:
        raise NoEligiblePairsError("no block pair is both dense and untangled")

    chain = [eligible[e] for e in longest_chain(_grid_successors(eligible, tk, mode))]
    if theory:
        assert len(chain) >= k, "guaranteed chain length not reached"
    parts = [(c_blocks[ai], d_blocks[bi], sub) for ai, bi, sub in chain]

    if __debug__:
        _verify_split_blocks(parts, G, mode)
        if tk <= 30 and P.iota_a <= 2000:
            check_incomparability_localized(P, a, d_blocks, V)
    return parts


def _first_edge(G: GeometricGraph, A, B) -> list[Segment]:
    e = next(G.edges_between(sorted(A), sorted(B)), None)
    return [] if e is None else [e]


def _longest_edge_run(G: GeometricGraph, order_a, order_b, mode: FamilyMode) -> list[Segment]:
    """A longest run of edges between two ordered sides whose ranks rise on
    both sides (crossing) or rise on A and fall on B (avoiding), by patience
    sorting over the rank grid in O(E log E)."""
    cols = order_b[::-1] if mode is FamilyMode.CROSSING else order_b
    # Keys rise along a run, and each row lists its edges by falling key, so
    # a run takes at most one edge per row.
    key = {v: -p for p, v in enumerate(cols)}
    tails: list[int] = []  # tails[k]: the least key that ends a run of k + 1 edges
    ends: list[Segment] = []
    back: dict[Segment, Segment | None] = {}
    for e in G.edges_between(order_a, cols):
        x = key[e[0]] if e[0] in key else key[e[1]]
        k = bisect_left(tails, x)
        back[e] = ends[k - 1] if k else None
        tails[k:k + 1] = [x]
        ends[k:k + 1] = [e]
    run = []
    e = ends[-1] if ends else None
    while e is not None:
        run.append(e)
        e = back[e]
    return run


def _base_segments(G: GeometricGraph, A, B, P: PairPoset, mode: FamilyMode) -> list[Segment]:
    """The practical family of a pair: a longest run of edges between the
    largest totally ordered sub-pair (the full sides when the pair is
    untangled, else the longest chains of each side), or a single edge when
    no run has two."""
    a_side, b_side = tuple(A), tuple(B)
    if not (len(a_side) == len(b_side) and P.is_zero_avoiding):
        a_side, b_side = longest_chain(P.succ_a), longest_chain(P.succ_b)
    order_a, order_b = _total_order(a_side, P.succ_a), _total_order(b_side, P.succ_b)
    r = min(len(order_a), len(order_b))
    run = _rank_matching(order_a[:r], order_b[:r], mode)
    # A run takes at most one cell per row and per column, so a rank
    # matching of edges is already a longest run.
    if not all(G.has_edge(*s) for s in run):
        run = _longest_edge_run(G, order_a, order_b, mode)
    if len(run) >= 2:
        # make_family's normal form; the family that leaves
        # crossing_family_from_pair is verified there.
        return sorted((a, b) if a < b else (b, a) for a, b in run)
    return _first_edge(G, A, B)


def crossing_family_from_pair(
    G: GeometricGraph,
    A,
    B,
    P: PairPoset,
    *,
    mode: FamilyMode = FamilyMode.CROSSING,
    theory: bool = False,
    levels: Sequence["LevelParams"] | None = None,
) -> SegmentFamily | None:
    """A verified family from one separated pair, or None when the pair
    spans no edges at all. ``P`` is the poset of exactly the pair (A, B).

    Practical mode returns the base: a longest run of edges between the
    pair's ordered chains (``_base_segments``). Theory mode runs the paper's
    recursion over the parameter schedule ``levels``, one level per entry:
    each node is split into a chain of block pairs (``split_pair``) and the
    blocks recurse; a node at the bottom, or one too small to split, gives
    one edge. A block the split cannot handle raises.
    """
    if not theory:
        segs = _base_segments(G, A, B, P, mode)
    elif levels is None:
        raise ValueError("theory recursion requires a parameter schedule")
    else:

        def rec(a, b, p, depth) -> list[Segment]:
            if depth <= 1 or len(a) < 4 or len(a) != len(b):
                return _first_edge(G, a, b)
            lvl = levels[depth - 1]
            parts = split_pair(G, a, b, p, lvl.t, lvl.k, lvl.m, mode=mode, theory=True)
            return [s for ai, bi, pi in parts for s in rec(ai, bi, pi, depth - 1)]

        segs = rec(tuple(A), tuple(B), P, len(levels))
    if not segs:
        return None
    return make_family(mode, segs, G, G.vertices)


@dataclass(frozen=True)
class LevelParams:
    """Split parameters for one recursion level: block counts, block size,
    and the density / avoidance thresholds in force at that level."""

    t: int
    k: int
    m: int
    eps: Fraction
    delta: Fraction
    K: int
    M: int


class ScheduleMode(Enum):
    COMPLETE = "complete"
    DENSE = "dense"


@dataclass(frozen=True)
class ParamSchedule:
    mode: ScheduleMode
    s: int
    u: int | None
    eps: Fraction
    delta: Fraction
    K: int
    M: int
    levels: tuple[LevelParams, ...]

    def size_requirement(self, c: int = 1) -> int:
        """Instance size above which the pair search is guaranteed to succeed,
        up to the absolute constant c."""
        if self.mode is ScheduleMode.DENSE:
            return c * 32**4 * self.u ** (5 * self.s + 13) * self.K
        inv_eps = self.eps.denominator // self.eps.numerator
        return c * self.M * inv_eps**4 * 3**5


def _ceil_pow(n: int, x: Fraction) -> int:
    """Smallest integer z with z >= n**x, computed exactly."""
    p, q = x.numerator, x.denominator
    target = n**p
    lo, hi = 1, 1
    while hi**q < target:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**q >= target:
            hi = mid
        else:
            lo = mid + 1
    return lo


def theory_params(n: int, x, s: int) -> ParamSchedule:
    """Exact parameter schedule for a recursion of depth s.

    ``x`` selects the regime: None (or the string "complete") for complete
    graphs, else a rational in (0, 1] with the edge count read as n^(2-x).
    All values are exact; they grow astronomically with s by design.
    """
    if s < 1:
        raise ValueError("s must be at least 1")
    if x is None or x == "complete":
        K = 8 ** comb(s, 2)
        M = 9**s * K
        eps = Fraction(1, 2 ** (3 * s + 11))
        delta = Fraction(1, 3)
        levels = []
        prev_m = None
        for lvl in range(1, s + 1):
            t_l = 8
            k_l = 8 ** (lvl - 1)
            K_l = 8 ** comb(lvl, 2)
            M_l = 9**lvl * K_l
            levels.append(
                LevelParams(
                    t=t_l,
                    k=k_l,
                    # Block size fed to the split at this level; the first
                    # level is the recursion base, where m is the pair size.
                    m=prev_m if prev_m is not None else M_l,
                    eps=Fraction(1, 32 * t_l * t_l * k_l),
                    delta=Fraction(1, t_l),
                    K=K_l,
                    M=M_l,
                )
            )
            prev_m = M_l
        return ParamSchedule(ScheduleMode.COMPLETE, s, None, eps, delta, K, M, tuple(levels))

    x = Fraction(x)
    if not 0 < x <= 1:
        raise ValueError("x must lie in (0, 1]")
    u = 8**s * _ceil_pow(n, x)
    delta = Fraction(8**s, u)
    eps = Fraction(1, 32 * u ** (s + 2))
    K = (512 * u) ** comb(s, 2)
    levels = []
    prev_m = 1
    M = 1
    for lvl in range(1, s + 1):
        t_l = u // 8 ** (lvl - 1)
        k_l = (512 * u) ** (lvl - 1)
        if lvl == 1:
            M_l = 1
            m_l = 1
        else:
            m_l = prev_m
            M_l = (t_l + 1) * k_l * m_l
        levels.append(
            LevelParams(
                t=t_l,
                k=k_l,
                m=m_l,
                eps=Fraction(1, 32 * t_l * t_l * k_l),
                delta=Fraction(1, t_l),
                K=(512 * u) ** comb(lvl, 2),
                M=M_l,
            )
        )
        prev_m = M_l
        M = M_l
    assert M <= u**s * K, "recursive size exceeds its closed-form bound"
    return ParamSchedule(ScheduleMode.DENSE, s, u, eps, delta, K, M, tuple(levels))


@dataclass(frozen=True)
class RunConfig:
    """Driver configuration. Theory mode follows the exact schedules, with
    ``s`` (default 1) the depth of the paper's recursion; ``s`` applies to
    theory mode only and is rejected elsewhere. The default practical mode
    picks the cluster size m by itself and returns the base of each pair
    it tries (``crossing_family_from_pair``).

    Practical mode makes at most ``max_retries`` attempts, each with a fresh
    net (seed ``seed + attempt``). The cluster size m starts at ``m``
    (default: the largest power of two at most n/2) and halves after each
    attempt until one gives a verified family of two or more segments; eps
    doubles (up to 1) after an attempt that found no pair. If that family's
    pair misses edges, up to four nets in all run at that m and the largest
    family wins. The search ends once m is no larger than the best family."""

    theory: bool = False
    m: int | None = None
    eps: Fraction | None = None
    delta: Fraction | None = None
    s: int | None = None
    seed: int = 0
    max_retries: int = 8

    def __post_init__(self):
        if self.s is not None:
            if self.s < 1:
                raise ValueError(f"s must be at least 1, got {self.s}")
            if not self.theory:
                raise ValueError("s applies only to theory mode")


def _dense_exponent(n: int, edges: int) -> Fraction:
    x = 2 - log(edges) / log(n)
    frac = Fraction(x).limit_denominator(1000)
    if frac > 1:
        frac = Fraction(1)
    if frac <= 0:
        frac = Fraction(1, 1000)
    return frac


def _best_edge_family(G: GeometricGraph, mode: FamilyMode) -> SegmentFamily:
    e = next(G.edges_iter(), None)
    if e is None:
        raise EmptyGraphError("graph has no edges")
    return make_family(mode, [e], G, G.vertices)


_NETS_AT_FAMILY = 4  # nets at the m of a first family whose pair misses edges


def _find_family(G: GeometricGraph, cfg: RunConfig, mode: FamilyMode) -> SegmentFamily:
    if cfg.m is not None and cfg.m < 1:
        raise ValueError(f"m must be at least 1, got {cfg.m}")
    if cfg.max_retries < 1:
        raise ValueError(f"max_retries must be at least 1, got {cfg.max_retries}")
    n = len(G.vertices)
    if G.edge_count == 0:
        raise EmptyGraphError("graph has no edges")
    best = _best_edge_family(G, mode)

    if cfg.theory:
        s = cfg.s if cfg.s is not None else 1
        if G.is_complete:
            sched = theory_params(n, None, s)
            search_delta = Fraction(1, 3)
        else:
            sched = theory_params(n, _dense_exponent(n, G.edge_count), s)
            search_delta = sched.delta
        pick = find_avoiding_dense_pair(G, sched.M, sched.eps, search_delta, cfg.seed)
        if pick is not None:
            fam = crossing_family_from_pair(
                G, pick[0], pick[1], pick[2], mode=mode, theory=True, levels=sched.levels
            )
            if fam is not None and len(fam) > len(best):
                best = fam
        return best

    eps = Fraction(cfg.eps) if cfg.eps is not None else Fraction(1, 4)
    delta = Fraction(cfg.delta) if cfg.delta is not None else Fraction(1, 4)

    # A pair of m-clusters yields at most m segments, and its yield grows
    # with m: search m downwards and stop at the first m that gives a family.
    # A pair missing edges yields by the edges it catches as well as by its
    # geometry, so that m then gets up to _NETS_AT_FAMILY nets and keeps the
    # largest family. No attempt runs at an m the best family already reaches.
    m = cfg.m if cfg.m is not None else 1 << ((n // 2).bit_length() - 1)
    nets = 0  # nets tried at m since it gave a family
    for attempt in range(cfg.max_retries):
        if m <= len(best):
            break
        pick = find_avoiding_dense_pair(G, m, eps, delta, cfg.seed + attempt)
        if pick is not None:
            A, B, P = pick
            fam = crossing_family_from_pair(G, A, B, P, mode=mode)
            if fam is not None and len(fam) > len(best):
                best = fam
        if len(best) >= 2:
            nets += 1
            full = pick is not None and G.block_edge_counts([A], [B])[0, 0] == len(A) * len(B)
            if full or nets == _NETS_AT_FAMILY:
                return best
            continue
        if pick is None:
            # No qualifying pair at this scale: smaller clusters, laxer budget.
            eps = min(Fraction(1), eps * 2)
        m //= 2
    return best


def find_crossing_family(G: GeometricGraph, cfg: RunConfig | None = None) -> SegmentFamily:
    """Largest verified pairwise crossing family the pipeline can find."""
    return _find_family(G, cfg or RunConfig(), FamilyMode.CROSSING)


def find_avoiding_family(G: GeometricGraph, cfg: RunConfig | None = None) -> SegmentFamily:
    """Largest verified pairwise avoiding family the pipeline can find."""
    return _find_family(G, cfg or RunConfig(), FamilyMode.AVOIDING)
