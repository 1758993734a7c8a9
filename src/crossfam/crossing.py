"""Drivers that extract large pairwise crossing or pairwise avoiding segment
families from a geometric graph.

The pipeline finds a separated pair of clusters that is dense and nearly
untangled, splits it into blockwise totally ordered sub-pairs whose edges
relate across blocks, recurses into the blocks, and unions the results.
Every returned family is re-verified pairwise with exact predicates before
it leaves a driver; soundness never depends on the search heuristics.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations
from math import comb, isqrt, log
from typing import Sequence

from .clusters import find_avoiding_dense_pair
from .errors import (
    EmptyGraphError,
    HypothesisViolatedError,
    NoEligiblePairsError,
    NotTotalOrderError,
)
from .geom import (
    GeometricGraph,
    PointSet,
    Segment,
    line_meets_hull,
    convex_hull,
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


def make_family(mode: FamilyMode, segments, G: GeometricGraph | None, V: PointSet) -> SegmentFamily:
    """Normalize, sanity-check, and pairwise-verify a segment family.

    Raises if the family is unsound; construction is the last line of
    defence, so a failure here is a bug in the caller, not bad input.
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
    rel = _relation(mode)
    for i in range(len(segs) - 1):
        for j in range(i + 1, len(segs)):
            if not rel(segs[i], segs[j], V):
                raise AssertionError(
                    f"family fails pairwise {mode.value} check at {segs[i]} vs {segs[j]}"
                )
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
    return _match_ranks(a, b, P, V, mode)


def _match_ranks(a, b, P: PairPoset, V: PointSet, mode: FamilyMode) -> SegmentFamily:
    """Rank matching of equal-size sides that ``P`` orders totally.

    ``P`` may be the poset of any separated supersets of ``a`` and ``b``: a
    chain relative to a set keeps its order relative to every subset.
    """
    order_a = _total_order(a, P.succ_a)
    order_b = _total_order(b, P.succ_b)
    t = len(a)
    if mode is FamilyMode.CROSSING:
        segs = [(order_a[i], order_b[i]) for i in range(t)]
    else:
        segs = [(order_a[i], order_b[t - 1 - i]) for i in range(t)]
    return make_family(mode, segs, None, V)


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
        edges = G.count_edges(a, vertex_mask(b))
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
    d_masks = [vertex_mask(blk) for blk in d_blocks]

    iota_cap = (eps.numerator * m * m) // eps.denominator
    eligible: list[tuple[int, int, PairPoset]] = []
    for ai in range(tk):
        for bi in range(tk):
            cnt = G.count_edges(c_blocks[ai], d_masks[bi])
            if cnt * t < m * m:
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


def _base_segments(G: GeometricGraph, A, B, P: PairPoset, mode: FamilyMode, theory: bool) -> list[Segment]:
    V = G.vertices
    if not theory:
        # Match the largest totally ordered sub-pair: the full sides when the
        # pair is untangled, else the longest chains of each side.
        a_side, b_side = tuple(A), tuple(B)
        if not (len(a_side) == len(b_side) and P.is_zero_avoiding):
            ca = longest_chain(P.succ_a)
            cb = longest_chain(P.succ_b)
            r = min(len(ca), len(cb))
            a_side, b_side = tuple(ca[:r]), tuple(cb[:r])
        if len(a_side) >= 1:
            fam = _match_ranks(a_side, b_side, P, V, mode)
            segs = [s for s in fam.segments if G.has_edge(*s)]
            if len(segs) >= 2:
                return segs
    e = next(G.edges_between(sorted(A), sorted(B)), None)
    return [] if e is None else [e]


def crossing_family_from_pair(
    G: GeometricGraph,
    A,
    B,
    P: PairPoset,
    *,
    mode: FamilyMode = FamilyMode.CROSSING,
    budget: int = 2,
    theory: bool = False,
    levels: Sequence["LevelParams"] | None = None,
) -> SegmentFamily | None:
    """Recursive extraction of a verified family from one separated pair.

    At the bottom of the recursion a totally ordered pair yields its full
    matching (one edge in theory mode); otherwise the pair is split and the
    blocks are processed independently, skipping failed blocks outside of
    theory mode. Returns None when the pair spans no edges at all. ``P`` is
    the poset of exactly the pair (A, B).
    """

    def rec(a, b, p, depth) -> list[Segment]:
        base = None if theory else _base_segments(G, a, b, p, mode, theory)
        if depth <= 1 or len(a) < 4 or len(a) != len(b):
            return base if base is not None else _base_segments(G, a, b, p, mode, theory)
        if theory:
            if levels is None:
                raise ValueError("theory recursion requires a parameter schedule")
            lvl = levels[depth - 1]
            t, k, msub = lvl.t, lvl.k, lvl.m
            a2, b2 = a, b
        else:
            t = 3
            quarter = len(a) // (t + 1)
            if quarter < 1:
                return base
            msub = isqrt(quarter)
            k = quarter // msub
            trunc = (t + 1) * k * msub
            a2, b2 = tuple(a)[:trunc], tuple(b)[:trunc]
        try:
            parts = split_pair(G, a2, b2, p, t, k, msub, mode=mode, theory=theory)
        except (HypothesisViolatedError, NoEligiblePairsError):
            if theory:
                raise
            return base
        out: list[Segment] = []
        for ai, bi, pi in parts:
            try:
                out.extend(rec(ai, bi, pi, depth - 1))
            except (HypothesisViolatedError, NoEligiblePairsError):
                if theory:
                    raise
        if theory:
            return out
        # The split route and the direct matching route are both sound;
        # keep whichever yields more.
        return out if len(out) > len(base) else base

    segs = rec(tuple(A), tuple(B), P, budget)
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
    """Driver configuration. Theory mode follows the exact schedules; the
    default practical mode picks the cluster size m by itself.

    Practical mode makes at most ``max_retries`` attempts, each with a fresh
    net (seed ``seed + attempt``); eps doubles (up to 1) after an attempt
    that found no pair. On a complete graph m starts at ``m`` (default: the
    largest power of two at most n/2) and halves after each attempt; the
    first verified family of two or more segments is returned, and the
    search ends once m is no larger than the best family, since a pair of
    m-clusters yields at most m segments. On any other graph m starts at
    ``m`` (default: n^(1/3), clamped to [2, 64]), doubles after a full
    yield (up to min(n/2, 128)), halves after an attempt that found no pair,
    and the largest verified family is returned."""

    theory: bool = False
    m: int | None = None
    eps: Fraction | None = None
    delta: Fraction | None = None
    s: int | None = None
    seed: int = 0
    max_retries: int = 8


def _icbrt(n: int) -> int:
    z = round(n ** (1 / 3))
    while z**3 > n:
        z -= 1
    while (z + 1) ** 3 <= n:
        z += 1
    return z


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


def _find_family(G: GeometricGraph, cfg: RunConfig, mode: FamilyMode) -> SegmentFamily:
    if cfg.m is not None and cfg.m < 1:
        raise ValueError(f"m must be at least 1, got {cfg.m}")
    if cfg.max_retries < 1:
        raise ValueError(f"max_retries must be at least 1, got {cfg.max_retries}")
    if cfg.s is not None and cfg.s < 1:
        raise ValueError(f"s must be at least 1, got {cfg.s}")
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
                G, pick[0], pick[1], pick[2], mode=mode, budget=s, theory=True, levels=sched.levels
            )
            if fam is not None and len(fam) > len(best):
                best = fam
        return best

    eps = Fraction(cfg.eps) if cfg.eps is not None else Fraction(1, 4)
    delta = Fraction(cfg.delta) if cfg.delta is not None else Fraction(1, 4)
    budget = cfg.s if cfg.s is not None else 2

    if G.is_complete:
        # Every matched pair is an edge, so a pair of m-clusters yields up to
        # m segments and its yield grows with m: search m downwards and
        # return the first family. No attempt runs at an m the best family
        # already reaches.
        m = cfg.m if cfg.m is not None else 1 << ((n // 2).bit_length() - 1)
        for attempt in range(cfg.max_retries):
            if m <= len(best):
                break
            pick = find_avoiding_dense_pair(G, m, eps, delta, cfg.seed + attempt)
            if pick is None:
                # No qualifying pair at this scale: smaller clusters, laxer budget.
                eps = min(Fraction(1), eps * 2)
            else:
                fam = crossing_family_from_pair(G, pick[0], pick[1], pick[2], mode=mode, budget=budget)
                if fam is not None and len(fam) > len(best):
                    return fam
            m //= 2
        return best

    # Otherwise the matching keeps only the pairs that are edges, and one
    # attempt's yield scatters at large m (4 to 21 segments over 160 nets at
    # m=128 on grid-jitter n=768, density 1/2). Start small, keep the best
    # of fresh nets, and grow m only after a full yield.
    m = cfg.m if cfg.m is not None else min(64, max(2, _icbrt(n)))
    grow_cap = min(n // 2, 128)
    for attempt in range(cfg.max_retries):
        pick = find_avoiding_dense_pair(G, m, eps, delta, cfg.seed + attempt)
        if pick is None:
            # No qualifying pair at this scale: coarser clusters, laxer budget.
            if m <= 2 and eps >= 1:
                break
            m = max(2, m // 2)
            eps = min(Fraction(1), eps * 2)
            continue
        fam = crossing_family_from_pair(G, pick[0], pick[1], pick[2], mode=mode, budget=budget)
        if fam is not None and len(fam) > len(best):
            best = fam
        if fam is not None and len(fam) >= m and m < grow_cap:
            m = min(grow_cap, m * 2)
    return best


def find_crossing_family(G: GeometricGraph, cfg: RunConfig | None = None) -> SegmentFamily:
    """Largest verified pairwise crossing family the pipeline can find."""
    return _find_family(G, cfg or RunConfig(), FamilyMode.CROSSING)


def find_avoiding_family(G: GeometricGraph, cfg: RunConfig | None = None) -> SegmentFamily:
    """Largest verified pairwise avoiding family the pipeline can find."""
    return _find_family(G, cfg or RunConfig(), FamilyMode.AVOIDING)
