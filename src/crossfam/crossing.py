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
from math import comb, isqrt, log
from typing import Sequence

from .clusters import find_avoiding_dense_pair
from .errors import (
    EmptyGraphError,
    HypothesisViolatedError,
    NoEligiblePairsError,
    NotTotalOrderError,
    ZoneVerificationError,
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
)
from .poset import Cmp, PairPoset, build_pair_poset, interval_chains, iota_sum_capped, longest_chain


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


def _total_order(side: Sequence[int], less) -> list[int]:
    ranked = sorted(side, key=lambda x: sum(1 for u in side if u != x and less(u, x)))
    return ranked


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
    order_a = _total_order(a, P.less_in_a)
    order_b = _total_order(b, P.less_in_b)
    t = len(a)
    if mode is FamilyMode.CROSSING:
        segs = [(order_a[i], order_b[i]) for i in range(t)]
    else:
        segs = [(order_a[i], order_b[t - 1 - i]) for i in range(t)]
    return make_family(mode, segs, None, V)


def _edges_between_list(G: GeometricGraph, A, B) -> list[Segment]:
    out = []
    for u in A:
        for v in B:
            if G.has_edge(u, v):
                out.append((u, v) if u < v else (v, u))
    return out


def _restricted_iota(P: PairPoset, side: Sequence[int], cmp) -> int:
    n = len(side)
    total = 0
    for i in range(n - 1):
        for j in range(i + 1, n):
            if cmp(side[i], side[j]) is Cmp.INCOMPARABLE:
                total += 1
    return total


def _verify_split_blocks(parts, G: GeometricGraph, mode: FamilyMode, budget_pairs: int = 20_000) -> None:
    rel = _relation(mode)
    V = G.vertices
    edge_lists = [
        _edges_between_list(G, Ai, Bi) for Ai, Bi, _ in parts
    ]
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
    side = list(A)
    for i in range(len(side) - 1):
        for j in range(i + 1, len(side)):
            u, v = side[i], side[j]
            if P.cmp_ab(u, v) is not Cmp.INCOMPARABLE:
                continue
            hits = sum(1 for h in hulls if line_meets_hull(V[u], V[v], h))
            assert hits <= 1, (
                f"pair ({u}, {v}) incomparable relative to {hits} blocks"
            )


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
        edges = len(_edges_between_list(G, a, b))
        if edges * delta.denominator < 8 * delta.numerator * big:
            raise ValueError("pair is not dense enough for the guaranteed split")
        iota = _restricted_iota(P, a, P.cmp_ab) + _restricted_iota(P, b, P.cmp_ba)
        budget = eps * delta * big
        if iota * budget.denominator > budget.numerator:
            raise ValueError("pair is too tangled for the guaranteed split")

    tk = t * k
    c_blocks = interval_chains(a, P.less_in_a, m, tk).blocks
    d_blocks = interval_chains(b, P.less_in_b, m, tk).blocks
    coords = V.coords
    c_hulls = [hull_coords(coords[v] for v in blk) for blk in c_blocks]
    d_hulls = [hull_coords(coords[v] for v in blk) for blk in d_blocks]

    iota_cap = (eps.numerator * m * m) // eps.denominator
    eligible: list[tuple[int, int, PairPoset]] = []
    for ai in range(tk):
        for bi in range(tk):
            cnt = len(_edges_between_list(G, c_blocks[ai], d_blocks[bi]))
            if cnt * t < m * m:
                continue
            iota = iota_sum_capped(c_blocks[ai], d_blocks[bi], V, iota_cap, c_hulls[ai], d_hulls[bi])
            if iota is None:
                continue
            sub = build_pair_poset(c_blocks[ai], d_blocks[bi], V)
            eligible.append((ai, bi, sub))
    if not eligible:
        raise NoEligiblePairsError("no block pair is both dense and untangled")

    if mode is FamilyMode.CROSSING:
        dom = lambda p, q: p[0] < q[0] and p[1] < q[1]
    else:
        dom = lambda p, q: p[0] < q[0] and p[1] > q[1]
    chain = longest_chain(eligible, dom)
    if theory:
        assert len(chain) >= k, "guaranteed chain length not reached"
    parts = [(c_blocks[ai], d_blocks[bi], sub) for ai, bi, sub in chain]

    if __debug__:
        _verify_split_blocks(parts, G, mode)
        if tk <= 30 and P.iota_a <= 2000:
            check_incomparability_localized(P, a, d_blocks, V)
    return parts


def _subset_totally_ordered(P: PairPoset, side, cmp) -> bool:
    s = list(side)
    for i in range(len(s) - 1):
        for j in range(i + 1, len(s)):
            if cmp(s[i], s[j]) is Cmp.INCOMPARABLE:
                return False
    return True


def _base_segments(G: GeometricGraph, A, B, P: PairPoset, mode: FamilyMode, theory: bool) -> list[Segment]:
    V = G.vertices
    if not theory:
        # Match the largest totally ordered sub-pair: the full sides when the
        # pair is untangled, else the longest chains of each side.
        a_side, b_side = tuple(A), tuple(B)
        if not (
            len(a_side) == len(b_side)
            and _subset_totally_ordered(P, a_side, P.cmp_ab)
            and _subset_totally_ordered(P, b_side, P.cmp_ba)
        ):
            ca = longest_chain(sorted(a_side), lambda u, v: P.less_in_a(u, v))
            cb = longest_chain(sorted(b_side), lambda u, v: P.less_in_b(u, v))
            r = min(len(ca), len(cb))
            a_side, b_side = tuple(ca[:r]), tuple(cb[:r])
        if len(a_side) >= 1:
            fam = _match_ranks(a_side, b_side, P, V, mode)
            segs = [s for s in fam.segments if G.has_edge(*s)]
            if len(segs) >= 2:
                return segs
    for u in sorted(A):
        for v in sorted(B):
            if G.has_edge(u, v):
                return [(u, v) if u < v else (v, u)]
    return []


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
    t_override: int | None = None,
    k_override: int | None = None,
) -> SegmentFamily | None:
    """Recursive extraction of a verified family from one separated pair.

    At the bottom of the recursion a totally ordered pair yields its full
    matching (one edge in theory mode); otherwise the pair is split and the
    blocks are processed independently, skipping failed blocks outside of
    theory mode. Returns None when the pair spans no edges at all.
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
            t = t_override if t_override is not None else 3
            quarter = len(a) // (t + 1)
            if quarter < 1:
                return base
            if k_override is not None:
                k = k_override
                msub = quarter // k
            else:
                msub = max(1, isqrt(quarter))
                k = quarter // msub
            if k < 1 or msub < 1:
                return base
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
    default practical mode adapts parameters to the instance and keeps the
    largest verified family it finds."""

    theory: bool = False
    m: int | None = None
    k: int | None = None
    t: int | None = None
    eps: Fraction | None = None
    delta: Fraction | None = None
    s: int | None = None
    seed: int = 0
    max_retries: int = 8
    m_decay: int = 2
    net_constant: int = 40


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
    for e in G.edges_iter():
        return make_family(mode, [e], G, G.vertices)
    raise EmptyGraphError("graph has no edges")


def _find_family(G: GeometricGraph, cfg: RunConfig, mode: FamilyMode) -> SegmentFamily:
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
        pick = find_avoiding_dense_pair(
            G, sched.M, sched.eps, search_delta, cfg.seed, net_constant=cfg.net_constant
        )
        if pick is not None:
            fam = crossing_family_from_pair(
                G, pick[0], pick[1], pick[2], mode=mode, budget=s, theory=True, levels=sched.levels
            )
            if fam is not None and len(fam) > len(best):
                best = fam
        return best

    m = cfg.m if cfg.m is not None else min(64, max(2, _icbrt(n)))
    eps = Fraction(cfg.eps) if cfg.eps is not None else Fraction(1, 4)
    delta = Fraction(cfg.delta) if cfg.delta is not None else Fraction(1, 4)
    budget = cfg.s if cfg.s is not None else 2
    grow_cap = min(n // 2, 128)

    for attempt in range(max(1, cfg.max_retries)):
        try:
            pick = find_avoiding_dense_pair(
                G, m, eps, delta, cfg.seed + attempt, net_constant=cfg.net_constant
            )
        except ZoneVerificationError:
            pick = None
        if pick is None:
            # No qualifying pair at this scale: coarser clusters, laxer budget.
            if m <= 2 and eps >= 1:
                break
            m = max(2, m // max(1, cfg.m_decay))
            eps = min(Fraction(1), eps * 2)
            continue
        fam = crossing_family_from_pair(
            G,
            pick[0],
            pick[1],
            pick[2],
            mode=mode,
            budget=budget,
            t_override=cfg.t,
            k_override=cfg.k,
        )
        if fam is not None and len(fam) > len(best):
            best = fam
        if fam is not None and len(fam) >= m and m < grow_cap:
            # Full yield at this cluster size: spend remaining budget on
            # larger clusters. Otherwise retry with a fresh net.
            m = min(grow_cap, m * 2)
    return best


def find_crossing_family(G: GeometricGraph, cfg: RunConfig | None = None) -> SegmentFamily:
    """Largest verified pairwise crossing family the pipeline can find."""
    return _find_family(G, cfg or RunConfig(), FamilyMode.CROSSING)


def find_avoiding_family(G: GeometricGraph, cfg: RunConfig | None = None) -> SegmentFamily:
    """Largest verified pairwise avoiding family the pipeline can find."""
    return _find_family(G, cfg or RunConfig(), FamilyMode.AVOIDING)
