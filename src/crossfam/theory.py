"""The paper's recursion and its exact parameter schedules: theory mode.

``theory_params`` gives the schedule for a recursion of depth s: per level
the block counts t and k, the block size m, and the pair size M.
``theory_segments`` is the theory driver. It runs one pair search at the
schedule's M and hands the ``PairPoset`` of the pair found to
``recursion_segments``, which splits it into a chain of blockwise ordered
block pairs, each a ``PairPoset`` of its two blocks, whose edges relate
across blocks (``split_pair``, over ``poset.interval_chains``), recurses
into the blocks and unions the results; a node at the bottom, or one too
small to split, gives one edge. The guaranteed regime starts at
astronomically large n, so on ordinary inputs the driver returns a single
edge or nothing. The drivers in ``crossing`` verify whatever it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations
from math import comb, log
from typing import Sequence

from .clusters import find_avoiding_dense_pair
from .errors import NoEligiblePairsError
from .geom import (
    FamilyMode,
    GeometricGraph,
    PointSet,
    Segment,
    _first_edge,
    _relation,
    convex_hull,
    hull_coords,
    line_meets_hull,
)
from .poset import PairPoset, build_pair_poset, interval_chains, ranked_chain


@dataclass(frozen=True)
class LevelParams:
    """Split parameters for one recursion level: block counts, block size,
    and the guaranteed family size K of a pair of size M at that level."""

    t: int
    k: int
    m: int
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
            K_l = 8 ** comb(lvl, 2)
            M_l = 9**lvl * K_l
            levels.append(
                LevelParams(
                    t=8,
                    k=8 ** (lvl - 1),
                    # Block size fed to the split at this level; the first
                    # level is the recursion base, where m is the pair size.
                    m=prev_m if prev_m is not None else M_l,
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
        levels.append(LevelParams(t=t_l, k=k_l, m=m_l, K=(512 * u) ** comb(lvl, 2), M=M_l))
        prev_m = M_l
        M = M_l
    assert M <= u**s * K, "recursive size exceeds its closed-form bound"
    return ParamSchedule(ScheduleMode.DENSE, s, u, eps, delta, K, M, tuple(levels))


def _dense_exponent(n: int, edges: int) -> Fraction:
    x = 2 - log(edges) / log(n)
    frac = Fraction(x).limit_denominator(1000)
    if frac > 1:
        frac = Fraction(1)
    if frac <= 0:
        frac = Fraction(1, 1000)
    return frac


# Edge pairs across blocks beyond which ``_verify_split_blocks`` checks none.
_VERIFY_BUDGET_PAIRS = 20_000


def _verify_split_blocks(parts: Sequence[PairPoset], G: GeometricGraph, mode: FamilyMode) -> None:
    rel = _relation(mode)
    V = G.vertices
    edge_lists = [list(G.edges_between(p.a, p.b)) for p in parts]
    total_checks = 0
    for i in range(len(parts) - 1):
        for j in range(i + 1, len(parts)):
            total_checks += len(edge_lists[i]) * len(edge_lists[j])
    if total_checks > _VERIFY_BUDGET_PAIRS:
        return
    for i in range(len(parts) - 1):
        for j in range(i + 1, len(parts)):
            for e in edge_lists[i]:
                for f in edge_lists[j]:
                    assert rel(e, f, V), (
                        f"edges {e} and {f} from blocks {i} and {j} violate the "
                        f"{mode.value} guarantee"
                    )


def check_incomparability_localized(P: PairPoset, d_blocks, V: PointSet) -> None:
    """Assert that a pair of ``P.a`` incomparable relative to ``P.b`` stays
    incomparable relative to at most one of the ordered blocks of ``P.b``."""
    hulls = [convex_hull(V[i] for i in blk) for blk in d_blocks]
    pts = {u: V[u] for u in P.a}
    for u, v in combinations(P.a, 2):
        if (P.succ_a[u] >> v | P.succ_a[v] >> u) & 1:
            continue
        hits = sum(1 for h in hulls if line_meets_hull(pts[u], pts[v], h))
        assert hits <= 1, f"pair ({u}, {v}) incomparable relative to {hits} blocks"


def _grid_chain(cells, mode: FamilyMode) -> list[int]:
    """A longest chain, as ``poset.longest_chain`` gives it, of the indices
    of the distinct ``(ai, bi, ...)`` cells of a block grid: cell e
    precedes every cell in a later row and a later column (crossing) or an
    earlier column (avoiding). That order is the intersection of two
    rankings, read by ``poset.ranked_chain``: crossing ranks by (row,
    -column), then by (column, -row); avoiding by (row, column), then by
    (-column, -row)."""
    s = 1 if mode is FamilyMode.CROSSING else -1
    order = sorted(range(len(cells)), key=lambda e: (cells[e][0], -s * cells[e][1]))
    last = sorted(range(len(cells)), key=lambda e: (s * cells[e][1], -cells[e][0]))
    place = [0] * len(cells)
    for p, e in enumerate(last):
        place[e] = p
    return ranked_chain(order, [place[e] for e in order])


def split_pair(
    G: GeometricGraph,
    P: PairPoset,
    t: int,
    k: int,
    m: int,
    *,
    mode: FamilyMode = FamilyMode.CROSSING,
    theory: bool = False,
) -> list[PairPoset]:
    """Split the separated pair (``P.a``, ``P.b``) into a chain of dense,
    untangled block pairs.

    Extracts t*k ordered blocks of size m from each side, scores every block
    pair, and returns a longest chain of eligible pairs, each as the
    ``PairPoset`` of its two blocks (``sub.a``, ``sub.b``). Crossing mode
    chains pairs with both indices increasing; avoiding mode reverses the
    second coordinate.
    """
    a, b = P.a, P.b
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
        budget = eps * delta * big
        if P.iota_sum * budget.denominator > budget.numerator:
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

    chain = [eligible[e] for e in _grid_chain(eligible, mode)]
    if theory:
        assert len(chain) >= k, "guaranteed chain length not reached"
    parts = [sub for _, _, sub in chain]

    if __debug__:
        _verify_split_blocks(parts, G, mode)
        if tk <= 30 and P.iota_a <= 2000:
            check_incomparability_localized(P, d_blocks, V)
    return parts


def recursion_segments(
    G: GeometricGraph, P: PairPoset, levels: Sequence[LevelParams], mode: FamilyMode
) -> list[Segment]:
    """The paper's recursion on the pair (``P.a``, ``P.b``), one level per
    entry of ``levels``: each node is split into a chain of block pairs
    (``split_pair``) and the blocks recurse; a node at the bottom, or one
    too small to split, gives one edge. A block the split cannot handle
    raises. The segments are not yet verified."""

    def rec(p: PairPoset, depth: int) -> list[Segment]:
        if depth <= 1 or len(p.a) < 4 or len(p.a) != len(p.b):
            return _first_edge(G, p.a, p.b)
        lvl = levels[depth - 1]
        parts = split_pair(G, p, lvl.t, lvl.k, lvl.m, mode=mode, theory=True)
        return [s for sub in parts for s in rec(sub, depth - 1)]

    return rec(P, len(levels))


def theory_segments(G: GeometricGraph, cfg, mode: FamilyMode) -> list[Segment]:
    """The theory driver: the exact schedule for depth ``cfg.s`` (default
    1), one pair search at its M with seed ``cfg.seed``, and the recursion
    on the pair found; empty when the search finds none. ``cfg`` is the
    run's ``crossing.RunConfig``; its practical options are refused. The
    segments are not yet verified."""
    if cfg.m is not None or cfg.eps is not None or cfg.delta is not None:
        raise ValueError("m, eps and delta apply only to practical mode")
    n = len(G.vertices)
    s = cfg.s if cfg.s is not None else 1
    if G.is_complete:
        sched = theory_params(n, None, s)
        search_delta = Fraction(1, 3)
    else:
        sched = theory_params(n, _dense_exponent(n, G.edge_count), s)
        search_delta = sched.delta
    pick = find_avoiding_dense_pair(G, sched.M, sched.eps, search_delta, cfg.seed)
    if pick is None:
        return []
    return recursion_segments(G, pick[0], sched.levels, mode)
