"""Drivers that extract large pairwise crossing or pairwise avoiding segment
families from a geometric graph: the practical pipeline.

The pipeline finds a separated pair of clusters that is dense and nearly
untangled, searching the cluster size m downwards, and returns the base of
that pair: a longest run of edges between its longest chains,
rank-matched. The pair travels as its ``PairPoset``, which holds both
sides; the chains are read off each side's two tangent rankings
(``poset.ranked_chain``), so the practical pipeline packs no
comparability table. Theory mode hands the run to
``theory.theory_segments``, the paper's recursion under its exact
schedules. Every returned family is
re-verified pairwise with exact predicates by ``make_family`` before it
leaves a driver; soundness never depends on the search heuristics.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .clusters import check_eps_delta, find_avoiding_dense_pair
from .errors import EmptyGraphError, NotTotalOrderError
from .geom import (
    FamilyMode,
    GeometricGraph,
    PointSet,
    Segment,
    _first_edge,
    first_unrelated_pair,
    first_unrelated_pair_int64,
)
from .poset import PairPoset, build_pair_poset, ranked_chain
from .theory import theory_segments

# Not called here: the benchmark's tracer (benchmark/spans.py) looks the
# split up as ``crossing.split_pair``, then rebinds every module attribute
# that is the same object, here and in ``theory`` alike.
from .theory import split_pair  # noqa: F401


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

    Every pair is checked exactly: by ``geom.first_unrelated_pair_int64``
    when the point set lies within the int64 bound, else by the scalar loop
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
    if V.within_int64_bound:
        bad = first_unrelated_pair_int64(segs, V, crossing)
    else:
        bad = first_unrelated_pair(segs, V, crossing)
    if bad is not None:
        i, j = bad
        raise AssertionError(f"family fails pairwise {mode.value} check at {segs[i]} vs {segs[j]}")
    return SegmentFamily(mode, tuple(segs), True, G)


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
    segs = _rank_matching(P.order_a, P.order_b, mode)
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


def _base_segments(G: GeometricGraph, P: PairPoset, mode: FamilyMode) -> list[Segment]:
    """The practical family of a pair: a longest run of edges between the
    longest chains of its sides (the full sides, in their first rankings,
    when the pair is untangled), read off their rankings, or a single edge
    when no run has two."""
    order_a, order_b = ranked_chain(P.order_a, P.place_a), ranked_chain(P.order_b, P.place_b)
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
    return _first_edge(G, P.a, P.b)


def crossing_family_from_pair(
    G: GeometricGraph, P: PairPoset, *, mode: FamilyMode = FamilyMode.CROSSING
) -> SegmentFamily | None:
    """The verified base of the separated pair (``P.a``, ``P.b``), or None
    when the pair spans no edges at all. The base is a longest run of edges
    between the pair's ordered chains (``_base_segments``).
    """
    segs = _base_segments(G, P, mode)
    if not segs:
        return None
    return make_family(mode, segs, G, G.vertices)


@dataclass(frozen=True)
class RunConfig:
    """Driver configuration. Theory mode (``theory.theory_segments``)
    follows the exact schedules, with ``s`` (default 1) the depth of the
    paper's recursion; ``s`` applies to theory mode only and is rejected
    elsewhere, and theory mode refuses ``m``, ``eps`` and ``delta``. The
    default practical mode picks the cluster size m by itself and returns
    the base of each pair it tries (``crossing_family_from_pair``).

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


_NETS_AT_FAMILY = 4  # nets at the m of a first family whose pair misses edges


def _find_family(G: GeometricGraph, cfg: RunConfig, mode: FamilyMode) -> SegmentFamily:
    if cfg.m is not None and cfg.m < 1:
        raise ValueError(f"m must be at least 1, got {cfg.m}")
    if cfg.max_retries < 1:
        raise ValueError(f"max_retries must be at least 1, got {cfg.max_retries}")
    eps = Fraction(cfg.eps) if cfg.eps is not None else Fraction(1, 4)
    delta = Fraction(cfg.delta) if cfg.delta is not None else Fraction(1, 4)
    check_eps_delta(eps, delta)
    n = len(G.vertices)
    if G.edge_count == 0:
        raise EmptyGraphError("graph has no edges")
    best = make_family(mode, [next(G.edges_iter())], G, G.vertices)

    if cfg.theory:
        segs = theory_segments(G, cfg, mode)
        if segs:
            fam = make_family(mode, segs, G, G.vertices)
            if len(fam) > len(best):
                best = fam
        return best

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
            P, edges = pick
            fam = crossing_family_from_pair(G, P, mode=mode)
            if fam is not None and len(fam) > len(best):
                best = fam
        if len(best) >= 2:
            nets += 1
            full = pick is not None and edges == len(P.a) * len(P.b)
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
