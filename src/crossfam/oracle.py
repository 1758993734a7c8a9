"""Ground truth at small scale: exact maximum crossing / avoiding families
via branch-and-bound clique search, and the independent family verifier.
"""

from __future__ import annotations

from dataclasses import dataclass

from .crossing import SegmentFamily, make_family
from .errors import TooLargeError
from .geom import FamilyMode, GeometricGraph, Segment, _relation

DEFAULT_NODE_LIMIT = 120


@dataclass(frozen=True)
class RelationGraph:
    """Graph on the edges of G; two edges are adjacent when the mode relation
    holds between them. Edges sharing an endpoint are never adjacent."""

    mode: FamilyMode
    nodes: tuple[Segment, ...]
    adjacency: tuple[int, ...]  # bitmask per node


def build_relation_graph(
    G: GeometricGraph, mode: FamilyMode, limit: int = DEFAULT_NODE_LIMIT
) -> RelationGraph:
    if G.edge_count > limit:
        raise TooLargeError(f"{G.edge_count} edges exceed the oracle limit of {limit}")
    nodes = tuple(G.edges_iter())
    rel = _relation(mode)
    V = G.vertices
    n = len(nodes)
    adj = [0] * n
    for i in range(n - 1):
        for j in range(i + 1, n):
            if rel(nodes[i], nodes[j], V):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return RelationGraph(mode, nodes, tuple(adj))


def _color_order(P: int, adj: tuple[int, ...]):
    """Greedy coloring of the candidate set; returns nodes with color bounds,
    colors ascending."""
    order: list[int] = []
    bounds: list[int] = []
    color = 0
    left = P
    while left:
        color += 1
        avail = left
        while avail:
            v = (avail & -avail).bit_length() - 1
            avail &= avail - 1
            avail &= ~adj[v]
            left &= ~(1 << v)
            order.append(v)
            bounds.append(color)
    return order, bounds


def _max_clique_size(adj: tuple[int, ...], start: int, target: int | None = None) -> tuple[int, tuple[int, ...]]:
    """Size and one witness of a maximum clique in the mask ``start``.

    If ``target`` is given the search stops as soon as a clique of that size
    exists, returning early.
    """
    best_size = 0
    best: tuple[int, ...] = ()

    def expand(stack: list[int], P: int) -> bool:
        nonlocal best_size, best
        order, bounds = _color_order(P, adj)
        for idx in range(len(order) - 1, -1, -1):
            v = order[idx]
            if len(stack) + bounds[idx] <= best_size:
                return False
            stack.append(v)
            P2 = P & adj[v]
            if P2:
                if expand(stack, P2):
                    return True
            elif len(stack) > best_size:
                best_size = len(stack)
                best = tuple(stack)
                if target is not None and best_size >= target:
                    stack.pop()
                    return True
            stack.pop()
            P &= ~(1 << v)
        return False

    if start:
        expand([], start)
    return best_size, best


def _lex_smallest_clique(adj: tuple[int, ...], n: int, size: int) -> tuple[int, ...]:
    """Lexicographically smallest clique of the given (maximum) size."""
    chosen: list[int] = []
    P = (1 << n) - 1
    remaining = size
    while remaining:
        found = False
        for v in range(n):
            if not (P >> v) & 1:
                continue
            P2 = P & adj[v] & ~((1 << (v + 1)) - 1)
            got, _ = _max_clique_size(adj, P2, target=remaining - 1)
            if got >= remaining - 1:
                chosen.append(v)
                P = P2
                remaining -= 1
                found = True
                break
        assert found, "lexicographic reconstruction lost the clique"
    return tuple(chosen)


def max_family_bruteforce(
    G: GeometricGraph, mode: FamilyMode, limit: int = DEFAULT_NODE_LIMIT
) -> SegmentFamily:
    """Exact maximum family, canonicalized to the lexicographically smallest
    witness among maximum cliques for determinism."""
    rg = build_relation_graph(G, mode, limit)
    n = len(rg.nodes)
    if n == 0:
        return SegmentFamily(mode, (), True, G)
    size, _ = _max_clique_size(rg.adjacency, (1 << n) - 1)
    if size == 0:
        # No relation holds anywhere; any single edge is a maximum family.
        return make_family(mode, [rg.nodes[0]], G, G.vertices)
    witness = _lex_smallest_clique(rg.adjacency, n, size)
    return make_family(mode, [rg.nodes[i] for i in witness], G, G.vertices)


def verify_family(F: SegmentFamily, G: GeometricGraph):
    """Independent check of a family against its graph.

    Returns None when every segment is a graph edge and every pair satisfies
    the mode relation; otherwise the first offending segment pair (a bad
    segment is reported paired with itself).
    """
    V = G.vertices
    n = len(V)
    rel = _relation(F.mode)
    for seg in F.segments:
        a, b = seg
        if not (0 <= a < n and 0 <= b < n) or a == b:
            return seg, seg
        if not G.has_edge(a, b):
            return seg, seg
    # The relation is False for segments sharing an endpoint, so such a
    # pair is reported as any other unrelated pair.
    segs = F.segments
    for i in range(len(segs) - 1):
        s = segs[i]
        for j in range(i + 1, len(segs)):
            if not rel(s, segs[j], V):
                return s, segs[j]
    return None
