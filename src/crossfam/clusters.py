"""Cluster decomposition of a point set over a line arrangement, and the
search for a separated pair of clusters that is both dense and untangled.

The pair search samples a net (``zones.build_zone_lines``) and cuts V over
the lines it determines. Points are grouped by their open cell (sign vector
over the lines); each cell is chunked into groups of exactly m along a
splitter direction, so any two clusters are separated by a line. Points on
the lines and partial chunks form the leftover set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Sequence

from .geom import GeometricGraph, PointSet, hull_coords
from .poset import PairPoset, build_pair_poset
from .zones import Line, build_zone_lines


@dataclass(frozen=True)
class ClusterDecomposition:
    m: int
    clusters: tuple[tuple[int, ...], ...]
    leftover: tuple[int, ...]
    on_lines: tuple[int, ...]


def _splitter_direction(coords: list[tuple[int, int]]) -> tuple[int, int]:
    # Vertical splitters need distinct x; otherwise tilt deterministically to
    # a direction along which all projections are distinct.
    if len({x for x, _ in coords}) == len(coords):
        return (1, 0)
    k = 1
    while True:
        projs = {k * x + y for x, y in coords}
        if len(projs) == len(coords):
            return (k, 1)
        k += 1


def build_clusters(V: PointSet, lines: Sequence[Line], m: int) -> ClusterDecomposition:
    """Group points by open cell of the arrangement of ``lines`` and chunk
    each cell into clusters of m.

    Points on any of the lines join the leftover set, as does the final
    partial chunk of every cell.
    """
    if m < 1:
        raise ValueError("m must be positive")
    coords = V.coords
    cells: dict[tuple[int, ...], list[int]] = {}
    on_lines: list[int] = []
    for idx, (x, y) in enumerate(coords):
        signs = []
        on_line = False
        for l in lines:
            v = l.a * x + l.b * y + l.c
            if v == 0:
                on_line = True
                break
            signs.append(1 if v > 0 else -1)
        if on_line:
            on_lines.append(idx)
        else:
            cells.setdefault(tuple(signs), []).append(idx)

    clusters: list[tuple[int, ...]] = []
    leftover: list[int] = list(on_lines)
    for signs in sorted(cells):
        members = cells[signs]
        if len(members) < m:
            leftover.extend(members)
            continue
        kx, ky = _splitter_direction([coords[i] for i in members])
        members.sort(key=lambda i: (kx * coords[i][0] + ky * coords[i][1], coords[i]))
        full = len(members) // m * m
        clusters.extend(tuple(members[start : start + m]) for start in range(0, full, m))
        leftover.extend(members[full:])

    return ClusterDecomposition(
        m=m,
        clusters=tuple(clusters),
        leftover=tuple(sorted(leftover)),
        on_lines=tuple(on_lines),
    )


def desk_net_size(n: int, m: int) -> int:
    """Net size small enough that cells can still hold m-point clusters.

    The theoretical sample-size formula exceeds |V| at any desk scale, which
    would put every point on an arrangement line and leave nothing to
    cluster; this size keeps the cell count near n / m instead.
    """
    return max(2, isqrt(isqrt(8 * max(n, 1) // max(m, 1))))


def find_avoiding_dense_pair(G: GeometricGraph, m: int, eps, delta, seed: int):
    """Find two separated m-clusters forming a dense, untangled pair.

    Samples a net of ``desk_net_size(n, m)`` points with the given seed,
    cuts V into clusters over the lines the net determines, and scans the
    cluster pairs. The net's zones are not audited. The edge counts of all
    pairs come from one ``block_edge_counts`` pass; a cluster's hull is
    built when a pair holding it first reaches ``build_pair_poset``.
    Returns (A, B, PairPoset) or None.
    """
    V = G.vertices
    n = len(V)
    eps = Fraction(eps)
    delta = Fraction(delta)
    if m < 1 or eps <= 0 or delta <= 0:
        raise ValueError("parameters must be positive")
    if delta > 1:
        # Two m-clusters span at most m*m edges, so no pair could qualify.
        raise ValueError(f"delta must be at most 1, got {delta}")
    if n < 2 or n < 2 * m:
        return None
    if eps * delta > 2:
        # The paper's zone budget eps*delta/2 is a share of V, so it cannot
        # exceed 1; the small net sampled here is never audited against it.
        raise ValueError(f"eps*delta must be at most 2, got {eps * delta}")
    zls = build_zone_lines(V, desk_net_size(n, m), seed)
    D = build_clusters(V, zls.lines, m)
    if len(D.clusters) < 2:
        return None

    # Scan pairs in (i, j) order. The least tangled qualifying pair wins,
    # since downstream yield depends directly on the incomparability count;
    # ties go to more edges, as density need only clear delta. Tangled pairs
    # are rejected as soon as their count exceeds the relevant budget, before
    # their tables are finished.
    iota_cap = (eps.numerator * m * m) // eps.denominator
    dense_min = delta.numerator * m * m  # compare against count * delta_den
    delta_den = delta.denominator
    best: tuple[int, PairPoset] | None = None  # (count, poset)
    clusters = D.clusters
    k = len(clusters)
    counts = G.block_edge_counts(clusters, clusters).tolist()
    coords = V.coords
    hulls: list[list[tuple[int, int]] | None] = [None] * k  # built on demand
    for i in range(k - 1):
        row = counts[i]
        for j in range(i + 1, k):
            cnt = row[j]
            if cnt * delta_den < dense_min:
                continue
            cap = iota_cap
            if best is not None:
                if cnt <= best[0] and best[1].iota_sum == 0:
                    continue
                # Only a pair with more edges may tie the best's iota_sum.
                cap = min(cap, best[1].iota_sum - (cnt <= best[0]))
            for c in (i, j):
                if hulls[c] is None:
                    hulls[c] = hull_coords(coords[v] for v in clusters[c])
            P = build_pair_poset(clusters[i], clusters[j], V, hulls[i], hulls[j], cap)
            if P is None:
                continue
            best = (cnt, P)
            if cnt >= m * m and P.iota_sum == 0:
                return P.a, P.b, P
    if best is None:
        return None
    P = best[1]
    return P.a, P.b, P
