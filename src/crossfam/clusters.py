"""Cluster decomposition of a point set over a line arrangement, and the
search for a separated pair of clusters that is both dense and untangled.

Points are grouped by their open cell (sign vector over the arrangement
lines); each cell is chunked into groups of exactly m along a splitter
direction, so any two clusters are separated by a line. Points on arrangement
lines and partial chunks form the leftover set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterable

from .geom import GeometricGraph, PointSet, hull_coords
from .poset import PairPoset, build_pair_poset, iota_sum_capped
from .zones import AllDetermined, CandidateLines, Sampled, ZoneLineSet, build_zone_lines, net_sample_size


@dataclass(frozen=True)
class CellAssignment:
    """Where a cluster lives: its cell's sign vector over the arrangement
    lines, the splitter direction used to chunk the cell, and the cluster's
    own projection span along that direction."""

    signs: tuple[int, ...]
    direction: tuple[int, int]
    span: tuple[int, int]


@dataclass(frozen=True)
class ClusterDecomposition:
    zone_lines: ZoneLineSet
    m: int
    clusters: tuple[tuple[int, ...], ...]
    cells: tuple[CellAssignment, ...]
    leftover: tuple[int, ...]
    on_lines: tuple[int, ...]


@dataclass(frozen=True)
class PairStats:
    """Exact per-cluster-pair statistics: connecting edge count and the
    total incomparable-pair count over both induced orders."""

    i: int
    j: int
    edge_count: int
    iota_sum: int

    def is_dense(self, delta: Fraction, m: int) -> bool:
        return self.edge_count * delta.denominator >= delta.numerator * m * m

    def is_avoiding(self, eps: Fraction, m: int) -> bool:
        return self.iota_sum * eps.denominator <= eps.numerator * m * m


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


def build_clusters(V: PointSet, L: ZoneLineSet, m: int) -> ClusterDecomposition:
    """Group points by open cell and chunk each cell into clusters of m.

    Points on any arrangement line join the leftover set, as does the final
    partial chunk of every cell.
    """
    if m < 1:
        raise ValueError("m must be positive")
    lines = L.lines
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
    assignments: list[CellAssignment] = []
    leftover: list[int] = list(on_lines)
    for signs in sorted(cells):
        members = cells[signs]
        if len(members) < m:
            leftover.extend(members)
            continue
        pts = [coords[i] for i in members]
        direction = _splitter_direction(pts)
        kx, ky = direction
        members.sort(key=lambda i: (kx * coords[i][0] + ky * coords[i][1], coords[i]))
        full = len(members) // m * m
        for start in range(0, full, m):
            chunk = tuple(members[start : start + m])
            projs = [kx * coords[i][0] + ky * coords[i][1] for i in chunk]
            clusters.append(chunk)
            assignments.append(CellAssignment(signs, direction, (min(projs), max(projs))))
        leftover.extend(members[full:])

    return ClusterDecomposition(
        zone_lines=L,
        m=m,
        clusters=tuple(clusters),
        cells=tuple(assignments),
        leftover=tuple(sorted(leftover)),
        on_lines=tuple(on_lines),
    )


def _edges_between(G: GeometricGraph, A: Iterable[int], B: Iterable[int]) -> int:
    a = list(A)
    b = list(B)
    if G.is_complete:
        return len(a) * len(b)
    return sum(1 for u in a for v in b if G.has_edge(u, v))


def pair_statistics(G: GeometricGraph, D: ClusterDecomposition) -> list[PairStats]:
    """Exact statistics for every unordered cluster pair."""
    V = G.vertices
    out: list[PairStats] = []
    k = len(D.clusters)
    for i in range(k - 1):
        for j in range(i + 1, k):
            cnt = _edges_between(G, D.clusters[i], D.clusters[j])
            P = build_pair_poset(D.clusters[i], D.clusters[j], V)
            out.append(PairStats(i, j, cnt, P.iota_sum))
    return out


def select_pair(stats, eps, delta, m: int) -> tuple[int, int] | None:
    """The qualifying pair with maximum edge count, ties to smallest (i, j)."""
    eps = Fraction(eps)
    delta = Fraction(delta)
    best: PairStats | None = None
    for st in sorted(stats, key=lambda s: (s.i, s.j)):
        if not st.is_dense(delta, m):
            continue
        if not st.is_avoiding(eps, m):
            continue
        if best is None or st.edge_count > best.edge_count:
            best = st
    return (best.i, best.j) if best else None


def desk_net_size(n: int, m: int) -> int:
    """Net size small enough that cells can still hold m-point clusters.

    The theoretical sample-size formula exceeds |V| at any desk scale, which
    would put every point on an arrangement line and leave nothing to
    cluster; this cap keeps the cell count near n / m instead.
    """
    return max(2, isqrt(isqrt(8 * max(n, 1) // max(m, 1))))


def find_avoiding_dense_pair(
    G: GeometricGraph,
    m: int,
    eps,
    delta,
    seed: int,
    *,
    zone_eps=None,
    net_size: int | None = None,
    audit: CandidateLines | None = None,
    net_constant: int = 40,
):
    """Find two separated m-clusters forming a dense, untangled pair.

    Composes the zone-line construction (zone budget eps*delta/2), the cell
    decomposition, and the pair scan. Returns (A, B, PairPoset) or None.
    When ``net_size`` is not given, the sample is capped at a desk-scale size
    so clusters can exist at all, and the audit defaults to none; explicit
    arguments restore the uncapped behaviour.
    """
    V = G.vertices
    n = len(V)
    eps = Fraction(eps)
    delta = Fraction(delta)
    if m < 1 or eps <= 0 or delta <= 0:
        raise ValueError("parameters must be positive")
    if n < 2 or n < 2 * m:
        return None
    ze = Fraction(zone_eps) if zone_eps is not None else eps * delta / 2
    if net_size is None:
        formula = net_sample_size(ze, n, net_constant)
        capped = desk_net_size(n, m)
        size = min(formula, capped)
        if audit is None:
            audit = Sampled(0) if size < formula else AllDetermined()
    else:
        size = net_size
        if audit is None:
            audit = AllDetermined()

    zls = build_zone_lines(
        V, ze, seed, audit, net_constant=net_constant, size_override=size
    )
    D = build_clusters(V, zls, m)
    if len(D.clusters) < 2:
        return None

    # Scan pairs in (i, j) order. The qualifying pair with the highest edge
    # count wins; among equally dense pairs the least tangled one is kept,
    # since downstream yield depends directly on the incomparability count.
    # Tangled pairs are rejected as soon as their count exceeds the relevant
    # budget, without building full tables.
    iota_cap = (eps.numerator * m * m) // eps.denominator
    dense_min = delta.numerator * m * m  # compare against count * delta.den
    best: tuple[int, int, int, int] | None = None  # (count, iota, i, j)
    k = len(D.clusters)
    coords = V.coords
    hulls = [hull_coords(coords[v] for v in c) for c in D.clusters]
    done = False
    for i in range(k - 1):
        for j in range(i + 1, k):
            cnt = _edges_between(G, D.clusters[i], D.clusters[j])
            if cnt * delta.denominator < dense_min:
                continue
            if best is not None:
                if cnt < best[0]:
                    continue
                if cnt == best[0] and best[1] == 0:
                    continue
            cap = iota_cap
            if best is not None and cnt == best[0]:
                cap = min(cap, best[1] - 1)
            iota = iota_sum_capped(D.clusters[i], D.clusters[j], V, cap, hulls[i], hulls[j])
            if iota is None:
                continue
            best = (cnt, iota, i, j)
            if cnt >= m * m and iota == 0:
                done = True
                break
        if done:
            break
    if best is None:
        return None
    A = D.clusters[best[2]]
    B = D.clusters[best[3]]
    return A, B, build_pair_poset(A, B, V)
