"""Cluster decomposition of a point set over a line arrangement, and the
search for a separated pair of clusters that is both dense and untangled.

The pair search samples a net (``zones.build_zone_lines``) and cuts V over
the lines it determines. Points are grouped by their open cell (sign vector
over the lines, found for every point in one numpy pass); each cell is
chunked into groups of exactly m along a splitter direction, so any two
clusters are separated by a line. Points on the lines and partial chunks
form the leftover set. The scan takes the hulls of all clusters from one
pass, ranks the dense cluster pairs by their capped incomparable count, and
builds the comparability tables of the one pair it returns: after the scan
for a pair missing edges, while ranking for a complete pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import isqrt
from typing import Sequence

import numpy as np

from .errors import DegenerateInputError
from .geom import GeometricGraph, PointSet, hull_coords
from .poset import build_pair_poset, iota_sum_capped
from .zones import Line, build_zone_lines


@dataclass(frozen=True)
class ClusterDecomposition:
    m: int
    clusters: tuple[tuple[int, ...], ...]
    leftover: tuple[int, ...]
    on_lines: tuple[int, ...]


def _splitter_direction(coords: list[tuple[int, int]]) -> tuple[int, int]:
    # Vertical splitters need distinct x; otherwise tilt deterministically to
    # a direction along which all projections are distinct. Two points on
    # one spot project alike in every direction.
    if len({x for x, _ in coords}) == len(coords):
        return (1, 0)
    seen = set()
    for c in coords:
        if c in seen:
            raise DegenerateInputError(f"point ({c[0]}, {c[1]}) is repeated")
        seen.add(c)
    k = 1
    while True:
        projs = {k * x + y for x, y in coords}
        if len(projs) == len(coords):
            return (k, 1)
        k += 1


# Net lines through two points within the int64 bound have |a|, |b| at most
# 2^30 and |c| at most 2^60, so a*x + b*y + c is at most 2^61 in magnitude.
_LINE_AB_LIMIT = 2**30
_LINE_C_LIMIT = 2**60


def _line_signs(V: PointSet, lines: Sequence[Line]) -> np.ndarray:
    """The sign of ``a*x + b*y + c`` for every point of V (rows) and line
    (columns): in one int64 pass when V is within the int64 bound
    and every line's coefficients are within the net lines' bounds, else in
    Python ints."""
    n = len(V)
    if V.within_int64_bound and all(
        abs(l.a) <= _LINE_AB_LIMIT and abs(l.b) <= _LINE_AB_LIMIT and abs(l.c) <= _LINE_C_LIMIT for l in lines
    ):
        a, b, c = np.array([(l.a, l.b, l.c) for l in lines], dtype=np.int64).reshape(-1, 3).T
        xs, ys = V.xy[:, :1], V.xy[:, 1:]
        return np.sign(xs * a + ys * b + c)
    rows = [[(v > 0) - (v < 0) for v in (l.a * x + l.b * y + l.c for l in lines)] for x, y in V.coords]
    return np.array(rows, dtype=np.int64).reshape(n, len(lines))


def build_clusters(V: PointSet, lines: Sequence[Line], m: int) -> ClusterDecomposition:
    """Group points by open cell of the arrangement of ``lines`` and chunk
    each cell into clusters of m.

    Points on any of the lines join the leftover set, as does the final
    partial chunk of every cell. Cells go in the order of their sign
    vectors over the lines, -1 before 1. A cell whose points have distinct
    x is chunked in order of x; any other cell along the splitter
    direction. A cell to be chunked that holds one point twice raises
    DegenerateInputError.
    """
    if m < 1:
        raise ValueError("m must be positive")
    coords = V.coords
    signs = _line_signs(V, lines)
    off = (signs != 0).all(axis=1)
    on_lines = np.flatnonzero(~off).tolist()
    # One stable lexsort groups the cells in sign order, each by (x, y).
    idx = np.flatnonzero(off)
    S = signs[idx]
    xs, ys = V.xy[idx, 0], V.xy[idx, 1]
    order = np.lexsort((ys, xs, *S.T[::-1]))
    S, xs = S[order], xs[order]
    new_cell = np.ones(len(idx), dtype=bool)
    new_cell[1:] = (S[1:] != S[:-1]).any(axis=1)
    starts = np.flatnonzero(new_cell).tolist()
    shared_x = np.zeros(len(idx), dtype=bool)
    shared_x[1:] = ~new_cell[1:] & (xs[1:] == xs[:-1])
    # Cells with two points of one x are chunked along a tilted splitter.
    tilted = set((np.searchsorted(starts, np.flatnonzero(shared_x), side="right") - 1).tolist())
    members_all = idx[order].tolist()

    clusters: list[tuple[int, ...]] = []
    leftover: list[int] = list(on_lines)
    for c, (s0, s1) in enumerate(zip(starts, starts[1:] + [len(idx)])):
        members = members_all[s0:s1]
        if len(members) < m:
            leftover.extend(members)
            continue
        if c in tilted:
            kx, ky = _splitter_direction([coords[i] for i in members])
            members.sort(key=lambda i: kx * coords[i][0] + ky * coords[i][1])
        full = len(members) // m * m
        clusters.extend(tuple(members[start : start + m]) for start in range(0, full, m))
        leftover.extend(members[full:])

    return ClusterDecomposition(
        m=m,
        clusters=tuple(clusters),
        leftover=tuple(sorted(leftover)),
        on_lines=tuple(on_lines),
    )


def cluster_hulls(V: PointSet, clusters: Sequence[Sequence[int]]) -> list[list[tuple[int, int]]]:
    """``hull_coords`` of each cluster of vertex indices of ``V``; the
    clusters must all have one size.

    Within the int64 bound (``V.within_int64_bound``) one numpy pass first
    drops every point strictly inside the octagon of its cluster's extreme
    points in the directions x, x + y, y and x - y, both ways. Those points
    lie on the hull in counterclockwise order, so a point strictly left of
    every octagon edge of nonzero length is interior to the hull, and
    ``hull_coords`` of the survivors is that of the whole cluster. A
    cluster whose extremes all coincide drops nothing. Coordinates and
    their differences are at most 2^30, so every cross product is at most
    2^61.
    """
    coords = V.coords
    if V.within_int64_bound and len(clusters) and len(clusters[0]):
        idx = np.array(clusters, dtype=np.intp)
        x = V.xy[idx, 0]
        y = V.xy[idx, 1]
        r = np.arange(len(idx))[:, None]
        ends = [
            f(key, axis=1)[:, None]
            for f, key in ((np.argmin, x), (np.argmin, x + y), (np.argmin, y), (np.argmax, x - y),
                           (np.argmax, x), (np.argmax, x + y), (np.argmax, y), (np.argmin, x - y))
        ]
        ox = [x[r, e] for e in ends]
        oy = [y[r, e] for e in ends]
        # Octagon vertices 0 and 4 hold the least and the greatest x, 2 and
        # 6 the least and the greatest y.
        inside = (ox[0] < ox[4]) | (oy[2] < oy[6])
        for t in range(8):
            ex, ey = ox[t - 7] - ox[t], oy[t - 7] - oy[t]
            inside = inside & ((ex * (y - oy[t]) - ey * (x - ox[t]) > 0) | ((ex == 0) & (ey == 0)))
        keep = ~inside
        survivors = idx[keep].tolist()
        cuts = list(accumulate(keep.sum(axis=1).tolist()))
        clusters = [survivors[c0:c1] for c0, c1 in zip([0] + cuts[:-1], cuts)]
    return [hull_coords(coords[v] for v in c) for c in clusters]


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
    cluster pairs; when the net would leave fewer than 2m points off its
    lines, it returns None before sampling. The net's zones are not
    audited. The edge counts of all pairs come from one
    ``block_edge_counts`` pass and the hulls of all clusters from one
    ``cluster_hulls`` pass. A dense pair missing edges is
    ranked by ``iota_sum_capped``, a complete one by a capped
    ``build_pair_poset``; the pair returned gets the tables of an uncapped
    build, built once. Returns (A, B, PairPoset) or None.
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
    net_size = desk_net_size(n, m)
    if n - min(n, net_size) < 2 * m:
        # Every net point lies on a line through it and another net point,
        # so fewer than 2m points are left for clusters.
        return None
    zls = build_zone_lines(V, net_size, seed)
    D = build_clusters(V, zls.lines, m)
    if len(D.clusters) < 2:
        return None

    # Scan pairs in (i, j) order. The least tangled qualifying pair wins,
    # since downstream yield depends directly on the incomparability count;
    # ties go to more edges, as density need only clear delta. Each pair is
    # ranked by its count, which gives up as soon as it exceeds the relevant
    # budget.
    iota_cap = (eps.numerator * m * m) // eps.denominator
    dense_min = delta.numerator * m * m  # compare against count * delta_den
    delta_den = delta.denominator
    best: tuple[int, int, int, int] | None = None  # (count, iota, i, j)
    P = None  # the best pair's tables, if built while ranking
    clusters = D.clusters
    k = len(clusters)
    counts = G.block_edge_counts(clusters, clusters).tolist()
    hulls = cluster_hulls(V, clusters)
    for i in range(k - 1):
        if best is not None and best[:2] == (m * m, 0):
            break  # no pair can rank above a complete untangled one
        row = counts[i]
        for j in range(i + 1, k):
            cnt = row[j]
            if cnt * delta_den < dense_min:
                continue
            cap = iota_cap
            if best is not None:
                if cnt <= best[0] and best[1] == 0:
                    continue
                # Only a pair with more edges may tie the best's count.
                cap = min(cap, best[1] - (cnt <= best[0]))
            if cnt == m * m:
                # An untangled complete pair ends the scan, so a complete
                # pair gets its tables as it is ranked, kept if it is.
                pair = build_pair_poset(clusters[i], clusters[j], V, hulls[i], hulls[j], cap)
                iota = None if pair is None else pair.iota_sum
            else:
                pair = None
                iota = iota_sum_capped(clusters[i], clusters[j], V, cap, hulls[i], hulls[j])
            if iota is not None:
                best, P = (cnt, iota, i, j), pair
    if best is None:
        return None
    _, _, i, j = best
    if P is None:
        P = build_pair_poset(clusters[i], clusters[j], V, hulls[i], hulls[j])
    return P.a, P.b, P
