"""Cluster decomposition of a point set over a line arrangement, and the
search for a separated pair of clusters that is both dense and untangled.

The pair search samples a net (``zones.build_zone_lines``) and cuts V over
the lines it determines. Points are grouped by their open cell (their sign
vector over the lines, from ``zones.line_signs``); each cell is chunked
into groups of exactly m along a splitter direction, so any two clusters
are separated by a line. Points on the lines and partial chunks
form the leftover set. The scan takes the hulls of all clusters from one
pass and ranks the dense cluster pairs by their capped incomparable count.
The sides of a run of pairs are ranked in one batch (``poset.rank_sides``)
on hull arrays built once per net within the int64 bound; only the first
run ends at a complete pair. Each pair is counted from its rankings,
whatever its size or coordinates, and the pair returned travels as its
``PairPoset``, which holds both clusters (``P.a``, ``P.b``) and rankings.
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
from .poset import PairPoset, hull_edges, poset_from_rankings, rank_sides
from .zones import Line, build_zone_lines, line_signs


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
    signs = line_signs(V, lines)
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


def _octagon_survivors(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # Rows of the int64 arrays x and y are clusters; False marks a point
    # strictly inside its cluster's octagon, whose vertices 0 to 7 are the
    # first least of x, x + y, y, y - x and of their negations (argmax's
    # first greatest), and whose edge t runs from vertex t to t + 1.
    keys = np.stack((x, x + y, y, y - x))
    ends = np.concatenate((keys, -keys)).argmin(axis=2).T
    ox = np.take_along_axis(x, ends, axis=1)[:, :, None]
    oy = np.take_along_axis(y, ends, axis=1)[:, :, None]
    ex, ey = np.roll(ox, -1, axis=1) - ox, np.roll(oy, -1, axis=1) - oy
    strict = (ex * (y[:, None] - oy) - ey * (x[:, None] - ox) > 0) | ((ex == 0) & (ey == 0))
    # Vertices 0 and 4 hold the least and the greatest x, 2 and 6 of y.
    return ~(((ox[:, 0] < ox[:, 4]) | (oy[:, 2] < oy[:, 6])) & strict.all(axis=1))


def cluster_hulls(V: PointSet, clusters: Sequence[Sequence[int]]) -> list[list[tuple[int, int]]]:
    """``hull_coords`` of each cluster of vertex indices of ``V``; the
    clusters must all have one size.

    Within the int64 bound (``V.within_int64_bound``) one numpy pass first
    drops every point strictly inside the octagon of its cluster's extreme
    points in the directions x, x + y, y and x - y, both ways: one
    ``argmin`` over the eight stacked keys, then one broadcast over the
    eight edges. Those points lie on the hull in counterclockwise order, so
    a point strictly left of every octagon edge of nonzero length is
    interior to the hull, and ``hull_coords`` of the survivors is that of
    the whole cluster. A cluster whose extremes all coincide drops nothing.
    Coordinates and their differences are at most 2^30, so every cross
    product is at most 2^61.
    """
    coords = V.coords
    if V.within_int64_bound and len(clusters) and len(clusters[0]):
        idx = np.array(clusters, dtype=np.intp)
        keep = _octagon_survivors(V.xy[idx, 0], V.xy[idx, 1])
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


def check_eps_delta(eps: Fraction, delta: Fraction) -> None:
    """Raise ValueError unless eps > 0, 0 < delta <= 1 and eps * delta <= 2,
    as the pair scan needs them."""
    if eps <= 0 or delta <= 0:
        raise ValueError("parameters must be positive")
    if delta > 1:
        # Two m-clusters span at most m*m edges, so no pair could qualify.
        raise ValueError(f"delta must be at most 1, got {delta}")
    if eps * delta > 2:
        # The paper's zone budget eps*delta/2 is a share of V, so it cannot
        # exceed 1; the small net sampled here is never audited against it.
        raise ValueError(f"eps*delta must be at most 2, got {eps * delta}")


# Points of all sides in one ``rank_sides`` batch of the pair scan: its
# arrays of a few int64 entries per point then stay near 64 KB each.
_BATCH_POINTS = 1 << 12


def find_avoiding_dense_pair(G: GeometricGraph, m: int, eps, delta, seed: int):
    """Find two separated m-clusters forming a dense, untangled pair.

    Samples a net of ``desk_net_size(n, m)`` points with the given seed,
    cuts V into clusters over the lines the net determines, and scans the
    cluster pairs; when the net would leave fewer than 2m points off its
    lines, it returns None before sampling. The net's zones are not
    audited. The edge counts of all pairs come from one ``block_edge_counts``
    pass and the hulls of all clusters from one ``cluster_hulls`` pass.

    The sides of the dense pairs are ranked in batches (``rank_sides``) on
    hull arrays built once per net within the int64 bound. Only the first
    batch also ends at a complete pair, which ends the scan if untangled;
    every batch ends at ``_BATCH_POINTS``. The scan counts each pair from
    its rankings as it is reached (``poset_from_rankings``), with the caps
    of a sequential scan of ``build_pair_poset`` calls, and keeps the
    ``PairPoset`` of the best pair. Returns ``(P, edges)``, that poset
    with the number of graph edges between its sides ``P.a`` and ``P.b``
    that the scan counted, or None.
    """
    V = G.vertices
    n = len(V)
    eps = Fraction(eps)
    delta = Fraction(delta)
    if m < 1:
        raise ValueError("parameters must be positive")
    check_eps_delta(eps, delta)
    if n < 2 or n < 2 * m:
        return None
    net_size = desk_net_size(n, m)
    if n - min(n, net_size) < 2 * m:
        # Every net point lies on a line through it and another net point,
        # so fewer than 2m points are left for clusters.
        return None
    zls = build_zone_lines(V, net_size, seed)
    D = build_clusters(V, zls.lines, m)
    if len(D.clusters) < 2:
        return None

    # Scan the dense pairs in (i, j) order. The least tangled qualifying
    # pair wins, since downstream yield depends directly on the
    # incomparability count; ties go to more edges, as density need only
    # clear delta. Each pair is ranked by its count, which gives up as soon
    # as it exceeds the relevant budget.
    iota_cap = (eps.numerator * m * m) // eps.denominator
    dense_min = delta.numerator * m * m  # compare against count * delta_den
    delta_den = delta.denominator
    complete = m * m
    clusters = D.clusters
    hulls = cluster_hulls(V, clusters)
    dense = [
        (i, j, cnt)
        for i, row in enumerate(G.block_edge_counts(clusters, clusters).tolist())
        for j, cnt in enumerate(row[i + 1 :], i + 1)
        if cnt * delta_den >= dense_min
    ]
    edges = hull_edges(hulls) if dense and V.within_int64_bound else None
    ranked: dict[int, list] = {}  # a batch's pairs' rankings by place in dense
    end = 0  # the pairs before this place have been batched or passed over
    best: tuple[int, int, PairPoset] | None = None  # (count, iota, poset)
    for t, (i, j, cnt) in enumerate(dense):
        if best is not None and best[:2] == (complete, 0):
            break  # no pair can rank above a complete untangled one
        cap = iota_cap
        if best is not None:
            if cnt <= best[0] and best[1] == 0:
                continue
            # Only a pair with more edges may tie the best's count.
            cap = min(cap, best[1] - (cnt <= best[0]))
        if t >= end:
            # The pairs this test passes over now stay passed over until
            # the scan ends.
            batch = []
            for end in range(t, len(dense)):
                bcnt = dense[end][2]
                if not (best is not None and bcnt <= best[0] and best[1] == 0):
                    batch.append(end)
                if (bcnt == complete and t == 0) or len(batch) * 2 * m >= _BATCH_POINTS:
                    break
            end += 1
            # Side i against hull j, then side j against hull i.
            sides = [h for u in batch for h in dense[u][:2]]
            against = [g for u in batch for g in dense[u][1::-1]]
            ranks = rank_sides(
                V, [clusters[h] for h in sides], [hulls[g] for g in against], None if edges is None else edges[against]
            )
            ranked = {u: ranks[2 * s : 2 * s + 2] for s, u in enumerate(batch)}
        P = poset_from_rankings(clusters[i], clusters[j], V, hulls[i], hulls[j], ranked.pop(t), cap)
        if P is not None:
            best = (cnt, P.iota_sum, P)
    if best is None:
        return None
    cnt, _, P = best
    return P, cnt
