import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossfam import clusters, poset
from crossfam.audit import hulls_disjoint
from crossfam.cli import generate_points
from crossfam.clusters import (
    ClusterDecomposition,
    build_clusters,
    cluster_hulls,
    desk_net_size,
    find_avoiding_dense_pair,
)
from crossfam.crossing import RunConfig, find_crossing_family
from crossfam.errors import DegenerateInputError, NotSeparatedError
from crossfam.geom import (
    COORD_LIMIT,
    INT64_COORD_LIMIT,
    GeometricGraph,
    Point,
    PointSet,
    hull_coords,
    hull_coords_disjoint,
)
from crossfam.poset import build_pair_poset, iota_sum_capped
from crossfam.zones import Line, build_zone_lines


def test_build_clusters_single_cell():
    pts = [Point(x, x * x - 7 * x + 3) for x in range(10)]  # parabola, distinct x
    V = PointSet(pts)
    D = build_clusters(V, (), 3)
    assert len(D.clusters) == 3
    assert all(len(c) == 3 for c in D.clusters)
    assert D.leftover == (9,)
    assert D.on_lines == ()


def test_build_clusters_m_too_big():
    V = PointSet([Point(0, 0), Point(1, 3), Point(5, 1)])
    D = build_clusters(V, (), 5)
    assert D.clusters == ()
    assert set(D.leftover) == {0, 1, 2}


def test_build_clusters_split_cell():
    left = [Point(-x - 1, x * x + x) for x in range(4)]
    right = [Point(x + 1, x * x - x + 1) for x in range(5)]
    V = PointSet(left + right)
    D = build_clusters(V, (Line(1, 0, 0),), 2)
    assert len(D.clusters) == 4
    # one leftover from the odd right cell
    assert len(D.leftover) == 1
    for c in D.clusters:
        xs = {1 if V[i].x > 0 else -1 for i in c}
        assert len(xs) == 1


def test_build_clusters_on_line_points_go_to_leftover():
    V = PointSet([Point(0, 1), Point(0, -3), Point(3, 1), Point(2, 5), Point(-1, 4), Point(-2, 2)])
    D = build_clusters(V, (Line(1, 0, 0),), 2)
    assert set(D.on_lines) == {0, 1}
    assert set(D.on_lines) <= set(D.leftover)


def test_build_clusters_partition_and_separation(rng):
    for trial in range(10):
        V = generate_points("random-disk", rng.randint(20, 60), 300 + trial)
        q = min(4, len(V))
        lines = []
        for i in range(q - 1):
            lines.append(Line.through(V[i], V[i + 1]))
        D = build_clusters(V, tuple(set(lines)), rng.randint(2, 4))
        everything = [i for c in D.clusters for i in c] + list(D.leftover)
        assert sorted(everything) == list(range(len(V)))
        for c1, c2 in itertools.combinations(D.clusters, 2):
            assert hulls_disjoint([V[i] for i in c1], [V[i] for i in c2])


def test_leftover_bound(rng):
    # With r >= 3 arrangement lines, at most (r^2 - 1) cells hold a partial
    # chunk of size < m, and lines carry at most 2 points each.
    for trial in range(6):
        n = rng.randint(40, 120)
        m = rng.randint(2, 5)
        V = generate_points("random-disk", n, 800 + trial)
        lines = build_zone_lines(V, 3, trial).lines
        r = len(lines)
        if r < 3:
            continue
        D = build_clusters(V, lines, m)
        partial = len(D.leftover) - len(D.on_lines)
        assert partial <= (r * r - 1) * m
        assert len(D.on_lines) <= 2 * r


def test_build_clusters_rejects_repeated_point():
    # A cell to be chunked must hold distinct points for its (x, y) order
    # to separate its chunks.
    V = PointSet([(0, 0), (0, 0), (1, 5), (2, 3)], check_general_position=False)
    with pytest.raises(DegenerateInputError, match=r"point \(0, 0\) is repeated"):
        build_clusters(V, [], 2)
    # A cell too small to chunk is left over whole, as before.
    assert build_clusters(V, [], 5).leftover == (0, 1, 2, 3)


def reference_build_clusters(V, lines, m):
    """The per-point loop ``build_clusters`` replaced: each point's signs
    over the lines in Python ints, cells by sign tuple, each cell sorted
    by (x, y)."""
    coords = V.coords
    cells = {}
    on_lines = []
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
    found = []
    leftover = list(on_lines)
    for signs in sorted(cells):
        members = cells[signs]
        if len(members) < m:
            leftover.extend(members)
            continue
        members.sort(key=lambda i: coords[i])
        full = len(members) // m * m
        found.extend(tuple(members[start : start + m]) for start in range(0, full, m))
        leftover.extend(members[full:])
    return ClusterDecomposition(m, tuple(found), tuple(sorted(leftover)), tuple(on_lines))


@st.composite
def arrangements(draw):
    """Distinct points on a small grid scaled so the largest coordinate is
    ``top``, so that cells often share an x; lines through two of them, or
    with coefficients drawn up to past the int64 path's bounds."""
    top = draw(st.sampled_from([50, INT64_COORD_LIMIT, INT64_COORD_LIMIT + 1, COORD_LIMIT]))
    grid = draw(st.integers(2, 8))
    cells = draw(st.lists(st.tuples(st.integers(-grid, grid), st.integers(-grid, grid)),
                          min_size=2, max_size=40, unique=True))
    scale = top // grid
    pts = [Point(x * scale, y * scale) for x, y in cells if (x * scale, y * scale) != (top, -top)]
    pts.append(Point(top, -top))
    lines = []
    for kind in draw(st.lists(st.sampled_from(["through", "coefficients"]), max_size=4)):
        if kind == "through":
            p, q = draw(st.lists(st.sampled_from(range(len(pts))), min_size=2, max_size=2, unique=True))
            lines.append(Line.through(pts[p], pts[q]))
        else:
            big = draw(st.sampled_from([3, 2**30, 2**30 + 1]))
            a, b = draw(st.tuples(st.integers(-big, big), st.integers(-big, big)).filter(lambda ab: ab != (0, 0)))
            c = draw(st.sampled_from([0, 2**60, -(2**60) - 1, 7 * 2**60])) + draw(st.integers(-big * top, big * top))
            lines.append(Line(a, b, c))
    m = draw(st.integers(1, 6))
    return PointSet(pts, check_general_position=False), lines, m


@given(arrangements())
@settings(max_examples=300, deadline=None)
@example((PointSet([Point(0, 0), Point(0, 5), Point(1, 2), Point(1, 9), Point(3, 1), Point(2, 7)]), [], 2))
@example((PointSet([Point(x, 0) for x in range(4)], check_general_position=False), [Line(0, 1, 0)], 1))
# Lines beyond the net lines' bounds on c, or on a and b: a*x + b*y + c
# would wrap in int64 at the first point.
@example((PointSet([Point(2**29, 2**29), Point(2**29 - 1, -(2**29)), Point(-(2**29), 0)]),
          [Line(2**30, 2**30, 7 * 2**60 + 2**59)], 1))
@example((PointSet([Point(-(2**29), -(2**29)), Point(1, 0)]), [Line(-(2**33), -(2**33), 0)], 1))
def test_build_clusters_matches_per_point_loop(case):
    V, lines, m = case
    assert build_clusters(V, lines, m) == reference_build_clusters(V, lines, m)


@given(arrangements())
@settings(max_examples=300, deadline=None)
@example((PointSet([Point(0, 0), Point(0, 5), Point(1, 2), Point(1, 9), Point(3, 1), Point(2, 7)]), [], 2))
# Three points of one x whose middle one comes last: ties of x must go by y.
@example((PointSet([Point(0, 0), Point(0, 5), Point(0, 2), Point(1, 1), Point(2, 9)], check_general_position=False), [], 2))
def test_build_clusters_separates_every_pair(case):
    # The grids put many points of a cell on one x; the (x, y) order still
    # separates the cell's chunks.
    V, lines, m = case
    hulls = [hull_coords(V.coords[i] for i in c) for c in build_clusters(V, lines, m).clusters]
    for ha, hb in itertools.combinations(hulls, 2):
        assert hull_coords_disjoint(ha, hb)


@st.composite
def hull_clusters(draw, tops=(INT64_COORD_LIMIT, INT64_COORD_LIMIT + 1, COORD_LIMIT)):
    """Clusters of one size whose points lie in a cloud, in convex position,
    on the boundary of a square with collinear points along its sides, or
    on one line; scaled from a small grid so that the largest coordinate
    of the set is ``top``, one of ``tops``."""
    top = draw(st.sampled_from(tops))
    k = draw(st.integers(1, 5))
    size = draw(st.integers(1, 12))
    grid = 12
    groups = []
    for _ in range(k):
        kind = draw(st.sampled_from(["cloud", "convex", "square", "line"]))
        t = st.integers(-grid, grid)
        if kind == "cloud":
            pts = draw(st.lists(st.tuples(t, t), min_size=size, max_size=size))
        elif kind == "convex":
            xs = draw(st.lists(t, min_size=size, max_size=size, unique=True))
            pts = [(x, x * x // grid - grid) for x in xs]
        elif kind == "square":
            inner = st.integers(1 - grid, grid - 1)
            pts = draw(st.lists(st.tuples(inner, inner), max_size=size // 2))
            turn = [lambda u: (u, -grid), lambda u: (grid, u), lambda u: (-u, grid), lambda u: (-grid, -u)]
            side = st.tuples(st.integers(0, 3), t)
            pts += [turn[s](u) for s, u in draw(st.lists(side, min_size=size - len(pts), max_size=size - len(pts)))]
        else:
            a, b = draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
            pts = [(a * u, b * u) for u in draw(st.lists(st.integers(-5, 5), min_size=size, max_size=size))]
        groups.append(pts)
    scale = top // grid
    coords = [(x * scale, y * scale) for grp in groups for x, y in grp] + [(top, -top)]
    order = draw(st.permutations(range(k * size)))
    return PointSet(coords, check_general_position=False), [order[b * size : (b + 1) * size] for b in range(k)]


@given(hull_clusters())
@settings(max_examples=300, deadline=None)
@example((PointSet([(0, 0)] * 4 + [(INT64_COORD_LIMIT, 0)], check_general_position=False), [[0, 1, 2, 3]]))
def test_cluster_hulls_match_hull_coords(case):
    # The octagon prefilter drops only points strictly inside each cluster's
    # hull, so every hull is that of the whole cluster.
    V, groups = case
    assert cluster_hulls(V, groups) == [hull_coords(V.coords[v] for v in grp) for grp in groups]


def reference_octagon_survivors(x, y):
    """The octagon filter as eight steps, one per edge: extremes by argmin
    and argmax of x, x + y, y and x - y, then each edge tested in turn."""
    r = np.arange(len(x))[:, None]
    ends = [
        f(key, axis=1)[:, None]
        for f, key in ((np.argmin, x), (np.argmin, x + y), (np.argmin, y), (np.argmax, x - y),
                       (np.argmax, x), (np.argmax, x + y), (np.argmax, y), (np.argmin, x - y))
    ]
    ox = [x[r, e] for e in ends]
    oy = [y[r, e] for e in ends]
    inside = (ox[0] < ox[4]) | (oy[2] < oy[6])
    for t in range(8):
        ex, ey = ox[t - 7] - ox[t], oy[t - 7] - oy[t]
        inside = inside & ((ex * (y - oy[t]) - ey * (x - ox[t]) > 0) | ((ex == 0) & (ey == 0)))
    return ~inside


# The corners of the int64 box, with a point inside and one on an edge:
# every cross product of the octagon filter reaches 2^61.
L29 = INT64_COORD_LIMIT
INT64_BOX = [(-L29, -L29), (L29, -L29), (0, 0), (L29, L29), (L29, 0), (-L29, L29)]


@given(hull_clusters(tops=(12, INT64_COORD_LIMIT)))
@settings(max_examples=300, deadline=None)
@example((PointSet([(0, 0)] * 4 + [(INT64_COORD_LIMIT, 0)], check_general_position=False), [[0, 1, 2, 3]]))
@example((PointSet(INT64_BOX, check_general_position=False), [[0, 1, 2, 3, 4, 5]]))
@example((PointSet(INT64_BOX[::-1] + [(0, 0)], check_general_position=False), [[0, 1, 2], [3, 4, 5]]))
def test_octagon_filter_matches_eight_step_reference(case):
    # One argmin over stacked keys and one broadcast over the eight edges
    # keep the survivors of the eight-step loop, ties and all.
    V, groups = case
    idx = np.array(groups, dtype=np.intp)
    x, y = V.xy[idx, 0], V.xy[idx, 1]
    keep = clusters._octagon_survivors(x, y)
    assert keep.tolist() == reference_octagon_survivors(x, y).tolist()


def _disk_graph(n, density):
    V = generate_points("random-disk", n, 3)
    edge_rng = random.Random(3)
    pairs = itertools.combinations(range(n), 2)
    return GeometricGraph.from_edges(V, [e for e in pairs if density is None or edge_rng.random() < density])


def _ranked_batches(monkeypatch):
    """The sides of each ``rank_sides`` call the pair scan makes."""
    batches = []
    rank = clusters.rank_sides

    def spy(V, sides, hulls, edges=None):
        batches.append([tuple(side) for side in sides])
        return rank(V, sides, hulls, edges)

    monkeypatch.setattr(clusters, "rank_sides", spy)
    return batches


def test_scan_ranks_the_rest_after_a_tangled_first_complete_pair(monkeypatch):
    # The disk workload's nets: n = 256 in clusters of 64, at the eps of
    # 1/2 the driver reaches after the m = 128 attempt. Each net cuts three
    # clusters and every pair is complete and tangled: the first pair is
    # ranked alone, the other two in one call.
    batches = _ranked_batches(monkeypatch)
    n, m = 256, 64
    for seed in range(1000, 1004):
        G = GeometricGraph.complete(generate_points("random-disk", n, seed))
        lines = build_zone_lines(G.vertices, desk_net_size(n, m), seed + 1).lines
        A, B, C = build_clusters(G.vertices, lines, m).clusters
        batches.clear()
        P, edges = find_avoiding_dense_pair(G, m, Fraction(1, 2), Fraction(1, 4), seed + 1)
        assert edges == m * m and P.iota_sum > 0
        assert batches == [[A, B], [A, C, B, C]]


def test_scan_ranks_an_untangled_first_pair_alone(monkeypatch):
    # In convex position the first pair is complete and untangled, so the
    # scan ranks it alone and ends.
    batches = _ranked_batches(monkeypatch)
    n, m = 512, 128
    G = GeometricGraph.complete(generate_points("convex", n, 0))
    D = build_clusters(G.vertices, build_zone_lines(G.vertices, desk_net_size(n, m), 1).lines, m)
    assert len(D.clusters) > 2
    P, edges = find_avoiding_dense_pair(G, m, Fraction(1, 2), Fraction(1, 4), 1)
    assert (edges, P.iota_sum) == (m * m, 0)
    assert batches == [list(D.clusters[:2])]


def test_scan_leaves_pairs_passed_over_out_of_later_batches(monkeypatch):
    # Batches of two pairs (_BATCH_POINTS = 4m) on convex points, where
    # every cluster pair is untangled, with the edge count of each pair set.
    # The first pair, with fewer than m² edges, becomes an untangled best;
    # from then on a pair with no more edges than the best is passed over,
    # and a batch leaves it out: (0, 4) and (1, 4) are never ranked.
    n, m, seed = 48, 8, 0
    V = generate_points("convex", n, 0)
    C = build_clusters(V, build_zone_lines(V, desk_net_size(n, m), seed).lines, m).clusters
    assert len(C) == 5
    counts = {(0, 1): 32, (0, 2): 32, (0, 3): 48, (0, 4): 32, (1, 2): 40,
              (1, 3): 56, (1, 4): 48, (2, 4): 60, (3, 4): 20}
    G = GeometricGraph.from_edges(V, [(C[a][k // m], C[b][k % m]) for (a, b), c in counts.items() for k in range(c)])
    monkeypatch.setattr(clusters, "_BATCH_POINTS", 4 * m)
    batches = _ranked_batches(monkeypatch)
    args = (G, m, Fraction(1, 2), Fraction(1, 4), seed)
    pick = find_avoiding_dense_pair(*args)
    # (0, 2) is ranked with (0, 1), before a best exists; the batches that
    # start at (0, 3) and (1, 3) hold the next pair with more edges.
    assert batches == [[C[0], C[1], C[0], C[2]], [C[0], C[3], C[1], C[2]], [C[1], C[3], C[2], C[4]]]
    assert pick == reference_scan(*args)
    P, edges = pick
    assert (P.a, P.b, edges, P.iota_sum) == (C[2], C[4], 60, 0)


def _matching(n):
    return GeometricGraph.from_edges(generate_points("random-disk", n, 3), [(i, i + 1) for i in range(0, n, 2)])


def _scan_builds_tables_once(monkeypatch, groups):
    """Run the pair scan on each (m, seeds, cases) group and check that no
    side is ranked twice against one hull, each pair is counted from its
    rankings once, into its PairPoset, and a scan that finds nothing ranks
    and counts nothing. The pair returned must carry the PairPoset of an
    uncapped build and its edge count. Returns the set of ``edges == m * m``
    over the pairs returned."""
    problems, counted = [], []
    rank, count = clusters.rank_sides, clusters.poset_from_rankings

    def ranked(V, sides, hulls, edges=None):
        problems.extend(zip(map(tuple, sides), map(tuple, hulls)))
        return rank(V, sides, hulls, edges)

    monkeypatch.setattr(clusters, "rank_sides", ranked)
    monkeypatch.setattr(clusters, "poset_from_rankings", lambda a, b, *rest: counted.append((a, b)) or count(a, b, *rest))
    kept = set()
    for m, seeds, cases in groups:
        for graph, delta, found in cases:
            V = graph.vertices
            for seed in seeds:
                problems.clear()
                counted.clear()
                pick = find_avoiding_dense_pair(graph, m, Fraction(1, 4), delta, seed)
                assert (pick is not None) == found
                assert len(problems) == len(set(problems))
                assert len(counted) == len(set(counted))
                if not found:
                    assert problems == counted == []
                    continue
                P_, edges = pick
                A, B = P_.a, P_.b
                assert (A, B) in counted
                hull_a, hull_b = (tuple(hull_coords(V.coords[v] for v in side)) for side in (A, B))
                assert {(A, hull_b), (B, hull_a)} <= set(problems)
                assert P_ == build_pair_poset(A, B, V)
                assert edges == graph.block_edge_counts([A], [B])[0, 0]
                kept.add(edges == m * m)
    return kept


def test_pair_scan_builds_tables_once(monkeypatch):
    # Clusters of 24 take the int64 kernel. The scan ranks the sides of
    # its dense pairs in batches and builds each pair's tables once.
    quarter, half = Fraction(1, 4), Fraction(1, 2)
    cases = [(_disk_graph(240, None), quarter, True), (_disk_graph(240, 0.9), quarter, True),
             (_disk_graph(240, 0.5), quarter, True), (_matching(240), half, False)]
    # Both kinds of returned pair, complete and missing edges, occur.
    assert _scan_builds_tables_once(monkeypatch, [(24, range(3), cases)]) == {True, False}


def test_per_pair_scan_builds_tables_once(monkeypatch):
    # Clusters of 4 and 5, once ranked one pair at a time, take the exact
    # sort in the same batched path, and their tables are built once too.
    quarter, half = Fraction(1, 4), Fraction(1, 2)
    groups = [
        (4, range(4), [(_disk_graph(90, None), quarter, True), (_disk_graph(90, 0.9), quarter, True),
                       (_disk_graph(90, 0.5), quarter, True), (_matching(90), half, False)]),
        # At m = 5, nets 0 and 3 find a complete pair first and return a
        # less tangled pair that misses edges.
        (5, range(4), [(_disk_graph(60, 0.9), quarter, True)]),
    ]
    # Both kinds of returned pair, complete and missing edges, occur.
    assert _scan_builds_tables_once(monkeypatch, groups) == {True, False}


def reference_scan(G, m, eps, delta, seed):
    """The pair scan as a sequential loop: every dense pair in (i, j) order
    is ranked as it is reached, by a capped ``build_pair_poset`` when it is
    complete and by ``iota_sum_capped`` when it misses edges, with the caps
    and skip rules of ``find_avoiding_dense_pair``; the pair returned gets
    the tables of an uncapped build, next to its edge count."""
    V = G.vertices
    n = len(V)
    eps, delta = Fraction(eps), Fraction(delta)
    if n < 2 * m or n - min(n, desk_net_size(n, m)) < 2 * m:
        return None
    D = build_clusters(V, build_zone_lines(V, desk_net_size(n, m), seed).lines, m)
    if len(D.clusters) < 2:
        return None
    iota_cap = (eps.numerator * m * m) // eps.denominator
    dense_min = delta.numerator * m * m
    best = P = None
    cl = D.clusters
    counts = G.block_edge_counts(cl, cl).tolist()
    hulls = cluster_hulls(V, cl)
    for i in range(len(cl) - 1):
        if best is not None and best[:2] == (m * m, 0):
            break
        for j in range(i + 1, len(cl)):
            cnt = counts[i][j]
            if cnt * delta.denominator < dense_min:
                continue
            cap = iota_cap
            if best is not None:
                if cnt <= best[0] and best[1] == 0:
                    continue
                cap = min(cap, best[1] - (cnt <= best[0]))
            if cnt == m * m:
                pair = build_pair_poset(cl[i], cl[j], V, hulls[i], hulls[j], cap)
                iota = None if pair is None else pair.iota_sum
            else:
                pair = None
                iota = iota_sum_capped(cl[i], cl[j], V, cap, hulls[i], hulls[j])
            if iota is not None:
                best, P = (cnt, iota, i, j), pair
    if best is None:
        return None
    cnt, _, i, j = best
    if P is None:
        P = build_pair_poset(cl[i], cl[j], V, hulls[i], hulls[j])
    return P, cnt


def _scan_outcome(scan, *args):
    """A scan's pair, or the type and message of the error it raises."""
    try:
        pick = scan(*args)
    except (DegenerateInputError, NotSeparatedError) as e:
        return type(e), str(e)
    return None if pick is None else tuple(pick)


def _random_graph(V, density, seed):
    if density is None:
        return GeometricGraph.complete(V)
    edge_rng = random.Random(seed)
    return GeometricGraph.from_edges(V, [e for e in itertools.combinations(range(len(V)), 2) if edge_rng.random() < density])


def test_batched_scan_matches_sequential_reference(monkeypatch):
    # The batched scan returns the pair the sequential scan returns, with
    # the same PairPoset, on complete, dense and sparse graphs. On points
    # of a small grid, where small clusters take the kernel as every
    # cluster does, exact ties abound: those sides are left
    # unranked, and a degenerate input raises the same error, at the same
    # pair, as the sequential scan, or the scan gives up at a cap before
    # reaching it.
    ranked = []
    rank = clusters.rank_sides

    def spy(*args):
        ranks = rank(*args)
        ranked.extend(ranks)
        return ranks

    monkeypatch.setattr(clusters, "rank_sides", spy)
    cases = []
    for kind, n, m in (("random-disk", 200, 24), ("grid-jitter", 240, 24), ("convex", 200, 32), ("random-disk", 300, 32)):
        V = generate_points(kind, n, n + m)
        for density, eps, delta in (
            (None, Fraction(1, 2), Fraction(1, 4)),
            (None, Fraction(1, 64), Fraction(1, 4)),
            (0.9, Fraction(1, 2), Fraction(1, 4)),
            (0.5, Fraction(1, 2), Fraction(1, 4)),
            (0.2, Fraction(1, 4), Fraction(1, 8)),
        ):
            cases.append((_random_graph(V, density, n), m, eps, delta))
    for seed in range(8):
        rng = random.Random(seed)
        grid = rng.sample([(x, y) for x in range(10) for y in range(10)], 60)
        V = PointSet(grid, check_general_position=False)
        G = _random_graph(V, rng.choice([None, 0.9, 0.5]), seed)
        cases.append((G, rng.choice([3, 4, 5]), Fraction(1, 2), Fraction(1, 4)))
    outcomes = {"pair": 0, "raise": 0, "none": 0}
    for G, m, eps, delta in cases:
        for seed in range(2):
            args = (G, m, eps, delta, seed)
            expect = _scan_outcome(reference_scan, *args)
            assert _scan_outcome(find_avoiding_dense_pair, *args) == expect
            outcomes["none" if expect is None else "raise" if isinstance(expect[0], type) else "pair"] += 1
    # Every kind of outcome occurs, and the batches ranked some sides and
    # left some unranked.
    assert min(outcomes.values()) > 0
    assert any(r is not None for r in ranked) and None in ranked


def test_scan_over_table_cap_returns_a_pair(monkeypatch):
    # SIZE_CAP bounds only the packing of comparability tables, which the
    # practical path never does. With it lowered to 20, the m = 24 scan
    # still returns a pair and the driver a verified family; reading that
    # pair's tables raises.
    monkeypatch.setattr(poset, "SIZE_CAP", 20)
    G = GeometricGraph.complete(generate_points("random-disk", 200, 7))
    pick = find_avoiding_dense_pair(G, 24, Fraction(1, 2), Fraction(1, 4), 0)
    assert pick is not None
    family = find_crossing_family(G, RunConfig(m=24))
    assert family.verified and len(family) >= 2
    with pytest.raises(ValueError, match="comparability table cap"):
        pick[0].succ_a


def test_pair_scan_memory_is_sliced(monkeypatch):
    # A long run of dense pairs that miss edges, 2048 points in clusters of
    # 32, goes to the kernel in batches of about _BATCH_POINTS points: each
    # batch peaks far below what one batch of the whole run would take
    # (about 18 MB of traced allocations).
    n, m = 2048, 32
    V = generate_points("random-disk", n, 5)
    # Complete but for the pairs whose indices sum to a multiple of 10.
    residue = [sum(1 << j for j in range(r, n, 10)) for r in range(10)]
    full = (1 << n) - 1
    G = GeometricGraph(V, tuple(full & ~residue[-i % 10] & ~(1 << i) for i in range(n)))
    assert not G.is_complete
    peaks = []
    rank = clusters.rank_sides

    def measured(*args):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ranks = rank(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)
        return ranks

    monkeypatch.setattr(clusters, "rank_sides", measured)
    tracemalloc.start()
    try:
        pick = find_avoiding_dense_pair(G, m, Fraction(1, 2), Fraction(1, 4), 0)
    finally:
        tracemalloc.stop()
    assert pick is not None
    assert len(peaks) >= 10
    assert max(peaks) < 3 * 2**19


def test_edge_category_counts(rng):
    # Every edge lands in exactly one category: leftover endpoint, same
    # cluster, sparse pair, or dense pair.
    for trial in range(5):
        V = generate_points("random-disk", 40, 400 + trial)
        G = GeometricGraph.complete(V)
        m = 3
        lines = [Line.through(V[0], V[1])]
        D = build_clusters(V, lines, m)
        # Dense at delta = 1/4: at least m*m/4 edges between the two clusters.
        dense = {
            (i, j)
            for i, j in itertools.combinations(range(len(D.clusters)), 2)
            if 4 * sum(G.has_edge(u, v) for u in D.clusters[i] for v in D.clusters[j]) >= m * m
        }
        cluster_of = {}
        for ci, c in enumerate(D.clusters):
            for v in c:
                cluster_of[v] = ci
        cat = [0, 0, 0, 0]
        for a, b in G.edges_iter():
            if a not in cluster_of or b not in cluster_of:
                cat[0] += 1
            elif cluster_of[a] == cluster_of[b]:
                cat[1] += 1
            elif tuple(sorted((cluster_of[a], cluster_of[b]))) in dense:
                cat[3] += 1
            else:
                cat[2] += 1
        assert sum(cat) == G.edge_count


def test_desk_net_size():
    assert desk_net_size(200, 5) == 4
    assert desk_net_size(8, 2) == 2
    assert desk_net_size(1024, 10) >= 4


def reference_pair(G, m, eps, delta, seed):
    """The pair the search must pick, found by building every cluster pair's
    full poset: among the dense, untangled pairs of the same decomposition,
    the one with the least (incomparable pairs, -edge count, i, j)."""
    V = G.vertices
    lines = build_zone_lines(V, desk_net_size(len(V), m), seed).lines
    clusters = build_clusters(V, lines, m).clusters
    keys = []
    for i, j in itertools.combinations(range(len(clusters)), 2):
        A, B = clusters[i], clusters[j]
        count = sum(G.has_edge(u, v) for u in A for v in B)
        iota = build_pair_poset(A, B, V).iota_sum
        if count * delta.denominator >= delta.numerator * m * m and iota * eps.denominator <= eps.numerator * m * m:
            keys.append((iota, -count, i, j))
    if not keys:
        return None
    _, _, i, j = min(keys)
    return clusters[i], clusters[j]


def test_find_avoiding_dense_pair_matches_reference():
    # (kind, n, point seed, edge density or None for complete, m, eps, delta, net seed)
    cases = [
        ("random-disk", 40, 21, None, 3, Fraction(1, 2), Fraction(1, 4), 1),
        ("random-disk", 90, 3, None, 4, Fraction(1, 4), Fraction(1, 4), 2),
        ("random-disk", 120, 4, 0.5, 3, Fraction(1, 2), Fraction(1, 4), 5),
        ("convex", 60, 7, None, 4, Fraction(1, 4), Fraction(1, 4), 0),
        ("convex", 100, 8, None, 5, Fraction(1, 8), Fraction(1, 2), 3),
        ("convex", 80, 9, 0.5, 3, Fraction(1, 2), Fraction(1, 4), 4),
        ("grid-jitter", 64, 11, None, 3, Fraction(1, 4), Fraction(1, 4), 6),
        ("grid-jitter", 110, 12, 0.5, 4, Fraction(1, 2), Fraction(1, 4), 7),
        ("grid-jitter", 90, 13, 0.5, 2, Fraction(1, 8), Fraction(1, 2), 8),
        # A complete pair is the best until a less tangled pair that misses
        # edges replaces it.
        ("random-disk", 60, 3, 0.9, 5, Fraction(1, 4), Fraction(1, 4), 0),
    ]
    for kind, n, point_seed, density, m, eps, delta, seed in cases:
        V = generate_points(kind, n, point_seed)
        if density is None:
            G = GeometricGraph.complete(V)
        else:
            edge_rng = random.Random(point_seed)
            G = GeometricGraph.from_edges(
                V, [(a, b) for a in range(n - 1) for b in range(a + 1, n) if edge_rng.random() < density]
            )
        want = reference_pair(G, m, eps, delta, seed)
        assert want is not None, (kind, n, density)
        P, _ = find_avoiding_dense_pair(G, m, eps, delta, seed)
        A, B = P.a, P.b
        assert (A, B) == want, (kind, n, density)
        assert len(A) == len(B) == m
        assert hulls_disjoint([V[i] for i in A], [V[i] for i in B])
        assert P == build_pair_poset(A, B, V)


def test_find_avoiding_dense_pair_ties_keep_the_first_pair():
    # No untangled pair exists here, and later pairs tie the best count with
    # no more edges: the first of them must be kept.
    complete = [(16, 28), (25, 6), (26, 13), (10, 23), (19, 16), (30, 22), (0, 12),
                (3, 23), (27, 2), (18, 17), (13, 27), (25, 0), (14, 0)]
    sparse = [(8, 26), (15, 27), (19, 19), (20, 10), (4, 6), (14, 17), (17, 20), (6, 23),
              (3, 19), (29, 26), (0, 29), (15, 5)]
    edges = [(0, 1), (0, 2), (0, 4), (0, 6), (0, 8), (0, 9), (0, 10), (1, 4), (1, 6), (1, 7), (1, 9),
             (2, 4), (2, 6), (2, 7), (2, 8), (2, 10), (2, 11), (3, 4), (3, 5), (3, 8), (3, 9), (4, 6),
             (4, 9), (4, 11), (5, 6), (5, 8), (5, 10), (5, 11), (6, 8), (6, 9), (6, 11), (7, 8), (7, 9),
             (7, 10), (7, 11), (8, 10), (9, 10)]
    for G, seed in (
        (GeometricGraph.complete(PointSet([Point(*c) for c in complete])), 29),
        (GeometricGraph.from_edges(PointSet([Point(*c) for c in sparse]), edges), 1),
    ):
        P, _ = find_avoiding_dense_pair(G, 3, Fraction(1), Fraction(1, 4), seed)
        assert P.iota_sum > 0
        assert (P.a, P.b) == reference_pair(G, 3, Fraction(1), Fraction(1, 4), seed)


def test_find_avoiding_dense_pair_no_edges():
    V = generate_points("random-disk", 20, seed=5)
    G = GeometricGraph.from_edges(V, [])
    assert find_avoiding_dense_pair(G, 2, Fraction(1, 2), Fraction(1, 4), 0) is None


def test_find_avoiding_dense_pair_none_dense_enough():
    # A perfect matching puts at most m edges between two m-clusters: the
    # scan counts them and finds no pair at delta = 1/2, yet one at 1/9.
    V = generate_points("random-disk", 40, seed=5)
    G = GeometricGraph.from_edges(V, [(i, i + 1) for i in range(0, 40, 2)])
    assert not G.is_complete and G.edge_count == 20
    for seed in range(4):
        assert find_avoiding_dense_pair(G, 3, Fraction(1, 2), Fraction(1, 2), seed) is None
    assert find_avoiding_dense_pair(G, 3, Fraction(1, 2), Fraction(1, 9), 0) is not None


def test_find_avoiding_dense_pair_too_few_points():
    V = generate_points("random-disk", 5, seed=6)
    G = GeometricGraph.complete(V)
    assert find_avoiding_dense_pair(G, 3, Fraction(1, 2), Fraction(1, 4), 0) is None


def test_find_avoiding_dense_pair_skips_nets_that_leave_too_few_points(monkeypatch):
    # Net points lie on their own lines, so a net that leaves fewer than 2m
    # points off them cannot cut two clusters. At (256, 128) and (512, 256),
    # the first attempt's m on random-disk and convex inputs, the search
    # returns None before sampling the net; the argument checks still run.
    for n, m in ((256, 128), (512, 256), (40, 20)):
        assert n - desk_net_size(n, m) < 2 * m
        V = generate_points("random-disk", n, seed=n)
        for seed in range(3):
            lines = build_zone_lines(V, desk_net_size(n, m), seed).lines
            assert len(build_clusters(V, lines, m).clusters) < 2
        G = GeometricGraph.complete(V)

        def refuse(*args):
            raise AssertionError("build_zone_lines called")

        with monkeypatch.context() as patch:
            patch.setattr(clusters, "build_zone_lines", refuse)
            assert find_avoiding_dense_pair(G, m, Fraction(1, 4), Fraction(1, 4), 0) is None
            with pytest.raises(ValueError, match="delta must be at most 1"):
                find_avoiding_dense_pair(G, m, Fraction(1, 4), Fraction(2), 0)
            with pytest.raises(ValueError, match="eps\\*delta must be at most 2"):
                find_avoiding_dense_pair(G, m, Fraction(4), Fraction(1), 0)
    # One m lower, the net leaves exactly 2m points, and it is sampled.
    n, m = 40, 19
    assert n - desk_net_size(n, m) >= 2 * m
    G = GeometricGraph.complete(generate_points("random-disk", n, seed=n))
    calls = []
    real = clusters.build_zone_lines
    monkeypatch.setattr(clusters, "build_zone_lines", lambda *a: calls.append(a) or real(*a))
    find_avoiding_dense_pair(G, m, Fraction(1, 4), Fraction(1, 4), 0)
    assert len(calls) == 1


def test_find_pair_deterministic():
    V = generate_points("random-disk", 60, seed=33)
    G = GeometricGraph.complete(V)
    a = find_avoiding_dense_pair(G, 4, Fraction(1, 4), Fraction(1, 4), 9)
    b = find_avoiding_dense_pair(G, 4, Fraction(1, 4), Fraction(1, 4), 9)
    assert a is not None and b is not None
    assert a == b
