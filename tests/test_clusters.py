import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossfam import clusters
from crossfam.cli import generate_points
from crossfam.clusters import (
    ClusterDecomposition,
    _splitter_direction,
    build_clusters,
    cluster_hulls,
    desk_net_size,
    find_avoiding_dense_pair,
)
from crossfam.errors import DegenerateInputError
from crossfam.geom import COORD_LIMIT, INT64_COORD_LIMIT, GeometricGraph, Point, PointSet, hull_coords, hulls_disjoint
from crossfam.poset import build_pair_poset
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


def test_build_clusters_shared_x_perturbs_direction():
    pts = [Point(0, 0), Point(0, 5), Point(1, 2), Point(1, 9), Point(3, 1), Point(2, 7)]
    V = PointSet(pts)
    D = build_clusters(V, (), 2)
    assert len(D.clusters) == 3
    assert _splitter_direction(V.coords) != (1, 0)
    for c1, c2 in itertools.combinations(D.clusters, 2):
        assert hulls_disjoint([V[i] for i in c1], [V[i] for i in c2])


def test_build_clusters_rejects_repeated_point():
    # The splitter search once looped forever on two points at one spot.
    V = PointSet([(0, 0), (0, 0), (1, 5), (2, 3)], check_general_position=False)
    with pytest.raises(DegenerateInputError, match=r"point \(0, 0\) is repeated"):
        build_clusters(V, [], 2)
    # A cell too small to chunk is left over whole, as before.
    assert build_clusters(V, [], 5).leftover == (0, 1, 2, 3)


def reference_build_clusters(V, lines, m):
    """The per-point loop ``build_clusters`` replaced: each point's signs
    over the lines in Python ints, cells by sign tuple, each cell sorted
    along its splitter direction."""
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
        kx, ky = _splitter_direction([coords[i] for i in members])
        members.sort(key=lambda i: (kx * coords[i][0] + ky * coords[i][1], coords[i]))
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


@st.composite
def hull_clusters(draw):
    """Clusters of one size whose points lie in a cloud, in convex position,
    on the boundary of a square with collinear points along its sides, or
    on one line; scaled from a small grid so that the largest coordinate
    of the set is ``top``."""
    top = draw(st.sampled_from([INT64_COORD_LIMIT, INT64_COORD_LIMIT + 1, COORD_LIMIT]))
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


def test_pair_scan_builds_tables_once(monkeypatch):
    # A dense pair missing edges is ranked by its count alone, and the one
    # pair returned then gets its tables built. A complete pair gets its
    # tables as it is ranked, and the scan keeps those of the pair it
    # returns. So the kernel goes over no pair twice, except a returned
    # pair that misses edges, and a scan that finds nothing builds none.
    counted, built = [], []
    count, build = clusters.iota_sum_capped, clusters.build_pair_poset
    monkeypatch.setattr(clusters, "iota_sum_capped", lambda *a, **kw: counted.append(a[:2]) or count(*a, **kw))
    monkeypatch.setattr(clusters, "build_pair_poset", lambda *a, **kw: built.append(a[:2]) or build(*a, **kw))

    def disk_graph(n, density):
        V = generate_points("random-disk", n, 3)
        edge_rng = random.Random(3)
        pairs = itertools.combinations(range(n), 2)
        return GeometricGraph.from_edges(V, [e for e in pairs if edge_rng.random() < density])

    V = generate_points("random-disk", 90, 3)
    cases = [
        (GeometricGraph.complete(V), 4, Fraction(1, 4), True),
        (disk_graph(90, 0.9), 4, Fraction(1, 4), True),
        (disk_graph(90, 0.5), 4, Fraction(1, 4), True),
        # At m = 5, nets 0 and 3 find a complete pair first and return a
        # less tangled pair that misses edges.
        (disk_graph(60, 0.9), 5, Fraction(1, 4), True),
        (GeometricGraph.from_edges(V, [(i, i + 1) for i in range(0, 90, 2)]), 4, Fraction(1, 2), False),
    ]
    kept_complete = kept_missing = 0
    for graph, m, delta, found in cases:
        V = graph.vertices
        for seed in range(4):
            counted.clear()
            built.clear()
            pick = find_avoiding_dense_pair(graph, m, Fraction(1, 4), delta, seed)
            assert (pick is not None) == found
            if not found:
                assert counted == built == []
                continue
            A, B, P_ = pick
            assert P_ == build(A, B, V)
            complete = {p for p in counted + built if graph.block_edge_counts([p[0]], [p[1]])[0, 0] == m * m}
            assert complete.isdisjoint(counted)
            assert set(built) - {(A, B)} <= complete
            assert len(built) == len(set(built)) and (A, B) in built
            assert len(counted) == len(set(counted))
            if (A, B) in complete:
                assert (A, B) not in counted
                kept_complete += 1
            else:
                assert built[-1] == (A, B)
                kept_missing += 1
    # Both kinds of returned pair occur.
    assert kept_complete and kept_missing


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
        A, B, P = find_avoiding_dense_pair(G, m, eps, delta, seed)
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
        (GeometricGraph.complete(PointSet([Point(*c) for c in complete])), 0),
        (GeometricGraph.from_edges(PointSet([Point(*c) for c in sparse]), edges), 1),
    ):
        A, B, P = find_avoiding_dense_pair(G, 3, Fraction(1), Fraction(1, 4), seed)
        assert P.iota_sum > 0
        assert (A, B) == reference_pair(G, 3, Fraction(1), Fraction(1, 4), seed)


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
    assert a[0] == b[0] and a[1] == b[1]
