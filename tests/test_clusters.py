import itertools
import random
from fractions import Fraction

from crossfam.cli import generate_points
from crossfam.clusters import _splitter_direction, build_clusters, desk_net_size, find_avoiding_dense_pair
from crossfam.geom import GeometricGraph, Point, PointSet, hulls_disjoint
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


def test_find_pair_deterministic():
    V = generate_points("random-disk", 60, seed=33)
    G = GeometricGraph.complete(V)
    a = find_avoiding_dense_pair(G, 4, Fraction(1, 4), Fraction(1, 4), 9)
    b = find_avoiding_dense_pair(G, 4, Fraction(1, 4), Fraction(1, 4), 9)
    assert a is not None and b is not None
    assert a[0] == b[0] and a[1] == b[1]
