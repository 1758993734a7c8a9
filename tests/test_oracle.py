import itertools

import pytest

from crossfam.cli import generate_points
from crossfam.crossing import FamilyMode, RunConfig, SegmentFamily, find_avoiding_family, find_crossing_family
from crossfam.errors import TooLargeError
from crossfam.geom import GeometricGraph, Point, PointSet
from crossfam.oracle import build_relation_graph, max_family_bruteforce, verify_family


def P(*coords):
    return [Point(x, y) for x, y in coords]


def test_convex_quadrilateral_max_is_diagonals():
    V = generate_points("convex", 4, seed=0)
    G = GeometricGraph.complete(V)
    fam = max_family_bruteforce(G, FamilyMode.CROSSING)
    assert len(fam) == 2
    assert verify_family(fam, G) is None


@pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
def test_convex_even_max_crossing_is_half(n):
    V = generate_points("convex", n, seed=1)
    G = GeometricGraph.complete(V)
    fam = max_family_bruteforce(G, FamilyMode.CROSSING)
    assert len(fam) == n // 2


def test_nonempty_graph_gives_family():
    V = PointSet(P((0, 0), (7, 1), (3, 9)))
    G = GeometricGraph.from_edges(V, [(0, 1)])
    fam = max_family_bruteforce(G, FamilyMode.CROSSING)
    assert len(fam) == 1


def test_oracle_limit():
    V = generate_points("random-disk", 20, seed=2)
    G = GeometricGraph.complete(V)  # 190 edges
    with pytest.raises(TooLargeError):
        max_family_bruteforce(G, FamilyMode.CROSSING)
    fam = max_family_bruteforce(G, FamilyMode.CROSSING, limit=200)
    assert verify_family(fam, G) is None


def test_oracle_limit_checked_before_edges_are_listed(monkeypatch):
    # The edge count is stored, so an oversized graph is refused without
    # materializing its 523,776 edges.
    V = PointSet([Point(i, i * i) for i in range(1024)])
    G = GeometricGraph.complete(V)

    def no_iteration(self):
        raise AssertionError("edges iterated")

    monkeypatch.setattr(GeometricGraph, "edges_iter", no_iteration)
    with pytest.raises(TooLargeError, match="523776 edges"):
        build_relation_graph(G, FamilyMode.CROSSING)


def test_relation_graph_no_shared_endpoint_adjacency():
    V = generate_points("random-disk", 8, seed=3)
    G = GeometricGraph.complete(V)
    rg = build_relation_graph(G, FamilyMode.CROSSING)
    for i, j in itertools.combinations(range(len(rg.nodes)), 2):
        a, b = rg.nodes[i]
        c, d = rg.nodes[j]
        if a in (c, d) or b in (c, d):
            assert not (rg.adjacency[i] >> j) & 1


def test_oracle_bruteforce_matches_naive(rng):
    # independent check: enumerate all subsets on tiny instances
    from crossfam.geom import segments_avoiding, segments_cross

    for trial in range(8):
        V = generate_points("random-disk", 6, seed=50 + trial)
        G = GeometricGraph.complete(V)
        for mode, rel in ((FamilyMode.CROSSING, segments_cross), (FamilyMode.AVOIDING, segments_avoiding)):
            edges = list(G.edges_iter())
            best = 0
            for size in range(1, 4):
                for combo in itertools.combinations(edges, size):
                    ok = True
                    for s, t in itertools.combinations(combo, 2):
                        if s[0] in t or s[1] in t or not rel(s, t, V):
                            ok = False
                            break
                    if ok:
                        best = max(best, size)
            got = max_family_bruteforce(G, mode)
            assert len(got) == max(best, 1) if best else len(got) >= 1
            assert verify_family(got, G) is None


def test_oracle_canonical_witness_deterministic():
    V = generate_points("random-disk", 9, seed=4)
    G = GeometricGraph.complete(V)
    a = max_family_bruteforce(G, FamilyMode.CROSSING)
    b = max_family_bruteforce(G, FamilyMode.CROSSING)
    assert a.segments == b.segments


def test_pipeline_never_beats_oracle():
    for seed in range(6):
        V = generate_points("random-disk", 10, seed=60 + seed)
        G = GeometricGraph.complete(V)
        for mode, driver in (
            (FamilyMode.CROSSING, find_crossing_family),
            (FamilyMode.AVOIDING, find_avoiding_family),
        ):
            fam = driver(G, RunConfig(seed=seed))
            assert verify_family(fam, G) is None
            assert len(fam) <= len(max_family_bruteforce(G, mode))


def test_verify_family_witnesses():
    V = PointSet(P((0, 0), (2, 3), (2, 0), (0, 3)))
    G = GeometricGraph.complete(V)
    good = SegmentFamily(FamilyMode.CROSSING, ((0, 1), (2, 3)), False, G)
    assert verify_family(good, G) is None
    shared = SegmentFamily(FamilyMode.CROSSING, ((0, 1), (0, 3)), False, G)
    assert verify_family(shared, G) == ((0, 1), (0, 3))
    noncrossing = SegmentFamily(FamilyMode.CROSSING, ((0, 2), (1, 3)), False, G)
    w = verify_family(noncrossing, G)
    assert w is not None
    out_of_range = SegmentFamily(FamilyMode.CROSSING, ((0, 9),), False, G)
    assert verify_family(out_of_range, G) == ((0, 9), (0, 9))
    H = GeometricGraph.from_edges(V, [(0, 1)])
    not_edge = SegmentFamily(FamilyMode.CROSSING, ((2, 3),), False, H)
    assert verify_family(not_edge, H) == ((2, 3), (2, 3))


def test_verify_family_witness_genuinely_fails():
    V = generate_points("random-disk", 10, seed=70)
    G = GeometricGraph.complete(V)
    from crossfam.geom import segments_cross

    fam = SegmentFamily(FamilyMode.CROSSING, ((0, 1), (2, 3), (4, 5)), False, G)
    w = verify_family(fam, G)
    if w is not None:
        s, t = w
        assert s != t
        shares = s[0] in t or s[1] in t
        assert shares or not segments_cross(s, t, V)
