import itertools
import random
from fractions import Fraction

import pytest

from conftest import block_instance, separated_pair
from crossfam import crossing
from crossfam.cli import generate_points
from crossfam.crossing import (
    FamilyMode,
    RunConfig,
    ScheduleMode,
    crossing_family_from_pair,
    find_avoiding_family,
    find_crossing_family,
    match_avoiding_pair,
    split_pair,
    theory_params,
)
from crossfam.errors import EmptyGraphError, HypothesisViolatedError, NotTotalOrderError
from crossfam.geom import GeometricGraph, Point, PointSet, segments_avoiding, segments_cross
from crossfam.oracle import verify_family
from crossfam.poset import build_pair_poset


def P(*coords):
    return [Point(x, y) for x, y in coords]


def test_match_crossing_example():
    V = PointSet(P((0, 0), (2, 0), (2, 3), (0, 3)))
    fam = match_avoiding_pair((0, 1), (2, 3), V)
    assert fam.segments == ((0, 2), (1, 3))
    assert segments_cross((0, 2), (1, 3), V)
    assert fam.verified


def test_match_avoiding_example():
    V = PointSet(P((0, 0), (2, 0), (2, 3), (0, 3)))
    fam = match_avoiding_pair((0, 1), (2, 3), V, mode=FamilyMode.AVOIDING)
    assert fam.segments == ((0, 3), (1, 2))
    assert segments_avoiding((0, 3), (1, 2), V)


def test_side_counts_read_masks(rng):
    # Ranks and the theory split's incomparable count are popcounts of the
    # successor masks, restricted to the side; they agree with pair queries
    # on prefixes of the poset's sides, as the recursion passes them.
    for _ in range(40):
        V, A, B = separated_pair(rng, rng.randint(2, 12), rng.randint(2, 6))
        pp = build_pair_poset(A, B, V)
        side = A[: rng.randint(1, len(A))]
        pairs = list(itertools.combinations(side, 2))
        incomparable = sum(1 for u, v in pairs if not pp.less_in_a(u, v) and not pp.less_in_a(v, u))
        assert crossing._restricted_iota(side, pp.succ_a) == incomparable
        chain = [pp.a[0]]
        for v in pp.a[1:]:
            if all(pp.less_in_a(u, v) or pp.less_in_a(v, u) for u in chain):
                chain.append(v)
        rng.shuffle(chain)
        order = crossing._total_order(chain, pp.succ_a)
        assert all(pp.less_in_a(u, v) for u, v in zip(order, order[1:]))


def test_match_sizes_and_verification(rng):
    # untangled pairs of width 6 give six pairwise crossing segments
    for trial in range(20):
        V, A, B = block_instance(rng, t=1, k=1, m=3)
        pp = build_pair_poset(A, B, V)
        if not pp.is_zero_avoiding:
            continue
        fam = match_avoiding_pair(A, B, V)
        assert len(fam.segments) == 6
        for s, t2 in itertools.combinations(fam.segments, 2):
            assert segments_cross(s, t2, V)
        fam2 = match_avoiding_pair(A, B, V, mode=FamilyMode.AVOIDING)
        assert len(fam2.segments) == 6
        for s, t2 in itertools.combinations(fam2.segments, 2):
            assert segments_avoiding(s, t2, V)


def test_match_requires_total_order():
    V = PointSet(P((0, 0), (4, 1), (10, -6), (11, 14)))
    # the line through (0,0) and (4,1) passes between the B points
    with pytest.raises(NotTotalOrderError):
        match_avoiding_pair((0, 1), (2, 3), V)


def test_split_pair_crossing(rng):
    V, A, B = block_instance(rng, t=3, k=2, m=2)
    G = GeometricGraph.complete(V)
    P_ = build_pair_poset(A, B, V)
    parts = split_pair(G, A, B, P_, 3, 2, 2)
    assert len(parts) >= 2
    for Ai, Bi, Pi in parts:
        assert len(Ai) == len(Bi) == 2
        assert Pi.iota_sum == 0
        assert Pi == build_pair_poset(Ai, Bi, V)
    # cross-block relation, exhaustively
    for (Ai, Bi, _), (Aj, Bj, _) in itertools.combinations(parts, 2):
        for e in itertools.product(Ai, Bi):
            for f in itertools.product(Aj, Bj):
                assert segments_cross(e, f, V)


def test_split_pair_avoiding(rng):
    V, A, B = block_instance(rng, t=3, k=2, m=2)
    G = GeometricGraph.complete(V)
    P_ = build_pair_poset(A, B, V)
    parts = split_pair(G, A, B, P_, 3, 2, 2, mode=FamilyMode.AVOIDING)
    assert len(parts) >= 2
    for Ai, Bi, Pi in parts:
        assert Pi == build_pair_poset(Ai, Bi, V)
    for (Ai, Bi, _), (Aj, Bj, _) in itertools.combinations(parts, 2):
        for e in itertools.product(Ai, Bi):
            for f in itertools.product(Aj, Bj):
                assert segments_avoiding(e, f, V)


def test_split_pair_antichain_fails(rng):
    # Two clouds side by side: the induced orders are heavily tangled, so
    # interval extraction must reject.
    V, A, B = separated_pair(rng, 16, 16, span=1000)
    G = GeometricGraph.complete(V)
    P_ = build_pair_poset(A, B, V)
    if P_.iota_a == 0 and P_.iota_b == 0:
        pytest.skip("random instance came out untangled")
    with pytest.raises(HypothesisViolatedError):
        split_pair(G, A, B, P_, 3, 1, 4)


def test_split_pair_size_check(rng):
    V, A, B = block_instance(rng, t=3, k=1, m=2)
    G = GeometricGraph.complete(V)
    P_ = build_pair_poset(A, B, V)
    with pytest.raises(ValueError):
        split_pair(G, A, B, P_, 3, 2, 2)
    with pytest.raises(ValueError):
        split_pair(G, A, B, P_, 2, 2, 2, theory=True)


def test_family_from_pair_zero_avoiding(rng):
    V, A, B = block_instance(rng, t=1, k=1, m=3)
    G = GeometricGraph.complete(V)
    P_ = build_pair_poset(A, B, V)
    fam = crossing_family_from_pair(G, A, B, P_, mode=FamilyMode.CROSSING, budget=2)
    assert fam is not None and len(fam) == 6
    assert verify_family(fam, G) is None


def test_family_from_pair_single_edge():
    V = PointSet(P((0, 0), (4, 1), (2, 2), (10, -6), (11, 14)))
    G = GeometricGraph.from_edges(V, [(0, 3)])
    P_ = build_pair_poset((0, 1, 2), (3, 4), V)
    fam = crossing_family_from_pair(G, (0, 1, 2), (3, 4), P_)
    assert fam is not None and fam.segments == ((0, 3),)


def test_family_from_pair_no_edges():
    V = PointSet(P((0, 0), (4, 1), (2, 2), (10, -6), (11, 14)))
    G = GeometricGraph.from_edges(V, [(0, 1)])  # no A-B edges
    P_ = build_pair_poset((0, 1, 2), (3, 4), V)
    assert crossing_family_from_pair(G, (0, 1, 2), (3, 4), P_) is None


def test_family_from_pair_two_level(rng):
    V, A, B = block_instance(rng, t=3, k=2, m=3)
    G = GeometricGraph.complete(V)
    P_ = build_pair_poset(A, B, V)
    fam = crossing_family_from_pair(G, A, B, P_, mode=FamilyMode.CROSSING, budget=2)
    assert fam is not None
    assert len(fam) >= 6
    assert verify_family(fam, G) is None


def test_theory_params_complete():
    s1 = theory_params(100, None, 1)
    assert (s1.K, s1.M, s1.eps) == (1, 9, Fraction(1, 2**14))
    s3 = theory_params(100, None, 3)
    assert (s3.K, s3.M, s3.eps) == (512, 373248, Fraction(1, 2**20))
    assert s3.mode is ScheduleMode.COMPLETE
    assert [lvl.K for lvl in s3.levels] == [1, 8, 512]
    assert [lvl.M for lvl in s3.levels] == [9, 81 * 8, 373248]
    # each level's block size is the previous level's pair size
    assert s3.levels[1].m == s3.levels[0].M
    assert s3.levels[2].m == s3.levels[1].M


def test_theory_params_dense():
    s1 = theory_params(100, Fraction(1, 2), 1)
    assert s1.K == 1 and s1.M == 1
    assert s1.u == 8 * 10  # ceil(100^(1/2)) = 10
    assert s1.delta == Fraction(8, 80)
    assert s1.eps == Fraction(1, 32 * 80**3)
    s2 = theory_params(100, Fraction(1, 2), 2)
    assert s2.u == 64 * 10
    assert s2.K == (512 * 640) ** 1
    t2 = s2.levels[1]
    assert t2.t == 640 // 8 and t2.k == 512 * 640
    assert s2.M == (t2.t + 1) * t2.k * 1
    assert s2.M <= s2.u**2 * s2.K
    assert s2.size_requirement() == 32**4 * 640 ** (5 * 2 + 13) * s2.K


def test_theory_params_validation():
    with pytest.raises(ValueError):
        theory_params(10, None, 0)
    with pytest.raises(ValueError):
        theory_params(10, Fraction(3, 2), 1)


def test_find_crossing_family_two_points():
    V = PointSet(P((0, 0), (5, 3)))
    G = GeometricGraph.complete(V)
    fam = find_crossing_family(G)
    assert fam.segments == ((0, 1),)
    assert fam.verified


def test_find_family_empty_graph():
    V = PointSet(P((0, 0), (5, 3)))
    G = GeometricGraph.from_edges(V, [])
    with pytest.raises(EmptyGraphError):
        find_crossing_family(G)


def test_find_crossing_family_convex12():
    from crossfam.oracle import max_family_bruteforce

    V = generate_points("convex", 12, seed=0)
    G = GeometricGraph.complete(V)
    fam = find_crossing_family(G, RunConfig(seed=0))
    assert verify_family(fam, G) is None
    oracle = max_family_bruteforce(G, FamilyMode.CROSSING)
    assert len(fam) <= len(oracle) == 6


def test_find_avoiding_family_12(rng):
    V = generate_points("random-disk", 12, seed=17)
    G = GeometricGraph.complete(V)
    fam = find_avoiding_family(G, RunConfig(seed=17))
    assert verify_family(fam, G) is None
    from crossfam.oracle import max_family_bruteforce

    assert len(fam) <= len(max_family_bruteforce(G, FamilyMode.AVOIDING))


def test_find_family_deterministic():
    V = generate_points("random-disk", 80, seed=23)
    G = GeometricGraph.complete(V)
    a = find_crossing_family(G, RunConfig(seed=23))
    b = find_crossing_family(G, RunConfig(seed=23))
    assert a.segments == b.segments


def test_find_family_theory_mode_small_instance():
    # far below the guaranteed scale the theory driver falls back to one edge
    V = generate_points("random-disk", 30, seed=2)
    G = GeometricGraph.complete(V)
    fam = find_crossing_family(G, RunConfig(theory=True, s=2, seed=1))
    assert len(fam) >= 1
    assert verify_family(fam, G) is None


def test_find_family_theory_mode_dense_graph(rng):
    V = generate_points("random-disk", 24, seed=13)
    edges = [
        (i, j) for i in range(24) for j in range(i + 1, 24) if rng.random() < 0.8
    ]
    G = GeometricGraph.from_edges(V, edges)
    fam = find_crossing_family(G, RunConfig(theory=True, s=1, seed=0))
    assert len(fam) >= 1
    assert verify_family(fam, G) is None


def test_theory_recursion_meets_guarantee(rng):
    # An instance shaped exactly like the depth-2 complete-graph schedule:
    # 72 blocks of 9 per side. The strict recursion must deliver at least
    # K = 8 pairwise crossing edges; the verified result may be larger.
    V, A, B = block_instance(rng, t=8, k=8, m=9)
    G = GeometricGraph.complete(V)
    P_ = build_pair_poset(A, B, V)
    assert P_.is_zero_avoiding
    sched = theory_params(len(V), None, 2)
    assert (sched.levels[1].t, sched.levels[1].k, sched.levels[1].m) == (8, 8, 9)
    fam = crossing_family_from_pair(
        G, A, B, P_, mode=FamilyMode.CROSSING, budget=2, theory=True, levels=sched.levels
    )
    assert fam is not None
    assert len(fam) >= sched.K == 8
    assert verify_family(fam, G) is None


def test_find_family_dense_graph(rng):
    V = generate_points("random-disk", 60, seed=31)
    edges = []
    for i in range(60):
        for j in range(i + 1, 60):
            if rng.random() < 0.7:
                edges.append((i, j))
    G = GeometricGraph.from_edges(V, edges)
    fam = find_crossing_family(G, RunConfig(seed=31))
    assert verify_family(fam, G) is None
    assert all(G.has_edge(*s) for s in fam.segments)


def test_family_size_cap(rng):
    for seed in (41, 42):
        V = generate_points("random-disk", 50, seed=seed)
        G = GeometricGraph.complete(V)
        fam = find_crossing_family(G, RunConfig(seed=seed))
        assert len(fam) <= 25
        flat = [v for s in fam.segments for v in s]
        assert len(flat) == len(set(flat))


# Families the drivers return for these fixed inputs: the complete graphs
# under the descending cluster-size search, the density-1/2 graphs under the
# growing schedule. A refactor of the pipeline must return exactly these
# segments.
PINNED_FAMILIES = [
    ("random-disk", 96, 5, None, FamilyMode.CROSSING,
     ((1, 80), (2, 32), (3, 7), (14, 53), (15, 18), (16, 55), (19, 54), (29, 57), (39, 40),
      (44, 52), (47, 69))),
    ("random-disk", 150, 17, None, FamilyMode.CROSSING,
     ((3, 54), (14, 55), (16, 48), (20, 114), (26, 65), (32, 64), (38, 93), (42, 77), (60, 86),
      (73, 128), (88, 121), (92, 123), (100, 119), (138, 149))),
    ("convex", 64, 2, None, FamilyMode.CROSSING,
     ((9, 40), (10, 41), (11, 42), (12, 43), (13, 44), (14, 45), (15, 46), (31, 47), (32, 48),
      (33, 49), (34, 50), (35, 51), (36, 52), (37, 53), (38, 54), (39, 55))),
    ("convex", 96, 3, None, FamilyMode.CROSSING,
     ((9, 43), (10, 44), (11, 45), (12, 46), (13, 47), (14, 48), (15, 49), (16, 50), (17, 51),
      (18, 52), (19, 53), (20, 54), (21, 55), (22, 56), (23, 57), (24, 58), (25, 59), (26, 60),
      (27, 61), (28, 62), (29, 63), (32, 76), (33, 77), (34, 78), (35, 79), (36, 80), (37, 81),
      (38, 82), (39, 83), (40, 84), (41, 85), (42, 86))),
    ("grid-jitter", 80, 7, 0.5, FamilyMode.AVOIDING, ((8, 15), (31, 67), (40, 71), (50, 69))),
    ("grid-jitter", 120, 9, 0.5, FamilyMode.AVOIDING,
     ((10, 45), (14, 109), (16, 49), (22, 81), (23, 114), (65, 103), (70, 87))),
]
# Family sizes the earlier schedule found on the same inputs (start at
# n^(1/3), double m after a full yield, always 8 attempts), which the
# density-1/2 graphs still use. A change to the schedule must not fall below
# them.
EARLIER_SCHEDULE_SIZES = {
    ("random-disk", 96, 5): 11,
    ("random-disk", 150, 17): 9,
    ("convex", 64, 2): 16,
    ("convex", 96, 3): 32,
    ("grid-jitter", 80, 7): 4,
    ("grid-jitter", 120, 9): 7,
}


def _pinned_graph(kind, n, seed, density):
    V = generate_points(kind, n, seed)
    if density is None:
        return GeometricGraph.complete(V)
    edge_rng = random.Random(seed)
    return GeometricGraph.from_edges(
        V, [(a, b) for a in range(n - 1) for b in range(a + 1, n) if edge_rng.random() < density]
    )


@pytest.mark.parametrize("kind,n,seed,density,cfg", [
    ("random-disk", 150, 17, None, RunConfig(seed=17)),
    ("random-disk", 100, 4, 0.5, RunConfig(seed=4)),
    ("convex", 96, 3, None, RunConfig(seed=3)),
    ("convex", 90, 6, 0.5, RunConfig(seed=6, m=40, max_retries=3)),
    ("grid-jitter", 120, 9, 0.5, RunConfig(seed=9)),
    ("grid-jitter", 80, 7, None, RunConfig(seed=7, max_retries=1)),
    ("grid-jitter", 16, 3, 0.5, RunConfig(seed=3)),
    ("grid-jitter", 16, 0, 0.5, RunConfig(seed=0, max_retries=3)),
    ("random-disk", 6, 0, None, RunConfig(seed=0)),  # no family: ends at a hopeless m
])
@pytest.mark.parametrize("mode", list(FamilyMode))
def test_driver_schedule_invariants(monkeypatch, kind, n, seed, density, cfg, mode):
    attempts = []  # [m, eps, seed, family size or None]
    real_pick, real_family = crossing.find_avoiding_dense_pair, crossing.crossing_family_from_pair

    def pick(G, m, eps, delta, pick_seed):
        attempts.append([m, Fraction(eps), pick_seed, None])
        return real_pick(G, m, eps, delta, pick_seed)

    def family(*args, **kwargs):
        fam = real_family(*args, **kwargs)
        attempts[-1][3] = 0 if fam is None else len(fam)
        return fam

    monkeypatch.setattr(crossing, "find_avoiding_dense_pair", pick)
    monkeypatch.setattr(crossing, "crossing_family_from_pair", family)
    G = _pinned_graph(kind, n, seed, density)
    driver = find_crossing_family if mode is FamilyMode.CROSSING else find_avoiding_family
    result = driver(G, cfg)

    assert 1 <= len(attempts) <= cfg.max_retries
    if G.is_complete:
        first_m = cfg.m or 1 << (n // 2).bit_length() - 1
    else:
        first_m = cfg.m or min(64, max(2, crossing._icbrt(n)))
    assert attempts[0][:3] == [first_m, Fraction(1, 4), cfg.seed]
    grow_cap = min(n // 2, 128)
    best = 1  # the driver's fallback is a single edge
    for k, (m, eps, attempt_seed, size) in enumerate(attempts):
        assert attempt_seed == cfg.seed + k
        if k:
            prev_m, prev_eps, _, prev_size = attempts[k - 1]
            assert eps == (prev_eps if prev_size is not None else min(Fraction(1), 2 * prev_eps))
            if G.is_complete:
                assert prev_size is None or prev_size < 2  # stop at the first family
                assert m == prev_m // 2
            elif prev_size is None:
                assert m == max(2, prev_m // 2)
            elif prev_size >= prev_m and prev_m < grow_cap:
                assert m == min(grow_cap, 2 * prev_m)  # grow after a full yield
            else:
                assert m == prev_m
        if G.is_complete:
            # A pair of m-clusters yields at most m segments: no hopeless attempt.
            assert m > best
        best = max(best, size or 0)
    if G.is_complete:
        # The search ends only at a family, at the attempt cap, or at a hopeless m.
        assert best >= 2 or len(attempts) == cfg.max_retries or attempts[-1][0] // 2 <= best
    else:
        # It ends early only when no pair qualifies even at m=2 with eps=1.
        m, eps, _, size = attempts[-1]
        assert len(attempts) == cfg.max_retries or (size is None and m <= 2 and eps >= 1)
    assert len(result) == best
    assert verify_family(result, G) is None


@pytest.mark.parametrize("kind,n,seed,density,mode,expected", PINNED_FAMILIES)
def test_driver_families_pinned(kind, n, seed, density, mode, expected):
    G = _pinned_graph(kind, n, seed, density)
    driver = find_crossing_family if mode is FamilyMode.CROSSING else find_avoiding_family
    segments = driver(G, RunConfig(seed=seed)).segments
    assert len(segments) >= EARLIER_SCHEDULE_SIZES[kind, n, seed]
    assert segments == expected
