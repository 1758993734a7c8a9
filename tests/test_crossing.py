import itertools
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from conftest import block_instance, chord_family, separated_pair
from crossfam import crossing, poset, theory
from crossfam.cli import generate_points
from crossfam.crossing import (
    FamilyMode,
    RunConfig,
    crossing_family_from_pair,
    find_avoiding_family,
    find_crossing_family,
    make_family,
    match_avoiding_pair,
)
from crossfam.errors import EmptyGraphError, HypothesisViolatedError, NotTotalOrderError
from crossfam.geom import (
    INT64_COORD_LIMIT,
    GeometricGraph,
    Point,
    PointSet,
    _first_edge,
    first_unrelated_pair,
    segments_avoiding,
    segments_cross,
    vertex_mask,
)
from crossfam.oracle import verify_family
from crossfam.poset import build_pair_poset, longest_chain
from crossfam.theory import ScheduleMode, recursion_segments, split_pair, theory_params


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
    # The masks packed from a side's rankings hold, for each row, the rows
    # after it in both rankings; their popcounts over the side rank it,
    # and the chain read off the rankings agrees with pair queries.
    for _ in range(40):
        V, A, B = separated_pair(rng, rng.randint(2, 12), rng.randint(2, 6))
        pp = build_pair_poset(A, B, V)
        mask = sum(1 << v for v in A)
        for r, u in enumerate(pp.order_a):
            later = [v for s, v in enumerate(pp.order_a) if s > r and pp.place_a[s] > pp.place_a[r]]
            assert pp.succ_a[u] == sum(1 << v for v in later)
            assert (pp.succ_a[u] & mask).bit_count() == len(later)
        chain = poset.ranked_chain(pp.order_a, pp.place_a)
        assert all(pp.less_in_a(u, v) for u, v in zip(chain, chain[1:]))
        assert sorted(chain, key=lambda x: -(pp.succ_a[x] & mask).bit_count()) == chain


def test_match_sizes_and_verification(rng):
    # untangled pairs of width 6 give six pairwise crossing segments
    for trial in range(20):
        V, A, B = block_instance(rng, t=1, k=1, m=3)
        pp = build_pair_poset(A, B, V)
        if pp.iota_sum != 0:
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
    parts = split_pair(G, P_, 3, 2, 2)
    assert len(parts) >= 2
    for Pi in parts:
        assert len(Pi.a) == len(Pi.b) == 2
        assert Pi.iota_sum == 0
        assert Pi == build_pair_poset(Pi.a, Pi.b, V)
    # cross-block relation, exhaustively
    for Pi, Pj in itertools.combinations(parts, 2):
        for e in itertools.product(Pi.a, Pi.b):
            for f in itertools.product(Pj.a, Pj.b):
                assert segments_cross(e, f, V)


def test_split_pair_avoiding(rng):
    V, A, B = block_instance(rng, t=3, k=2, m=2)
    G = GeometricGraph.complete(V)
    P_ = build_pair_poset(A, B, V)
    parts = split_pair(G, P_, 3, 2, 2, mode=FamilyMode.AVOIDING)
    assert len(parts) >= 2
    for Pi in parts:
        assert Pi == build_pair_poset(Pi.a, Pi.b, V)
    for Pi, Pj in itertools.combinations(parts, 2):
        for e in itertools.product(Pi.a, Pi.b):
            for f in itertools.product(Pj.a, Pj.b):
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
        split_pair(G, P_, 3, 1, 4)


def test_split_pair_size_check(rng):
    V, A, B = block_instance(rng, t=3, k=1, m=2)
    G = GeometricGraph.complete(V)
    P_ = build_pair_poset(A, B, V)
    with pytest.raises(ValueError):
        split_pair(G, P_, 3, 2, 2)
    with pytest.raises(ValueError):
        split_pair(G, P_, 2, 2, 2, theory=True)


def test_family_from_pair_zero_avoiding(rng):
    V, A, B = block_instance(rng, t=1, k=1, m=3)
    G = GeometricGraph.complete(V)
    P_ = build_pair_poset(A, B, V)
    fam = crossing_family_from_pair(G, P_, mode=FamilyMode.CROSSING)
    assert fam is not None and len(fam) == 6
    assert verify_family(fam, G) is None


def test_family_from_pair_single_edge():
    V = PointSet(P((0, 0), (4, 1), (2, 2), (10, -6), (11, 14)))
    G = GeometricGraph.from_edges(V, [(0, 3)])
    P_ = build_pair_poset((0, 1, 2), (3, 4), V)
    fam = crossing_family_from_pair(G, P_)
    assert fam is not None and fam.segments == ((0, 3),)


def test_family_from_pair_no_edges():
    V = PointSet(P((0, 0), (4, 1), (2, 2), (10, -6), (11, 14)))
    G = GeometricGraph.from_edges(V, [(0, 1)])  # no A-B edges
    P_ = build_pair_poset((0, 1, 2), (3, 4), V)
    assert crossing_family_from_pair(G, P_) is None


def test_family_from_pair_two_level(rng):
    # A pair shaped for a two-level split (t=3, k=2, blocks of 3): practical
    # mode returns the base, which on an untangled complete pair is the
    # full side rank-matched, more than any split of it could yield.
    V, A, B = block_instance(rng, t=3, k=2, m=3)
    G = GeometricGraph.complete(V)
    P_ = build_pair_poset(A, B, V)
    assert P_.iota_sum == 0
    for mode in FamilyMode:
        fam = crossing_family_from_pair(G, P_, mode=mode)
        assert fam is not None
        assert len(fam) == len(A) == 24
        assert fam.segments == match_avoiding_pair(A, B, V, mode=mode).segments
        assert verify_family(fam, G) is None


def _longest_run_reference(cells, mode):
    """Length of a longest run of (row, col) cells with rows rising and cols
    rising (crossing) or falling (avoiding), by dynamic programming over all
    pairs of cells."""
    sign = 1 if mode is FamilyMode.CROSSING else -1
    longest = {}
    for c in sorted(cells, reverse=True):
        longest[c] = 1 + max(
            (n for d, n in longest.items() if d[0] > c[0] and sign * (d[1] - c[1]) > 0), default=0
        )
    return max(longest.values(), default=0)


@pytest.mark.parametrize("mode", list(FamilyMode))
def test_base_run_matches_reference(mode):
    # The practical base is a longest monotone run of edges in the rank grid
    # of the pair's longest chains, read on separated pairs whose sides are
    # totally ordered (block instances) or tangled (random clouds).
    rng = random.Random(0xBA5E)
    for trial in range(240):
        if trial % 3:
            V, A, B = separated_pair(rng, rng.randint(1, 8), rng.randint(1, 8))
        else:
            V, A, B = block_instance(rng, t=1, k=1, m=rng.randint(1, 4))
        P_ = build_pair_poset(A, B, V)
        rows = poset.ranked_chain(P_.order_a, P_.place_a)
        cols = poset.ranked_chain(P_.order_b, P_.place_b)
        for chain, succ in ((rows, P_.succ_a), (cols, P_.succ_b)):
            # The chain longest_chain finds in the tables, listed upwards by
            # popcounts.
            reference = longest_chain(succ)
            assert chain == sorted(reference, key=lambda x: -(succ[x] & vertex_mask(reference)).bit_count())
        density = rng.choice((0.0, 0.2, 0.5, 0.8, 1.0))
        grid = itertools.product(range(len(rows)), range(len(cols)))
        cells = {c for c in grid if rng.random() < density}
        if trial % 4 == 1:  # an empty row and an empty column
            i, j = rng.randrange(len(rows)), rng.randrange(len(cols))
            cells = {c for c in cells if c[0] != i and c[1] != j}
        chain_edges = [(rows[i], cols[j]) for i, j in cells]
        # Edges off the chains are outside the grid and must not matter.
        other = [e for e in itertools.product(A, B)
                 if (e[0] not in rows or e[1] not in cols) and rng.random() < 0.5]
        G = GeometricGraph.from_edges(V, [(min(e), max(e)) for e in chain_edges + other])

        rank_a = {v: i for i, v in enumerate(rows)}
        rank_b = {v: j for j, v in enumerate(cols)}
        run = crossing._longest_edge_run(G, rows, cols, mode)
        run_ab = [e if e[0] in rank_a else e[::-1] for e in run]
        cells_run = sorted((rank_a[a], rank_b[b]) for a, b in run_ab)
        assert set(cells_run) <= cells
        assert len(cells_run) == len(run) == _longest_run_reference(cells, mode)
        assert _longest_run_reference(cells_run, mode) == len(run)

        base = crossing._base_segments(G, P_, mode)
        r = min(len(rows), len(cols))
        if len(run) >= 2:
            assert len(base) == len(run)
            assert crossing.make_family(mode, base, G, V).segments == tuple(base)
        else:
            assert base == _first_edge(G, A, B)
        if len(cells) == len(rows) * len(cols) and r >= 2:
            matched = crossing._rank_matching(rows[:r], cols[:r], mode)
            assert base == sorted((min(e), max(e)) for e in matched)


def _refuse_array(*args, **kwargs):
    raise AssertionError("the family kernel built an array")


def _spy_kernel(monkeypatch) -> list[int]:
    """Record the family size of every call make_family makes to the int64
    kernel."""
    calls = []
    kernel = crossing.first_unrelated_pair_int64
    monkeypatch.setattr(crossing, "first_unrelated_pair_int64",
                        lambda segs, *rest: calls.append(len(segs)) or kernel(segs, *rest))
    return calls


@pytest.mark.parametrize("mode", list(FamilyMode))
def test_make_family_takes_int64_kernel_only_within_bound(monkeypatch, mode):
    # Within the int64 bound every family goes to the kernel, whatever its
    # size; beyond it every family takes the scalar loop. Either path
    # checks and returns the same family. A one-segment family has no
    # pair, and the kernel builds no array for it.
    calls = _spy_kernel(monkeypatch)
    for f in (2, 9, 10):
        for top, kernel_calls in ((INT64_COORD_LIMIT, [f]), (INT64_COORD_LIMIT + 1, [])):
            V, segs = chord_family(random.Random(f), f, top, mode is FamilyMode.CROSSING)
            calls.clear()
            fam = make_family(mode, segs, GeometricGraph.complete(V), V)
            assert calls == kernel_calls
            assert fam.segments == tuple(sorted(segs))
    V, segs = chord_family(random.Random(1), 1, INT64_COORD_LIMIT, mode is FamilyMode.CROSSING)
    calls.clear()
    with monkeypatch.context() as patch:
        patch.setattr(np, "array", _refuse_array)
        fam = make_family(mode, segs, None, V)
    assert calls == [1]
    assert fam.segments == tuple(sorted(segs))


@pytest.mark.parametrize("mode", list(FamilyMode))
def test_make_family_kernel_rejects_one_bad_pair(monkeypatch, mode):
    # One swapped pair of chords in a family of 30: the kernel path raises
    # at the first failing pair of the sorted family, with the message the
    # scalar loop gives.
    calls = _spy_kernel(monkeypatch)
    f = 30
    V, segs = chord_family(random.Random(1), f, INT64_COORD_LIMIT, mode is FamilyMode.CROSSING, swaps=1)
    srt = sorted(segs)
    i, j = first_unrelated_pair(srt, V, mode is FamilyMode.CROSSING)
    message = f"family fails pairwise {mode.value} check at {srt[i]} vs {srt[j]}"
    with pytest.raises(AssertionError, match=re.escape(message)):
        make_family(mode, segs, None, V)
    assert calls == [f]


@pytest.mark.parametrize("mode", list(FamilyMode))
def test_verify_family_is_independent_of_the_kernel(monkeypatch, mode):
    # With the kernel patched to pass every family, make_family lets a bad
    # family through; verify_family, which asks the scalar relation about
    # every pair, still returns its first failing pair.
    monkeypatch.setattr(crossing, "first_unrelated_pair_int64", lambda *args: None)
    crossing_mode = mode is FamilyMode.CROSSING
    V, segs = chord_family(random.Random(2), 30, INT64_COORD_LIMIT, crossing_mode, swaps=1)
    G = GeometricGraph.complete(V)
    fam = make_family(mode, segs, G, V)
    i, j = first_unrelated_pair(fam.segments, V, crossing_mode)
    assert verify_family(fam, G) == (fam.segments[i], fam.segments[j])


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


def test_run_config_s_is_theory_only():
    # s is the depth of the theory recursion; practical mode has no use for
    # it, so a practical RunConfig with s is refused. The range check on s
    # comes first in either mode.
    assert RunConfig(theory=True, s=2).s == 2
    assert RunConfig().s is None
    with pytest.raises(ValueError, match="s applies only to theory mode"):
        RunConfig(s=2)
    for theory in (False, True):
        with pytest.raises(ValueError, match="s must be at least 1, got 0"):
            RunConfig(theory=theory, s=0)


def test_theory_mode_refuses_practical_options():
    # m, eps and delta steer the practical search; the theory driver reads
    # its schedule instead, so it refuses them rather than ignore them.
    G = GeometricGraph.complete(generate_points("random-disk", 30, seed=2))
    for option in ({"m": 16}, {"eps": Fraction(1, 8)}, {"delta": Fraction(1, 2)}):
        for driver in (find_crossing_family, find_avoiding_family):
            with pytest.raises(ValueError, match="m, eps and delta apply only to practical mode"):
                driver(G, RunConfig(theory=True, **option))


def test_find_family_validates_eps_and_delta_first():
    # eps and delta are checked before the first attempt, by the pair
    # scan's rules, even when no attempt runs: here m = 1 is no larger
    # than the first edge's family.
    G = GeometricGraph.complete(generate_points("random-disk", 30, seed=2))
    for option, message in (
        ({"eps": Fraction(-1)}, "parameters must be positive"),
        ({"delta": Fraction(0)}, "parameters must be positive"),
        ({"delta": Fraction(5)}, "delta must be at most 1, got 5"),
        ({"eps": Fraction(16), "delta": Fraction(1, 4)}, "eps\\*delta must be at most 2, got 4"),
    ):
        for driver in (find_crossing_family, find_avoiding_family):
            with pytest.raises(ValueError, match=message):
                driver(G, RunConfig(m=1, **option))
    assert len(find_crossing_family(G, RunConfig(m=1, eps=Fraction(8), delta=Fraction(1, 4)))) == 1


def _refuse_tables(*args):
    raise AssertionError("the practical path read comparability tables")


def test_practical_path_reads_rankings_only(monkeypatch):
    # The practical drivers read each pair's rankings and never pack its
    # tables or run longest_chain on them: with both made to raise, they
    # return the families they return without it.
    cases = []
    for kind, n in (("random-disk", 200), ("convex", 160), ("grid-jitter", 240)):
        V = generate_points(kind, n, 5)
        edge_rng = random.Random(n)
        sparse = [e for e in itertools.combinations(range(n), 2) if edge_rng.random() < 0.5]
        cases += [(GeometricGraph.complete(V), seed) for seed in (1, 2)] + [(GeometricGraph.from_edges(V, sparse), 1)]
    drivers = (find_crossing_family, find_avoiding_family)
    expect = [driver(G, RunConfig(seed=seed)).segments for G, seed in cases for driver in drivers]
    for module, name in ((poset, "_pack_tables"), (poset, "longest_chain")):
        monkeypatch.setattr(module, name, _refuse_tables)
    assert [driver(G, RunConfig(seed=seed)).segments for G, seed in cases for driver in drivers] == expect


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
    assert P_.iota_sum == 0
    sched = theory_params(len(V), None, 2)
    assert (sched.levels[1].t, sched.levels[1].k, sched.levels[1].m) == (8, 8, 9)
    segs = recursion_segments(G, P_, sched.levels, FamilyMode.CROSSING)
    fam = make_family(FamilyMode.CROSSING, segs, G, V)
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


# Families the drivers return for these fixed inputs under the descending
# cluster-size search, whose base matches a longest run of edges and whose
# pair scan keeps the least tangled dense pair. A refactor of the pipeline
# must return exactly these segments.
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
    ("grid-jitter", 80, 7, 0.5, FamilyMode.AVOIDING,
     ((3, 79), (10, 77), (23, 71), (37, 48), (49, 67), (52, 55), (54, 75))),
    ("grid-jitter", 120, 9, 0.5, FamilyMode.AVOIDING,
     ((1, 56), (7, 79), (10, 23), (17, 108), (28, 36), (33, 65), (40, 45), (52, 58), (78, 109),
      (86, 88))),
    # Non-complete crossing: the pair scan counts edges block by block.
    ("random-disk", 120, 11, 0.5, FamilyMode.CROSSING,
     ((7, 46), (9, 57), (11, 116), (15, 48), (16, 99), (24, 33), (30, 42), (39, 71), (52, 56),
      (94, 96), (97, 98))),
    # Near-complete (18 of 4950 edges missing): most cluster pairs tie on the
    # edge count, so the least tangled of them decides which pair is kept.
    ("random-disk", 100, 13, 0.995, FamilyMode.AVOIDING,
     ((2, 21), (7, 26), (19, 91), (25, 33), (45, 64), (58, 80), (59, 72), (61, 70), (62, 95))),
]
# Family sizes the earlier schedule found on the same inputs (start at
# n^(1/3), double m after a full yield, always 8 attempts). A change to the
# schedule must not fall below them.
EARLIER_SCHEDULE_SIZES = {
    ("random-disk", 96, 5): 11,
    ("random-disk", 150, 17): 9,
    ("convex", 64, 2): 16,
    ("convex", 96, 3): 32,
    ("grid-jitter", 80, 7): 4,
    ("grid-jitter", 120, 9): 7,
    ("random-disk", 120, 11): 7,
    ("random-disk", 100, 13): 9,
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
    attempts = []  # [m, eps, seed, family size or None, pair spans every edge]
    real_pick, real_family = crossing.find_avoiding_dense_pair, crossing.crossing_family_from_pair

    def pick(G, m, eps, delta, pick_seed):
        got = real_pick(G, m, eps, delta, pick_seed)
        full = got is not None and all(G.has_edge(u, v) for u in got[0].a for v in got[0].b)
        attempts.append([m, Fraction(eps), pick_seed, None, full])
        return got

    def family(G, P, **kwargs):
        fam = real_family(G, P, **kwargs)
        attempts[-1][3] = 0 if fam is None else len(fam)
        return fam

    monkeypatch.setattr(crossing, "find_avoiding_dense_pair", pick)
    monkeypatch.setattr(crossing, "crossing_family_from_pair", family)
    G = _pinned_graph(kind, n, seed, density)
    driver = find_crossing_family if mode is FamilyMode.CROSSING else find_avoiding_family
    result = driver(G, cfg)

    assert 1 <= len(attempts) <= cfg.max_retries
    first_m = cfg.m or 1 << (n // 2).bit_length() - 1
    assert attempts[0][:3] == [first_m, Fraction(1, 4), cfg.seed]
    best = 1  # the driver's fallback is a single edge
    first = None  # index of the attempt that gave the first family
    for k, (m, eps, attempt_seed, size, full) in enumerate(attempts):
        assert attempt_seed == cfg.seed + k
        # A pair of m-clusters yields at most m segments: no hopeless attempt.
        assert m > best
        if k and first is None:
            prev_m, prev_eps, _, prev_size, _ = attempts[k - 1]
            assert eps == (prev_eps if prev_size is not None else min(Fraction(1), 2 * prev_eps))
            assert m == prev_m // 2
        elif k:
            # After the first family: the same m and eps, fresh nets, and
            # no net after a pair that spans every edge.
            assert [m, eps] == attempts[first][:2]
            assert k - first < crossing._NETS_AT_FAMILY
            assert not attempts[k - 1][4]
        best = max(best, size or 0)
        if first is None and best >= 2:
            first = k
    # The search ends at the last net of the family's m, at a pair that spans
    # every edge, at the attempt cap, or at a hopeless m.
    last = len(attempts) - 1
    if first is None:
        assert len(attempts) == cfg.max_retries or attempts[-1][0] // 2 <= best
    else:
        assert (
            last - first + 1 == crossing._NETS_AT_FAMILY
            or attempts[-1][4]
            or len(attempts) == cfg.max_retries
            or attempts[-1][0] <= best
        )
    assert len(result) == best
    assert verify_family(result, G) is None


@pytest.mark.parametrize("kind,n,seed,density,mode,expected", PINNED_FAMILIES)
def test_driver_families_pinned(kind, n, seed, density, mode, expected):
    G = _pinned_graph(kind, n, seed, density)
    driver = find_crossing_family if mode is FamilyMode.CROSSING else find_avoiding_family
    segments = driver(G, RunConfig(seed=seed)).segments
    assert len(segments) >= EARLIER_SCHEDULE_SIZES[kind, n, seed]
    assert segments == expected


@pytest.mark.parametrize("kind,n,seed,density,mode,expected", PINNED_FAMILIES)
def test_driver_families_pinned_without_split(monkeypatch, kind, n, seed, density, mode, expected):
    # Practical mode returns the base of each pair it tries: the paper's
    # split and its interval chains belong to the theory recursion alone.
    def unreachable(*args, **kwargs):
        raise AssertionError("the split ran in practical mode")

    monkeypatch.setattr(theory, "split_pair", unreachable)
    monkeypatch.setattr(theory, "interval_chains", unreachable)
    G = _pinned_graph(kind, n, seed, density)
    driver = find_crossing_family if mode is FamilyMode.CROSSING else find_avoiding_family
    assert driver(G, RunConfig(seed=seed)).segments == expected
