import heapq
import itertools
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import fixup_general_position, separated_pair, succ_masks
from crossfam import poset
from crossfam.audit import less_under
from crossfam.cli import generate_points
from crossfam.clusters import find_avoiding_dense_pair
from crossfam.errors import DegenerateInputError, HypothesisViolatedError, NotSeparatedError
from crossfam.geom import (
    COORD_LIMIT,
    INT64_COORD_LIMIT,
    FamilyMode,
    GeometricGraph,
    Point,
    PointSet,
    convex_hull,
    general_position_check,
    hull_coords,
    line_meets_hull,
    segments_cross,
    vertex_mask,
)
from crossfam.poset import (
    Cmp,
    _classify_pair,
    _compare_side,
    build_pair_poset,
    interval_chains,
    iota_sum_capped,
    longest_chain,
)
from crossfam.theory import _grid_chain


def P(*coords):
    return [Point(x, y) for x, y in coords]


def test_less_under_examples():
    B = P((0, 3), (2, 3))
    assert less_under(Point(0, 0), Point(2, 0), B) is Cmp.LESS
    assert less_under(Point(2, 0), Point(0, 0), B) is Cmp.GREATER
    assert less_under(Point(0, 0), Point(2, 0), P((1, 1), (1, -1))) is Cmp.INCOMPARABLE


def test_less_under_degenerate():
    with pytest.raises(DegenerateInputError):
        less_under(Point(0, 0), Point(2, 0), P((1, 0), (1, 5)))


def test_build_pair_poset_example():
    V = PointSet(P((0, 0), (2, 0), (0, 3), (2, 3)))
    pp = build_pair_poset((0, 1), (2, 3), V)
    assert pp.less_in_a(0, 1)
    assert pp.less_in_b(3, 2)
    assert pp.iota_a == 0 and pp.iota_b == 0
    assert pp.iota_sum == 0


def test_build_pair_poset_total_order():
    # Tiny cluster far below a two-point top set: all lines through the
    # cluster miss the top hull, so the induced order is total.
    V = PointSet(P((0, 0), (50, 7), (100, 1), (20, 900_000), (80, 900_000)))
    pp = build_pair_poset((0, 1, 2), (3, 4), V)
    assert pp.iota_a == 0
    chains = [(x, y) for x, y in itertools.permutations((0, 1, 2), 2) if pp.less_in_a(x, y)]
    assert len(chains) == 3  # a total order on three elements


def test_build_pair_poset_not_separated():
    # A cap never skips the separation check.
    V = PointSet(P((0, 0), (2, 0), (1, 5), (1, -5)))
    for cap in (None, 0, 10**9):
        with pytest.raises(NotSeparatedError):
            build_pair_poset((0, 1), (2, 3), V, cap=cap)


def test_pair_poset_properties_random(rng):
    for _ in range(40):
        V, A, B = separated_pair(rng, rng.randint(2, 10), rng.randint(2, 10))
        pp = build_pair_poset(A, B, V)
        pb = [V[i] for i in B]
        # transitivity
        for x, y, z in itertools.permutations(A, 3):
            if pp.less_in_a(x, y) and pp.less_in_a(y, z):
                assert pp.less_in_a(x, z)
        # incomparability happens exactly when the line meets the other hull
        incomparable = lambda x, y: not pp.less_in_a(x, y) and not pp.less_in_a(y, x)
        for x, y in itertools.combinations(A, 2):
            meets = line_meets_hull(V[x], V[y], pb)
            assert incomparable(x, y) == meets
        # iota is recomputable
        assert pp.iota_a == sum(1 for x, y in itertools.combinations(A, 2) if incomparable(x, y))
        assert iota_sum_capped(A, B, V, 10**9) == pp.iota_sum


def _reference_side(side, V, other):
    """Less pairs and incomparable count of one side, one hull scan per pair."""
    hull = [(p.x, p.y) for p in convex_hull([V[i] for i in other])]
    less, iota = set(), 0
    for u, v in itertools.combinations(side, 2):
        c = _classify_pair(V.coords[u], V.coords[v], hull)
        if c is Cmp.LESS:
            less.add((u, v))
        elif c is Cmp.GREATER:
            less.add((v, u))
        else:
            iota += 1
    return less, iota


def _less_pairs(side, succ):
    """The LESS pairs a side's successor bitmasks encode."""
    return {(u, v) for u in side for v in side if succ[u] >> v & 1}


def _reference_iota_capped(A, B, V, cap):
    """The capped count as a plain pair loop: None once the count exceeds cap."""
    total = 0
    for side, other in ((A, B), (B, A)):
        hull = [(p.x, p.y) for p in convex_hull([V[i] for i in other])]
        for u, v in itertools.combinations(side, 2):
            if _classify_pair(V.coords[u], V.coords[v], hull) is Cmp.INCOMPARABLE:
                total += 1
                if total > cap:
                    return None
    return total


@given(
    seed=st.integers(0, 2**32 - 1),
    na=st.integers(1, 9),
    nb=st.integers(1, 9),
    span=st.sampled_from([1_000, 2**20, 2**30 - 1]),
    sign=st.sampled_from([1, -1]),
)
@settings(max_examples=150, deadline=None)
def test_two_tangent_kernel_matches_reference(seed, na, nb, span, sign):
    # The slabs start at -COORD_LIMIT; the leftmost and the lowest point are
    # moved onto that edge, and mirroring puts them on +COORD_LIMIT. At span
    # 2^30 - 1 the coordinates fill the whole range and orientation products
    # exceed int64.
    V0, A, B = separated_pair(random.Random(seed), na, nb, span, offset=COORD_LIMIT)
    coords = [list(c) for c in V0.coords]
    coords[min(A, key=lambda i: coords[i][0])][0] = -COORD_LIMIT
    coords[min(range(na + nb), key=lambda i: coords[i][1])][1] = -COORD_LIMIT
    pts = [(sign * x, sign * y) for x, y in coords]
    assume(general_position_check(pts) is None)
    V = PointSet(pts)
    assert max(abs(c) for xy in pts for c in xy) == COORD_LIMIT

    pp = build_pair_poset(A, B, V)
    assert (_less_pairs(pp.a, pp.succ_a), pp.iota_a) == _reference_side(A, V, B)
    assert (_less_pairs(pp.b, pp.succ_b), pp.iota_b) == _reference_side(B, V, A)
    hull_a = hull_coords(V.coords[i] for i in A)
    hull_b = hull_coords(V.coords[i] for i in B)
    total = pp.iota_sum
    for cap in (0, total - 1, total, 10**9):
        expected = _reference_iota_capped(A, B, V, cap)
        assert expected == (None if total > max(cap, 0) else total)
        assert build_pair_poset(A, B, V, cap=cap) == (None if expected is None else pp)
        assert build_pair_poset(A, B, V, hull_a, hull_b, cap) == (None if expected is None else pp)
        assert iota_sum_capped(A, B, V, cap) == expected
        assert iota_sum_capped(A, B, V, cap, hull_a, hull_b) == expected


def _side_and_hull(seed, na, nb, kind, top):
    """Coordinates of a side A of na points and an opposite side B of nb
    points in disjoint vertical slabs, with every coordinate at most
    ``top`` in magnitude and the leftmost point of A at x = -top. B is a
    random cloud, or with kind "arc" lies on a parabola, so that its hull
    keeps most of its points. Returns (coords, A, B)."""
    rng = random.Random(seed)

    def draw(idx):
        if idx < na:
            return (rng.randint(0, top // 2), rng.randint(0, 2 * top))
        if kind == "arc":
            j = rng.randint(-top, top)
            return (2 * top - (top * top - j * j) // (2 * top), top + j)
        return (rng.randint(3 * top // 2, 2 * top), rng.randint(0, 2 * top))

    coords = [draw(i) for i in range(na + nb)]
    fixup_general_position(coords, draw)
    left = min(range(na), key=lambda i: coords[i])
    coords[left] = (0, coords[left][1])
    return [(x - top, y - top) for x, y in coords], tuple(range(na)), tuple(range(na, na + nb))


# Stands for "no cap" in the direct kernel calls: above any pair count.
_NO_CAP = 10**9


def _outcome(compare, *args):
    """The result a comparison gives, or the error class it raises."""
    try:
        return compare(*args)
    except DegenerateInputError:
        return DegenerateInputError


def _by_rankings(side, V, hull, cap):
    """One side as ``poset_from_rankings`` reads it, in ``_compare_side``'s
    form: its tables and count from ``rank_sides``, None once the count
    exceeds ``cap``, or for a side that an exact tie left unranked the
    outcome of the scalar loop at ``cap``."""
    ranks = poset.rank_sides(V, [side], [hull])[0]
    if ranks is None:
        return _outcome(_compare_side, side, V.coords, hull, cap)
    rows, place = ranks
    iota = poset._side_count(place, cap)
    if iota is None:
        return None
    return poset._pack_tables(tuple(side[r] for r in rows.tolist()), place.tolist()), iota


_PSEUDO_ANGLE = poset._pseudo_angle


def _negated_pseudo_angle(dot, cross):
    """Angle keys that sort every ranking backwards: a float misorder."""
    return -_PSEUDO_ANGLE(dot, cross)


@given(
    seed=st.integers(0, 2**32 - 1),
    na=st.integers(1, 64),
    kind=st.sampled_from(["point", "segment", "cloud", "arc"]),
    nb=st.integers(3, 30),
    top=st.sampled_from([INT64_COORD_LIMIT, INT64_COORD_LIMIT + 1, COORD_LIMIT]),
    sign=st.sampled_from([1, -1]),
    slab=st.sampled_from([1, 64, poset._PAIR_SLAB]),
    misorder=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_int64_kernel_matches_scalar_reference(seed, na, kind, nb, top, sign, slab, misorder):
    # Sides of 1..64 points cross the int64 threshold; hulls have one
    # vertex, two, or many. The largest coordinate sits at the int64 bound,
    # one beyond it, or at COORD_LIMIT. A slab of 1 or 64 entries takes the
    # floor of 8 rows, so the cap is checked after every 8 rows. With the
    # angle keys negated, every kernel sort of two or more points
    # misorders, and the exact comparator sort must rank the side instead.
    # Each side's tables, count and outcome at each cap are the scalar
    # loop's.
    nb = {"point": 1, "segment": 2}.get(kind, nb)
    coords, A, B = _side_and_hull(seed, na, nb, kind, top)
    pts = [(sign * x, sign * y) for x, y in coords]
    assume(general_position_check(pts) is None)
    V = PointSet(pts)
    assert max(abs(c) for xy in pts for c in xy) == top
    assert V.within_int64_bound == (top <= INT64_COORD_LIMIT)
    hull_a = hull_coords(V.coords[i] for i in A)
    hull_b = hull_coords(V.coords[i] for i in B)
    if kind in ("point", "segment", "arc"):
        assert len(hull_b) == nb

    angle = _negated_pseudo_angle if misorder else _PSEUDO_ANGLE
    with mock.patch.object(poset, "_PAIR_SLAB", slab), mock.patch.object(poset, "_pseudo_angle", angle):
        for side, hull in ((A, hull_b), (B, hull_a)):
            total = _compare_side(side, V.coords, hull, _NO_CAP)[1]
            for cap in (0, total - 1, total, _NO_CAP):
                expect = _compare_side(side, V.coords, hull, cap)
                assert (expect is None) == (total > max(cap, 0))
                assert _by_rankings(side, V, hull, cap) == expect

        pp = build_pair_poset(A, B, V)
        assert (_less_pairs(pp.a, pp.succ_a), pp.iota_a) == _reference_side(A, V, B)
        assert (_less_pairs(pp.b, pp.succ_b), pp.iota_b) == _reference_side(B, V, A)
        total = pp.iota_sum
        for cap in (0, total - 1, total, None):
            expect = pp if cap is None or total <= max(cap, 0) else None
            assert build_pair_poset(A, B, V, cap=cap) == expect
            assert build_pair_poset(A, B, V, hull_a, hull_b, cap) == expect
            if cap is not None:
                assert iota_sum_capped(A, B, V, cap, hull_a, hull_b) == (None if expect is None else total)


def test_build_pair_poset_takes_int64_kernel_only_within_bound(monkeypatch):
    # Within the int64 bound every side goes to the int64 kernel, whatever
    # its size; beyond it none does. Either path gives the same tables.
    calls = []
    kernel = poset._rank_int64
    monkeypatch.setattr(poset, "_rank_int64", lambda V, sides, edges: calls.append(sides.shape) or kernel(V, sides, edges))
    for k in (1, 2, 30):
        for top, shapes in ((INT64_COORD_LIMIT, [(1, k), (1, 5)]), (INT64_COORD_LIMIT + 1, [])):
            coords, A, B = _side_and_hull(11, k, 5, "cloud", top)
            V = PointSet(coords)
            calls.clear()
            pp = build_pair_poset(A, B, V)
            assert calls == shapes
            assert (_less_pairs(pp.a, pp.succ_a), pp.iota_a) == _reference_side(A, V, B)


def test_capped_build_gives_up_early(monkeypatch):
    # A capped build ranks side b only when side a stays within the cap,
    # and a side stops at the first row slab whose pairs exceed it.
    t = 64
    coords, A, B = _side_and_hull(5, t, t, "cloud", INT64_COORD_LIMIT)
    V = PointSet(coords)
    full = build_pair_poset(A, B, V)
    assert full.iota_a > 0
    calls, slabs = [], []
    kernel, binomial = poset._rank_int64, poset.comb
    monkeypatch.setattr(poset, "_rank_int64", lambda V, sides, edges: calls.append(tuple(sides[0].tolist())) or kernel(V, sides, edges))
    monkeypatch.setattr(poset, "comb", lambda *args: slabs.append(args) or binomial(*args))
    monkeypatch.setattr(poset, "_PAIR_SLAB", 64)
    for capped in (lambda: build_pair_poset(A, B, V, cap=0), lambda: iota_sum_capped(A, B, V, 0)):
        calls.clear()
        slabs.clear()
        assert capped() is None
        assert calls == [A]
        # Two binomials a slab; the side has t / 8 slabs of 8 rows.
        assert len(slabs) < 2 * t // 8


def test_int64_kernel_memory_is_slabbed():
    # The pair matrix of a 2048-point side would take 32 MB in int64, and
    # 4 MB even as bools; in slabs the whole build, and the packing of the
    # masks, peak under 3 MB of traced allocations.
    V, A, B = separated_pair(random.Random(7), 2048, 3, 2**20)
    assert V.within_int64_bound
    tracemalloc.start()
    try:
        pp = build_pair_poset(A, B, V)
        comparable = sum(pp.succ_a[u].bit_count() for u in A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20
    assert comparable + pp.iota_a == 2048 * 2047 // 2


def test_build_pair_poset_tangent_vertex_on_line():
    # (5, 0), a vertex of the B hull, lies on the line through (0, 0) and
    # (1, 0); seen from (0, 0) it is a tangent vertex, so the pair's sign is
    # zero and the input must still be rejected as degenerate, capped or not.
    V = PointSet(P((0, 0), (1, 0), (5, 0), (5, 10), (6, 5)), check_general_position=False)
    for cap in (None, 0, 10**9):
        with pytest.raises(DegenerateInputError):
            build_pair_poset((0, 1), (2, 3, 4), V, cap=cap)
    with pytest.raises(DegenerateInputError):
        iota_sum_capped((0, 1), (2, 3, 4), V, 10**9)

    # The same pair heads a side of 26 points: the two points
    # tie in their first ranking, so the side is left unranked and goes to
    # the scalar loop, which raises at its first pair, capped or not. The
    # zigzag of extra points adds incomparable pairs and no other
    # degenerate triple.
    extra = [(-40 - 7 * i, 5 + (-1) ** i * (2 * i + 1)) for i in range(24)]
    V = PointSet(P((0, 0), (1, 0), *extra, (5, 0), (5, 10), (6, 5)), check_general_position=False)
    A = tuple(range(2 + len(extra)))
    B = tuple(range(len(A), len(A) + 3))
    assert V.within_int64_bound
    hull = hull_coords(V.coords[i] for i in B)
    assert poset.rank_sides(V, [A], [hull]) == poset.rank_sides(V, [A[::-1]], [hull]) == [None]
    for cap in (None, 0, 10**9):
        with pytest.raises(DegenerateInputError):
            build_pair_poset(A, B, V, cap=cap)
    # Last in the side, the pair comes after incomparable pairs: a cap of 0
    # gives up before reaching it, and no cap raises.
    for cap in (0, _NO_CAP):
        expect = _outcome(_compare_side, A[::-1], V.coords, hull, cap)
        assert expect == (None if cap == 0 else DegenerateInputError)
        assert _outcome(build_pair_poset, A[::-1], B, V, None, None, cap) == expect
    with pytest.raises(DegenerateInputError):
        build_pair_poset(A[::-1], B, V)


def _angle_cmp(c, a, b):
    """-1, 0 or 1 as the angle from c to a, in (-pi, pi], is below, at or
    above the angle from c to b: exact, on Python ints."""

    def side(v):  # 0 below zero, 1 at zero, 2 above; pi counts as above
        cross = c[0] * v[1] - c[1] * v[0]
        dot = c[0] * v[0] + c[1] * v[1]
        return 1 if cross == 0 and dot > 0 else (0 if cross < 0 else 2)

    sa, sb = side(a), side(b)
    if sa != sb:
        return -1 if sa < sb else 1
    turn = a[0] * b[1] - a[1] * b[0]
    return 0 if sa == 1 or turn == 0 else (-1 if turn > 0 else 1)


def test_pseudo_angle_orders_by_angle():
    # The key grows with the angle from c over (-pi, pi), quadrant
    # boundaries and the axes included; the kernel sorts by it.
    rng = random.Random(3)
    for top in (3, 1000, 2**30):
        c = (rng.randint(-top, top) or 1, rng.randint(-top, top))
        vs = [(rng.randint(-top, top), rng.randint(-top, top)) for _ in range(300)]
        vs += [(c[0], c[1]), (-c[1], c[0]), (c[1], -c[0]), (c[0] + c[1], c[1] - c[0])]
        vs = [v for v in vs if v != (0, 0) and _angle_cmp(c, v, (-c[0], -c[1])) < 0]
        tx = np.array([[v[0] for v in vs]], dtype=np.int64)
        ty = np.array([[v[1] for v in vs]], dtype=np.int64)
        key = poset._pseudo_angle(c[0] * tx + c[1] * ty, c[0] * ty - c[1] * tx)[0].tolist()
        for i, j in itertools.combinations(range(len(vs)), 2):
            expect = _angle_cmp(c, vs[i], vs[j])
            if expect:
                assert (key[i] > key[j]) - (key[i] < key[j]) == expect


def _refuse_fallback(*args):
    raise AssertionError("the int64 kernel fell back to an exact path")


@pytest.mark.parametrize("kind, n, k", [("random-disk", 256, 64), ("grid-jitter", 768, 128), ("convex", 512, 128)])
def test_int64_kernel_needs_no_fallback_on_workload_sides(monkeypatch, kind, n, k):
    # The two tangent rankings of sides drawn like the benchmark's inputs
    # are strict and their float keys exact, so the kernel never hands a
    # side to the exact sort or the scalar loop: a silent fallback would
    # keep every result and lose the speed. The sides are the k leftmost
    # and k rightmost points and, on random-disk points, the m = k
    # clusters that the pair scan cuts for the complete graph.
    for seed in (1, 2, 3):
        V = generate_points(kind, n, seed)
        assert V.within_int64_bound
        by_x = sorted(range(n), key=lambda i: V.coords[i])
        A, B = tuple(by_x[:k]), tuple(by_x[-k:])
        hull_a = hull_coords(V.coords[i] for i in A)
        hull_b = hull_coords(V.coords[i] for i in B)
        expect = [_compare_side(A, V.coords, hull_b, _NO_CAP), _compare_side(B, V.coords, hull_a, _NO_CAP)]
        with monkeypatch.context() as patch:
            patch.setattr(poset, "_rank_exact", _refuse_fallback)
            patch.setattr(poset, "_compare_side", _refuse_fallback)
            pp = build_pair_poset(A, B, V)
            assert iota_sum_capped(A, B, V, _NO_CAP) == pp.iota_sum
            if kind == "random-disk":
                assert find_avoiding_dense_pair(GeometricGraph.complete(V), k, 1, Fraction(1, 2), seed) is not None
        assert [(pp.succ_a, pp.iota_a), (pp.succ_b, pp.iota_b)] == expect


def test_int64_kernel_fallbacks_match_scalar(monkeypatch):
    # An exact tie (a tangent vertex on a line through two points of the
    # side) leaves the side unranked, and the scalar loop then raises, or
    # gives up at the cap, once. A float misorder (forced by negating the
    # angle key) hands the side to the exact comparator sort, which ranks
    # it as the kernel does unpatched, without the scalar loop.
    calls, sorted_exactly = [], []
    scalar, rank_exact = poset._compare_side, poset._rank_exact
    monkeypatch.setattr(poset, "_compare_side", lambda *args: calls.append(1) or scalar(*args))
    monkeypatch.setattr(poset, "_rank_exact", lambda *args: sorted_exactly.append(1) or rank_exact(*args))
    extra = [(-40 - 7 * i, 5 + (-1) ** i * (2 * i + 1)) for i in range(24)]
    tie = PointSet(P((0, 0), (1, 0), *extra, (5, 0), (5, 10), (6, 5)), check_general_position=False)
    tie_side = tuple(range(len(extra) + 2))[::-1]
    tie_other = tuple(range(len(tie_side), len(tie)))
    tie_hull = hull_coords(tie.coords[i] for i in tie_other)
    for cap in (0, _NO_CAP):
        expect = _outcome(scalar, tie_side, tie.coords, tie_hull, cap)
        assert expect == (None if cap == 0 else DegenerateInputError)
        calls.clear()
        assert _outcome(build_pair_poset, tie_side, tie_other, tie, None, None, cap) == expect
        assert len(calls) == 1

    coords, A, B = _side_and_hull(5, 40, 12, "cloud", 2**20)
    plain = PointSet(coords)
    plain_hull = hull_coords(plain.coords[i] for i in B)
    rows, place = poset.rank_sides(plain, [A], [plain_hull])[0]
    full = _compare_side(A, plain.coords, plain_hull, _NO_CAP)
    with monkeypatch.context() as patch:
        patch.setattr(poset, "_pseudo_angle", _negated_pseudo_angle)
        assert poset._rank_int64(plain, np.array([A]), poset.hull_edges([plain_hull]))[2] == [False]
        calls.clear()
        sorted_exactly.clear()
        misordered = poset.rank_sides(plain, [A], [plain_hull])[0]
        for cap in (0, full[1] - 1, full[1], _NO_CAP):
            assert _by_rankings(A, plain, plain_hull, cap) == (full if full[1] <= cap else None)
        assert calls == [] and sorted_exactly
    assert rows.tolist() == misordered[0].tolist() and place.tolist() == misordered[1].tolist()


@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 40),
    extra=st.integers(0, 24),
    kind=st.sampled_from(["point", "segment", "cloud", "arc"]),
    nb=st.integers(3, 48),
    top=st.sampled_from([INT64_COORD_LIMIT, INT64_COORD_LIMIT + 1, COORD_LIMIT]),
    sign=st.sampled_from([1, -1]),
    slab=st.sampled_from([1, 64, poset._PAIR_SLAB]),
)
@settings(max_examples=200, deadline=None)
def test_batched_kernel_matches_scalar(seed, k, extra, kind, nb, top, sign, slab):
    # One batch holds several problems of k points: samples of a side A
    # against the hull of B and, when B is large enough, samples of B
    # against the hull of A, so hulls of different widths share the padded
    # edge arrays. Each problem's rankings are those of the same problem
    # ranked alone and those of the exact comparator sort, and its tables,
    # count and outcome at each cap those of the scalar loop. A pair of one
    # sample from each side, ranked in one batch, gives what
    # build_pair_poset and iota_sum_capped give it at each cap. Beyond the
    # int64 bound no side takes the kernel, and the exact sort ranks all.
    nb = {"point": 1, "segment": 2}.get(kind, nb)
    coords, A, B = _side_and_hull(seed, k + extra, nb, kind, top)
    pts = [(sign * x, sign * y) for x, y in coords]
    assume(general_position_check(pts) is None)
    V = PointSet(pts)
    assert V.within_int64_bound == (top <= INT64_COORD_LIMIT)
    hull_a = hull_coords(V.coords[i] for i in A)
    hull_b = hull_coords(V.coords[i] for i in B)
    rng = random.Random(seed)
    problems = [(tuple(rng.sample(A, k)), hull_b) for _ in range(3)]
    if len(B) >= k:
        problems.append((tuple(rng.sample(B, k)), hull_a))

    with mock.patch.object(poset, "_PAIR_SLAB", slab):
        batch = poset.rank_sides(V, [side for side, _ in problems], [hull for _, hull in problems])
        for (side, hull), ranks in zip(problems, batch):
            for other in (poset.rank_sides(V, [side], [hull])[0], poset._rank_exact(side, V.coords, hull)):
                assert [r.tolist() for r in ranks] == [r.tolist() for r in other]
            total = _compare_side(side, V.coords, hull, _NO_CAP)[1]
            for cap in (0, total - 1, total, _NO_CAP):
                assert _by_rankings(side, V, hull, cap) == _compare_side(side, V.coords, hull, cap)
        if len(B) >= k:
            a, b = problems[0][0], problems[-1][0]
            ha, hb = (hull_coords(V.coords[i] for i in s) for s in (a, b))
            total = build_pair_poset(a, b, V).iota_sum
            for cap in (0, total - 1, total, _NO_CAP):
                expect = build_pair_poset(a, b, V, cap=cap)
                assert poset.poset_from_rankings(a, b, V, ha, hb, poset.rank_sides(V, [a, b], [hb, ha]), cap) == expect
                assert iota_sum_capped(a, b, V, cap) == (None if expect is None else total)


def test_batched_kernel_tie_falls_back_alone():
    # A problem whose side holds an exact tie (a tangent vertex on the line
    # through two of its points) is left unranked, and at its turn the
    # scalar loop raises on it, or gives up at a cap of 0 before reaching
    # the pair; the other problems of its batch keep their rankings.
    extra = [(-40 - 7 * i, 5 + (-1) ** i * (2 * i + 1)) for i in range(24)]
    V = PointSet(P((0, 0), (1, 0), *extra, (5, 0), (5, 10), (6, 5), (-31, 90)), check_general_position=False)
    tie = tuple(range(len(extra) + 2))[::-1]
    plain = tie[:-1] + (len(V) - 1,)
    hull = hull_coords(V.coords[i] for i in range(len(tie), len(V) - 1))
    other = hull_coords(V.coords[i] for i in (len(tie), len(tie) + 1))
    rows, p, exact = poset._rank_int64(V, np.array([plain, tie, plain]), poset.hull_edges([other, hull, other]))
    assert exact == [True, False, True]
    batch = poset.rank_sides(V, [plain, tie, plain], [other, hull, other])
    assert batch[1] is None
    for q in (0, 2):
        assert batch[q][0].tolist() == rows[q].tolist() and batch[q][1].tolist() == p[q].tolist()
        order = tuple(plain[r] for r in batch[q][0].tolist())
        tables = poset._pack_tables(order, batch[q][1].tolist()), poset._side_count(batch[q][1], _NO_CAP)
        assert tables == _compare_side(plain, V.coords, other, _NO_CAP)
    assert _by_rankings(tie, V, hull, 0) is None
    assert _by_rankings(tie, V, hull, _NO_CAP) is DegenerateInputError


def test_crossing_guarantee(rng):
    for _ in range(25):
        V, A, B = separated_pair(rng, rng.randint(2, 8), rng.randint(2, 8))
        pp = build_pair_poset(A, B, V)
        for x, y in itertools.permutations(A, 2):
            if not pp.less_in_a(x, y):
                continue
            for z, t in itertools.permutations(B, 2):
                if pp.less_in_b(z, t):
                    assert segments_cross((x, z), (y, t), V)


def _chain_poset(n):
    items = list(range(n))
    return items, succ_masks(items, lambda a, b: a < b)


def _longest(items, dom):
    """``longest_chain`` on arbitrary items, through their indices."""
    succ = succ_masks(range(len(items)), lambda i, j: dom(items[i], items[j]))
    return [items[i] for i in longest_chain(succ)]


def test_interval_chains_total_order():
    items, succ = _chain_poset(10)
    chain = interval_chains(items, succ, 2, 3)
    assert chain.blocks == ((0, 1), (2, 3), (4, 5))


def test_interval_chains_buffer():
    # 40 elements, window-2 semiorder: x < y iff y - x >= 2; iota = 39 sits
    # just under the bound (40-4)^2/32 = 40.5, and the buffer is positive.
    items = list(range(40))
    less = lambda a, b: b - a >= 2
    chain = interval_chains(items, succ_masks(items, less), 2, 2)
    assert len(chain.blocks) == 2
    for blk in chain.blocks:
        assert len(blk) == 2
    for u in chain.blocks[0]:
        for v in chain.blocks[1]:
            assert less(u, v)


def test_interval_chains_hypothesis_violated():
    items = list(range(4))
    never = lambda a, b: False  # antichain
    with pytest.raises(HypothesisViolatedError):
        interval_chains(items, succ_masks(items, never), 1, 1)
    # size too small
    with pytest.raises(HypothesisViolatedError):
        interval_chains(*_chain_poset(6), 2, 3)


def test_interval_chains_random_semiorders(rng):
    for _ in range(60):
        n_el = rng.randint(12, 60)
        g = rng.randint(1, 3)
        labels = list(range(n_el))
        rng.shuffle(labels)
        pos = {lab: i for i, lab in enumerate(labels)}
        less = lambda a, b: pos[b] - pos[a] >= g
        iota = sum(
            1
            for i, j in itertools.combinations(range(n_el), 2)
            if abs(pos[labels[i]] - pos[labels[j]]) < g
        )
        blk = rng.randint(1, 3)
        size = rng.randint(1, 3)
        slack = n_el - size * blk
        if slack <= 0 or 16 * blk * iota > slack * slack:
            continue
        chain = interval_chains(labels, succ_masks(labels, less), size, blk)
        assert len(chain.blocks) == blk
        seen = set()
        for b in chain.blocks:
            assert len(b) == size
            assert not (set(b) & seen)
            seen |= set(b)
        for i in range(blk - 1):
            for u in chain.blocks[i]:
                for v in chain.blocks[i + 1]:
                    assert less(u, v)


def _reference_predecessor_masks(items, later):
    """The transpose of the successor masks one bit at a time: bit i of
    entry p is set when bit items[p] of later[i] is."""
    pos = {x: i for i, x in enumerate(items)}
    pred = [0] * len(items)
    for i, s in enumerate(later):
        while s:
            low = s & -s
            pred[pos[low.bit_length() - 1]] |= 1 << i
            s ^= low
    return pred


@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 90),
       spread=st.sampled_from([1, 3, 40, 3000]), density=st.sampled_from([0.0, 0.3, 0.9, 1.0]),
       slab=st.sampled_from([1, 64, poset._PAIR_SLAB]))
@settings(max_examples=300, deadline=None)
def test_predecessor_masks_match_bit_loop(seed, size, spread, density, slab):
    # Labels are packed (spread 1) or scattered up to 3000 * size, and any
    # bit pattern over them is read. A slab of 1 or 64 entries gives slabs
    # of 8 rows, so larger sides fill several.
    rng = random.Random(seed)
    items = rng.sample(range(spread * size), size)
    later = [sum(1 << y for y in items if rng.random() < density) for _ in items]
    with mock.patch.object(poset, "_PAIR_SLAB", slab):
        assert poset._predecessor_masks(items, later) == _reference_predecessor_masks(items, later)


def test_longest_chain_example():
    items = [(1, 1), (2, 3), (3, 2), (4, 4)]
    dom = lambda p, q: p[0] < q[0] and p[1] < q[1]
    assert _longest(items, dom) == [(1, 1), (2, 3), (4, 4)]


def test_longest_chain_trivial():
    assert _longest([(5, 5)], lambda p, q: False) == [(5, 5)]
    items = [(0, 2), (1, 1), (2, 0)]
    assert _longest(items, lambda p, q: p[0] < q[0] and p[1] < q[1]) == [(0, 2)]
    assert longest_chain({}) == []


def _brute_longest(items, dom):
    best = 0
    n = len(items)
    for mask in range(1, 1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        ok = all(
            dom(items[idx[i]], items[idx[j]]) or dom(items[idx[j]], items[idx[i]])
            for i in range(len(idx))
            for j in range(i + 1, len(idx))
        )
        if ok:
            # must be linearly ordered; sort by domination count
            chain = sorted(idx, key=lambda i: sum(dom(items[j], items[i]) for j in idx))
            if all(dom(items[chain[i]], items[chain[i + 1]]) for i in range(len(chain) - 1)):
                best = max(best, len(idx))
    return best


def test_longest_chain_matches_bruteforce(rng):
    dom = lambda p, q: p[0] < q[0] and p[1] < q[1]
    for _ in range(30):
        n_items = rng.randint(1, 10)
        items = [(rng.randint(0, 8), rng.randint(0, 8)) for _ in range(n_items)]
        items = list(dict.fromkeys(items))
        got = _longest(items, dom)
        assert len(got) == _brute_longest(items, dom)
        assert all(dom(got[i], got[i + 1]) for i in range(len(got) - 1))


@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=8, unique=True))
@settings(max_examples=60)
def test_longest_chain_is_chain(items):
    dom = lambda p, q: p[0] < q[0] and p[1] < q[1]
    got = _longest(items, dom)
    assert all(dom(got[i], got[i + 1]) for i in range(len(got) - 1))
    assert len(got) == _brute_longest(items, dom)


# Reference chain routines that ask a callable relation one pair at a time.
# The differential tests below hold the mask routines to their outputs.


def _reference_interval_chains(elements, less, n, k):
    items = list(elements)
    N = len(items)
    inc_count = [0] * N
    lt = [[False] * N for _ in range(N)]
    iota = 0
    for i in range(N - 1):
        for j in range(i + 1, N):
            if less(items[i], items[j]):
                lt[i][j] = True
            elif less(items[j], items[i]):
                lt[j][i] = True
            else:
                iota += 1
                inc_count[i] += 1
                inc_count[j] += 1
    slack = N - n * k
    if slack <= 0 or 16 * k * iota > slack * slack:
        raise HypothesisViolatedError(N, n, k, iota)
    q_idx = [i for i in range(N) if inc_count[i] * 4 * k < slack]
    indeg = [0] * len(q_idx)
    succs = [[] for _ in q_idx]
    for qi, i in enumerate(q_idx):
        for qj, j in enumerate(q_idx):
            if lt[i][j]:
                succs[qi].append(qj)
                indeg[qj] += 1
    ready = [i for i in range(len(q_idx)) if indeg[i] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        cur = heapq.heappop(ready)
        order.append(q_idx[cur])
        for nxt in succs[cur]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                heapq.heappush(ready, nxt)
    buffer = slack // (2 * k)
    return tuple(tuple(items[i] for i in order[b * (n + buffer) : b * (n + buffer) + n]) for b in range(k))


def _reference_longest_chain(items, dominates):
    n = len(items)
    if n == 0:
        return []
    dom = [[dominates(items[i], items[j]) for j in range(n)] for i in range(n)]
    ndom = [sum(dom[j][i] for j in range(n)) for i in range(n)]
    topo = sorted(range(n), key=lambda i: (ndom[i], i))
    suffix = [1] * n
    for i in reversed(topo):
        suffix[i] = 1 + max((suffix[j] for j in range(n) if dom[i][j]), default=0)
    chain = []
    need = max(suffix)
    candidates = range(n)
    while need > 0:
        pick = min(i for i in candidates if suffix[i] == need and (not chain or dom[chain[-1]][i]))
        chain.append(pick)
        need -= 1
        candidates = [j for j in range(n) if dom[pick][j]]
    return [items[i] for i in chain]


def _random_order(rng, kind, size):
    """Distinct int labels in a random position order, and a strict partial
    order on them of the given kind."""
    labels = rng.sample(range(3 * size), size)
    if kind == "antichain":
        return labels, lambda a, b: False
    if kind == "semiorder":
        # Ranks are a second shuffle, so neither labels nor positions give
        # the order; a window g leaves nearby ranks incomparable.
        ranks = {lab: r for r, lab in enumerate(rng.sample(labels, size))}
        g = rng.randint(1, 3)
        return labels, lambda a, b: ranks[b] - ranks[a] >= g
    if kind == "dominance":
        # Points near a rising line: mostly ordered, with ties in x or y.
        spread = rng.randint(0, size // 4 + 1)
        pt = {lab: (i + rng.randint(0, spread), i + rng.randint(0, spread))
              for i, lab in enumerate(rng.sample(labels, size))}
        return labels, lambda a, b: pt[a][0] < pt[b][0] and pt[a][1] < pt[b][1]
    if kind == "interval":
        # An interval order: a < b when a's interval ends before b's starts.
        # Uneven lengths spread the incomparability counts over a range.
        iv = {}
        for lab in labels:
            lo = rng.randint(0, 4 * size)
            iv[lab] = (lo, lo + rng.choice((0, 0, 1, 2, rng.randint(0, size))))
        return labels, lambda a, b: iv[a][1] < iv[b][0]
    V, A, B = separated_pair(rng, size, rng.randint(2, 12))
    pp = build_pair_poset(A, B, V)
    return rng.sample(A, size), pp.less_in_a


_ORDER_KINDS = ("antichain", "semiorder", "dominance", "interval", "pair")


@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(_ORDER_KINDS),
       size=st.integers(1, 60), n=st.integers(1, 3), k=st.integers(1, 3))
@settings(max_examples=300, deadline=None)
# Inputs where an element sits exactly on the keep threshold slack / (4k).
@example(seed=207, kind="dominance", size=33, n=3, k=3)
@example(seed=683, kind="interval", size=26, n=1, k=2)
@example(seed=2639, kind="pair", size=36, n=2, k=2)
def test_interval_chains_match_reference(seed, kind, size, n, k):
    rng = random.Random(seed)
    elements, less = _random_order(rng, kind, max(size, 2) if kind == "pair" else size)
    try:
        expected = _reference_interval_chains(elements, less, n, k)
    except HypothesisViolatedError as exc:
        with pytest.raises(HypothesisViolatedError) as got:
            interval_chains(elements, succ_masks(elements, less), n, k)
        assert got.value.args == exc.args
        return
    # Mask bits of elements left out must not matter.
    succ = succ_masks(elements, less)
    extra = 1 << (3 * size + 1)
    assert interval_chains(elements, {x: s | extra for x, s in succ.items()}, n, k).blocks == expected


@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(_ORDER_KINDS), size=st.integers(0, 30))
@settings(max_examples=300, deadline=None)
def test_longest_chain_matches_reference(seed, kind, size):
    rng = random.Random(seed)
    if kind == "pair" and size < 2:
        size = 2
    elements, less = _random_order(rng, kind, size)
    assert longest_chain(succ_masks(elements, less)) == _reference_longest_chain(sorted(elements), less)


@given(cells=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), unique=True),
       mode=st.sampled_from(list(FamilyMode)))
@settings(max_examples=200, deadline=None)
def test_block_grid_chain_matches_reference(cells, mode):
    # The split's eligible block pairs come in (row, column) order.
    cells = sorted(cells)
    if mode is FamilyMode.CROSSING:
        dom = lambda p, q: p[0] < q[0] and p[1] < q[1]
    else:
        dom = lambda p, q: p[0] < q[0] and p[1] > q[1]
    assert [cells[e] for e in _grid_chain(cells, mode)] == _reference_longest_chain(cells, dom)


def _total_order(side, succ):
    """``side`` sorted upwards in the total order that ``succ`` masks give
    it, by popcounts: the reference the rankings' chains are held to."""
    side_mask = vertex_mask(side)
    return sorted(side, key=lambda x: -(succ[x] & side_mask).bit_count())


@given(
    seed=st.integers(0, 2**32 - 1),
    na=st.integers(1, 64),
    kind=st.sampled_from(["point", "segment", "cloud", "arc"]),
    nb=st.integers(3, 40),
    top=st.sampled_from([INT64_COORD_LIMIT, INT64_COORD_LIMIT + 1, COORD_LIMIT]),
    sign=st.sampled_from([1, -1]),
)
@settings(max_examples=200, deadline=None)
def test_ranked_chain_matches_longest_chain(seed, na, kind, nb, top, sign):
    # The chain read off a side's rankings is the one longest_chain finds
    # in its tables, listed upwards, on both sides of the int64 bound.
    nb = {"point": 1, "segment": 2}.get(kind, nb)
    coords, A, B = _side_and_hull(seed, na, nb, kind, top)
    pts = [(sign * x, sign * y) for x, y in coords]
    assume(general_position_check(pts) is None)
    pp = build_pair_poset(A, B, PointSet(pts))
    for order, place, succ in ((pp.order_a, pp.place_a, pp.succ_a), (pp.order_b, pp.place_b, pp.succ_b)):
        chain = poset.ranked_chain(order, place)
        assert chain == _total_order(longest_chain(succ), succ)
        if order is pp.order_a and pp.iota_a == 0:
            assert chain == list(order)


@given(
    seed=st.integers(0, 2**32 - 1),
    na=st.integers(1, 40),
    nb=st.integers(1, 28),
    scale=st.sampled_from([1, 2**25, 2**26, 2**27 + 1]),
)
@settings(max_examples=300, deadline=None)
def test_tied_sides_raise_or_give_up(seed, na, nb, scale):
    # Sides drawn from small grids, scaled within the int64 bound or
    # beyond it, hold many exact ties. A side left unranked by a tie goes
    # to the scalar loop, which raises on it without a cap and, at any
    # cap, raises or gives up, never returning tables; a side ranked
    # exactly has no degenerate pair, and the scalar loop gives the tables
    # its rankings pack.
    rng = random.Random(seed)
    left = rng.sample([(x, y) for x in range(4) for y in range(10)], na)
    # The corner (7, 9) puts the largest coordinate at 9 * scale.
    right = [(7, 9)] + rng.sample([(x, y) for x in range(5, 8) for y in range(9)], nb - 1)
    V = PointSet([(scale * x, scale * y) for x, y in left + right], check_general_position=False)
    assert V.within_int64_bound == (scale <= 2**25)
    A, B = tuple(range(na)), tuple(range(na, na + nb))
    hull_a = hull_coords(V.coords[i] for i in A)
    hull_b = hull_coords(V.coords[i] for i in B)
    for side, hull in ((A, hull_b), (B, hull_a)):
        ranks = poset.rank_sides(V, [side], [hull])[0]
        full = _outcome(_compare_side, side, V.coords, hull, _NO_CAP)
        if ranks is None:
            assert full is DegenerateInputError
            for cap in (0, 1, 4, 16):
                assert _outcome(_compare_side, side, V.coords, hull, cap) in (None, DegenerateInputError)
        else:
            assert _by_rankings(side, V, hull, _NO_CAP) == full
