import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import separated_pair
from crossfam.errors import DegenerateInputError, HypothesisViolatedError, NotSeparatedError
from crossfam.geom import (
    COORD_LIMIT,
    Point,
    PointSet,
    convex_hull,
    general_position_check,
    hull_coords,
    line_meets_hull,
    segments_cross,
)
from crossfam.poset import (
    Cmp,
    _classify_pair,
    build_pair_poset,
    interval_chains,
    iota_sum_capped,
    less_under,
    longest_chain,
)


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
    assert pp.cmp_ab(0, 1) is Cmp.LESS
    assert pp.cmp_ba(3, 2) is Cmp.LESS
    assert pp.iota_a == 0 and pp.iota_b == 0
    assert pp.is_zero_avoiding


def test_build_pair_poset_total_order():
    # Tiny cluster far below a two-point top set: all lines through the
    # cluster miss the top hull, so the induced order is total.
    V = PointSet(P((0, 0), (50, 7), (100, 1), (20, 900_000), (80, 900_000)))
    pp = build_pair_poset((0, 1, 2), (3, 4), V)
    assert pp.iota_a == 0
    chains = [(x, y) for x, y in itertools.permutations((0, 1, 2), 2) if pp.less_in_a(x, y)]
    assert len(chains) == 3  # a total order on three elements


def test_build_pair_poset_not_separated():
    V = PointSet(P((0, 0), (2, 0), (1, 5), (1, -5)))
    with pytest.raises(NotSeparatedError):
        build_pair_poset((0, 1), (2, 3), V)


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
        for x, y in itertools.combinations(A, 2):
            meets = line_meets_hull(V[x], V[y], pb)
            assert (pp.cmp_ab(x, y) is Cmp.INCOMPARABLE) == meets
        # iota is recomputable
        assert pp.iota_a == sum(
            1 for x, y in itertools.combinations(A, 2) if pp.cmp_ab(x, y) is Cmp.INCOMPARABLE
        )
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
    assert (set(pp.less_a), pp.iota_a) == _reference_side(A, V, B)
    assert (set(pp.less_b), pp.iota_b) == _reference_side(B, V, A)
    hull_a = hull_coords(V.coords[i] for i in A)
    hull_b = hull_coords(V.coords[i] for i in B)
    total = pp.iota_sum
    for cap in (0, total - 1, total, 10**9):
        expected = _reference_iota_capped(A, B, V, cap)
        assert expected == (None if total > max(cap, 0) else total)
        assert iota_sum_capped(A, B, V, cap) == expected
        assert iota_sum_capped(A, B, V, cap, hull_a, hull_b) == expected


def test_build_pair_poset_tangent_vertex_on_line():
    # (5, 0), a vertex of the B hull, lies on the line through (0, 0) and
    # (1, 0); seen from (0, 0) it is a tangent vertex, so the pair's sign is
    # zero and the input must still be rejected as degenerate.
    V = PointSet(P((0, 0), (1, 0), (5, 0), (5, 10), (6, 5)), check_general_position=False)
    with pytest.raises(DegenerateInputError):
        build_pair_poset((0, 1), (2, 3, 4), V)
    with pytest.raises(DegenerateInputError):
        iota_sum_capped((0, 1), (2, 3, 4), V, 10**9)


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
    return list(range(n)), lambda a, b: a < b


def test_interval_chains_total_order():
    items, less = _chain_poset(10)
    chain = interval_chains(items, less, 2, 3)
    assert chain.blocks == ((0, 1), (2, 3), (4, 5))


def test_interval_chains_buffer():
    # 40 elements, window-2 semiorder: x < y iff y - x >= 2; iota = 39 sits
    # just under the bound (40-4)^2/32 = 40.5, and the buffer is positive.
    items = list(range(40))
    less = lambda a, b: b - a >= 2
    chain = interval_chains(items, less, 2, 2)
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
        interval_chains(items, never, 1, 1)
    # size too small
    with pytest.raises(HypothesisViolatedError):
        interval_chains(list(range(6)), lambda a, b: a < b, 2, 3)


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
        chain = interval_chains(labels, less, size, blk)
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


def test_longest_chain_example():
    items = [(1, 1), (2, 3), (3, 2), (4, 4)]
    dom = lambda p, q: p[0] < q[0] and p[1] < q[1]
    assert longest_chain(items, dom) == [(1, 1), (2, 3), (4, 4)]


def test_longest_chain_trivial():
    assert longest_chain([(5, 5)], lambda p, q: False) == [(5, 5)]
    items = [(0, 2), (1, 1), (2, 0)]
    assert longest_chain(items, lambda p, q: p[0] < q[0] and p[1] < q[1]) == [(0, 2)]


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
        got = longest_chain(items, dom)
        assert len(got) == _brute_longest(items, dom)
        assert all(dom(got[i], got[i + 1]) for i in range(len(got) - 1))


@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=8, unique=True))
@settings(max_examples=60)
def test_longest_chain_is_chain(items):
    dom = lambda p, q: p[0] < q[0] and p[1] < q[1]
    got = longest_chain(items, dom)
    assert all(dom(got[i], got[i + 1]) for i in range(len(got) - 1))
    assert len(got) == _brute_longest(items, dom)
