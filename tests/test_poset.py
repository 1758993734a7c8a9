import heapq
import itertools
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import separated_pair, succ_masks
from crossfam.crossing import FamilyMode, _grid_successors
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
    assert pp.less_in_a(0, 1)
    assert pp.less_in_b(3, 2)
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
    succ = _grid_successors(cells, 8, mode)
    assert succ == succ_masks(range(len(cells)), lambda e, f: dom(cells[e], cells[f]))
    assert [cells[e] for e in longest_chain(succ)] == _reference_longest_chain(cells, dom)
