import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossfam.errors import DegenerateInputError, GeneralPositionError
from crossfam.formats import parse_graph_file, render_graph_file
from crossfam.geom import (
    COORD_LIMIT,
    GeometricGraph,
    Orientation,
    Point,
    PointSet,
    convex_hull,
    general_position_check,
    hulls_disjoint,
    line_meets_hull,
    orientation,
    segments_avoiding,
    segments_cross,
    vertex_mask,
)

coord = st.integers(min_value=-10_000, max_value=10_000)
points = st.builds(Point, coord, coord)


def P(*coords):
    return [Point(x, y) for x, y in coords]


def test_orientation_examples():
    assert orientation(Point(0, 0), Point(1, 0), Point(0, 1)) == Orientation.CCW
    assert orientation(Point(0, 0), Point(1, 1), Point(2, 2)) == Orientation.COLLINEAR
    assert orientation(Point(0, 0), Point(0, 1), Point(1, 0)) == Orientation.CW


@given(points, points, points)
@settings(max_examples=100)
def test_orientation_antisymmetry_and_cycle(p, q, r):
    assert orientation(p, q, r) == -orientation(p, r, q)
    assert orientation(p, q, r) == orientation(q, r, p)


def test_segments_cross_examples():
    V = PointSet(P((0, 0), (2, 3), (2, 0), (0, 3)))
    assert segments_cross((0, 1), (2, 3), V)
    V2 = PointSet(P((0, 0), (1, 0), (2, 1), (3, 1)))
    assert not segments_cross((0, 1), (2, 3), V2)
    V3 = PointSet(P((0, 0), (1, 1), (1, -1)))
    assert not segments_cross((0, 1), (0, 2), V3)  # shared endpoint


def test_segments_cross_degenerate():
    V = PointSet(P((0, 0), (2, 0), (1, 0), (1, 5)), check_general_position=False)
    with pytest.raises(DegenerateInputError):
        segments_cross((0, 1), (2, 3), V)


def test_segments_avoiding_examples():
    V = PointSet(P((0, 0), (1, 0), (0, 3), (1, 4)))
    assert segments_avoiding((0, 1), (2, 3), V)
    V2 = PointSet(P((0, 0), (2, 3), (2, 0), (0, 3)))
    assert not segments_avoiding((0, 1), (2, 3), V2)
    V3 = PointSet(P((0, 0), (2, 0), (3, -1), (3, 1)))
    assert not segments_avoiding((0, 1), (2, 3), V3)


def test_cross_avoid_symmetric_and_exclusive(rng):
    for _ in range(200):
        coords = set()
        while len(coords) < 4:
            coords.add((rng.randint(0, 500), rng.randint(0, 500)))
        pts = P(*sorted(coords))
        if general_position_check(pts) is not None:
            continue
        V = PointSet(pts)
        c = segments_cross((0, 1), (2, 3), V)
        a = segments_avoiding((0, 1), (2, 3), V)
        assert c == segments_cross((2, 3), (0, 1), V)
        assert a == segments_avoiding((2, 3), (0, 1), V)
        assert not (c and a)


def test_convex_hull_examples():
    hull = convex_hull(P((0, 0), (4, 0), (0, 4), (1, 1)))
    assert set(hull) == {Point(0, 0), Point(4, 0), Point(0, 4)}
    assert len(hull) == 3
    assert convex_hull(P((0, 0))) == [Point(0, 0)]
    assert convex_hull(P((0, 0), (2, 1))) == [Point(0, 0), Point(2, 1)]


def test_convex_hull_is_ccw():
    hull = convex_hull(P((0, 0), (4, 0), (4, 4), (0, 4), (2, 2)))
    assert len(hull) == 4
    for i in range(len(hull)):
        a, b, c = hull[i], hull[(i + 1) % 4], hull[(i + 2) % 4]
        assert orientation(a, b, c) == Orientation.CCW


@given(st.lists(points, min_size=1, max_size=40))
@settings(max_examples=60)
def test_convex_hull_contains_all(pts):
    hull = convex_hull(pts)
    if len(hull) < 3:
        return
    for p in pts:
        for i in range(len(hull)):
            assert orientation(hull[i], hull[(i + 1) % len(hull)], p) != Orientation.CW


def test_hulls_disjoint_examples():
    assert hulls_disjoint(P((0, 0), (1, 0)), P((0, 5), (1, 5)))
    assert not hulls_disjoint(P((0, 0), (4, 4)), P((0, 4), (4, 0)))
    assert not hulls_disjoint(P((0, 0)), P((0, 0)))


def test_hulls_disjoint_nested():
    outer = P((0, 0), (10, 0), (10, 10), (0, 10))
    inner = P((4, 4), (5, 6), (6, 4))
    assert not hulls_disjoint(outer, inner)
    assert not hulls_disjoint(inner, outer)


def test_line_meets_hull_examples():
    assert not line_meets_hull(Point(0, 0), Point(1, 0), P((0, 1), (1, 2)))
    assert line_meets_hull(Point(0, 0), Point(1, 0), P((2, 1), (2, -1)))
    assert line_meets_hull(Point(0, 0), Point(1, 1), P((2, 2)))


def test_separated_implies_some_line_misses(rng):
    # When a separated pair admits a comparable pair at all, some line
    # through two points of A misses the hull of B entirely.
    from conftest import separated_pair

    for trial in range(25):
        V, A, B = separated_pair(rng, rng.randint(2, 8), rng.randint(2, 8))
        pb = [V[i] for i in B]
        misses = [
            (x, y)
            for i, x in enumerate(A)
            for y in A[i + 1 :]
            if not line_meets_hull(V[x], V[y], pb)
        ]
        comparable_exists = bool(misses)
        assert hulls_disjoint([V[i] for i in A], pb)
        if comparable_exists:
            assert len(misses) >= 1


def test_general_position_check_examples():
    assert general_position_check(P((0, 0), (1, 0), (0, 1))) is None
    assert general_position_check(P((0, 0), (1, 1), (2, 2), (0, 1))) == (0, 1, 2)
    assert general_position_check(P((0, 0), (0, 0))) == (0, 1)


def reference_general_position_check(coords):
    # The exact scan over every anchor, as the check ran before its float
    # filter; kept here as the reference the filtered check must match.
    seen = {}
    for i, c in enumerate(coords):
        if c in seen:
            return (seen[c], i)
        seen[c] = i
    n = len(coords)
    for i in range(n - 2):
        xi, yi = coords[i]
        dirs = {}
        for j in range(i + 1, n):
            dx = coords[j][0] - xi
            dy = coords[j][1] - yi
            g = gcd(dx, dy)
            dx //= g
            dy //= g
            if dx < 0 or (dx == 0 and dy < 0):
                dx, dy = -dx, -dy
            if (dx, dy) in dirs:
                return (i, dirs[(dx, dy)], j)
            dirs[(dx, dy)] = j
    return None


L = COORD_LIMIT


@st.composite
def grid_sets(draw):
    # 0-40 points on a grid of span 2-50, so duplicates and vertical,
    # horizontal and slanted collinear triples are common; the grid is
    # scaled and shifted so that some sets sit at the coordinate limit,
    # which keeps every collinearity.
    span = draw(st.integers(2, 50))
    cells = draw(st.lists(st.tuples(st.integers(0, span - 1), st.integers(0, span - 1)), max_size=40))
    scale = draw(st.sampled_from([1, 3, 1 << 20, 2 * L // (span - 1)]))
    sx, sy = draw(st.sampled_from([(1, 1), (-1, 1), (1, -1), (-1, -1)]))
    return [(sx * (L - scale * x), sy * (L - scale * y)) for x, y in cells]


@given(grid_sets())
@settings(max_examples=300, deadline=None)
def test_general_position_check_matches_reference(coords):
    expect = reference_general_position_check(coords)
    assert general_position_check(coords) == expect
    assert general_position_check(P(*coords)) == expect


@given(st.lists(st.tuples(st.sampled_from([-L, -L + 1, -1, 0, 1, L - 1, L]),
                          st.sampled_from([-L, -L + 1, -1, 0, 1, L - 1, L])), max_size=12))
@settings(max_examples=200, deadline=None)
def test_general_position_check_pinned_at_the_limit(coords):
    assert general_position_check(coords) == reference_general_position_check(coords)


@given(grid_sets(), st.sampled_from([L + 1, 2**40, 2**53 + 1, 2**70]))
@settings(max_examples=100, deadline=None)
def test_general_position_check_beyond_the_limit(coords, big):
    # Raw tuples outside COORD_LIMIT take the exact scan for every anchor.
    coords = [(x * big + 1, y * big - 1) for x, y in coords] + [(big, big)]
    assert general_position_check(coords) == reference_general_position_check(coords)


@pytest.mark.parametrize("coords, expect", [
    # Vertical lines with the anchor between, above or below the others.
    ([(5, 0), (5, 3), (5, -2)], (0, 1, 2)),
    ([(5, 3), (1, 1), (5, -2), (5, 0)], (0, 2, 3)),
    # Horizontal through the anchor (quotients 0.0 and -0.0).
    ([(0, 7), (4, 7), (-3, 7)], (0, 1, 2)),
    ([(0, 7), (-4, 7), (1, 0), (-3, 7)], (0, 1, 3)),
    # The first anchor has a float tie that is not collinear; the witness
    # comes from a later anchor.
    ([(0, 0), (L, L - 1), (L - 1, L - 2), (5, 1), (6, 2), (7, 3)], (3, 4, 5)),
    ([(2, 9), (0, 0), (1, 1), (2, 2)], (1, 2, 3)),
    ([(0, 0), (0, 1), (1, 0), (0, 0)], (0, 3)),
])
def test_general_position_check_witness_order(coords, expect):
    assert reference_general_position_check(coords) == expect
    assert general_position_check(coords) == expect


def test_general_position_check_float_tie_is_not_collinear():
    # (L-1)/L and (L-2)/(L-1) differ by about 2**-62, so both slopes from
    # the origin round to the same float64; the exact scan clears the tie.
    coords = [(0, 0), (L, L - 1), (L - 1, L - 2)]
    assert (L - 1) / L == (L - 2) / (L - 1)
    assert general_position_check(coords) is None
    assert general_position_check(P(*coords)) is None
    assert general_position_check([(-x, -y) for x, y in coords]) is None


def test_pointset_certifies_general_position():
    with pytest.raises(GeneralPositionError):
        PointSet(P((0, 0), (1, 1), (2, 2)))
    V = PointSet(P((0, 0), (1, 1), (2, 2)), check_general_position=False)
    assert len(V) == 3


def test_point_validation():
    with pytest.raises(TypeError):
        Point(0.5, 1)  # type: ignore[arg-type]
    with pytest.raises(ValueError):
        Point(2**31, 0)


def test_geometric_graph_basics():
    V = PointSet(P((0, 0), (1, 0), (0, 1), (3, 2)))
    G = GeometricGraph.complete(V)
    assert G.edge_count == 6
    assert G.has_edge(0, 3) and not G.has_edge(2, 2)
    H = GeometricGraph.from_edges(V, [(1, 0), (2, 3)])
    assert H.edge_count == 2
    assert H.has_edge(0, 1) and not H.has_edge(0, 2)
    assert H.edges_sorted() == [(0, 1), (2, 3)]
    with pytest.raises(ValueError):
        GeometricGraph.from_edges(V, [(0, 0)])
    with pytest.raises(ValueError):
        GeometricGraph.from_edges(V, [(0, 9)])


@pytest.mark.parametrize("n", [2, 5, 63, 64, 65, 130])
@pytest.mark.parametrize("density", [1, 0.5, 0])
def test_graph_queries_match_reference(n, density):
    # Sizes on both sides of a machine word, so neighbour masks span one or
    # more digits; the reference is a plain set of sorted pairs.
    rng = random.Random(1000 * n + int(10 * density))
    V = PointSet(P(*((i, i * i) for i in range(n))))  # on a parabola
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    ref = [p for p in pairs if rng.random() < density]
    ref_set = set(ref)
    G = GeometricGraph.from_edges(V, ref)
    assert G.is_complete == (len(ref) == len(pairs))
    if density == 1:
        assert G == GeometricGraph.complete(V)
        text = render_graph_file(G)
        assert text.endswith("edges complete\n")
        assert parse_graph_file(text) == G
    assert G.edge_count == len(ref)
    assert list(G.edges_iter()) == ref
    for a in range(n):
        for b in range(n):
            assert G.has_edge(a, b) == ((min(a, b), max(a, b)) in ref_set)
    for a, b in ((-1, 0), (0, -1), (-1, -1), (n, 0), (0, n), (n, n), (-n, 1)):
        assert G.has_edge(a, b) is False
    for _ in range(20):
        order = rng.sample(range(n), n)
        cut = rng.randint(0, n)
        A = order[:cut]
        B = order[cut : cut + rng.randint(0, n - cut)]
        expect = [(min(u, v), max(u, v)) for u in A for v in B if (min(u, v), max(u, v)) in ref_set]
        assert G.count_edges(A, vertex_mask(B)) == len(expect)
        assert list(G.edges_between(A, B)) == expect
