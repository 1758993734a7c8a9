import random
from math import gcd
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import chord_family
from crossfam import geom
from crossfam.audit import hulls_disjoint
from crossfam.errors import DegenerateInputError, GeneralPositionError
from crossfam.formats import parse_graph_file, render_graph_file
from crossfam.geom import (
    COORD_LIMIT,
    INT64_COORD_LIMIT,
    GeometricGraph,
    Orientation,
    Point,
    PointSet,
    _orient_coords,
    convex_hull,
    first_unrelated_pair,
    first_unrelated_pair_int64,
    general_position_check,
    hull_coords,
    hull_coords_disjoint,
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


def _old_orientations(s1, s2, V):
    # The four side tests as the relations once computed them, one tuple
    # per pair; None for a shared endpoint.
    a, b = s1
    c, d = s2
    if a == b or c == d:
        raise ValueError("degenerate segment")
    if a in (c, d) or b in (c, d):
        return None
    (ax, ay), (bx, by), (cx, cy), (dx, dy) = V.coords[a], V.coords[b], V.coords[c], V.coords[d]
    ux, uy = bx - ax, by - ay
    vx, vy = dx - cx, dy - cy
    ex, ey = cx - ax, cy - ay
    w = ux * vy - uy * vx
    o1 = ux * ey - uy * ex
    o3 = ex * vy - ey * vx
    o2 = o1 + w
    o4 = o3 - w
    if not (o1 and o2 and o3 and o4):
        raise DegenerateInputError(f"collinear endpoints among segments {s1} and {s2}")
    return o1 > 0, o2 > 0, o3 > 0, o4 > 0


def _old_relation(crossing):
    def rel(s1, s2, V):
        o = _old_orientations(s1, s2, V)
        if crossing:
            return o is not None and o[0] != o[1] and o[2] != o[3]
        return o is not None and o[0] == o[1] and o[2] == o[3]

    return rel


def _verdict(rel, *args):
    try:
        return rel(*args)
    except (ValueError, DegenerateInputError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("top", [3, 1_000, COORD_LIMIT])
def test_segment_relations_match_side_tests(top):
    # Shared endpoints, degenerate segments and collinear endpoints included:
    # on a 4 x 4 grid, collinear triples are common. Each relation gives the
    # value, or raises the exception type and message, of the four side
    # tests it replaced.
    rng = random.Random(top)
    for _ in range(3000):
        pts = [(rng.randint(-top, top), rng.randint(-top, top)) for _ in range(4)]
        V = PointSet(P(*pts), check_general_position=False)
        s1 = (rng.randrange(4), rng.randrange(4))
        s2 = (rng.randrange(4), rng.randrange(4))
        for new, old in ((segments_cross, _old_relation(True)), (segments_avoiding, _old_relation(False))):
            assert _verdict(new, s1, s2, V) == _verdict(old, s1, s2, V)


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


# Reference separation test, O(h_a * h_b): closed containment of each
# vertex in the other hull, then every pair of edges. ``hull_coords_disjoint``
# must agree with it.
def _in_box(p, q, r) -> bool:
    # Assumes p, q, r collinear; is r within the closed box of pq?
    return min(p[0], q[0]) <= r[0] <= max(p[0], q[0]) and min(p[1], q[1]) <= r[1] <= max(p[1], q[1])


def _orient3(p, q, r) -> int:
    return _orient_coords(p[0], p[1], q[0], q[1], r[0], r[1])


def _closed_segments_meet(p, q, r, s) -> bool:
    o1 = _orient3(p, q, r)
    o2 = _orient3(p, q, s)
    o3 = _orient3(r, s, p)
    o4 = _orient3(r, s, q)
    if o1 != o2 and o3 != o4:
        return True
    return (
        (o1 == 0 and _in_box(p, q, r))
        or (o2 == 0 and _in_box(p, q, s))
        or (o3 == 0 and _in_box(r, s, p))
        or (o4 == 0 and _in_box(r, s, q))
    )


def _in_hull(p, hull) -> bool:
    # Closed containment; hull as returned by hull_coords.
    h = len(hull)
    if h == 1:
        return p == hull[0]
    if h == 2:
        return _orient3(hull[0], hull[1], p) == 0 and _in_box(hull[0], hull[1], p)
    return all(_orient3(hull[i - 1], hull[i], p) >= 0 for i in range(h))


def _hull_edges(hull):
    h = len(hull)
    if h < 3:
        return [tuple(hull)] if h == 2 else []
    return [(hull[i - 1], hull[i]) for i in range(h)]


def reference_hull_coords_disjoint(ha, hb) -> bool:
    if any(_in_hull(p, hb) for p in ha) or any(_in_hull(q, ha) for q in hb):
        return False
    return not any(
        _closed_segments_meet(p, q, r, s) for p, q in _hull_edges(ha) for r, s in _hull_edges(hb)
    )


@st.composite
def hull_pairs(draw):
    # Two sets of 1-10 points, each in its own box of span 2-5 near the
    # coordinate limits or zero, or of span COORD_LIMIT in one quadrant. A
    # set is a cloud, or lattice points of one segment (a point, a segment
    # or a collinear set). The second set is drawn on its own, shares a
    # point with the first (touching or overlapping hulls) or is the first
    # shrunk halfway towards one of its points (often nested).
    span = draw(st.sampled_from([2, 3, 4, 5, COORD_LIMIT]))
    if span == COORD_LIMIT:
        corner = st.sampled_from([-COORD_LIMIT, 0])
    else:
        base = draw(st.sampled_from([-COORD_LIMIT, 0, COORD_LIMIT - 3 * span]))
        corner = st.integers(base, base + 2 * span)

    def one_set():
        x0, y0 = draw(corner), draw(corner)
        c = st.tuples(st.integers(x0, x0 + span), st.integers(y0, y0 + span))
        if draw(st.booleans()):
            return draw(st.lists(c, min_size=1, max_size=10))
        (px, py), (qx, qy) = draw(c), draw(c)
        g = gcd(qx - px, qy - py) or 1
        ts = draw(st.lists(st.integers(0, g), min_size=1, max_size=10))
        return [(px + t * (qx - px) // g, py + t * (qy - py) // g) for t in ts]

    a = one_set()
    how = draw(st.sampled_from(["apart", "share", "halve"]))
    if how == "apart":
        b = one_set()
    elif how == "share":
        b = one_set() + [draw(st.sampled_from(a))]
    else:
        cx, cy = draw(st.sampled_from(a))
        b = [((x + cx) // 2, (y + cy) // 2) for x, y in a]
    return a, b


@given(hull_pairs())
@example(([(0, 0), (4, 0), (4, 4), (0, 4)], [(1, 1), (2, 3), (3, 1)]))  # nested
@example(([(0, 0), (2, 0), (1, 2)], [(2, 0), (4, 1), (3, 3)]))  # touching at a vertex
@example(([(0, 0), (2, 0), (1, 2)], [(1, 0), (3, -2), (0, -2)]))  # vertex on an edge
@example(([(0, 0), (2, 2)], [(1, 1), (5, 5)]))  # overlapping collinear segments
@example(([(0, 0), (2, 2)], [(3, 3), (5, 5)]))  # apart on one line
@example(([(0, 0), (2, 2)], [(1, 1)]))  # point inside a segment
@example(([(0, 0), (2, 2)], [(1, 2)]))  # point beside a segment
@example(([(3, 3)], [(3, 3)]))
@example(([(3, 3)], [(3, 4)]))
@settings(max_examples=1000, deadline=None)
def test_hull_coords_disjoint_matches_reference(pair):
    ha, hb = (hull_coords(s) for s in pair)
    expect = reference_hull_coords_disjoint(ha, hb)
    assert hull_coords_disjoint(ha, hb) == expect
    assert hull_coords_disjoint(hb, ha) == expect


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
    for i in range(len(coords) - 2):
        witness = _reference_anchor_triple(coords, i)
        if witness is not None:
            return witness
    return None


def _reference_anchor_triple(coords, i):
    # The first collinear triple (i, j, k) of distinct points with i < j < k,
    # k least, or None.
    xi, yi = coords[i]
    dirs = {}
    for j in range(i + 1, len(coords)):
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
    # Reversed and mirrored in y = x, where L/(L-1) and (L-1)/(L-2) tie
    # too, the tie is in the row of the origin, index 2; a point before the
    # origin in (x, y) order moves that row off the first row as well.
    mirrored = [(y, x) for x, y in reversed(coords)]
    assert L / (L - 1) == (L - 1) / (L - 2)
    for pts, tied in ((mirrored, [0, 1, 2]), ([(-1, L)] + mirrored, [1, 2, 3])):
        assert geom._tied_anchors(np.array(pts, dtype=np.float64)) == tied
        assert general_position_check(pts) is None
        assert general_position_check(P(*pts)) is None
        assert general_position_check(PointSet(pts, check_general_position=False)) is None


def reference_tied_anchors(xy):
    # ``geom._tied_anchors`` as it was before its float32 sort: each slab's
    # float64 quotients are sorted and compared as they are.
    n = len(xy)
    order = np.lexsort((xy[:, 1], xy[:, 0]))
    xs, ys = xy[order, 0], xy[order, 1]
    tied = set()
    with np.errstate(divide="ignore", invalid="ignore"):
        flagged = []
        i0 = 0
        while i0 < n - 2:
            i1 = min(n - 2, i0 + max(1, geom._SLOPE_SLAB // (n - i0 - 1)))
            q = ys[None, i0 + 1 :] - ys[i0:i1, None]
            q /= xs[None, i0 + 1 :] - xs[i0:i1, None]
            q.sort(axis=1)
            flagged.extend((i0 + np.flatnonzero((q[:, 1:] == q[:, :-1]).any(axis=1))).tolist())
            i0 = i1
        for s in flagged:
            q = (ys[s + 1 :] - ys[s]) / (xs[s + 1 :] - xs[s])
            sq = np.sort(q)
            group = np.isin(q, sq[1:][sq[1:] == sq[:-1]])
            if group.any():
                tied.add(int(order[s]))
                tied.update(order[s + 1 :][group].tolist())
    return sorted(tied)


def test_tied_anchors_recheck_a_float32_tie(monkeypatch):
    # From (0, 0) the slopes 2**-26 and 1/(2**26 + 1) differ in float64 but
    # round to one float32. The float32 sort flags the row; its re-check
    # picks both slopes by their float32 value and finds no float64 tie
    # among them. The float64 sort flags nothing. The points are in general
    # position.
    coords = [(0, 0), (2**26, 1), (2**26 + 1, 1)]
    slopes = np.array([1 / 2**26, 1 / (2**26 + 1)])
    assert slopes[0] != slopes[1]
    f = float(slopes.astype(np.float32)[0])
    assert slopes.astype(np.float32).tolist() == [f, f]
    calls = []
    isin = np.isin
    monkeypatch.setattr(np, "isin", lambda q, t: calls.append((q.dtype, q.tolist(), t.tolist())) or isin(q, t))
    xy = np.array(coords, dtype=np.float64)
    assert geom._tied_anchors(xy) == []
    assert calls == [(np.float32, [f, f], [f]), (np.float64, slopes.tolist(), [])]
    assert reference_tied_anchors(xy) == [] and len(calls) == 2
    assert general_position_check(coords) is None
    # With (2**27, 2) on the line through (0, 0) and (2**26, 1), all three
    # slopes tie in float32 and the re-check keeps the two that tie in
    # float64.
    xy = np.array(coords + [(2**27, 2)], dtype=np.float64)
    assert geom._tied_anchors(xy) == reference_tied_anchors(xy) == [0, 1, 3]


@pytest.mark.parametrize("n", [3, 4, 90, 300])
@pytest.mark.parametrize("slab", [1, 50, geom._SLOPE_SLAB])
def test_tied_anchors_match_per_anchor_reference(n, slab, monkeypatch):
    # Grids of span 20 tie often (vertical, horizontal and slanted lines,
    # duplicates); span 10**6 rarely. Slabs of 1 and 50 entries split the
    # rows at every anchor and every few anchors. The filter's anchors,
    # taken over the distinct points, are those of its float64-only
    # reference and hold every anchor at which the exact per-anchor scan
    # finds a triple.
    monkeypatch.setattr(geom, "_SLOPE_SLAB", slab)
    rng = random.Random(n * 1000 + slab)
    for span, scale in ((20, 1), (10**6, 1), (20, 2 * L // 19)):
        coords = [(L - scale * rng.randrange(span), scale * rng.randrange(span) - L) for _ in range(n)]
        assert general_position_check(coords) == reference_general_position_check(coords)
        distinct = list(dict.fromkeys(coords))
        xy = np.array(distinct, dtype=np.float64).reshape(-1, 2)
        tied = geom._tied_anchors(xy)
        assert tied == sorted(set(tied)) == reference_tied_anchors(xy)
        starts = {i for i in range(len(distinct) - 2) if _reference_anchor_triple(distinct, i) is not None}
        assert starts <= set(tied)
        if span == 20 and n >= 90:
            assert starts


@pytest.mark.parametrize("top, within", [
    (0, True), (INT64_COORD_LIMIT, True), (INT64_COORD_LIMIT + 1, False), (COORD_LIMIT, False),
])
def test_pointset_int64_array_and_bound(top, within):
    coords = [(1, 2), (-top, 5), (7, top)]
    V = PointSet(coords, check_general_position=False)
    assert V.xy.dtype == np.int64
    assert V.xy.tolist() == [list(c) for c in coords]
    assert V.within_int64_bound is within
    with pytest.raises(ValueError):
        V.xy[0, 0] = 0
    empty = PointSet([])
    assert empty.xy.shape == (0, 2)
    assert empty.within_int64_bound


def test_pointset_certifies_general_position():
    with pytest.raises(GeneralPositionError):
        PointSet(P((0, 0), (1, 1), (2, 2)))
    V = PointSet(P((0, 0), (1, 1), (2, 2)), check_general_position=False)
    assert len(V) == 3


def test_pointset_builds_points_on_demand():
    coords = [(3, -1), (0, 7), (-2, 2), (5, 4)]
    V = PointSet(coords)
    pts = P(*coords)
    assert list(V) == pts
    assert [V[i] for i in range(-len(V), len(V))] == pts + pts
    for sl in (slice(None), slice(1, 3), slice(None, None, -2), slice(5, 9)):
        assert V[sl] == tuple(pts[sl])
    with pytest.raises(IndexError):
        V[4]
    assert V.coords == tuple(coords)
    W = PointSet(pts)
    assert V == W and hash(V) == hash(W)
    assert PointSet(np.array(coords)) == V
    assert V != PointSet(coords[::-1]) and V != coords
    assert Point(0, 7) in V and V.index(Point(-2, 2)) == 2


@pytest.mark.parametrize("big", [2**31, 2**40, 2**63, 2**70])
def test_pointset_rejects_coordinates_beyond_the_limit(big):
    for pts in ([(big, 0)], [(0, 0), (1, -big)], [(0, 1), (big, big)]):
        for check in (True, False):
            with pytest.raises(ValueError, match="coordinate magnitude exceeds"):
                PointSet(pts, check_general_position=check)
    V = PointSet([(COORD_LIMIT, -COORD_LIMIT), (-COORD_LIMIT, COORD_LIMIT)])
    assert not V.within_int64_bound


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
    assert list(H.edges_iter()) == [(0, 1), (2, 3)]
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
        assert G.block_edge_counts([A], [B]).tolist() == [[len(expect)]]
        assert list(G.edges_between(A, B)) == expect


def reference_block_edge_counts(G, row_blocks, col_blocks):
    # One mask intersection per row vertex and column block, with no
    # complete-graph shortcut.
    adj = G._adj
    col_masks = [vertex_mask(B) for B in col_blocks]
    return [[sum((adj[u] & mask).bit_count() for u in A) for mask in col_masks] for A in row_blocks]


def _parabola(n):
    # No three points of a parabola are collinear.
    return PointSet([Point(i, i * i) for i in range(n)], check_general_position=False)


def _all_pairs(n):
    return [(a, b) for a in range(n) for b in range(a + 1, n)]


@st.composite
def block_grids(draw):
    """(n, edges, row blocks, column blocks). The graph is empty, complete,
    complete but for one edge, or random. Column blocks are the row blocks
    themselves (the pair scan's clusters), blocks of the other vertices
    (the split's grid), or drawn independently, so they may share vertices
    with the rows. Blocks are runs of a vertex order cut anywhere, so empty
    and one-element blocks occur, or all one-element blocks."""
    n = draw(st.sampled_from([0, 1, 2, 7, 8, 9, 63, 64, 65, 129]))
    pairs = _all_pairs(n)
    kind = draw(st.sampled_from(["empty", "complete", "near-complete", "random"]))
    if kind == "empty":
        edges = []
    elif kind == "complete":
        edges = pairs
    elif kind == "near-complete":
        gone = draw(st.integers(0, len(pairs) - 1)) if pairs else None
        edges = [e for k, e in enumerate(pairs) if k != gone]
    else:
        rnd = draw(st.randoms(use_true_random=False))
        p = draw(st.floats(0, 1))
        edges = [e for e in pairs if rnd.random() < p]

    def blocks(order):
        if draw(st.booleans()):
            return [[v] for v in order[: draw(st.integers(0, len(order)))]]
        cuts = sorted(draw(st.lists(st.integers(0, len(order)), max_size=8)))
        return [order[a:b] for a, b in zip(cuts, cuts[1:])]

    order = draw(st.permutations(range(n)))
    layout = draw(st.sampled_from(["same", "split", "independent"]))
    if layout == "same":
        rows = cols = blocks(order)
    elif layout == "split":
        half = draw(st.integers(0, n))
        rows, cols = blocks(order[:half]), blocks(order[half:])
    else:
        rows, cols = blocks(order), blocks(draw(st.permutations(range(n))))
    return n, edges, rows, cols


@given(block_grids())
@example((0, [], [], []))
@example((0, [], [[]], [[], []]))
@example((1, [], [[0]], [[0]]))
@example((8, _all_pairs(8)[1:], [[0], [7]], [[7], [0], [0, 7]]))
@example((9, _all_pairs(9)[:-1], [[0, 8], [1, 2, 3]], [[8], [4, 5, 6, 7, 0]]))
@example((65, _all_pairs(65), [[0, 64], [5]], [[64, 1], [0, 5], []]))
@example((64, [(0, 63)], [[0], [63]], [[63], [0]]))
@settings(max_examples=400, deadline=None)
def test_block_edge_counts_matches_reference(grid):
    n, edges, rows, cols = grid
    G = GeometricGraph.from_edges(_parabola(n), edges)
    got = G.block_edge_counts(rows, cols)
    assert got.dtype == np.int64 and got.shape == (len(rows), len(cols))
    assert got.tolist() == reference_block_edge_counts(G, rows, cols)


def test_block_edge_counts_spans_several_slabs():
    # Large enough that the rows go through several slabs: one row block
    # whose bits alone fill more than two, and eight small blocks that take
    # more than one, against columns that cover every vertex.
    n = 8192
    rng = random.Random(8192)
    edges = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(3 * n)}
    G = GeometricGraph.from_edges(_parabola(n), sorted(edges))
    order = rng.sample(range(n), n)
    rows = [order[:1200]] + [order[k : k + 150] for k in range(1200, 2400, 150)]
    cols = [order[: n // 3], order[n // 3 :]]
    assert 1200 * n > 2 * geom._SLAB_BYTES and 8 * 150 * n > geom._SLAB_BYTES
    assert G.block_edge_counts(rows, cols).tolist() == reference_block_edge_counts(G, rows, cols)


def _family_outcome(check, *args):
    """The pair a family check returns, or the class and message it raises."""
    try:
        return check(*args)
    except DegenerateInputError as exc:
        return type(exc), str(exc)


@given(
    seed=st.integers(0, 2**32 - 1),
    f=st.integers(1, 30),
    crossing=st.booleans(),
    top=st.sampled_from([INT64_COORD_LIMIT, INT64_COORD_LIMIT + 1, COORD_LIMIT]),
    sign=st.sampled_from([1, -1]),
    swaps=st.sampled_from([0, 0, 1, 3]),
    degenerate=st.booleans(),
    slab=st.sampled_from([1, geom._FAMILY_SLAB]),
)
@settings(max_examples=300, deadline=None)
def test_family_kernel_matches_scalar_loop(seed, f, crossing, top, sign, swaps, degenerate, slab):
    # Families of 1 to 30 chords.
    # The largest coordinate sits at the int64 bound, one beyond it (where
    # only the scalar loop may run) or at COORD_LIMIT. Swapped chords fail
    # the relation and a moved endpoint makes a degenerate pair, in a random
    # order, so the degenerate pair comes before the first failing pair or
    # after it. A slab of 1 entry puts every row in a slab of its own.
    V, segs = chord_family(random.Random(seed), f, top, crossing, swaps, degenerate)
    if sign < 0:
        V = PointSet([(-x, -y) for x, y in V.coords], check_general_position=False)
    assert max(abs(c) for xy in V.coords for c in xy) == top
    assert V.within_int64_bound == (top <= INT64_COORD_LIMIT)
    expect = _family_outcome(first_unrelated_pair, segs, V, crossing)
    if not (swaps or degenerate):
        assert expect is None
    if V.within_int64_bound:
        with mock.patch.object(geom, "_FAMILY_SLAB", slab):
            assert _family_outcome(first_unrelated_pair_int64, segs, V, crossing) == expect


@pytest.mark.parametrize("crossing", [True, False])
def test_family_kernel_degenerate_pair_before_and_after_failing_pair(crossing):
    # Two swapped chords fail the relation; a chord with an endpoint on
    # another chord's midpoint makes a degenerate pair. With the degenerate
    # pair first the scalar loop raises; with the failing pair first it
    # returns that pair. The kernel meets the zero determinant in its slab
    # and must give the same outcome, whichever comes first.
    f = 20
    V0, segs = chord_family(random.Random(5), f, INT64_COORD_LIMIT, crossing)
    segs = sorted(segs)
    (ax, ay), (bx, by) = V0.coords[segs[0][0]], V0.coords[segs[0][1]]
    V = PointSet([*V0.coords, ((ax + bx) // 2, (ay + by) // 2)], check_general_position=False)
    moved = (len(V) - 1, segs[1][1])
    swapped = [(segs[2][0], segs[3][1]), (segs[3][0], segs[2][1])]
    degenerate_first = [segs[0], moved, *swapped, *segs[4:]]
    failing_first = [*swapped, segs[0], moved, *segs[4:]]
    assert _family_outcome(first_unrelated_pair, degenerate_first, V, crossing)[0] is DegenerateInputError
    assert _family_outcome(first_unrelated_pair, failing_first, V, crossing) == (0, 1)
    for slab in (1, geom._FAMILY_SLAB):
        with mock.patch.object(geom, "_FAMILY_SLAB", slab):
            for segs in (degenerate_first, failing_first):
                expect = _family_outcome(first_unrelated_pair, segs, V, crossing)
                assert _family_outcome(first_unrelated_pair_int64, segs, V, crossing) == expect
