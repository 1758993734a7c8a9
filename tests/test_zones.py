import ast
import math
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import crossfam
from conftest import zone_count_walk
from crossfam import audit, zones
from crossfam.audit import (
    _ZoneAudit,
    audit_zone_lines,
    net_sample_size,
    verify_zone_property,
    zone_point_count,
)
from crossfam.cli import generate_points
from crossfam.clusters import desk_net_size
from crossfam.crossing import RunConfig, find_avoiding_family, find_crossing_family
from crossfam.errors import ZoneVerificationError
from crossfam.geom import GeometricGraph, Point, PointSet
from crossfam.oracle import verify_family
from crossfam.zones import Line, build_zone_lines, lines_through


def test_line_normalization():
    l1 = Line.through(Point(0, 0), Point(2, 2))
    l2 = Line.through(Point(3, 3), Point(-1, -1))
    assert l1 == l2
    l3 = Line(0, -2, 4).normalized()
    assert l3 == Line(0, 1, -2)
    assert Line.through(Point(0, 0), Point(0, 5)) == Line(1, 0, 0)


def test_line_side_matches_sign():
    l = Line.through(Point(0, 0), Point(1, 0))
    assert {l.side_of(Point(0, 1)), l.side_of(Point(0, -1))} == {1, -1}
    assert l.side_of(Point(7, 0)) == 0


def test_net_sample_size_formula():
    assert net_sample_size(Fraction(1, 4), 1000) == 222  # ceil(160 * ln 4)
    assert net_sample_size(Fraction(1), 50) == 2
    assert net_sample_size(Fraction(1, 10), 3) == 3


def test_sample_sector_net():
    V = generate_points("random-disk", 1000, seed=3)
    size = net_sample_size(Fraction(1, 4), len(V))
    q = build_zone_lines(V, size, 7).net
    assert len(q) == 222
    assert q == build_zone_lines(V, size, 7).net
    assert q != build_zone_lines(V, size, 8).net
    small = PointSet([Point(0, 0), Point(1, 0), Point(0, 1)])
    assert build_zone_lines(small, net_sample_size(Fraction(1, 10), 3), 0).net == (0, 1, 2)


def test_build_zone_lines_matches_sample_rule():
    # The net is a seeded sample of min(n, max(2, size)) indices, sorted,
    # and the lines are the ones it determines.
    for n, point_seed in ((2, 1), (3, 2), (9, 3), (40, 4)):
        V = generate_points("random-disk", n, seed=point_seed)
        for seed in (0, 1, 7):
            for size in (0, 1, 2, 3, n, n + 1):
                net = tuple(sorted(random.Random(seed).sample(range(n), min(n, max(2, size)))))
                zls = build_zone_lines(V, size, seed)
                assert zls.net == net, (n, seed, size)
                assert zls.lines == lines_through(V, net)
                assert zls.seed == seed and not zls.verified


def test_lines_through_counts():
    V = PointSet([Point(0, 0), Point(5, 1), Point(1, 7), Point(6, 6)])
    assert len(lines_through(V, (0, 1))) == 1
    assert len(lines_through(V, (0, 1, 2, 3))) == 6


def test_zone_point_count_single_line():
    V = PointSet([Point(1, 1), Point(1, -1), Point(5, 3)])
    L = [Line(0, 1, 0)]
    assert zone_point_count(L, Line(1, 0, 0), V) == 3


def test_zone_point_count_bands():
    V = PointSet([Point(0, 1), Point(0, 11), Point(0, -1)], check_general_position=False)
    L = [Line(0, 1, 0), Line(0, 1, -10)]
    assert zone_point_count(L, Line(0, 1, -5), V) == 1


def test_zone_point_count_member_line():
    V = PointSet([Point(0, 1), Point(3, 2), Point(1, 5)])
    L = [Line(0, 1, 0), Line(1, 0, 0)]
    assert zone_point_count(L, Line(0, 2, 0), V) == 0  # same line, unnormalized


def test_zone_on_line_points_not_counted():
    V = PointSet([Point(0, 0), Point(1, 2), Point(3, 1)])
    L = [Line.through(Point(0, 0), Point(1, 2))]
    # the first two points lie on the arrangement line
    assert zone_point_count(L, Line.through(Point(0, 0), Point(3, 1)).normalized(), V) <= 1


def test_verify_zone_property_trivial_eps():
    V = generate_points("random-disk", 30, seed=1, coord_range=10_000)
    assert verify_zone_property([Line(1, 0, 0)], V, Fraction(1)) is None
    V = generate_points("random-disk", 60, seed=13, coord_range=50_000)
    assert verify_zone_property(build_zone_lines(V, 3, 1).lines, V, Fraction(1)) is None


def test_verify_zone_property_empty_arrangement():
    V = PointSet([Point(0, 0), Point(5, 1), Point(1, 7)])
    witness = verify_zone_property([], V, Fraction(1, 2))
    assert witness is not None
    line, count = witness
    assert count == 3
    assert line == Line.through(V[0], V[1])


def test_verify_zone_property_normalizes_arrangement_lines():
    # y = 0 passes through two points; given as Line(0, 2, 0) or
    # Line(0, -3, 0) it is the same line as the candidate through them, so
    # that candidate is skipped and the witness is the one the normalized
    # arrangement gives.
    V = PointSet([(0, 0), (4, 0), (1, 3), (3, 5), (2, -3)], check_general_position=False)
    normal = [Line(0, 1, 0), Line(1, 0, -2)]
    expect = verify_zone_property(normal, V, Fraction(1, 5))
    assert expect == (Line(3, -1, 0), 2)
    for lines in ([Line(0, 2, 0), Line(1, 0, -2)], [Line(0, -3, 0), Line(-2, 0, 4)]):
        assert verify_zone_property(lines, V, Fraction(1, 5)) == expect
        assert zone_point_count(lines, Line(0, 1, 0), V) == 0


def test_fast_audit_matches_reference(rng):
    checked = 0
    for trial in range(20):
        n = rng.randint(8, 26)
        V = generate_points("random-disk", n, 900 + trial, 2000)
        lines = build_zone_lines(V, rng.randint(2, 5), trial).lines
        aud = _ZoneAudit(V, lines)
        triples = {(l.a, l.b, l.c) for l in lines}
        for i in range(0, n - 1, 2):
            for j in range(i + 1, n, 3):
                ell = Line.through(V[i], V[j])
                if (ell.a, ell.b, ell.c) in triples:
                    continue
                fast = aud.count(V[i], V[j])
                exact = zone_point_count(lines, ell, V)
                walk = zone_count_walk(lines, ell, V)
                assert fast == exact == walk
                checked += 1
    assert checked > 100


def test_zone_monotone_under_more_lines(rng):
    for trial in range(10):
        V = generate_points("random-disk", 20, 700 + trial, 2000)
        lines = list(build_zone_lines(V, 4, trial).lines)
        extra = Line.through(V[10], V[11])
        base = lines[:]
        more = lines + [extra] if extra not in lines else lines
        for i in (0, 3):
            for j in (7, 15):
                ell = Line.through(V[i], V[j])
                if ell in more or ell in base:
                    continue
                assert zone_point_count(more, ell, V) <= zone_point_count(base, ell, V)


def test_build_zone_lines_small_nets():
    V = generate_points("random-disk", 30, seed=2, coord_range=100_000)
    zls = build_zone_lines(V, 2, 0)
    assert len(zls.net) == 2 and len(zls.lines) == 1
    assert len(build_zone_lines(V, 4, 0).lines) == 6
    # eps = 1 gives the audit a 2-point net, which always passes.
    assert audit_zone_lines(V, Fraction(1), 0) == replace(zls, epsilon=Fraction(1))
    assert len(audit_zone_lines(V, Fraction(1), 0, 4).lines) == 6


def test_build_zone_lines_verified_and_deterministic():
    V = generate_points("random-disk", 100, seed=11)
    a = audit_zone_lines(V, Fraction(1, 2), 5)
    b = audit_zone_lines(V, Fraction(1, 2), 5)
    assert a == b
    assert a.verified and a.epsilon == Fraction(1, 2)
    assert verify_zone_property(a, V, Fraction(1, 2)) is None
    assert build_zone_lines(V, 4, 5) == build_zone_lines(V, 4, 5)


def test_only_the_audit_marks_lines_verified():
    # The pipeline's 4-point net on this input leaves a zone holding 124 of
    # the 256 points, far over a 1/32 budget, so it must not claim a pass.
    V = generate_points("random-disk", 256, seed=1)
    zls = build_zone_lines(V, desk_net_size(256, 8), 1)
    assert len(zls.net) == 4 and len(zls.lines) == 6
    assert not zls.verified and zls.epsilon is None
    witness = verify_zone_property(zls, V, Fraction(1, 32))
    assert witness is not None and witness[1] == 124
    assert zone_point_count(zls, witness[0], V) == 124
    assert audit_zone_lines(V, Fraction(1), 1).verified


def test_build_zone_lines_exhaustion():
    V = generate_points("random-disk", 40, seed=4, coord_range=50_000)
    # A 2-point net cannot bound zones by a quarter of the points.
    with pytest.raises(ZoneVerificationError) as exc:
        audit_zone_lines(V, Fraction(1, 4), 0, 2, max_attempts=3)
    assert exc.value.witness_count > 10


def test_drivers_never_audit(monkeypatch):
    # Neither driver reaches the zone audit, on complete or sparse graphs.
    def no_audit(*args, **kwargs):
        raise AssertionError("a driver built the zone audit")

    monkeypatch.setattr(audit, "_ZoneAudit", no_audit)
    for kind, n, seed in (("random-disk", 40, 1), ("convex", 24, 2), ("grid-jitter", 60, 3)):
        V = generate_points(kind, n, seed)
        edge_rng = random.Random(seed)
        sparse = [(a, b) for a in range(n - 1) for b in range(a + 1, n) if edge_rng.random() < 0.5]
        for G in (GeometricGraph.complete(V), GeometricGraph.from_edges(V, sparse)):
            for driver in (find_crossing_family, find_avoiding_family):
                fam = driver(G, RunConfig(seed=seed))
                assert fam.verified and verify_family(fam, G) is None


def test_huge_coordinates_take_exact_fallback():
    # Scaling preserves general position and pushes coordinates past the
    # int64-safe bound, forcing the unbounded exact path; counts must agree
    # with the independent interval-sampling walk.
    base = generate_points("random-disk", 12, seed=6, coord_range=1000)
    scale = 2**21
    V = PointSet([Point(p.x * scale, p.y * scale) for p in base])
    lines = build_zone_lines(V, 3, 0).lines
    aud = _ZoneAudit(V, lines)
    assert not aud.fast
    triples = {(l.a, l.b, l.c) for l in lines}
    checked = 0
    for i in range(0, 11, 2):
        for j in range(i + 1, 12, 3):
            ell = Line.through(V[i], V[j])
            if (ell.a, ell.b, ell.c) in triples:
                continue
            assert aud.count(V[i], V[j]) == zone_count_walk(lines, ell, V)
            checked += 1
    assert checked >= 5
    assert verify_zone_property(lines, V, Fraction(1)) is None


def test_line_count_within_formula_bound():
    V = generate_points("random-disk", 200, seed=9)
    for eps in (Fraction(1, 2), Fraction(1, 4)):
        zls = audit_zone_lines(V, eps, 0)
        size = net_sample_size(eps, len(V))
        assert len(zls.lines) <= size * (size - 1) // 2
        inv = float(1 / eps)
        if inv > 1:
            bound = (40 * inv * math.log(inv) + 1) ** 2 / 2 + 1
            assert len(zls.lines) <= bound


def _assert_counts_exact(aud, lines, V):
    # The audit's count of every candidate through two points of V equals
    # the exact count and the interval-sampling walk.
    triples = {(l.a, l.b, l.c) for l in lines}
    checked = 0
    for i in range(len(V) - 1):
        for j in range(i + 1, len(V)):
            ell = Line.through(V[i], V[j])
            if (ell.a, ell.b, ell.c) in triples:
                continue
            assert aud.count(V[i], V[j]) == zone_point_count(lines, ell, V) == zone_count_walk(lines, ell, V)
            checked += 1
    assert checked


def test_audit_int64_line_bound():
    # Points within the int64 bound, against lines just within and just past
    # the line-coefficient bounds: past them the audit must take the exact
    # path, since a*x + b*y + c would wrap for the larger lines here.
    V = generate_points("random-disk", 12, seed=5, coord_range=2**29)
    assert V.within_int64_bound
    net = list(build_zone_lines(V, 3, 0).lines)
    ab, c = 2**30, 2**60
    within = [Line(ab, 3, 7), Line(5, -ab, 11), Line(1, 1, c), Line(3, -1, -c)]
    past = [Line(ab + 1, 3, 7), Line(5, -ab - 1, 11), Line(1, 1, c + 1), Line(1, 1, -c - 1)]
    wrapping = [Line(2**34 + 1, 3, 7), Line(5, -(2**35) - 3, 11)]
    cases = [(net + within, True), (wrapping, False)] + [(net + [l], False) for l in past]
    for lines, fast in cases:
        aud = _ZoneAudit(V, lines)
        assert aud.fast == fast, lines
        _assert_counts_exact(aud, lines, V)
    # The first over-budget candidate in (i, j) order, counted exactly.
    eps = Fraction(1, 2)
    expected = None
    for i in range(len(V) - 1):
        for j in range(i + 1, len(V)):
            ell = Line.through(V[i], V[j])
            count = zone_point_count(wrapping, ell, V)
            if expected is None and 2 * count > len(V):
                expected = (ell, count)
    assert expected is not None
    assert verify_zone_property(wrapping, V, eps) == expected


def test_audit_ranks_tied_crossings_exactly(monkeypatch):
    # A candidate through a net point crosses every net line through that
    # point at one parameter, so the float order has runs of exact ties
    # that only the exact re-ranking can group.
    group_ids = _ZoneAudit._group_ids
    tied = []

    def recording(An, Bn):
        gids = group_ids(An, Bn)
        tied.append(len(set(gids.tolist())) < len(gids))
        return gids

    monkeypatch.setattr(_ZoneAudit, "_group_ids", staticmethod(recording))
    for seed in (3, 4):
        V = generate_points("random-disk", 20, seed=seed, coord_range=2000)
        zls = build_zone_lines(V, 4, 0)
        aud = _ZoneAudit(V, zls.lines)
        assert aud.fast
        _assert_counts_exact(aud, zls.lines, V)
    assert any(tied)


def test_group_ids_exact_on_near_ties():
    # -A/B: 1/2 three ways, and 1 - 1/2^52 < 1 - 1/(2^52 + 1), which are
    # within float error of each other; ranks follow the exact values.
    big = 2**52
    A = np.array([-1, -2, 3, -(big - 1), -big, -3], dtype=np.int64)
    B = np.array([2, 4, -6, big, big + 1, 1], dtype=np.int64)
    g = _ZoneAudit._group_ids(A, B).tolist()
    assert g[0] == g[1] == g[2] < g[3] < g[4] < g[5]


# Names that only the audit, or the tests, use; and the pipeline's one
# line-sign kernel and its int64 line bound, which the audit shares.
_AUDIT_NAMES = {"NET_CONSTANT", "net_sample_size", "_as_lines", "zone_point_count", "_ZoneAudit",
                "verify_zone_property", "audit_zone_lines", "less_under", "hulls_disjoint"}
_ZONES_NAMES = {"line_signs", "lines_within_int64_bound", "_LINE_AB_LIMIT", "_LINE_C_LIMIT"}


def _top_level_names(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def _imports_audit(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            modules = [base] + [f"{base}.{a.name}" for a in node.names]
        else:
            continue
        if any("audit" in m.split(".") for m in modules):
            return True
    return False


def test_only_the_package_root_imports_the_audit():
    package = Path(crossfam.__file__).parent
    defined = {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.stem not in ("__init__", "audit"):
            assert not _imports_audit(tree), f"{path.stem} imports the audit"
        for name in _top_level_names(tree) & (_AUDIT_NAMES | _ZONES_NAMES):
            defined.setdefault(name, []).append(path.stem)
    assert defined == {**{n: ["audit"] for n in _AUDIT_NAMES}, **{n: ["zones"] for n in _ZONES_NAMES}}
    assert not _AUDIT_NAMES & set(vars(zones))
    assert all(hasattr(crossfam, name) for name in crossfam.__all__)
