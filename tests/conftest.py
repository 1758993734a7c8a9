"""Shared instance builders for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from crossfam.geom import Point, PointSet, general_position_check


def fixup_general_position(coords, redraw, attempts=20_000):
    """Replace offending points (by index-specific redraw) until the set is in
    general position."""
    for _ in range(attempts):
        witness = general_position_check(coords)
        if witness is None:
            return coords
        idx = witness[-1]
        coords[idx] = redraw(idx)
    raise RuntimeError("could not reach general position")


def succ_masks(items, less):
    """Successor bitmasks of the relation ``less`` on int items: bit y of
    entry x is set when less(x, y). This is the form ``interval_chains`` and
    ``longest_chain`` take."""
    return {x: sum(1 << y for y in items if less(x, y)) for x in items}


def chord_family(rng: random.Random, f: int, top: int, crossing: bool, swaps: int = 0, degenerate: bool = False):
    """f chords among 2f points in convex position, the chords pairwise
    crossing (``crossing``: chord k joins points k and k + f) or pairwise
    avoiding (nested: k and 2f - 1 - k); returns (V, segments).

    The points lie on a parabola, with even coordinates at most ``top`` in
    magnitude and chord endpoints at x = -top and x = top (both rounded down
    to even); one point off every chord sits at (top, top), so the largest
    coordinate is exactly ``top``. Each of ``swaps`` exchanges the second
    endpoints of two random chords, which breaks the relation between them.
    ``degenerate`` moves one endpoint of a random chord to the midpoint of
    another, so that pair has three collinear endpoints. The chords come in
    a random order, and the point set's general position is not checked.
    """
    T = top & ~1
    xs = sorted({-T, T, *(2 * x for x in rng.sample(range(-T // 2 + 1, T // 2), max(0, 2 * f - 2)))})
    assert len(xs) == 2 * f or f < 1
    pts = [(x, 2 * (x * x // (2 * T)) - T) for x in xs] + [(top, top)]
    if crossing:
        segs = [[k, k + f] for k in range(f)]
    else:
        segs = [[k, 2 * f - 1 - k] for k in range(f)]
    for _ in range(swaps if f >= 2 else 0):
        i, j = rng.sample(range(f), 2)
        segs[i][1], segs[j][1] = segs[j][1], segs[i][1]
    if degenerate and f >= 2:
        u, v = rng.sample(range(f), 2)
        (ax, ay), (bx, by) = pts[segs[u][0]], pts[segs[u][1]]
        pts.append(((ax + bx) // 2, (ay + by) // 2))
        segs[v][rng.randrange(2)] = len(pts) - 1
    rng.shuffle(segs)
    return PointSet(pts, check_general_position=False), [tuple(s) for s in segs]


def separated_pair(rng: random.Random, na: int, nb: int, span: int = 100_000, offset: int = 0):
    """Two point clouds in disjoint vertical slabs, jointly in general
    position, with ``offset`` subtracted from every coordinate; returns
    (V, A_indices, B_indices)."""
    gap = 3 * span

    def draw(idx: int):
        if idx < na:
            return (rng.randint(0, span), rng.randint(0, 4 * span))
        return (rng.randint(gap, gap + span), rng.randint(0, 4 * span))

    coords = [draw(i) for i in range(na + nb)]
    fixup_general_position(coords, draw)
    V = PointSet([Point(x - offset, y - offset) for x, y in coords])
    return V, tuple(range(na)), tuple(range(na, na + nb))


def block_instance(rng: random.Random, t: int, k: int, m: int, tangled: bool = False):
    """Two facing columns of (t+1)*k tight near-vertical mini-blocks of m
    points each. Lines inside a block are steep, so they miss the far side
    and the induced orders are (almost) total; with ``tangled`` one shallow
    pair is planted in the first block of A.

    Returns (V, A_indices, B_indices).
    """
    per_side = (t + 1) * k * m
    blocks = (t + 1) * k
    # Geometry scales with the instance: block gap 1000m keeps blocks inside
    # the lower half of their slot, the far side sits at 100x the column
    # height, and the x spread stays below the steepness budget 300*far/(2h).
    pt_gap = 400
    y_jitter = 100
    block_gap = 1000 * m
    height = blocks * block_gap
    far = 100 * height
    x_spread = max(600, min(4 * per_side, 15_000))

    def slot(idx: int):
        side, local = divmod(idx, per_side)
        blk, off = divmod(local, m)
        return side, blk, off

    def draw(idx: int):
        side, blk, off = slot(idx)
        y = blk * block_gap + off * pt_gap + rng.randint(0, y_jitter)
        x = rng.randint(0, x_spread) + (far if side else 0)
        if tangled and side == 0 and blk == 0 and off in (0, 1):
            # A nearly horizontal pair, placed mid-gap between blocks so it
            # stays steep against every other point, whose own line reaches
            # the far column.
            y = (blocks // 2) * block_gap + block_gap // 2 + off * rng.randint(1, 3) + (0 if off else 1)
            x = 0 if off == 0 else x_spread - 5
        return (x, y)

    coords = [draw(i) for i in range(2 * per_side)]
    fixup_general_position(coords, draw)
    V = PointSet([Point(x, y) for x, y in coords])
    return V, tuple(range(per_side)), tuple(range(per_side, 2 * per_side))


def zone_count_walk(lines, ell, V: PointSet) -> int:
    """Independent zone counter: enumerate the cells the line passes through
    by sampling a rational point inside every interval between consecutive
    crossings, then match point sign vectors against that cell set. All
    arithmetic is exact."""
    ell = ell.normalized()
    norm = [l.normalized() for l in lines]
    if ell in norm:
        return 0
    if not norm:
        return len(V)
    a, b, c = ell.a, ell.b, ell.c
    s0 = a * a + b * b
    p0 = (Fraction(-a * c, s0), Fraction(-b * c, s0))
    d = (b, -a)

    def at(t: Fraction):
        return (p0[0] + t * d[0], p0[1] + t * d[1])

    def signs_at(pt):
        out = []
        for l in norm:
            v = l.a * pt[0] + l.b * pt[1] + l.c
            out.append(1 if v > 0 else (-1 if v < 0 else 0))
        return tuple(out)

    crossings = set()
    for l in norm:
        bv = l.a * d[0] + l.b * d[1]
        av = l.a * p0[0] + l.b * p0[1] + l.c
        if bv == 0:
            assert av != 0
            continue
        crossings.add(Fraction(-av, bv))
    ts = sorted(crossings)
    samples = []
    if not ts:
        samples.append(Fraction(0))
    else:
        samples.append(ts[0] - 1)
        for i in range(len(ts) - 1):
            samples.append((ts[i] + ts[i + 1]) / 2)
        samples.append(ts[-1] + 1)
    cells = {signs_at(at(t)) for t in samples}
    count = 0
    for p in V:
        sv = signs_at((Fraction(p.x), Fraction(p.y)))
        if 0 in sv:
            continue
        if sv in cells:
            count += 1
    return count


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
