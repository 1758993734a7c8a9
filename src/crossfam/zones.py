"""Net-determined line sets, and the signs of points against lines.

The pipeline's step is ``build_zone_lines``: a seeded sample of vertex
indices (the net) and the lines it determines, whose open cells the
clusters are cut from. The net's zones are not audited here; the audit of
their zone bound is ``crossfam.audit``. ``line_signs`` finds on which side
of every line each point lies, in one int64 pass when
``lines_within_int64_bound`` holds, which is the one place that decides
whether a set of lines may use int64 arithmetic over V.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

import numpy as np

from .geom import Point, PointSet


@dataclass(frozen=True, order=True)
class Line:
    """The line {(x, y) : a*x + b*y + c = 0}, gcd-normalized with a canonical
    sign so each geometric line has exactly one representation."""

    a: int
    b: int
    c: int

    @staticmethod
    def through(p: Point, q: Point) -> "Line":
        if (p.x, p.y) == (q.x, q.y):
            raise ValueError("a line needs two distinct points")
        dx = q.x - p.x
        dy = q.y - p.y
        return Line(-dy, dx, dy * p.x - dx * p.y).normalized()

    def normalized(self) -> "Line":
        a, b, c = self.a, self.b, self.c
        if (a, b) == (0, 0):
            raise ValueError("invalid line: a and b are both zero")
        g = gcd(gcd(abs(a), abs(b)), abs(c))
        a //= g
        b //= g
        c //= g
        if a < 0 or (a == 0 and b < 0):
            a, b, c = -a, -b, -c
        return Line(a, b, c)

    def eval_at(self, p: Point) -> int:
        return self.a * p.x + self.b * p.y + self.c

    def side_of(self, p: Point) -> int:
        v = self.eval_at(p)
        return (v > 0) - (v < 0)


@dataclass(frozen=True)
class ZoneLineSet:
    """A net of vertex indices and the lines it determines. ``epsilon`` is
    the zone budget the lines were audited against, None when unaudited."""

    lines: tuple[Line, ...]
    seed: int
    net: tuple[int, ...]
    epsilon: Fraction | None = None

    @property
    def verified(self) -> bool:
        return self.epsilon is not None


def lines_through(V: PointSet, indices: Sequence[int]) -> tuple[Line, ...]:
    """All distinct lines determined by pairs of the given vertices, in
    canonical order."""
    seen: set[Line] = set()
    pts = [V[i] for i in indices]
    for i in range(len(pts) - 1):
        p = pts[i]
        for j in range(i + 1, len(pts)):
            seen.add(Line.through(p, pts[j]))
    return tuple(sorted(seen))


def build_zone_lines(V: PointSet, net_size: int, seed: int) -> ZoneLineSet:
    """Sample a net of ``net_size`` vertex indices (clamped to [2, n],
    sorted) with the given seed, and take the lines it determines."""
    n = len(V)
    if n < 2:
        raise ValueError("need at least two points")
    net = tuple(sorted(random.Random(seed).sample(range(n), min(n, max(2, net_size)))))
    return ZoneLineSet(lines_through(V, net), seed, net)


# Lines through two points within the int64 bound have |a|, |b| at most
# 2^30 and |c| at most 2^60, so a*x + b*y + c, for a point within the
# bound, and a*dx + b*dy, for a difference of two such points, are at most
# 2^61 in magnitude.
_LINE_AB_LIMIT = 2**30
_LINE_C_LIMIT = 2**60


def lines_within_int64_bound(V: PointSet, lines: Sequence[Line]) -> bool:
    """True when V is within the int64 bound and every line's coefficients
    are within those of the lines through two of its points, so that every
    a*x + b*y + c and a*dx + b*dy over V fits in int64."""
    return V.within_int64_bound and all(
        abs(l.a) <= _LINE_AB_LIMIT and abs(l.b) <= _LINE_AB_LIMIT and abs(l.c) <= _LINE_C_LIMIT for l in lines
    )


def line_signs(V: PointSet, lines: Sequence[Line]) -> np.ndarray:
    """The sign of ``a*x + b*y + c`` for every point of V (rows) and line
    (columns), as int64: in one int64 pass under
    ``lines_within_int64_bound``, else in Python ints."""
    if lines_within_int64_bound(V, lines):
        a, b, c = np.array([(l.a, l.b, l.c) for l in lines], dtype=np.int64).reshape(-1, 3).T
        xs, ys = V.xy[:, :1], V.xy[:, 1:]
        return np.sign(xs * a + ys * b + c)
    rows = [[(v > 0) - (v < 0) for v in (l.a * x + l.b * y + l.c for l in lines)] for x, y in V.coords]
    return np.array(rows, dtype=np.int64).reshape(len(V), len(lines))
