"""Net-determined line sets, and the audit of their zone bound.

The pipeline's step is ``build_zone_lines``: a seeded sample of vertex
indices (the net) and the lines it determines, whose open cells the
clusters are cut from. The audit, ``audit_zone_lines``, resamples such nets
until no line through two points of V has a zone in the arrangement holding
more than an eps fraction of the points. Zone membership is decided exactly:
a point belongs to the zone of a line iff its open arrangement cell meets
the line, which reduces to a one-dimensional rational feasibility test. The
audit runs vectorized over points, but every comparison that could flip an
answer is resolved in exact integer arithmetic.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Sequence

import numpy as np

from .errors import ZoneVerificationError
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


# Sample-size constant of the sector-piercing net that the audit draws.
NET_CONSTANT = 40


def net_sample_size(eps: Fraction, n: int) -> int:
    """Sample size for the sector-piercing net, clamped to [2, n]."""
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError("eps must be in (0, 1]")
    inv = 1 / eps
    raw = NET_CONSTANT * float(inv) * math.log(float(inv))
    return min(n, max(2, math.ceil(raw)))


def lines_through(V: PointSet, indices: Sequence[int]) -> tuple[Line, ...]:
    """All distinct lines determined by pairs of the given vertices, in
    canonical order."""
    seen: set[Line] = set()
    idx = list(indices)
    for i in range(len(idx) - 1):
        p = V[idx[i]]
        for j in range(i + 1, len(idx)):
            seen.add(Line.through(p, V[idx[j]]))
    return tuple(sorted(seen))


def _as_lines(L) -> tuple[Line, ...]:
    if isinstance(L, ZoneLineSet):
        return L.lines
    return tuple(L)


def zone_point_count(L, ell: Line, V: PointSet) -> int:
    """Number of points of V in open cells of the arrangement that ell meets.

    Points lying on any line of the arrangement belong to no open cell and
    are never counted. A line of the arrangement itself has an empty zone by
    convention. Fully exact; intended for single queries and cross-checks.
    """
    lines = _as_lines(L)
    ell = ell.normalized()
    if ell in {l.normalized() for l in lines}:
        return 0
    if not lines:
        return len(V)

    # Rational point on ell, scaled by s0 = a^2 + b^2 > 0; scaling every
    # offset by the same positive factor preserves the feasibility test.
    a, b, c = ell.a, ell.b, ell.c
    s0 = a * a + b * b
    p0x, p0y = -a * c, -b * c
    dx, dy = b, -a
    avals = []
    bvals = []
    for l in lines:
        av = l.a * p0x + l.b * p0y + l.c * s0
        bv = l.a * dx + l.b * dy
        assert av != 0 or bv != 0, "candidate line coincides with an arrangement line"
        avals.append(av)
        bvals.append(bv)

    count = 0
    for v in V:
        lo: Fraction | None = None
        hi: Fraction | None = None
        ok = True
        on_line = False
        for l, av, bv in zip(lines, avals, bvals):
            s = l.side_of(v)
            if s == 0:
                on_line = True
                break
            if bv == 0:
                if (av > 0) != (s > 0):
                    ok = False
                    break
                continue
            t = Fraction(-av, bv)
            if (s > 0) == (bv > 0):
                if lo is None or t > lo:
                    lo = t
            else:
                if hi is None or t < hi:
                    hi = t
        if on_line or not ok:
            continue
        if lo is None or hi is None or lo < hi:
            count += 1
    return count


class _FracKey:
    """Sort key comparing num/den pairs (den > 0) by cross-multiplication."""

    __slots__ = ("num", "den")

    def __init__(self, kv):
        self.num, self.den = kv

    def __lt__(self, other):
        return self.num * other.den < other.num * self.den


class _ZoneAudit:
    """Vectorized zone counting for many candidate lines over one arrangement.

    Floats are used only to order crossing parameters; any two parameters
    closer than the float error bound are re-compared exactly, so the
    resulting group ranks are exact.
    """

    def __init__(self, V: PointSet, lines: Sequence[Line]):
        self.V = V
        self.lines = list(lines)
        self.n = len(V)
        # Within ``geom.INT64_COORD_LIMIT`` a line's a and b are at most
        # 2^30 and its c at most 2^60, so every a*x + b*y + c and
        # a*dx + b*dy the audit computes stays at most 2^61; larger inputs
        # take the exact path.
        self.fast = bool(self.lines) and V.within_int64_bound
        if not self.fast:
            return
        self.La = np.array([l.a for l in self.lines], dtype=np.int64)
        self.Lb = np.array([l.b for l in self.lines], dtype=np.int64)
        self.Lc = np.array([l.c for l in self.lines], dtype=np.int64)
        xs, ys = V.xy[:, 0], V.xy[:, 1]
        vals = xs[:, None] * self.La[None, :] + ys[:, None] * self.Lb[None, :] + self.Lc[None, :]
        self.S = np.sign(vals).astype(np.int8)
        self.off_cells = (self.S == 0).any(axis=1)
        # Cell fingerprints: 64-bit wrap-around sums of per-line tokens signed
        # by the side. Collisions only cost an extra exact check, never a
        # wrong count.
        rng = np.random.Generator(np.random.PCG64(0x5EED_C0DE))
        self.h = (rng.integers(0, 2**63, len(self.lines), dtype=np.int64) << 1) | 1
        with np.errstate(over="ignore"):
            point_hashes = self.S.astype(np.int64) @ self.h
        self._hash_points: dict[int, list[int]] = {}
        for v in np.flatnonzero(~self.off_cells):
            self._hash_points.setdefault(int(point_hashes[v]), []).append(int(v))
        self._ph_sorted = np.sort(np.array(list(self._hash_points) or [0], dtype=np.int64))
        self._have_points = bool(self._hash_points)

    def count(self, p: Point, q: Point) -> int:
        """Points of V in cells met by the line through p and q.

        Walks the line across the arrangement: each non-parallel line flips
        one component of the cell sign vector, so visited-cell fingerprints
        are a cumulative sum over crossings ordered by their exact crossing
        ranks. Fingerprint matches are then verified exactly per point.
        """
        if not self.fast:
            return zone_point_count(self.lines, Line.through(p, q), self.V)
        if not self._have_points:
            return 0
        px, py = p.x, p.y
        dx, dy = q.x - p.x, q.y - p.y
        A = self.La * px + self.Lb * py + self.Lc
        B = self.La * dx + self.Lb * dy
        r = len(A)
        par = B == 0
        sgn_b = np.sign(B)
        if par.any():
            assert not (par & (A == 0)).any(), "candidate coincides with an arrangement line"
            sstart = np.where(par, np.sign(A), -sgn_b)
        else:
            sstart = -sgn_b
        with np.errstate(over="ignore"):
            start_hash = (sstart * self.h).sum(dtype=np.int64)
        npar_idx = np.flatnonzero(~par)
        gid_np = None
        if len(npar_idx):
            gid_np = self._group_ids(A[npar_idx], B[npar_idx])
            walk = np.argsort(gid_np, kind="stable")
            cols = npar_idx[walk]
            gs = gid_np[walk]
            with np.errstate(over="ignore"):
                deltas = (-2) * sstart[cols] * self.h[cols]
                cums = np.cumsum(deltas)
            ends = np.flatnonzero(np.concatenate((gs[1:] != gs[:-1], [True])))
            with np.errstate(over="ignore"):
                qhashes = np.concatenate(([start_hash], start_hash + cums[ends]))
        else:
            qhashes = np.array([start_hash], dtype=np.int64)
        pos = np.searchsorted(self._ph_sorted, qhashes)
        pos_c = np.minimum(pos, len(self._ph_sorted) - 1)
        hit = self._ph_sorted[pos_c] == qhashes
        if not hit.any():
            return 0
        rows: list[int] = []
        for qh in np.unique(qhashes[hit]):
            rows.extend(self._hash_points[int(qh)])
        # Exact feasibility for the proposed rows only: for each line, flip
        # encodes whether the point's side demands t above (+1) or below (-1)
        # the line's crossing rank; parallel mismatches force rank -3.
        flip = sgn_b.astype(np.int8)
        gid = np.full(r, -3, dtype=np.int64)
        if par.any():
            flip[par] = np.sign(A[par]).astype(np.int8)
        if gid_np is not None:
            gid[npar_idx] = gid_np
        sub = self.S[np.array(sorted(rows))]
        u = sub * flip[None, :]
        big = (r + 1) * (r + 1) + 7
        lower = np.where(u > 0, gid[None, :], -2).max(axis=1)
        upper = np.where(u < 0, gid[None, :], big).min(axis=1)
        return int(np.count_nonzero(lower < upper))

    @staticmethod
    def _group_ids(An: np.ndarray, Bn: np.ndarray) -> np.ndarray:
        """Rank the crossing parameters -An/Bn into exact equality groups.

        Ranks are order-isomorphic to the exact rational values: floats give
        the coarse order, and any neighbours within the float error bound are
        re-ranked with integer cross-multiplication.
        """
        r = len(An)
        t = -An.astype(np.float64) / Bn.astype(np.float64)
        order = np.argsort(t, kind="stable")
        if r == 1:
            return np.zeros(1, dtype=np.int32)
        ts = t[order]
        scale = np.maximum(1.0, np.maximum(np.abs(ts[:-1]), np.abs(ts[1:])))
        near = (ts[1:] - ts[:-1]) <= scale * 2.0**-40
        base = np.concatenate(([0], np.cumsum(~near, dtype=np.int64)))
        rank_in_run = np.zeros(r, dtype=np.int64)
        if near.any():
            nz = np.flatnonzero(near)
            breaks = np.flatnonzero(np.diff(nz) > 1)
            starts = np.concatenate(([0], breaks + 1))
            ends = np.concatenate((breaks, [len(nz) - 1]))
            for s_i, e_i in zip(starts, ends):
                lo = int(nz[s_i])
                hi = int(nz[e_i]) + 1  # run spans sorted positions lo..hi
                cols = order[lo : hi + 1]
                # Exact ranks via gcd-reduced fractions with positive
                # denominators; magnitudes are unbounded Python ints.
                keys = []
                for c in cols:
                    a = int(An[c])
                    b = int(Bn[c])
                    num, den = (-a, b) if b > 0 else (a, -b)
                    g = gcd(abs(num), den) or 1
                    keys.append((num // g, den // g))
                ranking = {
                    kv: i
                    for i, kv in enumerate(sorted(set(keys), key=_FracKey))
                }
                for off, kv in enumerate(keys):
                    rank_in_run[lo + off] = ranking[kv]
        gids_sorted = base * (r + 1) + rank_in_run
        out = np.empty(r, dtype=np.int64)
        out[order] = gids_sorted
        if (r + 1) * (r + 1) + 7 < 2**31:
            return out.astype(np.int32)
        return out


def verify_zone_property(L, V: PointSet, eps):
    """Check the zone of every line through two points of V against the
    eps * |V| budget.

    Returns None when the property holds, else the first (line, count)
    witness in (i, j) order. Comparisons against the budget are exact
    rational comparisons.
    """
    lines = _as_lines(L)
    eps = Fraction(eps)
    n = len(V)
    triples = {(l.a, l.b, l.c) for l in lines}
    audit: _ZoneAudit | None = None
    for i, j in combinations(range(n), 2):
        ell = Line.through(V[i], V[j])
        if (ell.a, ell.b, ell.c) in triples:
            continue
        if not lines:
            count = n
        else:
            if audit is None:
                audit = _ZoneAudit(V, lines)
                if audit.fast:
                    # Zone counts never exceed the number of points in open
                    # cells; if that already fits the budget, everything passes.
                    in_cells = int(np.count_nonzero(~audit.off_cells))
                    if in_cells * eps.denominator <= eps.numerator * n:
                        return None
            count = audit.count(V[i], V[j])
        if count * eps.denominator > eps.numerator * n:
            return ell, count
    return None


def build_zone_lines(V: PointSet, net_size: int, seed: int) -> ZoneLineSet:
    """Sample a net of ``net_size`` vertex indices (clamped to [2, n],
    sorted) with the given seed, and take the lines it determines."""
    n = len(V)
    if n < 2:
        raise ValueError("need at least two points")
    net = tuple(sorted(random.Random(seed).sample(range(n), min(n, max(2, net_size)))))
    return ZoneLineSet(lines_through(V, net), seed, net)


def audit_zone_lines(
    V: PointSet, eps, seed: int, net_size: int | None = None, *, max_attempts: int = 16
) -> ZoneLineSet:
    """Sample a net, take its determined lines, and audit the zone property.

    The net has ``net_sample_size(eps, n)`` points unless ``net_size`` is
    given. On a failed audit the net is resampled with the next seed, up to
    ``max_attempts`` times; exhaustion raises ZoneVerificationError carrying
    the worst witness observed.
    """
    eps = Fraction(eps)
    if net_size is None:
        net_size = net_sample_size(eps, len(V))
    worst_line = None
    worst_count = -1
    for attempt in range(max_attempts):
        zls = build_zone_lines(V, net_size, seed + attempt)
        witness = verify_zone_property(zls.lines, V, eps)
        if witness is None:
            return replace(zls, epsilon=eps)
        if witness[1] > worst_count:
            worst_line, worst_count = witness
    raise ZoneVerificationError(worst_line, worst_count, max_attempts)
