"""The zone audit, and the ``Point`` forms of two pipeline tests: code that
only the library API and the tests run. No pipeline module imports it.

``audit_zone_lines`` resamples nets (``zones.build_zone_lines``) until no
line through two points of V has a zone holding more than an eps fraction
of the points. A point is in the zone of a line iff its open arrangement
cell meets the line, a one-dimensional rational feasibility test
(``zone_point_count``). ``_ZoneAudit`` counts zones vectorized over points,
from the signs of ``zones.line_signs`` and behind the same int64 line
bound, and resolves every comparison that could flip an answer exactly.
"""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from typing import Sequence

import numpy as np

from .errors import ZoneVerificationError
from .geom import Point, PointSet, _as_point, convex_hull, hull_coords, hull_coords_disjoint
from .poset import Cmp, _classify_pair
from .zones import Line, ZoneLineSet, build_zone_lines, line_signs, lines_within_int64_bound


def less_under(x: Point, y: Point, B) -> Cmp:
    """Compare x against y relative to the point collection B."""
    if x == y:
        raise ValueError("less_under requires distinct points")
    hull = convex_hull(list(B))
    if not hull:
        raise ValueError("B must be nonempty")
    return _classify_pair((x.x, x.y), (y.x, y.y), [(p.x, p.y) for p in hull])


def hulls_disjoint(A, B) -> bool:
    """True iff the convex hulls of the two point collections are disjoint
    as closed sets.

    See ``geom.hull_coords_disjoint``, which this wraps.
    """
    ca = [(p.x, p.y) for p in map(_as_point, A)]
    cb = [(p.x, p.y) for p in map(_as_point, B)]
    if not ca or not cb:
        raise ValueError("hulls_disjoint requires nonempty inputs")
    return hull_coords_disjoint(hull_coords(ca), hull_coords(cb))


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


class _ZoneAudit:
    """Vectorized zone counting for many candidate lines over one arrangement.

    Floats are used only to order crossing parameters; any two parameters
    closer than the float error bound are re-compared exactly, so the
    resulting group ranks are exact.
    """

    def __init__(self, V: PointSet, lines: Sequence[Line]):
        self.V = V
        self.lines = list(lines)
        # Under ``lines_within_int64_bound`` every A and B that ``count``
        # computes is at most 2^61; other inputs take the exact path.
        self.fast = bool(self.lines) and lines_within_int64_bound(V, self.lines)
        if not self.fast:
            return
        self.S = line_signs(V, self.lines)
        # Coefficients for the walk in ``count``.
        self.La = np.array([l.a for l in self.lines], dtype=np.int64)
        self.Lb = np.array([l.b for l in self.lines], dtype=np.int64)
        self.Lc = np.array([l.c for l in self.lines], dtype=np.int64)
        self.off_cells = (self.S == 0).any(axis=1)
        # Cell fingerprints: 64-bit wrap-around sums of per-line tokens signed
        # by the side. Collisions only cost an extra exact check, never a
        # wrong count.
        rng = np.random.Generator(np.random.PCG64(0x5EED_C0DE))
        self.h = (rng.integers(0, 2**63, len(self.lines), dtype=np.int64) << 1) | 1
        with np.errstate(over="ignore"):
            point_hashes = self.S @ self.h
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
        the coarse order, and any run of neighbours within the float error
        bound is re-ranked by its exact values as ``Fraction``s.
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
                keys = [Fraction(-int(An[c]), int(Bn[c])) for c in cols]
                ranking = {kv: i for i, kv in enumerate(sorted(set(keys)))}
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
    # Line.through normalizes, so the arrangement's lines are compared in
    # normal form too, as zone_point_count compares them.
    own = {l.normalized() for l in lines}
    audit: _ZoneAudit | None = None
    pts = list(V)
    for p, q in combinations(pts, 2):
        ell = Line.through(p, q)
        if ell in own:
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
            count = audit.count(p, q)
        if count * eps.denominator > eps.numerator * n:
            return ell, count
    return None


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
