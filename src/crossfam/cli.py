"""Command-line surface: generate, run, verify, oracle, bench.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 internal error.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import sys
import time
from fractions import Fraction

from . import __version__
from .crossing import (
    FamilyMode,
    RunConfig,
    find_avoiding_family,
    find_crossing_family,
)
from .errors import (
    CrossfamError,
    GeneralPositionError,
    ParseError,
    RangeTooSmallError,
    TooLargeError,
)
from .formats import (
    ResultData,
    parse_graph_file,
    parse_result_file,
    render_point_file,
    render_result_file,
    render_svg,
)
from .geom import GeometricGraph, PointSet, general_position_check, hull_coords
from .oracle import max_family_bruteforce, verify_family

DEFAULT_RANGE = 1_000_000
_MAX_FIXUPS = 20_000


def _fix_general_position(coords, draw, attempts=_MAX_FIXUPS):
    """Replace offending points until the set is in general position."""
    for _ in range(attempts):
        witness = general_position_check(coords)
        if witness is None:
            return coords
        coords[witness[-1]] = draw()
    raise RangeTooSmallError(
        "could not reach general position; enlarge the coordinate range"
    )


def generate_points(kind: str, n: int, seed: int, coord_range: int = DEFAULT_RANGE) -> PointSet:
    """Deterministic general-position point sets of three flavours."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if coord_range < 4:
        raise RangeTooSmallError("coordinate range must be at least 4")
    rng = random.Random(seed)
    if kind == "random-disk":
        r = coord_range // 2

        def draw():
            while True:
                x = rng.randint(-r, r)
                y = rng.randint(-r, r)
                if x * x + y * y <= r * r:
                    return (x, y)

        coords = [draw() for _ in range(n)]
        coords = _fix_general_position(coords, draw)
    elif kind == "convex":
        # Points on a large circular arc stay in convex position once the
        # rounded set passes a hull-size check.
        r = coord_range // 2
        for attempt in range(64):
            jitter = [rng.uniform(0, 2 * math.pi / n) for _ in range(n)]
            coords = []
            for i in range(n):
                ang = 2 * math.pi * i / n + jitter[i] * 0.5
                coords.append((round(r * math.cos(ang)), round(r * math.sin(ang))))
            if general_position_check(coords) is None and len(hull_coords(coords)) == n:
                break
        else:
            raise RangeTooSmallError(
                f"cannot place {n} convex points within range {coord_range}"
            )
    elif kind == "grid-jitter":
        g = math.isqrt(n - 1) + 1
        cell = (2 * (coord_range // 2)) // g
        if cell < 8:
            raise RangeTooSmallError(
                f"range {coord_range} too tight for a {g}x{g} jittered grid"
            )
        pad = cell // 3

        def draw():
            i = rng.randrange(g * g)
            cx = -(coord_range // 2) + (i % g) * cell + cell // 2
            cy = -(coord_range // 2) + (i // g) * cell + cell // 2
            return (cx + rng.randint(-pad, pad), cy + rng.randint(-pad, pad))

        cells = rng.sample(range(g * g), n)
        coords = []
        for i in cells:
            cx = -(coord_range // 2) + (i % g) * cell + cell // 2
            cy = -(coord_range // 2) + (i // g) * cell + cell // 2
            coords.append((cx + rng.randint(-pad, pad), cy + rng.randint(-pad, pad)))
        coords = _fix_general_position(coords, draw)
    else:
        raise ValueError(f"unknown generator kind {kind!r}")
    # Every branch above certified exactly these coordinates.
    return PointSet(coords, check_general_position=False)


def _seed_default(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("CROSSFAM_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"CROSSFAM_SEED must be an integer, got {env!r}") from None
    return 0


def _rational(args, name: str) -> Fraction | None:
    text = getattr(args, name, None)
    if not text:
        return None
    try:
        return Fraction(text)
    except ZeroDivisionError:
        # Fraction raises this, not ValueError, for a zero denominator.
        raise ValueError(f"{name} must be a rational with a nonzero denominator, got {text!r}") from None


def _run_config(args, seed: int) -> RunConfig:
    return RunConfig(
        theory=getattr(args, "theory", False),
        m=getattr(args, "m", None),
        eps=_rational(args, "eps"),
        delta=_rational(args, "delta"),
        s=getattr(args, "s", None),
        seed=seed,
        max_retries=getattr(args, "max_retries", 8),
    )


def _result_params(cfg: RunConfig) -> tuple[tuple[str, str], ...]:
    out = [("theory", "1" if cfg.theory else "0"), ("retries", str(cfg.max_retries))]
    if cfg.m is not None:
        out.append(("m", str(cfg.m)))
    if cfg.eps is not None:
        out.append(("eps", str(cfg.eps)))
    if cfg.delta is not None:
        out.append(("delta", str(cfg.delta)))
    if cfg.s is not None:
        out.append(("s", str(cfg.s)))
    return tuple(sorted(out))


def _write(path: str | None, content: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(content)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def cmd_generate(args) -> int:
    seed = _seed_default(args)
    V = generate_points(args.kind, args.n, seed, args.range)
    _write(args.out, render_point_file(V))
    return 0


def run_family(G: GeometricGraph, mode: str, cfg: RunConfig):
    fam = (
        find_crossing_family(G, cfg)
        if mode == "crossing"
        else find_avoiding_family(G, cfg)
    )
    witness = verify_family(fam, G)
    return fam, witness


def cmd_run(args) -> int:
    seed = _seed_default(args)
    G = parse_graph_file(_read(args.input))
    cfg = _run_config(args, seed)
    t0 = time.perf_counter()
    fam, witness = run_family(G, args.mode, cfg)
    ms = int((time.perf_counter() - t0) * 1000)
    if witness is not None:
        print(f"verification failed on pair {witness}", file=sys.stderr)
        return 1
    result = ResultData(
        mode=args.mode,
        segments=fam.segments,
        verified=True,
        params=_result_params(cfg),
        seed=seed,
        ms=ms,
    )
    _write(args.out, render_result_file(result))
    if args.svg:
        _write(args.svg, render_svg(G, fam.segments))
    return 0


def cmd_verify(args) -> int:
    G = parse_graph_file(_read(args.input))
    r = parse_result_file(_read(args.result))
    n = len(G.vertices)
    for a, b in r.segments:
        if not (0 <= a < n and 0 <= b < n):
            print(f"segment ({a}, {b}) out of range for {n} vertices", file=sys.stderr)
            return 2
    from .crossing import SegmentFamily

    mode = FamilyMode.CROSSING if r.mode == "crossing" else FamilyMode.AVOIDING
    fam = SegmentFamily(mode, r.segments, False, G)
    witness = verify_family(fam, G)
    if witness is None:
        print(f"ok: {len(r.segments)} pairwise {r.mode} segments")
        return 0
    print(f"verification failed on pair {witness}", file=sys.stderr)
    return 1


def cmd_oracle(args) -> int:
    seed = _seed_default(args)
    G = parse_graph_file(_read(args.input))
    mode = FamilyMode.CROSSING if args.mode == "crossing" else FamilyMode.AVOIDING
    t0 = time.perf_counter()
    fam = max_family_bruteforce(G, mode, args.oracle_limit)
    ms = int((time.perf_counter() - t0) * 1000)
    result = ResultData(
        mode=args.mode,
        segments=fam.segments,
        verified=True,
        params=(("limit", str(args.oracle_limit)), ("oracle", "1")),
        seed=seed,
        ms=ms,
    )
    _write(args.out, render_result_file(result))
    return 0


def run_bench(sizes, trials: int, seed: int, mode: str, max_retries: int = 8):
    """Seeded random complete-graph runs; returns (rows, loglog_slope).

    Rows are (n, trial, family_size, ms). The slope is fitted by least
    squares on log median runtime against log n, or None with fewer than
    two distinct sizes.
    """
    rows = []
    medians = []
    for n in sizes:
        times = []
        for trial in range(trials):
            inst_seed = seed + 1_000_003 * n + trial
            V = generate_points("random-disk", n, inst_seed)
            G = GeometricGraph.complete(V)
            cfg = RunConfig(seed=inst_seed, max_retries=max_retries)
            t0 = time.perf_counter()
            fam, witness = run_family(G, mode, cfg)
            dt = time.perf_counter() - t0
            if witness is not None:
                raise AssertionError(f"bench run failed verification: {witness}")
            rows.append((n, trial, len(fam.segments), int(dt * 1000)))
            times.append(dt)
        times.sort()
        mid = len(times) // 2
        med = times[mid] if len(times) % 2 else (times[mid - 1] + times[mid]) / 2
        medians.append((n, max(med, 1e-6)))
    slope = None
    if len({n for n, _ in medians}) >= 2:
        pts = [(math.log(n), math.log(t)) for n, t in medians]
        mx = sum(x for x, _ in pts) / len(pts)
        my = sum(y for _, y in pts) / len(pts)
        denom = sum((x - mx) ** 2 for x, _ in pts)
        slope = sum((x - mx) * (y - my) for x, y in pts) / denom
    return rows, slope


def cmd_bench(args) -> int:
    seed = _seed_default(args)
    sizes = [int(tok) for tok in args.sizes.split(",") if tok]
    if any(n < 2 for n in sizes):
        raise ValueError("bench sizes must be at least 2")
    if args.trials < 1:
        raise ValueError(f"trials must be at least 1, got {args.trials}")
    rows, slope = run_bench(sizes, args.trials, seed, args.mode, args.max_retries)
    out = ["n,trial,family_size,ms"]
    out.extend(f"{n},{t},{fs},{ms}" for n, t, fs, ms in rows)
    if slope is not None:
        out.append(f"# loglog_slope={slope:.4f}")
    _write(args.out, "\n".join(out) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="crossfam",
        description="Find large pairwise crossing or avoiding segment families "
        "in planar point sets, with exact verification.",
    )
    p.add_argument("--version", action="version", version=f"crossfam {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a general-position point file")
    g.add_argument("kind", choices=["random-disk", "convex", "grid-jitter"])
    g.add_argument("-n", type=int, required=True)
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--range", type=int, default=DEFAULT_RANGE)
    g.add_argument("--out", default=None)
    g.set_defaults(func=cmd_generate)

    r = sub.add_parser("run", help="run the family-finding pipeline on a graph file")
    r.add_argument("input")
    r.add_argument("--mode", choices=["crossing", "avoiding"], default="crossing")
    r.add_argument("--theory", action="store_true", default=False)
    r.add_argument("--practical", dest="theory", action="store_false")
    r.add_argument("--m", type=int, default=None,
                   help="starting cluster size (default: the largest power of two <= n/2 "
                        "on a complete graph, n^(1/3) otherwise)")
    r.add_argument("--eps", default=None, help="rational, e.g. 1/4")
    r.add_argument("--delta", default=None, help="rational, e.g. 1/4")
    r.add_argument("--s", type=int, default=None)
    r.add_argument("--seed", type=int, default=None)
    r.add_argument("--max-retries", type=int, default=8)
    r.add_argument("--svg", default=None)
    r.add_argument("--out", default=None)
    r.set_defaults(func=cmd_run)

    v = sub.add_parser("verify", help="re-verify a result file against its graph")
    v.add_argument("result")
    v.add_argument("input")
    v.set_defaults(func=cmd_verify)

    o = sub.add_parser("oracle", help="exact maximum family by brute force")
    o.add_argument("input")
    o.add_argument("--mode", choices=["crossing", "avoiding"], default="crossing")
    o.add_argument("--oracle-limit", type=int, default=120)
    o.add_argument("--seed", type=int, default=None)
    o.add_argument("--out", default=None)
    o.set_defaults(func=cmd_oracle)

    b = sub.add_parser("bench", help="seeded runtime benchmark, CSV output")
    b.add_argument("--sizes", default="64,128,256")
    b.add_argument("--trials", type=int, default=3)
    b.add_argument("--mode", choices=["crossing", "avoiding"], default="crossing")
    b.add_argument("--seed", type=int, default=None)
    b.add_argument("--max-retries", type=int, default=8)
    b.add_argument("--out", default=None)
    b.set_defaults(func=cmd_bench)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ParseError, ValueError, RangeTooSmallError, TooLargeError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except GeneralPositionError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except CrossfamError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
