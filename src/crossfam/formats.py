"""Flat text file formats and SVG rendering.

Versioned plain-text headers keep the files inspectable; parse errors carry
1-based line numbers. Every renderer round-trips through its parser.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GeneralPositionError, ParseError
from .geom import GeometricGraph, Point, PointSet, Segment


def render_point_file(V: PointSet) -> str:
    lines = [f"pointset v1 n={len(V)}"]
    lines.extend(f"{p.x} {p.y}" for p in V)
    return "\n".join(lines) + "\n"


def _parse_point_lines(lines: list[str], start: int) -> tuple[PointSet, int]:
    header = lines[start].strip() if start < len(lines) else ""
    parts = header.split()
    if len(parts) != 3 or parts[0] != "pointset" or parts[1] != "v1" or not parts[2].startswith("n="):
        raise ParseError(start + 1, f"expected 'pointset v1 n=<N>', got {header!r}")
    try:
        n = int(parts[2][2:])
    except ValueError:
        raise ParseError(start + 1, f"bad point count in {header!r}") from None
    pts = []
    for i in range(n):
        ln = start + 1 + i
        if ln >= len(lines):
            raise ParseError(ln + 1, f"expected {n} points, file ends after {i}")
        toks = lines[ln].split()
        if len(toks) != 2:
            raise ParseError(ln + 1, f"expected '<x> <y>', got {lines[ln]!r}")
        try:
            pts.append(Point(int(toks[0]), int(toks[1])))
        except ValueError:
            raise ParseError(ln + 1, f"bad integer coordinates {lines[ln]!r}") from None
    try:
        V = PointSet(pts)
    except GeneralPositionError as e:
        first = min(e.witness)
        raise ParseError(start + 2 + first, str(e)) from None
    return V, start + 1 + n


def parse_point_file(text: str) -> PointSet:
    lines = text.splitlines()
    V, next_line = _parse_point_lines(lines, 0)
    for ln in range(next_line, len(lines)):
        if lines[ln].strip():
            raise ParseError(ln + 1, f"unexpected trailing content {lines[ln]!r}")
    return V


def render_graph_file(G: GeometricGraph) -> str:
    out = render_point_file(G.vertices)
    if G.is_complete:
        return out + "edges complete\n"
    edges = G.edges_sorted()
    out += f"edges m={len(edges)}\n"
    out += "".join(f"{a} {b}\n" for a, b in edges)
    return out


def parse_graph_file(text: str) -> GeometricGraph:
    lines = text.splitlines()
    V, at = _parse_point_lines(lines, 0)
    if at >= len(lines):
        raise ParseError(at + 1, "expected an 'edges' line")
    header = lines[at].strip()
    if header == "edges complete":
        G = GeometricGraph.complete(V)
        at += 1
    else:
        parts = header.split()
        if len(parts) != 2 or parts[0] != "edges" or not parts[1].startswith("m="):
            raise ParseError(at + 1, f"expected 'edges m=<M>' or 'edges complete', got {header!r}")
        try:
            m = int(parts[1][2:])
        except ValueError:
            raise ParseError(at + 1, f"bad edge count in {header!r}") from None
        n = len(V)
        adj = [0] * n
        for i in range(m):
            ln = at + 1 + i
            if ln >= len(lines):
                raise ParseError(ln + 1, f"expected {m} edges, file ends after {i}")
            toks = lines[ln].split()
            if len(toks) != 2:
                raise ParseError(ln + 1, f"expected '<i> <j>', got {lines[ln]!r}")
            try:
                a, b = int(toks[0]), int(toks[1])
            except ValueError:
                raise ParseError(ln + 1, f"bad edge indices {lines[ln]!r}") from None
            if not (0 <= a < b < n):
                raise ParseError(ln + 1, f"edge ({a}, {b}) must satisfy 0 <= i < j < n")
            if adj[a] >> b & 1:
                raise ParseError(ln + 1, f"duplicate edge ({a}, {b})")
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        G = GeometricGraph(V, tuple(adj))
        at += 1 + m
    for ln in range(at, len(lines)):
        if lines[ln].strip():
            raise ParseError(ln + 1, f"unexpected trailing content {lines[ln]!r}")
    return G


@dataclass(frozen=True)
class ResultData:
    """Parsed contents of a result file. ``ms`` is wall-clock and excluded
    from determinism comparisons."""

    mode: str
    segments: tuple[Segment, ...]
    verified: bool
    params: tuple[tuple[str, str], ...]
    seed: int
    ms: int

    def determinism_key(self) -> tuple:
        return (self.mode, self.segments, self.verified, self.params, self.seed)


def render_result_file(r: ResultData) -> str:
    lines = [
        "result v1",
        f"mode {r.mode}",
        f"verified {'true' if r.verified else 'false'}",
        f"seed {r.seed}",
        "params " + " ".join(f"{k}={v}" for k, v in r.params),
        f"ms {r.ms}",
        f"segments n={len(r.segments)}",
    ]
    lines.extend(f"{a} {b}" for a, b in r.segments)
    return "\n".join(lines) + "\n"


def _expect(lines: list[str], idx: int, key: str) -> str:
    if idx >= len(lines):
        raise ParseError(idx + 1, f"expected '{key} ...', file ended")
    ln = lines[idx].rstrip("\n")
    if not ln.startswith(key + " ") and ln != key:
        raise ParseError(idx + 1, f"expected '{key} ...', got {ln!r}")
    return ln[len(key) :].strip()


def parse_result_file(text: str) -> ResultData:
    lines = text.splitlines()
    if not lines or lines[0].strip() != "result v1":
        raise ParseError(1, "expected 'result v1' header")
    mode = _expect(lines, 1, "mode")
    if mode not in ("crossing", "avoiding"):
        raise ParseError(2, f"mode must be crossing or avoiding, got {mode!r}")
    verified_s = _expect(lines, 2, "verified")
    if verified_s not in ("true", "false"):
        raise ParseError(3, f"verified must be true or false, got {verified_s!r}")
    seed_s = _expect(lines, 3, "seed")
    try:
        seed = int(seed_s)
    except ValueError:
        raise ParseError(4, f"bad seed {seed_s!r}") from None
    params_s = _expect(lines, 4, "params")
    params: list[tuple[str, str]] = []
    if params_s:
        for tok in params_s.split():
            if "=" not in tok:
                raise ParseError(5, f"bad parameter token {tok!r}")
            k, v = tok.split("=", 1)
            params.append((k, v))
    ms_s = _expect(lines, 5, "ms")
    try:
        ms = int(ms_s)
    except ValueError:
        raise ParseError(6, f"bad ms {ms_s!r}") from None
    seg_s = _expect(lines, 6, "segments")
    if not seg_s.startswith("n="):
        raise ParseError(7, f"expected 'segments n=<N>', got {seg_s!r}")
    try:
        count = int(seg_s[2:])
    except ValueError:
        raise ParseError(7, f"bad segment count {seg_s!r}") from None
    segs: list[Segment] = []
    for i in range(count):
        ln = 7 + i
        if ln >= len(lines):
            raise ParseError(ln + 1, f"expected {count} segments, file ends after {i}")
        toks = lines[ln].split()
        if len(toks) != 2:
            raise ParseError(ln + 1, f"expected '<i> <j>', got {lines[ln]!r}")
        try:
            segs.append((int(toks[0]), int(toks[1])))
        except ValueError:
            raise ParseError(ln + 1, f"bad segment indices {lines[ln]!r}") from None
    for ln in range(7 + count, len(lines)):
        if lines[ln].strip():
            raise ParseError(ln + 1, f"unexpected trailing content {lines[ln]!r}")
    return ResultData(mode, tuple(segs), verified_s == "true", tuple(params), seed, ms)


def strip_timing(text: str) -> str:
    """Result file content with the wall-clock line removed, for
    byte-comparisons that must ignore timing."""
    return "\n".join(ln for ln in text.splitlines() if not ln.startswith("ms ")) + "\n"


SVG_MARGIN = 4


def render_svg(G: GeometricGraph, family_segments) -> str:
    """Points, gray graph edges, and the family in a distinct stroke.

    The y axis is flipped so the picture matches mathematical orientation.
    """
    V = G.vertices
    xs = [p.x for p in V]
    ys = [-p.y for p in V]
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    w = max_x - min_x + 2 * SVG_MARGIN
    h = max_y - min_y + 2 * SVG_MARGIN
    stroke = max(w, h) / 400 or 1
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{min_x - SVG_MARGIN} {min_y - SVG_MARGIN} {w} {h}">'
    ]
    edge_cap = 5000
    drawn = 0
    for a, b in G.edges_iter():
        if drawn >= edge_cap:
            break
        pa, pb = V[a], V[b]
        out.append(
            f'<line x1="{pa.x}" y1="{-pa.y}" x2="{pb.x}" y2="{-pb.y}" '
            f'stroke="#bbbbbb" stroke-width="{stroke * 0.5:g}"/>'
        )
        drawn += 1
    for a, b in family_segments:
        pa, pb = V[a], V[b]
        out.append(
            f'<line x1="{pa.x}" y1="{-pa.y}" x2="{pb.x}" y2="{-pb.y}" '
            f'stroke="#cc2222" stroke-width="{stroke * 1.5:g}"/>'
        )
    for p in V:
        out.append(f'<circle cx="{p.x}" cy="{-p.y}" r="{stroke * 1.2:g}" fill="#222222"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
