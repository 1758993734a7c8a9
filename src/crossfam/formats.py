"""Flat text file formats and SVG rendering.

Versioned plain-text headers keep the files inspectable; parse errors carry
1-based line numbers, counted at the line boundaries ``str.splitlines``
uses. Every renderer round-trips through its parser.

Point, graph and result files are all read through one line reader,
``_Lines``, and end with one trailing-content check. One rule reads the
``key=<N>`` count of every header (``_count``), and one rule reads a line of
two integers (``_edge_tokens``), for edge and segment lines alike.

A graph file's edge list is decoded in bulk: ``parse_graph_file`` splits
off only the point lines and the ``edges`` header as strings, then finds
the edge lines and decodes every ``<digits> <digits>`` line with numpy,
with no Python object per line. Any other line (a tab, a sign, an
underscore, a non-ASCII digit or a bad token) goes through the scalar
``split``/``int`` rule, so the accepted grammar, and each error's line and
message, are those of a line-by-line parse. The range, ``i < j`` and
duplicate checks run on the index arrays, and ``geom.neighbour_masks`` sets
the neighbour bits. Extra memory is O(E) plus one slab of about 4 MB plus
the n²/8 bytes of the masks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GeneralPositionError, ParseError
from .geom import COORD_LIMIT, GeometricGraph, PointSet, Segment, neighbour_masks

# Every line boundary of str.splitlines other than "\n"; "\r\n" is one.
_OTHER_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_TO_NEWLINE = dict.fromkeys(map(ord, _OTHER_BREAKS), "\n")
# Longest digit run decoded in int32 (10**9 < 2**31); a longer one takes
# the scalar rule.
_MAX_DIGITS = 9


class _Lines:
    """The lines of a text, as ``str.splitlines`` gives them, split off the
    front. ``rest`` is the text not yet taken, and ``line_no`` the number of
    the last line taken."""

    def __init__(self, text: str, line_no: int = 0):
        # Rewriting each boundary as one "\n" leaves every line unchanged.
        if any(ch in text for ch in _OTHER_BREAKS):
            text = text.replace("\r\n", "\n").translate(_TO_NEWLINE)
        self.rest = text
        self.line_no = line_no

    def take(self, count: int) -> list[str]:
        """The next ``count`` lines, fewer if the text ends first."""
        if not self.rest:
            return []
        # A text has fewer lines than characters, so the cap keeps every
        # line and a huge count within split's range.
        *lines, rest = self.rest.split("\n", min(count, len(self.rest)))
        if len(lines) < count:
            # The text ended; what follows its last "\n" is a last line
            # unless it is empty.
            if rest:
                lines.append(rest)
            rest = ""
        self.rest = rest
        self.line_no += len(lines)
        return lines


def _reject_trailing(lines: _Lines) -> None:
    # Every line boundary is whitespace, so a blank rest holds blank lines.
    if lines.rest.strip():
        for i, line in enumerate(lines.rest.split("\n"), lines.line_no + 1):
            if line.strip():
                raise ParseError(i, f"unexpected trailing content {line!r}")


def _count(field: str) -> int:
    """The whole number after the ``=`` of a ``key=<N>`` header field, or -1."""
    try:
        return max(int(field.partition("=")[2]), -1)
    except ValueError:
        return -1


def render_point_file(V: PointSet) -> str:
    lines = [f"pointset v1 n={len(V)}"]
    lines.extend(f"{x} {y}" for x, y in V.coords)
    return "\n".join(lines) + "\n"


def _parse_points(lines: _Lines) -> PointSet:
    """The point set at the front of a file: its header and point lines."""
    header = "".join(lines.take(1)).strip()
    parts = header.split()
    if len(parts) != 3 or parts[0] != "pointset" or parts[1] != "v1" or not parts[2].startswith("n="):
        raise ParseError(1, f"expected 'pointset v1 n=<N>', got {header!r}")
    n = _count(parts[2])
    if n < 0:
        raise ParseError(1, f"bad point count in {header!r}")
    pts = []
    taken = lines.take(n)
    for i, line in enumerate(taken):
        toks = line.split()
        if len(toks) != 2:
            raise ParseError(i + 2, f"expected '<x> <y>', got {line!r}")
        try:
            x, y = int(toks[0]), int(toks[1])
            if abs(x) > COORD_LIMIT or abs(y) > COORD_LIMIT:
                raise ValueError
        except ValueError:
            raise ParseError(i + 2, f"bad integer coordinates {line!r}") from None
        pts.append((x, y))
    if len(taken) < n:
        raise ParseError(len(taken) + 2, f"expected {n} points, file ends after {len(taken)}")
    try:
        return PointSet(pts)
    except GeneralPositionError as e:
        raise ParseError(2 + min(e.witness), str(e)) from None


def parse_point_file(text: str) -> PointSet:
    lines = _Lines(text)
    V = _parse_points(lines)
    _reject_trailing(lines)
    return V


def render_graph_file(G: GeometricGraph) -> str:
    out = render_point_file(G.vertices)
    if G.is_complete:
        return out + "edges complete\n"
    out += f"edges m={G.edge_count}\n"
    return out + "".join(f"{a} {b}\n" for a, b in G.edges_iter())


def parse_graph_file(text: str) -> GeometricGraph:
    lines = _Lines(text)
    V = _parse_points(lines)
    taken = lines.take(1)
    if not taken:
        raise ParseError(lines.line_no + 1, "expected an 'edges' line")
    header = taken[0].strip()
    if header == "edges complete":
        G = GeometricGraph.complete(V)
    else:
        parts = header.split()
        if len(parts) != 2 or parts[0] != "edges" or not parts[1].startswith("m="):
            raise ParseError(
                lines.line_no, f"expected 'edges m=<M>' or 'edges complete', got {header!r}"
            )
        m = _count(parts[1])
        if m < 0:
            raise ParseError(lines.line_no, f"bad edge count in {header!r}")
        G, lines = _parse_edges(V, m, lines)
    _reject_trailing(lines)
    return G


def _edge_tokens(line: str, line_no: int, what: str = "edge indices") -> tuple[int, int]:
    """The scalar rule for one edge or segment line: two ``int`` tokens.
    ``what`` names them in the message for a token that is not one."""
    toks = line.split()
    if len(toks) != 2:
        raise ParseError(line_no, f"expected '<i> <j>', got {line!r}")
    try:
        return int(toks[0]), int(toks[1])
    except ValueError:
        raise ParseError(line_no, f"bad {what} {line!r}") from None


def _decimal(c: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Values of the ASCII digit runs ``c[lo[k]:hi[k]]``, each at most
    ``_MAX_DIGITS`` long; an empty run is 0."""
    val = np.zeros(len(lo), dtype=np.int32)
    for k in range(int((hi - lo).max(initial=0))):
        at = np.minimum(lo + k, hi)
        val = np.where(at < hi, val * 10 + (c[at].astype(np.int32) - 48), val)
    return val


def _parse_edges(V: PointSet, m: int, lines: _Lines) -> tuple[GeometricGraph, _Lines]:
    """The graph on V whose m edge lines follow the last line taken from
    ``lines``, and the lines after them.

    The first bad line in file order raises, with the message the scalar
    rule and the checks of a line-by-line parse give it.
    """
    n = len(V)
    line_no = lines.line_no + 1  # of the first edge line
    data = lines.rest.encode("utf-8", "surrogatepass")
    if data and not data.endswith(b"\n"):
        data += b"\n"
    c = np.frombuffer(data, dtype=np.uint8)
    # ``nd`` holds the offsets of the non-digits and ``brk`` the positions
    # in ``nd`` of the breaks that end the first m lines. Below 2 GiB of
    # text the offsets fit in int32, which halves every array here.
    offset = np.int32 if len(data) < 2**31 else np.int64
    nd = np.flatnonzero((c < 48) | (c > 57)).astype(offset)
    brk = np.flatnonzero(c[nd] == 10)[:m]
    k = len(brk)
    ends = nd[brk]
    starts = np.concatenate((np.zeros(1, offset), ends + 1))[:k]
    # A line of the bulk form holds one non-digit, a space, between two
    # nonempty digit runs; it is the non-digit before the line's break.
    space = nd[brk - 1]
    bulk = np.diff(brk, prepend=-1) == 2
    del nd, brk
    bulk &= (
        (c[space] == 32)
        & (starts < space)
        & (space < ends - 1)
        & (space - starts <= _MAX_DIGITS)
        & (ends - space <= _MAX_DIGITS + 1)
    )
    a = _decimal(c, starts, np.where(bulk, space, starts))
    b = _decimal(c, np.where(bulk, space + 1, ends), ends)
    del space

    def line_at(i: int) -> str:
        return data[starts[i] : ends[i]].decode("utf-8", "surrogatepass")

    # Lines before ``parsed`` have indices; the line at ``parsed`` (if < k)
    # fails the scalar rule with ``token_error``.
    parsed, token_error = k, None
    for i in np.flatnonzero(~bulk).tolist():
        try:
            pair = _edge_tokens(line_at(i), line_no + i)
        except ParseError as e:
            parsed, token_error = i, e
            break
        # An index outside [0, n) fails the range check whatever its value;
        # -1 keeps it within int32.
        a[i], b[i] = (v if 0 <= v < n else -1 for v in pair)
    a, b = a[:parsed], b[:parsed]
    out_of_range = np.flatnonzero((a < 0) | (a >= b) | (b >= n))
    good = int(out_of_range[0]) if len(out_of_range) else parsed
    a, b = a[:good], b[:good]
    G = GeometricGraph(V, neighbour_masks(n, a, b))
    if G.edge_count != good:
        # Fewer distinct edges than lines: report the first repeat.
        key = a.astype(np.int64) * n + b
        order = np.argsort(key, kind="stable")
        first = int(order[1:][key[order[1:]] == key[order[:-1]]].min())
        raise ParseError(line_no + first, f"duplicate edge ({a[first]}, {b[first]})")
    if good < parsed:
        i, j = _edge_tokens(line_at(good), line_no + good)
        raise ParseError(line_no + good, f"edge ({i}, {j}) must satisfy 0 <= i < j < n")
    if token_error is not None:
        raise token_error
    if k < m:
        raise ParseError(line_no + k, f"expected {m} edges, file ends after {k}")
    tail = data[ends[-1] + 1 if k else 0 :].decode("utf-8", "surrogatepass")
    return G, _Lines(tail, lines.line_no + m)


@dataclass(frozen=True)
class ResultData:
    """Parsed contents of a result file. ``ms`` is wall-clock, so two runs
    of one input may differ in it alone."""

    mode: str
    segments: tuple[Segment, ...]
    verified: bool
    params: tuple[tuple[str, str], ...]
    seed: int
    ms: int


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
    ln = lines[idx]
    if not ln.startswith(key + " ") and ln != key:
        raise ParseError(idx + 1, f"expected '{key} ...', got {ln!r}")
    return ln[len(key) :].strip()


def parse_result_file(text: str) -> ResultData:
    lines = _Lines(text)
    head = lines.take(7)
    if not head or head[0].strip() != "result v1":
        raise ParseError(1, "expected 'result v1' header")
    mode = _expect(head, 1, "mode")
    if mode not in ("crossing", "avoiding"):
        raise ParseError(2, f"mode must be crossing or avoiding, got {mode!r}")
    verified_s = _expect(head, 2, "verified")
    if verified_s not in ("true", "false"):
        raise ParseError(3, f"verified must be true or false, got {verified_s!r}")
    seed_s = _expect(head, 3, "seed")
    try:
        seed = int(seed_s)
    except ValueError:
        raise ParseError(4, f"bad seed {seed_s!r}") from None
    params_s = _expect(head, 4, "params")
    params: list[tuple[str, str]] = []
    for tok in params_s.split():
        if "=" not in tok:
            raise ParseError(5, f"bad parameter token {tok!r}")
        k, v = tok.split("=", 1)
        params.append((k, v))
    ms_s = _expect(head, 5, "ms")
    try:
        ms = int(ms_s)
    except ValueError:
        raise ParseError(6, f"bad ms {ms_s!r}") from None
    seg_s = _expect(head, 6, "segments")
    if not seg_s.startswith("n="):
        raise ParseError(7, f"expected 'segments n=<N>', got {seg_s!r}")
    count = _count(seg_s)
    if count < 0:
        raise ParseError(7, f"bad segment count {seg_s!r}")
    taken = lines.take(count)
    segs = [_edge_tokens(line, 8 + i, "segment indices") for i, line in enumerate(taken)]
    if len(taken) < count:
        raise ParseError(8 + len(taken), f"expected {count} segments, file ends after {len(taken)}")
    _reject_trailing(lines)
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
    coords = G.vertices.coords
    xs = [x for x, _ in coords]
    ys = [-y for _, y in coords]
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
        (ax, ay), (bx, by) = coords[a], coords[b]
        out.append(
            f'<line x1="{ax}" y1="{-ay}" x2="{bx}" y2="{-by}" '
            f'stroke="#bbbbbb" stroke-width="{stroke * 0.5:g}"/>'
        )
        drawn += 1
    for a, b in family_segments:
        (ax, ay), (bx, by) = coords[a], coords[b]
        out.append(
            f'<line x1="{ax}" y1="{-ay}" x2="{bx}" y2="{-by}" '
            f'stroke="#cc2222" stroke-width="{stroke * 1.5:g}"/>'
        )
    for x, y in coords:
        out.append(f'<circle cx="{x}" cy="{-y}" r="{stroke * 1.2:g}" fill="#222222"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
