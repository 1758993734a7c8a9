"""Differential tests of the file parsers and the mask builder.

``reference_parse_graph_file`` is the line-by-line parser that
``formats.parse_graph_file`` replaced, and ``reference_parse_result_file``
the ``str.splitlines`` parser that ``formats.parse_result_file`` replaced:
every text must give an equal graph or result, or a ``ParseError`` with the
same line number and message, from both.
"""

from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossfam import geom
from crossfam.errors import GeneralPositionError, ParseError
from crossfam.formats import (
    ResultData,
    parse_graph_file,
    parse_point_file,
    parse_result_file,
    render_graph_file,
    render_point_file,
    render_result_file,
)
from crossfam.geom import COORD_LIMIT, GeometricGraph, Point, PointSet


def _reference_point_lines(lines: list[str], start: int) -> tuple[PointSet, int]:
    header = lines[start].strip() if start < len(lines) else ""
    parts = header.split()
    if len(parts) != 3 or parts[0] != "pointset" or parts[1] != "v1" or not parts[2].startswith("n="):
        raise ParseError(start + 1, f"expected 'pointset v1 n=<N>', got {header!r}")
    try:
        n = int(parts[2][2:])
    except ValueError:
        raise ParseError(start + 1, f"bad point count in {header!r}") from None
    if n < 0:
        raise ParseError(start + 1, f"bad point count in {header!r}")
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
        raise ParseError(start + 2 + min(e.witness), str(e)) from None
    return V, start + 1 + n


def _reference_trailing(lines: list[str], at: int) -> None:
    for ln in range(at, len(lines)):
        if lines[ln].strip():
            raise ParseError(ln + 1, f"unexpected trailing content {lines[ln]!r}")


def reference_parse_point_file(text: str) -> PointSet:
    lines = text.splitlines()
    V, at = _reference_point_lines(lines, 0)
    _reference_trailing(lines, at)
    return V


def reference_parse_graph_file(text: str) -> GeometricGraph:
    """One ``split``/``int`` step and one mask update per edge line."""
    lines = text.splitlines()
    V, at = _reference_point_lines(lines, 0)
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
        if m < 0:
            raise ParseError(at + 1, f"bad edge count in {header!r}")
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
    _reference_trailing(lines, at)
    return G


def _reference_expect(lines: list[str], idx: int, key: str) -> str:
    if idx >= len(lines):
        raise ParseError(idx + 1, f"expected '{key} ...', file ended")
    ln = lines[idx].rstrip("\n")
    if not ln.startswith(key + " ") and ln != key:
        raise ParseError(idx + 1, f"expected '{key} ...', got {ln!r}")
    return ln[len(key) :].strip()


def reference_parse_result_file(text: str) -> ResultData:
    """Indexes into ``text.splitlines()``, with its own trailing-content loop."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != "result v1":
        raise ParseError(1, "expected 'result v1' header")
    mode = _reference_expect(lines, 1, "mode")
    if mode not in ("crossing", "avoiding"):
        raise ParseError(2, f"mode must be crossing or avoiding, got {mode!r}")
    verified_s = _reference_expect(lines, 2, "verified")
    if verified_s not in ("true", "false"):
        raise ParseError(3, f"verified must be true or false, got {verified_s!r}")
    seed_s = _reference_expect(lines, 3, "seed")
    try:
        seed = int(seed_s)
    except ValueError:
        raise ParseError(4, f"bad seed {seed_s!r}") from None
    params_s = _reference_expect(lines, 4, "params")
    params: list[tuple[str, str]] = []
    if params_s:
        for tok in params_s.split():
            if "=" not in tok:
                raise ParseError(5, f"bad parameter token {tok!r}")
            k, v = tok.split("=", 1)
            params.append((k, v))
    ms_s = _reference_expect(lines, 5, "ms")
    try:
        ms = int(ms_s)
    except ValueError:
        raise ParseError(6, f"bad ms {ms_s!r}") from None
    seg_s = _reference_expect(lines, 6, "segments")
    if not seg_s.startswith("n="):
        raise ParseError(7, f"expected 'segments n=<N>', got {seg_s!r}")
    try:
        count = int(seg_s[2:])
    except ValueError:
        count = -1
    if count < 0:
        raise ParseError(7, f"bad segment count {seg_s!r}")
    segs = []
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


def reference_from_edges(V: PointSet, edges) -> tuple[int, ...]:
    """Neighbour masks built one pair at a time, with from_edges's checks."""
    n = len(V)
    adj = [0] * n
    for a, b in edges:
        if a == b:
            raise ValueError(f"self-loop at vertex {a}")
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"edge ({a}, {b}) out of range for {n} vertices")
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return tuple(adj)


def _outcome(parse, text: str):
    try:
        G = parse(text)
    except ParseError as e:
        return ("error", e.line_no, str(e))
    return ("graph", G.vertices, G._adj, G.edge_count, G.is_complete)


def _assert_same(text: str) -> None:
    assert _outcome(parse_graph_file, text) == _outcome(reference_parse_graph_file, text)


def _parabola(n: int) -> PointSet:
    # No three points of a parabola are collinear.
    return PointSet([Point(i, i * i) for i in range(n)])


SIZES = (0, 1, 2, 7, 8, 9, 64, 65)
BREAKS = ("\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
SEPARATORS = ("\t", "  ", " \t ", "\xa0", "\u3000", "\x1f")
OTHER_DIGITS = (
    str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"),  # Arabic-Indic
    str.maketrans("0123456789", "０１２３４５６７８９"),  # fullwidth
)


def _number_form(draw, tok: str) -> str:
    form = draw(st.sampled_from(("plus", "zeros", "many-zeros", "underscore", "digits")))
    if form == "plus":
        return "+" + tok
    if form == "zeros":
        return "00" + tok
    if form == "many-zeros":  # longer than the bulk decoder's digit runs
        return "0" * 12 + tok
    if form == "underscore" and len(tok) >= 2:
        return tok[0] + "_" + tok[1:]
    return tok.translate(draw(st.sampled_from(OTHER_DIGITS)))


@st.composite
def graph_texts(draw):
    """A rendered graph file, then a few perturbations of its edge block."""
    n = draw(st.sampled_from(SIZES))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from((0.0, 0.1, 0.5, 1.0)))
    V = _parabola(n)
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < density]
    if draw(st.booleans()) and density == 1.0:
        return render_graph_file(GeometricGraph.from_edges(V, edges)) + draw(
            st.sampled_from(("", "\n", " \n\x0c", "0 1\n"))
        )
    toks = [[str(a), str(b)] for a, b in edges]
    seps = [" "] * len(toks)
    ends = ["\n"] * len(toks)
    m = len(toks)
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(
            ("separator", "break", "blank", "number", "tokens", "edge", "duplicate",
             "duplicate-last", "count", "trailing")
        ))
        i = draw(st.integers(0, len(toks) - 1)) if toks else None
        if op == "count":
            m = max(0, m + draw(st.sampled_from((-2, -1, 1, 2))))
        elif op == "duplicate-last" and toks:
            toks.append(list(toks[-1]))
            seps.append(" ")
            ends.append("\n")
            m += 1
        elif op == "trailing":
            toks.append([draw(st.sampled_from(("", " ", "\t", "x", "0 1")))])
            seps.append(" ")
            ends.append("\n")
        elif i is None:
            continue
        elif op == "separator":
            seps[i] = draw(st.sampled_from(SEPARATORS))
            if draw(st.booleans()):
                toks[i][-1] += draw(st.sampled_from((" ", "\t", "  ")))
        elif op == "break":
            ends[i] = draw(st.sampled_from(BREAKS))
        elif op == "blank":
            toks.insert(i, [draw(st.sampled_from(("", " ", "\t")))])
            seps.insert(i, " ")
            ends.insert(i, "\n")
        elif op == "number" and len(toks[i]) == 2:
            t = draw(st.integers(0, 1))
            toks[i][t] = _number_form(draw, toks[i][t])
        elif op == "tokens":
            x, y = (toks[i] + ["1", "2"])[:2]
            toks[i] = draw(st.sampled_from((
                [x], ["", y], [x, ""], [x, y, "3"], ["x", y], ["1.5", y], ["0x1", y],
            )))
        elif op == "edge":
            a = draw(st.integers(0, max(n - 1, 0)))
            toks[i] = [str(v) for v in draw(st.sampled_from((
                (a, a), (a + 1, a), (a, n), (a, n + 5), (-1, a), (a, -3), (a, 10**20), (10**10, a),
                # Ten digits, which wrap to small indices in 32 bits.
                (a, 2**32 + a + 1), (2**32, a + 1),
            )))]
        elif op == "duplicate":
            j = draw(st.integers(i, len(toks)))
            toks.insert(j, list(toks[i]))
            seps.insert(j, " ")
            ends.insert(j, "\n")
    body = "".join(sep.join(t) + end for t, sep, end in zip(toks, seps, ends))
    text = render_point_file(V) + f"edges m={m}\n" + body
    if draw(st.booleans()):
        text = text.replace("\n", draw(st.sampled_from(("\r\n", "\n"))))
    if draw(st.booleans()):
        text = text.rstrip("\n")
    return text


@given(graph_texts())
@settings(max_examples=400, deadline=None)
@example("pointset v1 n=2\n0 0\n1 1\nedges m=1\n0 1")
@example("pointset v1 n=2\n0 0\n1 1\nedges m=2\n0 1\n0 1")
@example("pointset v1 n=2\n0 0\n1 1\nedges m=1\n0 1\n0 1")
@example("pointset v1 n=3\n0 0\n1 1\n2 5\nedges m=1\n\ud800 1\n")
@example("pointset v1 n=3\n0 0\n1 1\n2 5\nedges m=1\n0\x1f2\n")
@example("pointset v1 n=3\n0 0\n1 1\n2 5\nedges m=2\n1 2\r\r\n0 1\n")
@example("pointset v1 n=3\n0 0\n1 1\n2 5\nedges m=0\n\n 　\n")
def test_parser_matches_reference(text):
    _assert_same(text)


@pytest.mark.parametrize("header", ("n=-3", "n=x", "n=", "n=+2", "n=2", "n=3", "n=" + "9" * 25))
def test_parser_matches_reference_on_headers(header):
    for edges in ("edges m=1\n0 1\n", "edges m=-1\n", "edges m=x\n", "edges\n", "edges complete\n", "",
                  "edges m=" + "9" * 25 + "\n0 1\n"):
        _assert_same(f"pointset v1 {header}\n0 0\n1 1\n" + edges)


@given(
    st.sampled_from(SIZES),
    st.lists(st.tuples(st.integers(-2, 67), st.integers(-2, 67)), max_size=40),
)
@settings(max_examples=200, deadline=None)
@example(2, [(0, 1), (1, 1)])  # self-loop
@example(2, [(0, 1), (0, 2)])  # out of range
@example(9, [(3, -1), (4, 4)])
@example(9, [(3, 5), (5, 3), (3, 5)])  # repeated in both orders
def test_from_edges_matches_reference(n, edges):
    V = _parabola(n)
    try:
        expect = reference_from_edges(V, edges)
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            GeometricGraph.from_edges(V, edges)
        assert str(got.value) == str(e)
        return
    G = GeometricGraph.from_edges(V, iter(edges))
    assert G._adj == expect
    assert G.edge_count == sum(mask.bit_count() for mask in expect) // 2


@given(
    st.sampled_from(SIZES),
    st.lists(st.tuples(st.integers(0, 64), st.integers(0, 64)), max_size=60),
    st.sampled_from((1, 3, 64)),
)
@settings(max_examples=200, deadline=None)
@example(65, [(0, 64), (64, 1), (7, 8), (8, 7)], 64)
@example(9, [(0, 8), (6, 7), (7, 8), (8, 1), (5, 3)], 64)  # slabs of 7 and 2 rows
def test_neighbour_masks_in_slabs_match_reference(n, edges, slab_bytes):
    # With slabs of a few rows, each slab takes its own run of the sorted
    # edge ends; the parser and from_edges must still build every mask.
    edges = [(a, b) for a, b in edges if a != b and max(a, b) < n]
    V = _parabola(n)
    distinct = sorted({(min(e), max(e)) for e in edges})
    text = render_point_file(V) + f"edges m={len(distinct)}\n" + "".join(f"{a} {b}\n" for a, b in distinct)
    with mock.patch.object(geom, "_SLAB_BYTES", slab_bytes):
        assert GeometricGraph.from_edges(V, edges)._adj == reference_from_edges(V, edges)
        _assert_same(text)


@st.composite
def point_texts(draw):
    """A rendered point file, then a few perturbations of its point block."""
    n = draw(st.sampled_from(SIZES))
    rows = [[str(x), str(y)] for x, y in _parabola(n).coords]
    seps = [" "] * n
    ends = ["\n"] * n
    count = n
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(
            ("number", "sign", "separator", "tokens", "limit", "repeat", "collinear", "break", "count")
        ))
        if op == "count":
            count = max(0, count + draw(st.sampled_from((-2, -1, 1, 2))))
            continue
        if not rows:
            continue
        i = draw(st.integers(0, len(rows) - 1))
        t = draw(st.integers(0, 1))
        if op == "number" and len(rows[i]) == 2:
            rows[i][t] = _number_form(draw, rows[i][t])
        elif op == "sign" and len(rows[i]) == 2:
            rows[i][t] = draw(st.sampled_from(("-", "+", "-0", "+-", "--"))) + rows[i][t].lstrip("+-")
        elif op == "separator":
            seps[i] = draw(st.sampled_from(SEPARATORS))
            if draw(st.booleans()):
                rows[i][-1] += draw(st.sampled_from((" ", "\t", "  ")))
        elif op == "tokens":
            x, y = (rows[i] + ["1", "2"])[:2]
            rows[i] = draw(st.sampled_from(([x], [x, y, "3"], [x, y, y], ["x", y], ["1.5", y], ["0x1", y], [""])))
        elif op == "limit" and len(rows[i]) == 2:
            big = draw(st.sampled_from((COORD_LIMIT, COORD_LIMIT + 1, 10**20)))
            rows[i][t] = str(draw(st.sampled_from((big, -big))))
        elif op == "repeat":
            j = draw(st.integers(0, len(rows) - 1))
            rows[j] = list(rows[i])
        elif op == "collinear" and len(rows) >= 3:
            # 2b - a lies on the line through a and b, beyond b.
            a, b, j = draw(st.permutations(range(len(rows))))[:3]
            try:
                (ax, ay), (bx, by) = (map(int, rows[k]) for k in (a, b))
            except ValueError:
                continue
            rows[j] = [str(2 * bx - ax), str(2 * by - ay)]
        elif op == "break":
            ends[i] = draw(st.sampled_from(BREAKS))
    body = "".join(sep.join(r) + end for r, sep, end in zip(rows, seps, ends))
    return f"pointset v1 n={count}\n" + body


def _point_outcome(parse, text: str):
    try:
        return ("points", parse(text).coords)
    except ParseError as e:
        return ("error", e.line_no, str(e))


@given(point_texts(), st.sampled_from(("", "\n", " \n", "1 2\n")))
@settings(max_examples=400, deadline=None)
@example(f"pointset v1 n=3\n0 0\n1 1\n{COORD_LIMIT} -{COORD_LIMIT}\n", "")
@example(f"pointset v1 n=3\n0 0\n1 {COORD_LIMIT + 1}\n2 x\n", "")
@example("pointset v1 n=3\n0 0\n-٣ +5\n1_0 ９\n", "")
@example("pointset v1 n=4\n0 0\n1 1\n5 2\n3 3\n", "")
@example("pointset v1 n=4\n0 0\n1 1\n5 2\n1 1\n", "")
@example("pointset v1 n=3\n0\t0\n1 1 \n2\t 5\n", "")
@example("pointset v1 n=3\n0 0\n1 1\n", "")
def test_point_block_matches_reference(text, tail):
    # The same point block read as a point file, with what follows it as
    # trailing lines, and as the head of a complete graph file.
    assert _point_outcome(parse_point_file, text + tail) == _point_outcome(reference_parse_point_file, text + tail)
    _assert_same(text + "edges complete\n" + tail)


def test_graph_parse_builds_no_point(monkeypatch):
    text = render_graph_file(GeometricGraph.complete(_parabola(256)))
    built = []
    post_init = Point.__post_init__
    monkeypatch.setattr(Point, "__post_init__", lambda p: built.append(p) or post_init(p))
    G = parse_graph_file(text)
    assert len(G.vertices) == 256 and G.is_complete
    assert built == []
    p = G.vertices[5]  # indexing builds one Point
    assert built == [p] and p == Point(5, 25)


def _result_outcome(parse, text: str):
    try:
        return ("result", parse(text))
    except ParseError as e:
        return ("error", e.line_no, str(e))


RESULT_KEYS = ("result", "mode", "verified", "seed", "params", "ms", "segments")
# A header line's value that its own check refuses; the params value has a
# token without "=".
BAD_VALUES = {
    "mode": ("crossed", "", "crossing avoiding"),
    "verified": ("yes", "", "True"),
    "seed": ("x", "1.5", "", "0x10"),
    "params": ("m", "m=4 theory", "=x y"),
    "ms": ("fast", "", "-"),
}


@st.composite
def result_texts(draw):
    """A rendered result file, then a few perturbations of its lines."""
    r = ResultData(
        mode=draw(st.sampled_from(("crossing", "avoiding"))),
        segments=tuple(draw(st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)), max_size=8))),
        verified=draw(st.booleans()),
        params=tuple(draw(st.lists(
            st.tuples(st.sampled_from(("m", "eps", "theory", "s")), st.sampled_from(("1", "1/4", "a=b", ""))),
            max_size=3,
        ))),
        seed=draw(st.integers(-(2**40), 2**40)),
        ms=draw(st.integers(0, 10**6)),
    )
    lines = render_result_file(r).split("\n")[:-1]
    # Values first, at the rendered positions; then the line structure.
    ops = draw(st.lists(st.sampled_from(
        ("value", "count", "segment", "drop", "duplicate", "misspell", "trailing")
    ), max_size=3))
    for op in sorted(ops, key=lambda op: op not in ("value", "count", "segment")):
        if op == "value":
            key = draw(st.sampled_from(sorted(BAD_VALUES)))
            lines[RESULT_KEYS.index(key)] = f"{key} {draw(st.sampled_from(BAD_VALUES[key]))}"
        elif op == "count":
            n = len(r.segments)
            lines[6] = "segments " + draw(st.sampled_from((
                f"n={max(0, n + draw(st.sampled_from((-2, -1, 1, 2))))}",
                f"n=-{draw(st.integers(1, 3))}", "n=x", "n=", f"n={n}x", f"m={n}", f"n = {n}",
            )))
        elif op == "segment" and r.segments:
            i = draw(st.integers(0, len(r.segments) - 1))
            a, b = r.segments[i]
            lines[7 + i] = draw(st.sampled_from((f"{a}", f"{a} {b} 3", f"{a} x", f"1.5 {b}", f"{a} {b}.0", "")))
        elif op in ("drop", "duplicate", "misspell") and lines:
            i = draw(st.integers(0, min(6, len(lines) - 1)))
            if op == "drop":
                del lines[i]
            elif op == "duplicate":
                lines.insert(i, lines[i])
            else:
                key = lines[i].split(" ", 1)[0]
                lines[i] = lines[i].replace(key, draw(st.sampled_from((key[:-1], key + "s", key.upper()))), 1)
        elif op == "trailing":
            lines.append(draw(st.sampled_from(("", " ", "\t", "x", "0 1"))))
    ends = [draw(st.sampled_from(("\n", "\n", "\r\n", "\r", "\x0b", "\x85", "\u2028"))) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text.rstrip("\n")
    return text


@given(result_texts())
@settings(max_examples=400, deadline=None)
@example("")
@example("\n")
@example("result v1")
@example("result v1\nmode crossing\nverified true\nseed 1\nparams\nms 0\nsegments n=0")
@example("result v1\nmode crossing\nverified true\nseed 1\nparams \nms 0\nsegments n=2\n0 1\n")
@example("result v1\nmode avoiding\nverified false\nseed -3\nparams m=4\nms 5\nsegments n=1\n0 1\n\n \n2 3\n")
@example("result v1\r\nmode crossing\rverified true\x0bseed 1\x85params\u2028ms 0\nsegments n=1\r\n0 1")
@example("result v1\nmode crossing\nverified true\nseed 1\nparams\nms 0\nsegments n=" + "9" * 25 + "\n0 1\n")
@example("result v1\nmode crossing\nverified true\nseed 1\nparams\nms 0\nsegments n=1\n0\x1f1\n")
def test_result_parser_matches_reference(text):
    assert _result_outcome(parse_result_file, text) == _result_outcome(reference_parse_result_file, text)
