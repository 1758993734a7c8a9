"""Differential tests of the bulk graph-file parser and mask builder.

``reference_parse_graph_file`` is the line-by-line parser that
``formats.parse_graph_file`` replaced: every text must give an equal graph,
or a ``ParseError`` with the same line number and message, from both.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossfam.errors import GeneralPositionError, ParseError
from crossfam.formats import parse_graph_file, render_graph_file, render_point_file
from crossfam.geom import GeometricGraph, Point, PointSet


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
    for ln in range(at, len(lines)):
        if lines[ln].strip():
            raise ParseError(ln + 1, f"unexpected trailing content {lines[ln]!r}")
    return G


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
