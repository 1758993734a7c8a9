import dataclasses
import hashlib
import os
from fractions import Fraction

import pytest

import crossfam
from crossfam.cli import _run_config, build_parser, generate_points, main, run_bench
from crossfam.crossing import RunConfig
from crossfam.errors import ParseError, RangeTooSmallError
from crossfam.formats import (
    ResultData,
    parse_graph_file,
    parse_point_file,
    parse_result_file,
    render_graph_file,
    render_point_file,
    render_result_file,
    render_svg,
    strip_timing,
)
from crossfam.geom import GeometricGraph, Point, PointSet, convex_hull, general_position_check


def test_generate_kinds_general_position():
    for kind in ("random-disk", "convex", "grid-jitter"):
        V = generate_points(kind, 50, seed=1)
        assert general_position_check(V) is None
        assert len(V) == 50


def test_generate_convex_position():
    V = generate_points("convex", 4, seed=0)
    assert len(convex_hull(list(V))) == 4


def test_generate_two_points():
    for kind in ("random-disk", "convex", "grid-jitter"):
        V = generate_points(kind, 2, seed=0)
        assert len(V) == 2 and V[0] != V[1]


def test_generate_deterministic():
    a = generate_points("random-disk", 40, seed=9)
    b = generate_points("random-disk", 40, seed=9)
    assert a == b


@pytest.mark.parametrize("kind, n, seed, coord_range, sha256", [
    ("random-disk", 64, 3, 100, "2431b978a91274ae8dc2b76f9dba19ad65e856f2f1b1424e61c9cebf299a7404"),
    ("random-disk", 2048, 7, 1_000_000, "a19b5c1e5d2fb1411da7cf72dadcb2dea115aef7c2d5fbc574334d960770070e"),
    ("convex", 200, 0, 4000, "49ef5183b96e670cdf4b7f7fe6f5bd993e1f632c2865233fbecee4879889c00f"),
    ("convex", 300, 4, 10000, "dadae1535f37c689f79ef4c37d51fa6ebf7b2e89557faac90204c1e054482c8f"),
    ("grid-jitter", 64, 1, 100, "117ca225c3c89c390a09b2c4805da103b76f3d0e5d3719133c7d785be3d36b9c"),
    ("grid-jitter", 200, 2, 4000, "0c0db2c78e590cc21b193b3da16f0793f4e1f41a59991a12c952dfc1d8ea7511"),
])
def test_generate_points_pinned(kind, n, seed, coord_range, sha256):
    # Each of these inputs takes general-position fix-ups (a redrawn point,
    # or a redrawn convex arc), so the digests pin the witness order the
    # generator follows; benchmark inputs come from this generator.
    text = render_point_file(generate_points(kind, n, seed, coord_range))
    assert hashlib.sha256(text.encode()).hexdigest() == sha256


def test_generate_range_too_small():
    with pytest.raises(RangeTooSmallError):
        generate_points("grid-jitter", 100, seed=0, coord_range=16)


def test_point_file_roundtrip():
    V = generate_points("random-disk", 25, seed=3)
    text = render_point_file(V)
    assert parse_point_file(text) == V


def test_point_file_errors():
    with pytest.raises(ParseError) as e:
        parse_point_file("pointset v2 n=1\n0 0\n")
    assert e.value.line_no == 1
    with pytest.raises(ParseError) as e:
        parse_point_file("pointset v1 n=2\n0 0\n")
    assert e.value.line_no == 3
    with pytest.raises(ParseError) as e:
        parse_point_file("pointset v1 n=2\n0 0\nx 1\n")
    assert e.value.line_no == 3
    with pytest.raises(ParseError):
        parse_point_file("pointset v1 n=3\n0 0\n1 1\n2 2\n")  # collinear


def test_graph_file_roundtrip_complete():
    V = generate_points("random-disk", 10, seed=4)
    G = GeometricGraph.complete(V)
    text = render_graph_file(G)
    assert "edges complete" in text
    assert parse_graph_file(text) == G


def test_graph_file_roundtrip_edges():
    V = generate_points("random-disk", 8, seed=5)
    G = GeometricGraph.from_edges(V, [(0, 3), (1, 2), (4, 7)])
    assert parse_graph_file(render_graph_file(G)) == G


def test_graph_file_errors():
    V = PointSet([Point(0, 0), Point(3, 1), Point(1, 4)])
    base = render_point_file(V)
    # Lines 1-4 hold the points, line 5 the edge header, edges start at 6.
    cases = [
        ("", 5),  # missing edges line
        ("edges m=2\n0 1\n", 7),  # short file
        ("edges m=2\n0 1\n0 1 2\n", 7),  # wrong token count
        ("edges m=2\n0 1\n0 x\n", 7),  # non-integer
        ("edges m=2\n0 1\n2 1\n", 7),  # i >= j
        ("edges m=2\n0 1\n1 3\n", 7),  # j >= n
        ("edges m=3\n0 1\n1 2\n0 1\n", 8),  # duplicate
        ("edges m=1\n0 1\n1 2\n", 7),  # trailing content
        ("edges complete\n\n0 1\n", 7),  # trailing content
        ("edges m=-1\n", 5),  # negative edge count
    ]
    for tail, line_no in cases:
        with pytest.raises(ParseError) as e:
            parse_graph_file(base + tail)
        assert e.value.line_no == line_no, tail
    # A negative count is reported on its own header line.
    for text, line_no, message in (
        ("pointset v1 n=-3\nedges m=0\n", 1, "bad point count in 'pointset v1 n=-3'"),
        (base + "edges m=-1\n0 1\n", 5, "bad edge count in 'edges m=-1'"),
    ):
        with pytest.raises(ParseError) as e:
            parse_graph_file(text)
        assert (e.value.line_no, str(e.value)) == (line_no, f"line {line_no}: {message}")
    # A point-set witness names the line of its first point.
    for points, line_no in (("9 0\n0 0\n1 1\n2 2\n", 3), ("0 0\n3 1\n1 4\n3 1\n", 3)):
        with pytest.raises(ParseError) as e:
            parse_graph_file("pointset v1 n=4\n" + points + "edges m=1\n0 1\n")
        assert e.value.line_no == line_no


def test_result_file_roundtrip():
    r = ResultData(
        mode="crossing",
        segments=((0, 5), (1, 4)),
        verified=True,
        params=(("m", "4"), ("theory", "0")),
        seed=7,
        ms=123,
    )
    text = render_result_file(r)
    assert parse_result_file(text) == r
    assert "ms 123" in text
    assert "ms" not in strip_timing(text).split("\n")[5]


def test_result_file_negative_segment_count():
    text = "result v1\nmode crossing\nverified true\nseed 7\nparams \nms 1\nsegments n=-2\n"
    with pytest.raises(ParseError) as e:
        parse_result_file(text)
    assert (e.value.line_no, str(e.value)) == (7, "line 7: bad segment count 'n=-2'")


def test_cli_generate_run_verify_oracle(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    graph = tmp_path / "graph.txt"
    result = tmp_path / "result.txt"
    svg = tmp_path / "fig.svg"

    assert main(["generate", "convex", "-n", "12", "--seed", "0", "--out", str(pts)]) == 0
    V = parse_point_file(pts.read_text())
    graph.write_text(render_graph_file(GeometricGraph.complete(V)))

    rc = main(
        [
            "run",
            str(graph),
            "--mode",
            "crossing",
            "--seed",
            "0",
            "--out",
            str(result),
            "--svg",
            str(svg),
        ]
    )
    assert rc == 0
    r = parse_result_file(result.read_text())
    assert r.verified and 1 <= len(r.segments) <= 6
    assert svg.read_text().startswith("<svg")

    assert main(["verify", str(result), str(graph)]) == 0

    oracle_out = tmp_path / "oracle.txt"
    assert main(["oracle", str(graph), "--out", str(oracle_out)]) == 0
    o = parse_result_file(oracle_out.read_text())
    assert len(o.segments) == 6
    assert len(r.segments) <= len(o.segments)


def test_cli_verify_detects_corruption(tmp_path, capsys):
    pts = tmp_path / "g.txt"
    result = tmp_path / "r.txt"
    V = generate_points("convex", 8, seed=2)
    pts.write_text(render_graph_file(GeometricGraph.complete(V)))
    assert main(["run", str(pts), "--seed", "1", "--out", str(result)]) == 0
    r = parse_result_file(result.read_text())
    if len(r.segments) >= 2:
        # flip one endpoint to split a crossing pair
        segs = list(r.segments)
        a, b = segs[0]
        c, d = segs[1]
        segs[0], segs[1] = (a, c), (b, d)
        bad = ResultData(r.mode, tuple(segs), r.verified, r.params, r.seed, r.ms)
        badfile = tmp_path / "bad.txt"
        badfile.write_text(render_result_file(bad))
        assert main(["verify", str(badfile), str(pts)]) in (1, 2)


def test_cli_verify_out_of_range(tmp_path):
    graph = tmp_path / "g.txt"
    V = generate_points("random-disk", 6, seed=3)
    graph.write_text(render_graph_file(GeometricGraph.complete(V)))
    bad = ResultData("crossing", ((0, 99),), True, (), 0, 0)
    badfile = tmp_path / "bad.txt"
    badfile.write_text(render_result_file(bad))
    assert main(["verify", str(badfile), str(graph)]) == 2


def test_cli_parse_error_exit_code(tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("hello world\n")
    assert main(["run", str(f)]) == 2


def test_cli_run_rejects_eps_delta_above_two(tmp_path, capsys):
    # The zone budget eps*delta/2 must lie in (0, 1].
    graph = tmp_path / "g.txt"
    graph.write_text(render_graph_file(GeometricGraph.complete(generate_points("random-disk", 20, seed=2))))
    assert main(["run", str(graph), "--eps", "9", "--delta", "1/4"]) == 2
    assert "eps*delta" in capsys.readouterr().err
    out = tmp_path / "r.txt"
    assert main(["run", str(graph), "--eps", "8", "--delta", "1/4", "--out", str(out)]) == 0
    # Two m-clusters span at most m*m edges, so delta above 1 can never hold.
    assert main(["run", str(graph), "--delta", "3/2"]) == 2
    assert "delta must be at most 1" in capsys.readouterr().err
    assert main(["run", str(graph), "--delta", "1", "--out", str(out)]) == 0
    # The starting cluster size, the attempt cap and the recursion depth must be positive.
    for option, value in (
        ("--m", "0"), ("--m", "-4"), ("--max-retries", "0"), ("--max-retries", "-3"), ("--s", "0"), ("--s", "-3"),
    ):
        assert main(["run", str(graph), option, value, "--out", str(out)]) == 2
        assert f"{option[2:].replace('-', '_')} must be at least 1, got {value}" in capsys.readouterr().err
    assert main(["bench", "--sizes", "16", "--trials", "1", "--max-retries", "0"]) == 2
    assert "max_retries must be at least 1" in capsys.readouterr().err
    assert main(["bench", "--sizes", "8", "--trials", "0"]) == 2
    assert "trials must be at least 1, got 0" in capsys.readouterr().err


def test_cli_run_rejects_zero_denominator(tmp_path, capsys):
    # A zero denominator is a usage error (exit 2), as a malformed rational is.
    graph = tmp_path / "g.txt"
    graph.write_text(render_graph_file(GeometricGraph.complete(generate_points("random-disk", 20, seed=2))))
    for option in ("--eps", "--delta"):
        assert main(["run", str(graph), option, "abc"]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert main(["run", str(graph), option, "1/0"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {option[2:]} must be a rational with a nonzero denominator, got '1/0'\n"


def test_run_options_are_the_run_config_fields():
    # Every RunConfig field is set by a `crossfam run` option, and every run
    # option other than input, mode and output paths feeds RunConfig.
    argv = ["run", "g.txt", "--theory", "--m", "5", "--eps", "1/3", "--delta", "1/5",
            "--s", "2", "--seed", "9", "--max-retries", "4"]
    args = build_parser().parse_args(argv)
    assert _run_config(args, args.seed) == RunConfig(
        theory=True, m=5, eps=Fraction(1, 3), delta=Fraction(1, 5), s=2, seed=9, max_retries=4
    )
    assert not build_parser().parse_args(argv + ["--practical"]).theory
    options = set(vars(args)) - {"command", "func", "input", "mode", "svg", "out"}
    assert options == {f.name for f in dataclasses.fields(RunConfig)}


def test_public_names_resolve():
    assert all(hasattr(crossfam, name) for name in crossfam.__all__)


def test_cli_env_seed(tmp_path, monkeypatch):
    out1 = tmp_path / "a.txt"
    out2 = tmp_path / "b.txt"
    monkeypatch.setenv("CROSSFAM_SEED", "5")
    assert main(["generate", "random-disk", "-n", "10", "--out", str(out1)]) == 0
    monkeypatch.delenv("CROSSFAM_SEED")
    assert main(["generate", "random-disk", "-n", "10", "--seed", "5", "--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()


def test_cli_run_determinism(tmp_path):
    graph = tmp_path / "g.txt"
    V = generate_points("random-disk", 40, seed=8)
    graph.write_text(render_graph_file(GeometricGraph.complete(V)))
    outs = []
    for name in ("r1.txt", "r2.txt"):
        out = tmp_path / name
        assert main(["run", str(graph), "--seed", "3", "--out", str(out)]) == 0
        outs.append(strip_timing(out.read_text()))
    assert outs[0] == outs[1]


def test_run_bench_shape():
    rows, slope = run_bench([16, 24], trials=2, seed=0, mode="crossing")
    assert len(rows) == 4
    assert all(fs >= 1 for _, _, fs, _ in rows)
    assert slope is not None


def test_run_bench_two_point_instances():
    rows, slope = run_bench([2], trials=1, seed=0, mode="crossing")
    assert len(rows) == 1
    assert rows[0][0] == 2 and rows[0][2] == 1
    assert slope is None


def test_cli_bench_csv(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--sizes", "12,16", "--trials", "1", "--seed", "1", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,trial,family_size,ms"
    assert len([l for l in lines if not l.startswith("#")]) == 3
    assert lines[-1].startswith("# loglog_slope=")


def test_svg_contains_family():
    V = generate_points("convex", 6, seed=0)
    G = GeometricGraph.complete(V)
    svg = render_svg(G, [(0, 3)])
    assert svg.count("<circle") == 6
    assert "#cc2222" in svg
