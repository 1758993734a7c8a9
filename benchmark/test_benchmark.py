"""Tests of the benchmark itself, on small instances.

Run from the repository root:  python3 -m pytest benchmark -q
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import crossfam.cli  # noqa: E402
import run  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS as W, batch_texts, digest, graph_text  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
COUNT_SUFFIXES = (".calls", ".pairs", ".lines", ".clusters", ".segments", "_ratio")


SMALL = {name: dataclasses.replace(w, n=48, instances=2) for name, w in W.items()}


@lru_cache(maxsize=None)
def bench_run(workload: str, trace: int, repeat: int = 0):
    """Run the benchmark in-process on two instances at n=48; returns
    (result, stdout lines)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.4",
                         "--trace", str(trace)], workloads=SMALL)
    assert code == 0
    lines = out.getvalue().strip().splitlines()
    return json.loads(lines[-1]), tuple(lines)


def inputs(lines) -> list[tuple[str, str]]:
    """(input digest, family size) of each instance, from the report lines."""
    out = []
    for ln in lines:
        if ln.startswith("input "):
            fields = dict(tok.split("=", 1) for tok in ln.split()[2:])
            out.append((fields["sha256"], fields["family"]))
    return out


def check_metrics(result, lines, specs) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float))
        assert f"metric {m['name']} {got['value']!r} {m['unit']}" in lines


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    result, lines = bench_run(workload, 0)
    check_metrics(result, lines, BENCH["end_to_end"])
    assert all(result["metrics"][m["name"]]["value"] > 0 for m in BENCH["end_to_end"])
    assert f"fail_frac 0.0 (0 failed / {result['attempted']} attempted)" in lines


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_printed_with_units(workload):
    result, lines = bench_run(workload, 1)
    check_metrics(result, lines, BENCH["per_layer"])
    assert result["metrics"]["crossing.find_family.calls"]["value"] == 2


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_keeps_inputs_and_families(workload):
    (plain, plain_lines), (traced, traced_lines) = bench_run(workload, 0), bench_run(workload, 1)
    assert inputs(plain_lines) == inputs(traced_lines)
    assert len(inputs(plain_lines)) == 2
    # The traced family sum equals the family_size an untraced run reports.
    assert sum(int(f) for _, f in inputs(traced_lines)) == plain["metrics"]["family_size"]["value"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, _ = bench_run(workload, 1)
    second, _ = bench_run(workload, 1, repeat=1)
    counts = [n for n in first["metrics"] if n.endswith(COUNT_SUFFIXES)]
    assert counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_cover_the_run(workload):
    # The root span's own time is what no layer covers: the glue in
    # run_family and the result's construction. It must stay a small share.
    _, lines = bench_run(workload, 1)
    tok = next(ln for ln in lines if ln.startswith("trace layers_self_s ")).split()
    layers, unattributed, traced_run = float(tok[2]), float(tok[4]), float(tok[7])
    assert layers > 0 and unattributed >= 0
    assert unattributed <= 0.05 * traced_run


@pytest.mark.parametrize("workload", WORKLOADS)
def test_soundness_checks_count_the_pairs_they_check(workload):
    # Every instance's family passes make_family and verify_family, so each
    # relation call is one pair of the family checked.
    result, lines = bench_run(workload, 1)
    pairs = sum(f * (f - 1) // 2 for f in (int(f) for _, f in inputs(lines)))
    assert result["metrics"]["oracle.verify_family.pairs"]["value"] == pairs


def test_same_seed_same_inputs():
    def digests(seed):
        return [digest(graph_text(w, 24, seed)) for w in W.values()]

    assert digests(5) == digests(5)
    assert digests(5) != digests(6)


def test_tracer_restores_every_binding():
    mods = {n: m for n, m in sys.modules.items() if n == "crossfam" or n.startswith("crossfam.")}
    before = {(n, a): v for n, m in mods.items() for a, v in vars(m).items() if callable(v)}
    with Tracer():
        assert sys.modules["crossfam.crossing"].build_pair_poset is not before[
            ("crossfam.poset", "build_pair_poset")]
        for mod, func, *_ in LAYERS:
            assert hasattr(getattr(sys.modules[f"crossfam.{mod}"], func), "__wrapped__")
    after = {(n, a): v for n, m in mods.items() for a, v in vars(m).items() if callable(v)}
    assert after == before


def test_failed_instance_counts_and_exits_nonzero(monkeypatch, capsys):
    real = crossfam.cli.run_family

    def broken(G, mode, cfg):
        fam, _ = real(G, mode, cfg)
        return fam, (fam.segments[0], fam.segments[0])

    monkeypatch.setattr(crossfam.cli, "run_family", broken)
    bench = run.Bench(SMALL["disk-crossing"], 1, batch_texts(W["disk-crossing"], 24, 2, 1))
    bench.run_pass()
    assert (bench.attempted, bench.failed) == (2, 2)
    assert run._report(bench, {}, 1) == 1
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"] is False


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", WORKLOADS[0],
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
