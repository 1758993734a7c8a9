"""Fixed-seed benchmark of the ``crossfam run`` path.

Usage (from the repository root):

    python3 benchmark/run.py --workload disk-crossing --seed 1 --seconds 30 --trace 0

For each instance of the workload's batch the timed path is the one
``crossfam run`` takes: ``parse_graph_file`` on the graph text, the driver,
``verify_family``, then ``render_result_file``. Inputs are generated from
``--seed`` before timing starts. Whole passes over the batch repeat while
``--seconds`` allows, at least once. Every result is rendered, parsed back
and verified again against the graph; any failure makes the run exit 1.

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics: the pass time measured in yardsticks (``run_rel``,
``cpu_rel``), ``setup_s`` (parse seconds rescaled to the reference
machine's speed), ``family_size`` and ``peak_rss_mb``; the plain seconds
are printed on the line before the per-input lines. With ``--trace 1`` it
holds the plain seconds of untraced passes, the per-layer metrics of traced
passes run alternately with them (see spans.py) and the tracing overhead;
the spans are written to ``.bench_out/``. README.md defines every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import signal
import subprocess
import sys
import traceback
from pathlib import Path
from statistics import fmean, median
from time import perf_counter, process_time

from workloads import WORKLOADS, digest, instance_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 9
YARDSTICK_REPS = 5  # yardstick runs just before and just after a timed call
SAMPLE_PERIOD_S = 0.2  # and one per this many seconds during it
# Median wall seconds of one ``_yardstick_work`` on the reference machine
# (README.md); ``setup_s`` is parse time rescaled to that machine's speed.
YARDSTICK_REF_S = 0.002
END_TO_END_UNITS = {
    "run_rel": "x",
    "cpu_rel": "x",
    "setup_s": "s",
    "family_size": "count",
    "peak_rss_mb": "MB",
}
_rng = random.Random(0)
_YARD_POINTS = tuple((_rng.randrange(-10**6, 10**6), _rng.randrange(-10**6, 10**6))
                     for _ in range(24))


def _yardstick_work() -> int:
    """Fixed pure-Python work shaped like the library's predicate loops."""
    pts = _YARD_POINTS
    seen = set()
    total = 0
    for i in range(len(pts) - 1):
        px, py = pts[i]
        for j in range(i + 1, len(pts)):
            qx, qy = pts[j]
            for rx, ry in pts[:16]:
                d = (qx - px) * (ry - py) - (qy - py) * (rx - px)
                total += (d > 0) - (d < 0)
            seen.add((i, j, total & 7))
    return total + len(seen)


def _yardstick_sample(into: list) -> tuple[float, float]:
    w0, c0 = perf_counter(), process_time()
    _yardstick_work()
    into.append((perf_counter() - w0, process_time() - c0))
    return into[-1]


def timed(fn, *args):
    """Call ``fn(*args)``. Return its result, its wall and CPU seconds, and
    the mean wall and CPU seconds of the yardstick around and during it.

    The speed of a shared machine switches between states within a second
    and drifts by tens of percent over minutes. The yardstick runs
    ``YARDSTICK_REPS`` times just before and just after the call, and from a
    timer signal every ``SAMPLE_PERIOD_S`` seconds during it; those runs are
    taken out of the call's time. Dividing the call's time by the
    yardstick's mean cancels most of the drift (see README.md).
    """
    samples: list[tuple[float, float]] = []
    spent = [0.0, 0.0]

    def on_alarm(signum, frame):
        w, c = _yardstick_sample(samples)
        spent[0] += w
        spent[1] += c

    for _ in range(YARDSTICK_REPS):
        _yardstick_sample(samples)
    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
    w0, c0 = perf_counter(), process_time()
    try:
        result = fn(*args)
    finally:
        wall, cpu = perf_counter() - w0, process_time() - c0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    for _ in range(YARDSTICK_REPS):
        _yardstick_sample(samples)
    return (result, wall - spent[0], cpu - spent[1],
            fmean(w for w, _ in samples), fmean(c for _, c in samples))


def _import_crossfam() -> None:
    """Put the checkout's own sources first on the path, or fail.

    Native thread pools are pinned to one thread before numpy loads.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "crossfam" / "__init__.py").is_file():
        raise SystemExit(f"error: crossfam sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import crossfam

    if Path(crossfam.__file__).resolve().parent != SRC / "crossfam":
        raise SystemExit(f"error: imported crossfam from {crossfam.__file__}, not {SRC}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


class Bench:
    """One workload run: seeded inputs, timed passes, and their checks."""

    def __init__(self, workload, seed: int, texts: list[str]):
        self.w = workload
        self.seeds = [instance_seed(seed, i) for i in range(len(texts))]
        self.texts = texts
        self.input_digests = [digest(t) for t in texts]
        self.result_digests: list[str | None] = [None] * len(texts)
        self.family_sizes: list[int] = [0] * len(texts)
        self.attempted = 0
        self.failed = 0

    def _run_path(self, text: str, seed: int):
        """What ``crossfam run`` does for one graph text."""
        from crossfam.cli import run_family
        from crossfam.crossing import RunConfig
        from crossfam.formats import ResultData, parse_graph_file, render_result_file

        G = parse_graph_file(text)
        t1 = perf_counter()
        cfg = RunConfig(seed=seed)
        fam, witness = run_family(G, self.w.mode, cfg)
        ms = int((perf_counter() - t1) * 1000)
        out = render_result_file(ResultData(
            mode=self.w.mode,
            segments=fam.segments,
            verified=witness is None,
            params=(("retries", str(cfg.max_retries)), ("theory", "0")),
            seed=seed,
            ms=ms,
        ))
        return G, fam, witness, out

    def _check(self, i: int, G, fam, witness, out: str) -> str | None:
        """Why instance ``i``'s result is wrong, or None; untimed."""
        from crossfam.crossing import FamilyMode, SegmentFamily
        from crossfam.formats import parse_result_file, strip_timing
        from crossfam.oracle import verify_family

        if witness is not None:
            return f"verify_family found the offending pair {witness}"
        if not 1 <= len(fam) <= self.w.n // 2:
            return f"family size {len(fam)} outside [1, {self.w.n // 2}]"
        back = parse_result_file(out)
        if back.mode != self.w.mode or back.segments != fam.segments or not back.verified:
            return "result file does not round-trip"
        again = SegmentFamily(FamilyMode(back.mode), back.segments, False, G)
        witness = verify_family(again, G)
        if witness is not None:
            return f"re-verification of the parsed result failed on {witness}"
        d = digest(strip_timing(out))
        if self.result_digests[i] is None:
            self.result_digests[i] = d
            self.family_sizes[i] = len(fam)
        elif self.result_digests[i] != d:
            return "result differs from an earlier pass on the same input"
        return None

    def run_pass(self, tracer=None) -> dict[str, float]:
        """One pass over the batch: its wall and CPU seconds, and the same
        with each instance's time divided by the yardstick around it."""
        totals = dict.fromkeys(("run_s", "cpu_s", "run_rel", "cpu_rel"), 0.0)
        for i, (text, seed) in enumerate(zip(self.texts, self.seeds)):
            gc.collect()
            self.attempted += 1
            try:
                if tracer is None:
                    done = timed(self._run_path, text, seed)
                else:
                    done = timed(tracer.run_instance, i, self._run_path, text, seed)
                (G, fam, witness, out), wall, cpu, yard_wall, yard_cpu = done
                totals["run_s"] += wall
                totals["cpu_s"] += cpu
                totals["run_rel"] += wall / yard_wall
                totals["cpu_rel"] += cpu / yard_cpu
                error = self._check(i, G, fam, witness, out)
            except Exception:
                error = traceback.format_exc()
            if error is not None:
                self.failed += 1
                print(f"FAIL instance {i} (seed {seed}): {error}", file=sys.stderr)
        return totals

    def run_passes(self, seconds: float, tracer=None) -> tuple[list, list]:
        """Whole passes until the next one would overrun ``seconds``.

        With a tracer, untraced and traced passes alternate, so both see the
        same drift in machine speed; returns (untraced, traced) passes.
        """
        plain, traced = [], []
        start = perf_counter()
        while True:
            plain.append(self.run_pass())
            if tracer is not None:
                with tracer:
                    traced.append(self.run_pass(tracer))
            elapsed = perf_counter() - start
            if elapsed + elapsed / len(plain) > seconds:
                return plain, traced

    def measure_setup(self) -> tuple[float, float]:
        """Median seconds of ``SETUP_SAMPLES`` parses of the batch's texts,
        as measured and at the reference machine's speed: each parse is
        divided by the yardstick around and during it, as instances are."""
        from crossfam.formats import parse_graph_file

        wall, ref = [], []
        for k in range(SETUP_SAMPLES):
            gc.collect()
            _, w, _, yard_wall, _ = timed(parse_graph_file, self.texts[k % len(self.texts)])
            wall.append(w)
            ref.append(w * YARDSTICK_REF_S / yard_wall)
        return median(wall), median(ref)


def generate_inputs(w, seed: int) -> list[str]:
    """The batch's graph texts, made by a separate interpreter."""
    cmd = [sys.executable, str(HERE / "workloads.py"), w.name, str(w.n), str(w.instances),
           str(seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"error: input generation failed:\n{done.stderr}")
    return json.loads(done.stdout)


def _report(bench: Bench, metrics: dict[str, tuple[float, str]], passes: int) -> int:
    for i, (s, d) in enumerate(zip(bench.seeds, bench.input_digests)):
        print(f"input {i} seed={s} sha256={d} family={bench.family_sizes[i]} "
              f"result_sha256={bench.result_digests[i]}")
    print(f"passes {passes}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    frac = bench.failed / bench.attempted
    print(f"fail_frac {frac!r} ({bench.failed} failed / {bench.attempted} attempted)")
    correct = bench.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv=None, workloads=WORKLOADS) -> int:
    args = parse_args(argv)
    if not __debug__:
        raise SystemExit("error: run without -O; the assertions are part of the measured program")
    _import_crossfam()
    import numpy

    if args.workload not in workloads:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads)}")
    w = workloads[args.workload]
    print(f"crossfam benchmark workload={w.name} seed={args.seed} n={w.n} instances={w.instances} "
          f"trace={args.trace} python={platform.python_version()} numpy={numpy.__version__} "
          f"nproc={os.cpu_count()}")
    bench = Bench(w, args.seed, generate_inputs(w, args.seed))

    if args.trace == 0:
        passes, _ = bench.run_passes(args.seconds)
        setup_wall, setup_ref = bench.measure_setup()
        print(f"seconds run_s {median(p['run_s'] for p in passes)!r} "
              f"cpu_s {median(p['cpu_s'] for p in passes)!r} setup_s {setup_wall!r}")
        metrics = {
            "run_rel": median(p["run_rel"] for p in passes),
            "cpu_rel": median(p["cpu_rel"] for p in passes),
            "setup_s": setup_ref,
            "family_size": sum(bench.family_sizes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        return _report(bench, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()},
                       len(passes))

    from spans import Tracer, layer_metrics, metric_names, unit_of

    tracer = Tracer()
    plain, traced = bench.run_passes(args.seconds, tracer)
    layer = layer_metrics(tracer.spans, len(traced))
    untraced_run_s = median(p["run_s"] for p in plain)
    traced_run_s = median(p["run_s"] for p in traced)
    # Compared in yardsticks, which cancels drift in machine speed between
    # the passes, then put in seconds at the untraced passes' speed.
    plain_rel = median(p["run_rel"] for p in plain)
    overhead = untraced_run_s * (median(p["run_rel"] for p in traced) / plain_rel - 1)
    print(f"trace layers_self_s {layer['trace.layers_self_s']!r} "
          f"unattributed_s {layer['trace.unattributed_s']!r} traced run_s {traced_run_s!r} "
          f"untraced run_s {untraced_run_s!r} overhead_s {overhead!r}")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{w.name}-{args.seed}.jsonl"
    tracer.write_jsonl(spans_path)
    print(f"spans {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    metrics = {
        "run_s": (untraced_run_s, "s"),
        "cpu_s": (median(p["cpu_s"] for p in plain), "s"),
        **{name: (layer[name], unit_of(name)) for name in metric_names()},
        "trace.unattributed_s": (layer["trace.unattributed_s"], "s"),
        "trace.overhead_s": (overhead, "s"),
    }
    return _report(bench, metrics, len(plain) + len(traced))


if __name__ == "__main__":
    sys.exit(main())
