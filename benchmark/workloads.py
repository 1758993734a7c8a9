"""Benchmark workloads and their seeded inputs.

Every input is a graph file text in the format ``crossfam run`` reads,
generated from the workload seed alone: the same seed gives byte-identical
texts, which ``digest`` lets two runs compare.

Run as a script, this module prints a batch's texts as one JSON list, so
the benchmark can generate its inputs in a separate interpreter and keep
the generator's memory out of its own peak:

    python3 benchmark/workloads.py <workload> <n> <instances> <seed>
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # generator kind of crossfam.cli.generate_points
    n: int
    mode: str  # "crossing" or "avoiding"
    density: float | None  # edge probability, or None for the complete graph
    instances: int  # instances in one pass of the batch


WORKLOADS = {
    w.name: w
    for w in (
        Workload("disk-crossing", "random-disk", 256, "crossing", None, 36),
        Workload("convex-crossing", "convex", 512, "crossing", None, 1),
        Workload("sparse-avoiding", "grid-jitter", 768, "avoiding", 0.5, 10),
    )
}


def instance_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def graph_text(w: Workload, n: int, seed: int) -> str:
    from crossfam.cli import generate_points
    from crossfam.formats import render_graph_file
    from crossfam.geom import GeometricGraph

    V = generate_points(w.kind, n, seed)
    if w.density is None:
        G = GeometricGraph.complete(V)
    else:
        rng = random.Random(seed)
        edges = [(a, b) for a in range(n - 1) for b in range(a + 1, n)
                 if rng.random() < w.density]
        G = GeometricGraph.from_edges(V, edges)
    return render_graph_file(G)


def batch_texts(w: Workload, n: int, instances: int, seed: int) -> list[str]:
    return [graph_text(w, n, instance_seed(seed, i)) for i in range(instances)]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    name, n, instances, seed = sys.argv[1], *map(int, sys.argv[2:5])
    json.dump(batch_texts(WORKLOADS[name], n, instances, seed), sys.stdout)
