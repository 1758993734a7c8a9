"""Acceptance suite: one test per criterion, each printing a PASS line.

Tolerances are pinned here and nowhere else. Every expected value is either
computed by an independent method inside the test or checked exactly.
"""

import itertools
import random
from fractions import Fraction

from conftest import block_instance, separated_pair, succ_masks
from crossfam.audit import audit_zone_lines, verify_zone_property
from crossfam.cli import generate_points, main, run_bench
from crossfam.crossing import (
    FamilyMode,
    RunConfig,
    find_avoiding_family,
    find_crossing_family,
)
from crossfam.formats import render_graph_file, strip_timing
from crossfam.geom import (
    GeometricGraph,
    line_meets_hull,
    segments_avoiding,
    segments_cross,
)
from crossfam.oracle import max_family_bruteforce, verify_family
from crossfam.poset import build_pair_poset, interval_chains
from crossfam.theory import check_incomparability_localized, split_pair, theory_params


def _report(name: str):
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_1_soundness_sweep():
    # 1000 seeded complete-graph instances, n in [4, 200]; every output of
    # both drivers passes independent exact verification. Zero tolerance.
    rng = random.Random(101)
    failures = 0
    for i in range(1000):
        n = rng.randint(4, 200)
        V = generate_points("random-disk", n, seed=10_000 + i)
        G = GeometricGraph.complete(V)
        fc = find_crossing_family(G, RunConfig(seed=i))
        fa = find_avoiding_family(G, RunConfig(seed=i))
        if verify_family(fc, G) is not None or not fc.verified or len(fc) < 1:
            failures += 1
        if verify_family(fa, G) is not None or not fa.verified or len(fa) < 1:
            failures += 1
    assert failures == 0
    _report("1 soundness sweep (1000 instances, crossing+avoiding)")


def test_criterion_2_relative_order_properties():
    # 200 random separated pairs, sides up to 15: transitivity, the
    # incomparability characterization, and the crossing guarantee hold for
    # every tuple. Zero tolerance.
    rng = random.Random(202)
    for trial in range(200):
        V, A, B = separated_pair(rng, rng.randint(2, 15), rng.randint(2, 15))
        pp = build_pair_poset(A, B, V)
        for side, cmp_in, other in ((A, pp.less_in_a, B), (B, pp.less_in_b, A)):
            opp = [V[i] for i in other]
            for x, y, z in itertools.permutations(side, 3):
                if cmp_in(x, y) and cmp_in(y, z):
                    assert cmp_in(x, z)
            for x, y in itertools.combinations(side, 2):
                incmp = not cmp_in(x, y) and not cmp_in(y, x)
                assert incmp == line_meets_hull(V[x], V[y], opp)
        for x, y in itertools.permutations(A, 2):
            if not pp.less_in_a(x, y):
                continue
            for z, t in itertools.permutations(B, 2):
                if pp.less_in_b(z, t):
                    assert segments_cross((x, z), (y, t), V)
    _report("2 relative-order property suite (200 separated pairs)")


def test_criterion_3_interval_chains():
    # 500 perturbed total orders satisfying the hypothesis: extraction
    # succeeds and the blockwise order is verified exhaustively.
    rng = random.Random(303)
    done = 0
    while done < 500:
        N = rng.randint(16, 80)
        k = rng.randint(1, 4)
        n = rng.randint(1, 4)
        if N <= 2 * n * k:
            continue
        slack = N - n * k
        g = 1
        while True:
            iota_next = g * N - (g + 1) * g // 2
            if 16 * k * iota_next > slack * slack:
                break
            g += 1
        iota = (g - 1) * N - g * (g - 1) // 2
        assert 16 * k * iota <= slack * slack
        labels = list(range(N))
        rng.shuffle(labels)
        pos = {lab: i for i, lab in enumerate(labels)}
        less = lambda a, b: pos[b] - pos[a] >= g
        chain = interval_chains(labels, succ_masks(labels, less), n, k)
        assert len(chain.blocks) == k
        seen = set()
        for blk in chain.blocks:
            assert len(blk) == n and not (set(blk) & seen)
            seen.update(blk)
        for bi in range(k - 1):
            for bj in range(bi + 1, k):
                for u in chain.blocks[bi]:
                    for v in chain.blocks[bj]:
                        assert less(u, v)
        done += 1
    _report("3 interval-chain extraction (500 posets)")


def test_criterion_4_zone_audit():
    # 50 random point sets up to n=200, eps cycling {1/2, 1/4, 1/8}: the
    # construction passes the full determined-line audit within 16 attempts.
    # A run audits no zone when the net is all of V (every candidate is an
    # arrangement line) or when the points off the net already fit the
    # budget; at least 8 runs must do neither, so the gate cannot go vacuous.
    rng = random.Random(404)
    eps_cycle = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]
    audited = 0
    for run in range(50):
        n = rng.randint(10, 200)
        eps = eps_cycle[run % 3]
        V = generate_points("random-disk", n, seed=40_000 + run)
        zls = audit_zone_lines(V, eps, seed=run)
        assert zls.verified
        assert verify_zone_property(zls, V, eps) is None
        off_net = n - len(zls.net)
        if off_net > 0 and off_net * eps.denominator > eps.numerator * n:
            audited += 1
    assert audited >= 8, f"only {audited} runs audit a zone"
    _report("4 zone-line audit (50 point sets, eps in {1/2, 1/4, 1/8})")


def test_criterion_5_split_cross_block():
    # 100 constructed multi-block instances: after the split every
    # inter-block edge pair satisfies the mode relation, verified
    # exhaustively, and incomparability stays localized to one block.
    rng = random.Random(505)
    shapes = [(3, 2, 2, False), (3, 2, 3, False), (3, 3, 2, False), (3, 3, 3, False), (3, 3, 4, True)]
    rels = {FamilyMode.CROSSING: segments_cross, FamilyMode.AVOIDING: segments_avoiding}
    for run in range(100):
        t, k, m, tangled = shapes[run % len(shapes)]
        mode = FamilyMode.CROSSING if run % 2 == 0 else FamilyMode.AVOIDING
        V, A, B = block_instance(rng, t=t, k=k, m=m, tangled=tangled)
        G = GeometricGraph.complete(V)
        P = build_pair_poset(A, B, V)
        if tangled:
            assert P.iota_a == 1, "tangled instance must plant exactly one pair"
        parts = split_pair(G, P, t, k, m, mode=mode)
        assert len(parts) >= k
        rel = rels[mode]
        for p, q in itertools.combinations(parts, 2):
            for e in itertools.product(p.a, p.b):
                for f in itertools.product(q.a, q.b):
                    assert rel(e, f, V)
        d_blocks = interval_chains(B, P.succ_b, m, t * k).blocks
        check_incomparability_localized(P, d_blocks, V)
    _report("5 split cross-block guarantee (100 constructed instances)")


def test_criterion_6_oracle_equivalence():
    # complete graphs on 4..12 points, 20 seeds each: pipeline families are
    # verified and never beat the exact maximum; for even convex n the
    # maximum is exactly n/2.
    for n in range(4, 13):
        for seed in range(20):
            V = generate_points("random-disk", n, seed=60_000 + 100 * n + seed)
            G = GeometricGraph.complete(V)
            for mode, driver in (
                (FamilyMode.CROSSING, find_crossing_family),
                (FamilyMode.AVOIDING, find_avoiding_family),
            ):
                fam = driver(G, RunConfig(seed=seed))
                assert verify_family(fam, G) is None
                assert len(fam) <= len(max_family_bruteforce(G, mode))
    for n in (4, 6, 8, 10, 12):
        V = generate_points("convex", n, seed=600 + n)
        G = GeometricGraph.complete(V)
        assert len(max_family_bruteforce(G, FamilyMode.CROSSING)) == n // 2
    _report("6 oracle equivalence (n=4..12 x 20 seeds; convex maxima)")


def test_criterion_7_schedule_arithmetic():
    c1 = theory_params(100, None, 1)
    assert (c1.K, c1.M, c1.eps) == (1, 9, Fraction(1, 2**14))
    d1 = theory_params(100, Fraction(1, 2), 1)
    assert (d1.K, d1.M) == (1, 1)
    c3 = theory_params(100, None, 3)
    assert (c3.K, c3.M, c3.eps) == (512, 373248, Fraction(1, 2**20))
    _report("7 parameter-schedule arithmetic (exact)")


def test_criterion_8_near_quadratic_trend():
    rows, slope = run_bench([128, 256, 512, 1024], trials=5, seed=808, mode="crossing")
    assert len(rows) == 20
    assert all(fs >= 1 for _, _, fs, _ in rows)
    assert slope is not None and slope <= 2.6
    _report(f"8 near-quadratic runtime trend (loglog slope {slope:.2f} <= 2.6)")


def test_criterion_9_determinism(tmp_path):
    # repeating a run with the same seed yields byte-identical result files
    # once the wall-clock line is removed.
    for n, seed, mode in ((40, 3, "crossing"), (90, 4, "avoiding"), (150, 5, "crossing")):
        V = generate_points("random-disk", n, seed=90_000 + seed)
        graph = tmp_path / f"g{n}.txt"
        graph.write_text(render_graph_file(GeometricGraph.complete(V)))
        contents = []
        for rep in range(2):
            out = tmp_path / f"r{n}_{rep}.txt"
            rc = main(
                ["run", str(graph), "--mode", mode, "--seed", str(seed), "--out", str(out)]
            )
            assert rc == 0
            contents.append(strip_timing(out.read_text()))
        assert contents[0] == contents[1]
    _report("9 determinism (byte-identical results, timing excluded)")
