"""Release acceptance suite.

Each criterion runs at its stated scale and tolerance and prints one
PASS line on success; failures abort with the offending detail.  The
headline asymptotics are out of reach at these sizes, so acceptance is
property-based soundness plus quantitative desk-scale checks.
"""
import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction
from unittest.mock import patch

import pytest
from test_graph import mask

from threecolor import search
from threecolor.baselines import (
    greedy_color,
    neighborhood_extraction_color,
    pipeline_color,
    seek_only_color,
)
from threecolor.dimacs import emit_dimacs
from threecolor.generate import GenParams, generate_planted
from threecolor.graph import (
    build_graph,
    degrees_into,
    is_proper_coloring,
    iter_bits,
)
from threecolor.oracle import verify_logged_claim
from threecolor.params import Params, nhat
from threecolor.search import (
    SIDECUT_FACTOR,
    RegularPair,
    audit_round,
    best_side_cut,
    seek_progress,
)
from threecolor.structure import (
    BUCKET_BASE,
    DEGREE_CAP,
    Not3Colorable,
    certificate_is_valid,
    multichromatic_test,
    regularize,
    MultichromaticGuaranteed,
)
from threecolor.progress import Type1, Type2

pytestmark = pytest.mark.acceptance

# configurations that make the search descend into cuts instead of
# exiting on the first large 2-colorable set (both scales move together
# to keep the multichromatic fall-through total)
CUT_LADDER = [(None, 1.0), (3.0, 2.0), (2.3, 1.5)]


def report(criterion: str, detail: str):
    print(f"\nACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_1_soundness_zero_tolerance():
    """Every emitted claim on 500 small instances survives enumeration."""
    started = time.time()
    counts = {"multi": 0, "mono_if_differ": 0, "mono": 0, "type0": 0}
    violations = []
    instances = 0
    for i in range(500):
        n = 8 + i % 7
        prob = [0.2, 0.3, 0.45, 0.6, 0.8][i % 5]
        g, _ = generate_planted(GenParams(n=n, edge_prob=prob, seed=i))
        instances += 1
        log = []
        for k in (1.3, 1.6, 2.0):
            p = Params.for_graph(n, max(g.min_degree(), 1), k=k)
            seek_progress(g, p=p, claim_log=log)
        p = Params.for_graph(n, max(g.min_degree(), 1), k=1.5)
        seek_only_color(g, p, claim_log=log)
        for claim in log:
            verdict = verify_logged_claim(claim)
            counts[claim.kind] += 1
            if not verdict.verified:
                violations.append((i, claim.kind, verdict.reasons))
    elapsed = time.time() - started
    assert instances >= 500
    assert violations == [], violations[:5]
    assert counts["multi"] >= 100 and counts["mono_if_differ"] >= 20
    assert counts["mono"] >= 1 and counts["type0"] >= 1
    assert elapsed <= 300, f"runtime {elapsed:.0f}s exceeds 5 minutes"
    report("criterion-1", f"{sum(counts.values())} claims verified on "
           f"{instances} instances, 0 violations, {elapsed:.1f}s; {counts}")


@pytest.fixture(scope="module")
def cut_suite():
    """Criterion-2 workload: seeks over 200 mid-size planted graphs."""
    ns = [100, 150, 200, 300, 400, 500, 700, 1000, 1500, 2000]
    started = time.time()
    adopted = 0
    audits = []
    cuts = []  # one entry per cut_or_color return: was it a sparse cut?
    real_cut = search.cut_or_color

    def cut(*args, **kwargs):
        res = real_cut(*args, **kwargs)
        cuts.append(isinstance(res, search.SparseCut))
        return res

    for i in range(200):
        n = ns[i % len(ns)]
        prob = [0.3, 0.5][i % 2]
        g, _ = generate_planted(GenParams(n=n, edge_prob=prob, seed=i))
        for k, scale in CUT_LADDER:
            p = Params.for_graph(n, max(g.min_degree(), 1), k=k, c1=scale,
                                 c2=scale)
            with patch.object(search, "cut_or_color", cut):
                outcome = seek_progress(g, p=p)
            adopted += outcome.counters.side_cuts_adopted
            audits.extend(outcome.audits)
    return {
        "instances": 200,
        "cuts": sum(cuts),
        "adopted": adopted,
        "audits": audits,
        "elapsed": time.time() - started,
    }


def test_criterion_2_cut_invariants(cut_suite):
    """All sparse cuts pass I1-I4; adopted side cuts pass their floors.

    check_sparse_cut runs inside every cut_or_color return and the
    side-cut hard bounds are asserted inside audit_round, so any
    violation would have raised; the counters make the coverage visible.
    """
    assert cut_suite["cuts"] >= 500, "suite produced too few sparse cuts"
    assert cut_suite["adopted"] >= 50, "suite adopted too few side cuts"
    assert cut_suite["elapsed"] <= 600, "runtime exceeds 10 minutes"
    report("criterion-2",
           f"{cut_suite['cuts']} sparse cuts and {cut_suite['adopted']} adopted "
           f"side cuts over {cut_suite['instances']} graphs, 0 violations, "
           f"{cut_suite['elapsed']:.1f}s")


def test_criterion_3_side_cut_oracle_equivalence():
    """best_side_cut matches an independent quadratic argmin."""

    def brute(G, X, Y, pair):
        Sj, Tj = pair.S, pair.T
        floor = pair.delta_T * SIDECUT_FACTOR
        best_x, best_y, best_u = Sj, Tj, None
        best_size = Tj.bit_count()
        for u in iter_bits(Y):
            xs = G.adj_bits(u) & Sj & ~X
            if xs.bit_count() < floor:
                continue
            ys = 0
            for x in iter_bits(xs):
                ys |= G.adj_bits(x)
            ys &= Tj & ~Y
            if ys.bit_count() < best_size:
                best_x, best_y, best_u, best_size = xs, ys, u, ys.bit_count()
        return best_x, best_y, best_u

    rng = random.Random(97)
    mismatches = 0
    for trial in range(100):
        n = rng.randrange(12, 40)
        g, _ = generate_planted(
            GenParams(n=n, edge_prob=rng.uniform(0.2, 0.8), seed=7000 + trial)
        )
        members = rng.sample(range(n), rng.randrange(6, n))
        half = len(members) // 2
        pair = RegularPair(
            mask(members[:half]),
            mask(members[half:]),
            Fraction(1),
            Fraction(rng.randrange(1, 8), rng.randrange(1, 4)),
            1,
        )
        X = mask([v for v in members[:half] if rng.random() < 0.5])
        Y = mask([w for w in members[half:] if rng.random() < 0.5])
        got = best_side_cut(g, X, Y, pair)
        want = brute(g, X, Y, pair)
        if (got.x, got.y, got.u) != want:
            mismatches += 1
    assert mismatches == 0
    report("criterion-3", "100 random subproblems, 0 mismatches")


def test_criterion_4_regularize_contract():
    """Nonempty two-sided regular output, order-independent fixed point."""
    rng = random.Random(41)
    checked = 0
    for trial in range(200):
        n = rng.randrange(12, 40)
        g, _ = generate_planted(
            GenParams(n=n, edge_prob=rng.uniform(0.3, 0.8), seed=8000 + trial)
        )
        s_bits = 0
        for v in rng.sample(range(n), rng.randrange(3, max(4, n // 2))):
            s_bits |= 1 << v
        t_members = [w for w in range(n)
                     if g.adj_bits(w) & s_bits and rng.random() < 0.8]
        if not t_members:
            continue
        S, T = s_bits, mask(t_members)
        pair = regularize(g, S, *degrees_into(g, T, S), j=1, nh=0)
        assert pair.S and pair.T
        for v in iter_bits(pair.S):
            assert (g.adj_bits(v) & pair.T).bit_count() > pair.delta_S
        cap = DEGREE_CAP * pair.delta_T
        for w in iter_bits(pair.T):
            d = (g.adj_bits(w) & pair.S).bit_count()
            assert pair.delta_T < d <= cap
        ref_S, ref_T = _random_order_regularize(g, S, T, rng)
        assert (pair.S, pair.T) == (ref_S, ref_T)
        checked += 1
    assert checked >= 190
    report("criterion-4", f"{checked} random pairs, contract and "
           "order-independence hold, 0 violations")


def _random_order_regularize(g, S, T, rng):
    degs = {w: (g.adj_bits(w) & S).bit_count() for w in iter_bits(T)}
    avg = Fraction(sum(degs.values()), T.bit_count())
    bounds = [Fraction(1)]
    while bounds[-1] <= max(degs.values()):
        bounds.append(bounds[-1] * BUCKET_BASE)
    buckets, mass = {}, {}
    for w, d in degs.items():
        lv = 0
        while bounds[lv + 1] <= d:
            lv += 1
        buckets[lv] = buckets.get(lv, 0) | (1 << w)
        mass[lv] = mass.get(lv, 0) + d
    eligible = [lv for lv in sorted(buckets) if bounds[lv] >= avg / 2]
    level = max(eligible, key=lambda lv: (mass[lv], -lv))
    delta_T = bounds[level] / 4
    s_list = list(iter_bits(S))
    delta_S = Fraction(
        sum((g.adj_bits(v) & buckets[level]).bit_count() for v in s_list),
        4 * len(s_list),
    )
    surv_S, surv_T = S, buckets[level]
    while True:
        bad = [("s", v) for v in iter_bits(surv_S)
               if (g.adj_bits(v) & surv_T).bit_count() <= delta_S]
        bad += [("t", w) for w in iter_bits(surv_T)
                if (g.adj_bits(w) & surv_S).bit_count() <= delta_T]
        if not bad:
            return surv_S, surv_T
        side, v = rng.choice(bad)
        if side == "s":
            surv_S &= ~(1 << v)
        else:
            surv_T &= ~(1 << v)


def test_criterion_5_multichromatic_dichotomy():
    """1000 random qualifying sets: exactly one outcome, valid claims."""
    rng = random.Random(59)
    outcomes = {"guaranteed": 0, "type1": 0, "type2": 0}
    for trial in range(1000):
        n = rng.randrange(8, 40)
        g, _ = generate_planted(
            GenParams(n=n, edge_prob=rng.uniform(0.15, 0.8), seed=9000 + trial)
        )
        p = Params.for_graph(n, max(g.min_degree(), 1),
                             k=rng.choice([None, 1.5, 2.5, 4.0]))
        size = rng.randrange(nhat(n, p.k), n + 1)
        members = mask(rng.sample(range(n), size))
        res = multichromatic_test(g, members, p)
        if isinstance(res, MultichromaticGuaranteed):
            outcomes["guaranteed"] += 1
        elif isinstance(res, Type1):
            outcomes["type1"] += 1
            assert _structurally_valid_type1(g, res, p)
        elif isinstance(res, Type2):
            outcomes["type2"] += 1
            assert _structurally_valid_type2(g, res, p)
        else:
            raise AssertionError(f"third outcome {res!r}")
    assert sum(outcomes.values()) == 1000
    report("criterion-5", f"1000 sets, outcomes {outcomes}, 0 violations")


def _check_sides(g, members, side0, side1):
    if (side0 | side1) != members or (side0 & side1):
        return False
    for side in (side0, side1):
        for v in iter_bits(side):
            if g.adj_bits(v) & side:
                return False
    return True


def _structurally_valid_type1(g, claim, p):
    from threecolor.progress import type1_threshold

    return (
        _check_sides(g, claim.members, claim.side0, claim.side1)
        and claim.members.bit_count() >= type1_threshold(g.n, p.k, p.c1)
    )


def _structurally_valid_type2(g, claim, p):
    from threecolor.graph import union_neighborhoods

    want = union_neighborhoods(g, claim.members) & ~claim.members
    return (
        bool(claim.members)
        and _check_sides(g, claim.members, claim.side0, claim.side1)
        and claim.neighborhood == want
        and claim.neighborhood.bit_count() <= p.c2 * p.k * claim.members.bit_count()
    )


def _end_to_end_sizes():
    spread = [(50, 70), (100, 60), (200, 50), (400, 40), (700, 30),
              (1000, 20), (1500, 12), (2000, 8), (3000, 6), (5000, 4)]
    sizes = []
    for n, count in spread:
        sizes.extend([n] * count)
    return sizes


def test_criterion_6_end_to_end_validity():
    """Pipeline: proper colorings on 300 instances, certified rejections
    on 50 non-3-colorable join instances."""
    started = time.time()
    sizes = _end_to_end_sizes()
    assert len(sizes) == 300
    proper = 0
    for i, n in enumerate(sizes):
        prob = [0.3, 0.5, 0.7][i % 3]
        g, _ = generate_planted(GenParams(n=n, edge_prob=prob, seed=i))
        coloring, _ = pipeline_color(g)
        ok, _ = is_proper_coloring(g, coloring)
        assert ok, f"improper coloring on instance {i} (n={n})"
        proper += 1

    rejected = 0
    for i in range(50):
        base_n = 64 + (i * 7) % 57
        g, _ = generate_planted(
            GenParams(n=base_n, edge_prob=0.35, seed=20000 + i)
        )
        edges = list(g.edges())
        for a in range(4):
            for b in range(a + 1, 4):
                edges.append((base_n + a, base_n + b))
            for v in range(base_n):
                edges.append((base_n + a, v))
        clique_join = build_graph(base_n + 4, edges)
        with pytest.raises(Not3Colorable) as err:
            pipeline_color(clique_join)
        assert certificate_is_valid(clique_join, err.value.hub, err.value.cycle)
        rejected += 1
    elapsed = time.time() - started
    assert proper == 300 and rejected == 50
    assert elapsed <= 900, f"runtime {elapsed:.0f}s exceeds 15 minutes"
    report("criterion-6", f"300/300 proper, 50/50 certified rejections, "
           f"{elapsed:.1f}s")


def test_criterion_7_quantitative_baselines():
    """Greedy degree bound everywhere; extraction under 3*sqrt(n) at n=1e4."""
    rng = random.Random(71)
    for trial in range(60):
        n = rng.randrange(10, 400)
        g, _ = generate_planted(
            GenParams(n=n, edge_prob=rng.uniform(0.1, 0.9), seed=30000 + trial)
        )
        coloring = greedy_color(g)
        ok, _ = is_proper_coloring(g, coloring)
        assert ok and coloring.palette_size <= g.max_degree() + 1

    bound = 3 * math.isqrt(10000)
    worst = 0
    for seed in range(20):
        g, _ = generate_planted(GenParams(n=10000, edge_prob=0.5, seed=seed))
        coloring, rep = neighborhood_extraction_color(g)
        ok, _ = is_proper_coloring(g, coloring)
        assert ok
        assert coloring.palette_size <= bound, (
            f"seed {seed}: {coloring.palette_size} colors exceed {bound}"
        )
        worst = max(worst, coloring.palette_size)
    report("criterion-7", f"greedy bound on 60 instances; extraction worst "
           f"{worst} <= {bound} colors over 20 seeds at n=10000")


def test_criterion_8_boundary_constants(cut_suite):
    """mu = 1/8 exactly at the cut-size floor; edge-mass floor always held."""
    g = build_graph(8, [(0, 4), (1, 4), (2, 4), (3, 4)])
    p = Params.for_graph(8, 1, k=2.0)
    assert nhat(8, p.k) == 2
    pair = RegularPair(
        mask([0, 1, 2, 3]),
        mask([4]),
        Fraction(4), Fraction(3), 1,
    )
    audit = audit_round(
        g, p, pair,
        sparse_X=mask([0, 1, 2, 3]),
        sparse_Y=mask([4]),
        chosen_X=mask([0, 1, 2, 3]),
        chosen_Y=mask([4]),
        side_cut_adopted=False, side_cut_u=None,
        termination_fired=False,
    )
    assert audit.mu == Fraction(1, 8)

    audits = cut_suite["audits"]
    assert audits, "no audited rounds to inspect"
    assert all(a.flags["side_edge_mass"] for a in audits)
    report("criterion-8", f"mu boundary exact; edge-mass floor held on "
           f"{len(audits)} audited rounds")


def test_criterion_9_determinism(tmp_path):
    """Consecutive subprocess runs are byte-identical."""
    g, _ = generate_planted(GenParams(n=150, edge_prob=0.5, seed=13))
    src = tmp_path / "det.col"
    src.write_text(emit_dimacs(g))
    artifacts = []
    for tag in ("one", "two"):
        out = tmp_path / f"{tag}.sol"
        trace = tmp_path / f"{tag}.jsonl"
        res = subprocess.run(
            [sys.executable, "-m", "threecolor.cli", "color", "--in", str(src),
             "--out", str(out), "--trace", str(trace)],
            capture_output=True,
        )
        assert res.returncode == 0, res.stderr
        artifacts.append((out.read_bytes(), trace.read_bytes()))
    assert artifacts[0] == artifacts[1]

    csvs = []
    for tag in ("one", "two"):
        csv_path = tmp_path / f"b{tag}.csv"
        res = subprocess.run(
            [sys.executable, "-m", "threecolor.cli", "bench",
             "--sizes", "60,90", "--densities", "0.5", "--seeds", "2",
             "--methods", "greedy,extract,pipeline", "--ablation",
             "--out-csv", str(csv_path),
             "--out-json", str(tmp_path / f"b{tag}.json")],
            capture_output=True,
        )
        assert res.returncode == 0, res.stderr
        csvs.append(csv_path.read_bytes())
    assert csvs[0] == csvs[1]
    report("criterion-9", "coloring, trace, and bench CSV byte-identical "
           "across subprocess reruns")


def test_criterion_10_ablation_report(tmp_path):
    """Bench emits a well-formed side-cut ablation report."""
    csv_path = tmp_path / "ablation.csv"
    json_path = tmp_path / "ablation.json"
    res = subprocess.run(
        [sys.executable, "-m", "threecolor.cli", "bench",
         "--sizes", "150,300", "--densities", "0.3", "--seeds", "3",
         "--methods", "pipeline", "--ablation",
         "--out-csv", str(csv_path), "--out-json", str(json_path)],
        capture_output=True,
    )
    assert res.returncode == 0, res.stderr
    header, *rows = csv_path.read_text().splitlines()
    cols = header.split(",")
    assert "y1_ratio_side" in cols and "y1_ratio_noside" in cols
    assert len(rows) == 6
    summary = json.loads(json_path.read_text())
    ablation = summary["ablation"]
    assert ablation["instances"] >= 1
    assert ablation["mean_y1_ratio_side"] is not None
    assert ablation["mean_y1_ratio_noside"] is not None
    report("criterion-10",
           f"ablation over {ablation['instances']} instances: mean ratio "
           f"{ablation['mean_y1_ratio_side']:.4f} with side cuts vs "
           f"{ablation['mean_y1_ratio_noside']:.4f} without")
