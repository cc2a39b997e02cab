import json
import math
import random
import sys
import tracemalloc
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_baselines import arbitrary_graph
from test_graph import mask

from threecolor import graph, search, structure
from threecolor.baselines import pipeline_color
from threecolor.generate import GenParams, generate_planted
from threecolor.graph import (
    ROW_SUM_BYTES,
    MemberRows,
    TwoColoring,
    bipartition,
    build_graph,
    iter_bits,
    union_neighborhoods,
    with_degree_at_least,
)
from threecolor.oracle import enumerate_3colorings, verify_logged_claim
from threecolor.params import Params, default_round_cap, nhat
from threecolor.progress import MonoSet, Sink, induced_subgraph
from threecolor.search import (
    ROOT_RETRIES,
    SIDECUT_FACTOR,
    MonochromaticIfDiffer,
    SparseCut,
    audit_round,
    best_side_cut,
    check_sparse_cut,
    cut_or_color,
    inner_loop,
    seek_progress,
)
from threecolor.structure import Not3Colorable, RegularPair, build_two_level


def make_params(n, k, **kw):
    return Params.for_graph(n, 1, k=k, **kw)


def complete_bipartite_with_root(s_size=3, t_size=3, extra_t_edge=False):
    """r0 = 0 joined to S = {1..s}, complete bipartite S x T."""
    s_ids = list(range(1, 1 + s_size))
    t_ids = list(range(1 + s_size, 1 + s_size + t_size))
    edges = [(0, s) for s in s_ids]
    edges += [(s, t) for s in s_ids for t in t_ids]
    if extra_t_edge:
        edges.append((t_ids[0], t_ids[1]))
    n = 1 + s_size + t_size
    return build_graph(n, edges), s_ids, t_ids


class TestCutOrColor:
    def test_full_absorption_gives_verdict(self):
        g, s_ids, t_ids = complete_bipartite_with_root()
        p = make_params(g.n, 2.0)
        res = cut_or_color(g, 0, mask(s_ids), mask(t_ids), t_ids[0], p)
        assert isinstance(res, MonochromaticIfDiffer)
        assert res.members == mask(s_ids)
        assert res.t == t_ids[0] and res.r0 == 0

    def test_disconnected_blocks_give_sparse_cut(self):
        # two complete bipartite blocks hanging off one root; the seed's
        # block cannot reach the other, so the cut stops at the block
        edges = [(0, 1), (0, 2), (0, 3), (0, 4)]
        edges += [(1, 5), (1, 6), (2, 5), (2, 6)]  # block a: S {1,2} x T {5,6}
        edges += [(3, 7), (3, 8), (4, 7), (4, 8)]  # block b: S {3,4} x T {7,8}
        g = build_graph(9, edges)
        p = make_params(9, 2.0)
        S, T = mask([1, 2, 3, 4]), mask([5, 6, 7, 8])
        res = cut_or_color(g, 0, S, T, 5, p)
        assert isinstance(res, SparseCut)
        assert res.X == mask([1, 2])
        assert res.Y == mask([5, 6])
        assert check_sparse_cut(g, 0, S, T, 5, res.X, res.Y, p) == []

    def test_x_extension_absorbs_via_shared_t(self):
        # seed sees only part of S, but the unseen S vertex has nhat
        # neighbors inside Y, so an X-extension absorbs it
        edges = [(0, 1), (0, 2)]
        edges += [(1, 3), (1, 4)]
        edges += [(2, 3), (2, 4)]
        g = build_graph(5, edges)
        p = make_params(5, 3.0)  # nhat = 1
        res = cut_or_color(g, 0, mask([1, 2]), mask([3, 4]), 3, p)
        assert isinstance(res, MonochromaticIfDiffer)

    def test_verdicts_sound_against_oracle(self):
        verified = {"multi": 0, "mono_if_differ": 0, "mono": 0, "type0": 0}
        for trial in range(40):
            n = 8 + trial % 7
            p_edge = [0.3, 0.5, 0.7, 0.85][trial % 4]
            g, _ = generate_planted(GenParams(n=n, edge_prob=p_edge, seed=trial))
            for k in (1.3, 1.6, 2.0):
                p = Params.for_graph(n, max(g.min_degree(), 1), k=k)
                log = []
                seek_progress(g, p=p, claim_log=log)
                for claim in log:
                    verdict = verify_logged_claim(claim)
                    assert verdict.verified, (claim.kind, verdict.reasons)
                    verified[claim.kind] += 1
        assert verified["multi"] > 0
        assert verified["mono_if_differ"] > 0


class TestCheckSparseCut:
    def test_constructed_i1_violation(self):
        g, s_ids, t_ids = complete_bipartite_with_root()
        p = make_params(g.n, 2.0)
        X = mask(s_ids[1:])  # drops one neighbor of the seed
        Y = mask(t_ids)
        out = check_sparse_cut(g, 0, mask(s_ids), mask(t_ids),
                               t_ids[0], X, Y, p)
        assert "I1" in out

    def test_constructed_i2_violation(self):
        g, s_ids, t_ids = complete_bipartite_with_root()
        p = make_params(g.n, 2.0)
        X = mask(s_ids)
        Y = mask(t_ids[:-1])  # X keeps an edge into T \ Y
        out = check_sparse_cut(g, 0, mask(s_ids), mask(t_ids),
                               t_ids[0], X, Y, p)
        assert "I2" in out

    def test_clean_cut_passes(self):
        g, s_ids, t_ids = complete_bipartite_with_root()
        p = make_params(g.n, 2.0)
        out = check_sparse_cut(g, 0, mask(s_ids), mask(t_ids),
                               t_ids[0], mask(s_ids), mask(t_ids), p)
        assert out == []


def brute_force_side_cut(G, X, Y, pair):
    """Quadratic reference: scan every u, no shortcuts."""
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


class TestBestSideCut:
    def test_no_qualifier_returns_full_pair(self):
        g, s_ids, t_ids = complete_bipartite_with_root()
        pair = RegularPair(mask(s_ids), mask(t_ids),
                           Fraction(2), Fraction(2), 1)
        # X = S: nobody has neighbors outside X
        res = best_side_cut(g, mask(s_ids), mask(t_ids), pair)
        assert res.u is None
        assert res.x == pair.S and res.y == pair.T

    def test_single_qualifier_exact(self):
        # u = 6 reaches S_j \ X = {3, 4}; its side cut is ({3,4}, {7})
        edges = [(0, 1), (0, 2), (0, 3), (0, 4)]
        edges += [(1, 5), (2, 5), (1, 6), (2, 6)]
        edges += [(3, 6), (4, 6), (3, 7), (4, 7)]
        g = build_graph(8, edges)
        pair = RegularPair(mask([1, 2, 3, 4]), mask([5, 6, 7]),
                           Fraction(1), Fraction(2), 1)
        X, Y = mask([1, 2]), mask([5, 6])
        res = best_side_cut(g, X, Y, pair)
        assert res.u == 6
        assert res.x == mask([3, 4])
        assert res.y == mask([7])
        assert not (res.x & X) and not (res.y & Y)

    def test_matches_brute_force_on_random_subproblems(self):
        rng = random.Random(13)
        for trial in range(100):
            n = rng.randrange(10, 26)
            g, _ = generate_planted(
                GenParams(n=n, edge_prob=rng.uniform(0.2, 0.8), seed=trial)
            )
            members = rng.sample(range(n), rng.randrange(4, n))
            half = len(members) // 2
            Sj, Tj = members[:half], members[half:]
            X = [v for v in Sj if rng.random() < 0.5]
            Y = [w for w in Tj if rng.random() < 0.5]
            pair = RegularPair(
                mask(Sj), mask(Tj),
                Fraction(1), Fraction(rng.randrange(1, 7), rng.randrange(1, 4)), 1,
            )
            got = best_side_cut(g, mask(X), mask(Y), pair)
            want_x, want_y, want_u = brute_force_side_cut(g, mask(X), mask(Y), pair)
            assert got.x == want_x
            assert got.y == want_y
            assert got.u == want_u


def ascending_check_sparse_cut(G, r0, S, T, t, X, Y, p):
    """Copy of ``check_sparse_cut`` as it scanned I4's t' in ascending id
    order."""
    nh = nhat(G.n, p.k)
    violated = []
    if G.adj_bits(t) & S & ~X:
        violated.append("I1")
    outside_T = T & ~Y
    if union_neighborhoods(G, X) & outside_T:
        violated.append("I2")
    if with_degree_at_least(G, S & ~X, Y, nh):
        violated.append("I3")
    root_adj = G.adj_bits(r0)
    for t2 in iter_bits(outside_T):
        reach = union_neighborhoods(G, G.adj_bits(t2) & root_adj)
        if (reach & Y).bit_count() >= nh:
            violated.append("I4")
            break
    return violated


def ascending_side_cut(G, X, Y, pair):
    """Copy of ``best_side_cut`` as it walked each u's X'(u) in ascending id
    order, with its checkpoint every eighth member; also returns how many
    u were abandoned at a checkpoint."""
    Sj, Tj = pair.S, pair.T
    threshold_int = math.ceil(pair.delta_T * SIDECUT_FACTOR)
    fresh_mask = Tj & ~Y
    best_x, best_y, best_u = Sj, Tj, None
    best_size = Tj.bit_count()
    abandons = 0
    for u in iter_bits(Y):
        outside = G.adj_bits(u) & Sj & ~X
        if outside.bit_count() < threshold_int:
            continue
        reach = 0
        abandoned = False
        for i, x in enumerate(iter_bits(outside)):
            reach |= G.adj_bits(x)
            if (i & 7) == 7 and (reach & fresh_mask).bit_count() >= best_size:
                abandoned = True
                break
        if abandoned:
            abandons += 1
            continue
        y_bits = reach & fresh_mask
        size = y_bits.bit_count()
        if size < best_size:
            best_x, best_y, best_u, best_size = outside, y_bits, u, size
    return (best_x, best_y, best_u), abandons


def cut_case(seed, n, p):
    """A G(n, p) graph with a root r0, a pair (S, T) with S inside N(r0),
    a seed t in T and a cut X of S, Y of T, all drawn from ``seed``."""
    rng = random.Random(seed)
    g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                        if rng.random() < p])
    r0 = rng.randrange(n)
    S = [v for v in iter_bits(g.adj_bits(r0)) if rng.random() < 0.7]
    T = [v for v in range(n) if v != r0 and v not in S and rng.random() < 0.8] or [r0]
    X = [v for v in S if rng.random() < rng.random()]
    Y = [w for w in T if rng.random() < rng.random()]
    return g, r0, mask(S), mask(T), rng.choice(T), mask(X), mask(Y)


CUT_CASE_SIZES = st.tuples(st.integers(0, 2**32), st.integers(2, 90),
                           st.sampled_from([0.1, 0.3, 0.5, 0.8]))


class TestTopBitWalks:
    """``check_sparse_cut``'s I4 scan and ``best_side_cut``'s reach walk
    X'(u) from the top bit; both must return what the ascending walks
    returned."""

    @given(CUT_CASE_SIZES, st.sampled_from([1.5, 2.0, 3.0, 6.0]))
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    def test_check_sparse_cut_matches_the_ascending_scan(self, sizes, k):
        g, r0, S, T, t, X, Y = cut_case(*sizes)
        p = make_params(g.n, k)
        assert (check_sparse_cut(g, r0, S, T, t, X, Y, p)
                == ascending_check_sparse_cut(g, r0, S, T, t, X, Y, p))

    @given(CUT_CASE_SIZES, st.integers(1, 40), st.integers(1, 3))
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    def test_best_side_cut_matches_the_ascending_walk(self, sizes, num, den):
        g, _, S, T, _, X, Y = cut_case(*sizes)
        pair = RegularPair(S, T, Fraction(1), Fraction(num, den), 1)
        got = best_side_cut(g, X, Y, pair)
        assert (got.x, got.y, got.u) == ascending_side_cut(g, X, Y, pair)[0]

    def test_cases_reach_the_abandon_checkpoint_and_i4(self):
        # the drawn cases above are worth comparing only if the reference
        # abandons some u and some cut violates I4
        abandons = i4 = adopted = 0
        for seed in range(40):
            g, r0, S, T, t, X, Y = cut_case(seed, 60, 0.5)
            (_, _, u), count = ascending_side_cut(
                g, X, Y, RegularPair(S, T, Fraction(1), Fraction(3), 1))
            abandons += count
            adopted += u is not None
            i4 += "I4" in ascending_check_sparse_cut(g, r0, S, T, t, X, Y,
                                                     make_params(g.n, 3.0))
        assert abandons > 0 and adopted > 0 and i4 > 0


class TestInnerLoop:
    def test_singleton_s_is_error_a(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        pair = RegularPair(mask([1]), mask([2]), Fraction(1), Fraction(1), 1)
        res = inner_loop(g, 0, pair, make_params(3, 1.0))
        assert res == "ErrorA"

    def test_too_few_seeds_is_error_b(self):
        g, s_ids, t_ids = complete_bipartite_with_root(2, 1)
        pair = RegularPair(mask(s_ids), mask(t_ids),
                           Fraction(1), Fraction(1), 1)
        p = make_params(g.n, 1.0)  # nhat = n, unreachable
        trace = []
        with patch.object(search, "degrees_into",
                          wraps=search.degrees_into) as count:
            res = inner_loop(g, 0, pair, p, sink=Sink(trace))
        assert res == "ErrorB"
        # |T| = 1 < nhat settles it: no seed is counted
        assert count.call_count == 0
        assert trace == [{"event": "error", "reason": "ErrorB"}]

    def test_too_few_qualifying_seeds_is_error_b_after_one_count(self):
        # S = {1, 2}, T = {3..8}; only 3 and 4 have S-neighbors, so 2 of
        # the 6 members of T reach the seed floor ceil(delta_T / 4) = 1
        g = build_graph(9, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
        pair = RegularPair(mask([1, 2]), mask(range(3, 9)),
                           Fraction(1), Fraction(2), 1)
        p = make_params(9, 1.5)
        assert nhat(9, p.k) == 4
        trace = []
        with patch.object(search, "degrees_into",
                          wraps=search.degrees_into) as count:
            res = inner_loop(g, 0, pair, p, sink=Sink(trace))
        assert res == "ErrorB"
        assert count.call_count == 1
        assert trace == [{"event": "error", "reason": "ErrorB"}]

    def test_t_degrees_are_read_once_per_iteration(self):
        # the mass check and the seed count share one read of T's degrees
        # into S, so a search reads them at most once per loop iteration:
        # once per inner_loop call plus once per adopted sparse cut
        real_loop, real_read = search.inner_loop, search.degrees_into
        real_cut = search.cut_or_color
        loops, reads, cuts = [], [], []

        def loop(*args, **kwargs):
            loops.append(1)
            return real_loop(*args, **kwargs)

        def cut(*args, **kwargs):
            res = real_cut(*args, **kwargs)
            cuts.append(isinstance(res, SparseCut))
            return res

        def read(*args):
            if sys._getframe(1).f_code is real_loop.__code__:
                reads.append(1)
            return real_read(*args)

        n = 100
        g = induced_subgraph(generate_planted(GenParams(n=n, edge_prob=0.5, seed=1))[0],
                             (1 << n) - 1)[0]
        p = Params.for_graph(n, g.min_degree(), k=2.6, c1=2.0, c2=2.0)
        with patch.object(search, "inner_loop", loop), \
                patch.object(search, "degrees_into", read), \
                patch.object(search, "cut_or_color", cut):
            seek_progress(g, p=p)
        assert sum(cuts) > 0  # some loop ran more than one iteration
        assert 0 < len(reads) <= len(loops) + sum(cuts)

    def test_complete_bipartite_yields_monochromatic_set(self):
        g, s_ids, t_ids = complete_bipartite_with_root(extra_t_edge=True)
        pair = RegularPair(mask(s_ids), mask(t_ids),
                           Fraction(2), Fraction(1), 1)
        p = make_params(g.n, 2.0)  # nhat = ceil(7/4) = 2
        log = []
        res = inner_loop(g, 0, pair, p, sink=Sink(claims=log))
        assert res == MonoSet(mask(s_ids))
        summary = enumerate_3colorings(g, sets=(tuple(s_ids),))
        assert summary.colorable
        assert summary.set_max_colors[tuple(s_ids)] == 1
        kinds = [c.kind for c in log]
        assert "mono" in kinds and "multi" in kinds and "mono_if_differ" in kinds


class TestAuditRound:
    def test_mu_exactly_one_eighth_at_the_boundary(self):
        # |Y| = delta_S^2 / (8 nhat) with delta_S = 4, nhat = 2 gives
        # |Y| = 1 and mu = 1/8 exactly
        g = build_graph(8, [(0, 4), (1, 4), (2, 4), (3, 4)])
        p = make_params(8, 2.0)
        assert nhat(8, p.k) == 2
        pair = RegularPair(mask([0, 1, 2, 3]), mask([4]),
                           Fraction(4), Fraction(3), 1)
        audit = audit_round(
            g, p, pair,
            sparse_X=mask([0, 1, 2, 3]), sparse_Y=mask([4]),
            chosen_X=mask([0, 1, 2, 3]), chosen_Y=mask([4]),
            side_cut_adopted=False, side_cut_u=None,
            termination_fired=False,
        )
        assert audit.mu == Fraction(1, 8)
        assert audit.flags["y_size_floor"]

    def test_edge_mass_floor_on_complete_bipartite_round(self):
        # sparse cut strictly inside a complete bipartite pair: every Y
        # vertex spawns side cuts and the edge-mass floor holds
        edges = [(u, v) for u in range(4) for v in range(4, 10)]
        g = build_graph(10, edges)
        p = make_params(10, 2.0)
        pair = RegularPair(mask(range(4)), mask(range(4, 10)),
                           Fraction(3), Fraction(3), 1)
        audit = audit_round(
            g, p, pair,
            sparse_X=mask([0]), sparse_Y=mask(range(4, 10)),
            chosen_X=mask([0]), chosen_Y=mask(range(4, 10)),
            side_cut_adopted=False, side_cut_u=None,
            termination_fired=True,
        )
        assert audit.flags["side_edge_mass"]
        assert audit.ypp_size == 6
        assert audit.edge_mass_side == 18

    def test_adopted_side_cut_hard_checks(self):
        edges = [(0, 1), (0, 2), (0, 3), (0, 4)]
        edges += [(1, 5), (2, 5), (1, 6), (2, 6)]
        edges += [(3, 6), (4, 6), (3, 7), (4, 7)]
        g = build_graph(8, edges)
        p = make_params(8, 2.0)
        pair = RegularPair(mask([1, 2, 3, 4]), mask([5, 6, 7]),
                           Fraction(1), Fraction(2), 1)
        audit = audit_round(
            g, p, pair,
            sparse_X=mask([1, 2]), sparse_Y=mask([5, 6]),
            chosen_X=mask([3, 4]), chosen_Y=mask([7]),
            side_cut_adopted=True, side_cut_u=6,
            termination_fired=False,
        )
        assert audit.side_cut_adopted
        assert audit.flags["x_size_floor"]


class TestSeekProgress:
    def test_round_cap_default(self):
        assert default_round_cap(2000) == 3

    def test_params_event_derives_from_the_working_graph(self):
        # the run's parameters are made for the input graph; a search on a
        # smaller working graph reads nhat and round_cap off it
        g, _ = generate_planted(GenParams(n=300, edge_prob=0.5, seed=4))
        for given_k, alive in ((None, (1 << 120) - 1), (2.6, (1 << 200) - 1),
                               (None, sum(1 << v for v in range(0, 300, 7)))):
            run_params = Params.for_graph(g.n, g.min_degree(), k=given_k)
            sub, _ = induced_subgraph(g, alive)
            assert sub.n < g.n
            t = []
            seek_progress(sub, p=run_params, trace=t)
            event, k = t[0], run_params.k
            assert event["event"] == "params"
            assert event["nhat"] == max(1, math.ceil(sub.n / (k * k)))
            assert event["round_cap"] == default_round_cap(sub.n)
            # the base under the alive mask reads them off the same h
            on_base = []
            seek_progress(g, p=run_params, trace=on_base, alive=alive)
            assert on_base[0] == event

    def test_planted_run_returns_valid_outcome(self):
        g, _ = generate_planted(GenParams(n=300, edge_prob=0.5, seed=21))
        p = Params.for_graph(300, g.min_degree())
        outcome = seek_progress(g, p=p)
        assert (outcome.progress is None) != (outcome.failure is None)
        if outcome.failure is not None:
            assert outcome.failure in (
                "ErrorA", "ErrorB", "RoundCapExceeded", "StructureFailed"
            )
        assert outcome.counters.roots_tried >= 1

    def test_trace_determinism(self):
        g, _ = generate_planted(GenParams(n=200, edge_prob=0.5, seed=8))
        p = Params.for_graph(200, g.min_degree())
        t1, t2 = [], []
        seek_progress(g, p=p, trace=t1)
        seek_progress(g, p=p, trace=t2)
        assert json.dumps(t1, sort_keys=True) == json.dumps(t2, sort_keys=True)
        assert t1  # something was traced

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_roots_by_degree_ties_to_lower_ids(self, data):
        # sparse draws and appended isolated vertices leave degree-0 vertices;
        # n >= 64 with packed rows takes the kernels' packed body
        n = data.draw(st.one_of(st.integers(0, 12), st.integers(60, 90)))
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        p = data.draw(st.sampled_from([0.03, 0.1, 0.3, 0.6]))
        isolated = data.draw(st.integers(0, 3))
        g = build_graph(n + isolated, [(u, v) for u in range(n) for v in range(u + 1, n)
                                       if rng.random() < p])
        if data.draw(st.booleans()):
            g = induced_subgraph(g, (1 << g.n) - 1)[0]
        tried = []

        def doomed(G, r0, p, *, alive=None, two_colorable=False):
            tried.append(r0)
            return None

        with patch.object(search, "build_two_level", doomed):
            seek_progress(g)
        expect = [v for v in sorted(range(g.n), key=lambda u: (-g.degree(u), u))
                  if g.degree(v) >= 1][:ROOT_RETRIES]
        assert tried == expect
        assert all(type(v) is int for v in tried)

    def test_failing_dense_search_writes_one_error_per_root(self):
        # every root of this dense planted graph has a doomed round 1:
        # no pair is built, no inner loop runs, and each root leaves one
        # ErrorB entry and no structure entry
        g, _ = generate_planted(GenParams(n=300, edge_prob=0.7, seed=0))
        p = Params.for_graph(300, g.min_degree())
        trace = []
        with patch.object(search, "inner_loop", wraps=search.inner_loop) as loop:
            outcome = seek_progress(g, p=p, trace=trace)
        assert outcome.failure == "ErrorB"
        assert outcome.counters.roots_tried == ROOT_RETRIES
        assert loop.call_count == 0
        assert [e for e in trace if e["event"] == "error"] == (
            [{"event": "error", "reason": "ErrorB"}] * outcome.counters.roots_tried
        )
        assert [e["event"] for e in trace] == ["params"] + ["error"] * ROOT_RETRIES

    def test_outcome_holds_exactly_the_roots_tried(self):
        g, _ = generate_planted(GenParams(n=300, edge_prob=0.7, seed=0))
        p = Params.for_graph(300, g.min_degree())
        failed = seek_progress(g, p=p)
        roots = [v for v in sorted(range(g.n), key=lambda u: (-g.degree(u), u))][:ROOT_RETRIES]
        assert failed.failure == "ErrorB"
        assert failed.two_colorable == mask(roots)
        # each root of the mask 2-colors its neighborhood, and a search told
        # so skips every 2-coloring yet returns the same outcome
        assert all(isinstance(bipartition(g, g.adj_bits(r)), TwoColoring) for r in roots)
        with patch.object(structure, "bipartition",
                          side_effect=AssertionError("2-colored again")):
            assert seek_progress(g, p=p, two_colorable=failed.two_colorable) == failed
        # a search that stops at its third root's progress holds three roots
        calls = []

        def third_root_progresses(G, r0, p, *, alive=None, two_colorable=False):
            calls.append((r0, two_colorable))
            return MonoSet(G.adj_bits(r0)) if len(calls) == 3 else None

        with patch.object(search, "build_two_level", third_root_progresses):
            found = seek_progress(g, p=p, two_colorable=mask(roots[1:2]))
        assert found.two_colorable == mask(roots[:3])
        assert calls == [(roots[0], False), (roots[1], True), (roots[2], False)]

    def test_edgeless_graph_fails_structurally(self):
        g = build_graph(5, [])
        outcome = seek_progress(g, p=make_params(5, 1.0))
        assert outcome.failure == "StructureFailed"

    def test_dense_planted_instance(self):
        # min degree near 0.9 * (2n/3): either structurally valid
        # progress or a failure with audits is acceptable
        g, _ = generate_planted(GenParams(n=2000, edge_prob=0.9, seed=3))
        p = Params.for_graph(2000, g.min_degree())
        log = []
        outcome = seek_progress(g, p=p, claim_log=log)
        if outcome.progress is not None:
            from threecolor.oracle import verify_progress_claim
            from threecolor.progress import Type1, Type2

            if isinstance(outcome.progress, (Type1, Type2)):
                verdict = verify_progress_claim(g, outcome.progress, p.k,
                                                c1=p.c1, c2=p.c2)
                assert verdict.verified, verdict.reasons
        else:
            assert outcome.failure in (
                "ErrorA", "ErrorB", "RoundCapExceeded", "StructureFailed"
            )


# (instance, params): three audited rounds on the first; the second is a
# pipeline-cuts instance, where the nested sparse cuts and side cuts run
SINK_CASES = [
    (GenParams(n=150, edge_prob=0.3, seed=0), {"k": 3.0, "c1": 2.0, "c2": 2.0}),
    (GenParams(n=400, edge_prob=0.5, seed=0), {"k": 2.6, "c1": 2.0, "c2": 2.0}),
]


def lift(bits, keep):
    """The set ``bits`` of working ids in the base's ids."""
    return sum(1 << keep[i] for i in iter_bits(bits))


def seek_record(G, p, **kw):
    """seek_progress's outcome, or its certificate, with its trace and its
    claims (each claim's graph as its rows)."""
    trace, claims = [], []
    try:
        result = seek_progress(G, p, trace=trace, claim_log=claims, **kw)
    except Not3Colorable as exc:
        result = (exc.hub, exc.cycle)
    return result, trace, [(c.kind, c.vertices, c.conditional, c.graph.n,
                            tuple(c.graph.adj_rows)) for c in claims]


def assert_seek_on_base_matches_rebuilt(g, alive, p, known):
    """seek_progress(g, alive=alive) answers, in g's ids, what a search on
    the rebuilt g[alive] answers; ``known`` is the carried set in g's ids,
    handed to the rebuilt search as ranks."""
    sub, keep = induced_subgraph(g, alive)
    ranks = sum(1 << i for i, v in enumerate(keep) if (known >> v) & 1)
    got, got_trace, got_claims = seek_record(g, p, alive=alive, two_colorable=known)
    want, want_trace, want_claims = seek_record(sub, p, two_colorable=ranks)
    assert got_trace == want_trace and got_claims == want_claims
    if isinstance(want, tuple):
        hub, cycle = want
        assert got == (keep[hub], tuple(keep[v] for v in cycle))
        return
    assert (got.failure, got.audits, got.counters) == (want.failure, want.audits,
                                                       want.counters)
    assert got.two_colorable == lift(want.two_colorable, keep)
    if want.progress is None:
        assert got.progress is None
    else:
        claim = want.progress
        assert got.progress == type(claim)(*(lift(getattr(claim, f), keep)
                                             for f in claim.__dataclass_fields__))


class TestSeekOnTheBase:
    """seek_progress(G, alive=A) reads round 1 off G under the mask and
    rebuilds G[A] only for a root whose pair survives; it answers what a
    search on the rebuilt G[A] answers, lifted to G's ids."""

    def test_matches_the_rebuilt_working_graph(self):
        gathered = []  # per example, whether its alive rows took the packed gather

        @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1),
               st.sampled_from([0.3, 0.6, 0.9, 1.0]), st.booleans(), st.booleans())
        @settings(max_examples=150, deadline=None, derandomize=True, database=None)
        def check(graph_seed, seed, share, cut, packed):
            # arbitrary graphs, some not 3-colorable; the cut params block
            # the large-set exit, so survivors reach the rebuilt graph's rounds
            g = arbitrary_graph(graph_seed)
            if packed:  # the driver's bases carry words
                g = induced_subgraph(g, (1 << g.n) - 1)[0]
            rng = random.Random(seed)
            alive = sum(1 << v for v in range(g.n) if rng.random() < share)
            known = sum(1 << v for v in range(g.n) if rng.random() < 0.5)
            p = None
            if cut:
                h = alive.bit_count()
                sub_min = induced_subgraph(g, alive)[0].min_degree()
                p = Params.for_graph(h, max(sub_min, 1), k=2.6, c1=2.0, c2=2.0)
            made = []

            def gather(G, bits):
                made.append(MemberRows(G, bits))
                return made[-1]

            with patch.object(search, "MemberRows", gather):
                assert_seek_on_base_matches_rebuilt(g, alive, p, known)
            first = made[0]
            gathered.append(first.graph is g and alive != (1 << g.n) - 1
                            and isinstance(first.rows, np.ndarray))

        check()
        assert any(gathered)

    def test_survivor_followed_by_further_roots(self):
        # three doomed roots on the base, then a survivor that rebuilds the
        # working graph, fails, and hands on to roots run wholly there
        g = arbitrary_graph(27)
        rng = random.Random(27)
        alive = sum(1 << v for v in range(g.n) if rng.random() < 0.8)
        sub_min = induced_subgraph(g, alive)[0].min_degree()
        p = Params.for_graph(alive.bit_count(), max(sub_min, 1), k=2.6, c1=2.0, c2=2.0)
        trace = []
        with patch.object(search, "induced_subgraph", wraps=induced_subgraph) as rebuild:
            outcome = seek_progress(g, p, trace=trace, alive=alive)
        assert rebuild.call_count == 1
        events = [e["event"] for e in trace]
        assert events[:6] == ["params", "error", "error", "error", "structure", "cut"]
        assert outcome.counters.roots_tried == ROOT_RETRIES
        assert events.count("structure") >= 2
        assert_seek_on_base_matches_rebuilt(g, alive, p, 0)

    def test_alive_rows_are_gathered_once_per_call(self):
        # every root of this dense base is doomed under the mask: the alive
        # set is unpacked and its rows gathered once, for the root order
        # and all ten T tables, not once per root
        g, _ = generate_planted(GenParams(n=300, edge_prob=0.7, seed=0))
        base = induced_subgraph(g, (1 << g.n) - 1)[0]
        rng = random.Random(3)
        alive = sum(1 << v for v in range(g.n) if rng.random() < 0.75)
        real_unpack = graph.unpack_bits
        unpacked = []

        def unpack(bits, n):
            unpacked.append(bits == alive)
            return real_unpack(bits, n)

        with patch.object(graph, "unpack_bits", unpack), \
                patch.object(search, "MemberRows", wraps=MemberRows) as gathers, \
                patch.object(search, "induced_subgraph", wraps=induced_subgraph) as rebuild:
            outcome = seek_progress(base, alive=alive)
        assert outcome.failure == "ErrorB"
        assert outcome.counters.roots_tried == ROOT_RETRIES
        assert rebuild.call_count == 0
        assert gathers.call_count == 1 and unpacked.count(True) == 1

    def test_alive_outside_g_raises_value_error(self):
        # a bit at or above n, or a negative set, is refused before any
        # gather, on int and packed bases and below or above the cutoff
        g, _ = generate_planted(GenParams(n=100, edge_prob=0.5, seed=2))
        base = induced_subgraph(g, (1 << g.n) - 1)[0]
        with patch.object(graph, "unpack_bits", side_effect=AssertionError("gathered")):
            for G in (g, base):
                for alive in ((1 << 101) - 1, 1 << 100, (1 << 30) | 1 << 100, -1, -(1 << 70)):
                    with pytest.raises(ValueError):
                        seek_progress(G, alive=alive)

    def test_gathered_rows_peak_at_the_block_and_two_blocks(self):
        # one search over the base of a planted G(2048, 1/2) working graph
        # with about 3/4 of it alive holds the gathered alive rows, h x
        # ceil(n/64) words, beside what its kernels and its rebuild hold
        n = 2048
        g, _ = generate_planted(GenParams(n=n, edge_prob=0.5, seed=0))
        base = induced_subgraph(g, (1 << n) - 1)[0]
        del g
        rng = random.Random(1)
        alive = sum(1 << v for v in range(n) if rng.random() < 0.75)
        made = []

        def gather(G, bits):
            made.append(MemberRows(G, bits))
            return made[-1]

        with patch.object(search, "MemberRows", gather):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                seek_progress(base, alive=alive)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
        block = made[0].rows.nbytes
        assert block == alive.bit_count() * ((n + 63) // 64) * 8
        assert peak <= block + 2 * ROW_SUM_BYTES, (peak, block)

    def test_all_of_g_is_the_working_graph(self):
        g, _ = generate_planted(GenParams(n=200, edge_prob=0.3, seed=1))
        p = make_params(200, 2.6, c1=2.0, c2=2.0)
        with patch.object(search, "induced_subgraph", wraps=induced_subgraph) as rebuild:
            outcome = seek_progress(g, p, alive=(1 << g.n) - 1)
        assert rebuild.call_count == 0
        assert outcome == seek_progress(g, p)
        assert_seek_on_base_matches_rebuilt(g, (1 << g.n) - 1, p, 0)


class TestDerivedCounters:
    """seek_progress reads its counters off the finished outcome; each one
    equals an independent count of what the search did."""

    def test_counters_match_counted_calls(self):
        seen = []  # per example: (roots tried, side-cut checks, adopted)

        @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1),
               st.sampled_from([0.5, 0.8, 1.0]), st.booleans())
        @settings(max_examples=80, deadline=None, derandomize=True, database=None)
        def check(graph_seed, seed, share, side_cuts):
            # the cut params block the large-set exit, so rounds, side cuts
            # and their audits run; the base carries words, as the driver's do
            g = arbitrary_graph(graph_seed)
            base = induced_subgraph(g, (1 << g.n) - 1)[0]
            rng = random.Random(seed)
            alive = sum(1 << v for v in range(g.n) if rng.random() < share)
            p = Params.for_graph(g.n, g.min_degree(), k=2.6, c1=2.0, c2=2.0,
                                 side_cuts=side_cuts)
            trace = []
            with patch.object(search, "build_two_level",
                              wraps=search.build_two_level) as builds, \
                    patch.object(search, "best_side_cut",
                                 wraps=search.best_side_cut) as side_checks:
                try:
                    outcome = seek_progress(base, p, trace=trace, alive=alive)
                except Not3Colorable:
                    return
            counters = outcome.counters
            assert counters.roots_tried == builds.call_count
            assert counters.roots_tried == outcome.two_colorable.bit_count()
            assert counters.side_cut_checks == side_checks.call_count
            adopted = sum(entry["event"] == "side_cut" for entry in trace)
            assert counters.side_cuts_adopted == adopted
            seen.append((counters.roots_tried, counters.side_cut_checks, adopted))

        check()
        # the drawn searches stop early and try every root, and some check
        # and adopt side cuts
        assert {tried == ROOT_RETRIES for tried, _, _ in seen} == {True, False}
        assert any(checks for _, checks, _ in seen)
        assert any(adopted for _, _, adopted in seen)


def sink_case(gen, overrides):
    g, _ = generate_planted(gen)
    return g, Params.for_graph(g.n, g.min_degree(), **overrides)


class TestSink:
    def test_untraced_search_builds_no_round_end_entry(self):
        g, p = sink_case(*SINK_CASES[0])
        with patch.object(search.RoundAudit, "to_dict",
                          side_effect=AssertionError("round_end entry built")):
            outcome = seek_progress(g, p=p)
        assert len(outcome.audits) == 3

    @pytest.mark.parametrize("gen, overrides", SINK_CASES)
    def test_kept_outputs_do_not_change_the_search(self, gen, overrides):
        g, p = sink_case(gen, overrides)
        trace, claims = [], []
        kept = seek_progress(g, p=p, trace=trace, claim_log=claims)
        assert trace
        assert kept == seek_progress(g, p=p)

    @pytest.mark.parametrize("gen, overrides", SINK_CASES)
    def test_kept_outputs_do_not_change_the_pipeline(self, gen, overrides):
        g, p = sink_case(gen, overrides)
        trace, claims = [], []
        kept = pipeline_color(g, p, trace=trace, claim_log=claims)
        assert claims and any(entry.get("event") == "cut" for entry in trace)
        assert kept == pipeline_color(g, p)
