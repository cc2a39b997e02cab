import json
import math
import random
from fractions import Fraction
from unittest.mock import patch

from hypothesis import given, settings, strategies as st
from test_graph import mask

from threecolor import search
from threecolor.generate import GenParams, generate_planted
from threecolor.graph import build_graph, iter_bits, packed_subgraph
from threecolor.oracle import enumerate_3colorings, verify_logged_claim
from threecolor.params import Params, default_round_cap, nhat
from threecolor.progress import MonoSet, induced_subgraph
from threecolor.search import (
    ROOT_RETRIES,
    SIDECUT_FACTOR,
    InnerError,
    MonochromaticIfDiffer,
    ProgressFound,
    SeekOutcome,
    SparseCut,
    audit_round,
    best_side_cut,
    check_sparse_cut,
    cut_or_color,
    inner_loop,
    seek_progress,
)
from threecolor.structure import RegularPair


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


class TestInnerLoop:
    def test_singleton_s_is_error_a(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        pair = RegularPair(mask([1]), mask([2]), Fraction(1), Fraction(1), 1)
        res = inner_loop(g, 0, pair, make_params(3, 1.0))
        assert isinstance(res, InnerError) and res.reason == "ErrorA"

    def test_too_few_seeds_is_error_b(self):
        g, s_ids, t_ids = complete_bipartite_with_root(2, 1)
        pair = RegularPair(mask(s_ids), mask(t_ids),
                           Fraction(1), Fraction(1), 1)
        p = make_params(g.n, 1.0)  # nhat = n, unreachable
        trace = []
        with patch.object(search, "with_degree_at_least",
                          wraps=search.with_degree_at_least) as count:
            res = inner_loop(g, 0, pair, p, trace=trace)
        assert isinstance(res, InnerError) and res.reason == "ErrorB"
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
        with patch.object(search, "with_degree_at_least",
                          wraps=search.with_degree_at_least) as count:
            res = inner_loop(g, 0, pair, p, trace=trace)
        assert isinstance(res, InnerError) and res.reason == "ErrorB"
        assert count.call_count == 1
        assert trace == [{"event": "error", "reason": "ErrorB"}]

    def test_complete_bipartite_yields_monochromatic_set(self):
        g, s_ids, t_ids = complete_bipartite_with_root(extra_t_edge=True)
        pair = RegularPair(mask(s_ids), mask(t_ids),
                           Fraction(2), Fraction(1), 1)
        p = make_params(g.n, 2.0)  # nhat = ceil(7/4) = 2
        log = []
        res = inner_loop(g, 0, pair, p, claim_log=log)
        assert isinstance(res, ProgressFound)
        assert isinstance(res.progress, MonoSet)
        assert res.progress.members == mask(s_ids)
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
        # smaller materialized working graph reads nhat and round_cap off it
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
            g = packed_subgraph(g.adj_rows, range(g.n))
        tried = []

        def first_root_fails(G, r0, p, audits, counters, claim_log, trace):
            tried.append(r0)
            return SeekOutcome(None, "ErrorB", audits, counters)

        with patch.object(search, "_seek_from_root", first_root_fails):
            seek_progress(g)
        expect = [v for v in sorted(range(g.n), key=lambda u: (-g.degree(u), u))
                  if g.degree(v) >= 1][:ROOT_RETRIES]
        assert tried == expect
        assert all(type(v) is int for v in tried)

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
