import random

import pytest
from hypothesis import given, settings, strategies as st
from test_graph import contract, mask

from threecolor.generate import GenParams, generate_planted
from threecolor.graph import (
    OddCycle,
    bipartition,
    build_graph,
    is_proper_coloring,
    iter_bits,
)
from threecolor.progress import (
    EXHAUSTED,
    Defer,
    MonoSet,
    Type0,
    Type1,
    Type2,
    UnsoundProgress,
    color_with_progress,
    merge_vertex_set,
    type1_threshold,
)


class TestThresholds:
    def test_basic_arithmetic(self):
        assert type1_threshold(100, 10) == 10
        assert type1_threshold(100, 100) == 1
        assert type1_threshold(100, 10, c1=0.5) == 5


class TestDriver:
    def test_triangle_exhausted_goes_greedy(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        coloring, _ = color_with_progress(g, 1.0, lambda view: EXHAUSTED)
        ok, _ = is_proper_coloring(g, coloring)
        assert ok
        assert coloring.palette_size == 3

    def test_path_type1_then_exhausted(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        calls = []

        def source(view):
            calls.append(view.n_alive)
            if len(calls) == 1:
                members = mask([0, 2])
                return Type1(members, members, 0)
            return EXHAUSTED

        coloring, stats = color_with_progress(g, 2.0, source)
        ok, _ = is_proper_coloring(g, coloring)
        assert ok
        # endpoints share one fresh color, the middle falls back: 2 total
        assert coloring.palette_size == 2
        assert coloring.assignment[0] == coloring.assignment[2]
        assert stats.type1_batches == 1
        assert calls[0] == 3

    def test_type0_contraction_propagates(self):
        g = build_graph(3, [(0, 1), (1, 2)])

        def source(view):
            if view.n_alive == 3:
                return Type0(0, 2)
            return EXHAUSTED

        coloring, stats = color_with_progress(g, 1.0, source)
        ok, _ = is_proper_coloring(g, coloring)
        assert ok
        assert coloring.assignment[0] == coloring.assignment[2]
        assert stats.contractions == 1

    def test_monoset_merges_whole_set(self):
        g = build_graph(5, [(0, 4), (1, 4), (2, 4), (3, 4)])

        def source(view):
            if view.n_alive == 5:
                return MonoSet(mask([0, 1, 2, 3]))
            return EXHAUSTED

        coloring, stats = color_with_progress(g, 1.0, source)
        ok, _ = is_proper_coloring(g, coloring)
        assert ok
        assert len({coloring.assignment[v] for v in range(4)}) == 1
        assert stats.contractions == 3

    def test_defer_unwind_respects_residual_degree(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        deferred = []

        def source(view):
            v, d = view.min_degree_vertex()
            if view.n_alive > 1:
                deferred.append((v, d))
                return Defer(v)
            return EXHAUSTED

        coloring, stats = color_with_progress(g, 1.0, source)
        ok, _ = is_proper_coloring(g, coloring)
        assert ok
        assert stats.deferred == 3
        assert coloring.palette_size <= 3

    def test_defer_during_open_phase_counts_parked_neighbors(self):
        # v = 4's only neighbors sit in the open phase's set-aside; its
        # residual degree must include them or the unwind pick overruns
        edges = [(0, 1), (0, 2), (0, 3), (4, 1), (4, 2), (4, 3),
                 (1, 2), (2, 3)]
        g = build_graph(12, edges)
        steps = []

        def source(view):
            steps.append(view.n_alive)
            if len(steps) == 1:
                members = mask([0])
                return Type2(members, members, 0, mask([1, 2, 3]))
            if len(steps) == 2:
                return Defer(4)
            return EXHAUSTED

        coloring, stats = color_with_progress(g, 4.0, source)
        ok, _ = is_proper_coloring(g, coloring)
        assert ok
        assert stats.deferred == 1 and stats.phases == 1

    def test_unsound_type2_rejected(self):
        g = build_graph(4, [(0, 1), (0, 2), (0, 3)])

        def source(view):
            members = mask([0])
            # neighborhood understated: should be {1, 2, 3}
            return Type2(members, members, 0, mask([1]))

        with pytest.raises(UnsoundProgress):
            color_with_progress(g, 1.0, source)

    def test_unsound_type1_below_threshold(self):
        g = build_graph(6, [(0, 1), (2, 3), (4, 5)])

        def source(view):
            members = mask([0])
            return Type1(members, members, 0)

        with pytest.raises(UnsoundProgress):
            color_with_progress(g, 1.0, source)

    @pytest.mark.parametrize("claim", [
        Type1(mask([0, 4]), mask([0, 4]), 0),
        Type1(mask([0]), mask([0, 9]), 0),
        Type2(mask([1, 70]), mask([1, 70]), 0, mask([0, 2])),
        MonoSet(mask([0, 4])),
        MonoSet(mask([2, 3, 64])),
        MonoSet(-1),
    ])
    def test_mask_beyond_the_graph_rejected(self, claim):
        # a bit at or above n names no vertex of the 4-vertex working graph
        g = build_graph(4, [(0, 1), (1, 2)])
        with pytest.raises(UnsoundProgress):
            color_with_progress(g, 4.0, lambda view: claim)

    def test_adjacent_type0_rejected(self):
        g = build_graph(2, [(0, 1)])
        with pytest.raises(UnsoundProgress):
            color_with_progress(g, 1.0, lambda view: Type0(0, 1))

    def test_phase_batching_shares_colors(self):
        # two far-apart independent pairs extracted in one phase reuse
        # the same color pair
        g = build_graph(
            8, [(0, 1), (1, 2), (2, 0), (4, 5), (5, 6), (6, 4), (3, 7)]
        )
        handed = []

        def source(view):
            if not handed:
                handed.append(1)
                members = mask([0])
                return Type2(members, members, 0, mask([1, 2]))
            if len(handed) == 1:
                handed.append(2)
                members = mask([4])
                return Type2(members, members, 0, mask([5, 6]))
            return EXHAUSTED

        coloring, stats = color_with_progress(g, 8.0, source)
        ok, _ = is_proper_coloring(g, coloring)
        assert ok
        assert coloring.assignment[0] == coloring.assignment[4]
        assert stats.type2_batches == 2
        assert stats.phases == 1

    def test_trace_shape(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        trace = []
        color_with_progress(g, 1.0, lambda view: EXHAUSTED, trace=trace)
        assert trace
        for entry in trace:
            assert {"step", "mechanism", "set_size", "neighborhood_size",
                    "colors_so_far", "graph_size"} <= set(entry)

    def test_planted_instance_via_simple_source(self):
        g, _ = generate_planted(GenParams(n=60, edge_prob=0.4, seed=3))

        def source(view):
            v, d = view.max_degree_vertex()
            if view.n_alive < 8:
                return EXHAUSTED
            return Defer(view.min_degree_vertex()[0])

        coloring, stats = color_with_progress(g, 2.0, source)
        ok, _ = is_proper_coloring(g, coloring)
        assert ok


def recount_extremes(view):
    """(max, min) degree vertex of the working graph, recounted over the
    alive vertices: the largest and the smallest degree, lowest id first."""
    degrees = [((view.base.adj_bits(v) & view.alive_bits).bit_count(), v)
               for v in iter_bits(view.alive_bits)]
    d_max = max(d for d, _ in degrees)
    d_min = min(d for d, _ in degrees)
    return ((min(v for d, v in degrees if d == d_max), d_max),
            (min(v for d, v in degrees if d == d_min), d_min))


def random_action(rng, view):
    """A sound driver action on the working graph: a deferral, a
    neighborhood or a vertex extracted as Type1 or Type2, a Type0 pair or a
    monochromatic independent set to merge, or the end of the run."""
    G, alive = view.base, view.alive_bits
    ids = list(iter_bits(alive))
    v = rng.choice(ids)
    roll = rng.random()
    if roll < 0.03:
        return EXHAUSTED
    if roll < 0.45:
        return Defer(v)
    if roll < 0.65:
        W = view.neighbors_bits(v) or 1 << v
        split = bipartition(G, W)
        if isinstance(split, OddCycle):
            return Defer(v)
        return Type1(W, split.side0, split.side1)
    if roll < 0.75:
        one = 1 << v
        return Type2(one, one, 0, view.neighbors_bits(v))
    # an independent set of alive vertices, greedily in a random order
    rng.shuffle(ids)
    members = 0
    for u in ids[:rng.randrange(2, 6)]:
        if not G.adj_bits(u) & members:
            members |= 1 << u
    if members.bit_count() < 2:
        return Defer(v)
    if members.bit_count() == 2:
        return Type0(*iter_bits(members))
    return MonoSet(members)


class TestDegreeKeys:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_extremes_match_a_recount_at_every_step(self, data):
        # k = n puts the Type1 floor at one vertex and lets a Type2
        # neighborhood hold n vertices, so every drawn set is sound
        n = data.draw(st.integers(1, 70))
        p = data.draw(st.sampled_from([0.0, 0.1, 0.3, 0.6, 1.0]))
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                            if rng.random() < p])
        steps = []

        def source(view):
            steps.append(view.n_alive)
            expect_max, expect_min = recount_extremes(view)
            assert view.max_degree_vertex() == expect_max
            assert view.min_degree_vertex() == expect_min
            return random_action(rng, view)

        coloring, _ = color_with_progress(g, float(n), source)
        assert is_proper_coloring(g, coloring)[0]
        assert steps[0] == n


class TestMergeVertexSet:
    def test_matches_repeated_contract(self):
        g = build_graph(
            7,
            [(0, 2), (0, 3), (1, 4), (2, 4), (3, 5), (4, 6), (5, 6), (2, 6)],
        )
        members = mask([0, 1, 5])  # pairwise non-adjacent
        merged, mapping = merge_vertex_set(g, members)

        step, map1 = contract(g, 0, 1)
        step, map2 = contract(step, map1[0], map1[5])
        assert merged.n == step.n
        assert merged.m == step.m
        for v in range(g.n):
            expect = map2[map1[v]]
            assert mapping[v] == expect
        for v in range(merged.n):
            assert merged.adj_bits(v) == step.adj_bits(v)

    def test_rejects_singleton(self):
        g = build_graph(3, [])
        with pytest.raises(ValueError):
            merge_vertex_set(g, mask([1]))
