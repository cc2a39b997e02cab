import pytest
from test_graph import contract

from threecolor.generate import GenParams, generate_planted
from threecolor.graph import VertexSet, build_graph, is_proper_coloring
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


def vs(n, members):
    return VertexSet.from_iterable(n, members)


class TestThresholds:
    def test_basic_arithmetic(self):
        assert type1_threshold(100, 10) == 10
        assert type1_threshold(100, 100) == 1
        assert type1_threshold(100, 10, c1=0.5) == 5


class TestDriver:
    def test_triangle_exhausted_goes_greedy(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        coloring, stats = color_with_progress(g, 1.0, lambda view: EXHAUSTED)
        ok, _ = is_proper_coloring(g, coloring)
        assert ok
        assert coloring.palette_size == 3
        assert stats.colors_used == 3

    def test_path_type1_then_exhausted(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        calls = []

        def source(view):
            calls.append(view.n_alive)
            if len(calls) == 1:
                members = vs(3, [0, 2])
                return Type1(members, members, VertexSet(3))
            return EXHAUSTED

        coloring, stats = color_with_progress(g, 2.0, source)
        ok, _ = is_proper_coloring(g, coloring)
        assert ok
        # endpoints share one fresh color, the middle falls back: 2 total
        assert coloring.palette_size == 2
        assert coloring.assignment[0] == coloring.assignment[2]
        assert stats.type1_batches == 1
        assert stats.graph_sizes[0] == 3

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
                return MonoSet(vs(5, [0, 1, 2, 3]))
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
                members = vs(12, [0])
                return Type2(members, members, VertexSet(12), vs(12, [1, 2, 3]))
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
            members = vs(4, [0])
            # neighborhood understated: should be {1, 2, 3}
            return Type2(members, members, VertexSet(4), vs(4, [1]))

        with pytest.raises(UnsoundProgress):
            color_with_progress(g, 1.0, source)

    def test_unsound_type1_below_threshold(self):
        g = build_graph(6, [(0, 1), (2, 3), (4, 5)])

        def source(view):
            members = vs(6, [0])
            return Type1(members, members, VertexSet(6))

        with pytest.raises(UnsoundProgress):
            color_with_progress(g, 1.0, source)

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
                members = vs(8, [0])
                return Type2(members, members, VertexSet(8), vs(8, [1, 2]))
            if len(handed) == 1:
                handed.append(2)
                members = vs(8, [4])
                return Type2(members, members, VertexSet(8), vs(8, [5, 6]))
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


class TestMergeVertexSet:
    def test_matches_repeated_contract(self):
        g = build_graph(
            7,
            [(0, 2), (0, 3), (1, 4), (2, 4), (3, 5), (4, 6), (5, 6), (2, 6)],
        )
        members = vs(7, [0, 1, 5])  # pairwise non-adjacent
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
            merge_vertex_set(g, vs(3, [1]))
