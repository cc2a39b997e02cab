import math
import random

import pytest

from threecolor import baselines
from threecolor.baselines import (
    TAU,
    greedy_color,
    neighborhood_extraction_color,
    pipeline_color,
    seek_only_color,
)
from threecolor.generate import GenParams, generate_planted
from threecolor.graph import build_graph, is_proper_coloring
from threecolor.structure import Not3Colorable, certificate_is_valid, find_certificate

K4 = build_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])


class TestGreedy:
    def test_triangle_sequential(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        coloring = greedy_color(g)
        assert coloring.assignment == (0, 1, 2)

    def test_edgeless(self):
        g = build_graph(5, [])
        coloring = greedy_color(g)
        assert set(coloring.assignment) == {0}
        assert coloring.palette_size == 1

    def test_degree_bound_on_random_graphs(self):
        rng = random.Random(3)
        for trial in range(100):
            n = rng.randrange(2, 40)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            edges = [e for e in pairs if rng.random() < 0.3]
            g = build_graph(n, edges)
            coloring = greedy_color(g)
            ok, _ = is_proper_coloring(g, coloring)
            assert ok
            assert coloring.palette_size <= g.max_degree() + 1


class TestNeighborhoodExtraction:
    def test_k4_rejected(self):
        with pytest.raises(Not3Colorable) as err:
            neighborhood_extraction_color(K4)
        assert certificate_is_valid(K4, err.value.hub, err.value.cycle)

    def test_star_trace(self):
        # star K_{1,9} at threshold 3: one extraction colors the nine
        # leaves with a fresh pair, the center goes greedy: 3 colors
        g = build_graph(10, [(0, i) for i in range(1, 10)])
        coloring, report = neighborhood_extraction_color(g, threshold=3)
        ok, _ = is_proper_coloring(g, coloring)
        assert ok
        assert report.extractions == 1
        assert coloring.palette_size == 3

    def test_palette_bound_on_planted(self):
        for seed in range(5):
            g, _ = generate_planted(GenParams(n=400, edge_prob=0.5, seed=seed))
            coloring, report = neighborhood_extraction_color(g)
            ok, _ = is_proper_coloring(g, coloring)
            assert ok
            threshold = math.ceil(math.sqrt(2 * g.n))
            assert coloring.palette_size <= 2 * math.ceil(g.n / threshold) + threshold

    def test_default_threshold(self):
        g, _ = generate_planted(GenParams(n=200, edge_prob=0.5, seed=1))
        _, report = neighborhood_extraction_color(g)
        assert report.threshold == math.ceil(math.sqrt(400))


class TestPipeline:
    def test_bipartite_graph(self):
        edges = [(u, v) for u in range(5) for v in range(5, 10)]
        g = build_graph(10, edges)
        coloring, report = pipeline_color(g)
        ok, _ = is_proper_coloring(g, coloring)
        assert ok
        assert coloring.palette_size <= 3

    def test_k4_detected(self):
        with pytest.raises(Not3Colorable) as err:
            pipeline_color(K4)
        assert certificate_is_valid(K4, err.value.hub, err.value.cycle)

    def test_k4_join_detected(self):
        # K4 joined completely to a planted graph: the pipeline must
        # reject with a certificate valid in the original graph
        g, _ = generate_planted(GenParams(n=70, edge_prob=0.4, seed=5))
        edges = list(g.edges())
        base = g.n
        for i in range(4):
            for j in range(i + 1, 4):
                edges.append((base + i, base + j))
            for v in range(base):
                edges.append((base + i, v))
        big = build_graph(base + 4, edges)
        with pytest.raises(Not3Colorable) as err:
            pipeline_color(big)
        assert certificate_is_valid(big, err.value.hub, err.value.cycle)

    def test_hub_deferred_when_no_certificate_checks_out(self, monkeypatch):
        # a hub on 69 rim vertices, three of which form a triangle: the
        # hub's neighborhood is not bipartite, and with the certificate
        # path finding nothing the pipeline defers the hub and colors on
        checked = []
        monkeypatch.setattr(baselines, "find_certificate", lambda *args: None)
        monkeypatch.setattr(baselines, "certificate_is_valid",
                            lambda G, hub, cycle: checked.append(hub) or False)
        g = build_graph(70, [(0, v) for v in range(1, 70)] + [(1, 2), (2, 3), (1, 3)])
        trace = []
        coloring, _ = pipeline_color(g, trace=trace)
        assert checked[0] == 0
        assert is_proper_coloring(g, coloring)[0]
        first = next(e for e in trace if "mechanism" in e)
        assert (first["mechanism"], first["graph_size"]) == ("defer", 69)

    def test_planted_instances_color_properly(self):
        for seed, n, prob in [(0, 80, 0.5), (1, 120, 0.3), (2, 200, 0.6)]:
            g, _ = generate_planted(GenParams(n=n, edge_prob=prob, seed=seed))
            coloring, report = pipeline_color(g)
            ok, _ = is_proper_coloring(g, coloring)
            assert ok
            assert report.colors_used == coloring.palette_size

    def test_deterministic(self):
        g, _ = generate_planted(GenParams(n=150, edge_prob=0.5, seed=7))
        a, _ = pipeline_color(g)
        b, _ = pipeline_color(g)
        assert a == b

    def test_trace_emitted(self):
        g, _ = generate_planted(GenParams(n=100, edge_prob=0.5, seed=2))
        trace = []
        pipeline_color(g, trace=trace)
        assert any(e.get("mechanism") for e in trace)


def test_empty_graph_everywhere():
    g = build_graph(0, [])
    for fn in (lambda: greedy_color(g),
               lambda: neighborhood_extraction_color(g)[0],
               lambda: pipeline_color(g)[0],
               lambda: seek_only_color(g)[0]):
        coloring = fn()
        assert coloring.assignment == ()
        assert coloring.palette_size == 0


def test_degree_split_floor_arithmetic():
    # default split exponent puts the n=5000 floor at 173
    assert math.ceil(5000 ** TAU) == 173


class TestSeekOnly:
    def test_planted_instance(self):
        g, _ = generate_planted(GenParams(n=120, edge_prob=0.5, seed=4))
        coloring, report = seek_only_color(g)
        ok, _ = is_proper_coloring(g, coloring)
        assert ok
        assert report.seek_calls >= 1

    def test_edgeless(self):
        g = build_graph(6, [])
        coloring, _ = seek_only_color(g)
        ok, _ = is_proper_coloring(g, coloring)
        assert ok
        assert coloring.palette_size == 1


def fuzz_graph(seed):
    """G(n, p) graph of the arbitrary-graph fuzz: n in [26, 90), p drawn
    from {0.05, 0.1, 0.2, 0.3}, pairs u < v drawn in lexicographic order."""
    rng = random.Random(seed)
    n = rng.randrange(26, 90)
    p = rng.choice([0.05, 0.1, 0.2, 0.3])
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return build_graph(n, edges)


# graphs that are not 3-colorable on which the seek colorer once raised a
# certificate in working-graph ids (first six) or UnsoundProgress on a
# vacuous monochromatic set (last six)
FUZZ_SEEDS = (110, 1110, 1124, 1321, 2339, 2916, 1330, 1950, 2079, 2413, 2511, 2668)
NO_ODD_WHEEL = (1124, 2511, 2668)


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
@pytest.mark.parametrize("colorer", [seek_only_color, pipeline_color],
                         ids=["seek", "pipeline"])
def test_fuzz_graph_colored_or_certified(colorer, seed):
    g = fuzz_graph(seed)
    if seed in NO_ODD_WHEEL:
        assert find_certificate(g) is None
    try:
        coloring, _ = colorer(g)
    except Not3Colorable as exc:
        assert seed not in NO_ODD_WHEEL
        assert certificate_is_valid(g, exc.hub, exc.cycle)
    else:
        assert is_proper_coloring(g, coloring)[0]
