import math
import random
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st
from test_graph import mask

from threecolor import baselines, search
from threecolor.baselines import (
    TAU,
    greedy_color,
    neighborhood_extraction_color,
    pipeline_color,
    seek_only_color,
)
from threecolor.generate import GenParams, generate_planted
from threecolor.graph import build_graph, is_proper_coloring
from threecolor.params import Params
from threecolor.progress import DriverView, Sink, induced_subgraph
from threecolor.search import SeekCounters, SeekOutcome
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


def without_carry(*args, **kwargs):
    """seek_progress told of no 2-colorable neighborhood."""
    return search.seek_progress(*args, **{**kwargs, "two_colorable": 0})


def run_outputs(colorer, g):
    """A run's coloring and report, or its certificate, with its trace and
    its claims (each claim's graph as its rows)."""
    trace, claims = [], []
    try:
        coloring, report = colorer(g, trace=trace, claim_log=claims)
        result = (coloring, report)
    except Not3Colorable as exc:
        result = (exc.hub, exc.cycle)
    return result, trace, [(c.kind, c.vertices, c.conditional, c.graph.n,
                            tuple(c.graph.adj_rows)) for c in claims]


def recorded_seeks():
    """A seek_progress that records the carried set passed to each call,
    and to each call that raised a certificate."""
    passed, raised = [], []

    def seek(*args, **kwargs):
        passed.append(kwargs["two_colorable"])
        try:
            return search.seek_progress(*args, **kwargs)
        except Not3Colorable:
            raised.append(passed[-1])
            raise

    return seek, passed, raised


def arbitrary_graph(seed):
    """A graph whose vertices fall in 1 to 4 random classes, with edges
    across classes at one density and inside a class at another.  One
    class gives G(n, p); no edge inside a class, a planted 3-colorable
    graph (up to 3 classes); a few edges inside, a graph that may have no
    3-coloring.  Half the 3-class graphs lose their edges inside classes
    for one odd wheel: a 5-cycle through the classes, joined to a hub
    whose edge inside its class is the only one left.  The shape comes
    from the seed, weighted towards the dense graphs at n >= 64 on which
    the pipeline seeks repeatedly."""
    rng = random.Random(seed)
    n = rng.randrange(64, 200) if rng.random() < 0.8 else rng.randrange(0, 30)
    classes = rng.choice([1, 2, 3, 3, 3, 4])
    across = rng.choice([0.1, 0.3, 0.5, 0.7, 0.8])
    inside = rng.choice([0.0, 0.0, 0.0, 0.0005, 0.001, 0.003, 0.02, 0.3])
    cls = [rng.randrange(classes) for _ in range(n)]
    edges = {(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < (across if cls[u] != cls[v] else inside)}
    if classes == 3 and n >= 8 and rng.random() < 0.5:
        edges = {(u, v) for u, v in edges if cls[u] != cls[v]}
        hub = rng.randrange(n)
        a, b = (c for c in range(3) if c != cls[hub])
        members = [[v for v in range(n) if cls[v] == c and v != hub]
                   for c in (a, b, cls[hub])]
        if all(len(m) >= 2 for m in members):
            (a1, a2), (b1, b2) = rng.sample(members[0], 2), rng.sample(members[1], 2)
            cycle = (a1, b1, a2, b2, rng.choice(members[2]))
            for u, v in zip(cycle, cycle[1:] + cycle[:1]):
                edges |= {(min(u, v), max(u, v)), (min(hub, u), max(hub, u))}
    return build_graph(n, sorted(edges))


class TestCarriedTwoColorings:
    """The seek source carries the roots whose neighborhoods 2-colored
    from one search to the next (``baselines._seek``)."""

    @given(st.integers(0, 2**32 - 1).map(arbitrary_graph))
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    def test_carry_changes_no_output(self, g):
        for colorer in (pipeline_color, seek_only_color):
            shipped = run_outputs(colorer, g)
            with patch.object(baselines, "seek_progress", without_carry):
                assert run_outputs(colorer, g) == shipped

    def test_dense_pipeline_carries_roots_between_failing_seeks(self):
        # the pinned dense instance: every seek fails with ErrorB and the
        # next one, after deferrals, retries most of the same roots
        g, _ = generate_planted(GenParams(n=300, edge_prob=0.7, seed=0))
        recording, passed, _ = recorded_seeks()
        with patch.object(baselines, "seek_progress", recording):
            shipped = run_outputs(pipeline_color, g)
        assert len(passed) > 1 and passed[0] == 0
        assert all(known for known in passed[1:])
        with patch.object(baselines, "seek_progress", without_carry):
            assert run_outputs(pipeline_color, g) == shipped

    def test_certificate_after_carried_searches_is_unchanged(self):
        # an arbitrary graph whose hidden odd wheel is first met by a search
        # handed carried roots; reading a base id as a working id there
        # would skip that 2-coloring and raise a different certificate
        g = arbitrary_graph(1821)
        recording, passed, raised = recorded_seeks()
        with patch.object(baselines, "seek_progress", recording):
            shipped = run_outputs(pipeline_color, g)
        assert len(raised) == 1 and raised[0] and len(passed) > 1
        assert certificate_is_valid(g, *shipped[0])
        with patch.object(baselines, "seek_progress", without_carry):
            assert run_outputs(pipeline_color, g) == shipped

    def test_carry_follows_the_base_and_a_shrinking_alive_set(self):
        g = build_graph(8, [(v, (v + 1) % 8) for v in range(8)])
        run = baselines._Run.start(g, None, "pipeline", Sink())
        full = (1 << 8) - 1
        passed = []
        # base ids of the roots each call reports as 2-colored
        returned = [mask([0, 3]), 0, mask([2]), mask([1]), mask([3]), 0]

        def seek(base, p=None, *, claim_log=None, trace=None, alive=None, two_colorable=0):
            passed.append((base, alive, two_colorable))
            return SeekOutcome(None, "ErrorB", [], SeekCounters(0, 0, 0),
                               two_colorable=returned.pop(0))

        def seek_on(base, alive):
            baselines._seek(run, DriverView(base, alive, None, None,
                                            [(v,) for v in range(base.n)]))
            # the search runs on the view's base under its alive set
            assert passed[-1][:2] == (base, alive)
            return passed[-1][2], run.two_colorable

        with patch.object(baselines, "seek_progress", seek):
            assert seek_on(g, full) == (0, mask([0, 3]))
            assert seek_on(g, full & ~mask([1])) == (mask([0, 3]), mask([0, 3]))
            # vertex 0 leaves and drops out of the set
            assert seek_on(g, full & ~mask([0, 1])) == (mask([3]), mask([2, 3]))
            # vertex 1 returns: nothing is carried into this search
            assert seek_on(g, full & ~mask([0])) == (0, mask([1]))
            # a new base (a contraction's) carries nothing either
            g2 = build_graph(8, list(g.edges()))
            assert seek_on(g2, full & ~mask([0])) == (0, mask([3]))
            assert seek_on(g2, full & ~mask([0])) == (mask([3]), mask([3]))


class TestWorkingGraphRebuilds:
    """The seek source searches the driver's base under the alive set; the
    working graph is rebuilt only for a root whose round-1 pair survives."""

    @staticmethod
    def rebuilds(g, p=None):
        with patch.object(search, "induced_subgraph", wraps=induced_subgraph) as rebuild:
            _, report = pipeline_color(g, p)
        return rebuild.call_count, report

    def test_doomed_seeks_rebuild_nothing(self):
        # the pinned dense instance: every root of every seek is doomed
        g, _ = generate_planted(GenParams(n=600, edge_prob=0.7, seed=0))
        calls, report = self.rebuilds(g)
        assert calls == 0
        assert report.seek_calls == 21 and report.seek_failures == {"ErrorB": 21}

    def test_surviving_pairs_rebuild_the_working_graph(self):
        # a pinned cuts case: the cut params block the large-set exit
        g, _ = generate_planted(GenParams(n=200, edge_prob=0.3, seed=1))
        p = Params.for_graph(g.n, max(g.min_degree(), 1), k=2.6, c1=2.0, c2=2.0)
        calls, report = self.rebuilds(g, p)
        assert 1 <= calls <= report.seek_calls
