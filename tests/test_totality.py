"""Totality over arbitrary simple graphs (derandomized Hypothesis).

The graphs are drawn outright, not planted, and the params from the
four settable keys.  Both colorers and the search either color the input
properly or raise a certificate that checks against it.  On graphs of up
to 25 vertices, the oracle's default cap, every claim logged on the way
passes the exhaustive oracle; on a graph with no 3-coloring the oracle's
verdicts are vacuous.  Graphs of 26 to 90 vertices, where the pipeline's
search runs, are checked for totality alone.  A planted graph under a
random relabeling must still color.
"""
from hypothesis import given, settings, strategies as st

from threecolor.baselines import pipeline_color, seek_only_color
from threecolor.generate import GenParams, generate_planted
from threecolor.graph import build_graph, is_proper_coloring
from threecolor.oracle import verify_logged_claim, verify_progress_claim
from threecolor.params import Params
from threecolor.search import seek_progress
from threecolor.structure import Not3Colorable, certificate_is_valid

MAX_N = 25


@st.composite
def simple_graphs(draw, min_n=0, max_n=MAX_N):
    """A simple graph on min_n..max_n vertices: each pair an edge with one
    drawn probability, uniform on [0, 1] or an average degree of at most
    6, around where a random graph stops being 3-colorable."""
    n = draw(st.integers(min_n, max_n))
    density = draw(st.one_of(st.floats(0.0, 1.0),
                             st.floats(0.0, 6.0).map(lambda d: d / max(n - 1, 1))))
    # past 25 vertices the pairs outrun Hypothesis's entropy budget, so a
    # seeded Random draws them
    rng = draw(st.randoms(use_true_random=max_n > MAX_N))
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                           if rng.random() < density])


@st.composite
def run_params(draw, g):
    """Params for g from the four settable keys; a k past n is clamped to n."""
    k = draw(st.one_of(st.none(), st.floats(1.0, 4.0), st.floats(1.0, 1e6)))
    c1 = draw(st.floats(0.01, 4.0))
    c2 = c1 + draw(st.floats(0.0, 4.0))
    return Params.for_graph(g.n, max(g.min_degree(), 1), k=k, c1=c1, c2=c2,
                            side_cuts=draw(st.booleans()))


def run_all(g, p, log) -> bool:
    """Run both colorers and the search on g, logging their claims into
    ``log``, and check every result; returns whether any of them raised a
    certificate."""
    certified = False
    for run in (seek_only_color, pipeline_color, seek_progress):
        try:
            result = run(g, p, claim_log=log)
        except Not3Colorable as exc:
            assert certificate_is_valid(g, exc.hub, exc.cycle)
            certified = True
        else:
            if run is seek_progress:
                if result.progress is not None:
                    verdict = verify_progress_claim(g, result.progress, p.k,
                                                    c1=p.c1, c2=p.c2)
                    assert verdict.verified, verdict.reasons
            else:
                assert is_proper_coloring(g, result[0])[0]
    return certified


def assert_claims_hold(log):
    for claim in log:
        verdict = verify_logged_claim(claim)
        assert verdict.verified, (claim.kind, verdict.reasons)


@given(data=st.data())
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
def test_arbitrary_graph_colored_or_certified(data):
    g = data.draw(simple_graphs())
    log = []
    run_all(g, data.draw(run_params(g)), log)
    assert_claims_hold(log)


@given(data=st.data())
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_larger_arbitrary_graph_colored_or_certified(data):
    g = data.draw(simple_graphs(MAX_N + 1, 90))
    run_all(g, data.draw(run_params(g)), [])


@given(data=st.data())
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_relabeled_planted_graph_colors(data):
    n = data.draw(st.integers(1, MAX_N))
    planted, _ = generate_planted(GenParams(
        n=n, edge_prob=data.draw(st.floats(0.0, 1.0)),
        seed=data.draw(st.integers(0, 2**32 - 1))))
    perm = data.draw(st.permutations(range(n)))
    g = build_graph(n, [(perm[u], perm[v]) for u, v in planted.edges()])
    log = []
    assert not run_all(g, data.draw(run_params(g)), log)
    assert_claims_hold(log)
