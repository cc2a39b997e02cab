import math

import pytest

from threecolor.dimacs import MAX_VERTICES
from threecolor.generate import GenParams, MinDegreeUnreachable, generate_planted
from threecolor.graph import is_proper_coloring


def test_no_edges_at_p_zero():
    g, coloring = generate_planted(GenParams(n=20, edge_prob=0.0, seed=1))
    assert g.m == 0
    ok, _ = is_proper_coloring(g, coloring)
    assert ok


def test_forced_triangle():
    g, coloring = generate_planted(GenParams(n=3, edge_prob=1.0, seed=5))
    assert g.m == 3
    assert sorted(coloring.assignment) == [0, 1, 2]


def test_planted_coloring_always_proper():
    for seed in range(10):
        g, coloring = generate_planted(GenParams(n=40, edge_prob=0.6, seed=seed))
        ok, _ = is_proper_coloring(g, coloring)
        assert ok
        # only cross-class edges
        for u, v in g.edges():
            assert coloring.assignment[u] != coloring.assignment[v]


def test_deterministic_given_seed():
    a, ca = generate_planted(GenParams(n=60, edge_prob=0.5, seed=123))
    b, cb = generate_planted(GenParams(n=60, edge_prob=0.5, seed=123))
    assert a.m == b.m
    assert all(a.adj_bits(v) == b.adj_bits(v) for v in range(60))
    assert ca == cb


def test_different_seeds_differ():
    a, _ = generate_planted(GenParams(n=60, edge_prob=0.5, seed=1))
    b, _ = generate_planted(GenParams(n=60, edge_prob=0.5, seed=2))
    assert any(a.adj_bits(v) != b.adj_bits(v) for v in range(60))


def test_class_balance_sizes():
    g, coloring = generate_planted(
        GenParams(n=10, class_balance=(0.5, 0.3, 0.2), edge_prob=0.5, seed=0)
    )
    counts = [coloring.assignment.count(c) for c in range(3)]
    assert counts == [5, 3, 2]


def test_min_degree_statistics_over_seeds():
    # balanced n=300, p=0.5: degrees are Binomial(200, 0.5); the minimum
    # over 300 vertices stays above mean - 4 sigma = 100 - 4*sqrt(50)
    # on this fixed seed list (checked empirically before freezing)
    floor = 100 - 4 * math.sqrt(50)
    worst = None
    for seed in range(100):
        g, _ = generate_planted(GenParams(n=300, edge_prob=0.5, seed=seed))
        mindeg = g.min_degree()
        worst = mindeg if worst is None else min(worst, mindeg)
    assert worst is not None and worst >= floor


def test_min_degree_target_retries():
    # the contract is "achieved min degree >= target, or a reported failure"
    try:
        g, _ = generate_planted(
            GenParams(n=300, edge_prob=0.5, seed=7, min_degree_target=90)
        )
        assert g.min_degree() >= 90
    except MinDegreeUnreachable as exc:
        assert exc.target == 90
        assert exc.attempts == 17

    g, _ = generate_planted(
        GenParams(n=300, edge_prob=0.5, seed=7, min_degree_target=70)
    )
    assert g.min_degree() >= 70


def test_min_degree_unreachable():
    # 20 = n - the largest class is legal, but out of reach at p = 0.1
    with pytest.raises(MinDegreeUnreachable):
        generate_planted(
            GenParams(n=30, edge_prob=0.1, seed=0, min_degree_target=20)
        )


@pytest.mark.parametrize("n, p, balance, target", [
    (30, 0.1, (1 / 3, 1 / 3, 1 / 3), 21),
    (30, 1.0, (0.5, 0.25, 0.25), 16),
    (30, 0.0, (1 / 3, 1 / 3, 1 / 3), 1),
    (0, 0.5, (1 / 3, 1 / 3, 1 / 3), 1),
])
def test_min_degree_target_beyond_any_planted_graph_refused(n, p, balance, target):
    # a vertex of the largest class has at most n - |class| neighbors
    with pytest.raises(ValueError, match="min degree target"):
        GenParams(n=n, edge_prob=p, class_balance=balance, min_degree_target=target)
    GenParams(n=n, edge_prob=p, class_balance=balance, min_degree_target=target - 1)


def test_bad_params_rejected():
    with pytest.raises(ValueError):
        GenParams(n=10, class_balance=(0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        GenParams(n=10, edge_prob=1.5)
    for weights in ((math.nan, 0.5, 0.5), (0.5, math.inf, 0.5)):
        with pytest.raises(ValueError, match="finite"):
            GenParams(n=10, class_balance=weights)
    # a file that color could not read back, and an n x n draw to match
    with pytest.raises(ValueError):
        GenParams(n=MAX_VERTICES + 1)
