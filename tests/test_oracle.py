from itertools import product

import pytest
from hypothesis import given, settings, strategies as st
from test_graph import mask

from threecolor import oracle
from threecolor.graph import build_graph, iter_bits
from threecolor.oracle import (
    NO_COLORINGS,
    SAME_IN_ALL,
    SAME_IN_NONE,
    SAME_IN_SOME,
    ColoringSummary,
    TooLarge,
    enumerate_3colorings,
    verify_progress_claim,
)
from threecolor.progress import Claim, MonoSet, Type0, Type1, Type2
from threecolor.oracle import verify_logged_claim
from threecolor.generate import GenParams, generate_planted


def naive_summary(g, pairs=(), sets=(), conditional=None):
    """Brute force over all 3^n assignments; the independent reference."""
    count = 0
    pair_same = {p: False for p in pairs}
    pair_diff = {p: False for p in pairs}
    set_min = {s: 4 for s in sets}
    set_max = {s: 0 for s in sets}
    for assign in product(range(3), repeat=g.n):
        if any(assign[u] == assign[v] for u, v in g.edges()):
            continue
        if conditional is not None and assign[conditional[0]] == assign[conditional[1]]:
            continue
        count += 1
        for u, v in pairs:
            if assign[u] == assign[v]:
                pair_same[(u, v)] = True
            else:
                pair_diff[(u, v)] = True
        for s in sets:
            mult = len({assign[v] for v in s})
            set_min[s] = min(set_min[s], mult)
            set_max[s] = max(set_max[s], mult)
    return count, pair_same, pair_diff, set_min, set_max


def per_leaf_summary(g, pairs=(), sets=(), conditional=None):
    """Reference for ``enumerate_3colorings``: one pruned walk in vertex
    order with canonical colors, which prunes the conditional as soon as
    the later of its two vertices is colored and answers every query at
    each leaf, with nothing kept between calls."""
    n = g.n
    pairs = tuple((min(u, v), max(u, v)) for u, v in pairs)
    sets = tuple(tuple(sorted(set(s))) for s in sets)
    out = ColoringSummary(0, False, conditional=conditional)
    if conditional is not None and conditional[0] == conditional[1]:
        out.pair_status = dict.fromkeys(pairs, NO_COLORINGS)
        out.set_min_colors = dict.fromkeys(sets, 0)
        out.set_max_colors = dict.fromkeys(sets, 0)
        return out
    late = early = -1
    if conditional is not None:
        late, early = max(conditional), min(conditional)
    pair_same = dict.fromkeys(pairs, False)
    pair_diff = dict.fromkeys(pairs, False)
    set_min = dict.fromkeys(sets, 4)
    set_max = dict.fromkeys(sets, 0)
    colors = [0] * n

    def leaf(introduced):
        out.reps_seen += 1
        out.count_3colorings += 3 if introduced == 1 else 6
        for u, v in pairs:
            if colors[u] == colors[v]:
                pair_same[(u, v)] = True
            else:
                pair_diff[(u, v)] = True
        for st_ in sets:
            mult = len({colors[v] for v in st_})
            set_min[st_] = min(set_min[st_], mult)
            set_max[st_] = max(set_max[st_], mult)

    def walk(v, introduced):
        if v == n:
            leaf(introduced)
            return
        for c in range(min(introduced, 2) + 1):
            if any(colors[u] == c for u in iter_bits(g.adj_bits(v)) if u < v):
                continue
            if v == late and c == colors[early]:
                continue
            colors[v] = c
            walk(v + 1, introduced if c < introduced else c + 1)

    walk(0, 0)
    out.colorable = out.count_3colorings > 0
    for pr in pairs:
        if not out.colorable:
            out.pair_status[pr] = NO_COLORINGS
        elif pair_same[pr] and not pair_diff[pr]:
            out.pair_status[pr] = SAME_IN_ALL
        elif pair_same[pr]:
            out.pair_status[pr] = SAME_IN_SOME
        else:
            out.pair_status[pr] = SAME_IN_NONE
    for st_ in sets:
        out.set_min_colors[st_] = set_min[st_] if out.colorable else 0
        out.set_max_colors[st_] = set_max[st_] if out.colorable else 0
    return out


TRIANGLE = build_graph(3, [(0, 1), (1, 2), (0, 2)])
PATH3 = build_graph(3, [(0, 1), (1, 2)])
C5 = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])


class TestEnumerate:
    def test_triangle_count_and_multiplicity(self):
        summary = enumerate_3colorings(TRIANGLE, sets=((0, 1, 2),))
        assert summary.count_3colorings == 6
        assert summary.set_min_colors[(0, 1, 2)] == 3
        assert summary.set_max_colors[(0, 1, 2)] == 3

    def test_path_pair_some_not_all(self):
        summary = enumerate_3colorings(PATH3, pairs=((0, 2),))
        assert summary.pair_status[(0, 2)] == SAME_IN_SOME
        assert summary.count_3colorings == 12

    def test_c5_needs_three_colors(self):
        summary = enumerate_3colorings(C5, sets=(tuple(range(5)),))
        assert summary.set_min_colors[tuple(range(5))] == 3

    def test_k4_not_colorable(self):
        k4 = build_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        summary = enumerate_3colorings(k4, pairs=((0, 1),))
        assert summary.count_3colorings == 0
        assert not summary.colorable
        assert summary.pair_status[(0, 1)] == NO_COLORINGS

    def test_adjacent_pair_never_same(self):
        summary = enumerate_3colorings(PATH3, pairs=((0, 1),))
        assert summary.pair_status[(0, 1)] == SAME_IN_NONE

    def test_conditional_restricts(self):
        # on the path, conditioning color(0) != color(2) kills the
        # colorings where the endpoints agree
        summary = enumerate_3colorings(PATH3, conditional=(0, 2))
        assert summary.count_3colorings == 6

    def test_conditional_same_vertex_is_empty(self):
        summary = enumerate_3colorings(PATH3, pairs=((0, 1),), conditional=(1, 1))
        assert summary.count_3colorings == 0
        assert summary.pair_status[(0, 1)] == NO_COLORINGS

    def test_too_large(self):
        g = build_graph(30, [])
        with pytest.raises(TooLarge):
            enumerate_3colorings(g, cap=25)
        # no cap admits more than MAX_CAP vertices: the walk recurses once per vertex
        with pytest.raises(TooLarge):
            enumerate_3colorings(build_graph(oracle.MAX_CAP + 1, []), cap=10**6)

    def test_walk_stops_at_its_node_budget(self, monkeypatch):
        # the cap bounds the depth, not the leaves: an edgeless graph within
        # the default cap has about 3^(n-1) / 6 colorings
        # the walk of the edgeless 6-vertex graph visits every canonical
        # coloring of its first i vertices, i = 0..6: 1+1+2+5+14+41+122 nodes
        g = build_graph(6, [])
        monkeypatch.setattr(oracle, "MAX_NODES", 186)
        assert enumerate_3colorings(g).reps_seen == 122
        monkeypatch.setattr(oracle, "MAX_NODES", 185)
        with pytest.raises(TooLarge, match="passed 185 search nodes"):
            enumerate_3colorings(build_graph(6, []))
        with pytest.raises(TooLarge, match="on the 25-vertex graph"):
            enumerate_3colorings(build_graph(25, []), sets=((0, 1),))

    def test_single_vertex(self):
        g = build_graph(1, [])
        assert enumerate_3colorings(g).count_3colorings == 3

    def test_edgeless_pair(self):
        g = build_graph(2, [])
        assert enumerate_3colorings(g).count_3colorings == 9


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_reduced_enumeration_matches_naive(data):
    n = data.draw(st.integers(1, 7))
    pairs_all = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = sorted(data.draw(st.sets(st.sampled_from(pairs_all)))) if pairs_all else []
    g = build_graph(n, edges)
    q_pairs = tuple(data.draw(st.sets(st.sampled_from(pairs_all), max_size=2))) if pairs_all else ()
    members = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
    q_sets = (tuple(sorted(members)),)
    conditional = None
    if n >= 2 and data.draw(st.booleans()):
        a = data.draw(st.integers(0, n - 1))
        b = data.draw(st.integers(0, n - 1).filter(lambda x: x != a))
        conditional = (a, b)
    summary = enumerate_3colorings(g, pairs=q_pairs, sets=q_sets, conditional=conditional)
    count, pair_same, pair_diff, set_min, set_max = naive_summary(
        g, q_pairs, q_sets, conditional
    )
    assert summary.count_3colorings == count
    for pr in q_pairs:
        if count == 0:
            assert summary.pair_status[pr] == NO_COLORINGS
        elif pair_same[pr] and not pair_diff[pr]:
            assert summary.pair_status[pr] == SAME_IN_ALL
        elif pair_same[pr]:
            assert summary.pair_status[pr] == SAME_IN_SOME
        else:
            assert summary.pair_status[pr] == SAME_IN_NONE
    for s in q_sets:
        if count == 0:
            assert summary.set_min_colors[s] == 0
        else:
            assert summary.set_min_colors[s] == set_min[s]
            assert summary.set_max_colors[s] == set_max[s]


@pytest.mark.parametrize("chunk_bytes", [oracle.CHUNK_BYTES, 20])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_stored_colorings_answer_like_the_per_leaf_walk(chunk_bytes, data):
    # 20 bytes holds 1 to 20 rows of n <= 12 colors, so most walks span
    # several chunks, some ending in a partial or an empty one
    n = data.draw(st.integers(1, 12))
    rng = data.draw(st.randoms(use_true_random=False))
    density = data.draw(st.floats(0.0 if n <= 8 else 0.3, 1.0))
    g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                        if rng.random() < density])
    vertex = st.integers(0, n - 1)
    pairs = tuple(data.draw(st.lists(st.tuples(vertex, vertex), max_size=4)))
    sets = tuple(map(tuple, data.draw(st.lists(st.lists(vertex, max_size=6),
                                               max_size=4))))
    conditionals = [None, (data.draw(vertex), data.draw(vertex)),
                    (data.draw(vertex),) * 2]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "CHUNK_BYTES", chunk_bytes)
        # the first call walks g; the later ones reuse its rows when they
        # fit in one chunk
        for cond in conditionals + conditionals[::-1]:
            got = enumerate_3colorings(g, pairs=pairs, sets=sets, conditional=cond)
            assert got == per_leaf_summary(g, pairs, sets, cond)


def test_claims_on_alternating_graphs_get_their_own_answers():
    # on the path 0-1-2-3, {0, 2} may share a color and {1, 3} may differ
    # while 0 and 3 do; adding the edge 0-2 forbids both, so an answer
    # from the other graph's walk is wrong
    path = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    tailed = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
    for g, holds in ((path, False), (tailed, True), (path, False), (tailed, True)):
        assert verify_logged_claim(Claim("multi", (0, 2), g)).verified == holds
        mono = Claim("mono_if_differ", (1, 3), g, conditional=(0, 3))
        assert verify_logged_claim(mono).verified == holds
        for cond in (None, (1, 3), (3, 3)):
            assert (enumerate_3colorings(g, pairs=((0, 2),), sets=((0, 2, 3),),
                                         conditional=cond)
                    == per_leaf_summary(g, ((0, 2),), ((0, 2, 3),), cond))


class TestVerifyProgressClaim:
    def test_type1_on_path(self):
        members = mask([0, 2])
        claim = Type1(members, members, 0)
        # threshold ceil(n / k): at k = 1.5 the floor is 2 and the
        # independent pair qualifies; at k = 1 it falls short
        assert verify_progress_claim(PATH3, claim, k=1.5).verified
        assert not verify_progress_claim(PATH3, claim, k=1.0).verified

    def test_type0_rejected_on_path(self):
        verdict = verify_progress_claim(PATH3, Type0(0, 2), k=1.0)
        assert not verdict.verified

    def test_type2_single_vertex(self):
        members = mask([0])
        nbhd = mask([1])
        claim = Type2(members, members, 0, nbhd)
        verdict = verify_progress_claim(PATH3, claim, k=1.0)
        assert verdict.verified

    def test_type2_wrong_neighborhood(self):
        members = mask([0])
        claim = Type2(members, members, 0, 0)
        assert not verify_progress_claim(PATH3, claim, k=1.0).verified

    def test_mono_set_on_star_points(self):
        # in the 4-star plus an edge between two leaves, the two other
        # leaves need not share a color: expect rejection
        g = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
        claim = MonoSet(mask([1, 3]))
        assert not verify_progress_claim(g, claim, k=1.0).verified

    def test_mono_set_with_edge_is_vacuous_on_k4(self):
        # K4 has no 3-coloring, so every set is monochromatic in all of them
        k4 = build_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        claim = MonoSet(mask([0, 1]))
        assert verify_progress_claim(k4, claim, k=1.0).verified
        assert not verify_progress_claim(PATH3, MonoSet(mask([0, 1])),
                                         k=1.0).verified

    def test_type0_outside_the_graph_rejected(self):
        assert not verify_progress_claim(PATH3, Type0(0, 3), k=1.0).verified

    def test_type1_below_threshold(self):
        members = mask([0])
        claim = Type1(members, members, 0)
        assert not verify_progress_claim(PATH3, claim, k=1.0).verified


class TestVerifyLoggedClaim:
    def test_multi_on_triangle(self):
        claim = Claim("multi", (0, 1, 2), TRIANGLE)
        assert verify_logged_claim(claim).verified

    def test_multi_rejected_on_edgeless(self):
        g = build_graph(3, [])
        claim = Claim("multi", (0, 1), g)
        assert not verify_logged_claim(claim).verified

    def test_mono_if_differ(self):
        # complete bipartite K_{2,2} plus seed structure: with S = {0, 1}
        # and T = {2, 3}, color(2) != color(3) forces S monochromatic
        g = build_graph(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        claim = Claim("mono_if_differ", (0, 1), g, conditional=(2, 3))
        assert verify_logged_claim(claim).verified

    def test_type0_logged(self):
        # two pendant vertices on the same triangle vertex: no forced pair
        g = build_graph(4, [(0, 1), (1, 2), (0, 2), (1, 3)])
        claim = Claim("type0", (0, 3), g)
        assert not verify_logged_claim(claim).verified


def test_planted_small_instances_are_colorable():
    for seed in range(8):
        g, planted = generate_planted(GenParams(n=12, edge_prob=0.4, seed=seed))
        summary = enumerate_3colorings(g)
        assert summary.count_3colorings >= 1


def test_query_order_irrelevant():
    g, _ = generate_planted(GenParams(n=10, edge_prob=0.4, seed=6))
    pairs = ((0, 3), (2, 7), (1, 9))
    sets = ((0, 1, 2), (3, 4, 5, 6))
    fwd = enumerate_3colorings(g, pairs=pairs, sets=sets)
    rev = enumerate_3colorings(g, pairs=pairs[::-1], sets=sets[::-1])
    assert fwd.pair_status == rev.pair_status
    assert fwd.set_min_colors == rev.set_min_colors
    assert fwd.set_max_colors == rev.set_max_colors
    assert fwd.count_3colorings == rev.count_3colorings


def test_claim_dict_multi_with_conditional():
    from threecolor.oracle import verify_claim_dict

    # on the path, {0, 2} is multichromatic exactly when the endpoints
    # are forced apart
    assert not verify_claim_dict(PATH3, {"type": "multi", "vertices": [0, 2]},
                                 k=None).verified
    assert verify_claim_dict(
        PATH3, {"type": "multi", "vertices": [0, 2], "conditional": [0, 2]},
        k=None,
    ).verified


def test_claim_dict_too_large_rejected():
    from threecolor.graph import build_graph as bg
    from threecolor.oracle import verify_claim_dict

    big = bg(30, [])
    verdict = verify_claim_dict(big, {"type": "multi", "vertices": [0, 1]},
                                k=None, cap=25)
    assert not verdict.verified
    assert any("cap" in r for r in verdict.reasons)


@pytest.mark.parametrize("n, entry, named", [
    (3, {"type": "mono", "vertices": [0, 2.0]}, "2.0"),
    (3, {"type": "multi", "vertices": [0, 30]}, "30"),
    (3, {"type": "type1", "vertices": [2.0]}, "2.0"),
    (3, {"type": "mono", "vertices": [1], "conditional": [False, 1]}, "False"),
    (0, {"type": "multi", "vertices": [0]}, "0"),
    (0, {"type": "mono", "vertices": [0, 1]}, "0"),
])
def test_claim_dict_bad_vertex_id_named(n, entry, named):
    from threecolor.oracle import verify_claim_dict

    graph = PATH3 if n == 3 else build_graph(0, [])
    verdict = verify_claim_dict(graph, entry, k=2.0)
    assert not verdict.verified
    [reason] = verdict.reasons
    assert reason.startswith("malformed claim: ") and f" holds {named}," in reason


@pytest.mark.parametrize("n, entry, k, holds", [
    (3, {"type": "type1", "vertices": [0, 0, 2]}, 1.5, True),
    (3, {"type": "type1", "vertices": [2, 0, 2]}, 1.0, False),
    (3, {"type": "type2", "vertices": [0, 0]}, 1.0, True),
    (3, {"type": "mono", "vertices": [0, 2, 0]}, None, False),
    (3, {"type": "multi", "vertices": [1, 1, 2]}, None, True),
    (70, {"type": "type1", "vertices": [*range(70), 69, 0]}, 1.0, True),
])
def test_claim_dict_repeated_id_counts_once(n, entry, k, holds):
    # a repeated id names the same vertex again: the verdict is that of
    # the entry with each id once
    from threecolor.oracle import verify_claim_dict

    graph = PATH3 if n == 3 else build_graph(n, [])
    once = dict(entry, vertices=sorted(set(entry["vertices"])))
    verdict = verify_claim_dict(graph, entry, k=k)
    assert verdict.verified is holds
    assert verdict == verify_claim_dict(graph, once, k=k)


def test_sound_contraction_preserves_colorability():
    # complete bipartite S x T plus one T-edge forces S monochromatic;
    # merging inside S must keep the graph 3-colorable
    from test_graph import contract

    edges = [(0, 1), (0, 2), (0, 3)]
    edges += [(s, t) for s in (1, 2, 3) for t in (4, 5, 6)]
    edges.append((4, 5))
    g = build_graph(7, edges)
    assert enumerate_3colorings(g, sets=((1, 2, 3),)).set_max_colors[(1, 2, 3)] == 1
    h, _ = contract(g, 1, 2)
    assert enumerate_3colorings(h).count_3colorings >= 1
