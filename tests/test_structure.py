import math
import random
from bisect import bisect_right
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_graph import mask

from threecolor.generate import GenParams, generate_planted
from threecolor import graph, structure
from threecolor.graph import (
    PACKED_MIN_MEMBERS,
    MemberRows,
    build_graph,
    degrees_into,
    iter_bits,
    union_neighborhoods,
    with_degree_at_least,
)
from threecolor.oracle import enumerate_3colorings
from threecolor.params import Params, nhat
from threecolor.progress import Sink, Type1, Type2, induced_subgraph
from threecolor.search import (
    HIGHDEG_FACTOR,
    SIDECUT_FACTOR,
    TERM_FACTOR,
    inner_loop,
    thin_mass,
)
from threecolor.structure import (
    BASE_DEGREE_DIVISOR,
    BASE_DEGREES,
    BOUNDARIES,
    BUCKET_BASE,
    BUCKET_FLOOR_DIVISOR,
    CEILINGS,
    DEGREE_CAP,
    MIN_DEGREE_DIVISOR,
    EmptyResult,
    MultichromaticGuaranteed,
    Not3Colorable,
    RegularPair,
    SetTooSmall,
    _assert_regular,
    _prune,
    bucket_eligible,
    build_two_level,
    ceil_times,
    certificate_is_valid,
    find_certificate,
    floor_times,
    multichromatic_test,
    pick_bucket,
    regularize,
)


class _Stop(Exception):
    pass


def make_params(n, k, **kw):
    return Params.for_graph(n, 1, k=k, **kw)


class TestMultichromaticTest:
    def test_internal_edge(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        p = make_params(4, 2.0)  # nhat = 1
        res = multichromatic_test(g, mask([0, 1]), p)
        assert isinstance(res, MultichromaticGuaranteed)
        assert res.reason == "internal-edge"

    def test_odd_cycle_neighborhood_on_nine_vertices(self):
        # C5 on 0..4; independent X = {5,6,7,8}, x_i adjacent to {i, i+1}:
        # N(X) is the full odd cycle, so X is multichromatic in every
        # 3-coloring; the oracle confirms it on the same instance
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
        for i, x in enumerate(range(5, 9)):
            edges += [(x, i), (x, i + 1)]
        g = build_graph(9, edges)
        p = make_params(9, 2.0)  # nhat = ceil(9/4) = 3 <= |X| = 4
        res = multichromatic_test(g, mask([5, 6, 7, 8]), p)
        assert isinstance(res, MultichromaticGuaranteed)
        assert res.reason == "neighborhood-odd-cycle"
        summary = enumerate_3colorings(g, sets=((5, 6, 7, 8),))
        assert summary.colorable
        assert summary.set_min_colors[(5, 6, 7, 8)] >= 2

    def test_star_center_yields_large_set(self):
        # star K_{1,5}: X = {center}; the five leaves are independent and
        # clear the large-set threshold.  k = 3 keeps the test floor at 1
        # (the floor at k = 2 would be 2 and reject the singleton).
        g = build_graph(6, [(0, i) for i in range(1, 6)])
        res = multichromatic_test(g, mask([0]), make_params(6, 3.0))
        assert isinstance(res, Type1)
        assert res.members == mask([1, 2, 3, 4, 5])
        with pytest.raises(SetTooSmall):
            multichromatic_test(g, mask([0]), make_params(6, 2.0))

    def test_small_neighborhood_outcome(self):
        # one isolated-ish pendant chain: X = {3} with lone neighbor {2}
        g = build_graph(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)])
        p = make_params(8, 3.0)  # nhat = 1, threshold = ceil(8/3) = 3
        res = multichromatic_test(g, mask([3]), p)
        assert isinstance(res, Type2)
        assert res.members == mask([3])
        assert res.neighborhood == mask([2])

    def test_dichotomy_on_random_sets(self):
        rng = random.Random(11)
        outcomes = set()
        for trial in range(300):
            n = rng.randrange(8, 15)
            g, _ = generate_planted(
                GenParams(n=n, edge_prob=rng.choice([0.2, 0.4, 0.6]), seed=trial)
            )
            p = Params.for_graph(n, max(g.min_degree(), 1))
            size = rng.randrange(nhat(n, p.k), n + 1)
            members = mask(rng.sample(range(n), size))
            res = multichromatic_test(g, members, p)
            assert isinstance(res, (MultichromaticGuaranteed, Type1, Type2))
            outcomes.add(type(res).__name__)
        assert "MultichromaticGuaranteed" in outcomes

    def test_guarantee_sound_against_oracle(self):
        rng = random.Random(23)
        checked = 0
        for trial in range(120):
            n = rng.randrange(7, 13)
            g, _ = generate_planted(
                GenParams(n=n, edge_prob=rng.choice([0.25, 0.45]), seed=1000 + trial)
            )
            p = Params.for_graph(n, max(g.min_degree(), 1))
            size = rng.randrange(nhat(n, p.k), n + 1)
            members = tuple(sorted(rng.sample(range(n), size)))
            res = multichromatic_test(g, mask(members), p)
            if isinstance(res, MultichromaticGuaranteed):
                summary = enumerate_3colorings(g, sets=(members,))
                if summary.colorable:
                    assert summary.set_min_colors[members] >= 2
                checked += 1
        assert checked > 10


class TestRegularPairCheck:
    @pytest.mark.parametrize("delta_S, delta_T, flagged", [
        (Fraction(2), Fraction(1, 2), [0]),  # vertex 0 has exactly delta_S T-neighbors
        (Fraction(1), Fraction(1), [1, 2]),  # vertices 1, 2 have exactly delta_T S-neighbors
    ])
    def test_degree_equal_to_a_bound_fails(self, delta_S, delta_T, flagged):
        # path 1-0-2 with S = {0}, T = {1, 2}; both degree bounds are strict
        g = build_graph(3, [(0, 1), (0, 2)])
        pair = RegularPair(mask([0]), mask([1, 2]), delta_S, delta_T, 1)
        bad = pair.check(g)
        assert [int(msg.split()[1]) for msg in bad] == flagged
        with pytest.raises(AssertionError):
            _assert_regular(g, pair)


def reference_check(G, pair, degree_cap):
    """RegularPair.check with one Fraction comparison per vertex."""
    bad = []
    if not pair.S or not pair.T:
        return ["empty side"]
    for v in iter_bits(pair.S):
        if (G.adj_bits(v) & pair.T).bit_count() <= pair.delta_S:
            bad.append(f"vertex {v} has S-side degree at most delta_S")
    cap = degree_cap * pair.delta_T
    for w in iter_bits(pair.T):
        d = (G.adj_bits(w) & pair.S).bit_count()
        if d <= pair.delta_T or d > cap:
            bad.append(f"vertex {w} has T-side degree outside bounds")
    return bad


def reference_prune(G, surv_S, surv_T, delta_S, delta_T):
    """The prune fixed point with one Fraction comparison per vertex."""
    changed = True
    while changed:
        changed = False
        drop_S = 0
        for v in iter_bits(surv_S):
            if (G.adj_bits(v) & surv_T).bit_count() <= delta_S:
                drop_S |= 1 << v
        drop_T = 0
        for w in iter_bits(surv_T):
            if (G.adj_bits(w) & surv_S).bit_count() <= delta_T:
                drop_T |= 1 << w
        if drop_S or drop_T:
            surv_S &= ~drop_S
            surv_T &= ~drop_T
            changed = True
    return surv_S, surv_T


def random_graph(draw, max_n):
    """G(n, p) on at most ``max_n`` vertices; large ones also carry packed
    rows half of the time, so the kernels' packed body runs on big sets."""
    n = draw(st.one_of(st.integers(1, 40), st.integers(64, max_n)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    p = draw(st.sampled_from([0.1, 0.3, 0.6, 0.9]))
    g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                        if rng.random() < p])
    if draw(st.booleans()):
        g = induced_subgraph(g, (1 << n) - 1)[0]
    return g, rng


@st.composite
def pair_case(draw):
    """A random graph, two possibly overlapping vertex masks and exact
    positive thresholds, some of them integers so that degrees land on them."""
    g, rng = random_graph(draw, 150)
    s_bits = rng.getrandbits(g.n)
    t_bits = rng.getrandbits(g.n)
    top = max(12, g.n // 3)
    delta = st.fractions(min_value=Fraction(1, 9), max_value=top, max_denominator=9)
    return g, s_bits, t_bits, draw(delta), draw(delta)


def reference_regularize(G, S, T):
    """regularize with the buckets built one vertex at a time by bisection;
    None where regularize raises EmptyResult."""
    degs = {w: (G.adj_bits(w) & S).bit_count() for w in iter_bits(T)}
    avg = Fraction(sum(degs.values()), len(degs))
    boundaries = [Fraction(1)]
    while boundaries[-1] <= max(degs.values()):
        boundaries.append(boundaries[-1] * BUCKET_BASE)
    buckets, mass = {}, {}
    for w, d in degs.items():
        level = bisect_right(boundaries, d) - 1
        buckets[level] = buckets.get(level, 0) | (1 << w)
        mass[level] = mass.get(level, 0) + d
    floor = avg / BUCKET_FLOOR_DIVISOR
    eligible = [lv for lv in sorted(buckets) if boundaries[lv] >= floor]
    if not eligible:
        return None
    level = max(eligible, key=lambda lv: (mass[lv], -lv))
    delta_T = boundaries[level] / BASE_DEGREE_DIVISOR
    into = sum((G.adj_bits(v) & buckets[level]).bit_count() for v in iter_bits(S))
    delta_S = Fraction(into, S.bit_count()) / MIN_DEGREE_DIVISOR
    surv_S, surv_T = reference_prune(G, S, buckets[level], delta_S, delta_T)
    if not surv_S or not surv_T:
        return None
    return surv_S, surv_T, delta_S, delta_T


def test_no_degree_bucket_passes_the_t_side_cap():
    # bucket l holds the degrees CEILINGS[l] <= d < CEILINGS[l + 1], and
    # RegularPair.check refuses T-side degrees above floor(DEGREE_CAP * delta_T),
    # where delta_T = BOUNDARIES[l] / BASE_DEGREE_DIVISOR
    assert BUCKET_BASE * BASE_DEGREE_DIVISOR <= DEGREE_CAP
    tops = (CEILINGS[1:] - 1).tolist()
    assert all(top <= math.floor(DEGREE_CAP * b / BASE_DEGREE_DIVISOR)
               for b, top in zip(BOUNDARIES, tops))
    assert BOUNDARIES[-1] >= 2**31 > BOUNDARIES[-2]
    assert CEILINGS.tolist() == [math.ceil(b) for b in BOUNDARIES]


class TestIntegerThresholds:
    @given(pair_case())
    @settings(max_examples=200, deadline=None)
    def test_check_matches_fraction_reference(self, case):
        g, s_bits, t_bits, delta_S, delta_T = case
        pair = RegularPair(s_bits, t_bits, delta_S, delta_T, 1)
        assert pair.check(g) == reference_check(g, pair, DEGREE_CAP)

    @given(pair_case())
    @settings(max_examples=200, deadline=None)
    def test_prune_matches_fraction_reference(self, case):
        g, s_bits, t_bits, delta_S, delta_T = case
        s_table = degrees_into(g, s_bits, t_bits)
        t_table = degrees_into(g, t_bits, s_bits)
        assert _prune(g, s_bits, t_bits, delta_S, delta_T, s_table, t_table) == (
            reference_prune(g, s_bits, t_bits, delta_S, delta_T)
        )


def reference_bucket(degrees):
    """The bucket choice by an eligibility test of every level that has
    mass, then the largest mass, ties to the smaller level."""
    levels = CEILINGS.searchsorted(degrees, side="right") - 1
    mass = np.bincount(levels, weights=degrees).tolist()
    total, size = int(degrees.sum()), len(degrees)
    eligible = [lv for lv, w in enumerate(mass)
                if w and bucket_eligible(BOUNDARIES[lv], total, size)]
    return levels, max(eligible, key=lambda lv: (mass[lv], -lv)), mass


@st.composite
def degree_tables(draw):
    """Degree tables with many ties: a few distinct values, or an average
    on BUCKET_FLOOR_DIVISOR times a boundary, or one off it, reached by
    piling the excess over all-ones onto a few entries."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        values = rng.integers(1, 400, draw(st.integers(1, 6)))
        return rng.choice(values, draw(st.integers(1, 300)))
    boundary = BOUNDARIES[draw(st.integers(0, 6))]
    copies = draw(st.integers(1, 3))
    size = boundary.denominator * copies
    total = boundary.numerator * BUCKET_FLOOR_DIVISOR * copies + draw(st.integers(-1, 1))
    degrees = np.ones(size, dtype=np.int64)
    few = min(size, draw(st.integers(1, 4)))
    degrees[:few] += rng.multinomial(max(total - size, 0), np.full(few, 1 / few))
    return rng.permutation(degrees)


@given(degree_tables())
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_pick_bucket_matches_the_eligible_maximum(degrees):
    levels, level, mass = pick_bucket(degrees)
    ref_levels, ref_level, ref_mass = reference_bucket(degrees)
    assert levels.tolist() == ref_levels.tolist()
    assert (level, mass) == (ref_level, ref_mass[ref_level])


# a level's delta_T, or any nonnegative rational with a small denominator
delta_values = st.one_of(
    st.sampled_from(BASE_DEGREES),
    st.fractions(min_value=0, max_value=10**6, max_denominator=10**4),
)


class TestIntegerForms:
    # each integer form against the Fraction expression it replaces,
    # with the exact-equality boundaries drawn on purpose

    @given(delta_values, st.sampled_from([DEGREE_CAP, HIGHDEG_FACTOR, SIDECUT_FACTOR]))
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_floor_and_ceil_of_a_product(self, x, factor):
        assert floor_times(x, factor) == math.floor(x * factor)
        assert ceil_times(x, factor) == math.ceil(x * factor)

    @given(st.integers(0, 10**6), st.sampled_from([DEGREE_CAP, HIGHDEG_FACTOR,
                                                   SIDECUT_FACTOR]))
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    def test_integral_products_are_their_own_floor_and_ceil(self, m, factor):
        # x * factor == m exactly, the seed floor's boundary among them
        x = m / factor
        assert floor_times(x, factor) == ceil_times(x, factor) == m

    @given(st.integers(0, len(BOUNDARIES) - 1), st.integers(1, 50), st.integers(-2, 2))
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_bucket_eligibility(self, level, copies, offset):
        # size a multiple of the boundary's denominator puts the average
        # exactly on BUCKET_FLOOR_DIVISOR * boundary at offset 0
        boundary = BOUNDARIES[level]
        size = boundary.denominator * copies
        degree_sum = max(boundary.numerator * BUCKET_FLOOR_DIVISOR * copies + offset, 0)
        avg = Fraction(degree_sum, size)
        assert bucket_eligible(boundary, degree_sum, size) == (
            boundary >= avg / BUCKET_FLOOR_DIVISOR
        )
        if offset == 0:
            assert boundary == avg / BUCKET_FLOOR_DIVISOR
            assert bucket_eligible(boundary, degree_sum, size)

    @given(delta_values, st.integers(1, 500), st.integers(-2, 2))
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_termination_mass(self, delta_T, copies, offset):
        # at offset 0, mass == delta_T * TERM_FACTOR * size exactly
        scale = delta_T.denominator * TERM_FACTOR.denominator
        size = scale * copies
        exact = delta_T * TERM_FACTOR * size
        assert exact.denominator == 1
        mass = max(int(exact) + offset, 0)
        assert thin_mass(mass, delta_T, size) == (mass < delta_T * TERM_FACTOR * size)
        if offset == 0:
            assert not thin_mass(mass, delta_T, size)

    @given(delta_values, st.integers(0, 10**5), st.integers(1, 10**4))
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_termination_mass_anywhere(self, delta_T, mass, size):
        assert thin_mass(mass, delta_T, size) == (mass < delta_T * TERM_FACTOR * size)

    def test_base_degrees_are_the_bucket_floors_over_the_divisor(self):
        assert BASE_DEGREES == tuple(b / BASE_DEGREE_DIVISOR for b in BOUNDARIES)
        assert all(isinstance(d, Fraction) for d in BASE_DEGREES)


class TestArrayBucketing:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_regularize_matches_loop_reference(self, data):
        g, rng = random_graph(data.draw, 150)
        S = rng.getrandbits(g.n)
        reach = union_neighborhoods(g, S)
        T = reach & rng.getrandbits(g.n)
        if not S or not T:
            return
        # the table may come in any order
        ids, degrees = degrees_into(g, T, S)
        order = np.array(data.draw(st.permutations(range(len(ids)))), dtype=np.int64)
        try:
            pair = regularize(g, S, ids[order], degrees[order], j=1, nh=0)
            got = (pair.S, pair.T, pair.delta_S, pair.delta_T)
        except EmptyResult:
            got = None
        assert got == reference_regularize(g, S, T)

    def test_doomed_exit_agrees_with_the_full_path(self):
        # whenever regularize declines to build a pair, the loop reference
        # builds one with |T_f| < nhat and |S_f| >= 2, on which the inner
        # loop fails at once with ErrorB; otherwise it returns the
        # reference pair.  Arbitrary graphs with arbitrary sides, and
        # planted graphs with a root's two levels, both reach each case.
        fired = set()

        def check(g, S, T, k, r0=0):
            p = make_params(g.n, k)
            nh = nhat(g.n, p.k)
            expect = reference_regularize(g, S, T)
            try:
                pair = regularize(g, S, *degrees_into(g, T, S), j=1, nh=nh)
            except EmptyResult:
                assert expect is None
                return
            fired.add(pair is None)
            if pair is not None:
                assert (pair.S, pair.T, pair.delta_S, pair.delta_T) == expect
                return
            surv_S, surv_T, delta_S, delta_T = expect
            assert surv_T.bit_count() < nh and surv_S.bit_count() >= 2
            trace = []
            full = RegularPair(surv_S, surv_T, delta_S, delta_T, 1)
            assert inner_loop(g, r0, full, p, sink=Sink(trace)) == "ErrorB"
            assert trace == [{"event": "error", "reason": "ErrorB"}]

        @given(st.data())
        @settings(max_examples=150, deadline=None, derandomize=True, database=None)
        def arbitrary(data):
            g, rng = random_graph(data.draw, 150)
            S = rng.getrandbits(g.n)
            T = union_neighborhoods(g, S) & rng.getrandbits(g.n)
            if S and T:
                check(g, S, T, data.draw(st.sampled_from([1.0, 1.5, 2.0, 4.0])))

        arbitrary()
        assert fired == {True, False}
        fired.clear()
        for n, edge_prob, seed in [(120, 0.3, 0), (150, 0.6, 1), (200, 0.7, 2)]:
            g, _ = generate_planted(GenParams(n=n, edge_prob=edge_prob, seed=seed))
            for r0 in range(0, n, 5):
                S = g.adj_bits(r0)
                if S:
                    check(g, S, union_neighborhoods(g, S), 1.5, r0)
        assert fired == {True, False}

    def test_light_bucket_runs_the_full_path(self):
        # a star: U = {1, 2, 3} of degree 1 is below nhat = 5, but its mass
        # M = 3 <= 2 |U|, so the exit does not fire; the full path keeps
        # S = {0}, which the inner loop fails with ErrorA, not ErrorB
        g = build_graph(5, [(4, 0), (0, 1), (0, 2), (0, 3)])
        S, T = mask([0]), mask([1, 2, 3])
        p = make_params(5, 1.0)
        assert nhat(5, p.k) == 5
        pair = regularize(g, S, *degrees_into(g, T, S), j=1, nh=5)
        assert pair == regularize(g, S, *degrees_into(g, T, S), j=1, nh=0)
        assert (pair.S, pair.T) == (S, T)
        assert inner_loop(g, 4, pair, p) == "ErrorA"

    def test_first_pass_reads_the_handed_tables(self):
        # the first prune pass reads the degree tables regularize holds; the
        # recount loop runs only when that pass deletes a vertex, and the
        # drawn examples hold both cases
        first_pass_final = set()

        @given(st.data())
        @settings(max_examples=150, deadline=None, derandomize=True, database=None)
        def check(data):
            g, rng = random_graph(data.draw, 150)
            S = rng.getrandbits(g.n)
            T = union_neighborhoods(g, S) & rng.getrandbits(g.n)
            if not S or not T:
                return
            with patch.object(structure, "with_degree_at_least",
                              wraps=with_degree_at_least) as recount:
                try:
                    pair = regularize(g, S, *degrees_into(g, T, S), j=1, nh=0)
                    got = (pair.S, pair.T, pair.delta_S, pair.delta_T)
                except EmptyResult:
                    got = None
            expect = reference_regularize(g, S, T)
            assert got == expect
            if expect is None:
                return
            surv_S, surv_T, _, delta_T = expect
            low = delta_T * BASE_DEGREE_DIVISOR  # the chosen bucket's floor
            bucket = sum(1 << w for w in iter_bits(T)
                         if low <= (g.adj_bits(w) & S).bit_count() < low * BUCKET_BASE)
            final = (surv_S, surv_T) == (S, bucket)
            assert (recount.call_count == 0) == final
            first_pass_final.add(final)

        check()
        assert first_pass_final == {True, False}

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_t_cap_keeps_highest_degrees_ties_to_lower_ids(self, data):
        g, _ = random_graph(data.draw, 150)
        if g.max_degree() == 0:
            return
        k = data.draw(st.sampled_from([1.5, 2.0, 4.0, 8.0]))
        p = make_params(g.n, k)
        r0 = data.draw(st.sampled_from([v for v in range(g.n) if g.degree(v)]))
        seen = []

        def capture(G, S, t_ids, t_degrees, j, nh):
            seen.append(t_ids.tolist())
            raise _Stop

        with patch.object(structure, "regularize", capture):
            try:
                build_two_level(g, r0, p)
            except (Not3Colorable, _Stop):
                pass
        if not seen:
            return
        S = g.adj_bits(r0)
        reach = union_neighborhoods(g, S)
        limit = max(int(g.n / p.k), 1)
        ranked = sorted(iter_bits(reach), key=lambda w: -(g.adj_bits(w) & S).bit_count())
        assert sorted(seen[0]) == sorted(ranked[:limit])


class TestRegularize:
    def test_complete_bipartite_4x4(self):
        # degrees are all 4; 4 lies in [(4/3)^4, (4/3)^5), so the floor
        # is (4/3)^4 / 4 = 64/81 and the S-side floor is 4/4 = 1; no
        # vertex is pruned
        edges = [(u, v) for u in range(4) for v in range(4, 8)]
        g = build_graph(8, edges)
        S, T = mask(range(4)), mask(range(4, 8))
        pair = regularize(g, S, *degrees_into(g, T, S), j=1, nh=0)
        assert pair.S == mask(range(4))
        assert pair.T == mask(range(4, 8))
        assert pair.delta_S == Fraction(1)
        assert pair.delta_T == Fraction(64, 81)

    def test_skewed_degrees_pick_heavy_bucket(self):
        # T degrees into S are 1, 1, 1, 8: the degree-8 bucket is the
        # only eligible one; survivors are its vertex and its neighbors
        edges = [(8, 0), (9, 1), (10, 2)] + [(11, s) for s in range(8)]
        g = build_graph(12, edges)
        S, T = mask(range(8)), mask(range(8, 12))
        pair = regularize(g, S, *degrees_into(g, T, S), j=1, nh=0)
        assert pair.T == mask([11])
        assert pair.S == mask(range(8))
        assert pair.delta_T == Fraction(4, 3) ** 7 / 4
        assert pair.delta_S == Fraction(8, 8 * 4)

    def test_contract_holds_on_random_inputs(self):
        rng = random.Random(5)
        for trial in range(60):
            g, S, T = _random_regularize_input(rng, trial)
            pair = regularize(g, S, *degrees_into(g, T, S), j=1, nh=0)
            assert pair.S and pair.T
            for v in iter_bits(pair.S):
                assert (g.adj_bits(v) & pair.T).bit_count() > pair.delta_S
            cap = DEGREE_CAP * pair.delta_T
            for w in iter_bits(pair.T):
                d = (g.adj_bits(w) & pair.S).bit_count()
                assert pair.delta_T < d <= cap

    def test_fixed_point_is_order_independent(self):
        rng = random.Random(77)
        for trial in range(50):
            g, S, T = _random_regularize_input(rng, 500 + trial)
            pair = regularize(g, S, *degrees_into(g, T, S), j=1, nh=0)
            ref_S, ref_T = _random_order_prune(g, S, T, rng)
            assert pair.S == ref_S
            assert pair.T == ref_T

    def test_rejects_isolated_t_vertex(self):
        g = build_graph(3, [(0, 1)])
        S, T = mask([0]), mask([1, 2])
        with pytest.raises(ValueError):
            regularize(g, S, *degrees_into(g, T, S), j=1, nh=0)


def _random_regularize_input(rng, seed):
    n = rng.randrange(12, 30)
    g, _ = generate_planted(GenParams(n=n, edge_prob=rng.uniform(0.3, 0.8), seed=seed))
    while True:
        s_members = rng.sample(range(n), rng.randrange(3, max(4, n // 2)))
        s_bits = 0
        for v in s_members:
            s_bits |= 1 << v
        t_members = [
            w
            for w in range(n)
            if g.adj_bits(w) & s_bits and rng.random() < 0.8
        ]
        if t_members:
            return g, s_bits, mask(t_members)


def _random_order_prune(g, S, T, rng):
    """Reference regularizer: same bucket choice, randomized deletions."""
    degs = {w: (g.adj_bits(w) & S).bit_count() for w in iter_bits(T)}
    avg = Fraction(sum(degs.values()), T.bit_count())
    boundaries = [Fraction(1)]
    while boundaries[-1] <= max(degs.values()):
        boundaries.append(boundaries[-1] * BUCKET_BASE)
    buckets, mass = {}, {}
    for w, d in degs.items():
        lv = 0
        while boundaries[lv + 1] <= d:
            lv += 1
        buckets[lv] = buckets.get(lv, 0) | (1 << w)
        mass[lv] = mass.get(lv, 0) + d
    eligible = [lv for lv in sorted(buckets) if boundaries[lv] >= avg / 2]
    level = max(eligible, key=lambda lv: (mass[lv], -lv))
    delta_T = boundaries[level] / 4
    s_list = list(iter_bits(S))
    delta_S = Fraction(
        sum((g.adj_bits(v) & buckets[level]).bit_count() for v in s_list), 4 * len(s_list)
    )
    surv_S, surv_T = S, buckets[level]
    while True:
        bad = []
        for v in iter_bits(surv_S):
            if (g.adj_bits(v) & surv_T).bit_count() <= delta_S:
                bad.append(("s", v))
        for w in iter_bits(surv_T):
            if (g.adj_bits(w) & surv_S).bit_count() <= delta_T:
                bad.append(("t", w))
        if not bad:
            return surv_S, surv_T
        side, v = rng.choice(bad)
        if side == "s":
            surv_S &= ~(1 << v)
        else:
            surv_T &= ~(1 << v)


class TestBuildTwoLevel:
    def test_k4_rejected(self):
        k4 = build_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        with pytest.raises(Not3Colorable) as err:
            build_two_level(k4, 0, make_params(4, 1.5))
        assert certificate_is_valid(k4, err.value.hub, err.value.cycle)

    def test_star_gives_large_set(self):
        g = build_graph(6, [(0, i) for i in range(1, 6)])
        res = build_two_level(g, 0, make_params(6, 2.0))
        assert isinstance(res, Type1)
        assert res.members == mask([1, 2, 3, 4, 5])

    def test_planted_structure_invariants(self):
        g, _ = generate_planted(GenParams(n=500, edge_prob=0.5, seed=9))
        p = Params.for_graph(500, g.min_degree())
        r0 = max(range(500), key=lambda v: (g.degree(v), -v))
        # this root's round is doomed: no pair is built
        assert build_two_level(g, r0, p) is None
        # the pair the full path builds under a zero floor keeps the
        # construction's invariants, and its T side is below nhat
        with patch.object(structure, "nhat", lambda n, k: 0):
            res = build_two_level(g, r0, p)
        assert isinstance(res, RegularPair)
        assert res.T.bit_count() < nhat(500, p.k) and res.S.bit_count() >= 2
        assert not res.S & ~g.adj_bits(r0)
        assert res.T.bit_count() <= int(500 / p.k)
        assert not res.check(g)

    def test_root_or_alive_outside_g_raises_value_error(self):
        # refused before any gather, on int and packed graphs
        g, _ = generate_planted(GenParams(n=100, edge_prob=0.5, seed=2))
        base = induced_subgraph(g, (1 << g.n) - 1)[0]
        p = Params.for_graph(100, g.min_degree())
        with patch.object(graph, "unpack_bits", side_effect=AssertionError("gathered")):
            for G in (g, base):
                for r0 in (G.n, G.n + 5, -1):
                    with pytest.raises(ValueError):
                        build_two_level(G, r0, p)
                for alive in ((1 << 101) - 1, 1 << 100, -1, -(1 << 70)):
                    with pytest.raises(ValueError):
                        build_two_level(G, 0, p, alive=alive)
        # gathered rows of another graph
        with pytest.raises(ValueError):
            build_two_level(g, 0, p, alive=MemberRows(base, (1 << base.n) - 1))

    def test_known_two_colorable_large_root_still_returns_the_sides(self):
        # the star's leaves reach the Type 1 size, so the flag cannot skip
        # the 2-coloring whose sides the result carries
        g = build_graph(6, [(0, i) for i in range(1, 6)] + [(1, 2), (3, 4)])
        p = make_params(6, 2.0)
        with patch.object(structure, "bipartition", wraps=structure.bipartition) as split:
            res = build_two_level(g, 0, p, two_colorable=True)
        assert split.call_count == 1
        assert isinstance(res, Type1) and res.members == mask([1, 2, 3, 4, 5])
        assert res == build_two_level(g, 0, p)
        assert res.side0 and res.side1

    def test_known_two_colorable_small_root_skips_the_two_coloring(self):
        g, _ = generate_planted(GenParams(n=500, edge_prob=0.5, seed=9))
        p = Params.for_graph(500, g.min_degree())
        r0 = max(range(500), key=lambda v: (g.degree(v), -v))
        with patch.object(structure, "nhat", lambda n, k: 0):
            want = build_two_level(g, r0, p)
            with patch.object(structure, "bipartition",
                              side_effect=AssertionError("2-colored again")):
                assert build_two_level(g, r0, p, two_colorable=True) == want
        assert isinstance(want, RegularPair)


def t_table(g, r0, cutoff):
    """The T ids and degrees into S that build_two_level hands to
    regularize for root r0 under k = 1, which keeps all of N(S) below the
    T cap; None when it stops before regularize."""
    seen = []

    def capture(G, S, t_ids, t_degrees, j, nh):
        seen.append((t_ids.tolist(), t_degrees.tolist()))
        raise _Stop

    with patch.object(graph, "PACKED_MIN_MEMBERS", cutoff), \
            patch.object(structure, "regularize", capture):
        try:
            build_two_level(g, r0, make_params(g.n, 1.0))
        except (Not3Colorable, _Stop):
            pass
    return seen[0] if seen else None


def union_table(g, r0):
    S = g.adj_bits(r0)
    ids, degrees = degrees_into(g, union_neighborhoods(g, S), S)
    return ids.tolist(), degrees.tolist()


class TestOnePassT:
    # T comes from one pass over every row (the gathered MemberRows) when
    # 4|S| >= n and from the union of S's neighborhoods otherwise; both
    # must give the union's
    # table.  A low cutoff sends small member sets of a packed graph
    # through the kernels' packed body.

    @given(st.data(), st.sampled_from([1, 4, PACKED_MIN_MEMBERS]))
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    def test_t_table_equals_the_neighborhood_union_table(self, data, cutoff):
        g, _ = random_graph(data.draw, 150)
        if g.max_degree() == 0:
            return
        r0 = data.draw(st.sampled_from([v for v in range(g.n) if g.degree(v)]))
        got = t_table(g, r0, cutoff)
        if got is not None:
            assert got == union_table(g, r0)

    @pytest.mark.parametrize("cutoff", [1, PACKED_MIN_MEMBERS])
    def test_planted_roots_on_both_sides_of_the_quarter_rule(self, cutoff):
        # planted graphs keep N(r0) 2-colorable, so every root reaches T
        sides = set()
        for n, p, seed in [(150, 0.1, 0), (150, 0.6, 1), (90, 0.35, 2)]:
            g, _ = generate_planted(GenParams(n=n, edge_prob=p, seed=seed))
            for packed in (False, True):
                if packed:
                    g = induced_subgraph(g, (1 << n) - 1)[0]
                for r0 in range(0, n, 7):
                    got = t_table(g, r0, cutoff)
                    assert got == union_table(g, r0)
                    sides.add(4 * g.degree(r0) >= n)
        assert sides == {False, True}


class TestCertificates:
    def test_find_certificate_on_k4_supergraph(self):
        g, _ = generate_planted(GenParams(n=20, edge_prob=0.4, seed=4))
        edges = list(g.edges())
        base = g.n
        for i in range(4):
            for j in range(i + 1, 4):
                edges.append((base + i, base + j))
        edges.append((base, 0))
        big = build_graph(base + 4, edges)
        found = find_certificate(big)
        assert found is not None
        hub, cycle = found
        assert certificate_is_valid(big, hub, cycle)

    def test_no_certificate_on_planted(self):
        g, _ = generate_planted(GenParams(n=30, edge_prob=0.5, seed=2))
        assert find_certificate(g) is None
