import random
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from threecolor import graph
from threecolor.graph import (
    PACKED_MIN_MEMBERS,
    ROW_SUM_BYTES,
    Coloring,
    DuplicateEdge,
    Graph,
    MemberRows,
    OddCycle,
    PartialColoring,
    SelfLoop,
    TwoColoring,
    VertexOutOfRange,
    bipartition,
    bits_of,
    build_graph,
    degrees_into,
    descending_order,
    first_fit,
    is_proper_coloring,
    iter_bits,
    masked_degrees,
    pack_rows,
    pack_words,
    packed_rows,
    spans_edge,
    union_neighborhoods,
    unpack_bits,
    unpack_rows,
    with_degree_at_least,
)
from threecolor.progress import induced_subgraph, merge_vertex_set


def mask(members):
    """Bitmask of the vertex ids in ``members``."""
    bits = 0
    for v in members:
        bits |= 1 << v
    return bits


def full_set(g):
    return (1 << g.n) - 1


def contract(G, u, v):
    """Merge two non-adjacent vertices into one: the pairwise reference
    for ``progress.merge_vertex_set``.

    Returns the contracted graph on n-1 vertices and the old->new vertex
    map.  The merged vertex keeps min(u, v)'s new id; ids above
    max(u, v) shift down by one.
    """
    if not (0 <= u < G.n) or not (0 <= v < G.n):
        raise VertexOutOfRange(f"contract({u}, {v}) out of range")
    if u == v or G.has_edge(u, v):
        raise ValueError(f"vertices {u} and {v} cannot be merged")
    lo, hi = min(u, v), max(u, v)
    mask_lo = (1 << hi) - 1

    def drop_hi(bits):
        return (bits & mask_lo) | ((bits >> (hi + 1)) << hi)

    merged = G.adj_bits(lo) | G.adj_bits(hi)
    adj = []
    for w in range(G.n):
        if w == hi:
            continue
        bits = merged if w == lo else G.adj_bits(w)
        if w != lo and (bits >> hi) & 1:
            bits |= 1 << lo
        adj.append(drop_hi(bits))
    m = sum(b.bit_count() for b in adj) // 2
    mapping = tuple(lo if w == hi else (w if w < hi else w - 1) for w in range(G.n))
    return Graph(G.n - 1, adj, m), mapping


TRIANGLE = build_graph(3, [(0, 1), (1, 2), (0, 2)])
PATH3 = build_graph(3, [(0, 1), (1, 2)])
K4 = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


class TestBuildGraph:
    def test_triangle(self):
        assert TRIANGLE.m == 3
        assert tuple(iter_bits(TRIANGLE.adj_bits(0))) == (1, 2)

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoop):
            build_graph(2, [(0, 0)])

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateEdge):
            build_graph(4, [(0, 1), (0, 1)])
        with pytest.raises(DuplicateEdge):
            build_graph(4, [(0, 1), (1, 0)])

    def test_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            build_graph(3, [(0, 3)])

    def test_symmetry(self):
        g = build_graph(5, [(0, 3), (2, 4), (1, 3)])
        for u in range(5):
            for v in range(5):
                assert g.has_edge(u, v) == g.has_edge(v, u)


class TestRowPacking:
    def test_round_trip(self):
        rows = [K4.adj_bits(v) for v in range(K4.n)]
        matrix = unpack_rows(rows, K4.n)
        assert matrix.shape == (4, 4)
        assert matrix.tolist() == [
            [int(K4.has_edge(u, v)) for v in range(4)] for u in range(4)
        ]
        assert pack_rows(matrix) == rows
        assert unpack_bits(rows[0], K4.n).tolist() == matrix[0].tolist()

    def test_empty(self):
        assert unpack_rows([], 5).shape == (0, 5)
        assert pack_rows(unpack_rows([], 5)) == []

    @given(st.integers(0, 70), st.sampled_from([0.0, 0.1, 0.5, 1.0]), st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    def test_packed_rows_are_the_int_rows(self, n, p, seed):
        g = random_graph(random.Random(seed), n, p, packed=False)
        for h in (g, packed_copy(g)):
            rows = packed_rows(h)
            assert rows.dtype == np.uint64 and rows.shape == (n, (n + 63) // 64)
            if h is not g and n:  # packed words are lent, not copied
                assert rows is h._rows
            assert [int.from_bytes(row.tobytes(), "little") for row in rows] == list(h.adj_rows)


class TestSpansEdge:
    def test_path(self):
        assert spans_edge(PATH3, 0b011)
        assert not spans_edge(PATH3, 0b101)
        assert not spans_edge(PATH3, 0)


def packed_copy(g):
    """The same graph, also carrying packed uint64 rows."""
    return induced_subgraph(g, (1 << g.n) - 1)[0]


def words_twin(g):
    """The same graph carrying packed uint64 rows beside g's own int rows,
    as the driver builds its first base."""
    return Graph(g.n, g.adj_rows, g.m, packed_rows(g))


def random_graph(rng, n, p, packed):
    """G(n, p); with ``packed`` the graph also carries packed uint64 rows."""
    g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                        if rng.random() < p])
    return packed_copy(g) if packed else g


def random_members(rng, n, size):
    """Bitmask of ``size`` vertices of 0..n-1 (all of them if n is smaller)."""
    return sum(1 << v for v in rng.sample(range(n), min(size, n)))


@st.composite
def graph_and_masks(draw):
    """A G(n, p) graph on n <= 200 vertices, with or without packed rows,
    and two vertex masks; the member mask is drawn on either side of the
    packed kernels' size cutoff."""
    n = draw(st.one_of(st.sampled_from([63, 64, 65, 128]), st.integers(0, 200)))
    # sparse densities leave a large member set's union and inner edges partial
    p = draw(st.sampled_from([0.0, 0.01, 0.03, 0.1, 0.3, 0.6, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    g = random_graph(rng, n, p, draw(st.booleans()))
    size = draw(st.one_of(st.integers(0, PACKED_MIN_MEMBERS - 1),
                          st.integers(PACKED_MIN_MEMBERS, 200)))
    bits = random_members(rng, n, size)
    mask = random_members(rng, n, draw(st.integers(0, n)))
    return g, bits, mask


def reference_degree(g, v, mask):
    """Neighbors of v in mask, counted one vertex pair at a time."""
    return sum(1 for u in range(g.n) if (mask >> u) & 1 and g.has_edge(v, u))


@pytest.mark.parametrize("size", [5, PACKED_MIN_MEMBERS, 150])
def test_bits_of_sets_a_repeated_id_once(size):
    # both bodies: the int loop below the cutoff, the packed row at it
    rng = random.Random(size)
    ids = [rng.randrange(200) for _ in range(size - 2)] + [7, 7]
    assert bits_of(np.array(ids), 200) == mask(ids)


class TestDegreeKernels:
    @given(graph_and_masks())
    @settings(max_examples=200, deadline=None)
    def test_degrees_into_matches_pair_count(self, case):
        g, bits, mask = case
        ids, degrees = degrees_into(g, bits, mask)
        assert ids.dtype == degrees.dtype == np.int64
        assert ids.tolist() == list(iter_bits(bits))
        assert degrees.tolist() == [reference_degree(g, v, mask) for v in iter_bits(bits)]

    @given(graph_and_masks(), st.integers(-1, 202))
    @settings(max_examples=200, deadline=None)
    def test_with_degree_at_least_matches_pair_count(self, case, d):
        g, bits, mask = case
        expected = 0
        for v in iter_bits(bits):
            if reference_degree(g, v, mask) >= d:
                expected |= 1 << v
        assert with_degree_at_least(g, bits, mask, d) == expected

    @given(graph_and_masks())
    @settings(max_examples=150, deadline=None)
    def test_union_neighborhoods_matches_pair_test(self, case):
        g, bits, _ = case
        expected = 0
        for u in range(g.n):
            if any(g.has_edge(v, u) for v in iter_bits(bits)):
                expected |= 1 << u
        assert union_neighborhoods(g, bits) == expected

    @given(graph_and_masks())
    @settings(max_examples=150, deadline=None)
    def test_spans_edge_matches_pair_test(self, case):
        g, bits, _ = case
        members = list(iter_bits(bits))
        expected = any(g.has_edge(u, v) for u in members for v in members)
        assert spans_edge(g, bits) is expected

    @pytest.mark.parametrize("packed", [False, True])
    def test_spans_edge_finds_a_single_inner_edge(self, packed):
        # on the path 0-1-...-129 the 65 odd ids are independent, and each
        # even id adds edges to its odd neighbors only
        n = 130
        g = build_graph(n, [(v, v + 1) for v in range(n - 1)])
        if packed:
            g = packed_copy(g)
        odds = sum(1 << v for v in range(1, n, 2))
        assert not spans_edge(g, odds)
        assert all(spans_edge(g, odds | 1 << v) for v in range(0, n, 2))

    @pytest.mark.parametrize("n", [63, 64, 65, 128, 200])
    def test_packed_and_int_bodies_agree(self, n):
        # both sides of the cutoff, every member set drawn from the same graph
        rng = random.Random(n)
        plain = random_graph(rng, n, 0.3, packed=False)
        packed = packed_copy(plain)
        for size in (PACKED_MIN_MEMBERS - 1, PACKED_MIN_MEMBERS, n):
            bits = random_members(rng, n, size)
            mask = random_members(rng, n, n // 2)
            a, b = degrees_into(plain, bits, mask), degrees_into(packed, bits, mask)
            assert a[0].tolist() == b[0].tolist() and a[1].tolist() == b[1].tolist()
            for g in (plain, packed):  # the rows gathered once give the same table
                rows = MemberRows(g, bits)
                got = rows.degrees_into(mask)
                assert got[0].dtype == got[1].dtype == np.int64
                assert got[0].tolist() == a[0].tolist() and got[1].tolist() == a[1].tolist()
                assert (rows.rows is not None) == (g is packed
                                                   and bits.bit_count() >= PACKED_MIN_MEMBERS)
            for d in (0, 5, 20):
                assert (with_degree_at_least(plain, bits, mask, d)
                        == with_degree_at_least(packed, bits, mask, d))
            assert union_neighborhoods(plain, bits) == union_neighborhoods(packed, bits)
            assert spans_edge(plain, bits) == spans_edge(packed, bits)


    @pytest.mark.parametrize("n", [64, 65, 130, 200])
    def test_full_set_degrees_match_the_int_body(self, n):
        # every vertex as the member set: the packed body skips the unpack
        # and the row gather
        rng = random.Random(n)
        plain = random_graph(rng, n, 0.3, packed=False)
        packed = packed_copy(plain)
        every = full_set(plain)
        for mask in (every, random_members(rng, n, n // 2), 0):
            a, b = degrees_into(plain, every, mask), degrees_into(packed, every, mask)
            assert b[0].dtype == b[1].dtype == np.int64
            assert a[0].tolist() == b[0].tolist() and a[1].tolist() == b[1].tolist()
            # the whole set's gathered rows are the graph's own words
            rows = MemberRows(packed, every)
            assert rows.rows is packed_rows(packed)
            c = rows.degrees_into(mask)
            assert c[1].dtype == np.int64
            assert a[0].tolist() == c[0].tolist() and a[1].tolist() == c[1].tolist()


def ascending_int_bodies(g, bits, mask, d):
    """Copies of the four kernels' int bodies as they walked the members
    with ``iter_bits``, lowest id first: degrees_into's ids and degrees,
    then with_degree_at_least, union_neighborhoods and spans_edge."""
    adj = g.adj_rows
    ids = list(iter_bits(bits))
    degrees = [(adj[v] & mask).bit_count() for v in ids]
    at_least = sum(1 << v for v in iter_bits(bits) if (adj[v] & mask).bit_count() >= d)
    union = 0
    for v in iter_bits(bits):
        union |= adj[v]
    spans = False
    for v in iter_bits(bits):
        if adj[v] & bits:
            spans = True
            break
    return ids, degrees, at_least, union, spans


@st.composite
def plain_graph_and_edge_masks(draw):
    """A G(n, p) graph without packed rows, so every kernel call takes the
    int body, and a member set holding bits 0, 63, 64 and n - 1 (those
    below n) on either side of a word boundary, plus a mask and a floor."""
    n = draw(st.sampled_from([1, 63, 64, 65, 128, 2000]))
    p = draw(st.sampled_from([0.0, 0.01, 0.1, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    upper = np.triu(rng.random((n, n), dtype=np.float32) < p, 1)
    g = Graph(n, pack_rows((upper | upper.T).astype(np.uint8)), int(upper.sum()))
    edge_ids = [v for v in (0, 63, 64, n - 1) if v < n]
    extra = rng.choice(n, draw(st.integers(0, min(n, 300))), replace=False)
    bits = mask(edge_ids) | mask(extra.tolist())
    mask_bits = mask(np.flatnonzero(rng.random(n) < draw(st.sampled_from([0.0, 0.3, 1.0]))).tolist())
    return g, bits, mask_bits, draw(st.integers(-1, 70))


@given(plain_graph_and_edge_masks())
@settings(max_examples=120, deadline=None, derandomize=True, database=None)
def test_top_bit_int_bodies_match_the_ascending_loops(case):
    g, bits, mask_bits, d = case
    assert g._rows is None  # no words: every call below runs the int body
    ids, degrees, at_least, union, spans = ascending_int_bodies(g, bits, mask_bits, d)
    got_ids, got_degrees = degrees_into(g, bits, mask_bits)
    assert got_ids.dtype == got_degrees.dtype == np.int64
    assert (np.diff(got_ids) > 0).all()
    assert got_ids.tolist() == ids == np.flatnonzero(unpack_bits(bits, g.n)).tolist()
    assert got_degrees.tolist() == degrees
    assert with_degree_at_least(g, bits, mask_bits, d) == at_least
    assert union_neighborhoods(g, bits) == union
    assert spans_edge(g, bits) is spans


@pytest.mark.parametrize("n", [300, 1 << 15, (1 << 15) + 1])
@pytest.mark.parametrize("seed", range(4))
def test_descending_order_is_the_stable_sort_of_negated_degrees(n, seed):
    # many ties, degrees up to n - 1: int16 keys up to n = 2**15, int64 above
    rng = np.random.default_rng(seed)
    degrees = rng.choice(rng.integers(0, n, 8), 500)
    degrees[:2] = (0, n - 1)
    assert descending_order(degrees, n).tolist() == (-degrees).argsort(kind="stable").tolist()


class TestPackedRows:
    @given(graph_and_masks())
    @settings(max_examples=100, deadline=None)
    def test_induced_subgraph_rows_agree(self, case):
        g, _, alive = case
        sub, keep = induced_subgraph(g, alive)
        assert keep == list(iter_bits(alive))
        if not keep:
            assert sub._rows is None
            return
        assert sub._rows.dtype == np.uint64
        assert sub._rows.shape == (sub.n, (sub.n + 63) // 64)
        for i, row in enumerate(sub._rows):
            assert int.from_bytes(row.tobytes(), "little") == sub.adj_bits(i)
        assert sub.adj_bits(0) == sum(
            1 << j for j, w in enumerate(keep) if g.has_edge(keep[0], w))
        assert sub.m == sum(sub.degree(v) for v in range(sub.n)) // 2

    @pytest.mark.parametrize("n", [0, 5])
    def test_nothing_alive_materializes_empty(self, n):
        sub, keep = induced_subgraph(build_graph(n, []), 0)
        assert (sub.n, sub.m, sub.adj_rows, keep) == (0, 0, (), [])

    def test_packed_words_layout(self):
        matrix = np.zeros((2, 130), dtype=np.uint8)
        matrix[0, [0, 63, 64, 129]] = 1
        words = pack_words(matrix)
        assert words.shape == (2, 3)
        assert words[0].tolist() == [1 | 1 << 63, 1, 2]
        assert words[1].tolist() == [0, 0, 0]


def contract_all(G, members):
    """Merge ``members`` into the lowest one pair by pair with ``contract``;
    returns the graph and the composed old->new vertex map."""
    h, mapping = G, tuple(range(G.n))
    for v in members[1:]:
        h, step = contract(h, mapping[members[0]], mapping[v])
        mapping = tuple(step[w] for w in mapping)
    return h, mapping


def independent_members(rng, g, size):
    """Up to ``size`` pairwise non-adjacent vertices, picked greedily in a
    random order, ascending."""
    members = []
    for v in rng.sample(range(g.n), g.n):
        if len(members) < size and not any(g.has_edge(v, u) for u in members):
            members.append(v)
    return sorted(members)


def assert_rows_packed(h):
    """h carries packed rows that agree with its int rows."""
    assert h._rows.shape == (h.n, (h.n + 63) // 64)
    assert [int.from_bytes(row.tobytes(), "little") for row in h._rows] == list(h.adj_rows)


def dense_graph(n, seed):
    """G(n, 1/2), drawn as a numpy matrix so that large n stays quick."""
    upper = np.triu(np.random.default_rng(seed).integers(0, 2, (n, n), dtype=np.uint8), 1)
    return Graph(n, pack_rows(upper | upper.T), int(upper.sum()))


# blocks of one row (1 and 70 bytes on 70 vertices), of three rows with a
# shorter last block (210, and 1680 for the rebuild, whose blocks are an
# eighth as large), and the default, which holds every row at once; on
# the 16-byte words of 70 vertices, the popcount kernel's blocks hold 1,
# 4, 13 and 70 rows and the packer's, half as large, 1, 2, 6 and 52
CHUNKS = pytest.mark.parametrize("chunk_bytes", [1, 70, 210, 1680, ROW_SUM_BYTES])


class TestRowBlocks:
    @staticmethod
    def graph(seed):
        rng = random.Random(seed)
        n = 70
        return rng, build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                    if rng.random() < 0.3])

    @CHUNKS
    def test_packed_rows_in_chunks(self, monkeypatch, chunk_bytes):
        monkeypatch.setattr(graph, "ROW_SUM_BYTES", chunk_bytes)
        _, g = self.graph(4)
        rows = packed_rows(g)
        assert [int.from_bytes(row.tobytes(), "little") for row in rows] == list(g.adj_rows)

    @CHUNKS
    def test_row_sums_in_chunks(self, monkeypatch, chunk_bytes):
        # |N(v) & mask| from the blocked popcount kernel, for every vertex
        # and for gathered ids
        monkeypatch.setattr(graph, "ROW_SUM_BYTES", chunk_bytes)
        rng, g = self.graph(5)
        members = mask(rng.sample(range(g.n), 40))
        ids = np.array(sorted(rng.sample(range(g.n), 30)))
        expect = [(g.adj_bits(v) & members).bit_count() for v in range(g.n)]
        real = np.bitwise_count
        # words packed from the int rows, and lent by a packed twin
        for source in (g, packed_copy(g)):
            rows = packed_rows(source)
            width = rows.shape[1] * 8
            for some, want in ((None, expect), (ids, [expect[v] for v in ids])):
                blocks = []

                def popcount(*args, **kwargs):
                    out = real(*args, **kwargs)
                    blocks.append(len(out))
                    return out

                with patch.object(np, "bitwise_count", popcount):
                    got = masked_degrees(rows, members, some)
                assert got.dtype == np.int64 and got.tolist() == want
                assert sum(blocks) == len(want)
                # one row per block when a row alone passes the bound
                assert all(count * width <= max(chunk_bytes, width) for count in blocks)
        # a member set's gathered rows, past one block counted a block at a time
        gathered = mask(rng.sample(range(g.n), PACKED_MIN_MEMBERS + 2))
        ids, got = MemberRows(packed_copy(g), gathered).degrees_into(members)
        assert ids.tolist() == list(iter_bits(gathered))
        assert got.dtype == np.int64 and got.tolist() == [expect[v] for v in ids]

    @CHUNKS
    @pytest.mark.parametrize("alive_share", [0.5, 1.0])
    def test_induced_subgraph_in_chunks(self, monkeypatch, chunk_bytes, alive_share):
        monkeypatch.setattr(graph, "ROW_SUM_BYTES", chunk_bytes)
        rng, g = self.graph(6)
        keep = sorted(rng.sample(range(g.n), int(alive_share * g.n)))
        # from words packed from the int rows, and from the words of a twin
        # that shares those int rows, as the driver's first base does
        for base in (g, words_twin(g)):
            sub, got = induced_subgraph(base, sum(1 << v for v in keep))
            assert got == keep
            for i, u in enumerate(keep):
                assert ([sub.has_edge(i, j) for j in range(sub.n)]
                        == [g.has_edge(u, w) for w in keep])
            assert sub.m == sum(g.has_edge(u, w) for u in keep for w in keep) // 2
            assert_rows_packed(sub)

    @CHUNKS
    @pytest.mark.parametrize("size", [2, 5])
    def test_merge_vertex_set_in_chunks(self, monkeypatch, chunk_bytes, size):
        monkeypatch.setattr(graph, "ROW_SUM_BYTES", chunk_bytes)
        rng, g = self.graph(7)
        members = independent_members(rng, g, size)
        assert len(members) == size
        expect, expect_map = contract_all(g, members)
        for base in (g, words_twin(g)):
            merged, mapping = merge_vertex_set(base, mask(members))
            assert mapping == expect_map
            assert (merged.n, merged.m) == (expect.n, expect.m)
            assert merged.adj_rows == expect.adj_rows
            assert_rows_packed(merged)

    @CHUNKS
    def test_packed_union_and_spans_edge_in_chunks(self, monkeypatch, chunk_bytes):
        # the blocked OR-reduce against the int bodies, on sets of more than
        # PACKED_MIN_MEMBERS vertices that span several blocks
        monkeypatch.setattr(graph, "ROW_SUM_BYTES", chunk_bytes)
        rng, g = self.graph(8)
        members = sorted(rng.sample(range(g.n), PACKED_MIN_MEMBERS + 2))
        inside = mask(members)
        # the members' edges leave the set, but for one between the last two,
        # whose rows lie in the last block
        cross = [(u, v) for u, v in g.edges() if ((inside >> u) ^ (inside >> v)) & 1]
        sparse = build_graph(g.n, cross + [(members[-2], members[-1])])
        for h in (g, sparse):
            twin = words_twin(h)
            for bits in (inside, mask(members[:-1]), full_set(h)):
                assert union_neighborhoods(twin, bits) == union_neighborhoods(h, bits)
                assert spans_edge(twin, bits) == spans_edge(h, bits)
        assert spans_edge(words_twin(sparse), inside)
        assert not spans_edge(words_twin(sparse), mask(members[:-1]))

    def test_packed_union_and_spans_edge_peak_at_a_few_blocks(self, monkeypatch):
        n = 4096
        h = packed_copy(dense_graph(n, 1))
        block = 1 << 16
        monkeypatch.setattr(graph, "ROW_SUM_BYTES", block)
        evens = mask(range(0, n, 2))
        peaks = {}
        tracemalloc.start()
        try:
            for kernel in (union_neighborhoods, spans_edge):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                out = kernel(h, evens)  # the peak counts the output, held until here
                peaks[kernel.__name__] = tracemalloc.get_traced_memory()[1] - before
                del out
        finally:
            tracemalloc.stop()
        assert all(peak <= 4 * block for peak in peaks.values()), peaks

    def test_rebuilds_peak_at_half_n_squared_bytes(self):
        n = 4096
        g = dense_graph(n, 0)
        members = [0, next(v for v in range(1, n) if not g.has_edge(0, v))]
        rebuilds = {
            "induced_subgraph": lambda: induced_subgraph(g, (1 << n) - 1),
            "merge_vertex_set": lambda: merge_vertex_set(g, mask(members)),
        }
        peaks = {}
        tracemalloc.start()
        try:
            for name, rebuild in rebuilds.items():
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                out = rebuild()  # the peak counts the output, held until here
                peaks[name] = tracemalloc.get_traced_memory()[1] - before
                del out
        finally:
            tracemalloc.stop()
        assert all(peak <= n * n / 2 for peak in peaks.values()), peaks

    def test_packing_int_rows_peaks_at_the_words_and_two_blocks(self):
        n = 4096
        g = dense_graph(n, 0)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            rows = packed_rows(g)  # the peak counts the words, held until here
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert rows.nbytes == n * n // 8
        assert peak <= n * n / 8 + 2 * ROW_SUM_BYTES, peak

    def test_packed_degrees_peak_at_a_few_blocks(self, monkeypatch):
        n = 4096
        h = packed_copy(dense_graph(n, 1))
        block = 1 << 16
        monkeypatch.setattr(graph, "ROW_SUM_BYTES", block)
        evens = mask(range(0, n, 2))
        peaks = {}
        tracemalloc.start()
        try:
            for name, bits in (("every vertex", full_set(h)), ("gathered ids", evens)):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                out = degrees_into(h, bits, evens)
                peak = tracemalloc.get_traced_memory()[1] - before
                peaks[name] = peak - sum(a.nbytes for a in out)  # beyond the output
                del out
        finally:
            tracemalloc.stop()
        assert all(peak <= 4 * block for peak in peaks.values()), peaks


class TestBipartition:
    def test_odd_cycle_witness(self):
        c5 = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        result = bipartition(c5, full_set(c5))
        assert isinstance(result, OddCycle)
        cyc = result.vertices
        assert len(cyc) % 2 == 1
        for i in range(len(cyc)):
            assert c5.has_edge(cyc[i], cyc[(i + 1) % len(cyc)])

    def test_empty_set(self):
        result = bipartition(TRIANGLE, 0)
        assert isinstance(result, TwoColoring)
        assert not result.side0 and not result.side1

    def test_path_alternates(self):
        p4 = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        result = bipartition(p4, full_set(p4))
        assert isinstance(result, TwoColoring)
        assert result.side0 | result.side1 == full_set(p4)
        for side in (result.side0, result.side1):
            for v in iter_bits(side):
                assert not (p4.adj_bits(v) & side)

    def test_triangle_within_subset_only(self):
        # the odd cycle must stay inside the queried subset
        result = bipartition(K4, mask([0, 1, 2]))
        assert isinstance(result, OddCycle)
        assert set(result.vertices) <= {0, 1, 2}


def sweep_then_scan_bipartition(G, W):
    """The layer sweep followed by an inner-edge scan of each side: the
    reference for ``bipartition``'s conflict test inside the sweep."""
    bits0 = bits1 = 0
    unseen = W
    while unseen:
        frontier = unseen & -unseen
        parity = 0
        while frontier:
            if parity == 0:
                bits0 |= frontier
            else:
                bits1 |= frontier
            unseen &= ~frontier
            frontier = union_neighborhoods(G, frontier) & unseen
            parity ^= 1
    if spans_edge(G, bits0) or spans_edge(G, bits1):
        return OddCycle(graph._extract_odd_cycle(G, W))
    return TwoColoring(bits0, bits1)


@st.composite
def graph_and_subset(draw):
    """A simple graph on n <= 40 vertices, with or without packed rows, and
    a vertex set W that is everything, nothing, or arbitrary.  Dropping
    the edges across a split point makes the graph, and so most W,
    disconnected."""
    n = draw(st.integers(0, 40))
    p = draw(st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.4, 0.7, 1.0]))
    split = draw(st.integers(0, n))
    rng = random.Random(draw(st.integers(0, 2**32)))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p and (u < split) == (v < split)]
    g = build_graph(n, edges)
    if draw(st.booleans()):
        g = packed_copy(g)
    kind = draw(st.sampled_from(["all", "empty", "arbitrary"]))
    bits = {"all": (1 << n) - 1, "empty": 0, "arbitrary": rng.getrandbits(n)}[kind]
    return g, bits


class TestBipartitionSweep:
    @given(graph_and_subset(), st.sampled_from([1, 2, 4, PACKED_MIN_MEMBERS]))
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_matches_sweep_then_scan(self, case, cutoff):
        # a low cutoff sends the small frontiers of a packed graph through
        # the kernels' packed body
        g, W = case
        with patch.object(graph, "PACKED_MIN_MEMBERS", cutoff):
            got = bipartition(g, W)
            want = sweep_then_scan_bipartition(g, W)
        assert got == want
        if isinstance(got, OddCycle):
            cyc = got.vertices
            assert len(cyc) % 2 == 1 and set(cyc) <= set(iter_bits(W))
            assert all(g.has_edge(cyc[i - 1], cyc[i]) for i in range(len(cyc)))
        else:
            assert got.side0 | got.side1 == W and not got.side0 & got.side1
            for side in (got.side0, got.side1):
                assert not any(g.has_edge(u, v) for u in iter_bits(side)
                               for v in iter_bits(side))


class TestContract:
    def test_path_endpoints(self):
        g, mapping = contract(PATH3, 0, 2)
        assert g.n == 2
        assert g.m == 1
        assert mapping == (0, 1, 0)

    def test_c4_becomes_triangle_free(self):
        c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        g, mapping = contract(c4, 0, 2)
        # merged vertex adjacent to both old 1 and old 3; no edge between them
        assert g.n == 3
        assert g.m == 2
        assert sorted(iter_bits(g.adj_bits(mapping[0]))) == [mapping[1], mapping[3]]
        assert not g.has_edge(mapping[1], mapping[3])
        assert isinstance(bipartition(g, full_set(g)), TwoColoring)

    def test_adjacent_pair_rejected(self):
        with pytest.raises(ValueError):
            contract(TRIANGLE, 0, 1)

    def test_result_stays_simple(self):
        g = build_graph(5, [(0, 1), (0, 2), (3, 1), (3, 2), (1, 4), (2, 4)])
        h, mapping = contract(g, 0, 3)
        for v in range(h.n):
            assert not h.has_edge(v, v)
            for u in iter_bits(h.adj_bits(v)):
                assert h.has_edge(u, v)
        assert sorted(iter_bits(h.adj_bits(mapping[0]))) == sorted({mapping[1], mapping[2]})


class TestProperColoring:
    def test_proper_triangle(self):
        ok, edge = is_proper_coloring(TRIANGLE, Coloring((0, 1, 2), 3))
        assert ok and edge is None

    def test_improper_triangle(self):
        ok, edge = is_proper_coloring(TRIANGLE, Coloring((0, 0, 1), 2))
        assert not ok
        assert edge == (0, 1)

    def test_edgeless(self):
        g = build_graph(5, [])
        ok, _ = is_proper_coloring(g, Coloring((0,) * 5, 1))
        assert ok

    def test_partial_rejected(self):
        with pytest.raises(PartialColoring):
            is_proper_coloring(TRIANGLE, Coloring((0, 1), 2))


class TestFirstFit:
    def test_groups_in_the_given_order(self):
        path = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        assert first_fit(path.adj_rows, [(2,), (0,), (1,), (3,)]) == [0, 0, 1, 1]

    def test_group_avoids_the_colors_of_every_members_neighbors(self):
        # 0 ~ 2, 1 ~ 3 and 2 ~ 3: the group {1, 0} avoids 2's color through
        # 0, and 3 avoids both, the group's through 1
        g = build_graph(4, [(0, 2), (1, 3), (2, 3)])
        assert first_fit(g.adj_rows, [(2,), (1, 0), (3,)]) == [0, 1, 2]

    def test_no_groups(self):
        assert first_fit(TRIANGLE.adj_rows, []) == []


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_contract_preserves_simplicity(data):
    n = data.draw(st.integers(3, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = data.draw(st.sets(st.sampled_from(pairs)))
    g = build_graph(n, sorted(chosen))
    non_adjacent = [
        (u, v) for u in range(n) for v in range(u + 1, n) if not g.has_edge(u, v)
    ]
    if not non_adjacent:
        return
    u, v = data.draw(st.sampled_from(non_adjacent))
    h, mapping = contract(g, u, v)
    assert h.n == n - 1
    for w in range(h.n):
        assert not h.has_edge(w, w)
        for x in iter_bits(h.adj_bits(w)):
            assert h.has_edge(x, w)
    # every original edge survives under the map
    for a, b in g.edges():
        if {a, b} != {u, v}:
            assert h.has_edge(mapping[a], mapping[b])
