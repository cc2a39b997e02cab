"""Bitset-backed simple undirected graphs with cheap subset views.

Vertex ids are dense integers 0..n-1.  Vertex subsets are arbitrary
precision integer bitmasks, bit v for vertex v, in every module's fields
and signatures as in the kernels, so the intersection-heavy queries the
coloring machinery lives on (N(v) & Y, degree into a subset) cost
O(n/64) machine words instead of O(degree) hash lookups.
``unpack_bits``, ``unpack_rows``, ``pack_rows`` and ``pack_words`` are
the one conversion to and from numpy 0/1 rows.  Packed rows have one
format, n x ceil(n/64) ``uint64`` words: ``packed_rows`` gives a graph's,
its own when it carries them, else packed from its int rows.
``subgraph_words`` is the one rebuild, under the search's working
graphs (``progress.induced_subgraph``, made only for a root whose
round-1 pair survives: round 1 reads the driver's base under the alive
set, see ``search.seek_progress``) and the driver's merges
(``progress.merge_vertex_set``, which patches the merged row and column
into its output): it reads the graph's ``packed_rows``, unpacking an
eighth of ``ROW_SUM_BYTES`` of rows at a time, and writes the k kept
rows and columns as k x ceil(k/64) words.  ``packed_graph`` makes those
a graph, deriving the int rows one ``ROW_SUM_BYTES`` block at a time.
So the working and merged graphs carry words, and so does the driver's
first base, a twin of its input graph that shares the input's int rows
(``progress.color_with_progress``); input and generated graphs carry
none.

``first_fit`` is the one first-fit: greedy coloring, the remainder of
neighborhood extraction and the driver's fallback all call it.

The subset queries are four kernels, ``degrees_into``,
``with_degree_at_least``, ``union_neighborhoods`` and ``spans_edge``;
the other modules call them rather than scanning adjacency rows.  Each
has two bodies that return the same values: on a graph with words and a
member set of at least ``PACKED_MIN_MEMBERS`` vertices, member ids come
from one unpack (or, for every vertex, need none), degrees from
``masked_degrees``, the one blocked popcount of masked rows (the
driver's degree keys use it too), and a union from an OR-reduce of
``ROW_SUM_BYTES`` of rows at a time, which is also the edge test: a set
spans an edge when that union meets it.  Every other call runs the int
body, an inline walk over the members from the top bit (``v =
bits.bit_length() - 1``, then ``bits ^= 1 << v``): it makes two ints per
member where ``iter_bits`` makes three full-width ones and resumes a
frame.  The four int bodies do not depend on member order;
``degrees_into`` reverses its lists so its ids stay ascending.

``MemberRows`` is ``degrees_into`` for one member set and many masks,
under the same dispatch: the packed body gathers the member ids and
their rows once (for every vertex, G's own words, no copy), and each
table is then one AND, one popcount and one exact ``int64`` product
with ones.  ``search.seek_progress`` gathers the alive rows this way
once per call, for its root order and every root's round-1 T table.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np


class GraphError(ValueError):
    """Base class for graph construction and query errors."""


class SelfLoop(GraphError):
    pass


class DuplicateEdge(GraphError):
    pass


class VertexOutOfRange(GraphError):
    pass


class PartialColoring(GraphError):
    pass


def iter_bits(bits: int) -> Iterator[int]:
    """Yield the set bit positions of ``bits`` in ascending order.

    For loops whose result depends on the order or on an early exit: the
    cut search's X and Y passes, its seed loop and its side-cut u loop
    (ties keep the earliest u), the driver and the claim lists.  A loop
    whose result does not depend on the order (the kernels' int bodies,
    the sparse-cut check's I4 scan, the side cut's reach) walks from the
    top bit inline: OR-ing 18 to 60 rows that way timed 1.7-1.9x faster
    than through this generator (timeit, n = 400 and 2,000).
    """
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


class Graph:
    """Immutable simple undirected graph.

    Construct through :func:`build_graph` (validated) or the generators.
    ``adj_bits(v)`` exposes v's neighbor bitmask for subset arithmetic,
    ``adj_rows`` all of them.
    """

    __slots__ = ("n", "m", "_adj", "_rows")

    def __init__(self, n: int, adj: Sequence[int], m: int,
                 rows: np.ndarray | None = None):
        self.n = n
        self._adj = tuple(adj)
        self.m = m
        # the same rows packed as n x ceil(n/64) uint64 words, or None
        self._rows = rows

    def degree(self, v: int) -> int:
        return self._adj[v].bit_count()

    def adj_bits(self, v: int) -> int:
        return self._adj[v]

    @property
    def adj_rows(self) -> tuple[int, ...]:
        return self._adj

    def has_edge(self, u: int, v: int) -> bool:
        return (self._adj[u] >> v) & 1 == 1

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges (u, v) with u < v, lexicographically sorted."""
        for u in range(self.n):
            higher = self._adj[u] >> (u + 1)
            for off in iter_bits(higher):
                yield (u, u + 1 + off)

    def min_degree(self) -> int:
        return min((a.bit_count() for a in self._adj), default=0)

    def max_degree(self) -> int:
        return max((a.bit_count() for a in self._adj), default=0)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a validated simple symmetric graph from an edge list."""
    if n < 0:
        raise GraphError("vertex count must be nonnegative")
    adj = [0] * n
    m = 0
    for u, v in edges:
        if not (0 <= u < n) or not (0 <= v < n):
            raise VertexOutOfRange(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise SelfLoop(f"self loop at vertex {u}")
        if (adj[u] >> v) & 1:
            raise DuplicateEdge(f"duplicate edge ({u}, {v})")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        m += 1
    return Graph(n, adj, m)


def unpack_bits(bits: int, n: int) -> np.ndarray:
    """0/1 ``uint8`` vector of length ``n``; entry v is bit v of ``bits``."""
    buf = np.frombuffer(bits.to_bytes(max((n + 7) // 8, 1), "little"), dtype=np.uint8)
    return np.unpackbits(buf, count=n, bitorder="little")


ROW_SUM_BYTES = 1 << 20  # the most bytes of rows in one block


def rows_per_block(row_bytes: int) -> int:
    """How many rows of ``row_bytes`` bytes one block holds: as many as fit
    in ROW_SUM_BYTES, and at least one."""
    return max(1, ROW_SUM_BYTES // max(row_bytes, 1))


def _row_words(rows: Sequence[int], width: int) -> np.ndarray:
    """The bitmasks ``rows`` as a len(rows) x ``width`` ``uint64`` matrix,
    filled a block of rows at a time; a block's row bytes and their join
    are held at once, so each is half of ROW_SUM_BYTES."""
    out = np.empty((len(rows), width), dtype="<u8")
    step = rows_per_block(16 * width)
    for i in range(0, len(rows), step):  # unnamed, a block's join is freed before the next
        out[i:i + step] = np.frombuffer(b"".join(
            [bits.to_bytes(8 * width, "little") for bits in rows[i:i + step]]),
            dtype="<u8").reshape(-1, width)
    return out


def unpack_rows(rows: Sequence[int], n: int) -> np.ndarray:
    """0/1 matrix with one :func:`unpack_bits` row per bitmask."""
    words = _row_words(rows, (n + 63) // 64)
    return np.unpackbits(words.view(np.uint8), axis=1, count=n, bitorder="little")


def packed_rows(G: Graph) -> np.ndarray:
    """G's rows as n x ceil(n/64) ``uint64`` words, bit v of row u being bit
    v % 64 of word v // 64: G's own words when it carries them (working,
    merged and driver base graphs), else packed from its int rows (about
    n^2 / 8 bytes; input graphs)."""
    if G._rows is not None:
        return G._rows
    return _row_words(G.adj_rows, (G.n + 63) // 64)


def pack_words(matrix: np.ndarray) -> np.ndarray:
    """Rows of a 0/1 matrix as ``uint64`` words; bit v of a row is bit
    v % 64 of word v // 64."""
    count, n = matrix.shape
    buf = np.zeros((count, 8 * ((n + 63) // 64)), dtype=np.uint8)
    buf[:, : (n + 7) // 8] = np.packbits(matrix, axis=1, bitorder="little")
    return buf.view("<u8")


def _row_ints(words: np.ndarray) -> list[int]:
    """One bitmask per row of the little-endian matrix ``words``; the rows
    are copied out by one ``tobytes()`` per block of at most ROW_SUM_BYTES."""
    width = words.shape[1] * words.itemsize
    step = rows_per_block(width)
    from_bytes = int.from_bytes
    out: list[int] = []
    for i in range(0, len(words), step):
        blob = words[i:i + step].tobytes()
        out += [from_bytes(blob[j:j + width], "little") for j in range(0, len(blob), width)]
    return out


def pack_rows(matrix: np.ndarray) -> list[int]:
    """Inverse of :func:`unpack_rows`: one bitmask per row of a 0/1 matrix."""
    return _row_ints(pack_words(matrix))


def row_blocks(adj: Sequence[int], ids: Sequence[int]) -> Iterator[tuple[int, np.ndarray]]:
    """(i, the rows adj[v] for v in ids[i:i + b], unpacked), in blocks of
    b = rows_per_block(n) rows."""
    n = len(adj)
    step = rows_per_block(n)
    for i in range(0, len(ids), step):
        yield i, unpack_rows([adj[v] for v in ids[i:i + step]], n)


def subgraph_words(rows: np.ndarray, keep: Sequence[int]) -> np.ndarray:
    """The rows that the symmetric words ``rows`` (``packed_rows``)
    induce on ``keep``, vertex keep[i] becoming i, as a len(keep) x
    ceil(len(keep)/64) ``uint64`` matrix: each block of rows is unpacked,
    cut to the kept columns and packed straight into the output words."""
    n, k = len(rows), len(keep)
    cols = np.asarray(keep, dtype=np.intp)
    words = np.empty((k, (k + 63) // 64), dtype="<u8")
    # blocks of an eighth of ROW_SUM_BYTES: by default each of a block's
    # three arrays (unpacked rows, kept columns, padded bits) then stays
    # under glibc's 128 KiB mmap threshold and reuses heap pages, where
    # 1 MiB arrays were mapped and page-faulted afresh on every call
    step = rows_per_block(8 * n)
    for i in range(0, k, step):
        block = np.unpackbits(rows[cols[i:i + step]].view(np.uint8), axis=1, count=n,
                              bitorder="little")
        # padded to whole words, the rows pack as one flat run of bits
        bits = np.zeros((len(block), 64 * words.shape[1]), dtype=np.uint8)
        bits[:, :k] = block[:, cols]
        packed = np.packbits(bits, bitorder="little").view("<u8")
        words[i:i + len(bits)] = packed.reshape(len(bits), -1)
        del block, bits, packed  # before the next block is unpacked
    return words


def packed_graph(words: np.ndarray) -> Graph:
    """The graph whose symmetric rows are the ``uint64`` matrix ``words``
    (``subgraph_words``), holding them beside its int rows."""
    m = int(np.bitwise_count(words).sum()) // 2
    return Graph(len(words), _row_ints(words), m, words)


# Member sets of at least this many vertices take the packed body of the
# kernels on a graph with packed rows; smaller ones keep the int loop,
# since each numpy call costs a few microseconds whatever its size.  Per
# call on planted graphs with n = 150, 600 and 2000 (2 vCPU, Python
# 3.11.7, numpy 2.4.6), the bodies break even at 32-48 members for
# degrees_into and 48-64 for spans_edge on an independent set; at 64
# members packed degrees_into takes 14-27 us against 23-40 us for the
# loop, at 128 members 15-45 us against 54-89 us.
PACKED_MIN_MEMBERS = 64


def _packed_rows(G: Graph, bits: int) -> np.ndarray | None:
    """G's packed rows when ``bits`` is large enough to use them, else None."""
    if G._rows is None or bits.bit_count() < PACKED_MIN_MEMBERS:
        return None
    return G._rows


def masked_degrees(rows: np.ndarray, mask: int, ids: np.ndarray | None = None) -> np.ndarray:
    """|N(v) & mask| for each vertex v of ``ids`` (every vertex when None)
    of the graph with words ``rows`` (``packed_rows``), as an ``int64``
    array: popcounts of the masked rows, ROW_SUM_BYTES of rows at a time,
    each row summed by an exact ``int64`` product with ones: an integer
    product makes no BLAS call, and it timed 10-30% under ``.sum(1)``
    (timeit, n = 400 to 2,000, 2 vCPU, numpy 2.4.6)."""
    mask_words = np.frombuffer(mask.to_bytes(8 * rows.shape[1], "little"), dtype="<u8")
    ones = np.ones(rows.shape[1], dtype=np.int64)
    out = np.empty(len(rows) if ids is None else len(ids), dtype=np.int64)
    step = rows_per_block(8 * rows.shape[1])
    for i in range(0, len(out), step):
        block = rows[i:i + step] if ids is None else rows[ids[i:i + step]]
        np.matmul(np.bitwise_count(block & mask_words), ones, out=out[i:i + step])
    return out


def descending_order(degrees: np.ndarray, n: int) -> np.ndarray:
    """Indices that sort ``degrees``, each below n, largest first, equal
    degrees in index order: a stable sort, the radix sort numpy runs on
    ``int16`` keys when n <= 2**15."""
    keys = -degrees
    if n <= 1 << 15:
        keys = keys.astype(np.int16)
    return keys.argsort(kind="stable")


def bits_of(ids: np.ndarray, n: int) -> int:
    """Bitmask of the vertex ids in ``ids``, a repeated id set once; inverse
    of ``np.flatnonzero(unpack_bits(.))``."""
    if len(ids) < PACKED_MIN_MEMBERS:  # below the cutoff the int loop is cheaper here too
        bits = 0
        for v in ids.tolist():
            bits |= 1 << v
        return bits
    row = np.zeros(n, dtype=np.uint8)
    row[ids] = 1
    return int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")


def degrees_into(G: Graph, bits: int, mask: int) -> tuple[np.ndarray, np.ndarray]:
    """Members of ``bits`` in ascending id order and |N(v) & mask| for each,
    as two ``int64`` arrays."""
    rows = _packed_rows(G, bits)
    if rows is not None:
        if bits == (1 << G.n) - 1:  # every vertex: no unpack, no row gather
            return np.arange(G.n), masked_degrees(rows, mask)
        ids = unpack_bits(bits, G.n).nonzero()[0]
        return ids, masked_degrees(rows, mask, ids)
    adj = G._adj
    ids: list[int] = []
    degrees: list[int] = []
    while bits:  # from the top bit, so both lists are reversed below
        v = bits.bit_length() - 1
        ids.append(v)
        degrees.append((adj[v] & mask).bit_count())
        bits ^= 1 << v
    ids.reverse()
    degrees.reverse()
    return np.array(ids, dtype=np.int64), np.array(degrees, dtype=np.int64)


class MemberRows:
    """A member set of G whose degree tables into several masks are wanted:
    ``degrees_into(mask)`` returns what ``degrees_into(G, bits, mask)``
    does.  On the kernels' packed body (words on G, at least
    PACKED_MIN_MEMBERS members) the member ids and their rows are
    gathered once, here: a k x ceil(n/64) block of G's words, or G's own
    words, no copy, when the set is all of G.  Each table is then one
    AND of the block with the mask's words, one popcount and one exact
    ``int64`` product with ones (a block of more than ROW_SUM_BYTES is
    counted a block at a time by ``masked_degrees``).  Otherwise ``ids``
    and ``rows`` are None and each table runs the int body of
    ``degrees_into``.  ``search.seek_progress`` gathers the alive
    rows this way once per call for its root order and every root's
    round-1 T table; nothing is kept across calls."""

    __slots__ = ("graph", "bits", "ids", "rows", "_ones", "_one_block")

    def __init__(self, G: Graph, bits: int):
        if bits < 0 or bits >> G.n:
            raise ValueError(f"member set holds a vertex outside 0..{G.n - 1}")
        self.graph, self.bits = G, bits
        words = _packed_rows(G, bits)
        self.ids = self.rows = None
        if words is not None:
            if bits == (1 << G.n) - 1:
                self.ids, self.rows = np.arange(G.n), words
            else:
                self.ids = unpack_bits(bits, G.n).nonzero()[0]
                self.rows = words[self.ids]
            self._ones = np.ones(words.shape[1], dtype=np.int64)
            self._one_block = len(self.ids) <= rows_per_block(8 * words.shape[1])

    def degrees_into(self, mask: int) -> tuple[np.ndarray, np.ndarray]:
        """Members in ascending id order and |N(v) & mask| for each, as two
        ``int64`` arrays."""
        rows = self.rows
        if rows is None:
            return degrees_into(self.graph, self.bits, mask)
        if not self._one_block:
            return self.ids, masked_degrees(rows, mask)
        mask_words = np.frombuffer(mask.to_bytes(8 * rows.shape[1], "little"), dtype="<u8")
        return self.ids, np.bitwise_count(rows & mask_words) @ self._ones


def with_degree_at_least(G: Graph, bits: int, mask: int, d: int) -> int:
    """Bitmask of the members of ``bits`` with at least ``d`` neighbors in ``mask``."""
    if _packed_rows(G, bits) is not None:
        ids, degrees = degrees_into(G, bits, mask)
        return bits_of(ids[degrees >= d], G.n)
    adj = G._adj
    out = 0
    while bits:
        v = bits.bit_length() - 1
        low = 1 << v
        if (adj[v] & mask).bit_count() >= d:
            out |= low
        bits ^= low
    return out


def spans_edge(G: Graph, bits: int) -> bool:
    """Whether some edge of G has both endpoints in ``bits``."""
    if _packed_rows(G, bits) is not None:
        return bool(union_neighborhoods(G, bits) & bits)
    adj = G._adj
    rest = bits
    while rest:
        v = rest.bit_length() - 1
        if adj[v] & bits:
            return True
        rest ^= 1 << v
    return False


def union_neighborhoods(G: Graph, bits: int) -> int:
    """Bitmask of all vertices adjacent to at least one member of ``bits``."""
    rows = _packed_rows(G, bits)
    out = 0
    if rows is not None:  # by blocks: n/2 members hold one block, not n^2/16 bytes
        ids = unpack_bits(bits, G.n).nonzero()[0]
        step = rows_per_block(8 * rows.shape[1])
        for i in range(0, len(ids), step):
            out |= int.from_bytes(np.bitwise_or.reduce(rows[ids[i:i + step]]).tobytes(), "little")
        return out
    adj = G._adj
    while bits:
        v = bits.bit_length() - 1
        out |= adj[v]
        bits ^= 1 << v
    return out


@dataclass(frozen=True)
class TwoColoring:
    """Proper 2-coloring of an induced subgraph, as the bitmasks of the two
    color classes."""

    side0: int
    side1: int


@dataclass(frozen=True)
class OddCycle:
    """Witness that an induced subgraph is not bipartite.

    ``vertices`` lists the cycle in order; consecutive entries and the
    wrap-around pair are edges, and the length is odd.
    """

    vertices: tuple[int, ...]


def bipartition(G: Graph, W: int) -> TwoColoring | OddCycle:
    """2-color G[W], W a bitmask, or exhibit an odd cycle inside it.

    Sides are BFS layer parities (components explored from their lowest
    vertex), computed with whole-frontier bitmask sweeps.  A BFS edge
    joins one layer or two adjacent ones, so an edge inside a side is an
    edge inside a layer: the sweep sees it as a layer that reaches
    itself and stops there.  The witness path walk only runs once such
    a conflict is known to exist; it reads W alone, so the cycle it
    returns does not depend on where the sweep stopped.
    """
    bits0 = 0
    bits1 = 0
    unseen = W
    while unseen:
        start = unseen & -unseen
        frontier = start
        parity = 0
        while frontier:
            if parity == 0:
                bits0 |= frontier
            else:
                bits1 |= frontier
            unseen &= ~frontier
            reach = union_neighborhoods(G, frontier)
            if reach & frontier:
                return OddCycle(_extract_odd_cycle(G, W))
            frontier = reach & unseen
            parity ^= 1
    return TwoColoring(bits0, bits1)


def _extract_odd_cycle(G: Graph, W: int) -> tuple[int, ...]:
    """Parent-tracking BFS, used only when an odd cycle is present."""
    side: dict[int, int] = {}
    parent: dict[int, int | None] = {}
    for start in iter_bits(W):
        if start in side:
            continue
        side[start] = 0
        parent[start] = None
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for u in iter_bits(G.adj_bits(v) & W):
                if u not in side:
                    side[u] = side[v] ^ 1
                    parent[u] = v
                    queue.append(u)
                elif side[u] == side[v]:
                    return _close_cycle(parent, v, u)
    raise AssertionError("no odd cycle found in a non-bipartite subgraph")


def _close_cycle(parent: dict[int, int | None], v: int, u: int) -> tuple[int, ...]:
    """Odd cycle through BFS-tree paths of v and u plus the edge (u, v)."""
    anc_v = [v]
    while parent[anc_v[-1]] is not None:
        anc_v.append(parent[anc_v[-1]])
    anc_u = [u]
    while parent[anc_u[-1]] is not None:
        anc_u.append(parent[anc_u[-1]])
    in_v = {w: i for i, w in enumerate(anc_v)}
    iu = next(i for i, w in enumerate(anc_u) if w in in_v)
    lca = anc_u[iu]
    iv = in_v[lca]
    path = anc_v[: iv + 1] + list(reversed(anc_u[:iu]))
    return tuple(path)


@dataclass(frozen=True)
class Coloring:
    """Total assignment of vertex ids to colors plus the palette span.

    ``palette_size`` is the number of color slots the producing
    algorithm allocated; assignments lie in [0, palette_size).
    """

    assignment: tuple[int, ...]
    palette_size: int


def is_proper_coloring(G: Graph, coloring: Coloring) -> tuple[bool, tuple[int, int] | None]:
    """Check properness; on failure also return the first violating edge."""
    assign = coloring.assignment
    if len(assign) != G.n or any(c is None or c < 0 for c in assign):
        raise PartialColoring("assignment is not total on the vertex set")
    masks: dict[int, int] = {}
    for v, c in enumerate(assign):
        masks[c] = masks.get(c, 0) | (1 << v)
    for v in range(G.n):
        conflict = G.adj_bits(v) & masks[assign[v]]
        if conflict:
            u = (conflict & -conflict).bit_length() - 1
            return False, (min(u, v), max(u, v))
    return True, None


def first_fit(adj_rows: Sequence[int], groups: Iterable[Sequence[int]]) -> list[int]:
    """Take the vertex groups in order and give each the lowest color that
    no neighbor of a member wears among the groups already colored;
    returns one color per group.  ``adj_rows`` are int rows, as
    ``Graph.adj_rows``."""
    worn: list[int] = []  # per color, the vertices wearing it
    colors: list[int] = []
    for group in groups:
        adj = members = 0
        for v in group:
            adj |= adj_rows[v]
            members |= 1 << v
        for c, mask in enumerate(worn):
            if not adj & mask:
                break
        else:
            c = len(worn)
            worn.append(0)
        worn[c] |= members
        colors.append(c)
    return colors
