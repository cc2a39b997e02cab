"""Bitset-backed simple undirected graphs with cheap subset views.

Vertex ids are dense integers 0..n-1.  Vertex subsets are arbitrary
precision integer bitmasks, bit v for vertex v, in every module's fields
and signatures as in the kernels, so the intersection-heavy queries the
coloring machinery lives on (N(v) & Y, degree into a subset) cost
O(n/64) machine words instead of O(degree) hash lookups.
``unpack_bits``, ``unpack_rows``, ``pack_rows`` and ``pack_words`` are
the one conversion to and from numpy 0/1 rows.  ``packed_subgraph`` is
the one rebuild, under the search's working graphs
(``progress.induced_subgraph``) and the driver's merges
(``progress.merge_vertex_set``): it reads the rows through
``row_blocks``, at most ``ROW_SUM_BYTES`` of unpacked rows at a time,
and the graph it builds also holds its rows as an n x ceil(n/64)
``uint64`` matrix.  Input and generated graphs carry no matrix.

The subset queries are four kernels, ``degrees_into``,
``with_degree_at_least``, ``union_neighborhoods`` and ``spans_edge``;
the other modules call them rather than scanning adjacency rows.  Each
has two bodies that return the same values: on a graph with the matrix
and a member set of at least ``PACKED_MIN_MEMBERS`` vertices, member ids
come from one unpack, degrees from popcounts of the masked rows and a
union from one OR-reduce; every other call runs the int loop over the
members.
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
    """Yield the set bit positions of ``bits`` in ascending order."""
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


def unpack_rows(rows: Sequence[int], n: int) -> np.ndarray:
    """0/1 ``uint8`` matrix with one :func:`unpack_bits` row per bitmask."""
    nbytes = max((n + 7) // 8, 1)
    blob = b"".join(bits.to_bytes(nbytes, "little") for bits in rows)
    buf = np.frombuffer(blob, dtype=np.uint8).reshape(len(rows), nbytes)
    return np.unpackbits(buf, axis=1, count=n, bitorder="little")


def pack_words(matrix: np.ndarray) -> np.ndarray:
    """Rows of a 0/1 matrix as ``uint64`` words; bit v of a row is bit
    v % 64 of word v // 64."""
    count, n = matrix.shape
    buf = np.zeros((count, 8 * ((n + 63) // 64)), dtype=np.uint8)
    buf[:, : (n + 7) // 8] = np.packbits(matrix, axis=1, bitorder="little")
    return buf.view("<u8")


def _row_ints(words: np.ndarray) -> list[int]:
    return [int.from_bytes(row.tobytes(), "little") for row in words]


def pack_rows(matrix: np.ndarray) -> list[int]:
    """Inverse of :func:`unpack_rows`: one bitmask per row of a 0/1 matrix."""
    return _row_ints(pack_words(matrix))


ROW_SUM_BYTES = 1 << 20  # the most bytes of unpacked rows in one block


def row_blocks(adj: Sequence[int], ids: Sequence[int]) -> Iterator[tuple[int, np.ndarray]]:
    """(i, the rows adj[v] for v in ids[i:i + b], unpacked), in blocks of
    b rows that hold at most ROW_SUM_BYTES."""
    n = len(adj)
    step = max(1, ROW_SUM_BYTES // max(n, 1))
    for i in range(0, len(ids), step):
        yield i, unpack_rows([adj[v] for v in ids[i:i + step]], n)


def packed_subgraph(adj: Sequence[int], keep: Sequence[int]) -> Graph:
    """The graph the symmetric rows ``adj`` induce on ``keep``, vertex
    keep[i] becoming i, with its packed rows; each block of rows is cut
    to the kept columns and packed straight into the output words."""
    k = len(keep)
    cols = np.asarray(keep, dtype=np.intp)
    words = np.empty((k, (k + 63) // 64), dtype="<u8")
    for i, block in row_blocks(adj, keep):
        # padded to whole words, the rows pack as one flat run of bits
        bits = np.zeros((len(block), 64 * words.shape[1]), dtype=np.uint8)
        bits[:, :k] = block[:, cols]
        packed = np.packbits(bits, bitorder="little").view("<u8")
        words[i:i + len(bits)] = packed.reshape(len(bits), -1)
        del block, bits, packed  # before the next block is unpacked
    m = int(np.bitwise_count(words).sum()) // 2
    return Graph(len(keep), _row_ints(words), m, words)


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


def _words(bits: int, rows: np.ndarray) -> np.ndarray:
    return np.frombuffer(bits.to_bytes(8 * rows.shape[1], "little"), dtype="<u8")


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
        ids = unpack_bits(bits, G.n).nonzero()[0]
        degrees = np.bitwise_count(rows[ids] & _words(mask, rows)).sum(1, dtype=np.int64)
        return ids, degrees
    adj = G._adj
    ids = list(iter_bits(bits))
    degrees = [(adj[v] & mask).bit_count() for v in ids]
    return np.array(ids, dtype=np.int64), np.array(degrees, dtype=np.int64)


def with_degree_at_least(G: Graph, bits: int, mask: int, d: int) -> int:
    """Bitmask of the members of ``bits`` with at least ``d`` neighbors in ``mask``."""
    if _packed_rows(G, bits) is not None:
        ids, degrees = degrees_into(G, bits, mask)
        return bits_of(ids[degrees >= d], G.n)
    adj = G._adj
    return sum(1 << v for v in iter_bits(bits) if (adj[v] & mask).bit_count() >= d)


def spans_edge(G: Graph, bits: int) -> bool:
    """Whether some edge of G has both endpoints in ``bits``."""
    rows = _packed_rows(G, bits)
    if rows is not None:
        ids = unpack_bits(bits, G.n).nonzero()[0]
        return bool((rows[ids] & _words(bits, rows)).any())
    adj = G._adj
    for v in iter_bits(bits):
        if adj[v] & bits:
            return True
    return False


def union_neighborhoods(G: Graph, bits: int) -> int:
    """Bitmask of all vertices adjacent to at least one member of ``bits``."""
    rows = _packed_rows(G, bits)
    if rows is not None:
        ids = unpack_bits(bits, G.n).nonzero()[0]
        return int.from_bytes(np.bitwise_or.reduce(rows[ids]).tobytes(), "little")
    adj = G._adj
    out = 0
    for v in iter_bits(bits):
        out |= adj[v]
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
