"""Progress claims and the driver that turns a stream of them into a coloring.

A progress claim is one of:

* ``Type0(u, v)``: u and v get the same color in every 3-coloring.
* ``Type1(members, side0, side1)``: a 2-colorable set of size at least
  ceil(c1 * n / k), with its witness 2-coloring.
* ``Type2(...)``: a nonempty 2-colorable set whose outside neighborhood
  has size at most c2 * k * |X|.
* ``MonoSet(members)``: a set monochromatic in every 3-coloring; the
  driver consumes it by merging the whole set (same-color pairs).

``color_with_progress`` repeatedly asks a source for a claim against the
current working graph and turns the answers into a proper coloring of
the original graph.  Type 1/2 sets are batched in phases that share one
fresh color pair; each extracted set is removed together with its
neighborhood, which keeps the sets of one phase pairwise non-adjacent,
and the neighborhoods return to the pool when the phase closes.  The
fallback palette (greedy remainder plus deferred vertices colored on
unwind, in one ``graph.first_fit`` pass) occupies colors [0, F); batch
colors sit above it, so the two never collide.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Union

import numpy as np

from .graph import (
    Coloring,
    Graph,
    first_fit,
    is_proper_coloring,
    iter_bits,
    masked_degrees,
    pack_words,
    packed_graph,
    packed_rows,
    spans_edge,
    subgraph_words,
    union_neighborhoods,
    unpack_bits,
)


class UnsoundProgress(RuntimeError):
    """A claim failed its structural invariant."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


@dataclass(frozen=True)
class Type0:
    u: int
    v: int


@dataclass(frozen=True)
class Type1:
    members: int
    side0: int
    side1: int


@dataclass(frozen=True)
class Type2:
    members: int
    side0: int
    side1: int
    neighborhood: int


@dataclass(frozen=True)
class MonoSet:
    members: int


Progress = Union[Type0, Type1, Type2, MonoSet]


# source sentinel: no further progress; fall back to greedy
EXHAUSTED = object()


@dataclass(slots=True)
class Defer:
    """Source action: remove one vertex now, color it on unwind.  Not
    frozen: a frozen dataclass sets its field through ``object.__setattr__``,
    about twice the cost of this slotted ``__init__``, on the driver's most
    frequent step."""

    vertex: int


@dataclass(frozen=True)
class Claim:
    """A guarantee emitted during a run, kept for independent checking.

    ``graph`` is the exact graph the guarantee talks about (the working
    graph at emission time); claims are graph-relative statements.
    """

    kind: str  # "multi" | "mono" | "mono_if_differ" | "type0"
    vertices: tuple[int, ...]
    graph: Graph
    conditional: tuple[int, int] | None = None


@dataclass(frozen=True)
class Sink:
    """Where one run's outputs go: its trace entries and its logged claims.

    A list left at None is not kept, and writes to it are dropped.
    """

    trace: list | None = None
    claims: list | None = None

    def emit(self, **entry) -> None:
        """Append ``entry`` to the trace, when one is kept."""
        if self.trace is not None:
            self.trace.append(entry)

    def claim(self, kind: str, members: int, graph: Graph,
              conditional: tuple[int, int] | None = None) -> None:
        """Log the claim on the vertex set ``members``, listed in ascending
        id order, when claims are kept."""
        if self.claims is not None:
            self.claims.append(Claim(kind, tuple(iter_bits(members)), graph, conditional))


NO_SINK = Sink()


def type1_threshold(n: int, k: float, c1: float = 1.0) -> int:
    """Size floor for a large 2-colorable set: ceil(c1 * n / k)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return math.ceil(c1 * n / k)


@dataclass
class DriverStats:
    contractions: int = 0
    type1_batches: int = 0
    type2_batches: int = 0
    deferred: int = 0
    phases: int = 0
    fallback_colored: int = 0


def merge_vertex_set(G: Graph, members: int) -> tuple[Graph, tuple[int, ...]]:
    """Merge a pairwise non-adjacent vertex set into its lowest member.

    Equivalent to repeated pairwise contraction; done in one rebuild from
    ``packed_rows(G)``: the graph induced on the vertices outside the set
    or at its lowest member, whose row and column then become the union
    of the members' rows.  Returns the new graph and the old->new vertex
    map.
    """
    ids = list(iter_bits(members))
    if len(ids) < 2:
        raise ValueError("need at least two vertices to merge")
    rows = packed_rows(G)
    lo = ids[0]
    dropped = set(ids[1:])
    keep = [v for v in range(G.n) if v not in dropped]
    mapping = [lo] * G.n  # no member lies below lo, so lo keeps its id
    for i, v in enumerate(keep):
        mapping[v] = i
    union = np.bitwise_or.reduce(rows[ids])
    words = subgraph_words(rows, keep)
    del rows  # a copy packed here goes before the int rows are derived
    row = np.unpackbits(union.view(np.uint8), count=G.n, bitorder="little")[keep]
    row[lo] = 0
    # the merged row, and its column: bit lo of every row it names
    words[lo] = pack_words(row[np.newaxis])
    words[row.nonzero()[0], lo >> 6] |= np.uint64(1 << (lo & 63))
    return packed_graph(words), tuple(mapping)


def induced_subgraph(G: Graph, alive_bits: int) -> tuple[Graph, list[int]]:
    """Materialize G[alive] on dense ids from ``packed_rows(G)``; returns
    (subgraph, new->old map)."""
    keep = np.flatnonzero(unpack_bits(alive_bits, G.n)).tolist()
    if not keep:
        return Graph(0, [], 0), []
    # a copy packed here goes before the int rows are derived
    words = subgraph_words(packed_rows(G), keep)
    return packed_graph(words), keep


def _dead_offset(n: int) -> int:
    """BIG of the driver's degree keys on an n-vertex graph (see DriverView)."""
    return 2 * n + 2


def _degree_keys(rows: np.ndarray, alive_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """The driver's ``(hi, lo)`` keys of every vertex of the graph with
    words ``rows`` (``packed_rows``; see DriverView)."""
    n = len(rows)
    degrees = masked_degrees(rows, alive_bits)
    dead = (1 - unpack_bits(alive_bits, n).astype(np.int64)) * _dead_offset(n)
    return degrees - dead, degrees + dead


def _nonnegative_int(x: object) -> bool:
    """Whether ``x`` is an int, not a bool, that is nonnegative: the shape of
    a vertex id and of a vertex set's bitmask."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _names_vertex(v: object, alive_bits: int) -> bool:
    """Whether ``v`` is a vertex id of ``alive_bits``: a nonnegative int
    whose bit is set."""
    return _nonnegative_int(v) and (alive_bits >> v) & 1 == 1


class DriverView:
    """Read-only window onto the driver's working graph.

    Vertices are ids of ``base``; only those in ``alive`` exist.
    ``groups`` maps each base vertex to the original vertex ids it
    represents after contractions.

    The driver keeps two keys per base vertex.  With deg[u] the number
    of alive neighbors of u, dead or alive, and BIG = 2n + 2, ``hi[u]``
    and ``lo[u]`` both equal deg[u] when u is alive; when u is dead,
    ``hi[u] = deg[u] - BIG < 0`` and ``lo[u] = deg[u] + BIG > n``.  So the
    alive vertex of largest degree is ``hi``'s argmax and the one of
    smallest degree is ``lo``'s argmin, ties going to the lowest id.
    The driver removes a set by subtracting its rows from both keys and
    moving the set's own keys by BIG, and returns a set by the inverse,
    so the keys stay exact without a rebuild; only a contraction, which
    renumbers the vertices, rebuilds them (``_degree_keys``, as at the
    start).  Every count comes from ``base``'s own words
    (``packed_rows``): popcounts of the rows masked by the alive set, or
    by a removed or returned set (``graph.masked_degrees``; by symmetry,
    each vertex's neighbors in the set), and one unpacked row for a
    deferral.  The search reads the base under the alive set, and it
    and a contraction rebuild from the same words (``induced_subgraph``
    for a root whose round-1 pair survives, see ``search.seek_progress``;
    ``merge_vertex_set``), so no int row of the base is packed again.
    Every base carries words: the first is a twin of the input graph
    (see ``color_with_progress``), every later one a merged graph.

    The driver builds one view per base graph, at the start and after
    each contraction, and sets its ``alive_bits`` before each source
    call; its keys change in place as vertices leave and return.  So a
    view is valid only during the source call that receives it: a source
    must not keep it, or read it, after that call returns.
    """

    def __init__(self, base: Graph, alive_bits: int, hi: np.ndarray, lo: np.ndarray,
                 groups: list[tuple[int, ...]]):
        self.base = base
        self.alive_bits = alive_bits
        self._hi = hi
        self._lo = lo
        self.groups = groups

    @property
    def n_alive(self) -> int:
        return self.alive_bits.bit_count()

    def neighbors_bits(self, v: int) -> int:
        return self.base.adj_bits(v) & self.alive_bits

    def min_degree_vertex(self) -> tuple[int, int]:
        v = int(self._lo.argmin())
        return v, int(self._lo[v])

    def max_degree_vertex(self) -> tuple[int, int]:
        v = int(self._hi.argmax())
        return v, int(self._hi[v])


def validate_progress(G: Graph, alive_bits: int, claim: Progress, k: float,
                      c1: float = 1.0, c2: float = 1.0) -> list[str]:
    """Structural check of a claim against the working graph G[alive].

    Type 1/2 sets must be nonempty, and their witness sides must
    partition the set into two independent sides; a Type 1 set must
    reach the size floor of G[alive], and a Type 2 set must declare its
    exact neighborhood in G[alive] within the size factor.  Type 0 and
    MonoSet claims are checked for shape only: the same-color statement
    itself needs the oracle.  An edge inside a MonoSet is not a shape
    fault (the claim holds vacuously when G[alive] has no 3-coloring);
    the driver refuses to merge one.
    A Type 1/2 set with a vertex outside G[alive] gets that fault alone,
    and so does a set field that is not a nonnegative int (not a bool).
    """
    bad: list[str] = []
    if isinstance(claim, (MonoSet, Type1, Type2)):
        bad = [f"{field.name} {getattr(claim, field.name)!r} is not a vertex set bitmask"
               for field in fields(claim) if not _nonnegative_int(getattr(claim, field.name))]
        if bad:
            return bad

    def check_witness(members: int, side0: int, side1: int):
        if (side0 | side1) != members or (side0 & side1):
            bad.append("witness sides do not partition the set")
        elif spans_edge(G, side0) or spans_edge(G, side1):
            bad.append("witness side contains an edge")

    if isinstance(claim, Type0):
        outside = [v for v in (claim.u, claim.v) if not _names_vertex(v, alive_bits)]
        if outside:
            bad.append(f"same-color vertex {outside[0]!r} is not a vertex id of the working graph")
        elif claim.u == claim.v:
            bad.append("same-color pair must be two distinct vertices")
        elif G.has_edge(claim.u, claim.v):
            bad.append("same-color pair is adjacent")
    elif isinstance(claim, MonoSet):
        if claim.members.bit_count() < 2:
            bad.append("monochromatic set needs at least two vertices")
        if claim.members & ~alive_bits:
            bad.append("monochromatic set leaves the working graph")
    elif isinstance(claim, (Type1, Type2)):
        if not claim.members:
            kind = "large" if isinstance(claim, Type1) else "small-neighborhood"
            bad.append(f"{kind} set is empty")
        if claim.members & ~alive_bits:
            # the checks below read G's rows of the members
            bad.append("set leaves the working graph")
            return bad
        check_witness(claim.members, claim.side0, claim.side1)
        size = claim.members.bit_count()
        if isinstance(claim, Type1):
            floor = type1_threshold(alive_bits.bit_count(), k, c1)
            if size < floor:
                bad.append(f"set of size {size} below threshold {floor}")
        else:
            want = union_neighborhoods(G, claim.members) & alive_bits
            if claim.neighborhood != want & ~claim.members:
                bad.append("declared neighborhood does not match the working graph")
            if claim.neighborhood.bit_count() > c2 * k * max(size, 1):
                bad.append("neighborhood exceeds the allowed factor")
    else:
        bad.append(f"unknown claim {claim!r}")
    return bad


def color_with_progress(
    G: Graph,
    k: float,
    source: Callable[[DriverView], object],
    *,
    c1: float = 1.0,
    c2: float = 1.0,
    sink: Sink = NO_SINK,
) -> tuple[Coloring, DriverStats]:
    """Drive a progress source to a full proper coloring of G.

    The working graph is ``base`` minus the removed vertices.  The first
    base is a twin of G that shares G's int rows and carries
    ``packed_rows(G)`` (a packed copy of about n^2 / 8 bytes, unless G
    has words); G gains none.  Later bases are merged graphs with words.
    The driver seeds the degree keys from the base's words and reads
    every update from them (see DriverView), a deferral's row through
    one byte view per base.  A kept claim log holds the first base's
    words, since type0 claims are logged against that base.
    """
    base = Graph(G.n, G.adj_rows, G.m, packed_rows(G))
    rows = packed_rows(base)
    row_bytes = rows.view(np.uint8)  # for np.unpackbits
    n, big = base.n, _dead_offset(base.n)
    alive = (1 << G.n) - 1
    groups: list[tuple[int, ...]] = [(v,) for v in range(G.n)]
    hi, lo = _degree_keys(rows, alive)
    view = DriverView(base, alive, hi, lo, groups)
    batch_color: dict[int, int] = {}
    batch_slots = 0
    defer_stack: list[tuple[tuple[int, ...], int]] = []
    stats = DriverStats()
    phase: dict | None = None
    step = 0

    def emit(mechanism: str, set_size: int = 0, nbhd: int = 0):
        if sink.trace is None:  # most steps are deferrals: build no entry
            return
        sink.emit(step=step, mechanism=mechanism, set_size=set_size,
                  neighborhood_size=nbhd, colors_so_far=batch_slots,
                  graph_size=alive.bit_count())

    def shift(bits: int, sign: int):
        """Take an extracted set out of the working graph (sign -1) or put a
        phase's set-aside neighborhoods back (sign +1), keeping the degree
        keys exact; a deferral updates them inline instead."""
        nonlocal alive
        alive = alive | bits if sign > 0 else alive & ~bits
        ids = list(iter_bits(bits))
        counts = sign * masked_degrees(rows, bits)
        np.add(hi, counts, out=hi)
        np.add(lo, counts, out=lo)
        hi[ids] += sign * big
        lo[ids] -= sign * big

    def close_phase():
        nonlocal phase
        if phase is None:
            return
        if phase["aside"]:
            shift(phase["aside"], +1)
        phase = None

    while alive:
        view.alive_bits = alive
        action = source(view)
        step += 1

        if isinstance(action, Defer):  # the hot path: one row, scalar keys
            v = action.vertex
            if not _names_vertex(v, alive):
                raise UnsoundProgress([f"deferred vertex {v!r} is not a vertex id of the working graph"])
            # set-aside neighborhoods are uncolored and will return at
            # phase close, so they count toward the residual degree
            residual = int(hi[v])
            if phase is not None:
                residual += (base.adj_bits(v) & phase["aside"]).bit_count()
            defer_stack.append((groups[v], residual))
            alive ^= 1 << v
            # int64 like the keys: an update from uint8 casts on every call
            counts = np.unpackbits(row_bytes[v], count=n, bitorder="little").astype(np.int64)
            hi -= counts
            lo -= counts
            hi[v] -= big
            lo[v] += big
            stats.deferred += 1
            emit("defer", 1)
            continue

        if action is EXHAUSTED:
            emit("exhausted")
            break

        violations = validate_progress(base, alive, action, k, c1, c2)
        if not violations and isinstance(action, MonoSet) and spans_edge(base, action.members):
            violations.append("monochromatic set contains an edge")
        if violations:
            raise UnsoundProgress(violations)

        if isinstance(action, (Type0, MonoSet)):
            if isinstance(action, Type0):
                members = (1 << action.u) | (1 << action.v)
            else:
                members = action.members
            pair_ids = list(iter_bits(members))
            for other in pair_ids[1:]:
                sink.claim("type0", 1 << pair_ids[0] | 1 << other, base)
            close_phase()
            new_base, mapping = merge_vertex_set(base, members)
            new_groups: list[tuple[int, ...]] = [() for _ in range(new_base.n)]
            for old in range(base.n):
                if (alive >> old) & 1 or mapping[old] == mapping[pair_ids[0]]:
                    new_groups[mapping[old]] = tuple(
                        sorted(new_groups[mapping[old]] + groups[old])
                    )
            new_alive = 0
            for old in iter_bits(alive):
                new_alive |= 1 << mapping[old]
            base = new_base
            rows = packed_rows(base)
            row_bytes = rows.view(np.uint8)
            n, big = base.n, _dead_offset(base.n)
            groups = new_groups
            alive = new_alive
            hi, lo = _degree_keys(rows, alive)
            view = DriverView(base, alive, hi, lo, groups)
            stats.contractions += len(pair_ids) - 1
            emit("contract", len(pair_ids))
            continue

        # Type 1 / Type 2: extract under the current phase's color pair.
        members = action.members
        if phase is None:
            phase = {
                "start": alive.bit_count(),
                "removed": 0,
                "union": 0,
                "aside": 0,
                "slot0": None,
                "slot1": None,
            }
            stats.phases += 1
        reach = union_neighborhoods(base, members)
        if reach & phase["union"]:
            raise AssertionError("extracted set touches an earlier set of this phase")
        for side_bits, which in ((action.side0, "slot0"), (action.side1, "slot1")):
            if not side_bits:
                continue
            if phase[which] is None:  # the phase's first set on this side
                phase[which] = batch_slots
                batch_slots += 1
            for v in iter_bits(side_bits):
                for orig in groups[v]:
                    batch_color[orig] = phase[which]
        nbhd = reach & alive & ~members
        shift(members | nbhd, -1)
        phase["union"] |= members
        phase["aside"] |= nbhd
        phase["removed"] += members.bit_count() + nbhd.bit_count()
        if isinstance(action, Type1):
            stats.type1_batches += 1
        else:
            stats.type2_batches += 1
        emit("type1" if isinstance(action, Type1) else "type2",
             members.bit_count(), nbhd.bit_count())
        if 2 * phase["removed"] >= phase["start"]:
            close_phase()

    close_phase()

    # the fallback colors the alive groups in ascending id, then the
    # deferred ones in unwind order, first-fit on the input graph
    leftover = [groups[v] for v in iter_bits(alive)]
    for _ in leftover:
        emit("fallback", 1)
    unwind = defer_stack[::-1]
    fallback = leftover + [group for group, _ in unwind]
    colors = first_fit(G.adj_rows, fallback)
    for (_, residual), picked in zip(unwind, colors[len(leftover):]):
        if picked > residual:
            raise AssertionError(
                f"deferred vertex needed color {picked} beyond residual degree {residual}"
            )
    stats.fallback_colored = len(fallback)

    fallback_span = max(colors, default=-1) + 1
    final: list[int | None] = [None] * G.n
    for group, c in zip(fallback, colors):
        for orig in group:
            final[orig] = c
    for orig, slot in batch_color.items():
        final[orig] = fallback_span + slot
    palette = fallback_span + batch_slots
    coloring = Coloring(tuple(final), palette)
    ok, edge = is_proper_coloring(G, coloring)
    if not ok:
        raise AssertionError(f"driver produced an improper coloring at edge {edge}")
    return coloring, stats
