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
unwind) occupies colors [0, F); batch colors sit above it, so the two
never collide.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .graph import (
    Coloring,
    Graph,
    degrees_into,
    is_proper_coloring,
    iter_bits,
    packed_subgraph,
    row_blocks,
    spans_edge,
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


@dataclass(frozen=True)
class Defer:
    """Source action: remove one vertex now, color it on unwind."""

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


ClaimLog = list


def log_claim(log, kind: str, members: int, graph: Graph,
              conditional: tuple[int, int] | None = None) -> None:
    """Append the claim on the vertex set ``members``, listed in ascending
    id order, to ``log`` unless it is None."""
    if log is not None:
        log.append(Claim(kind, tuple(iter_bits(members)), graph, conditional))


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

    Equivalent to repeated pairwise contraction; done in one rebuild.
    Returns the new graph and the old->new vertex map.
    """
    ids = list(iter_bits(members))
    if len(ids) < 2:
        raise ValueError("need at least two vertices to merge")
    lo = ids[0]
    adj = list(G.adj_rows)
    adj[lo] = union_neighborhoods(G, members) & ~(1 << lo)
    # the dropped members' columns are left out of the rebuild below
    for w in iter_bits(adj[lo]):
        adj[w] |= 1 << lo
    dropped = set(ids[1:])
    keep = [v for v in range(G.n) if v not in dropped]
    mapping = [lo] * G.n  # no member lies below lo, so lo keeps its id
    for i, v in enumerate(keep):
        mapping[v] = i
    return packed_subgraph(adj, keep), tuple(mapping)


def induced_subgraph(G: Graph, alive_bits: int) -> tuple[Graph, list[int]]:
    """Materialize G[alive] on dense ids; returns (subgraph, new->old map)."""
    keep = np.flatnonzero(unpack_bits(alive_bits, G.n)).tolist()
    if not keep:
        return Graph(0, [], 0), []
    return packed_subgraph(G.adj_rows, keep), keep


def _row_sums(G: Graph, ids: list[int]) -> np.ndarray:
    """For every vertex of G, its number of neighbors among ``ids``, as an
    ``int64`` array."""
    total = np.zeros(G.n, dtype=np.int64)
    for _, block in row_blocks(G.adj_rows, ids):
        total += block.sum(0, dtype=np.int64)
        del block  # before the next block is unpacked
    return total


def _dead_offset(n: int) -> int:
    """BIG of the driver's degree keys on an n-vertex graph (see DriverView)."""
    return 2 * n + 2


def _degree_keys(G: Graph, alive_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """The driver's ``(hi, lo)`` keys of every vertex of G (see DriverView)."""
    degrees = degrees_into(G, (1 << G.n) - 1, alive_bits)[1]
    dead = (1 - unpack_bits(alive_bits, G.n).astype(np.int64)) * _dead_offset(G.n)
    return degrees - dead, degrees + dead


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
    renumbers the vertices, rebuilds them (``_degree_keys``).
    """

    def __init__(self, base: Graph, alive_bits: int, hi: np.ndarray,
                 lo: np.ndarray, groups: list[tuple[int, ...]]):
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
        if not self.alive_bits:
            return -1, 0
        v = int(self._lo.argmin())
        return v, int(self._lo[v])

    def max_degree_vertex(self) -> tuple[int, int]:
        if not self.alive_bits:
            return -1, -1
        v = int(self._hi.argmax())
        return v, int(self._hi[v])

    def materialize(self) -> tuple[Graph, list[int]]:
        return induced_subgraph(self.base, self.alive_bits)


def validate_progress(G: Graph, alive_bits: int, claim: Progress, k: float,
                      c1: float = 1.0, c2: float = 1.0) -> list[str]:
    """Structural check of a claim against the working graph G[alive].

    Type 1/2 witness sides must partition the set into two independent
    sides; a Type 1 set must reach the size floor of G[alive], and a
    Type 2 set must declare its exact neighborhood in G[alive] within
    the size factor.  Type 0 and MonoSet claims are checked for shape
    only: the same-color statement itself needs the oracle.  An edge
    inside a MonoSet is not a shape fault (the claim holds vacuously
    when G[alive] has no 3-coloring); the driver refuses to merge one.
    A Type 1/2 set with a vertex outside G[alive] gets that fault alone.
    """
    bad: list[str] = []

    def inside(v: int) -> bool:
        return v >= 0 and (alive_bits >> v) & 1 == 1

    def check_witness(members: int, side0: int, side1: int):
        if (side0 | side1) != members or (side0 & side1):
            bad.append("witness sides do not partition the set")
        elif spans_edge(G, side0) or spans_edge(G, side1):
            bad.append("witness side contains an edge")

    if isinstance(claim, Type0):
        if claim.u == claim.v:
            bad.append("same-color pair must be two distinct vertices")
        elif not (inside(claim.u) and inside(claim.v)):
            bad.append("same-color pair not in the working graph")
        elif G.has_edge(claim.u, claim.v):
            bad.append("same-color pair is adjacent")
    elif isinstance(claim, MonoSet):
        if claim.members.bit_count() < 2:
            bad.append("monochromatic set needs at least two vertices")
        if claim.members & ~alive_bits:
            bad.append("monochromatic set leaves the working graph")
    elif isinstance(claim, (Type1, Type2)):
        if isinstance(claim, Type2) and not claim.members:
            bad.append("small-neighborhood set is empty")
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
    trace: list | None = None,
    claim_log: ClaimLog | None = None,
) -> tuple[Coloring, DriverStats]:
    """Drive a progress source to a full proper coloring of G."""
    base = G
    alive = (1 << G.n) - 1
    groups: list[tuple[int, ...]] = [(v,) for v in range(G.n)]
    hi, lo = _degree_keys(G, alive)
    batch_color: dict[int, int] = {}
    batch_slots = 0
    fallback_color: dict[int, int] = {}
    defer_stack: list[tuple[tuple[int, ...], int]] = []
    stats = DriverStats()
    phase: dict | None = None
    step = 0

    def emit(mechanism: str, set_size: int = 0, nbhd: int = 0):
        if trace is not None:
            trace.append({
                "step": step,
                "mechanism": mechanism,
                "set_size": set_size,
                "neighborhood_size": nbhd,
                "colors_so_far": batch_slots,
                "graph_size": alive.bit_count(),
            })

    def shift(bits: int, sign: int):
        """Take the vertices of ``bits`` out of the working graph (sign -1)
        or put them back (sign +1), keeping the degree keys exact."""
        nonlocal alive
        alive = alive | bits if sign > 0 else alive & ~bits
        ids = list(iter_bits(bits))
        if len(ids) == 1:  # a deferral, the hot path: one row, scalar index
            ids = ids[0]
            counts = unpack_bits(base.adj_bits(ids), base.n)
        else:
            counts = _row_sums(base, ids)
        move = np.add if sign > 0 else np.subtract
        move(hi, counts, out=hi)
        move(lo, counts, out=lo)
        big = _dead_offset(base.n)
        hi[ids] += sign * big
        lo[ids] -= sign * big

    def close_phase():
        nonlocal phase
        if phase is None:
            return
        if phase["aside"]:
            shift(phase["aside"], +1)
        phase = None

    def alloc_side_slot(ph: dict, which: str) -> int:
        nonlocal batch_slots
        if ph[which] is None:
            ph[which] = batch_slots
            batch_slots += 1
        return ph[which]

    while alive:
        view = DriverView(base, alive, hi, lo, groups)
        action = source(view)
        step += 1

        if action is EXHAUSTED:
            emit("exhausted")
            break

        if isinstance(action, Defer):
            v = action.vertex
            if not (alive >> v) & 1:
                raise UnsoundProgress([f"deferred vertex {v} is not in the working graph"])
            # set-aside neighborhoods are uncolored and will return at
            # phase close, so they count toward the residual degree
            residual = int(hi[v])
            if phase is not None:
                residual += (base.adj_bits(v) & phase["aside"]).bit_count()
            defer_stack.append((groups[v], residual))
            shift(1 << v, -1)
            stats.deferred += 1
            emit("defer", 1)
            continue

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
            if claim_log is not None:
                anchor = 1 << pair_ids[0]
                for other in pair_ids[1:]:
                    log_claim(claim_log, "type0", anchor | 1 << other, base)
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
            groups = new_groups
            alive = new_alive
            hi, lo = _degree_keys(base, alive)
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
            slot = alloc_side_slot(phase, which)
            for v in iter_bits(side_bits):
                for orig in groups[v]:
                    batch_color[orig] = slot
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

    fallback_masks: list[int] = []  # per fallback color, vertices wearing it

    def fallback_pick(group: tuple[int, ...]) -> int:
        adj = 0
        for orig in group:
            adj |= G.adj_bits(orig)
        c = 0
        while c < len(fallback_masks) and adj & fallback_masks[c]:
            c += 1
        if c == len(fallback_masks):
            fallback_masks.append(0)
        for orig in group:
            fallback_color[orig] = c
            fallback_masks[c] |= 1 << orig
        return c

    for v in iter_bits(alive):
        fallback_pick(groups[v])
        stats.fallback_colored += 1
        emit("fallback", 1)

    while defer_stack:
        group, residual = defer_stack.pop()
        picked = fallback_pick(group)
        if picked > residual:
            raise AssertionError(
                f"deferred vertex needed color {picked} beyond residual degree {residual}"
            )
        stats.fallback_colored += 1

    fallback_span = max(fallback_color.values(), default=-1) + 1
    final: list[int | None] = [None] * G.n
    for orig, c in fallback_color.items():
        final[orig] = c
    for orig, slot in batch_color.items():
        final[orig] = fallback_span + slot
    palette = fallback_span + batch_slots
    coloring = Coloring(tuple(final), palette)
    ok, edge = is_proper_coloring(G, coloring)
    if not ok:
        raise AssertionError(f"driver produced an improper coloring at edge {edge}")
    return coloring, stats
