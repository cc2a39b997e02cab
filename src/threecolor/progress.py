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

from dataclasses import dataclass, field
from typing import Callable, Iterable, Union

import numpy as np

from .graph import (
    Coloring,
    Graph,
    VertexSet,
    degrees_into,
    is_proper_coloring,
    iter_bits,
    pack_rows,
    packed_graph,
    spans_edge,
    union_neighborhoods,
    unpack_bits,
    unpack_rows,
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
    members: VertexSet
    side0: VertexSet
    side1: VertexSet


@dataclass(frozen=True)
class Type2:
    members: VertexSet
    side0: VertexSet
    side1: VertexSet
    neighborhood: VertexSet


@dataclass(frozen=True)
class MonoSet:
    members: VertexSet


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
    provenance: str = ""


ClaimLog = list


def log_claim(log, kind: str, vertices: Iterable[int], graph: Graph,
              conditional: tuple[int, int] | None = None, provenance: str = "") -> None:
    if log is not None:
        log.append(Claim(kind, tuple(vertices), graph, conditional, provenance))


def type1_threshold(n: int, k: float, c1: float = 1.0) -> int:
    """Size floor for a large 2-colorable set: ceil(c1 * n / k)."""
    import math

    if k < 1:
        raise ValueError("k must be at least 1")
    return math.ceil(c1 * n / k)


@dataclass
class DriverStats:
    colors_used: int = 0
    contractions: int = 0
    type1_batches: int = 0
    type2_batches: int = 0
    deferred: int = 0
    phases: int = 0
    fallback_colored: int = 0
    graph_sizes: list = field(default_factory=list)


def merge_vertex_set(G: Graph, members: VertexSet) -> tuple[Graph, tuple[int, ...]]:
    """Merge a pairwise non-adjacent vertex set into its lowest member.

    Equivalent to repeated pairwise contraction; done in one rebuild.
    Returns the new graph and the old->new vertex map.
    """
    ids = members.to_list()
    if len(ids) < 2:
        raise ValueError("need at least two vertices to merge")
    lo = ids[0]
    drop = set(ids[1:])
    keep = [v for v in range(G.n) if v not in drop]
    new_id = {old: i for i, old in enumerate(keep)}
    rows = unpack_rows([G.adj_bits(v) for v in range(G.n)], G.n).astype(bool)
    merged_row = rows[ids].any(axis=0)
    rows[lo] = merged_row
    rows[:, lo] = rows[:, ids].any(axis=1)
    rows[lo, lo] = False
    sub = rows[np.ix_(keep, keep)]
    adj = pack_rows(sub)
    m = sum(a.bit_count() for a in adj) // 2
    mapping = tuple(new_id[lo] if v in drop else new_id[v] for v in range(G.n))
    return Graph(len(keep), adj, m), mapping


def induced_subgraph(G: Graph, alive_bits: int) -> tuple[Graph, list[int]]:
    """Materialize G[alive] on dense ids; returns (subgraph, new->old map)."""
    keep = list(iter_bits(alive_bits))
    if not keep:
        return Graph(0, [], 0), []
    rows = unpack_rows([G.adj_bits(v) for v in keep], G.n)
    return packed_graph(rows[:, keep]), keep


class DriverView:
    """Read-only window onto the driver's working graph.

    Vertices are ids of ``base``; only those in ``alive`` exist.  The
    degree array counts alive neighbors only and is kept incrementally
    by the driver.  ``groups`` maps each base vertex to the original
    vertex ids it represents after contractions.
    """

    def __init__(self, base: Graph, alive_bits: int, deg: np.ndarray,
                 groups: list[tuple[int, ...]] | None = None):
        self.base = base
        self.alive_bits = alive_bits
        self._deg = deg
        self._alive_row = unpack_bits(alive_bits, base.n).astype(bool)
        self.groups = groups if groups is not None else [
            (v,) for v in range(base.n)
        ]

    @property
    def n_alive(self) -> int:
        return self.alive_bits.bit_count()

    def degree(self, v: int) -> int:
        return int(self._deg[v])

    def neighbors_bits(self, v: int) -> int:
        return self.base.adj_bits(v) & self.alive_bits

    def min_degree_vertex(self) -> tuple[int, int]:
        if not self.alive_bits:
            return -1, 0
        masked = np.where(self._alive_row, self._deg, self.base.n + 1)
        v = int(np.argmin(masked))
        return v, int(self._deg[v])

    def max_degree_vertex(self) -> tuple[int, int]:
        if not self.alive_bits:
            return -1, -1
        masked = np.where(self._alive_row, self._deg, -1)
        v = int(np.argmax(masked))
        return v, int(self._deg[v])

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
    """
    bad: list[str] = []

    def inside(v: int) -> bool:
        return v >= 0 and (alive_bits >> v) & 1 == 1

    def check_witness(members: VertexSet, side0: VertexSet, side1: VertexSet):
        if (side0.bits | side1.bits) != members.bits or (side0.bits & side1.bits):
            bad.append("witness sides do not partition the set")
        elif spans_edge(G, side0.bits) or spans_edge(G, side1.bits):
            bad.append("witness side contains an edge")

    if isinstance(claim, Type0):
        if claim.u == claim.v:
            bad.append("same-color pair must be two distinct vertices")
        elif not (inside(claim.u) and inside(claim.v)):
            bad.append("same-color pair not in the working graph")
        elif G.has_edge(claim.u, claim.v):
            bad.append("same-color pair is adjacent")
    elif isinstance(claim, MonoSet):
        bits = claim.members.bits
        if bits.bit_count() < 2:
            bad.append("monochromatic set needs at least two vertices")
        if bits & ~alive_bits:
            bad.append("monochromatic set leaves the working graph")
    elif isinstance(claim, (Type1, Type2)):
        if isinstance(claim, Type2) and not claim.members:
            bad.append("small-neighborhood set is empty")
        if claim.members.bits & ~alive_bits:
            bad.append("set leaves the working graph")
        check_witness(claim.members, claim.side0, claim.side1)
        if isinstance(claim, Type1):
            floor = type1_threshold(alive_bits.bit_count(), k, c1)
            if len(claim.members) < floor:
                bad.append(
                    f"set of size {len(claim.members)} below threshold {floor}"
                )
        else:
            want = union_neighborhoods(G, claim.members.bits) & alive_bits
            if claim.neighborhood.bits != want & ~claim.members.bits:
                bad.append("declared neighborhood does not match the working graph")
            if len(claim.neighborhood) > c2 * k * max(len(claim.members), 1):
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
    deg = np.array([G.degree(v) for v in range(G.n)], dtype=np.int64)
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

    def remove_bits(bits: int):
        nonlocal alive
        alive &= ~bits
        for v in iter_bits(bits):
            deg[:] -= unpack_bits(base.adj_bits(v) & alive, base.n)
            deg[v] = 0

    def close_phase():
        nonlocal phase, alive
        if phase is None:
            return
        aside = phase["aside"]
        if aside:
            for v in iter_bits(aside):
                deg[:] += unpack_bits(base.adj_bits(v) & alive, base.n)
            alive |= aside
            ids, degrees = degrees_into(base, aside, alive)
            deg[ids] = degrees
        phase = None

    def alloc_side_slot(ph: dict, which: str) -> int:
        nonlocal batch_slots
        if ph[which] is None:
            ph[which] = batch_slots
            batch_slots += 1
        return ph[which]

    while alive:
        stats.graph_sizes.append(alive.bit_count())
        view = DriverView(base, alive, deg, groups)
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
            residual = int(deg[v])
            if phase is not None:
                residual += (base.adj_bits(v) & phase["aside"]).bit_count()
            defer_stack.append((groups[v], residual))
            remove_bits(1 << v)
            stats.deferred += 1
            emit("defer", 1)
            continue

        violations = validate_progress(base, alive, action, k, c1, c2)
        if isinstance(action, MonoSet) and spans_edge(base, action.members.bits):
            violations.append("monochromatic set contains an edge")
        if violations:
            raise UnsoundProgress(violations)

        if isinstance(action, (Type0, MonoSet)):
            if isinstance(action, Type0):
                members_bits = (1 << action.u) | (1 << action.v)
            else:
                members_bits = action.members.bits
            pair_ids = list(iter_bits(members_bits))
            if claim_log is not None:
                anchor = pair_ids[0]
                for other in pair_ids[1:]:
                    log_claim(claim_log, "type0", (anchor, other), base,
                              provenance="driver-merge")
            close_phase()
            new_base, mapping = merge_vertex_set(base, VertexSet(base.n, members_bits))
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
            deg = np.zeros(base.n, dtype=np.int64)
            ids, degrees = degrees_into(base, alive, alive)
            deg[ids] = degrees
            stats.contractions += len(pair_ids) - 1
            emit("contract", len(pair_ids))
            continue

        # Type 1 / Type 2: extract under the current phase's color pair.
        members = action.members.bits
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
        for side_bits, which in ((action.side0.bits, "slot0"), (action.side1.bits, "slot1")):
            if not side_bits:
                continue
            slot = alloc_side_slot(phase, which)
            for v in iter_bits(side_bits):
                for orig in groups[v]:
                    batch_color[orig] = slot
        nbhd = reach & alive & ~members
        remove_bits(members | nbhd)
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
    stats.colors_used = palette
    return coloring, stats
