"""Exhaustive ground truth for coloring claims on small graphs.

``enumerate_3colorings`` walks every proper 3-coloring by pruned
backtracking with canonical-color symmetry reduction: colors must appear
in first-use order, so each orbit of the color permutation group is
visited once and counts are restored by the orbit size (3 for
single-color colorings, 6 otherwise).  The representatives are kept as
color bit-planes, an int per vertex and color with bit r set when the
r-th representative gives the vertex that color, and each query is a few
int operations over them: how many colors do a set's members take.  That
count, and the conditional "t and r0 differ" that filters the
representatives, are invariant under color permutation, so the reduced
walk answers exactly.  Every claim checked is a bound on it for one set.

Consecutive calls on one graph object share one walk: its planes are
kept until a call on another graph replaces them.  ``CHUNK_BYTES`` bounds
the memory: the walk turns its rows of colors into planes in chunks of
at most that size, and keeps its planes (3 n / 8 bytes a row) only when
they fit in that size too.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Callable

import numpy as np

from .graph import (
    Graph, OddCycle, bipartition, bits_of, iter_bits, union_neighborhoods,
)
from .progress import (
    Claim, MonoSet, Progress, Type0, Type1, Type2, validate_progress,
)

# bytes of representative rows (a byte per vertex) in a chunk, and of kept planes
CHUNK_BYTES = 1 << 20

# The largest graph any cap admits: the walk recurses once per vertex, so
# this stays well below Python's default recursion limit of 1000.
MAX_CAP = 64

# The most calls of the walk's recursive step one enumeration may make;
# past it the walk raises TooLarge.  MAX_CAP bounds the depth, not the
# number of leaves: an edgeless 25-vertex graph has about 4.7e10.  An
# edgeless graph, where every leaf is a coloring, reaches this bound in
# about 5 s (2 vCPU, Python 3.11.7).  The largest walks seen: 23,425
# calls in the test suite, 7,356 on oracle-sweep-like graphs (n = 24,
# p = 0.35) and 3,766,503 on planted n = 25, p = 0.2 graphs (seeds 0-59).
MAX_NODES = 1 << 22

# planes[c][v] has bit r set when representative r gives vertex v color c
# (c < 3); planes[3] masks the single-color representatives and all of them
Planes = list[list[int]]

# (graph, planes) of the last walk whose planes fit in CHUNK_BYTES.  Graphs
# are immutable and the strong reference keeps the id from being reused,
# so identity is a sound key; the pair is replaced as one tuple.
_last_walk: tuple[Graph, Planes] | None = None


class TooLarge(ValueError):
    pass


@dataclass
class ColoringSummary:
    count_3colorings: int
    colorable: bool
    set_min_colors: dict[tuple[int, ...], int] = field(default_factory=dict)
    set_max_colors: dict[tuple[int, ...], int] = field(default_factory=dict)
    conditional: tuple[int, int] | None = None
    reps_seen: int = 0


def _search_order(G: Graph) -> list[int]:
    """Deterministic order: BFS per component from the max-degree vertex
    (ties to the lower id), each vertex's unseen neighbors queued in
    ascending id order."""
    adj = G.adj_rows
    degrees = [row.bit_count() for row in adj]
    # a stable sort keeps the ascending ids of equal degrees, reversed too
    starts = sorted(range(G.n), key=degrees.__getitem__, reverse=True)
    order: list[int] = []  # the BFS queue: its head is order[head]
    seen = head = 0
    for start in starts:
        if (seen >> start) & 1:
            continue
        seen |= 1 << start
        order.append(start)
        while head < len(order):
            fresh = adj[order[head]] & ~seen
            head += 1
            if fresh:
                seen |= fresh
                order.extend(iter_bits(fresh))
    return order


def _planes(reps: np.ndarray) -> Planes:
    """The planes of a nonempty block of representative rows."""
    n, size = reps.shape[1], (len(reps) + 7) // 8
    colors = np.arange(3, dtype=np.uint8)[:, None, None]
    # (3, n, size) bytes: per color and vertex, the bits of its rows
    data = np.packbits(np.ascontiguousarray(reps.T) == colors, axis=2, bitorder="little").tobytes()
    ints = [int.from_bytes(data[i:i + size], "little") for i in range(0, 3 * n * size, size)]
    # canonical colors: a single-color row is all 0
    single = int.from_bytes(np.packbits(~reps.any(axis=1), bitorder="little").tobytes(), "little")
    return [ints[:n], ints[n:2 * n], ints[2 * n:], [single, (1 << len(reps)) - 1]]


def _walk(G: Graph, fold: Callable[[Planes], None]) -> Planes | None:
    """Hand every representative 3-coloring of G (n >= 1) to ``fold``, as
    the planes of blocks of at most CHUNK_BYTES of rows of one byte per
    vertex.  Returns the planes of the whole walk if they fit in
    CHUNK_BYTES; raises TooLarge once the walk passes MAX_NODES calls."""
    n = G.n
    order = _search_order(G)
    adjs = [G.adj_bits(v) for v in order]
    per_chunk = max(1, CHUNK_BYTES // n)
    colors = [0] * n
    classes = [0, 0, 0]  # the vertices placed so far, by color
    rows: list[bytes] = []
    kept: Planes | None = [[0] * n for _ in range(3)] + [[0, 0]]  # no rows yet
    seen = nodes = 0

    def flush() -> None:
        nonlocal kept, seen
        block = _planes(np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(len(rows), n))
        fold(block)
        if 3 * n * (seen + len(rows)) > 8 * CHUNK_BYTES:
            kept = None
        else:  # the earlier blocks fit too, so kept holds them
            kept = [[a | b << seen for a, b in zip(old, new)] for old, new in zip(kept, block)]
        seen += len(rows)
        rows.clear()

    def walk(i: int, introduced: int) -> None:
        nonlocal nodes
        nodes += 1
        if nodes > MAX_NODES:
            raise TooLarge(f"the enumeration passed {MAX_NODES} search nodes "
                           f"on the {n}-vertex graph")
        if i == n:
            rows.append(bytes(colors))
            if len(rows) == per_chunk:
                flush()
            return
        v, bit = order[i], 1 << order[i]
        for c in range(min(introduced, 2) + 1):
            if not classes[c] & adjs[i]:
                colors[v] = c
                classes[c] |= bit
                walk(i + 1, introduced if c < introduced else c + 1)
                classes[c] ^= bit

    walk(0, 0)
    if rows:
        flush()
    return kept


def enumerate_3colorings(
    G: Graph,
    sets: tuple[tuple[int, ...], ...] = (),
    conditional: tuple[int, int] | None = None,
    cap: int = 25,
) -> ColoringSummary:
    """Exact answers over all proper 3-colorings of G (n <= min(cap, MAX_CAP)).

    ``sets`` are queried for the minimum and maximum number of distinct
    colors they receive.  With a ``conditional`` (t, r0), only colorings
    giving t and r0 different colors are considered; t == r0 makes the
    class empty.  A call on the graph object of the previous call reuses
    that call's walk.  Raises TooLarge above the cap, or when the walk
    passes MAX_NODES calls.
    """
    global _last_walk
    n = G.n
    if n > min(cap, MAX_CAP):
        raise TooLarge(f"n = {n} exceeds the enumeration cap {min(cap, MAX_CAP)}")
    sets = tuple(tuple(sorted(set(s))) for s in sets)
    for v in chain(conditional or (), *sets):
        if not 0 <= v < n:
            raise KeyError(v)

    summary = ColoringSummary(0, False, conditional=conditional)
    spans = [[4, 0] for _ in sets]  # fewest and most colors of each set
    empty_class = conditional is not None and conditional[0] == conditional[1]
    if n == 0 and not empty_class:
        summary.count_3colorings = summary.reps_seen = 1
        spans = [[0, 0] for _ in sets]  # every set of the empty graph is empty
    elif not empty_class:
        def fold(planes: Planes) -> None:
            p0, p1, p2, (single, valid) = planes
            if conditional is not None:
                t, r0 = conditional
                valid &= ~(p0[t] & p0[r0] | p1[t] & p1[r0] | p2[t] & p2[r0])
            if not valid:
                return
            reps = valid.bit_count()
            summary.reps_seen += reps
            summary.count_3colorings += 6 * reps - 3 * (valid & single).bit_count()
            for span, members in zip(spans, sets):
                # the valid representatives where some member takes color 0, 1, 2
                a = b = c = 0
                for v in members:
                    a, b, c = a | p0[v], b | p1[v], c | p2[v]
                a, b, c = a & valid, b & valid, c & valid
                some, two, three = a | b | c, a & b | a & c | b & c, a & b & c  # >= 1, 2, 3 colors
                fewest = 0 if valid & ~some else 1 if some & ~two else 2 if two & ~three else 3
                most = 3 if three else 2 if two else 1 if some else 0
                span[:] = min(span[0], fewest), max(span[1], most)

        last = _last_walk
        if last is not None and last[0] is G:
            fold(last[1])
        else:
            planes = _walk(G, fold)
            _last_walk = None if planes is None else (G, planes)

    summary.colorable = colorable = summary.count_3colorings > 0
    for st, (fewest, most) in zip(sets, spans):
        summary.set_min_colors[st] = fewest if colorable else 0
        summary.set_max_colors[st] = most if colorable else 0
    return summary


@dataclass
class Verdict:
    verified: bool
    reasons: list[str] = field(default_factory=list)


def verify_progress_claim(
    G: Graph,
    claim: Progress,
    k: float,
    *,
    c1: float = 1.0,
    c2: float = 1.0,
    cap: int = 25,
) -> Verdict:
    """Verify a progress claim from scratch.

    Every claim first passes the driver's structural check with all of G
    alive, which settles large-set and small-neighborhood claims with no
    size limit.  Same-color pairs and monochromatic sets then go to
    ``verify_logged_claim`` as type0 and mono claims on G.
    """
    reasons = validate_progress(G, (1 << G.n) - 1, claim, k, c1, c2)
    if reasons:
        return Verdict(False, reasons)
    if isinstance(claim, Type0):
        return verify_logged_claim(Claim("type0", (claim.u, claim.v), G), cap)
    if isinstance(claim, MonoSet):
        return verify_logged_claim(Claim("mono", tuple(iter_bits(claim.members)), G), cap)
    return Verdict(True)


def verify_logged_claim(claim: Claim, cap: int = 25) -> Verdict:
    """Verify a guarantee recorded during a run against its own graph.

    Each kind bounds the colors ``claim.vertices`` take over the
    3-colorings of the claim's graph that give ``claim.conditional``, when
    set, two colors: multi at least two, type0, mono and mono_if_differ
    (which needs the conditional) at most one.  One enumeration answers
    it, and a graph without such a coloring verifies every claim.
    """
    kind, cond = claim.kind, claim.conditional
    if kind not in ("type0", "multi", "mono", "mono_if_differ"):
        return Verdict(False, [f"unknown logged claim kind {kind!r}"])
    if kind == "mono_if_differ" and cond is None:
        return Verdict(False, ["conditional pair missing"])
    summary = enumerate_3colorings(claim.graph, sets=(claim.vertices,),
                                   conditional=cond, cap=cap)
    [fewest], [most] = summary.set_min_colors.values(), summary.set_max_colors.values()
    where = "some 3-coloring" if cond is None else "a coloring where the pair differs"
    if not summary.colorable or (fewest >= 2 if kind == "multi" else most <= 1):
        return Verdict(True)
    if kind == "multi":
        return Verdict(False, [f"set is monochromatic in {where}"])
    if kind == "type0":
        status = "none" if fewest == 2 else "some"
        scope = "" if cond is None else ", among those where the conditional pair differs"
        return Verdict(False, [f"pair is same-colored in {status} colorings only{scope}"])
    return Verdict(False, [f"set is multichromatic in {where}"])


def _vertex_ids(G: Graph, value, name: str, pair: bool = False) -> tuple[int, ...]:
    """The vertex ids of a claims-file field: a nonempty list (two long for
    a ``pair``) of ints, not bools, in 0..n-1; raises ValueError naming
    the first bad id."""
    if not isinstance(value, list) or not value or pair and len(value) != 2:
        raise ValueError(f"{name} must be {'two' if pair else 'a nonempty list of'} vertex ids")
    for v in value:
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValueError(f"{name} holds {v!r}, which is not an integer vertex id")
        if not 0 <= v < G.n:
            raise ValueError(f"{name} holds {v}, which is not a vertex of the "
                             f"{G.n}-vertex graph")
    return tuple(value)


def verify_claim_dict(G: Graph, entry: dict, k: float | None,
                      cap: int = 25) -> Verdict:
    """Verify one claims-file entry against a graph.

    Entries are JSON objects carrying a ``type`` of type0 | type1 |
    type2 | mono | multi, with ``pair`` (two vertex ids) for type0 and
    ``vertices`` otherwise; mono and multi accept an optional
    ``conditional`` pair.  Large-set and small-neighborhood claims need
    the color target ``k``.  Any malformed entry is rejected.
    """
    if not isinstance(entry, dict):
        return Verdict(False, ["malformed claim: entry is not a JSON object"])
    kind = entry.get("type")
    try:
        if kind == "type0":
            u, v = _vertex_ids(G, entry.get("pair"), "pair", pair=True)
            return verify_progress_claim(G, Type0(u, v), k or 1.0, cap=cap)
        if kind in ("type1", "type2"):
            if k is None:
                return Verdict(False, ["color target k required for this claim"])
            vertices = _vertex_ids(G, entry.get("vertices"), "vertices")
            members = bits_of(np.array(vertices), G.n)
            split = bipartition(G, members)
            if isinstance(split, OddCycle):
                return Verdict(False, ["set is not 2-colorable"])
            if kind == "type1":
                claim: Progress = Type1(members, split.side0, split.side1)
            else:
                nbhd = union_neighborhoods(G, members) & ~members
                claim = Type2(members, split.side0, split.side1, nbhd)
            return verify_progress_claim(G, claim, k, cap=cap)
        if kind in ("mono", "multi"):
            vertices = _vertex_ids(G, entry.get("vertices"), "vertices")
            conditional = entry.get("conditional")
            cond = (None if conditional is None
                    else _vertex_ids(G, conditional, "conditional", pair=True))
            return verify_logged_claim(Claim(kind, vertices, G, cond), cap=cap)
        return Verdict(False, [f"unknown claim type {kind!r}"])
    except TooLarge as exc:
        return Verdict(False, [str(exc)])
    except (KeyError, ValueError, TypeError) as exc:
        return Verdict(False, [f"malformed claim: {exc}"])
