"""Exhaustive ground truth for coloring claims on small graphs.

``enumerate_3colorings`` walks every proper 3-coloring by pruned
backtracking with canonical-color symmetry reduction: colors must appear
in first-use order, so each orbit of the color permutation group is
visited once and counts are restored by the orbit size (3 for
single-color colorings, 6 otherwise).  The representatives are kept as
rows of colors, and each query is one vectorized test over them: are two
columns equal, how many colors do a set's columns take.  Both answers,
and the conditional "t and r0 differ" that filters the rows, are
invariant under color permutation, so the reduced walk answers exactly.

Consecutive calls on one graph object share one walk: its rows are kept
until a call on another graph replaces them.  ``CHUNK_BYTES`` bounds the
memory: the walk hands its rows to the answers in chunks of at most that
size, and a walk that fills more than one chunk is not kept.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .graph import (
    Graph, OddCycle, bipartition, bits_of, iter_bits, union_neighborhoods,
)
from .progress import (
    Claim, MonoSet, Progress, Type0, Type1, Type2, validate_progress,
)

SAME_IN_ALL = "all"
SAME_IN_SOME = "some"
SAME_IN_NONE = "none"
NO_COLORINGS = "no_colorings"

# bytes of representative colorings, one byte per vertex, in one chunk
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

# (graph, rows) of the last walk that fit in one chunk.  Graphs are
# immutable and the strong reference keeps the id from being reused, so
# identity is a sound key; the pair is replaced as one tuple.
_last_walk: tuple[Graph, np.ndarray] | None = None


class TooLarge(ValueError):
    pass


@dataclass
class ColoringSummary:
    count_3colorings: int
    colorable: bool
    pair_status: dict[tuple[int, int], str] = field(default_factory=dict)
    set_min_colors: dict[tuple[int, ...], int] = field(default_factory=dict)
    set_max_colors: dict[tuple[int, ...], int] = field(default_factory=dict)
    conditional: tuple[int, int] | None = None
    reps_seen: int = 0


def _search_order(G: Graph) -> list[int]:
    """Deterministic order: BFS per component from the max-degree vertex."""
    seen = [False] * G.n
    order: list[int] = []
    for start in sorted(range(G.n), key=lambda v: (-G.degree(v), v)):
        if seen[start]:
            continue
        seen[start] = True
        queue = deque([start])
        while queue:
            v = queue.popleft()
            order.append(v)
            for u in iter_bits(G.adj_bits(v)):
                if not seen[u]:
                    seen[u] = True
                    queue.append(u)
    return order


def _walk(G: Graph, fold: Callable[[np.ndarray], None]) -> np.ndarray | None:
    """Hand every representative 3-coloring of G (n >= 1) to ``fold``, as
    the rows of read-only uint8 arrays in vertex order of at most
    CHUNK_BYTES each.  Returns the rows if they all fit in one chunk;
    raises TooLarge once the walk passes MAX_NODES calls."""
    n = G.n
    order = _search_order(G)
    adjs = [G.adj_bits(v) for v in order]
    per_chunk = max(1, CHUNK_BYTES // n)
    colors = [0] * n
    classes = [0, 0, 0]  # the vertices placed so far, by color
    rows: list[bytes] = []
    spilled = False
    nodes = 0

    def flush() -> np.ndarray:
        reps = np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(len(rows), n)
        rows.clear()
        fold(reps)
        return reps

    def walk(i: int, introduced: int) -> None:
        nonlocal spilled, nodes
        nodes += 1
        if nodes > MAX_NODES:
            raise TooLarge(f"the enumeration passed {MAX_NODES} search nodes "
                           f"on the {n}-vertex graph")
        if i == n:
            rows.append(bytes(colors))
            if len(rows) == per_chunk:
                flush()
                spilled = True
            return
        v, bit = order[i], 1 << order[i]
        for c in range(min(introduced, 2) + 1):
            if not classes[c] & adjs[i]:
                colors[v] = c
                classes[c] |= bit
                walk(i + 1, introduced if c < introduced else c + 1)
                classes[c] ^= bit

    walk(0, 0)
    reps = flush()
    return None if spilled else reps


def enumerate_3colorings(
    G: Graph,
    pairs: tuple[tuple[int, int], ...] = (),
    sets: tuple[tuple[int, ...], ...] = (),
    conditional: tuple[int, int] | None = None,
    cap: int = 25,
) -> ColoringSummary:
    """Exact answers over all proper 3-colorings of G (n <= min(cap, MAX_CAP)).

    ``pairs`` are queried for same-color status, ``sets`` for the
    minimum and maximum number of distinct colors they receive.  With a
    ``conditional`` (t, r0), only colorings giving t and r0 different
    colors are considered; t == r0 makes the class empty.  A call on the
    graph object of the previous call reuses that call's walk.  Raises
    TooLarge above the cap, or when the walk passes MAX_NODES calls.
    """
    global _last_walk
    n = G.n
    if n > min(cap, MAX_CAP):
        raise TooLarge(f"n = {n} exceeds the enumeration cap {min(cap, MAX_CAP)}")
    pairs = tuple((min(u, v), max(u, v)) for u, v in pairs)
    sets = tuple(tuple(sorted(set(s))) for s in sets)

    summary = ColoringSummary(0, False, conditional=conditional)
    empty_class = conditional is not None and conditional[0] == conditional[1]
    if n == 0 and not empty_class:
        summary.count_3colorings = summary.reps_seen = 1
        summary.colorable = True
        return summary
    # fewest and most colors of each pair, then of each set, over the rows
    spans = [[4, 0] for _ in pairs + sets]
    if not empty_class:
        col = {v: v for v in range(n)}  # KeyError for an id outside the graph
        cond = None if conditional is None else [col[v] for v in conditional]
        queries = [[col[v] for v in q] for q in pairs + sets]

        def fold(reps: np.ndarray) -> None:
            if cond is not None:
                reps = reps[reps[:, cond[0]] != reps[:, cond[1]]]
            if not len(reps):
                return
            # canonical colors: a single-color row is all 0
            single = len(reps) - int(np.count_nonzero(reps.any(axis=1)))
            summary.reps_seen += len(reps)
            summary.count_3colorings += 6 * len(reps) - 3 * single
            for span, cols in zip(spans, queries):
                mult = np.bitwise_count(np.bitwise_or.reduce(1 << reps[:, cols], axis=1))
                span[:] = min(span[0], int(mult.min())), max(span[1], int(mult.max()))

        last = _last_walk
        if last is not None and last[0] is G:
            fold(last[1])
        else:
            reps = _walk(G, fold)
            _last_walk = None if reps is None else (G, reps)

    summary.colorable = colorable = summary.count_3colorings > 0
    for pr, (fewest, most) in zip(pairs, spans):
        if not colorable:
            summary.pair_status[pr] = NO_COLORINGS
        elif fewest == 2:
            summary.pair_status[pr] = SAME_IN_NONE
        else:
            summary.pair_status[pr] = SAME_IN_ALL if most == 1 else SAME_IN_SOME
    for st, (fewest, most) in zip(sets, spans[len(pairs):]):
        summary.set_min_colors[st] = fewest if colorable else 0
        summary.set_max_colors[st] = most if colorable else 0
    return summary


@dataclass
class Verdict:
    verified: bool
    reasons: list[str] = field(default_factory=list)


def _pair_reasons(G: Graph, u: int, v: int, cap: int) -> list[str]:
    """Why u and v do not share a color in every 3-coloring of G, if so."""
    summary = enumerate_3colorings(G, pairs=((u, v),), cap=cap)
    status = summary.pair_status[(min(u, v), max(u, v))]
    if status in (SAME_IN_ALL, NO_COLORINGS):
        return []
    return [f"pair is same-colored in {status} colorings only"]


def _set_colors(G: Graph, vertices, cap: int,
                conditional: tuple[int, int] | None = None) -> tuple[int, int] | None:
    """Fewest and most colors ``vertices`` take over the 3-colorings of G
    (those giving the conditional pair different colors); None if none."""
    summary = enumerate_3colorings(G, sets=(vertices,), conditional=conditional, cap=cap)
    if not summary.colorable:
        return None
    key = tuple(sorted(set(vertices)))
    return summary.set_min_colors[key], summary.set_max_colors[key]


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
    size limit.  Same-color pairs and monochromatic sets then go through
    exhaustive enumeration (subject to the size cap).
    """
    reasons = validate_progress(G, (1 << G.n) - 1, claim, k, c1, c2)
    if reasons:
        return Verdict(False, reasons)
    if isinstance(claim, Type0):
        reasons = _pair_reasons(G, claim.u, claim.v, cap)
    elif isinstance(claim, MonoSet):
        colors = _set_colors(G, tuple(iter_bits(claim.members)), cap)
        if colors and colors[1] > 1:
            reasons.append("set takes two colors in some 3-coloring")
    return Verdict(not reasons, reasons)


def verify_logged_claim(claim: Claim, cap: int = 25) -> Verdict:
    """Verify a guarantee recorded during a run against its own graph."""
    G, kind = claim.graph, claim.kind
    reasons: list[str] = []
    if kind == "type0":
        u, v = claim.vertices
        reasons = _pair_reasons(G, u, v, cap)
    elif kind == "mono_if_differ" and claim.conditional is None:
        reasons.append("conditional pair missing")
    elif kind in ("multi", "mono", "mono_if_differ"):
        cond = claim.conditional if kind == "mono_if_differ" else None
        colors = _set_colors(G, claim.vertices, cap, cond)
        if colors and kind == "multi" and colors[0] < 2:
            reasons.append("set is monochromatic in some 3-coloring")
        elif colors and kind == "mono" and colors[1] > 1:
            reasons.append("set is multichromatic in some 3-coloring")
        elif colors and kind == "mono_if_differ" and colors[1] > 1:
            reasons.append("set is multichromatic in a coloring where the pair differs")
    else:
        reasons.append(f"unknown logged claim kind {claim.kind!r}")
    return Verdict(not reasons, reasons)


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
            if kind == "mono":
                logged = Claim("mono_if_differ" if cond else "mono",
                               vertices, G, cond)
            elif cond:
                colors = _set_colors(G, vertices, cap, cond)
                ok = colors is None or colors[0] >= 2
                return Verdict(ok, [] if ok else ["set monochromatic under the conditional"])
            else:
                logged = Claim("multi", vertices, G)
            return verify_logged_claim(logged, cap=cap)
        return Verdict(False, [f"unknown claim type {kind!r}"])
    except TooLarge as exc:
        return Verdict(False, [str(exc)])
    except (KeyError, ValueError, TypeError) as exc:
        return Verdict(False, [f"malformed claim: {exc}"])
