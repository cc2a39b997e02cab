"""Exhaustive ground truth for coloring claims on small graphs.

``enumerate_3colorings`` walks every proper 3-coloring by pruned
backtracking with canonical-color symmetry reduction: colors must appear
in first-use order, so each orbit of the color permutation group is
visited once and counts are restored by the orbit size (3 for
single-color colorings, 6 otherwise).  Equality queries and per-set
color multiplicities are invariant under color permutation, so the
reduced walk answers them exactly.  An optional conditional restricts
the walk to colorings where two chosen vertices differ; the filter is
applied during the walk, as soon as the later of the two is assigned.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .graph import Graph, VertexSet, iter_bits, union_neighborhoods
from .progress import (
    Claim,
    MonoSet,
    Progress,
    Type0,
    Type1,
    Type2,
    validate_progress,
)

SAME_IN_ALL = "all"
SAME_IN_SOME = "some"
SAME_IN_NONE = "none"
NO_COLORINGS = "no_colorings"


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
    remaining = sorted(range(G.n), key=lambda v: (-G.degree(v), v))
    for start in remaining:
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


def enumerate_3colorings(
    G: Graph,
    pairs: tuple[tuple[int, int], ...] = (),
    sets: tuple[tuple[int, ...], ...] = (),
    conditional: tuple[int, int] | None = None,
    cap: int = 25,
) -> ColoringSummary:
    """Exact answers over all proper 3-colorings of G (n <= cap).

    ``pairs`` are queried for same-color status, ``sets`` for the
    minimum and maximum number of distinct colors they receive.  With a
    ``conditional`` (t, r0), only colorings giving t and r0 different
    colors are considered; t == r0 makes the class empty.
    """
    n = G.n
    if n > cap:
        raise TooLarge(f"n = {n} exceeds the enumeration cap {cap}")
    pairs = tuple((min(u, v), max(u, v)) for u, v in pairs)
    sets = tuple(tuple(sorted(set(s))) for s in sets)

    summary = ColoringSummary(0, False, conditional=conditional)
    if conditional is not None and conditional[0] == conditional[1]:
        for pr in pairs:
            summary.pair_status[pr] = NO_COLORINGS
        for st in sets:
            summary.set_min_colors[st] = 0
            summary.set_max_colors[st] = 0
        return summary
    if n == 0:
        summary.count_3colorings = 1
        summary.colorable = True
        summary.reps_seen = 1
        return summary

    order = _search_order(G)
    pos = {v: i for i, v in enumerate(order)}
    preds: list[list[int]] = [[] for _ in range(n)]
    for i, v in enumerate(order):
        for u in iter_bits(G.adj_bits(v)):
            if pos[u] < i:
                preds[i].append(pos[u])

    cond_late = cond_other = -1
    if conditional is not None:
        t, r0 = conditional
        pt, pr = pos[t], pos[r0]
        cond_late, cond_other = max(pt, pr), min(pt, pr)

    pair_pos = [(pos[u], pos[v]) for u, v in pairs]
    set_pos = [[pos[v] for v in st] for st in sets]
    pair_same = [False] * len(pairs)
    pair_diff = [False] * len(pairs)
    set_min = [4] * len(sets)
    set_max = [0] * len(sets)

    colors = [0] * n
    state = {"count": 0, "reps": 0}

    def leaf(introduced: int) -> None:
        state["reps"] += 1
        state["count"] += 3 if introduced == 1 else 6
        for idx, (a, b) in enumerate(pair_pos):
            if colors[a] == colors[b]:
                pair_same[idx] = True
            else:
                pair_diff[idx] = True
        for idx, positions in enumerate(set_pos):
            used = 0
            for q in positions:
                used |= 1 << colors[q]
            mult = used.bit_count()
            set_min[idx] = min(set_min[idx], mult)
            set_max[idx] = max(set_max[idx], mult)

    def walk(i: int, introduced: int) -> None:
        if i == n:
            leaf(introduced)
            return
        banned = 0
        for q in preds[i]:
            banned |= 1 << colors[q]
        limit = introduced if introduced < 2 else 2
        for c in range(limit + 1):
            if (banned >> c) & 1:
                continue
            if i == cond_late and c == colors[cond_other]:
                continue
            colors[i] = c
            walk(i + 1, introduced if c < introduced else c + 1)

    walk(0, 0)

    summary.count_3colorings = state["count"]
    summary.colorable = state["count"] > 0
    summary.reps_seen = state["reps"]
    for idx, pr in enumerate(pairs):
        if not summary.colorable:
            summary.pair_status[pr] = NO_COLORINGS
        elif pair_same[idx] and not pair_diff[idx]:
            summary.pair_status[pr] = SAME_IN_ALL
        elif pair_same[idx]:
            summary.pair_status[pr] = SAME_IN_SOME
        else:
            summary.pair_status[pr] = SAME_IN_NONE
    for idx, st in enumerate(sets):
        if not summary.colorable:
            summary.set_min_colors[st] = 0
            summary.set_max_colors[st] = 0
        else:
            summary.set_min_colors[st] = set_min[idx]
            summary.set_max_colors[st] = set_max[idx]
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
    size limit.  Same-color pairs and monochromatic sets then go through
    exhaustive enumeration (subject to the size cap).
    """
    reasons = validate_progress(G, (1 << G.n) - 1, claim, k, c1, c2)
    if reasons:
        return Verdict(False, reasons)
    if isinstance(claim, Type0):
        summary = enumerate_3colorings(G, pairs=((claim.u, claim.v),), cap=cap)
        status = summary.pair_status[(min(claim.u, claim.v), max(claim.u, claim.v))]
        if status not in (SAME_IN_ALL, NO_COLORINGS):
            reasons.append(f"pair is same-colored in {status} colorings only")
    elif isinstance(claim, MonoSet):
        members = tuple(claim.members)
        summary = enumerate_3colorings(G, sets=(members,), cap=cap)
        if summary.colorable and summary.set_max_colors[members] > 1:
            reasons.append("set takes two colors in some 3-coloring")
    return Verdict(not reasons, reasons)


def verify_logged_claim(claim: Claim, cap: int = 25) -> Verdict:
    """Verify a guarantee recorded during a run against its own graph."""
    G = claim.graph
    reasons: list[str] = []
    if claim.kind == "multi":
        summary = enumerate_3colorings(G, sets=(claim.vertices,), cap=cap)
        key = tuple(sorted(set(claim.vertices)))
        if summary.colorable and summary.set_min_colors[key] < 2:
            reasons.append("set is monochromatic in some 3-coloring")
    elif claim.kind == "mono":
        summary = enumerate_3colorings(G, sets=(claim.vertices,), cap=cap)
        key = tuple(sorted(set(claim.vertices)))
        if summary.colorable and summary.set_max_colors[key] > 1:
            reasons.append("set is multichromatic in some 3-coloring")
    elif claim.kind == "mono_if_differ":
        if claim.conditional is None:
            reasons.append("conditional pair missing")
        else:
            summary = enumerate_3colorings(
                G, sets=(claim.vertices,), conditional=claim.conditional, cap=cap
            )
            key = tuple(sorted(set(claim.vertices)))
            if summary.colorable and summary.set_max_colors[key] > 1:
                reasons.append(
                    "set is multichromatic in a coloring where the pair differs"
                )
    elif claim.kind == "type0":
        u, v = claim.vertices
        summary = enumerate_3colorings(G, pairs=((u, v),), cap=cap)
        status = summary.pair_status[(min(u, v), max(u, v))]
        if status not in (SAME_IN_ALL, NO_COLORINGS):
            reasons.append(f"pair is same-colored in {status} colorings only")
    else:
        reasons.append(f"unknown logged claim kind {claim.kind!r}")
    return Verdict(not reasons, reasons)


def _two_ids(value, name: str) -> tuple[int, int]:
    if (not isinstance(value, list) or len(value) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in value)):
        raise ValueError(f"{name} must be two vertex ids")
    return value[0], value[1]


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
            u, v = _two_ids(entry["pair"], "pair")
            return verify_progress_claim(G, Type0(u, v), k or 1.0, cap=cap)
        if kind in ("type1", "type2"):
            if k is None:
                return Verdict(False, ["color target k required for this claim"])
            members = VertexSet.from_iterable(G.n, entry["vertices"])
            from .graph import OddCycle, bipartition

            split = bipartition(G, members)
            if isinstance(split, OddCycle):
                return Verdict(False, ["set is not 2-colorable"])
            if kind == "type1":
                claim: Progress = Type1(members, split.side0, split.side1)
            else:
                nbhd = VertexSet(
                    G.n, union_neighborhoods(G, members.bits) & ~members.bits
                )
                claim = Type2(members, split.side0, split.side1, nbhd)
            return verify_progress_claim(G, claim, k, cap=cap)
        if kind in ("mono", "multi"):
            vertices = tuple(entry["vertices"])
            conditional = entry.get("conditional")
            cond = None if conditional is None else _two_ids(conditional, "conditional")
            if kind == "mono":
                logged = Claim("mono_if_differ" if cond else "mono",
                               vertices, G, cond)
            else:
                if cond:
                    summary = enumerate_3colorings(
                        G, sets=(vertices,), conditional=cond, cap=cap
                    )
                    key = tuple(sorted(set(vertices)))
                    ok = (not summary.colorable) or summary.set_min_colors[key] >= 2
                    return Verdict(
                        ok, [] if ok else ["set monochromatic under the conditional"]
                    )
                logged = Claim("multi", vertices, G)
            return verify_logged_claim(logged, cap=cap)
        return Verdict(False, [f"unknown claim type {kind!r}"])
    except TooLarge as exc:
        return Verdict(False, [str(exc)])
    except (KeyError, ValueError, TypeError) as exc:
        return Verdict(False, [f"malformed claim: {exc}"])
