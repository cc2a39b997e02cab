"""Cut-or-color search: nested sparse cuts, side cuts, and round audits.

The inner loop repeatedly seeds ``cut_or_color`` at a vertex of high
degree into the current S side.  Each call either finds structural
progress, certifies that S is monochromatic whenever the seed and the
root take different colors, or returns a sparse cut to recurse on.  One
outer round ends when the cut's edge mass gets thin; the best side cut
may then replace the sparse cut before the pair is regularized for the
next round.

Edge-mass quantities used for the inner-loop exit and the round audits
are per-vertex degree sums (the average-degree form of the bounds), so
they stay exact when the two sides of a pair overlap.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from fractions import Fraction

import numpy as np

from .graph import (
    Graph,
    MemberRows,
    bits_of,
    degrees_into,
    descending_order,
    iter_bits,
    union_neighborhoods,
    unpack_bits,
    with_degree_at_least,
)
from .params import Params, default_round_cap, nhat
from .progress import NO_SINK, MonoSet, Progress, Sink, induced_subgraph
from .structure import (
    MultichromaticGuaranteed,
    Not3Colorable,
    RegularPair,
    build_two_level,
    ceil_times,
    multichromatic_test,
    regularize,
)

# The paper's search constants: three fractions of a round's base degree
# delta_T, and the number of roots one search tries.
HIGHDEG_FACTOR = Fraction(1, 4)  # seeds need degree >= delta_T / 4
SIDECUT_FACTOR = Fraction(1, 3)  # side cuts need degree >= delta_T / 3
TERM_FACTOR = Fraction(1, 2)  # inner loop stops below delta_T * |T| / 2
ROOT_RETRIES = 10  # roots tried per search, in decreasing degree order


def thin_mass(mass: int, delta_T: Fraction, size: int) -> bool:
    """mass < delta_T * TERM_FACTOR * size, cross-multiplied."""
    return (mass * delta_T.denominator * TERM_FACTOR.denominator
            < delta_T.numerator * TERM_FACTOR.numerator * size)


@dataclass(frozen=True)
class MonochromaticIfDiffer:
    """S is monochromatic in every 3-coloring where t and r0 differ."""

    members: int
    t: int
    r0: int


@dataclass(frozen=True)
class SparseCut:
    X: int
    Y: int


CutResult = MonochromaticIfDiffer | SparseCut | Progress


@dataclass(frozen=True)
class SideCut:
    """Best side cut; ``u`` is None when no vertex qualified."""

    x: int
    y: int
    u: int | None


@dataclass(frozen=True)
class SeekCounters:
    """Counts read off a finished search (see ``seek_progress``)."""

    side_cuts_adopted: int
    side_cut_checks: int
    roots_tried: int


@dataclass(frozen=True)
class RoundAudit:
    """Quantities and bound flags recorded at the end of one outer round.

    ``edge_mass_cut`` is the degree sum from the sparse cut's Y into its
    X; ``edge_mass_side`` the degree sum from Y'' into S_j minus X.
    ``side_edge_mass`` (and, for an adopted side cut, ``x_size_floor``)
    is asserted by ``audit_round``; the other flags are diagnostics that
    asymptotic rounds would satisfy.
    """

    j: int
    size_S: int
    size_T: int
    size_X: int
    size_Y: int
    delta_S: Fraction
    delta_T: Fraction
    mu: Fraction
    ypp_size: int
    edge_mass_cut: int
    edge_mass_side: int
    side_cut_adopted: bool
    side_cut_u: int | None
    flags: dict[str, bool]

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "flags"}
        for name in ("delta_S", "delta_T", "mu"):
            out[name] = str(out[name])
        out.update({f"flag_{k}": v for k, v in sorted(self.flags.items())})
        return out


@dataclass
class SeekOutcome:
    progress: Progress | None
    failure: str | None  # "ErrorA" | "ErrorB" | "RoundCapExceeded" | "StructureFailed"
    audits: list[RoundAudit]
    counters: SeekCounters
    two_colorable: int  # the roots tried, whose neighborhoods 2-colored

    def __post_init__(self):
        if (self.progress is None) == (self.failure is None):
            raise ValueError("exactly one of progress/failure must be set")


def cut_or_color(
    G: Graph,
    r0: int,
    S: int,
    T: int,
    t: int,
    p: Params,
    *,
    sink: Sink = NO_SINK,
    round_no: int = 0,
) -> CutResult:
    """Grow (X, Y) from the seed t until S is swallowed or the cut is sparse.

    X collects vertices of S forced to share a color under the
    assumption that t and r0 differ; Y collects vertices of T that then
    cannot take that color.  Extensions are only applied after the
    multichromatic test certifies the witness set, so every step is
    sound for every legal 3-coloring.  Scan order is ascending vertex
    id, with X-extensions exhausted before each Y-extension attempt.
    """
    nh = nhat(G.n, p.k)
    if S.bit_count() < 2:
        raise ValueError("cut_or_color needs |S| >= 2")
    if S & ~G.adj_bits(r0):
        raise ValueError("S must lie inside N(r0)")
    if not (T >> t) & 1:
        raise ValueError("seed vertex must lie in T")

    X = G.adj_bits(t) & S
    if X == 0:
        raise ValueError("seed vertex has no neighbors in S")
    Y = union_neighborhoods(G, X) & T
    y_size = Y.bit_count()
    root_adj = G.adj_bits(r0)
    measure_cache: dict[int, tuple[int, int]] = {}

    while True:
        if X == S:
            sink.claim("mono_if_differ", S, G, conditional=(t, r0))
            if sink.trace is not None:
                sink.emit(event="cut", round=round_no, seed=t, verdict=True,
                          x_size=S.bit_count(), y_size=y_size)
            return MonochromaticIfDiffer(S, t, r0)

        extended = True
        while extended:
            extended = False
            # Y grows inside this scan, so each degree into Y is read fresh
            for s in iter_bits(S & ~X):
                witness = G.adj_bits(s) & Y
                if witness.bit_count() >= nh:
                    res = multichromatic_test(G, witness, p, sink=sink)
                    if not isinstance(res, MultichromaticGuaranteed):
                        return res
                    X |= 1 << s
                    Y |= G.adj_bits(s) & T
                    y_size = Y.bit_count()
                    extended = True
                    if sink.trace is not None:
                        sink.emit(event="extension", round=round_no, kind="x", vertex=s,
                                  x_size=X.bit_count(), y_size=y_size)
            if X == S:
                break
        if X == S:
            continue

        applied = False
        for t2 in iter_bits(T & ~Y):
            cached = measure_cache.get(t2)
            if cached is not None and cached[0] + (y_size - cached[1]) < nh:
                continue
            witness = union_neighborhoods(G, G.adj_bits(t2) & root_adj) & Y
            measured = witness.bit_count()
            measure_cache[t2] = (measured, y_size)
            if measured >= nh:
                res = multichromatic_test(G, witness, p, sink=sink)
                if not isinstance(res, MultichromaticGuaranteed):
                    return res
                Y |= 1 << t2
                y_size += 1
                applied = True
                if sink.trace is not None:
                    sink.emit(event="extension", round=round_no, kind="y", vertex=t2,
                              x_size=X.bit_count(), y_size=y_size)
                break
        if applied:
            continue

        violations = check_sparse_cut(G, r0, S, T, t, X, Y, p)
        if violations:
            raise AssertionError(f"sparse cut violates {violations}")
        if sink.trace is not None:
            sink.emit(event="cut", round=round_no, seed=t, verdict=False,
                      x_size=X.bit_count(), y_size=y_size)
        return SparseCut(X, Y)


def check_sparse_cut(
    G: Graph,
    r0: int,
    S: int,
    T: int,
    t: int,
    X: int,
    Y: int,
    p: Params,
) -> list[str]:
    """Independently re-derive the four sparse-cut invariants.

    I1: the seed keeps all its S-neighbors inside X.
    I2: no edge leaves X for T minus Y.
    I3: every s outside X sees fewer than nhat vertices of Y.
    I4: every t' outside Y reaches fewer than nhat vertices of Y through
        its neighbors in N(r0).
    """
    nh = nhat(G.n, p.k)
    violated = []
    if G.adj_bits(t) & S & ~X:
        violated.append("I1")
    outside_T = T & ~Y
    if union_neighborhoods(G, X) & outside_T:
        violated.append("I2")
    if with_degree_at_least(G, S & ~X, Y, nh):
        violated.append("I3")
    root_adj = G.adj_bits(r0)
    while outside_T:  # an existence test, so walked from the top bit
        t2 = outside_T.bit_length() - 1
        reach = union_neighborhoods(G, G.adj_bits(t2) & root_adj)
        if (reach & Y).bit_count() >= nh:
            violated.append("I4")
            break
        outside_T ^= 1 << t2
    return violated


def best_side_cut(G: Graph, X: int, Y: int, pair: RegularPair) -> SideCut:
    """Smallest-Y' side cut over qualifying u in Y; ties keep the earliest u.

    A vertex u qualifies when it has at least delta_T * SIDECUT_FACTOR
    neighbors in S_j outside X; its cut is that outside neighborhood
    X'(u) and the fresh T_j-neighbors Y'(u) of X'(u).  The scan starts
    from (S_j, T_j), so an empty scan returns the full pair.
    """
    Sj, Tj = pair.S, pair.T
    # integral degrees: d >= x  <=>  d >= ceil(x)
    threshold_int = ceil_times(pair.delta_T, SIDECUT_FACTOR)
    fresh_mask = Tj & ~Y
    open_S = Sj & ~X
    adj = G.adj_rows
    best_x, best_y, best_u = Sj, Tj, None
    best_size = Tj.bit_count()
    for u in iter_bits(Y):
        outside = adj[u] & open_S
        if outside.bit_count() < threshold_int:
            continue
        # Reach only grows, so a u abandoned at a checkpoint could never
        # be adopted: the walk may start from the top bit.
        reach = 0
        rest = outside
        walked = 0
        while rest:
            x = rest.bit_length() - 1
            reach |= adj[x]
            rest ^= 1 << x
            walked += 1
            if (walked & 7) == 0 and (reach & fresh_mask).bit_count() >= best_size:
                break
        else:
            y_bits = reach & fresh_mask
            size = y_bits.bit_count()
            if size < best_size:
                best_x, best_y, best_u, best_size = outside, y_bits, u, size
    return SideCut(best_x, best_y, best_u)


def inner_loop(
    G: Graph,
    r0: int,
    pair: RegularPair,
    p: Params,
    *,
    sink: Sink = NO_SINK,
) -> Progress | SparseCut | str:
    """Recurse through nested sparse cuts until the edge mass thins out.

    Exits with the final cut when the degree sum from the current Y into
    the current X drops below delta_T * |Y| / 2, with progress, or with
    the name of one of the two errors: "ErrorA" (|S| <= 1) or "ErrorB"
    (too few seed vertices).
    """
    nh = nhat(G.n, p.k)
    S, T = pair.S, pair.T
    # integral degrees: d >= x  <=>  d >= ceil(x)
    seed_floor = ceil_times(pair.delta_T, HIGHDEG_FACTOR)
    first = True
    while True:
        # T's degrees into S, read at most once per iteration: the mass
        # check reads them as a table, which the seed count then shares
        table = None
        if not first:
            table = degrees_into(G, T, S)
            if thin_mass(int(table[1].sum()), pair.delta_T, T.bit_count()):
                if union_neighborhoods(G, S) & pair.T & ~T:
                    raise AssertionError(
                        "final cut lost a T_j-neighbor of its X side"
                    )
                return SparseCut(S, T)
        first = False
        if S.bit_count() <= 1:
            sink.emit(event="error", reason="ErrorA")
            return "ErrorA"
        # the seeds are a subset of T, so a T below nhat fails uncounted
        seeds = 0
        if T.bit_count() >= nh:
            ids, degrees = table if table is not None else degrees_into(G, T, S)
            seeds = bits_of(ids[degrees >= seed_floor], G.n)
        if seeds.bit_count() < nh:
            sink.emit(event="error", reason="ErrorB")
            return "ErrorB"
        res = multichromatic_test(G, seeds, p, sink=sink)
        if not isinstance(res, MultichromaticGuaranteed):
            return res
        found: SparseCut | None = None
        verdicts = 0
        for seed in iter_bits(seeds):
            outcome = cut_or_color(G, r0, S, T, seed, p, sink=sink, round_no=pair.j)
            if isinstance(outcome, SparseCut):
                found = outcome
                break
            if not isinstance(outcome, MonochromaticIfDiffer):
                return outcome
            verdicts += 1
        if found is None:
            if verdicts != seeds.bit_count():
                raise AssertionError("monochromatic set without full verdict cover")
            sink.claim("mono", S, G)
            sink.emit(event="progress", round=pair.j, kind="mono",
                      set_size=S.bit_count())
            return MonoSet(S)
        if found.X == S:
            raise AssertionError("adopted cut failed to shrink the S side")
        S, T = found.X, found.Y


def audit_round(
    G: Graph,
    p: Params,
    pair: RegularPair,
    sparse_X: int,
    sparse_Y: int,
    chosen_X: int,
    chosen_Y: int,
    side_cut_adopted: bool,
    side_cut_u: int | None,
    termination_fired: bool = True,
) -> RoundAudit:
    """Record the end-of-round quantities and evaluate the bound flags.

    Hard requirements (asserted): the side-cut edge-mass floor whenever
    the inner loop terminated on thin edge mass; and for an adopted side
    cut, disjointness from the sparse cut, the X' size floor, and the
    per-vertex degree floor delta_S - nhat into Y'.
    """
    nh = nhat(G.n, p.k)
    d_S, d_T = pair.delta_S, pair.delta_T
    outside = pair.S & ~sparse_X
    # integral degrees: d >= x  <=>  d >= ceil(x)
    side_floor = ceil_times(d_T, SIDECUT_FACTOR)
    ypp_degrees = degrees_into(G, sparse_Y, outside)[1]
    ypp_degrees = ypp_degrees[ypp_degrees >= side_floor]
    edge_mass_side = int(ypp_degrees.sum())
    edge_mass_cut = int(degrees_into(G, sparse_Y, sparse_X)[1].sum())
    size_S, size_T = pair.S.bit_count(), pair.T.bit_count()
    size_X, size_Y = chosen_X.bit_count(), chosen_Y.bit_count()
    mu = Fraction(size_Y * nh) / (d_S * d_S) if d_S else Fraction(0)

    cut_degrees = degrees_into(G, chosen_X, chosen_Y)[1]
    min_cut_deg = int(cut_degrees.min()) if len(cut_degrees) else 0
    x_floor = d_T * (SIDECUT_FACTOR if side_cut_adopted else HIGHDEG_FACTOR)
    flags = {
        "min_cut_degree": Fraction(min_cut_deg) >= d_S / 2,
        "x_size_floor": Fraction(size_X) >= x_floor,
        "y_size_floor": Fraction(size_Y) >= d_S * d_S / (8 * nh),
        "y_sqrt_cap": size_Y ** 2 <= 30 * nh * size_T,
        "y_round_cap": size_Y < 30 * nh * (p.k ** (1 / 2 ** pair.j)),
        "degree_vs_nhat": d_S > nh,
        "base_degree_floor": d_T >= 4 * d_S / nh,
        "side_edge_mass": (not termination_fired)
        or Fraction(edge_mass_side) >= d_T * sparse_Y.bit_count() / 6,
    }

    if not flags["side_edge_mass"]:
        raise AssertionError("side-cut edge mass below the termination floor")
    if side_cut_adopted:
        if chosen_X & sparse_X or chosen_Y & sparse_Y:
            raise AssertionError("adopted side cut overlaps the sparse cut")
        if not flags["x_size_floor"]:
            raise AssertionError("adopted side cut below the X' size floor")
        # integral degrees: d < x  <=>  d < ceil(x)
        degree_floor = math.ceil(d_S) - nh
        if (cut_degrees < degree_floor).any():
            raise AssertionError(
                "side-cut vertex below the delta_S - nhat degree floor"
            )

    return RoundAudit(
        j=pair.j,
        size_S=size_S,
        size_T=size_T,
        size_X=size_X,
        size_Y=size_Y,
        delta_S=d_S,
        delta_T=d_T,
        mu=mu,
        ypp_size=len(ypp_degrees),
        edge_mass_cut=edge_mass_cut,
        edge_mass_side=edge_mass_side,
        side_cut_adopted=side_cut_adopted,
        side_cut_u=side_cut_u,
        flags=flags,
    )


def seek_progress(
    G: Graph,
    p: Params | None = None,
    *,
    claim_log: list | None = None,
    trace: list | None = None,
    alive: int | None = None,
    two_colorable: int = 0,
) -> SeekOutcome:
    """Run the full outer loop, retrying roots in decreasing degree order.

    Each root's rounds end in progress or a failure's name; the search
    stops at the first progress and builds its one outcome from it, or
    from the last root's failure, with the round audits of every root
    tried.  The counters are read off that outcome: the roots tried, the
    side-cut checks (one per audit when side cuts are on) and the audits
    whose side cut was adopted.  Every failure is data; only a
    non-3-colorability certificate escapes as an exception.  The trace
    and the claim list, when given, are filled through one ``Sink``
    passed to every layer.

    The search runs on the working graph G[alive] (all of G by default)
    and answers in G's ids: its progress, its certificate and the
    outcome's ``two_colorable``.  Round 1 of each root reads G's rows
    under the mask (``build_two_level``'s ``alive``), so a root whose
    round is doomed or whose neighborhood is progress costs no rebuild.
    The first root whose round-1 pair survives builds G[alive] on
    working ids (``induced_subgraph``) and runs its rounds there, and
    every later root runs wholly on it; when alive is all of G, G is the
    working graph from the start.  Working ids are the ranks of the
    alive ids, so every ascending walk, stable-sort tie and lowest-vertex
    rule picks the same vertex either way, and the outcome, trace and
    claims are those of a search on a rebuilt G[alive]: trace entries
    and claims from the rounds name working ids and the working graph.
    The alive ids and their rows are gathered once per call
    (``graph.MemberRows``, handed to ``build_two_level`` as ``alive``):
    the root order and every root's round-1 T table are masked popcounts
    of that one block, and after a rebuild the working graph's own words
    serve the later roots.  An alive set with a bit outside G raises
    ValueError before any gather.

    ``two_colorable`` is a set of vertices whose neighborhoods in
    G[alive] the caller knows to be 2-colorable: the driver's seek
    source carries them from earlier searches on graphs that G[alive]
    is an induced subgraph of (``baselines._seek``).  A root in it skips
    ``build_two_level``'s 2-coloring of a neighborhood below the Type 1
    size.  An induced subgraph of a bipartite graph is bipartite, so the
    skipped call could not have raised, and the outcome, trace and
    claims are those of a search without the set.  The outcome's
    ``two_colorable`` holds the roots tried: each one that did not raise
    2-colored its neighborhood.
    """
    full = (1 << G.n) - 1
    if alive is None:
        alive = full
    rows = MemberRows(G, alive)
    h = alive.bit_count()
    ids, degrees = rows.degrees_into(alive)
    min_degree = max(int(degrees.min()) if h else 0, 1)
    if p is None:
        p = Params.for_graph(h, min_degree)
    sink = Sink(trace, claim_log)
    sink.emit(event="params", k=p.k, nhat=nhat(h, p.k),
              round_cap=default_round_cap(h), side_cuts=p.side_cuts,
              k_within_min_degree=p.k <= min_degree)
    top = descending_order(degrees, G.n)[:ROOT_RETRIES]
    roots = ids[top][degrees[top] >= 1].tolist()
    audits: list[RoundAudit] = []
    tried = 0
    found: Progress | str = "StructureFailed"  # when no vertex has an edge
    # G[alive] and its working -> G id map: G and no map when alive is all
    # of G, else None until the first surviving round-1 pair builds them
    work, keep = (G, None) if alive == full else (None, None)
    try:
        for r0 in roots:
            known = (two_colorable >> r0) & 1 == 1
            if work is None:  # round 1 on G under the mask
                pair = build_two_level(G, r0, p, alive=rows, two_colorable=known)
                if isinstance(pair, RegularPair):  # the first survivor builds G[alive]
                    work, keep = induced_subgraph(G, alive)
                    rows = MemberRows(work, (1 << work.n) - 1)
                    pair = replace(pair, S=_compact(pair.S, keep, G.n),
                                   T=_compact(pair.T, keep, G.n))
            else:
                pair = build_two_level(work, _rank(r0, alive), p, alive=rows,
                                       two_colorable=known)
            if pair is None:
                found = _doomed(sink)
            elif isinstance(pair, RegularPair):
                found = _rounds(work, _rank(r0, alive), pair, p, audits, sink)
            else:  # the root's neighborhood is progress
                sink.emit(event="progress", round=0, kind=type(pair).__name__.lower(),
                          set_size=pair.members.bit_count())
                found = pair
            tried |= 1 << r0
            if not isinstance(found, str):
                break
    except Not3Colorable as exc:
        if keep is None:
            raise
        raise Not3Colorable(keep[exc.hub], tuple(keep[v] for v in exc.cycle)) from None
    failure = found if isinstance(found, str) else None
    if keep is not None and failure is None:  # Type1, Type2 or MonoSet: vertex sets only
        found = type(found)(*(_lift(getattr(found, f.name), keep) for f in fields(found)))
    # every best_side_cut call is followed by exactly one audit
    counters = SeekCounters(
        side_cuts_adopted=sum(a.side_cut_adopted for a in audits),
        side_cut_checks=len(audits) if p.side_cuts else 0,
        roots_tried=tried.bit_count(),
    )
    return SeekOutcome(None if failure else found, failure, audits, counters, tried)


def _rank(v: int, alive: int) -> int:
    """The working id of the alive vertex v: the alive vertices below it."""
    return (alive & ((1 << v) - 1)).bit_count()


def _compact(bits: int, keep: list[int], n: int) -> int:
    """The set ``bits`` of G's ids, inside ``keep``, in working ids."""
    row = unpack_bits(bits, n)[keep]
    return int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")


def _lift(bits: int, keep: list[int]) -> int:
    """The set ``bits`` of working ids in G's ids."""
    out = 0
    for i in iter_bits(bits):
        out |= 1 << keep[i]
    return out


def _rounds(
    G: Graph,
    r0: int,
    pair: RegularPair,
    p: Params,
    audits: list[RoundAudit],
    sink: Sink,
) -> Progress | str:
    """Run the outer rounds on the working graph G from root r0's round-1
    pair until progress or a failure, and return the progress or the
    failure's name; each round's audit is appended to ``audits``."""
    if sink.trace is not None:
        sink.emit(event="structure", root=r0, s_size=pair.S.bit_count(),
                  t_size=pair.T.bit_count(),
                  delta_S=str(pair.delta_S), delta_T=str(pair.delta_T))
    round_cap = default_round_cap(G.n)
    for j in range(1, round_cap + 1):
        res = inner_loop(G, r0, pair, p, sink=sink)
        if not isinstance(res, SparseCut):
            return res
        X, Y = res.X, res.Y
        adopted = False
        side = None
        if p.side_cuts:
            side = best_side_cut(G, X, Y, pair)
            adopted = side.u is not None and side.y.bit_count() < Y.bit_count()
        chosen_X, chosen_Y = (side.x, side.y) if adopted else (X, Y)
        if adopted:
            sink.emit(event="side_cut", round=j, u=side.u,
                      x_size=side.x.bit_count(), y_size=side.y.bit_count())
        audit = audit_round(G, p, pair, X, Y, chosen_X, chosen_Y, adopted,
                            side.u if adopted else None)
        audits.append(audit)
        if sink.trace is not None:
            sink.emit(event="round_end", round=j, **audit.to_dict())
        if not chosen_Y:
            return "StructureFailed"
        # some vertex of the nonempty Y is linked to X: a cut's Y holds its
        # seed, which neighbors X, and a side cut's Y' lies in N(X')
        ids, degrees = degrees_into(G, chosen_Y, chosen_X)
        linked = degrees >= 1
        if j == round_cap:
            break
        pair = regularize(G, chosen_X, ids[linked], degrees[linked], j + 1,
                          nh=nhat(G.n, p.k))
        if pair is None:
            return _doomed(sink)
    return "RoundCapExceeded"


def _doomed(sink: Sink) -> str:
    """The ErrorB failure of a round whose pair ``regularize`` declined to
    build (``build_two_level`` in round 1, ``regularize`` in round j + 1
    returning None), with the entry ``inner_loop`` would write: its degree
    bucket U has |U| < nhat and edge mass M > 2 |U| into S, and the prune
    keeps T inside U and at least M / (2 |U|) >= 2 vertices in S, so the
    inner loop would find too few seeds before doing anything else.
    """
    sink.emit(event="error", reason="ErrorB")
    return "ErrorB"
