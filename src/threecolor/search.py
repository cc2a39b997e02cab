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
from dataclasses import dataclass, fields
from fractions import Fraction

from .graph import (
    Graph,
    degrees_into,
    iter_bits,
    union_neighborhoods,
    with_degree_at_least,
)
from .params import Params, default_round_cap, nhat
from .progress import (
    ClaimLog,
    MonoSet,
    Progress,
    log_claim,
)
from .structure import (
    MultichromaticGuaranteed,
    RegularPair,
    build_two_level,
    multichromatic_test,
    regularize,
)

# The paper's search constants: three fractions of a round's base degree
# delta_T, and the number of roots one search tries.
HIGHDEG_FACTOR = Fraction(1, 4)  # seeds need degree >= delta_T / 4
SIDECUT_FACTOR = Fraction(1, 3)  # side cuts need degree >= delta_T / 3
TERM_FACTOR = Fraction(1, 2)  # inner loop stops below delta_T * |T| / 2
ROOT_RETRIES = 10  # roots tried per search, in decreasing degree order


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


@dataclass(frozen=True)
class ProgressFound:
    progress: Progress


CutResult = MonochromaticIfDiffer | SparseCut | ProgressFound


@dataclass(frozen=True)
class SideCut:
    """Best side cut; ``u`` is None when no vertex qualified."""

    x: int
    y: int
    u: int | None


@dataclass
class SeekCounters:
    sparse_cuts: int = 0
    sparse_cut_violations: int = 0
    side_cuts_adopted: int = 0
    side_cut_checks: int = 0
    roots_tried: int = 0


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

    def __post_init__(self):
        if (self.progress is None) == (self.failure is None):
            raise ValueError("exactly one of progress/failure must be set")


def _emit(trace, event: str, **payload):
    if trace is not None:
        entry = {"event": event}
        entry.update(payload)
        trace.append(entry)


def cut_or_color(
    G: Graph,
    r0: int,
    S: int,
    T: int,
    t: int,
    p: Params,
    *,
    claim_log: ClaimLog | None = None,
    trace: list | None = None,
    round_no: int = 0,
    counters: SeekCounters | None = None,
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
            log_claim(claim_log, "mono_if_differ", S, G, conditional=(t, r0))
            _emit(trace, "cut", round=round_no, seed=t, verdict=True,
                  x_size=S.bit_count(), y_size=y_size)
            return MonochromaticIfDiffer(S, t, r0)

        extended = True
        while extended:
            extended = False
            # Y grows inside this scan, so each degree into Y is read fresh
            for s in iter_bits(S & ~X):
                witness = G.adj_bits(s) & Y
                if witness.bit_count() >= nh:
                    res = multichromatic_test(G, witness, p, claim_log=claim_log)
                    if not isinstance(res, MultichromaticGuaranteed):
                        return ProgressFound(res)
                    X |= 1 << s
                    Y |= G.adj_bits(s) & T
                    y_size = Y.bit_count()
                    extended = True
                    _emit(trace, "extension", round=round_no, kind="x", vertex=s,
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
                res = multichromatic_test(G, witness, p, claim_log=claim_log)
                if not isinstance(res, MultichromaticGuaranteed):
                    return ProgressFound(res)
                Y |= 1 << t2
                y_size += 1
                applied = True
                _emit(trace, "extension", round=round_no, kind="y", vertex=t2,
                      x_size=X.bit_count(), y_size=y_size)
                break
        if applied:
            continue

        violations = check_sparse_cut(G, r0, S, T, t, X, Y, p)
        if counters is not None:
            counters.sparse_cuts += 1
            counters.sparse_cut_violations += len(violations)
        if violations:
            raise AssertionError(f"sparse cut violates {violations}")
        _emit(trace, "cut", round=round_no, seed=t, verdict=False,
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
    for t2 in iter_bits(outside_T):
        reach = union_neighborhoods(G, G.adj_bits(t2) & root_adj)
        if (reach & Y).bit_count() >= nh:
            violated.append("I4")
            break
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
    threshold_int = math.ceil(pair.delta_T * SIDECUT_FACTOR)
    fresh_mask = Tj & ~Y
    best_x, best_y, best_u = Sj, Tj, None
    best_size = Tj.bit_count()
    for u in iter_bits(Y):
        outside = G.adj_bits(u) & Sj & ~X
        if outside.bit_count() < threshold_int:
            continue
        reach = 0
        abandoned = False
        for i, x in enumerate(iter_bits(outside)):
            reach |= G.adj_bits(x)
            if (i & 7) == 7 and (reach & fresh_mask).bit_count() >= best_size:
                abandoned = True
                break
        if abandoned:
            continue
        y_bits = reach & fresh_mask
        size = y_bits.bit_count()
        if size < best_size:
            best_x, best_y, best_u, best_size = outside, y_bits, u, size
    return SideCut(best_x, best_y, best_u)


@dataclass(frozen=True)
class InnerError:
    reason: str  # "ErrorA" | "ErrorB"


def inner_loop(
    G: Graph,
    r0: int,
    pair: RegularPair,
    p: Params,
    *,
    claim_log: ClaimLog | None = None,
    trace: list | None = None,
    counters: SeekCounters | None = None,
) -> ProgressFound | SparseCut | InnerError:
    """Recurse through nested sparse cuts until the edge mass thins out.

    Exits with the final cut when the degree sum from the current Y into
    the current X drops below delta_T * |Y| / 2, with progress, or with
    one of the two error outcomes (|S| <= 1, or too few seed vertices).
    """
    nh = nhat(G.n, p.k)
    S, T = pair.S, pair.T
    # integral degrees: d >= x  <=>  d >= ceil(x)
    seed_floor = math.ceil(pair.delta_T * HIGHDEG_FACTOR)
    first = True
    while True:
        if not first:
            mass = int(degrees_into(G, T, S)[1].sum())
            if mass < pair.delta_T * TERM_FACTOR * T.bit_count():
                if union_neighborhoods(G, S) & pair.T & ~T:
                    raise AssertionError(
                        "final cut lost a T_j-neighbor of its X side"
                    )
                return SparseCut(S, T)
        first = False
        if S.bit_count() <= 1:
            _emit(trace, "error", reason="ErrorA")
            return InnerError("ErrorA")
        # the seeds are a subset of T, so a T below nhat fails uncounted
        seeds = 0
        if T.bit_count() >= nh:
            seeds = with_degree_at_least(G, T, S, seed_floor)
        if seeds.bit_count() < nh:
            _emit(trace, "error", reason="ErrorB")
            return InnerError("ErrorB")
        res = multichromatic_test(G, seeds, p, claim_log=claim_log)
        if not isinstance(res, MultichromaticGuaranteed):
            return ProgressFound(res)
        found: SparseCut | None = None
        verdicts = 0
        for seed in iter_bits(seeds):
            outcome = cut_or_color(
                G, r0, S, T, seed, p,
                claim_log=claim_log, trace=trace, round_no=pair.j,
                counters=counters,
            )
            if isinstance(outcome, ProgressFound):
                return outcome
            if isinstance(outcome, SparseCut):
                found = outcome
                break
            verdicts += 1
        if found is None:
            if verdicts != seeds.bit_count():
                raise AssertionError("monochromatic set without full verdict cover")
            log_claim(claim_log, "mono", S, G)
            _emit(trace, "progress", round=pair.j, kind="mono",
                  set_size=S.bit_count())
            return ProgressFound(MonoSet(S))
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
    side_floor = math.ceil(d_T * SIDECUT_FACTOR)
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
    claim_log: ClaimLog | None = None,
    trace: list | None = None,
) -> SeekOutcome:
    """Run the full outer loop, retrying roots in decreasing degree order.

    Returns the first progress found, or the last root's failure with
    its round audits.  Every failure is data; only a non-3-colorability
    certificate escapes as an exception.
    """
    ids, degrees = degrees_into(G, (1 << G.n) - 1, (1 << G.n) - 1)
    min_degree = max(int(degrees.min()) if G.n else 0, 1)
    if p is None:
        p = Params.for_graph(G.n, min_degree)
    counters = SeekCounters()
    _emit(trace, "params", k=p.k, nhat=nhat(G.n, p.k),
          round_cap=default_round_cap(G.n), side_cuts=p.side_cuts,
          k_within_min_degree=p.k <= min_degree)
    # a stable sort keeps the ascending ids of equal degrees
    top = (-degrees).argsort(kind="stable")[:ROOT_RETRIES]
    roots = ids[top][degrees[top] >= 1].tolist()
    if not roots:
        return SeekOutcome(None, "StructureFailed", [], counters)
    audits: list[RoundAudit] = []
    last: SeekOutcome | None = None
    for r0 in roots:
        counters.roots_tried += 1
        outcome = _seek_from_root(G, r0, p, audits, counters, claim_log, trace)
        if outcome.progress is not None:
            return outcome
        last = outcome
    return last


def _seek_from_root(
    G: Graph,
    r0: int,
    p: Params,
    audits: list[RoundAudit],
    counters: SeekCounters,
    claim_log: ClaimLog | None,
    trace: list | None,
) -> SeekOutcome:
    pair = build_two_level(G, r0, p, claim_log=claim_log)
    if not isinstance(pair, RegularPair):  # the root's neighborhood is progress
        _emit(trace, "progress", round=0, kind=type(pair).__name__.lower(),
              set_size=pair.members.bit_count())
        return SeekOutcome(pair, None, audits, counters)
    _emit(trace, "structure", root=r0, s_size=pair.S.bit_count(),
          t_size=pair.T.bit_count(),
          delta_S=str(pair.delta_S), delta_T=str(pair.delta_T))
    round_cap = default_round_cap(G.n)
    for j in range(1, round_cap + 1):
        res = inner_loop(G, r0, pair, p, claim_log=claim_log, trace=trace,
                         counters=counters)
        if isinstance(res, InnerError):
            return SeekOutcome(None, res.reason, audits, counters)
        if isinstance(res, ProgressFound):
            return SeekOutcome(res.progress, None, audits, counters)
        X, Y = res.X, res.Y
        adopted = False
        side = None
        if p.side_cuts:
            side = best_side_cut(G, X, Y, pair)
            counters.side_cut_checks += 1
            adopted = side.u is not None and side.y.bit_count() < Y.bit_count()
        chosen_X, chosen_Y = (side.x, side.y) if adopted else (X, Y)
        if adopted:
            counters.side_cuts_adopted += 1
            _emit(trace, "side_cut", round=j, u=side.u,
                  x_size=side.x.bit_count(), y_size=side.y.bit_count())
        audit = audit_round(G, p, pair, X, Y, chosen_X, chosen_Y, adopted,
                            side.u if adopted else None)
        audits.append(audit)
        _emit(trace, "round_end", round=j, **audit.to_dict())
        if not chosen_Y:
            return SeekOutcome(None, "StructureFailed", audits, counters)
        ids, degrees = degrees_into(G, chosen_Y, chosen_X)
        linked = degrees >= 1
        if not linked.any():
            return SeekOutcome(None, "StructureFailed", audits, counters)
        if j == round_cap:
            break
        pair = regularize(G, chosen_X, ids[linked], degrees[linked], j + 1)
    return SeekOutcome(None, "RoundCapExceeded", audits, counters)
