"""Building blocks under the search: the multichromatic test, degree
regularization, and the two-level neighborhood structure.

The multichromatic test is the load-bearing guarantee: given a set X of
size at least nhat, it either certifies that X receives two or more
colors under every legal 3-coloring of the whole graph, or it hands
back structural progress.  The certificate is purely structural (an
edge inside X, or an odd cycle in X's neighborhood while X is
independent), so it holds for every 3-coloring unconditionally.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .graph import (
    Graph,
    OddCycle,
    VertexSet,
    bipartition,
    iter_bits,
    spans_edge,
    union_neighborhoods,
)
from .params import Params
from .progress import ClaimLog, Progress, Type1, Type2, log_claim, type1_threshold


class SetTooSmall(ValueError):
    pass


class EmptyResult(RuntimeError):
    """Regularization emptied a side; signals a violated precondition."""


class Not3Colorable(Exception):
    """Certificate that the graph has no proper 3-coloring.

    ``cycle`` is an odd cycle lying inside N(hub): the cycle alone needs
    three colors and every cycle vertex also touches the hub.
    """

    def __init__(self, hub: int, cycle: tuple[int, ...]):
        super().__init__(f"odd cycle of length {len(cycle)} inside N({hub})")
        self.hub = hub
        self.cycle = cycle


def certificate_is_valid(G: Graph, hub: int, cycle: tuple[int, ...]) -> bool:
    """Check a non-3-colorability certificate against a concrete graph."""
    if len(cycle) < 3 or len(cycle) % 2 == 0 or len(set(cycle)) != len(cycle):
        return False
    if not all(0 <= v < G.n for v in cycle) or not 0 <= hub < G.n:
        return False
    if any(not G.has_edge(hub, v) for v in cycle):
        return False
    return all(
        G.has_edge(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))
    )


def find_certificate(G: Graph, mask: int | None = None) -> tuple[int, tuple[int, ...]] | None:
    """Scan G[mask] (all of G by default) for a vertex whose neighborhood
    holds an odd cycle.

    Vertices are tried by descending degree into the mask, ties to the
    lower id, and the scan stops at the first degree below 3.
    """
    if mask is None:
        mask = (1 << G.n) - 1
    degree = {v: (G.adj_bits(v) & mask).bit_count() for v in iter_bits(mask)}
    for v in sorted(degree, key=lambda u: (-degree[u], u)):
        if degree[v] < 3:
            break
        result = bipartition(G, VertexSet(G.n, G.adj_bits(v) & mask))
        if isinstance(result, OddCycle):
            return v, result.vertices
    return None


@dataclass(frozen=True)
class MultichromaticGuaranteed:
    """X takes at least two colors in every legal 3-coloring."""

    members: VertexSet
    reason: str  # "internal-edge" | "neighborhood-odd-cycle"


@dataclass(frozen=True)
class RegularPair:
    """Two-sided degree-regular pair of vertex sets for round j.

    Every v in S has more than ``delta_S`` neighbors in T; every w in T
    has more than ``delta_T`` and at most ``degree_cap * delta_T``
    neighbors in S.
    """

    S: VertexSet
    T: VertexSet
    delta_S: Fraction
    delta_T: Fraction
    j: int

    def check(self, G: Graph, degree_cap: Fraction) -> list[str]:
        bad = []
        if not self.S or not self.T:
            bad.append("empty side")
            return bad
        for v in iter_bits(self.S.bits):
            if (G.adj_bits(v) & self.T.bits).bit_count() <= self.delta_S:
                bad.append(f"vertex {v} has S-side degree at most delta_S")
        cap = degree_cap * self.delta_T
        for w in iter_bits(self.T.bits):
            d = (G.adj_bits(w) & self.S.bits).bit_count()
            if d <= self.delta_T or d > cap:
                bad.append(f"vertex {w} has T-side degree outside bounds")
        return bad


@dataclass(frozen=True)
class TwoLevel:
    """Root plus the round-1 regular pair grown from its neighborhood."""

    r0: int
    pair: RegularPair


def multichromatic_test(
    G: Graph, X: VertexSet, p: Params, *, claim_log: ClaimLog | None = None
) -> MultichromaticGuaranteed | Progress:
    """Either certify X multichromatic in every 3-coloring, or make progress.

    Requires |X| >= p.nhat.  If a monochromatic X were possible, its
    neighborhood would have to be 2-colorable; so an edge inside X or an
    odd cycle in G[N(X)] certifies the guarantee for every coloring.
    Otherwise N(X) is bipartite: large N(X) is a large 2-colorable set,
    and small N(X) makes independent X a small-neighborhood set.
    """
    if len(X) < p.nhat:
        raise SetTooSmall(f"|X| = {len(X)} below the test floor {p.nhat}")
    if spans_edge(G, X.bits):
        log_claim(claim_log, "multi", X, G, provenance="internal-edge")
        return MultichromaticGuaranteed(X, "internal-edge")
    nbhd = VertexSet(G.n, union_neighborhoods(G, X.bits) & ~X.bits)
    split = bipartition(G, nbhd)
    if isinstance(split, OddCycle):
        log_claim(claim_log, "multi", X, G, provenance="neighborhood-odd-cycle")
        return MultichromaticGuaranteed(X, "neighborhood-odd-cycle")
    if len(nbhd) >= type1_threshold(G.n, p.k, p.c1):
        return Type1(nbhd, split.side0, split.side1)
    return Type2(X, X, VertexSet(G.n), nbhd)


def regularize(G: Graph, S: VertexSet, T: VertexSet, p: Params, j: int) -> RegularPair:
    """Prune (S, T) to a two-sided degree-regular pair.

    T is bucketed by degree into S along powers of bucket_base; among
    buckets whose floor reaches half the average degree, the one with
    the largest edge mass into S wins (ties to the smaller bucket).
    Vertices at or below the derived floors are then deleted to a fixed
    point, which is independent of deletion order.
    """
    if not S or not T:
        raise ValueError("regularize needs nonempty sides")
    degs = {w: (G.adj_bits(w) & S.bits).bit_count() for w in iter_bits(T.bits)}
    if any(d < 1 for d in degs.values()):
        raise ValueError("every T vertex needs a neighbor in S")
    total = sum(degs.values())
    avg = Fraction(total, len(T))

    base = p.bucket_base
    boundaries = [Fraction(1)]
    max_deg = max(degs.values())
    while boundaries[-1] <= max_deg:
        boundaries.append(boundaries[-1] * base)
    # integral degrees: d >= p/q  <=>  d >= ceil(p/q), so levels can be
    # assigned by bisecting the integer ceilings
    ceilings = [-(-b.numerator // b.denominator) for b in boundaries]
    buckets: dict[int, int] = {}
    bucket_mass: dict[int, int] = {}
    for w, d in degs.items():
        level = bisect_right(ceilings, d) - 1
        buckets[level] = buckets.get(level, 0) | (1 << w)
        bucket_mass[level] = bucket_mass.get(level, 0) + d

    floor = avg / p.bucket_floor_divisor
    eligible = [lv for lv in sorted(buckets) if boundaries[lv] >= floor]
    if not eligible:
        raise EmptyResult("no eligible degree bucket")
    level = max(eligible, key=lambda lv: (bucket_mass[lv], -lv))
    U_bits = buckets[level]

    delta_T = boundaries[level] / p.base_degree_divisor
    s_members = S.to_list()
    avg_into_bucket = Fraction(
        sum((G.adj_bits(v) & U_bits).bit_count() for v in s_members), len(s_members)
    )
    delta_S = avg_into_bucket / p.min_degree_divisor

    # integer prune floors: d <= p/q  <=>  d <= floor(p/q) for integral d
    floor_S = delta_S.numerator // delta_S.denominator
    floor_T = delta_T.numerator // delta_T.denominator
    surv_S = S.bits
    surv_T = U_bits
    changed = True
    while changed:
        changed = False
        drop_S = 0
        for v in iter_bits(surv_S):
            if (G.adj_bits(v) & surv_T).bit_count() <= floor_S:
                drop_S |= 1 << v
        drop_T = 0
        for w in iter_bits(surv_T):
            if (G.adj_bits(w) & surv_S).bit_count() <= floor_T:
                drop_T |= 1 << w
        if drop_S or drop_T:
            surv_S &= ~drop_S
            surv_T &= ~drop_T
            changed = True

    if not surv_S or not surv_T:
        raise EmptyResult("regularization emptied a side")
    pair = RegularPair(
        VertexSet(G.n, surv_S), VertexSet(G.n, surv_T), delta_S, delta_T, j
    )
    _assert_regular(G, pair, p)
    return pair


def _assert_regular(G: Graph, pair: RegularPair, p: Params) -> None:
    bad = pair.check(G, p.degree_cap)
    if bad:
        raise AssertionError(f"regularized pair is not regular: {bad}")


def build_two_level(
    G: Graph, r0: int, p: Params, *, claim_log: ClaimLog | None = None
) -> TwoLevel | Progress:
    """Grow the round-1 structure from a root vertex.

    S is the root's neighborhood; if it is not 2-colorable the graph is
    not 3-colorable (raised with the odd-cycle certificate).  A large S
    is immediate progress.  Otherwise T is S's neighborhood, truncated
    to the floor(n/k) vertices of largest degree into S, and the pair is
    regularized.
    """
    if G.degree(r0) == 0:
        raise ValueError("root must have at least one neighbor")
    S = G.neighbors(r0)
    split = bipartition(G, S)
    if isinstance(split, OddCycle):
        raise Not3Colorable(r0, split.vertices)
    if len(S) >= type1_threshold(G.n, p.k, p.c1):
        return Type1(S, split.side0, split.side1)
    T_bits = union_neighborhoods(G, S.bits)
    limit = max(int(G.n / p.k), 1)
    members = list(iter_bits(T_bits))
    if len(members) > limit:
        ranked = sorted(
            members, key=lambda w: (-(G.adj_bits(w) & S.bits).bit_count(), w)
        )
        T_bits = 0
        for w in ranked[:limit]:
            T_bits |= 1 << w
    pair = regularize(G, S, VertexSet(G.n, T_bits), p, j=1)
    if not pair.S.issubset(S):
        raise AssertionError("regularized S escaped the root neighborhood")
    if len(pair.T) > limit:
        raise AssertionError("second level exceeds its size cap")
    return TwoLevel(r0, pair)
