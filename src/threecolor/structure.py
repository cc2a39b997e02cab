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

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graph import (
    Graph,
    MemberRows,
    OddCycle,
    bipartition,
    bits_of,
    degrees_into,
    descending_order,
    spans_edge,
    union_neighborhoods,
    with_degree_at_least,
)
from .params import Params, nhat
from .progress import NO_SINK, Progress, Sink, Type1, Type2, type1_threshold

# The paper's regularization constants.  A bucket holds the degrees d with
# b <= d < BUCKET_BASE * b and its T side is capped at DEGREE_CAP * b /
# BASE_DEGREE_DIVISOR, so BUCKET_BASE * BASE_DEGREE_DIVISOR <= DEGREE_CAP
# keeps every bucket inside the cap.
BUCKET_BASE = Fraction(4, 3)  # degree bucket boundaries BUCKET_BASE**l
BUCKET_FLOOR_DIVISOR = 2  # eligible buckets need d_l >= avg / 2
BASE_DEGREE_DIVISOR = 4  # delta_T = d_l / 4
MIN_DEGREE_DIVISOR = 4  # delta_S = avg degree into the bucket / 4
DEGREE_CAP = Fraction(16, 3)  # regularized T-side degrees <= DEGREE_CAP * delta_T

# The bucket boundaries BUCKET_BASE**l, l = 0, 1, ..., up to the first
# above every degree below 2**31, and their integer ceilings: integral
# degrees have d >= b  <=>  d >= ceil(b), so levels are assigned by
# bisecting the ceilings.
BOUNDARIES = (Fraction(1),)
while BOUNDARIES[-1] < 2**31:
    BOUNDARIES += (BOUNDARIES[-1] * BUCKET_BASE,)
CEILINGS = np.array([math.ceil(b) for b in BOUNDARIES])
# delta_T of the pair regularize builds from bucket l
BASE_DEGREES = tuple(b / BASE_DEGREE_DIVISOR for b in BOUNDARIES)


# Exact integer forms of the rational thresholds.  Fractions are stored in
# lowest terms with a positive denominator, so floor division of the
# products of numerators and denominators is exact, and no product
# Fraction (with its gcd) is built on the per-root path.
def floor_times(x: Fraction, factor: Fraction) -> int:
    """floor(x * factor)."""
    return (x.numerator * factor.numerator) // (x.denominator * factor.denominator)


def ceil_times(x: Fraction, factor: Fraction) -> int:
    """ceil(x * factor)."""
    return -(-(x.numerator * factor.numerator) // (x.denominator * factor.denominator))


def bucket_eligible(boundary: Fraction, degree_sum: int, size: int) -> bool:
    """boundary >= avg / BUCKET_FLOOR_DIVISOR, avg = degree_sum / size,
    cross-multiplied."""
    return (boundary.numerator * BUCKET_FLOOR_DIVISOR * size
            >= boundary.denominator * degree_sum)


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
    ids, degrees = degrees_into(G, mask, mask)
    order = descending_order(degrees, G.n)
    for v, d in zip(ids[order].tolist(), degrees[order].tolist()):
        if d < 3:
            break
        result = bipartition(G, G.adj_bits(v) & mask)
        if isinstance(result, OddCycle):
            return v, result.vertices
    return None


@dataclass(frozen=True)
class MultichromaticGuaranteed:
    """X takes at least two colors in every legal 3-coloring."""

    members: int
    reason: str  # "internal-edge" | "neighborhood-odd-cycle"


@dataclass(frozen=True)
class RegularPair:
    """Two-sided degree-regular pair of vertex sets for round j.

    Every v in S has more than ``delta_S`` neighbors in T; every w in T
    has more than ``delta_T`` and at most ``DEGREE_CAP * delta_T``
    neighbors in S.
    """

    S: int
    T: int
    delta_S: Fraction
    delta_T: Fraction
    j: int

    def check(self, G: Graph) -> list[str]:
        if not self.S or not self.T:
            return ["empty side"]
        # integral degrees: d <= x  <=>  d <= floor(x)
        floor_S = math.floor(self.delta_S)
        floor_T = math.floor(self.delta_T)
        cap = floor_times(self.delta_T, DEGREE_CAP)
        ids, degrees = degrees_into(G, self.S, self.T)
        bad = [
            f"vertex {v} has S-side degree at most delta_S"
            for v in ids[degrees <= floor_S].tolist()
        ]
        ids, degrees = degrees_into(G, self.T, self.S)
        bad += [
            f"vertex {w} has T-side degree outside bounds"
            for w in ids[(degrees <= floor_T) | (degrees > cap)].tolist()
        ]
        return bad


def multichromatic_test(
    G: Graph, X: int, p: Params, *, sink: Sink = NO_SINK
) -> MultichromaticGuaranteed | Progress:
    """Either certify X multichromatic in every 3-coloring, or make progress.

    Requires |X| >= nhat(G.n, p.k).  If a monochromatic X were possible, its
    neighborhood would have to be 2-colorable; so an edge inside X or an
    odd cycle in G[N(X)] certifies the guarantee for every coloring.
    Otherwise N(X) is bipartite: large N(X) is a large 2-colorable set,
    and small N(X) makes independent X a small-neighborhood set.
    """
    floor = nhat(G.n, p.k)
    size = X.bit_count()
    if size < floor:
        raise SetTooSmall(f"|X| = {size} below the test floor {floor}")
    if spans_edge(G, X):
        sink.claim("multi", X, G)
        return MultichromaticGuaranteed(X, "internal-edge")
    nbhd = union_neighborhoods(G, X) & ~X
    split = bipartition(G, nbhd)
    if isinstance(split, OddCycle):
        sink.claim("multi", X, G)
        return MultichromaticGuaranteed(X, "neighborhood-odd-cycle")
    if nbhd.bit_count() >= type1_threshold(G.n, p.k, p.c1):
        return Type1(nbhd, split.side0, split.side1)
    return Type2(X, X, 0, nbhd)


def pick_bucket(degrees: np.ndarray) -> tuple[np.ndarray, int, float]:
    """Each degree's bucket level along powers of BUCKET_BASE, the level
    ``regularize`` picks and its edge mass (the sum of its degrees): the
    largest mass among the levels whose boundary reaches half the average
    degree, ties to the smaller level.  Every degree is at least 1."""
    levels = CEILINGS.searchsorted(degrees, side="right") - 1
    # float sums, exact: degree sums stay far below 2**53
    mass = np.bincount(levels, weights=degrees)
    # eligibility grows with the boundary, so the eligible levels run from
    # the first one up to the top level, which always has mass
    total, size = int(degrees.sum()), len(degrees)
    first = int(levels.min())
    while first < len(mass) and not bucket_eligible(BOUNDARIES[first], total, size):
        first += 1
    if first == len(mass):
        raise EmptyResult("no eligible degree bucket")
    level = first + int(mass[first:].argmax())  # the first maximum
    return levels, level, float(mass[level])


def regularize(G: Graph, S: int, t_ids: np.ndarray, t_degrees: np.ndarray,
               j: int, nh: int) -> RegularPair | None:
    """Prune (S, T) to a two-sided degree-regular pair, or return None
    when the pair's T side is bound to fall below ``nh``.

    T comes as its degree table into S: ``t_ids`` are T's vertex ids, in
    any order, and ``t_degrees[i]`` is |N(t_ids[i]) & S|, as
    ``degrees_into(G, T, S)`` returns them; both callers
    already hold them.  T is bucketed by these degrees and one bucket
    is chosen (``pick_bucket``).  Vertices at or below the derived floors
    are then deleted to a fixed point, which is independent of deletion
    order.

    The early exit: let U be the chosen bucket and M its edge mass
    into S.  The prune deletes at most |S| * delta_S + |U| * delta_T <=
    M / 4 + M / 4 of that mass (every U vertex has degree at least
    4 delta_T), so the pair keeps T_f inside U and, as an S_f vertex has
    at most |U| neighbors in T_f, at least M / (2 |U|) vertices in S_f.  When |U| < nh and M > 2 |U|,
    the pair would have fewer than ``nh`` T vertices and at least two S
    vertices, which the inner loop fails at once with ErrorB; no pair
    is built and None is returned.  ``nh`` is the round's nhat; at 0
    the exit never fires.
    """
    if not S or not len(t_ids):
        raise ValueError("regularize needs nonempty sides")
    if t_degrees.min() < 1:
        raise ValueError("every T vertex needs a neighbor in S")
    levels, level, mass = pick_bucket(t_degrees)
    in_bucket = levels == level
    u_size = int(np.count_nonzero(in_bucket))
    if u_size < nh and mass > 2 * u_size:
        return None
    u_table = t_ids[in_bucket], t_degrees[in_bucket]
    U_bits = bits_of(u_table[0], G.n)

    delta_T = BASE_DEGREES[level]
    s_table = degrees_into(G, S, U_bits)
    # the average degree into the bucket over MIN_DEGREE_DIVISOR
    delta_S = Fraction(int(s_table[1].sum()), MIN_DEGREE_DIVISOR * S.bit_count())

    surv_S, surv_T = _prune(G, S, U_bits, delta_S, delta_T, s_table, u_table)
    if not surv_S or not surv_T:
        raise EmptyResult("regularization emptied a side")
    pair = RegularPair(surv_S, surv_T, delta_S, delta_T, j)
    _assert_regular(G, pair)
    return pair


def _prune(G: Graph, s_bits: int, t_bits: int, delta_S: Fraction, delta_T: Fraction,
           s_table: tuple[np.ndarray, np.ndarray],
           t_table: tuple[np.ndarray, np.ndarray]) -> tuple[int, int]:
    """Delete S vertices with at most delta_S neighbors in T and T vertices
    with at most delta_T neighbors in S, both sides at once, to a fixed point.

    ``s_table`` and ``t_table`` are the degree tables of S into T and of T
    into S, as ``degrees_into`` returns them; they give the first pass, and
    later passes recount only if it deleted a vertex."""
    # integral degrees: d > x  <=>  d >= floor(x) + 1
    need_S = math.floor(delta_S) + 1
    need_T = math.floor(delta_T) + 1
    keep_S = _kept(G, s_bits, s_table, need_S)
    keep_T = _kept(G, t_bits, t_table, need_T)
    while keep_S != s_bits or keep_T != t_bits:
        s_bits, t_bits = keep_S, keep_T
        keep_S = with_degree_at_least(G, s_bits, t_bits, need_S)
        keep_T = with_degree_at_least(G, t_bits, s_bits, need_T)
    return s_bits, t_bits


def _kept(G: Graph, bits: int, table: tuple[np.ndarray, np.ndarray], need: int) -> int:
    """The members of ``bits`` whose degree in ``table`` is at least ``need``."""
    ids, degrees = table
    keep = degrees >= need
    return bits if keep.all() else bits_of(ids[keep], G.n)


def _assert_regular(G: Graph, pair: RegularPair) -> None:
    bad = pair.check(G)
    if bad:
        raise AssertionError(f"regularized pair is not regular: {bad}")


def build_two_level(G: Graph, r0: int, p: Params, *,
                    alive: int | MemberRows | None = None,
                    two_colorable: bool = False) -> RegularPair | Progress | None:
    """Grow the round-1 regular pair from a root vertex of G[alive].

    S is the root's neighborhood; if it is not 2-colorable the graph is
    not 3-colorable (raised with the odd-cycle certificate).  A large S
    is immediate progress.  Otherwise T is S's neighborhood, truncated
    to the floor(h/k) vertices of largest degree into S, and the pair is
    regularized.  None means ``regularize`` found the round doomed: its
    degree bucket U has |U| < nhat and edge mass into S above 2 |U|, so
    the pair it would build fails round 1 with ErrorB.

    ``alive`` (all of G by default) is the working graph's vertex set,
    of size h: the sizes, thresholds and caps are those of G[alive], and
    every set is taken inside it, so the result is that of G[alive] in
    G's ids.  It is a bitmask or the set's ``MemberRows`` of G, the
    alive ids and rows gathered once: ``seek_progress`` gathers them
    once per call and hands them to every root, and round 1 reads the
    driver's base under the mask this way.  T's degree table into a
    large S is one masked popcount of those rows.  A root outside G,
    or a bitmask with a bit outside G, raises ValueError.

    ``two_colorable`` says the caller already knows S is 2-colorable: S
    is an induced subgraph of a neighborhood that 2-colored before (see
    ``seek_progress``).  Then a small S skips the 2-coloring, which
    could neither raise nor change the result; a large S still runs it,
    since its sides are returned.
    """
    if not 0 <= r0 < G.n:
        raise ValueError(f"root {r0} is not a vertex of G")
    if not isinstance(alive, MemberRows):
        alive = MemberRows(G, (1 << G.n) - 1 if alive is None else alive)
    elif alive.graph is not G:
        raise ValueError("the alive rows belong to another graph")
    rows, alive = alive, alive.bits
    h = alive.bit_count()
    S = G.adj_bits(r0) & alive
    if not (alive >> r0) & 1 or not S:
        raise ValueError("root must be alive and have an alive neighbor")
    large = S.bit_count() >= type1_threshold(h, p.k, p.c1)
    if large or not two_colorable:
        split = bipartition(G, S)
        if isinstance(split, OddCycle):
            raise Not3Colorable(r0, split.vertices)
        if large:
            return Type1(S, split.side0, split.side1)
    if 4 * S.bit_count() >= h:
        # T is N(S), the vertices with a neighbor in S by symmetry.  With S
        # a quarter of the alive vertices or more, one degree pass over
        # every alive row scans at most four times the rows the union pass
        # alone would, and N(S) is then all or nearly all of them on dense
        # graphs, so the union pass is saved; a small S keeps the union,
        # whose cost follows |N(S)|
        ids, degrees = rows.degrees_into(S)
        linked = degrees >= 1
        ids, degrees = ids[linked], degrees[linked]
    else:
        ids, degrees = degrees_into(G, union_neighborhoods(G, S) & alive, S)
    limit = max(int(h / p.k), 1)
    if len(ids) > limit:
        top = descending_order(degrees, G.n)[:limit]
        ids, degrees = ids[top], degrees[top]
    pair = regularize(G, S, ids, degrees, j=1, nh=nhat(h, p.k))
    if pair is None:
        return None
    if pair.S & ~S:
        raise AssertionError("regularized S escaped the root neighborhood")
    if pair.T.bit_count() > limit:
        raise AssertionError("second level exceeds its size cap")
    return pair
