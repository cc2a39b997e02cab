"""Always-terminating colorers and the end-to-end pipeline.

``pipeline_color`` drives the progress engine with a source that tries,
in order: give up to the greedy fallback below a size floor; extract a
high-degree vertex's 2-colorable neighborhood; run the full progress
search when the minimum degree clears the split threshold; otherwise
defer a minimum-degree vertex (degeneracy order).  The pipeline and
the search-only colorer share one seek source and one certificate
path, and both are total: on inputs that are not 3-colorable they
either raise an odd-wheel certificate checked against the input graph
or still return a proper coloring with extra colors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Iterable

import numpy as np

from .graph import (
    Coloring,
    Graph,
    OddCycle,
    degrees_into,
    iter_bits,
    spans_edge,
)
from .graph import bipartition as graph_bipartition
from .params import Params
from .progress import (
    EXHAUSTED,
    Defer,
    DriverStats,
    DriverView,
    MonoSet,
    Progress,
    Type0,
    Type1,
    color_with_progress,
    type1_threshold,
)
from .search import RoundAudit, seek_progress
from .structure import Not3Colorable, certificate_is_valid, find_certificate

N0 = 64  # the pipeline hands working graphs below this size to the greedy fallback
TAU = 0.605  # the pipeline searches when the minimum degree reaches h**TAU


@dataclass
class BaselineReport:
    method: str
    colors_used: int
    extractions: int = 0
    threshold: int | None = None


def _first_fit(G: Graph, order: Iterable[int], assign: list, base: int) -> int:
    """Give each vertex of ``order`` the lowest color >= base that none of
    its neighbors colored here wears; returns one past the top color."""
    masks: dict[int, int] = {}
    top = base - 1
    for v in order:
        adj = G.adj_bits(v)
        c = base
        while adj & masks.get(c, 0):
            c += 1
        assign[v] = c
        masks[c] = masks.get(c, 0) | (1 << v)
        top = max(top, c)
    return top + 1


def greedy_color(G: Graph, order=None, base: int = 0) -> Coloring:
    """First-fit coloring along ``order`` starting at color ``base``.

    With base > 0 the palette span includes the reserved range below it.
    Uses at most max_degree + 1 colors above the base.
    """
    if order is None:
        order = range(G.n)
    else:
        order = list(order)
        if sorted(order) != list(range(G.n)):
            raise ValueError("order must be a permutation of the vertex set")
    assign: list[int | None] = [None] * G.n
    palette = _first_fit(G, order, assign, base) if G.n else 0
    coloring = Coloring(tuple(assign), palette)
    if G.n and palette - base > G.max_degree() + 1:
        raise AssertionError("first-fit exceeded the degree bound")
    return coloring


def neighborhood_extraction_color(
    G: Graph, threshold: int | None = None
) -> tuple[Coloring, BaselineReport]:
    """Repeatedly 2-color and remove a high-degree vertex's neighborhood.

    While some vertex has current degree >= threshold, its neighborhood
    must be bipartite (otherwise the odd-wheel certificate proves the
    graph is not 3-colorable); the two sides take a fresh color pair and
    the neighborhood is removed.  The low-degree remainder is colored
    first-fit on a fresh palette, for at most
    2 * ceil(n / threshold) + threshold colors in total.
    """
    n = G.n
    if threshold is None:
        threshold = max(1, math.ceil(math.sqrt(2 * n)))
    if threshold < 1:
        raise ValueError("threshold must be at least 1")
    alive = (1 << n) - 1
    assign: list[int | None] = [None] * n
    extractions = 0
    while alive:
        ids, degrees = degrees_into(G, alive, alive)
        best = int(np.argmax(degrees))  # ties to the lowest id
        if degrees[best] < threshold:
            break
        best_v = int(ids[best])
        W = G.adj_bits(best_v) & alive
        split = graph_bipartition(G, W)
        if isinstance(split, OddCycle):
            raise Not3Colorable(best_v, split.vertices)
        lo, hi = 2 * extractions, 2 * extractions + 1
        for v in iter_bits(split.side0):
            assign[v] = lo
        for v in iter_bits(split.side1):
            assign[v] = hi
        alive &= ~W
        extractions += 1

    palette = _first_fit(G, iter_bits(alive), assign, 2 * extractions) if n else 0
    bound = 2 * math.ceil(n / threshold) + threshold
    if palette > bound:
        raise AssertionError(f"palette {palette} exceeds the bound {bound}")
    coloring = Coloring(tuple(assign), palette)
    report = BaselineReport("extract", palette, extractions, threshold)
    return coloring, report


@dataclass
class PipelineReport:
    method: str
    colors_used: int
    stats: DriverStats
    seek_calls: int = 0
    seek_progress_found: int = 0
    seek_failures: dict = field(default_factory=dict)
    audits: list[RoundAudit] = field(default_factory=list)


def _lift_bits(bits: int, idmap: list[int]) -> int:
    out = 0
    for i in iter_bits(bits):
        out |= 1 << idmap[i]
    return out


def _lift_progress(claim: Progress, idmap: list[int]) -> Progress:
    if isinstance(claim, Type0):
        return Type0(idmap[claim.u], idmap[claim.v])
    # every field of the other claims is a vertex set
    return type(claim)(*(_lift_bits(getattr(claim, f.name), idmap)
                         for f in fields(claim)))


@dataclass
class _Run:
    """One colorer run: the input graph, its parameters, the report being
    filled and the output sinks, shared by the seek source and the
    certificate path."""

    G: Graph
    p: Params
    report: PipelineReport
    trace: list | None
    claim_log: list | None
    input_scanned: bool = False

    @classmethod
    def start(cls, G: Graph, p: Params | None, method: str, trace,
              claim_log) -> "_Run":
        if p is None:
            p = Params.for_graph(G.n, max(G.min_degree(), 1))
        return cls(G, p, PipelineReport(method, 0, DriverStats()), trace, claim_log)

    def drive(self, source) -> tuple[Coloring, PipelineReport]:
        """Drive ``source`` to a coloring of the input and fill the report."""
        coloring, stats = color_with_progress(
            self.G, self.p.k, source, c1=self.p.c1, c2=self.p.c2,
            trace=self.trace, claim_log=self.claim_log,
        )
        self.report.colors_used = coloring.palette_size
        self.report.stats = stats
        return coloring, self.report


def _raise_certificate(run: _Run, view: DriverView, hub: int | None = None,
                       cycle: tuple[int, ...] = ()) -> None:
    """Raise Not3Colorable with a certificate that checks out on the input.

    ``hub`` and ``cycle`` are ids of ``view.base``; when each stands for a
    single input vertex they are mapped to it and checked against the
    input graph.  Otherwise, or when that check fails, the input graph is
    scanned, at most once per run.  Returns when neither gives one.
    """
    if hub is not None:
        groups = [view.groups[v] for v in (hub, *cycle)]
        if all(len(g) == 1 for g in groups):
            orig_hub, *orig_cycle = (g[0] for g in groups)
            if certificate_is_valid(run.G, orig_hub, tuple(orig_cycle)):
                raise Not3Colorable(orig_hub, tuple(orig_cycle))
    if not run.input_scanned:
        run.input_scanned = True
        found = find_certificate(run.G)
        if found is not None:
            raise Not3Colorable(*found)


def _seek(run: _Run, view: DriverView) -> Progress | None:
    """One progress search on the materialized working graph.

    Returns the progress in ids of ``view.base``, or None when the source
    should give up: the search failed, or it showed the working graph is
    not 3-colorable (an odd wheel, or a monochromatic set spanning an
    edge) and the certificate path found no certificate to raise.
    """
    report = run.report
    sub, idmap = view.materialize()
    report.seek_calls += 1
    try:
        outcome = seek_progress(sub, p=run.p, claim_log=run.claim_log,
                                trace=run.trace)
    except Not3Colorable as exc:
        _raise_certificate(run, view, idmap[exc.hub],
                            tuple(idmap[v] for v in exc.cycle))
        return None
    report.audits.extend(outcome.audits)
    if outcome.progress is None:
        report.seek_failures[outcome.failure] = (
            report.seek_failures.get(outcome.failure, 0) + 1
        )
        return None
    report.seek_progress_found += 1
    progress = _lift_progress(outcome.progress, idmap)
    if isinstance(progress, MonoSet) and spans_edge(view.base, progress.members):
        _raise_certificate(run, view)
        return None
    return progress


def seek_only_color(
    G: Graph,
    p: Params | None = None,
    *,
    trace: list | None = None,
    claim_log: list | None = None,
) -> tuple[Coloring, PipelineReport]:
    """Color using only the progress search: seek until it fails, then greedy.

    No degree split and no extraction branch; every working graph goes
    straight to ``seek_progress`` and the first failure hands the
    remainder to the greedy fallback.  Like the pipeline, it raises
    Not3Colorable only with a certificate that checks out against the
    original graph.
    """
    run = _Run.start(G, p, "seek", trace, claim_log)

    def source(view: DriverView):
        _, d_min = view.min_degree_vertex()
        if view.n_alive < 2 or d_min < 1:
            return EXHAUSTED
        progress = _seek(run, view)
        return EXHAUSTED if progress is None else progress

    return run.drive(source)


def pipeline_color(
    G: Graph,
    p: Params | None = None,
    *,
    trace: list | None = None,
    claim_log: list | None = None,
) -> tuple[Coloring, PipelineReport]:
    """Color G by driving the progress search inside the degree split.

    Raises Not3Colorable only with a certificate that checks out against
    the original graph.
    """
    run = _Run.start(G, p, "pipeline", trace, claim_log)
    p = run.p
    backoff_size: int | None = None

    def source(view: DriverView):
        nonlocal backoff_size
        h = view.n_alive
        if h < N0:
            found = find_certificate(view.base, view.alive_bits)
            if found is not None:
                _raise_certificate(run, view, *found)
            return EXHAUSTED
        v_max, d_max = view.max_degree_vertex()
        if d_max >= type1_threshold(h, p.k, p.c1):
            W = view.neighbors_bits(v_max)
            split = graph_bipartition(view.base, W)
            if isinstance(split, OddCycle):
                _raise_certificate(run, view, v_max, split.vertices)
                return Defer(v_max)
            return Type1(W, split.side0, split.side1)
        v_min, d_min = view.min_degree_vertex()
        split_floor = math.ceil(h ** TAU)
        throttled = backoff_size is not None and h > 0.9 * backoff_size
        if d_min >= split_floor and not throttled:
            progress = _seek(run, view)
            if progress is not None:
                return progress
            backoff_size = h
        return Defer(v_min)

    return run.drive(source)
