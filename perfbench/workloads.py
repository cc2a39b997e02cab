"""The four workloads: how each builds its instances from the seed, the
operation it times, and the checks its outputs must pass.

An *instance* is one call of the workload's operation on one generated
graph.  Every instance of a workload comes from one size class.  The
generator seed of instance ``i`` under benchmark seed ``s`` is
``s * 1000 + i``; instance ``count`` (one past the timed list) is the
untimed warm-up.  The library is passed in as ``tc`` and every call goes
through a module attribute, so the tracer's wrappers see it.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import checks

# seek_progress settings for the oracle sweep: the rungs of cli.ABLATION_LADDER,
# (k, c1 = c2); None keeps the per-graph default k
ORACLE_LADDER = ((3.0, 2.0), (2.6, 2.0), (2.0, 2.0))

# color --params override that blocks the large-set exit (a rung of
# cli.ABLATION_LADDER), so the nested sparse cuts run
CUT_PARAMS = '{"k": 2.6, "c1": 2.0, "c2": 2.0}'


@dataclass(frozen=True)
class Size:
    n: int
    p: float
    count: int  # instances in one round


@dataclass
class Instance:
    index: int
    rows: tuple[int, ...]  # generated adjacency, one bitmask per vertex
    m: int
    planted: tuple[int, ...]
    graph: object  # the graph handed to the program
    params: object = None


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict  # "full" | "tiny" -> Size
    prepare: Callable  # (tc, graph, planted) -> (graph for the program, params)
    operate: Callable  # (tc, instance) -> output
    check: Callable  # (instance, output) -> problems
    signature: Callable  # output -> comparable value, equal across rounds
    colors: Callable  # output -> palette size
    stressed: tuple  # functions whose subtree should hold most self time
    stressed_self: tuple  # functions whose own self time counts too
    expect: tuple  # (metric, "==0" | ">0") the workload must show


def generate(tc, seed: int, size: Size, index: int):
    return tc.generate.generate_planted(
        tc.generate.GenParams(n=size.n, edge_prob=size.p, seed=seed * 1000 + index)
    )


def build(tc, wl: Workload, seed: int, size: Size) -> list[Instance]:
    """The round's instances followed by the warm-up instance."""
    out = []
    for index in range(size.count + 1):
        graph, planted = generate(tc, seed, size, index)
        given, params = wl.prepare(tc, graph, planted)
        rows = tuple(graph.adj_bits(v) for v in range(graph.n))
        out.append(Instance(index, rows, graph.m, planted.assignment, given, params))
    return out


def input_problems(inst: Instance) -> list[str]:
    found = checks.coloring_problems(inst.rows, inst.planted, 3)
    found += checks.same_graph_problems(inst.rows, inst.m, inst.graph)
    return [f"instance {inst.index} input: {p}" for p in found]


# ---- pipeline workloads -------------------------------------------------

def _as_given(tc, graph, planted):
    return graph, None


def _through_dimacs(tc, graph, planted):
    return tc.dimacs.parse_dimacs(tc.dimacs.emit_dimacs(graph)), None


def _cut_params(tc, graph, planted):
    # the same steps as `threecolor color --params`
    overrides = tc.params.parse_param_overrides(CUT_PARAMS)
    k = overrides.pop("k", None)
    return graph, tc.params.Params.for_graph(
        graph.n, max(graph.min_degree(), 1), k=k, **overrides
    )


def _pipeline(tc, inst: Instance):
    coloring, _ = tc.baselines.pipeline_color(inst.graph, inst.params)
    return coloring.assignment, coloring.palette_size


def _pipeline_check(inst: Instance, out) -> list[str]:
    return checks.coloring_problems(inst.rows, out[0], out[1])


# ---- oracle sweep -------------------------------------------------------

def _oracle(tc, inst: Instance):
    G = inst.graph
    log: list = []
    for k, scale in ORACLE_LADDER:
        p = tc.params.Params.for_graph(G.n, max(G.min_degree(), 1), k=k,
                                       c1=scale, c2=scale)
        tc.search.seek_progress(G, p=p, claim_log=log)
    coloring, _ = tc.baselines.seek_only_color(G, claim_log=log)
    verdicts = [tc.oracle.verify_logged_claim(claim) for claim in log]
    proper, _ = tc.graph.is_proper_coloring(G, coloring)
    return coloring.assignment, coloring.palette_size, log, verdicts, proper


def _oracle_check(inst: Instance, out) -> list[str]:
    assignment, palette, log, verdicts, proper = out
    problems = checks.coloring_problems(inst.rows, assignment, palette)
    if not proper:
        problems.append("is_proper_coloring rejected the coloring")
    for claim, verdict in zip(log, verdicts):
        if not verdict.verified:
            problems.append(f"{claim.kind} claim {claim.vertices} failed: {verdict.reasons}")
        on_input = claim.graph.n == len(inst.rows) and all(
            claim.graph.adj_bits(v) == row for v, row in enumerate(inst.rows)
        )
        if on_input:
            problems += checks.claim_problems(
                claim.kind, claim.vertices, claim.conditional, inst.planted
            )
    return problems


def _oracle_signature(out):
    assignment, palette, log, verdicts, proper = out
    return (assignment, palette, proper,
            [(c.kind, c.vertices, c.conditional) for c in log],
            [v.verified for v in verdicts])


def _first_two(out):
    return out[:2]


def _palette(out):
    return out[1]


CUT_LAYERS = ("search.inner_loop", "search.best_side_cut", "search.audit_round")

WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "pipeline-dense",
            {"full": Size(600, 0.7, 60), "tiny": Size(120, 0.7, 2)},
            _as_given, _pipeline, _pipeline_check, _first_two, _palette,
            stressed=("structure.build_two_level", "progress.induced_subgraph"),
            stressed_self=(),
            expect=(("search.seek_progress.calls", ">0"),
                    ("search.cut_or_color.calls", "==0"),
                    ("oracle.enumerate_3colorings.calls", "==0")),
        ),
        Workload(
            "pipeline-sparse",
            {"full": Size(2000, 0.05, 16), "tiny": Size(300, 0.05, 2)},
            _through_dimacs, _pipeline, _pipeline_check, _first_two, _palette,
            stressed=("progress.validate_progress", "progress.induced_subgraph",
                      "progress.merge_vertex_set", "graph.bipartition",
                      "graph.is_proper_coloring"),
            stressed_self=("baselines.pipeline_color", "progress.color_with_progress"),
            expect=(("search.seek_progress.calls", "==0"),
                    ("oracle.enumerate_3colorings.calls", "==0")),
        ),
        Workload(
            "pipeline-cuts",
            {"full": Size(400, 0.5, 220), "tiny": Size(150, 0.5, 2)},
            _cut_params, _pipeline, _pipeline_check, _first_two, _palette,
            stressed=CUT_LAYERS,
            stressed_self=(),
            expect=(("search.cut_or_color.calls", ">0"),
                    ("oracle.enumerate_3colorings.calls", "==0")),
        ),
        Workload(
            "oracle-sweep",
            {"full": Size(24, 0.35, 700), "tiny": Size(12, 0.5, 3)},
            _as_given, _oracle, _oracle_check, _oracle_signature, _palette,
            stressed=("oracle.enumerate_3colorings",),
            stressed_self=(),
            expect=(("oracle.enumerate_3colorings.calls", ">0"),),
        ),
    )
}


def describe(wl: Workload, size: Size) -> str:
    extra = f" params {json.loads(CUT_PARAMS)}" if wl.prepare is _cut_params else ""
    return f"{wl.name}: n={size.n} p={size.p} instances/round={size.count}{extra}"
