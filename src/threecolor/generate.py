"""Planted 3-partition instance generator.

Vertices are split into three color classes; only cross-class pairs may
become edges, so the planted coloring is proper by construction and the
instance is guaranteed 3-colorable.  Generation is fully determined by
the seed: class assignment and edge draws come from one PCG64 stream.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dimacs import MAX_VERTICES
from .graph import Coloring, Graph, pack_rows

MAX_RETRIES = 16  # resamples after the first draw misses the degree target


class MinDegreeUnreachable(RuntimeError):
    """Raised when no attempt within the retry budget met the degree target."""

    def __init__(self, target: int, best: int, attempts: int):
        super().__init__(
            f"min degree target {target} unreachable: best {best} after {attempts} attempts"
        )
        self.target = target
        self.best = best
        self.attempts = attempts


@dataclass(frozen=True)
class GenParams:
    n: int
    class_balance: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)
    edge_prob: float = 0.5
    min_degree_target: int | None = None
    seed: int = 0

    def __post_init__(self):
        # capped at what parse_dimacs reads back, before the n x n draw allocates
        if not 0 <= self.n <= MAX_VERTICES:
            raise ValueError(f"n must lie in [0, {MAX_VERTICES}], not {self.n}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, not {self.seed}")
        if not 0.0 <= self.edge_prob <= 1.0:
            raise ValueError("edge_prob must lie in [0, 1]")
        if len(self.class_balance) != 3 or not all(
                math.isfinite(w) and w >= 0 for w in self.class_balance):
            raise ValueError("class_balance needs three finite nonnegative weights")
        if abs(sum(self.class_balance) - 1.0) > 1e-9:
            raise ValueError("class_balance weights must sum to 1")
        if self.min_degree_target is not None:
            # a vertex of the largest class has at most n - |class| neighbors,
            # and none at p = 0; refused before the retries draw n x n matrices
            reach = 0
            if self.edge_prob > 0:
                reach = self.n - max(_class_sizes(self.n, self.class_balance))
            if self.min_degree_target > reach:
                raise ValueError(f"min degree target {self.min_degree_target} exceeds "
                                 f"{reach}, the most a planted graph here can reach")


def _class_sizes(n: int, weights: tuple[float, float, float]) -> list[int]:
    """Largest-remainder apportionment; ties go to the lower class index."""
    raw = [w * n for w in weights]
    sizes = [math.floor(x) for x in raw]
    remainders = sorted(range(3), key=lambda i: (-(raw[i] - sizes[i]), i))
    for i in range(n - sum(sizes)):
        sizes[remainders[i % 3]] += 1
    return sizes


def _generate_once(params: GenParams, attempt: int) -> tuple[Graph, Coloring]:
    n = params.n
    rng = np.random.default_rng([params.seed, attempt])
    sizes = _class_sizes(n, params.class_balance)
    perm = rng.permutation(n)
    labels = np.empty(n, dtype=np.int64)
    start = 0
    for cls, size in enumerate(sizes):
        labels[perm[start:start + size]] = cls
        start += size

    dense = np.zeros((n, n), dtype=bool)
    p = params.edge_prob
    for a in range(3):
        for b in range(a + 1, 3):
            va = np.flatnonzero(labels == a)
            vb = np.flatnonzero(labels == b)
            if len(va) == 0 or len(vb) == 0:
                continue
            block = rng.random((len(va), len(vb))) < p
            dense[np.ix_(va, vb)] = block
            dense[np.ix_(vb, va)] = block.T

    adj = pack_rows(dense)
    m = sum(a.bit_count() for a in adj) // 2
    graph = Graph(n, adj, m)
    coloring = Coloring(tuple(int(c) for c in labels), 3)
    return graph, coloring


def generate_planted(params: GenParams) -> tuple[Graph, Coloring]:
    """Generate a planted instance, resampling until the degree target holds."""
    best = -1
    attempts = 0
    for attempt in range(MAX_RETRIES + 1):
        attempts += 1
        graph, coloring = _generate_once(params, attempt)
        if params.min_degree_target is None:
            return graph, coloring
        mindeg = graph.min_degree()
        best = max(best, mindeg)
        if mindeg >= params.min_degree_target:
            return graph, coloring
    raise MinDegreeUnreachable(params.min_degree_target, best, attempts)
