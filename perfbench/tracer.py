"""Per-layer timing from outside the program.

The layers are the package's modules.  ``Tracer.install`` wraps each
public function named in ``LAYERS`` at every module attribute that
holds it (``from .graph import bipartition as graph_bipartition`` in
``baselines`` is wrapped too), so calls between modules and within one
module both pass through the wrapper.  Each call becomes a span kept in
memory: name, parent span, start, end and the time its wrapped children
took.  Self time is a span's duration minus its children's; a
function's total time counts only its outermost calls, so recursion is
not counted twice.  ``uninstall`` puts the original functions back.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

PACKAGE = "threecolor"
LAYERS = {
    "generate": ("generate_planted",),
    "dimacs": ("emit_dimacs", "parse_dimacs"),
    "baselines": ("pipeline_color", "seek_only_color"),
    "progress": ("color_with_progress", "induced_subgraph", "merge_vertex_set",
                 "validate_progress"),
    "structure": ("build_two_level", "regularize", "multichromatic_test"),
    "search": ("seek_progress", "inner_loop", "cut_or_color", "check_sparse_cut",
               "best_side_cut", "audit_round"),
    "graph": ("bipartition", "is_proper_coloring"),
    "oracle": ("enumerate_3colorings", "verify_logged_claim"),
}

FUNCTIONS = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]

# counts read from the values the wrapped functions return
COUNTS = (
    "search.seek_progress.progress",
    "search.seek_progress.roots_tried",
    "search.seek_progress.side_cut_checks",
    "search.seek_progress.side_cuts_adopted",
    "search.cut_or_color.verdicts",
    "progress.color_with_progress.deferred",
    "progress.color_with_progress.contractions",
    "progress.color_with_progress.type1_batches",
    "progress.color_with_progress.type2_batches",
    "progress.color_with_progress.fallback_colored",
    "oracle.enumerate_3colorings.reps",
)

# span fields: name, parent index, start, end, children's time, phase, outermost
NAME, PARENT, START, END, CHILD, PHASE, OUTER = range(7)


def _library_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.phase = "setup"
        self._stack: list[int] = []
        self._active: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._patched:
            return
        modules = _library_modules()
        for mod_name, fns in LAYERS.items():
            home = sys.modules[f"{PACKAGE}.{mod_name}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapped = self._wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        spans, stack, active = self.spans, self._stack, self._active
        on_return = getattr(self, "_count_" + name.replace(".", "_"), None)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            depth = active.get(name, 0)
            span = [name, parent, 0.0, 0.0, 0.0, self.phase, depth == 0]
            stack.append(len(spans))
            spans.append(span)
            active[name] = depth + 1
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = end = clock()
                stack.pop()
                active[name] = depth
                if parent >= 0:
                    spans[parent][CHILD] += end - span[START]
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def _count_search_seek_progress(self, outcome) -> None:
        c = self.counts
        c["search.seek_progress.progress"] += outcome.progress is not None
        c["search.seek_progress.roots_tried"] += outcome.counters.roots_tried
        c["search.seek_progress.side_cut_checks"] += outcome.counters.side_cut_checks
        c["search.seek_progress.side_cuts_adopted"] += outcome.counters.side_cuts_adopted

    def _count_search_cut_or_color(self, result) -> None:
        self.counts["search.cut_or_color.verdicts"] += (
            type(result).__name__ == "MonochromaticIfDiffer"
        )

    def _count_progress_color_with_progress(self, result) -> None:
        stats = result[1]
        for field in ("deferred", "contractions", "type1_batches", "type2_batches",
                      "fallback_colored"):
            self.counts[f"progress.color_with_progress.{field}"] += getattr(stats, field)

    def _count_oracle_enumerate_3colorings(self, summary) -> None:
        self.counts["oracle.enumerate_3colorings.reps"] += summary.reps_seen

    def layer_metrics(self) -> dict[str, float]:
        """calls, total_s and self_s per wrapped function, over every span."""
        out: dict[str, float] = {}
        for name in FUNCTIONS:
            out[f"{name}.calls"] = 0
            out[f"{name}.total_s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        for span in self.spans:
            name = span[NAME]
            dur = span[END] - span[START]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += dur - span[CHILD]
            if span[OUTER]:
                out[f"{name}.total_s"] += dur
        return out

    def self_time_by_function(self, phase: str) -> dict[str, float]:
        out = dict.fromkeys(FUNCTIONS, 0.0)
        for span in self.spans:
            if span[PHASE] == phase:
                out[span[NAME]] += span[END] - span[START] - span[CHILD]
        return out

    def write(self, path: Path, meta: dict) -> None:
        """Write every span as one JSON line after a header line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"meta": meta, "fields": [
                "name", "parent", "start_s", "end_s", "children_s", "phase", "outermost",
            ]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
