"""Command line surface: generate | color | verify | bench.

Exit codes: 0 success, 1 internal error (for ``bench``: some run ended
in an error row), 2 not 3-colorable, 3 verification rejection, 4 usage,
I/O or parse failure.  All randomness flows from explicit seeds and
every output except timing fields is byte-reproducible.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from pathlib import Path

from .baselines import (
    greedy_color,
    neighborhood_extraction_color,
    pipeline_color,
    seek_only_color,
)
from .dimacs import ParseError, emit_coloring, emit_dimacs, parse_dimacs
from .generate import GenParams, MinDegreeUnreachable, generate_planted
from .graph import Graph, is_proper_coloring
from .oracle import MAX_CAP, verify_claim_dict
from .params import Params, finite_number, parse_param_overrides
from .search import seek_progress
from .structure import Not3Colorable

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_NOT3COLORABLE = 2
EXIT_REJECTED = 3
EXIT_IO = 4

METHODS = ("pipeline", "greedy", "extract", "seek")


def _read_text(path: str) -> str:
    """The text of an input file; one that is not UTF-8 is a ValueError."""
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path} is not UTF-8 text: byte {exc.start} is "
                         f"{exc.object[exc.start]:#04x}") from None


def _load_graph(path: str) -> Graph:
    return parse_dimacs(_read_text(path))


def _read_json(path: str, parse=json.loads):
    """``parse`` applied to the text of an input file; JSON nested past the
    parser's recursion limit is a ValueError naming the file."""
    text = _read_text(path)
    try:
        return parse(text)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


def _load_params(args, graph: Graph) -> Params:
    overrides = {}
    if args.params:
        overrides = _read_json(args.params, parse_param_overrides)
    if args.no_side_cuts:
        overrides["side_cuts"] = False
    k = overrides.pop("k", None)
    return Params.for_graph(graph.n, max(graph.min_degree(), 1), k=k, **overrides)


def _write_outputs(outputs: list[tuple[str | Path | None, object]]) -> int | None:
    """Write each (path, content) pair whose path is given: a str as it is,
    anything else as indented, key-sorted JSON.  Returns EXIT_IO after an
    ``error:`` line at the first path that cannot be written, else None."""
    for path, content in outputs:
        if not path:
            continue
        if not isinstance(content, str):
            content = json.dumps(content, indent=2, sort_keys=True) + "\n"
        try:
            Path(path).write_text(content)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
    return None


def cmd_generate(args) -> int:
    try:
        balance = tuple(float(x) for x in args.balance.split(","))
    except ValueError as exc:
        print(f"error: --balance: {exc}", file=sys.stderr)
        return EXIT_IO
    total = sum(balance)
    if total <= 0:
        print("error: class balance must have positive total", file=sys.stderr)
        return EXIT_IO
    balance = tuple(w / total for w in balance)
    try:
        params = GenParams(
            n=args.n,
            class_balance=balance,  # normalized weights
            edge_prob=args.p,
            min_degree_target=args.min_degree_target,
            seed=args.seed,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        graph, coloring = generate_planted(params)
    except MinDegreeUnreachable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    prefix = Path(args.out)
    try:
        prefix.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    col_path = prefix.with_suffix(".col")
    sol_path = prefix.with_suffix(".sol")
    meta_path = prefix.with_suffix(".json")
    meta = {
        "n": graph.n,
        "m": graph.m,
        "edge_prob": args.p,
        "class_balance": list(balance),
        "seed": args.seed,
        "min_degree": graph.min_degree(),
        "max_degree": graph.max_degree(),
        "min_degree_target": args.min_degree_target,
    }
    failed = _write_outputs([(col_path, emit_dimacs(graph)),
                             (sol_path, emit_coloring(coloring)), (meta_path, meta)])
    if failed:
        return failed
    print(f"wrote {col_path} {sol_path} {meta_path}")
    return EXIT_OK


def _run_method(method: str, graph: Graph, p: Params, trace, claim_log):
    if method == "greedy":
        coloring = greedy_color(graph)
        return coloring, {"method": "greedy", "colors": coloring.palette_size}
    if method == "extract":
        coloring, rep = neighborhood_extraction_color(graph)
        return coloring, {
            "method": "extract",
            "colors": rep.colors_used,
            "extractions": rep.extractions,
            "threshold": rep.threshold,
        }
    if method == "seek":
        coloring, rep = seek_only_color(graph, p, trace=trace, claim_log=claim_log)
    elif method == "pipeline":
        coloring, rep = pipeline_color(graph, p, trace=trace, claim_log=claim_log)
    else:
        raise ValueError(f"unknown method {method!r}")
    info = {
        "method": rep.method,
        "colors": rep.colors_used,
        "seek_calls": rep.seek_calls,
        "seek_progress_found": rep.seek_progress_found,
        "seek_failures": rep.seek_failures,
        "mechanisms": {
            "contractions": rep.stats.contractions,
            "type1_batches": rep.stats.type1_batches,
            "type2_batches": rep.stats.type2_batches,
            "deferred": rep.stats.deferred,
            "phases": rep.stats.phases,
        },
        "rounds_audited": len(rep.audits),
        "audits": [a.to_dict() for a in rep.audits],
    }
    return coloring, info


def cmd_color(args) -> int:
    try:
        graph = _load_graph(args.input)
        p = _load_params(args, graph)
    except (OSError, ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    trace: list | None = [] if args.trace else None
    report = {"n": graph.n, "m": graph.m}
    outputs = []
    started = time.perf_counter()
    try:
        coloring, info = _run_method(args.method, graph, p, trace, None)
    except Not3Colorable as exc:
        report.update(method=args.method, not3colorable=True,
                      witness={"hub": exc.hub, "cycle": list(exc.cycle)},
                      runtime_s=time.perf_counter() - started)
        message = f"not 3-colorable: odd cycle of length {len(exc.cycle)} in N({exc.hub})"
        code = EXIT_NOT3COLORABLE
    else:
        report.update(proper=True, not3colorable=False,
                      runtime_s=time.perf_counter() - started)
        ok, edge = is_proper_coloring(graph, coloring)
        if not ok:
            print(f"internal error: improper coloring at edge {edge}", file=sys.stderr)
            return EXIT_INTERNAL
        report.update(info)
        outputs.append((args.output, emit_coloring(coloring)))
        message = f"colored with {coloring.palette_size} colors ({args.method})"
        code = EXIT_OK
    if trace is not None:
        outputs.append((args.trace, "".join(json.dumps(entry, sort_keys=True) + "\n"
                                            for entry in trace)))
    outputs.append((args.report, report))
    failed = _write_outputs(outputs)
    if failed:
        return failed
    print(message)
    return code


def cmd_verify(args) -> int:
    if not 0 <= args.cap <= MAX_CAP:
        print(f"error: --oracle-cap must be between 0 and {MAX_CAP}, not {args.cap}",
              file=sys.stderr)
        return EXIT_IO
    try:
        graph = _load_graph(args.input)
        payload = _read_json(args.claims)
    except (OSError, ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    if isinstance(payload, dict):
        claims, k = payload.get("claims", []), payload.get("k", args.k)
    else:
        claims, k = payload, args.k
    if not isinstance(claims, list):
        print("error: claims file must hold a list of claims, or an object "
              "whose \"claims\" is one", file=sys.stderr)
        return EXIT_IO
    if k is not None and not (finite_number(k) and k >= 1):
        print(f"error: color target k must be a finite number >= 1, not {k!r}",
              file=sys.stderr)
        return EXIT_IO
    verdicts = []
    all_ok = True
    for idx, entry in enumerate(claims):
        verdict = verify_claim_dict(graph, entry, k, cap=args.cap)
        verdicts.append({
            "index": idx,
            "type": entry.get("type") if isinstance(entry, dict) else None,
            "verified": verdict.verified,
            "reasons": verdict.reasons,
        })
        all_ok = all_ok and verdict.verified
    if args.output:
        failed = _write_outputs([(args.output, verdicts)])
        if failed:
            return failed
    else:
        print(json.dumps(verdicts, indent=2, sort_keys=True))
    return EXIT_OK if all_ok else EXIT_REJECTED


BENCH_COLUMNS = [
    "method",
    "family",
    "n",
    "edge_prob",
    "seed",
    "colors",
    "proper",
    "outcome",
    "rounds",
    "seek_calls",
    "pass_rate_y_floor",
    "pass_rate_y_sqrt_cap",
    "pass_rate_y_round_cap",
    "y1_ratio_side",
    "y1_ratio_noside",
]


def _flag_rate(audit_dicts, flag: str) -> str:
    if not audit_dicts:
        return ""
    hits = sum(1 for a in audit_dicts if a[f"flag_{flag}"])
    return f"{hits / len(audit_dicts):.6f}"


# configurations tried in order until one completes a first round;
# raising both scales blocks the early large-set exit so cuts get exercised
ABLATION_LADDER = [(None, 1.0), (3.0, 2.0), (2.3, 1.5), (2.6, 2.0), (2.0, 2.0)]


def _ablation_ratios(graph: Graph) -> tuple[str, str]:
    """Round-1 |Y|/|T| with and without side cuts, same configuration."""
    for k, scale in ABLATION_LADDER:
        ratios = []
        for side_cuts in (True, False):
            p = Params.for_graph(graph.n, max(graph.min_degree(), 1),
                                 k=k, c1=scale, c2=scale, side_cuts=side_cuts)
            try:
                outcome = seek_progress(graph, p=p)
            except Not3Colorable:
                return "", ""
            first = [a for a in outcome.audits if a.j == 1]
            if not first or not first[0].size_T:
                break
            ratios.append(f"{first[0].size_Y / first[0].size_T:.6f}")
        if len(ratios) == 2:
            return ratios[0], ratios[1]
    return "", ""


def cmd_bench(args) -> int:
    try:
        sizes = [int(x) for x in args.sizes.split(",")]
        densities = [float(x) for x in args.densities.split(",")]
        for n in sizes:
            for prob in densities:
                GenParams(n=n, edge_prob=prob)
    except ValueError as exc:
        print(f"error: --sizes/--densities: {exc}", file=sys.stderr)
        return EXIT_IO
    methods = args.methods.split(",")
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        print(f"error: unknown method(s) {', '.join(unknown)}; "
              f"choose from {', '.join(METHODS)}", file=sys.stderr)
        return EXIT_IO
    if args.seeds < 1:
        print(f"error: --seeds must be at least 1, got {args.seeds}", file=sys.stderr)
        return EXIT_IO
    seeds = list(range(args.seeds))
    rows = []
    timings = []
    ablation_pairs = []
    for n in sizes:
        for prob in densities:
            family = f"planted-n{n}-p{prob}"
            for seed in seeds:
                graph, _ = generate_planted(
                    GenParams(n=n, edge_prob=prob, seed=seed)
                )
                ratio_side, ratio_noside = (
                    _ablation_ratios(graph) if args.ablation else ("", "")
                )
                if ratio_side and ratio_noside:
                    ablation_pairs.append((float(ratio_side), float(ratio_noside)))
                for method in methods:
                    row = {c: "" for c in BENCH_COLUMNS}
                    row.update({
                        "method": method,
                        "family": family,
                        "n": n,
                        "edge_prob": prob,
                        "seed": seed,
                        "y1_ratio_side": ratio_side,
                        "y1_ratio_noside": ratio_noside,
                    })
                    started = time.perf_counter()
                    try:
                        p = Params.for_graph(graph.n, max(graph.min_degree(), 1))
                        coloring, info = _run_method(method, graph, p, None, None)
                        ok, _ = is_proper_coloring(graph, coloring)
                        row["colors"] = coloring.palette_size
                        row["proper"] = ok
                        row["outcome"] = "colored"
                        row["seek_calls"] = info.get("seek_calls", "")
                        audits = info.get("audits")
                        if audits is not None:
                            row["rounds"] = len(audits)
                            row["pass_rate_y_floor"] = _flag_rate(audits, "y_size_floor")
                            row["pass_rate_y_sqrt_cap"] = _flag_rate(audits, "y_sqrt_cap")
                            row["pass_rate_y_round_cap"] = _flag_rate(audits, "y_round_cap")
                    except Not3Colorable:
                        row["outcome"] = "not3colorable"
                    except Exception as exc:  # partial results still flush
                        row["outcome"] = f"error:{type(exc).__name__}"
                    timings.append({
                        "method": method,
                        "family": family,
                        "seed": seed,
                        "runtime_s": time.perf_counter() - started,
                    })
                    rows.append(row)
    rows.sort(key=lambda r: (r["method"], r["family"], r["seed"]))
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=BENCH_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    errors = sum(1 for row in rows if row["outcome"].startswith("error:"))
    summary = {
        "rows": len(rows),
        "errors": errors,
        "methods": methods,
        "sizes": sizes,
        "densities": densities,
        "seeds": args.seeds,
        "ablation": {
            "instances": len(ablation_pairs),
            "mean_y1_ratio_side": (
                sum(a for a, _ in ablation_pairs) / len(ablation_pairs)
                if ablation_pairs else None
            ),
            "mean_y1_ratio_noside": (
                sum(b for _, b in ablation_pairs) / len(ablation_pairs)
                if ablation_pairs else None
            ),
        },
        "timings": timings,
    }
    failed = _write_outputs([(args.out_csv, buf.getvalue()), (args.out_json, summary)])
    if failed:
        return failed
    print(f"wrote {len(rows)} rows to {args.out_csv}")
    if errors:
        print(f"error: {errors} run(s) ended in an error", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_IO; argparse's own 2 means not 3-colorable here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_IO, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="threecolor",
        description="Combinatorial coloring of 3-colorable graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a planted instance")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--p", type=float, default=0.5)
    gen.add_argument("--balance", default="1,1,1",
                     help="three class weights, normalized")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--min-degree-target", type=int, default=None)
    gen.add_argument("--out", required=True, help="output path prefix")
    gen.set_defaults(func=cmd_generate)

    col = sub.add_parser("color", help="color a DIMACS graph")
    col.add_argument("--in", dest="input", required=True)
    col.add_argument("--out", dest="output", default=None)
    col.add_argument("--report", default=None)
    col.add_argument("--method", default="pipeline", choices=METHODS)
    col.add_argument("--params", default=None, help="JSON parameter overrides")
    col.add_argument("--no-side-cuts", action="store_true")
    col.add_argument("--trace", default=None, help="JSONL trace output path")
    col.set_defaults(func=cmd_color)

    ver = sub.add_parser("verify", help="verify a claims file")
    ver.add_argument("--in", dest="input", required=True)
    ver.add_argument("--claims", required=True)
    ver.add_argument("--out", dest="output", default=None)
    ver.add_argument("--k", type=float, default=None)
    ver.add_argument("--oracle-cap", dest="cap", type=int, default=25)
    ver.set_defaults(func=cmd_verify)

    ben = sub.add_parser("bench", help="run a method/instance/seed matrix")
    ben.add_argument("--sizes", default="500,1000,2000")
    ben.add_argument("--densities", default="0.5")
    ben.add_argument("--seeds", type=int, default=3)
    ben.add_argument("--methods", default="greedy,extract,pipeline")
    ben.add_argument("--ablation", action="store_true",
                     help="also record round-1 cut ratios with and without side cuts")
    ben.add_argument("--out-csv", required=True)
    ben.add_argument("--out-json", required=True)
    ben.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
