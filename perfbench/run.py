"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pipeline-dense --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the library is imported from
``src/`` beside this directory, never from an installed copy.  The run
builds the workload's instances from ``--seed`` (set-up, repeated
``SETUP_REPEATS`` times and compared), colors one untimed warm-up
instance, then repeats whole rounds of the instance list for about
``--seconds``: a further round starts only if one more round as long as
the last one still ends within ``--seconds``.  The first round's
outputs are kept and checked after the timed phase; each later output is
compared with the first round's as it comes (untimed) and then dropped,
so the peak resident set is the same however many rounds fit.  ``setup_s`` is the import time, counted from
the first line of this file, plus the median build and the warm-up.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` the timed phase runs
once untraced and once, for the same number of rounds, with every
layer function wrapped, and the JSON carries the per-layer metrics.
Spans go to ``perfbench/out/``.  The exit code is 0 only when no
instance failed and every check passed.

Times are reported at a reference machine speed.  This machine's speed
drifts by a third over tens of seconds (other tenants share its cores),
which moves every timing of a run together.  So the timed phase also
times a fixed pure-Python loop, ``reference_loop``, between instances
about every ``LOOP_EVERY_S``; each reported time is the measured time
scaled by ``REFERENCE_LOOP_S`` over the run's median loop time, and
instances per second by the inverse.  The unscaled figures are printed
beside them.
"""
import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
MAX_PROBLEMS_SHOWN = 5
LOOP_ITERATIONS = 100_000
REFERENCE_LOOP_S = 0.0075  # the loop's time on a quiet 2.1 GHz core, Python 3.11
LOOP_EVERY_S = 0.1


def import_library():
    """Import threecolor from this checkout's src/ and nowhere else."""
    package = SRC / "threecolor"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no library sources at {package}")
    sys.path.insert(0, str(SRC))
    import threecolor
    import threecolor.baselines  # noqa: F401  (submodules the workloads call)
    import threecolor.dimacs  # noqa: F401
    import threecolor.generate  # noqa: F401
    import threecolor.graph  # noqa: F401
    import threecolor.oracle  # noqa: F401
    import threecolor.params  # noqa: F401
    import threecolor.search  # noqa: F401

    if Path(threecolor.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: threecolor was imported from {threecolor.__file__}")
    return threecolor


def parse_args(argv):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="run whole rounds until this much time has passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny runs a few small instances, for the benchmark's own test")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    return args


def reference_loop() -> float:
    """Time a fixed pure-Python loop that touches no library code."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(LOOP_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t0


class Phase:
    """Outcome of repeating whole rounds of the instance list."""

    def __init__(self):
        self.rounds = 0
        self.wall_s = 0.0  # without the reference loops and the comparisons
        self.times: list[float] = []
        self.loops: list[float] = []
        # the first round's outputs, one or None per instance; later rounds
        # are compared with them as they end and then dropped, so the peak
        # resident set does not grow with the number of rounds
        self.outputs: list = []
        self.compare_s = 0.0
        self.differs: list[str] = []
        self.failures: list[str] = []

    def speed(self) -> float:
        """Reference loop time over this phase's median loop time."""
        return REFERENCE_LOOP_S / statistics.median(self.loops)


def timed_rounds(tc, wl, instances, *, seconds=None, rounds=None) -> Phase:
    """Run exactly ``rounds`` whole rounds, or else at least one and then
    another only while the last round's length still fits in ``seconds``."""
    ph = Phase()
    clock = time.perf_counter
    started = round_started = clock()
    last_loop = started - LOOP_EVERY_S
    firsts = None  # the first round's signatures
    while True:
        for i, inst in enumerate(instances):
            if clock() - last_loop >= LOOP_EVERY_S:
                ph.loops.append(reference_loop())
                last_loop = clock()
            t0 = clock()
            try:
                out = wl.operate(tc, inst)
            except Exception as exc:  # a failed instance is counted, not fatal
                ph.times.append(clock() - t0)
                ph.failures.append(f"instance {inst.index}: {type(exc).__name__}: {exc}")
                out = None
            else:
                ph.times.append(clock() - t0)
            if firsts is None:
                ph.outputs.append(out)
                continue
            t0 = clock()
            if out is not None and firsts[i] is not None and wl.signature(out) != firsts[i]:
                ph.differs.append(
                    f"instance {inst.index}: round {ph.rounds} output differs from round 0")
            ph.compare_s += clock() - t0
        if firsts is None:
            t0 = clock()
            firsts = [None if out is None else wl.signature(out) for out in ph.outputs]
            ph.compare_s += clock() - t0
        ph.rounds += 1
        now = clock()
        last_round, round_started = now - round_started, now
        if (rounds is not None and ph.rounds >= rounds) or (
                rounds is None and now - started + last_round > seconds):
            ph.wall_s = now - started - sum(ph.loops) - ph.compare_s
            return ph


def output_problems(wl, instances, ph: Phase) -> list[str]:
    problems = []
    for inst, out in zip(instances, ph.outputs):
        if out is not None:
            problems += [f"instance {inst.index}: {p}" for p in wl.check(inst, out)]
    return problems + ph.differs


def colors_used(wl, ph: Phase) -> int:
    return sum(wl.colors(out) for out in ph.outputs if out is not None)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup(tc, wl, size, seed):
    """Build the instances SETUP_REPEATS times; returns them, build times, problems."""
    import workloads

    build_s, problems, first = [], [], None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        built = workloads.build(tc, wl, seed, size)
        build_s.append(time.perf_counter() - t0)
        if first is None:
            first = built
        elif [(i.rows, i.planted, i.graph.n, i.graph.m) for i in built] != [
                (i.rows, i.planted, i.graph.n, i.graph.m) for i in first]:
            problems.append("the same seed built different instances")
        del built
    for inst in first:
        problems += workloads.input_problems(inst)
    return first[:-1], first[-1], build_s, problems


def layer_report(wl, tracer, untraced: Phase, traced: Phase):
    from tracer import FUNCTIONS, NAME, PARENT, PHASE, START, END, CHILD

    m = tracer.layer_metrics()
    c = tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    seek_calls = m["search.seek_progress.calls"]
    m["search.seek_progress.progress_ratio"] = ratio(c["search.seek_progress.progress"], seek_calls)
    m["search.seek_progress.roots_per_call"] = ratio(c["search.seek_progress.roots_tried"], seek_calls)
    m["search.cut_or_color.verdict_ratio"] = ratio(
        c["search.cut_or_color.verdicts"], m["search.cut_or_color.calls"])
    m["search.best_side_cut.adopted_ratio"] = ratio(
        c["search.seek_progress.side_cuts_adopted"], c["search.seek_progress.side_cut_checks"])
    for field in ("deferred", "contractions", "type1_batches", "type2_batches",
                  "fallback_colored"):
        key = f"progress.color_with_progress.{field}"
        m[key] = c[key]
    m["oracle.enumerate_3colorings.reps"] = c["oracle.enumerate_3colorings.reps"]
    m["trace.overhead_s"] = traced.wall_s - untraced.wall_s

    # share of the timed phase's self time under the stressed functions
    spans = tracer.spans
    under = [False] * len(spans)
    total = held = 0.0
    by_module: dict[str, float] = {}
    for i, span in enumerate(spans):
        parent = span[PARENT]
        under[i] = span[NAME] in wl.stressed or (parent >= 0 and under[parent])
        if span[PHASE] != "timed":
            continue
        own = span[END] - span[START] - span[CHILD]
        total += own
        module = span[NAME].split(".")[0]
        by_module[module] = by_module.get(module, 0.0) + own
        if under[i] or span[NAME] in wl.stressed_self:
            held += own
    lines = [f"stress {wl.name}: stressed functions hold {ratio(held, total):.1%} "
             f"of timed self time ({', '.join(wl.stressed + wl.stressed_self)})"]
    for module, own in sorted(by_module.items(), key=lambda kv: -kv[1]):
        lines.append(f"  module {module}: {ratio(own, total):.1%} of timed self time")
    by_fn = tracer.self_time_by_function("timed")
    for name in sorted(FUNCTIONS, key=lambda f: -by_fn[f])[:8]:
        lines.append(f"  {name}: self {ratio(by_fn[name], total):.1%}, "
                     f"calls {m[name + '.calls']}")
    for metric, want in wl.expect:
        value = m[metric]
        ok = value == 0 if want == "==0" else value > 0
        lines.append(f"  expect {metric} {want}: {'yes' if ok else 'NO'} ({value})")
    return m, lines, ratio(held, total)


def main(argv=None) -> int:
    args = parse_args(argv)
    tc = import_library()
    import_s = time.perf_counter() - _STARTED
    from tracer import Tracer
    from workloads import WORKLOADS, describe

    wl = WORKLOADS[args.workload]
    size = wl.sizes[args.scale]
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    instances, warm, build_s, problems = setup(tc, wl, size, args.seed)
    if tracer:
        tracer.uninstall()
    t0 = time.perf_counter()
    wl.operate(tc, warm)
    warm_s = time.perf_counter() - t0
    setup_s = import_s + statistics.median(build_s) + warm_s

    print(f"{describe(wl, size)} seed={args.seed} trace={args.trace}")
    ph = timed_rounds(tc, wl, instances, seconds=args.seconds)
    phases = [ph]
    if tracer:
        tracer.phase = "timed"
        tracer.install()
        traced = timed_rounds(tc, wl, instances, rounds=ph.rounds)
        tracer.uninstall()
        phases.append(traced)
    attempted = sum(len(p.times) for p in phases)
    failures = [f for p in phases for f in p.failures]
    for p in phases:
        problems += output_problems(wl, instances, p)
    correct = not problems
    for line in failures[:MAX_PROBLEMS_SHOWN] + problems[:MAX_PROBLEMS_SHOWN]:
        print(f"problem: {line}", file=sys.stderr)

    if tracer:
        metrics, lines, share = layer_report(wl, tracer, ph, traced)
        print("\n".join(lines))
        trace_path = OUT / f"spans-{wl.name}-seed{args.seed}.jsonl"
        tracer.write(trace_path, {
            "workload": wl.name, "seed": args.seed, "rounds": ph.rounds,
            "stressed_share": share, "lines": lines,
        })
        print(f"spans written to {trace_path.relative_to(HERE.parent)}")
        units = {}
    else:
        speed = ph.speed()
        per_s = len(ph.times) / ph.wall_s
        p50_ms = statistics.median(ph.times) * 1000.0
        metrics = {
            "instances_per_s": per_s / speed,
            "instance_p50_ms": p50_ms * speed,
            "setup_s": setup_s * speed,
            "peak_rss_mb": peak_rss_mb(),
            "colors_used": colors_used(wl, ph),
        }
        units = {"instances_per_s": "1/s", "instance_p50_ms": "ms", "setup_s": "s",
                 "peak_rss_mb": "MiB", "colors_used": "colors"}
        print(f"rounds={ph.rounds} timed_wall_s={ph.wall_s:.3f} "
              f"reference loops={len(ph.loops)} median={statistics.median(ph.loops) * 1000:.3f}ms "
              f"speed factor={speed:.4f}")
        print(f"unscaled: instances_per_s={per_s:.4f} instance_p50_ms={p50_ms:.3f} "
              f"setup_s={setup_s:.4f} (import {import_s:.3f}s, builds "
              f"{[round(b, 3) for b in build_s]}, warm-up {warm_s:.3f}s)")
    for name, value in metrics.items():
        print(f"{name} = {value} {units.get(name, layer_unit(name))}")
    print(f"attempted = {attempted}  failed = {len(failures)}  correct = {correct}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units.get(name, layer_unit(name))}
                    for name, value in metrics.items()},
    }))
    return 0 if correct and not failures else 1


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_per_call"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
