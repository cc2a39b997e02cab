"""Fast test of the benchmark itself: every workload end to end at tiny
sizes, and the output checkers on outputs they must reject.

    python3 -m pytest perfbench -q
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from tracer import FUNCTIONS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload: str, trace: int) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, cwd=HERE.parent, timeout=300,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_runs_end_to_end(workload, trace):
    code, result = run(workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_spec_lists_the_workloads_and_every_layer_function():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = {m["name"] for m in SPEC["per_layer"]}
    for fn in FUNCTIONS:
        assert {f"{fn}.calls", f"{fn}.total_s", f"{fn}.self_s"} <= names


# a 4-cycle 0-1-2-3-0 with the chord 0-2, planted coloring (0, 1, 2, 1)
ROWS = (0b1110, 0b0101, 0b1011, 0b0101)
PLANTED = (0, 1, 2, 1)


def test_coloring_checker_accepts_a_proper_coloring():
    assert checks.coloring_problems(ROWS, PLANTED, 3) == []


def test_coloring_checker_rejects_one_monochromatic_edge():
    found = checks.coloring_problems(ROWS, (0, 1, 2, 2), 3)
    assert found == ["edge (2, 3) has both ends colored 2"]


def test_coloring_checker_rejects_partial_or_out_of_palette():
    assert checks.coloring_problems(ROWS, (0, 1, 2), 3)
    assert checks.coloring_problems(ROWS, (0, 1, 3, 1), 3)
    assert checks.coloring_problems(ROWS, (0, 1, None, 1), 3)


def test_graph_checker_rejects_a_changed_row():
    class Parsed:
        n, m = 4, 5

        def adj_bits(self, v):
            return ROWS[v] ^ (v == 1)

    assert checks.same_graph_problems(ROWS, 5, Parsed())


@pytest.mark.parametrize("kind, vertices, conditional", [
    ("type0", (0, 1), None),
    ("mono", (1, 2), None),
    ("multi", (1, 3), None),
    ("mono_if_differ", (0, 1), (0, 2)),
])
def test_claim_screen_rejects_claims_the_planted_coloring_contradicts(
        kind, vertices, conditional):
    assert checks.claim_problems(kind, vertices, conditional, PLANTED)


@pytest.mark.parametrize("kind, vertices, conditional", [
    ("type0", (1, 3), None),
    ("mono", (1, 3), None),
    ("multi", (0, 1, 3), None),
    ("mono_if_differ", (0, 1), (1, 3)),  # the pair shares a planted color
])
def test_claim_screen_accepts_claims_the_planted_coloring_meets(
        kind, vertices, conditional):
    assert checks.claim_problems(kind, vertices, conditional, PLANTED) == []
