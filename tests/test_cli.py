import json
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from test_baselines import fuzz_graph

import threecolor.cli
from threecolor.cli import main
from threecolor.dimacs import MAX_VERTICES, emit_dimacs, parse_coloring, parse_dimacs
from threecolor.generate import GenParams, generate_planted
from threecolor.graph import build_graph, is_proper_coloring
from threecolor.oracle import MAX_NODES

K4_TEXT = "p edge 4 6\ne 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4\n"

# the paper's constants, fixed in the code and refused in a params file
FIXED_CONSTANTS = (
    "k_scale", "highdeg_factor", "sidecut_factor", "term_factor", "bucket_base",
    "bucket_floor_divisor", "base_degree_divisor", "min_degree_divisor",
    "degree_cap", "root_retries", "n0", "tau",
)


def run_cli(args):
    return main(args)


class TestGenerate:
    def test_writes_three_files(self, tmp_path):
        out = tmp_path / "inst"
        code = run_cli(["generate", "--n", "40", "--p", "0.5", "--seed", "7",
                        "--out", str(out)])
        assert code == 0
        graph = parse_dimacs((tmp_path / "inst.col").read_text())
        coloring = parse_coloring((tmp_path / "inst.sol").read_text(), graph.n)
        ok, _ = is_proper_coloring(graph, coloring)
        assert ok
        meta = json.loads((tmp_path / "inst.json").read_text())
        assert meta["seed"] == 7 and meta["n"] == 40

    def test_rerun_byte_identical(self, tmp_path):
        for name in ("a", "b"):
            run_cli(["generate", "--n", "30", "--p", "0.4", "--seed", "3",
                     "--out", str(tmp_path / name)])
        for suffix in (".col", ".sol", ".json"):
            assert (tmp_path / ("a" + suffix)).read_bytes() == \
                (tmp_path / ("b" + suffix)).read_bytes()

    @pytest.mark.parametrize("flags", [
        ["--balance", "1,x,1"], ["--balance", "nan,1,1"], ["--balance", "inf,1,1"],
        ["--n", str(MAX_VERTICES + 1)],
        # the largest class holds 4 of the 10 vertices, so 6 is the most
        ["--min-degree-target", "7"], ["--p", "0", "--min-degree-target", "1"],
    ])
    def test_unusable_input_exits_4(self, tmp_path, capsys, flags):
        code = run_cli(["generate", "--n", "10", *flags, "--out", str(tmp_path / "g")])
        assert code == 4
        assert not list(tmp_path.iterdir())
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_output_under_a_file_exits_4(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        code = run_cli(["generate", "--n", "10", "--out", str(tmp_path / "file" / "g")])
        assert code == 4
        assert capsys.readouterr().err.startswith("error:")

    def test_p_zero_edgeless(self, tmp_path):
        run_cli(["generate", "--n", "10", "--p", "0", "--out",
                 str(tmp_path / "z")])
        graph = parse_dimacs((tmp_path / "z.col").read_text())
        assert graph.m == 0


class TestColor:
    def test_triangle(self, tmp_path):
        src = tmp_path / "tri.col"
        src.write_text("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
        out = tmp_path / "tri.sol"
        rep = tmp_path / "tri.report.json"
        code = run_cli(["color", "--in", str(src), "--out", str(out),
                        "--report", str(rep)])
        assert code == 0
        graph = parse_dimacs(src.read_text())
        coloring = parse_coloring(out.read_text(), 3)
        ok, _ = is_proper_coloring(graph, coloring)
        assert ok
        report = json.loads(rep.read_text())
        assert report["proper"] is True

    def test_k4_exit_code_2(self, tmp_path):
        src = tmp_path / "k4.col"
        src.write_text(K4_TEXT)
        rep = tmp_path / "k4.report.json"
        code = run_cli(["color", "--in", str(src), "--report", str(rep)])
        assert code == 2
        report = json.loads(rep.read_text())
        assert report["not3colorable"] is True
        cycle = report["witness"]["cycle"]
        assert len(cycle) % 2 == 1

    def test_methods_all_proper(self, tmp_path):
        g, _ = generate_planted(GenParams(n=90, edge_prob=0.5, seed=11))
        src = tmp_path / "g.col"
        src.write_text(emit_dimacs(g))
        for method in ("pipeline", "greedy", "extract", "seek"):
            out = tmp_path / f"{method}.sol"
            code = run_cli(["color", "--in", str(src), "--out", str(out),
                            "--method", method])
            assert code == 0
            coloring = parse_coloring(out.read_text(), g.n)
            ok, _ = is_proper_coloring(g, coloring)
            assert ok

    def test_missing_file_exit_4(self, tmp_path):
        assert run_cli(["color", "--in", str(tmp_path / "nope.col")]) == 4

    @pytest.mark.parametrize("text", ["p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n", K4_TEXT],
                             ids=["triangle", "k4"])
    @pytest.mark.parametrize("flag", ["--out", "--report", "--trace"])
    def test_unwritable_output_path_exits_4(self, tmp_path, capsys, text, flag):
        # K4 ends in the not-3-colorable branch, which writes no --out
        src = tmp_path / "g.col"
        src.write_text(text)
        bad = tmp_path / "nodir" / "x"
        code = run_cli(["color", "--in", str(src), flag, str(bad)])
        assert code == (2 if flag == "--out" and text == K4_TEXT else 4)
        captured = capsys.readouterr()
        if code == 4:
            assert captured.err.startswith("error:") and str(bad) in captured.err
            assert not captured.out

    def test_trace_written(self, tmp_path):
        g, _ = generate_planted(GenParams(n=80, edge_prob=0.5, seed=1))
        src = tmp_path / "g.col"
        src.write_text(emit_dimacs(g))
        trace_path = tmp_path / "trace.jsonl"
        run_cli(["color", "--in", str(src), "--trace", str(trace_path)])
        lines = trace_path.read_text().splitlines()
        assert lines
        for line in lines:
            json.loads(line)

    def test_params_file_respected(self, tmp_path):
        g, _ = generate_planted(GenParams(n=80, edge_prob=0.5, seed=1))
        src = tmp_path / "g.col"
        src.write_text(emit_dimacs(g))
        pfile = tmp_path / "params.json"
        pfile.write_text(json.dumps(
            {"k": 2.5, "c1": 2.0, "c2": 2.0}
        ))
        rep = tmp_path / "report.json"
        code = run_cli(["color", "--in", str(src), "--method", "seek",
                        "--params", str(pfile), "--report", str(rep)])
        assert code == 0
        report = json.loads(rep.read_text())
        assert report["method"] == "seek"

    def test_inconsistent_params_exit_4(self, tmp_path):
        g, _ = generate_planted(GenParams(n=70, edge_prob=0.5, seed=1))
        src = tmp_path / "g.col"
        src.write_text(emit_dimacs(g))
        pfile = tmp_path / "params.json"
        pfile.write_text(json.dumps({"c1": 2.0}))
        code = run_cli(["color", "--in", str(src), "--params", str(pfile)])
        assert code == 4

    def test_no_side_cuts_flag(self, tmp_path):
        g, _ = generate_planted(GenParams(n=80, edge_prob=0.5, seed=1))
        src = tmp_path / "g.col"
        src.write_text(emit_dimacs(g))
        out = tmp_path / "g.sol"
        code = run_cli(["color", "--in", str(src), "--no-side-cuts",
                        "--out", str(out)])
        assert code == 0
        coloring = parse_coloring(out.read_text(), g.n)
        ok, _ = is_proper_coloring(g, coloring)
        assert ok


class TestVerify:
    def test_claims_roundtrip(self, tmp_path):
        src = tmp_path / "p3.col"
        src.write_text("p edge 3 2\ne 1 2\ne 2 3\n")
        claims = {
            "k": 1.5,
            "claims": [
                {"type": "type1", "vertices": [0, 2]},
                {"type": "multi", "vertices": [0, 1]},
            ],
        }
        cfile = tmp_path / "claims.json"
        cfile.write_text(json.dumps(claims))
        out = tmp_path / "verdicts.json"
        code = run_cli(["verify", "--in", str(src), "--claims", str(cfile),
                        "--out", str(out)])
        assert code == 0
        verdicts = json.loads(out.read_text())
        assert all(v["verified"] for v in verdicts)

    def test_rejection_exit_3(self, tmp_path):
        src = tmp_path / "p3.col"
        src.write_text("p edge 3 2\ne 1 2\ne 2 3\n")
        cfile = tmp_path / "claims.json"
        cfile.write_text(json.dumps([{"type": "type0", "pair": [0, 2]}]))
        code = run_cli(["verify", "--in", str(src), "--claims", str(cfile)])
        assert code == 3

    def test_unwritable_out_exits_4(self, tmp_path, capsys):
        src = tmp_path / "p3.col"
        src.write_text("p edge 3 2\ne 1 2\ne 2 3\n")
        cfile = tmp_path / "claims.json"
        cfile.write_text("[]")
        code = run_cli(["verify", "--in", str(src), "--claims", str(cfile),
                        "--out", str(tmp_path / "nodir" / "v.json")])
        assert code == 4
        assert capsys.readouterr().err.startswith("error:")

    def test_deeply_nested_claims_file_exits_4(self, tmp_path, capsys):
        src = tmp_path / "p3.col"
        src.write_text("p edge 3 2\ne 1 2\ne 2 3\n")
        cfile = tmp_path / "claims.json"
        cfile.write_text("[" * 100_000)
        code = run_cli(["verify", "--in", str(src), "--claims", str(cfile)])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(cfile) in err

    def test_empty_claims_ok(self, tmp_path):
        src = tmp_path / "p3.col"
        src.write_text("p edge 3 2\ne 1 2\ne 2 3\n")
        cfile = tmp_path / "claims.json"
        cfile.write_text("[]")
        out = tmp_path / "v.json"
        code = run_cli(["verify", "--in", str(src), "--claims", str(cfile),
                        "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text()) == []

    def test_mono_claim_on_small_instance(self, tmp_path):
        # complete bipartite S x T plus one T-edge forces S monochromatic
        edges = [(0, 1), (0, 2), (0, 3)]
        edges += [(s, t) for s in (1, 2, 3) for t in (4, 5, 6)]
        edges.append((4, 5))
        g = build_graph(7, edges)
        src = tmp_path / "m.col"
        src.write_text(emit_dimacs(g))
        cfile = tmp_path / "claims.json"
        cfile.write_text(json.dumps([
            {"type": "mono", "vertices": [1, 2, 3]},
            {"type": "mono", "vertices": [1, 2, 3], "conditional": [4, 0]},
        ]))
        code = run_cli(["verify", "--in", str(src), "--claims", str(cfile)])
        assert code == 0

    @pytest.mark.parametrize("text", ['"str"', '{"claims": 5}'])
    def test_claims_file_not_a_list_exits_4(self, tmp_path, text):
        src = tmp_path / "p3.col"
        src.write_text("p edge 3 2\ne 1 2\ne 2 3\n")
        cfile = tmp_path / "claims.json"
        cfile.write_text(text)
        assert run_cli(["verify", "--in", str(src), "--claims", str(cfile)]) == 4

    @pytest.mark.parametrize("k", ["x", 0, 0.5, True, [2], 10**400])
    def test_unusable_color_target_exits_4(self, tmp_path, capsys, k):
        src = tmp_path / "p3.col"
        src.write_text("p edge 3 2\ne 1 2\ne 2 3\n")
        cfile = tmp_path / "claims.json"
        cfile.write_text(json.dumps({"k": k, "claims": [
            {"type": "type1", "vertices": [0, 2]},
        ]}))
        out = tmp_path / "v.json"
        code = run_cli(["verify", "--in", str(src), "--claims", str(cfile),
                        "--out", str(out)])
        assert code == 4
        assert "color target k" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("entry", [
        1,
        {"type": "mono", "vertices": [0, 2], "conditional": [0]},
        {"type": "mono", "vertices": [0, 2.0]},
        {"type": "multi", "vertices": [0, 30]},
        {"type": "multi", "vertices": [True]},
        {"type": "mono", "vertices": []},
        {"type": "mono", "vertices": [0, 2], "conditional": [1, 3]},
        {"type": "type1", "vertices": [2.0]},
        {"type": "type2", "vertices": [-1]},
        {"type": "type0", "pair": [0, 3]},
    ])
    def test_malformed_entry_rejected(self, tmp_path, entry):
        src = tmp_path / "p3.col"
        src.write_text("p edge 3 2\ne 1 2\ne 2 3\n")
        cfile = tmp_path / "claims.json"
        cfile.write_text(json.dumps([entry]))
        out = tmp_path / "v.json"
        code = run_cli(["verify", "--in", str(src), "--claims", str(cfile),
                        "--out", str(out), "--k", "2"])
        assert code == 3
        [verdict] = json.loads(out.read_text())
        assert not verdict["verified"]
        assert verdict["reasons"][0].startswith("malformed claim")

    @pytest.mark.parametrize("cap", ["2000", "65", "-1"])
    def test_oracle_cap_outside_its_range_exits_4(self, tmp_path, capsys, cap):
        # the walk recurses once per vertex: a cap of 2000 on this path once
        # ended in RecursionError
        n = 1100
        src = tmp_path / "path.col"
        src.write_text(emit_dimacs(build_graph(n, [(v, v + 1) for v in range(n - 1)])))
        cfile = tmp_path / "claims.json"
        cfile.write_text(json.dumps([{"type": "multi", "vertices": [0, 1]}]))
        args = ["verify", "--in", str(src), "--claims", str(cfile)]
        assert run_cli(args + ["--oracle-cap", cap]) == 4
        assert "--oracle-cap" in capsys.readouterr().err
        out = tmp_path / "v.json"
        assert run_cli(args + ["--oracle-cap", "64", "--out", str(out)]) == 3
        [verdict] = json.loads(out.read_text())
        assert verdict["reasons"] == ["n = 1100 exceeds the enumeration cap 64"]

    def test_edgeless_graph_at_the_top_cap_gives_a_verdict(self, tmp_path):
        # 40 vertices are within the cap but have about 3^39 / 6 colorings;
        # the walk once ran on past any time limit, now it stops at
        # oracle.MAX_NODES
        src = tmp_path / "edgeless.col"
        src.write_text("p edge 40 0\n")
        cfile = tmp_path / "claims.json"
        cfile.write_text(json.dumps([{"type": "multi", "vertices": [0, 1]}]))
        out = tmp_path / "v.json"
        assert run_cli(["verify", "--in", str(src), "--claims", str(cfile),
                        "--oracle-cap", "64", "--out", str(out)]) == 3
        [verdict] = json.loads(out.read_text())
        assert verdict["reasons"] == [
            f"the enumeration passed {MAX_NODES} search nodes on the 40-vertex graph"
        ]

    @pytest.mark.parametrize("bad", ["graph", "claims"])
    def test_non_utf8_file_exits_4(self, tmp_path, capsys, bad):
        src = tmp_path / "p3.col"
        src.write_bytes(b"p edge 3 1\ne 1 \xff2\n" if bad == "graph"
                        else b"p edge 3 1\ne 1 2\n")
        cfile = tmp_path / "claims.json"
        cfile.write_bytes(b'[{"type": "multi", "vertices": [0, 1]}]'
                          + (b"\xff" if bad == "claims" else b""))
        out = tmp_path / "v.json"
        code = run_cli(["verify", "--in", str(src), "--claims", str(cfile),
                        "--out", str(out)])
        assert code == 4
        bad_path = src if bad == "graph" else cfile
        assert f"{bad_path} is not UTF-8 text" in capsys.readouterr().err
        assert not out.exists()


class TestUsage:
    def test_usage_error_exits_4(self, tmp_path):
        # a removed flag must not read as the not-3-colorable exit code 2
        with pytest.raises(SystemExit) as err:
            run_cli(["color", "--in", str(tmp_path / "g.col"), "--seed", "1"])
        assert err.value.code == 4

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli(["color", "--help"])
        assert err.value.code == 0

    def test_huge_declared_vertex_count_exits_4(self, tmp_path, capsys):
        src = tmp_path / "huge.col"
        src.write_text("p edge 100000000000 0\n")
        assert run_cli(["color", "--in", str(src)]) == 4
        assert "above the limit" in capsys.readouterr().err

    def test_params_file_with_unknown_key_exits_4(self, tmp_path, capsys):
        src = tmp_path / "k4.col"
        src.write_text(K4_TEXT)
        params = tmp_path / "params.json"
        for key in ("no_such_knob",) + FIXED_CONSTANTS:
            params.write_text(json.dumps({key: 25}))
            assert run_cli(["color", "--in", str(src), "--params", str(params)]) == 4
            assert f"unknown parameter {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        # derived per working graph by the search, so not settable
        '{"nhat": 2}', '{"round_cap": 2}',
        # wrong type or range
        '{"nhat": "x"}', '{"c1": "2"}', '{"k": [1]}',
        '{"c1": NaN, "c2": NaN}', '{"side_cuts": "no"}',
        # fixed constants: refused whatever the value, as unknown parameters
        '{"tau": "x"}', '{"tau": NaN}', '{"degree_cap": "1/0"}',
        '{"bucket_floor_divisor": 0}', '{"base_degree_divisor": 0}',
        '{"min_degree_divisor": 0}',
    ])
    def test_params_file_with_a_refused_value_exits_4(self, tmp_path, text):
        src = tmp_path / "k4.col"
        src.write_text(K4_TEXT)
        params = tmp_path / "params.json"
        params.write_text(text)
        assert run_cli(["color", "--in", str(src), "--params", str(params)]) == 4

    def test_deeply_nested_params_file_exits_4(self, tmp_path, capsys):
        src = tmp_path / "k4.col"
        src.write_text(K4_TEXT)
        params = tmp_path / "params.json"
        params.write_text('{"k": ' + "[" * 100_000)
        assert run_cli(["color", "--in", str(src), "--params", str(params)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(params) in err

    def test_bucket_base_past_the_degree_cap_exits_4(self, tmp_path, capsys):
        # on this graph a bucket base of 2 would leave T-side degrees above
        # DEGREE_CAP * delta_T; the base is a fixed constant, so the file is refused
        graph, _ = generate_planted(GenParams(n=400, edge_prob=0.5, seed=0))
        src = tmp_path / "g.col"
        src.write_text(emit_dimacs(graph))
        params = tmp_path / "params.json"
        params.write_text('{"bucket_base": 2}')
        assert run_cli(["color", "--in", str(src), "--params", str(params)]) == 4
        assert "bucket_base" in capsys.readouterr().err


# tokens that are not vertex ids or counts: non-integers, junk and empty
BAD_TOKENS = st.sampled_from(["x", "1.5", "0x1", "1e2", "-", "", "e", "p", "edge",
                              "99999999999999999999"])
JUNK_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)


@st.composite
def dimacs_like(draw):
    """Text close to a DIMACS graph file.  Each malformation is drawn on
    its own, about one time in five, so that many files still parse: a
    problem line that is wrong, misplaced, repeated or missing; edge
    ids out of range or not integers; a repeated edge, either way
    round; a self loop; comments, blank lines and junk lines anywhere.
    Declared sizes stay small, so a file that parses colors quickly."""
    def sometimes():  # shrinks towards False, so towards a well-formed file
        return draw(st.integers(0, 4)) == 4

    n = draw(st.integers(0, 9))
    good_id = st.integers(1, max(n, 1))
    ids = st.one_of(st.integers(-2, n + 2), BAD_TOKENS) if sometimes() else good_id
    edges = draw(st.lists(st.tuples(ids, ids), max_size=14))
    if edges and sometimes():
        u, v = draw(st.sampled_from(edges))
        edges.append(draw(st.sampled_from([(u, v), (v, u)])))
    if sometimes():
        v = draw(ids)
        edges.append((v, v))
    lines = [f"e {u} {v}" for u, v in edges]
    declared_n, declared_m = n, len(edges)
    if sometimes():
        declared_n = draw(st.one_of(st.sampled_from([-1, MAX_VERTICES + 1]), BAD_TOKENS))
    if sometimes():
        declared_m = draw(st.one_of(st.integers(-1, 20), BAD_TOKENS))
    problem = f"p edge {declared_n} {declared_m}"
    if sometimes():
        problem = draw(st.sampled_from([
            f"p col {n} {len(edges)}", f"p edge {n}", f"p edge {n} {len(edges)} 0", "p",
        ]))
    at = draw(st.integers(0, len(lines))) if sometimes() else 0
    if not sometimes():
        lines.insert(at, problem)
    if sometimes():
        lines.insert(draw(st.integers(0, len(lines))), problem)
    extras = st.one_of(JUNK_TEXT.map(lambda t: "c" + t), st.just(""), JUNK_TEXT,
                       st.lists(BAD_TOKENS, min_size=1, max_size=4).map(" ".join))
    for extra in draw(st.lists(extras, max_size=3)) if sometimes() else []:
        lines.insert(draw(st.integers(0, len(lines))), extra)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))


@given(dimacs_like())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_color_on_dimacs_like_text_never_raises(tmp_path, text):
    # a parse failure exits 4; anything that parses is colored (0) or
    # shown not 3-colorable (2)
    src = tmp_path / "fuzz.col"
    src.write_text(text)
    assert main(["color", "--in", str(src)]) in (0, 2, 4)


def test_seek_on_a_graph_that_is_not_3_colorable(tmp_path):
    # fuzz seed 1330: the seek colorer once ended here in UnsoundProgress
    src = tmp_path / "g.col"
    src.write_text(emit_dimacs(fuzz_graph(1330)))
    assert run_cli(["color", "--in", str(src), "--method", "seek",
                    "--report", str(tmp_path / "r.json")]) in (0, 2)


class TestBench:
    def test_matrix_shape_and_determinism(self, tmp_path):
        args = ["bench", "--sizes", "40,60", "--densities", "0.5",
                "--seeds", "2", "--methods", "greedy,extract,pipeline",
                "--ablation"]
        csv1, json1 = tmp_path / "b1.csv", tmp_path / "b1.json"
        csv2, json2 = tmp_path / "b2.csv", tmp_path / "b2.json"
        assert run_cli(args + ["--out-csv", str(csv1), "--out-json", str(json1)]) == 0
        assert run_cli(args + ["--out-csv", str(csv2), "--out-json", str(json2)]) == 0
        assert csv1.read_bytes() == csv2.read_bytes()
        rows = csv1.read_text().splitlines()
        assert len(rows) == 1 + 2 * 1 * 2 * 3  # header + sizes*densities*seeds*methods
        summary = json.loads(json1.read_text())
        assert summary["rows"] == 12
        assert "ablation" in summary
        assert summary["ablation"]["mean_y1_ratio_side"] is not None

    def test_unknown_method_rejected_before_running(self, tmp_path, capsys):
        code = run_cli(["bench", "--sizes", "30", "--densities", "0.5", "--seeds", "1",
                        "--methods", "greedy,bogus", "--out-csv", str(tmp_path / "b.csv"),
                        "--out-json", str(tmp_path / "b.json")])
        assert code == 4
        assert "bogus" in capsys.readouterr().err
        assert not (tmp_path / "b.csv").exists()

    @pytest.mark.parametrize("flags", [
        ["--sizes", "abc"], ["--sizes", "-5"], ["--densities", "1.5"],
        ["--seeds", "0"], ["--seeds", "-1"],
    ])
    def test_unusable_sizes_or_densities_exit_4(self, tmp_path, capsys, flags):
        code = run_cli(["bench", "--sizes", "30", "--densities", "0.5", "--seeds", "1",
                        "--methods", "greedy", *flags, "--out-csv", str(tmp_path / "b.csv"),
                        "--out-json", str(tmp_path / "b.json")])
        assert code == 4
        assert not list(tmp_path.iterdir())
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("which", ["--out-csv", "--out-json"])
    def test_unwritable_output_path_exits_4(self, tmp_path, capsys, which):
        paths = {"--out-csv": tmp_path / "b.csv", "--out-json": tmp_path / "b.json"}
        paths[which] = tmp_path / "nodir" / "b"
        code = run_cli(["bench", "--sizes", "30", "--densities", "0.5", "--seeds", "1",
                        "--methods", "greedy", "--out-csv", str(paths["--out-csv"]),
                        "--out-json", str(paths["--out-json"])])
        assert code == 4
        assert capsys.readouterr().err.startswith("error:")

    def test_error_rows_written_and_exit_1(self, tmp_path, monkeypatch):
        def broken(graph, order=None, base=0):
            raise RuntimeError("boom")

        monkeypatch.setattr(threecolor.cli, "greedy_color", broken)
        code = run_cli(["bench", "--sizes", "30", "--densities", "0.5", "--seeds", "2",
                        "--methods", "greedy,extract", "--out-csv", str(tmp_path / "b.csv"),
                        "--out-json", str(tmp_path / "b.json")])
        assert code == 1
        rows = (tmp_path / "b.csv").read_text().splitlines()[1:]
        assert len(rows) == 4
        assert sum("error:RuntimeError" in row for row in rows) == 2
        assert json.loads((tmp_path / "b.json").read_text())["errors"] == 2

    def test_csv_columns_fixed(self, tmp_path):
        run_cli(["bench", "--sizes", "30", "--densities", "0.5", "--seeds", "1",
                 "--methods", "greedy", "--out-csv", str(tmp_path / "b.csv"),
                 "--out-json", str(tmp_path / "b.json")])
        header = (tmp_path / "b.csv").read_text().splitlines()[0]
        assert header.split(",")[:6] == ["method", "family", "n", "edge_prob",
                                         "seed", "colors"]


@pytest.mark.slow
def test_cli_subprocess_determinism(tmp_path):
    """Two separate processes produce byte-identical outputs."""
    g, _ = generate_planted(GenParams(n=120, edge_prob=0.5, seed=5))
    src = tmp_path / "g.col"
    src.write_text(emit_dimacs(g))
    outputs = []
    for tag in ("x", "y"):
        out = tmp_path / f"{tag}.sol"
        trace = tmp_path / f"{tag}.jsonl"
        res = subprocess.run(
            [sys.executable, "-m", "threecolor.cli", "color",
             "--in", str(src), "--out", str(out), "--trace", str(trace)],
            capture_output=True,
        )
        assert res.returncode == 0, res.stderr
        outputs.append((out.read_bytes(), trace.read_bytes()))
    assert outputs[0] == outputs[1]
