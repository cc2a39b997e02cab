import tracemalloc
from unittest import mock

import dimacs_reference as reference
import pytest
from hypothesis import given, settings, strategies as st

import threecolor.graph as graph_module
from threecolor import dimacs
from threecolor.dimacs import (
    MAX_VERTICES,
    ParseError,
    emit_coloring,
    emit_dimacs,
    parse_coloring,
    parse_dimacs,
)
from threecolor.generate import GenParams, generate_planted
from threecolor.graph import Coloring, build_graph

TRIANGLE_TEXT = "p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n"


def test_parse_triangle():
    g = parse_dimacs(TRIANGLE_TEXT)
    assert g.n == 3 and g.m == 3
    assert g.has_edge(0, 1) and g.has_edge(1, 2) and g.has_edge(0, 2)


def test_round_trip_is_canonical():
    canonical = emit_dimacs(parse_dimacs(TRIANGLE_TEXT))
    assert emit_dimacs(parse_dimacs(canonical)) == canonical


def test_declared_vertex_count_capped():
    assert parse_dimacs(f"p edge {MAX_VERTICES} 0\n").n == MAX_VERTICES
    for n in (MAX_VERTICES + 1, 100_000_000_000):
        with pytest.raises(ParseError, match="above the limit"):
            parse_dimacs(f"p edge {n} 0\ne 1 2\n")


def test_out_of_range_edge():
    with pytest.raises(ParseError):
        parse_dimacs("p edge 3 3\ne 1 5\ne 2 3\ne 1 3\n")


def test_edge_count_mismatch():
    with pytest.raises(ParseError):
        parse_dimacs("p edge 3 2\ne 1 2\n")


def test_comments_skipped():
    g = parse_dimacs("c hello\nc world\n" + TRIANGLE_TEXT)
    assert g.m == 3


def test_missing_problem_line():
    with pytest.raises(ParseError):
        parse_dimacs("e 1 2\n")


def test_self_loop_rejected():
    with pytest.raises(ParseError):
        parse_dimacs("p edge 2 1\ne 1 1\n")


def test_garbage_line():
    with pytest.raises(ParseError) as err:
        parse_dimacs("p edge 2 1\nx 1 2\n")
    assert err.value.line_no == 2


def test_round_trip_random_instance():
    g, _ = generate_planted(GenParams(n=40, edge_prob=0.3, seed=3))
    text = emit_dimacs(g)
    h = parse_dimacs(text)
    assert h.n == g.n and h.m == g.m
    assert all(h.adj_bits(v) == g.adj_bits(v) for v in range(g.n))
    assert emit_dimacs(h) == text


def test_coloring_round_trip():
    coloring = Coloring((0, 2, 1, 0), 3)
    text = emit_coloring(coloring)
    assert text == "s 1 0\ns 2 2\ns 3 1\ns 4 0\n"
    parsed = parse_coloring(text, 4)
    assert parsed.assignment == coloring.assignment


def test_coloring_missing_vertex():
    with pytest.raises(ParseError):
        parse_coloring("s 1 0\n", 2)


def test_coloring_out_of_range():
    with pytest.raises(ParseError):
        parse_coloring("s 5 0\n", 2)


@pytest.mark.parametrize("text, line_no, message", [
    ("p edge 3 2\ne 2 3\ne 3 2\n", 3, "duplicate edge (3, 2)"),
    ("p edge 3 1\ne 3 3\n", 2, "self loop at vertex 3"),
    ("c first\np edge 4 3\ne 1 2\n\ne 3 4\ne 1 2\n", 6, "duplicate edge (1, 2)"),
])
def test_duplicate_edge_and_self_loop_name_their_line(text, line_no, message):
    # the message names the file's line and its 1-based vertex ids
    with pytest.raises(ParseError) as err:
        parse_dimacs(text)
    assert err.value.line_no == line_no
    assert str(err.value) == f"line {line_no}: {message}"


@pytest.mark.parametrize("text, line_no", [
    ("p edge 1_0 1\ne 1 2\n", 1),
    ("p edge +3 1\ne 1 2\n", 1),
    ("p edge 3 1\ne +1 2\n", 2),
    ("p edge 10 1\ne 1 ١٠\n", 2),  # Arabic-Indic digits
    ("p edge 3 1\ne 1 ２\n", 2),  # fullwidth digit
    ("p edge 3 1\ne 1 2²\n", 2),  # superscript two
    ("p edge 3 1\ne 1 -\n", 2),
])
def test_integers_are_ascii_digits(text, line_no):
    # Python's int() takes each of these spellings; a DIMACS file does not
    with pytest.raises(ParseError, match="non-integer") as err:
        parse_dimacs(text)
    assert err.value.line_no == line_no


def test_minus_sign_keeps_the_range_messages():
    with pytest.raises(ParseError, match="negative counts"):
        parse_dimacs("p edge -3 0\n")
    with pytest.raises(ParseError, match="out of range"):
        parse_dimacs("p edge 3 1\ne -1 2\n")
    with pytest.raises(ParseError, match="negative color"):
        parse_coloring("s 1 -2\n", 1)


@pytest.mark.parametrize("text", ["s 1_0 0\n", "s +1 0\n", "s 1 ١\n", "s 1 0_0\n"])
def test_coloring_integers_are_ascii_digits(text):
    with pytest.raises(ParseError, match="line 1: non-integer"):
        parse_coloring(text, 10)


def test_comments_may_hold_any_spelling():
    # the spelling check reads only problem, edge and coloring lines
    comment = "c by a+b_c, é ١\n"
    assert parse_dimacs(comment + TRIANGLE_TEXT).m == 3
    assert parse_coloring(comment + "s 2 1\ns 1 0\n", 2).assignment == (0, 1)
    with pytest.raises(ParseError, match="line 3: non-integer"):
        parse_dimacs(comment + "p edge 3 1\ne 1 +2\n")


def test_coloring_refuses_a_vertex_colored_twice():
    # the later line used to win silently, here with color 2 and palette 3
    with pytest.raises(ParseError) as err:
        parse_coloring("s 1 0\ns 1 2\ns 2 0\n", 2)
    assert err.value.line_no == 2
    assert str(err.value) == "line 2: vertex 1 colored twice"


# ---- the block scanner against the line-by-line reference ---------------

# what str.split and str.strip take as whitespace inside a line, and what
# str.splitlines takes as a line break
SEPARATORS = [" ", "  ", "\t", "\x1f", "\xa0", "\u2003", "\u3000", " \u3000 "]
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]
# spellings int() refuses, or reads though a file does not, or that only a
# reader without int64 overflow gets right
ODD_NUMBERS = ["-", "-0", "1-2", "+1", "1_0", "\u0661", "\uff12", "2\u00b2", "0x1", "1.5",
               "x", "1\xa0", "\u30001", "9" * 19, "0" * 20 + "1", "-" + "9" * 25,
               "1" * 4301, "0" * 4300 + "2"]
JUNK = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)


@st.composite
def scanner_text(draw, letter):
    """A graph file ("e") or coloring file ("s") made of drawn tokens,
    separators and line breaks.  Each kind of oddity is drawn for the file
    about one time in four, and then for each token, gap or line break one
    time in four, so that many files still parse."""
    def sometimes():  # shrinks towards False, so towards a well-formed file
        return draw(st.integers(0, 3)) == 3

    odd_numbers, odd_gaps, odd_breaks = sometimes(), sometimes(), sometimes()

    def spell(value):
        if odd_numbers and sometimes():
            return draw(st.sampled_from(ODD_NUMBERS))
        zeros = draw(st.sampled_from([0, 0, 1, 3])) if odd_numbers else 0
        return "0" * zeros + str(value) if value >= 0 else str(value)

    n = draw(st.integers(0, 12))
    if letter == "e":
        pairs = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] != e[1])
        edges = draw(st.lists(pairs, max_size=12, unique_by=lambda e: (min(e), max(e)))
                     if n > 1 else st.just([]))
        if sometimes():  # a repeated edge, either way round, or a self loop
            u, v = draw(st.sampled_from(edges)) if edges else (1, 1)
            edges.insert(draw(st.integers(0, len(edges))),
                         draw(st.sampled_from([(u, v), (v, u), (u, u)])))
        if sometimes():
            edges.append(draw(st.tuples(st.integers(-1, n + 2), st.integers(-1, n + 2))))
        records = [["e", spell(u), spell(v)] for u, v in edges]
        declared = [spell(n), spell(len(records))]
        if sometimes():
            declared[0] = draw(st.sampled_from(["-1", str(MAX_VERTICES + 1), "0" * 25 + "7",
                                                "9" * 30, "1e2", "", "edge", *ODD_NUMBERS]))
        if sometimes():
            declared[1] = spell(draw(st.integers(-1, 20)))
        problem = ["p", "edge", *declared]
        if sometimes():
            problem = draw(st.sampled_from([["p", "col", str(n), str(len(records))],
                                            ["p", "edge", str(n)], ["p"],
                                            ["p", "edge", str(n), str(len(records)), "0"]]))
        if not sometimes():
            records.insert(draw(st.integers(0, len(records))) if sometimes() else 0, problem)
        if sometimes():
            records.insert(draw(st.integers(0, len(records))), problem)
    else:
        order = draw(st.permutations(range(1, n + 1)))
        records = [["s", spell(v), spell(draw(st.integers(0, 3)))] for v in order]
        if sometimes() and records:  # a vertex with no color
            del records[draw(st.integers(0, len(records) - 1))]
        if sometimes():  # a vertex colored twice, or one out of range, or a negative color
            records.insert(draw(st.integers(0, len(records))),
                           ["s", spell(draw(st.integers(0, n + 1))), spell(draw(st.integers(-1, 3)))])
    extras = st.one_of(JUNK.map(lambda t: ["c" + t]), st.just([]), JUNK.map(lambda t: [t]),
                       st.lists(st.sampled_from(["p", "e", "s", "edge", "c", "\x00", *ODD_NUMBERS]),
                                min_size=1, max_size=4))
    for extra in draw(st.lists(extras, max_size=3)) if sometimes() else []:
        records.insert(draw(st.integers(0, len(records))), extra)

    def gap(default):
        return draw(st.sampled_from(SEPARATORS)) if odd_gaps and sometimes() else default

    text = ""
    for tokens in records:
        text += gap("") + "".join(gap(" ") * (k > 0) + token for k, token in enumerate(tokens))
        text += gap("") + (draw(st.sampled_from(LINE_BREAKS)) if odd_breaks and sometimes() else "\n")
    return text if not records or draw(st.booleans()) else text[:-1]


def outcome(read, *args):
    """What a reader made of a text: the graph or coloring, or its error."""
    try:
        result = read(*args)
    except ParseError as err:
        return ("error", err.line_no, str(err))
    if isinstance(result, Coloring):
        return (result.assignment, result.palette_size)
    return (result.n, result.adj_rows, result.m)


@given(scanner_text("e"), st.sampled_from([dimacs.BLOCK, 24, 48]),
       st.sampled_from([dimacs.ROW_SUM_BYTES, 8, 16]))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_parse_dimacs_matches_reference(text, block, row_bytes):
    # small blocks make a file span many of them, and the rows be built a
    # row or two at a time
    with mock.patch.object(dimacs, "BLOCK", block), \
            mock.patch.object(dimacs, "ROW_SUM_BYTES", row_bytes):
        assert outcome(parse_dimacs, text) == outcome(reference.parse_dimacs, text)


@given(scanner_text("s"), st.sampled_from([dimacs.BLOCK, 24, 48]))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_parse_coloring_matches_reference(text, block):
    n = sum(1 for line in text.splitlines() if line.strip().startswith("s")) or 3
    with mock.patch.object(dimacs, "BLOCK", block):
        assert outcome(parse_coloring, text, n) == outcome(reference.parse_coloring, text, n)


@given(st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_emit_dimacs_matches_reference(data):
    n = data.draw(st.sampled_from([0, 1, 2, 5, 9, 10, 11, 99, 100, 101]))
    pairs = data.draw(st.lists(st.tuples(st.integers(0, max(n - 1, 0)),
                                         st.integers(0, max(n - 1, 0))), max_size=60))
    # ids that cross a digit-width boundary: 9/10 and 99/100
    pairs += [(u, v) for u, v in [(8, 9), (98, 99), (0, 99), (9, 100)] if v < n]
    g = build_graph(n, sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v}))
    comment = data.draw(st.sampled_from([None, "", "one", "two\nlines", "x\n"]))
    # small blocks of rows make emit_dimacs write many blocks
    row_bytes = data.draw(st.sampled_from([graph_module.ROW_SUM_BYTES, 1, 150]))
    with mock.patch.object(graph_module, "ROW_SUM_BYTES", row_bytes):
        assert emit_dimacs(g, comment) == reference.emit_dimacs(g, comment)


def test_parse_builds_no_packed_rows_and_stays_in_memory_bounds():
    # Peaks of the line-by-line code on this graph (tracemalloc, numpy
    # 2.4.6): parse_dimacs 4.84 MiB, emit_dimacs 5.66 MiB.  The scanner and
    # the block writer must stay at or below 4.8 and 5.6 MiB.
    g, _ = generate_planted(GenParams(n=2000, edge_prob=0.05, seed=0))
    text = emit_dimacs(g)
    tracemalloc.start()
    try:
        emit_dimacs(g)
        _, emit_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        held, _ = tracemalloc.get_traced_memory()
        parsed = parse_dimacs(text)
        _, parse_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert parsed._rows is None
    assert parsed.adj_rows == g.adj_rows and parsed.m == g.m
    assert parse_peak - held <= 4.8 * 2**20
    assert emit_peak <= 5.6 * 2**20
