import pytest

from threecolor.dimacs import (
    MAX_VERTICES,
    ParseError,
    emit_coloring,
    emit_dimacs,
    parse_coloring,
    parse_dimacs,
)
from threecolor.generate import GenParams, generate_planted
from threecolor.graph import Coloring

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
