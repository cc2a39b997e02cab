"""DIMACS .col graph files and "s <vertex> <color>" coloring files.

On disk vertex ids are 1-based; in memory they are 0-based.  Emission is
canonical: the problem line, then edges sorted with u < v.  Parsing a
canonical file and emitting it again is the identity.

Both readers run on one block scanner, ``_scan``.  It takes the text in
blocks of ``BLOCK`` characters, each carried on to the end of its last
line, splits each with ``str.splitlines`` and reads the block's tokens,
as ``str.split`` cuts them, into numpy arrays: tokens per line, each
line's first token, and whether the tokens after it are numbers and
their values.  A number is an optional ``-`` and ASCII digits; any other
spelling, and a problem, edge or coloring line that holds a non-ASCII
character inside it, is a parse error naming its line.  Up to 18 digits
are read in int64; a longer number is read by ``int``, which also keeps
its limit on digits.  Each reader gives every line an error code and
raises the first in file order, with the message formatted from that
line's text; a repeated edge, or a vertex colored twice, competes on its
line number.  A block's lines and arrays take about 40 bytes per
character at their peak (2.7 MiB for a block of a canonical file), so
the scanner holds O(``BLOCK`` + the longest line) beyond the text;
``parse_dimacs`` keeps 8 bytes per edge until it builds the rows from
the sorted bit indices of both orientations of the edges, writing
``graph.ROW_SUM_BYTES`` of packed rows at a time.  The graph it returns
carries no packed matrix.  ``emit_dimacs`` writes the edges of
``graph.row_blocks``'s blocks of unpacked rows, at most
``graph.ROW_SUM_BYTES`` at a time, taking only the rows that have an
edge to a higher vertex.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .graph import ROW_SUM_BYTES, Coloring, Graph, _row_ints, row_blocks


# Largest vertex count a graph file may declare.  The search holds n x n
# adjacency in bits (n**2 / 8 bytes, 128 MiB at the limit, for the int
# rows and again for a materialized subgraph's packed uint64 rows).
# progress.induced_subgraph and progress.merge_vertex_set unpack at most
# graph.ROW_SUM_BYTES of rows at a time: 0.28 and 0.44 * n**2 bytes at
# their peak (tracemalloc, G(4096, 1/2)), under 0.5 GiB here.  At the
# limit n**2 < 2**31, so parse_dimacs keys an edge (u, v) as the int32
# u * n + v.
MAX_VERTICES = 1 << 15

BLOCK = 1 << 16  # characters of text the scanner reads at a time, to a line's end
_LINE_BREAK = re.compile("\r\n|[\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]")  # as str.splitlines

# The scanner's byte alphabet.  A block's lines are joined by " \n ", so
# that each line break is a token of its own; each non-ASCII whitespace
# character becomes "\x1c" and any other non-ASCII character "\x1d".
# "\n", "\x1c" and "\x1d" are line breaks to str.splitlines, so none
# occurs inside a line.  Tokens are the runs of bytes other than the gaps
# " ", "\t" and "\x1f" (the whitespace str.split finds inside a line) and
# "\x1c".
_NONASCII_SPACE = re.compile(r"[^\S\x00-\x7f]")
_NONASCII = re.compile(r"[^\x00-\x7f]")
_SOLID = bytes(int(b not in b" \t\x1f\x1c") for b in range(256))
_NUMBER = re.compile(rb"-?[0-9]+")
_INT64_DIGITS = 18  # numbers with more digits are read by int()


class ParseError(ValueError):
    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _blocks(text: str):
    """Slices of ``text``, each ending just after the first line break at
    or past BLOCK characters: BLOCK characters and the rest of a line."""
    start = 0
    while start < len(text):
        found = _LINE_BREAK.search(text, start + BLOCK)
        end = found.end() if found else len(text)
        yield text[start:end]
        start = end


@dataclass
class _Scan:
    """One block's lines and their tokens, as str.split cuts them."""

    lines: list[str]  # the block's lines, as str.splitlines gives them
    count: np.ndarray  # tokens on each line
    skip: np.ndarray  # blank or comment
    kind: np.ndarray  # the line's first token if it is one byte, else 0
    nonascii: np.ndarray  # a non-ASCII whitespace character between the line's tokens
    # row j: whether each line's token j + 1 is a number (an optional "-"
    # and ASCII digits that int() reads) and its value, on lines of at most
    # four tokens whose first is one byte; int64, or object for long ones
    number: np.ndarray
    value: np.ndarray


def _scan(block: str) -> _Scan:
    lines = block.splitlines()
    joined = " \n ".join(["", *lines, ""])
    if not joined.isascii():
        joined = _NONASCII.sub("\x1d", _NONASCII_SPACE.sub("\x1c", joined))
    text = joined.encode("ascii")
    a = np.frombuffer(text, dtype=np.uint8)
    solid = np.frombuffer(text.translate(_SOLID), dtype=np.bool_)
    starts = np.flatnonzero(solid[:-1] < solid[1:]) + 1
    ends = np.flatnonzero(solid[:-1] > solid[1:]) + 1
    breaks = np.flatnonzero(a[starts] == ord("\n"))
    first = breaks[:-1] + 1
    count = np.diff(breaks) - 1
    lead = a[starts[first]]
    skip = (count == 0) | (lead == ord("c"))
    kind = np.where(ends[first] - starts[first] == 1, lead, 0)

    # tokens 2-4 of the lines the readers may take numbers from, their
    # digits read from the right: place k holds the byte at end - 1 - k
    j, line = np.nonzero((~skip & (kind != 0) & (count <= 4)) & (count > [[1], [2], [3]]))
    s, e = starts[first[line] + j + 1], ends[first[line] + j + 1]
    minus = a[s] == ord("-")
    size = e - s - minus
    total = np.zeros(len(s), dtype=np.int64)
    bad = size == 0
    at = e - 1
    for k in range(min(size.max(initial=0), _INT64_DIGITS)):
        digit = a.take(at, mode="clip") - np.uint8(ord("0"))  # wraps below "0"
        inside = size > k
        bad |= inside & (digit > 9)
        total += np.where(inside, digit, 0) * np.int64(10 ** k)
        at -= 1
    number = np.zeros((3, len(lines)), dtype=np.bool_)
    value = np.zeros((3, len(lines)), dtype=np.int64)
    number[j, line] = ~bad
    value[j, line] = np.where(minus, -total, total)
    long = np.flatnonzero(size > _INT64_DIGITS)
    if len(long):
        value = value.astype(object)
        for k in long.tolist():
            word = text[s[k]:e[k]]
            number[j[k], line[k]] = _NUMBER.fullmatch(word) is not None
            try:
                value[j[k], line[k]] = int(word)
            except ValueError:  # not a number, or more digits than int() reads
                number[j[k], line[k]] = False

    nonascii = np.zeros(len(lines), dtype=np.bool_)
    marks = np.flatnonzero(a == 0x1c)
    line = np.searchsorted(starts[breaks], marks) - 1
    within = ((count[line] > 0) & (starts[first[line]] < marks)
              & (marks < ends[first[line] + count[line] - 1]))
    nonascii[line[within]] = True
    return _Scan(lines, count, skip, kind, nonascii, number, value)


def _first_repeat(keys: np.ndarray) -> int | None:
    """Index of the first entry of ``keys`` equal to an earlier one."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    repeats = order[1:][ordered[1:] == ordered[:-1]]
    return int(repeats.min()) if len(repeats) else None


# error codes of the readers, each in the order a line is checked
(_DUPLICATE_PROBLEM, _MALFORMED_PROBLEM, _NONINTEGER_COUNTS, _NEGATIVE_COUNTS,
 _ABOVE_LIMIT, _EDGE_BEFORE_PROBLEM, _MALFORMED_EDGE, _NONINTEGER_ENDPOINTS,
 _ENDPOINT_RANGE, _SELF_LOOP, _UNRECOGNIZED, _NONINTEGER_FIELDS,
 _VERTEX_RANGE, _NEGATIVE_COLOR) = range(1, 15)

# code: (message, the token it names, read as an integer, or None for the
# stripped line)
_MESSAGES = {
    _DUPLICATE_PROBLEM: ("duplicate problem line", None),
    _MALFORMED_PROBLEM: ("malformed problem line {!r}", None),
    _NONINTEGER_COUNTS: ("non-integer counts in {!r}", None),
    _NEGATIVE_COUNTS: ("negative counts", None),
    _ABOVE_LIMIT: (f"declared {{}} vertices, above the limit of {MAX_VERTICES}", 2),
    _EDGE_BEFORE_PROBLEM: ("edge before problem line", None),
    _MALFORMED_EDGE: ("malformed edge line {!r}", None),
    _NONINTEGER_ENDPOINTS: ("non-integer endpoints in {!r}", None),
    _ENDPOINT_RANGE: ("endpoint out of range in {!r}", None),
    _SELF_LOOP: ("self loop at vertex {}", 1),
    _UNRECOGNIZED: ("unrecognized line {!r}", None),
    _NONINTEGER_FIELDS: ("non-integer fields in {!r}", None),
    _VERTEX_RANGE: ("vertex {} out of range", 1),
    _NEGATIVE_COLOR: ("negative color {}", 2),
}


def _error(code: int, line: str, line_no: int) -> ParseError:
    """The error ``code`` of ``line``, line ``line_no`` of the file."""
    message, token = _MESSAGES[code]
    line = line.strip()
    return ParseError(message.format(line if token is None else int(line.split()[token])),
                      line_no)


def _problem_code(scan: _Scan, i: int) -> int:
    """Error code of the file's first problem line, line ``i`` of ``scan``."""
    if scan.count[i] != 4 or scan.lines[i].split()[1] != "edge":
        return _MALFORMED_PROBLEM
    if not scan.number[1:, i].all() or scan.nonascii[i]:
        return _NONINTEGER_COUNTS
    if scan.value[1, i] < 0 or scan.value[2, i] < 0:
        return _NEGATIVE_COUNTS
    if scan.value[1, i] > MAX_VERTICES:
        return _ABOVE_LIMIT
    return 0


def _first_error(codes: np.ndarray) -> int:
    """Index of the first nonzero code, or len(codes)."""
    return int(np.argmax(codes != 0)) if codes.any() else len(codes)


def parse_dimacs(text: str) -> Graph:
    n = declared_m = None
    keys: list[np.ndarray] = []  # per block, each edge (u, v) as (u - 1) * n + v - 1
    key_lines: list[np.ndarray] = []
    error = None
    line_no = 1
    for block in _blocks(text):
        scan = _scan(block)
        edge = ~scan.skip & (scan.kind == ord("e"))
        problem = ~scan.skip & (scan.kind == ord("p"))
        codes = np.where(problem, _DUPLICATE_PROBLEM, 0).astype(np.int8)
        edge_before = edge.copy() if n is None else np.zeros_like(edge)
        if n is None and problem.any():
            i = int(np.argmax(problem))
            codes[i] = _problem_code(scan, i)
            edge_before[i:] = False
            if codes[i] == 0:
                n, declared_m = int(scan.value[1, i]), int(scan.value[2, i])
        size = n or 0
        u, v = scan.value[:2]
        codes = np.select(
            [edge_before,
             edge & (scan.count != 3),
             edge & ~(scan.number[0] & scan.number[1] & ~scan.nonascii),
             edge & ((u < 1) | (u > size) | (v < 1) | (v > size)),
             edge & (u == v),
             ~scan.skip & ~edge & ~problem],
            [_EDGE_BEFORE_PROBLEM, _MALFORMED_EDGE, _NONINTEGER_ENDPOINTS,
             _ENDPOINT_RANGE, _SELF_LOOP, _UNRECOGNIZED],
            codes,
        )
        stop = _first_error(codes)
        good = np.flatnonzero(edge[:stop])
        keys.append(((u[good] - 1) * size + v[good] - 1).astype(np.int32))
        key_lines.append((good + line_no).astype(np.int32))
        if stop < len(codes):
            error = _error(int(codes[stop]), scan.lines[stop], line_no + stop)
            break
        line_no += len(codes)
    edges = np.concatenate(keys) if keys else np.zeros(0, dtype=np.int32)
    m = len(edges)
    tail, head = np.divmod(edges, np.int32(n or 1))
    del keys, edges
    repeat = _first_repeat(np.minimum(tail, head) * np.int32(n or 1) + np.maximum(tail, head))
    if repeat is not None:
        raise ParseError(f"duplicate edge ({tail[repeat] + 1}, {head[repeat] + 1})",
                         int(np.concatenate(key_lines)[repeat]))
    del key_lines
    if error is not None:
        raise error
    if n is None:
        raise ParseError("missing problem line", 0)
    if declared_m != m:
        raise ParseError(f"declared {declared_m} edges, found {m}", 0)
    return Graph(n, _rows(n, tail, head), m)


_BIT = np.array([1 << b for b in range(8)], dtype=np.uint8)


def _rows(n: int, tail: np.ndarray, head: np.ndarray) -> list[int]:
    """Adjacency bitmasks of the edges (tail[i], head[i]).  Both
    orientations become bit indices into rows of ceil(n/64) words; sorted,
    they are written ROW_SUM_BYTES of rows at a time, each byte the sum of
    its run of bits (each bit once, so the sum is the OR)."""
    words = (n + 63) // 64
    width = 64 * words  # bits per row
    m = len(tail)
    bits = np.empty(2 * m, dtype=np.int32)
    np.multiply(tail, width, out=bits[:m])
    bits[:m] += head
    np.multiply(head, width, out=bits[m:])
    bits[m:] += tail
    del tail, head
    bits.sort()
    rows: list[int] = []
    step = max(1, ROW_SUM_BYTES // max(8 * words, 1))
    for first in range(0, n, step):
        count = min(step, n - first)
        lo, hi = bits.searchsorted(np.array([first, first + count], dtype=np.int32) * width)
        chunk = bits[lo:hi]
        chunk -= first * width
        values = _BIT[chunk & 7]
        chunk >>= 3
        new_byte = np.empty(len(chunk), dtype=np.bool_)
        new_byte[:1] = True
        np.not_equal(chunk[1:], chunk[:-1], out=new_byte[1:])
        runs = np.flatnonzero(new_byte)
        out = np.zeros(count * words * 8, dtype=np.uint8)
        out[chunk[runs]] = np.add.reduceat(values, runs, dtype=np.uint8)
        rows += _row_ints(out.view("<u8").reshape(count, words))
    return rows


def _id_digits(n: int) -> np.ndarray:
    """Row i: the ASCII digits of i, right-aligned, padded with zero bytes."""
    width = len(str(n))
    ids = np.arange(n + 1)
    table = np.zeros((n + 1, width), dtype=np.uint8)
    for k in range(width):
        place = 10 ** k
        table[:, width - 1 - k] = np.where(ids >= place, 48 + ids // place % 10, 0)
    return table


def emit_dimacs(graph: Graph, comment: str | None = None) -> str:
    lines = [f"c {part}" for part in comment.splitlines()] if comment else []
    lines.append(f"p edge {graph.n} {graph.m}")
    out = ["\n".join(lines) + "\n"]
    table = _id_digits(graph.n)
    width = table.shape[1]
    adj = graph.adj_rows
    ids = [v for v in range(graph.n) if adj[v] >> (v + 1)]  # rows with an edge upwards
    for i, block in row_blocks(adj, ids):
        rows = np.array(ids[i:i + len(block)])
        r, c = np.nonzero(block[:, rows[0] + 1:])
        c += rows[0] + 1
        upper = c > rows[r]
        u, v = rows[r[upper]], c[upper]
        line = np.zeros((len(u), 2 * width + 4), dtype=np.uint8)
        line[:, 0] = ord("e")
        line[:, 1] = line[:, width + 2] = ord(" ")
        line[:, -1] = ord("\n")
        line[:, 2:width + 2] = table[u + 1]
        line[:, width + 3:-1] = table[v + 1]
        out.append(line[line != 0].tobytes().decode("ascii"))
    return "".join(out)


def emit_coloring(coloring: Coloring) -> str:
    lines = [f"s {v + 1} {c}" for v, c in enumerate(coloring.assignment)]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_coloring(text: str, n: int) -> Coloring:
    vertices: list[np.ndarray] = []  # per block, the vertex and color of each line
    colors: list = []
    vertex_lines: list[np.ndarray] = []
    error = None
    line_no = 1
    for block in _blocks(text):
        scan = _scan(block)
        v, c = scan.value[:2]
        colored = ~scan.skip & (scan.kind == ord("s")) & (scan.count == 3)
        codes = np.select(
            [~scan.skip & ~colored,
             colored & ~(scan.number[0] & scan.number[1] & ~scan.nonascii),
             colored & ((v < 1) | (v > n)),
             colored & (c < 0)],
            [_UNRECOGNIZED, _NONINTEGER_FIELDS, _VERTEX_RANGE, _NEGATIVE_COLOR],
            0,
        )
        stop = _first_error(codes)
        good = np.flatnonzero(colored[:stop])
        vertices.append(v[good].astype(np.int64))
        colors.extend(c[good].tolist())
        vertex_lines.append(good + line_no)
        if stop < len(codes):
            error = _error(int(codes[stop]), scan.lines[stop], line_no + stop)
            break
        line_no += len(codes)
    ids = np.concatenate(vertices) if vertices else np.zeros(0, dtype=np.int64)
    repeat = _first_repeat(ids)
    if repeat is not None:
        raise ParseError(f"vertex {int(ids[repeat])} colored twice",
                         int(np.concatenate(vertex_lines)[repeat]))
    if error is not None:
        raise error
    order = np.argsort(ids)
    if len(ids) < n:
        missing = np.flatnonzero(ids[order] != np.arange(1, len(ids) + 1))
        first = int(missing[0]) if len(missing) else len(ids)
        raise ParseError(f"vertex {first + 1} has no color", 0)
    assign = [colors[k] for k in order.tolist()]
    palette = max(assign) + 1 if assign else 0
    return Coloring(tuple(assign), palette)
