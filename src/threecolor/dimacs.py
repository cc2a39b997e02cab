"""DIMACS .col graph files and "s <vertex> <color>" coloring files.

On disk vertex ids are 1-based; in memory they are 0-based.  Emission is
canonical: the problem line, then edges sorted with u < v.  Parsing a
canonical file and emitting it again is the identity.

A number is an optional ``-`` and ASCII digits; any other spelling, on a
problem, edge or coloring line, is a parse error naming its line.  Both
readers run on ``_records``.  It takes the text in blocks that end just
after a line break: the first just after the problem line when that lies
within the first ``BLOCK`` characters, each other one at the first line
break ``BLOCK`` or more characters past its start.  A block made only of
record lines (the reader's letter and two numbers of at most 18 ASCII
digits, space or tab gaps, "\\n" or "\\r\\n" ends), as written files
are, is told by one regular expression search, decoded by one
``np.fromstring`` and range-checked in numpy.  Any other block, or one
that fails its check, is read line by line, as ``str.splitlines``,
``str.strip`` and ``str.split`` cut it, up to its first error.  A
repeated edge, or a vertex colored twice, is found by sorting the
records read before that error; it is an error on its later line.
Beyond the text, the readers hold one block and its numbers;
``parse_dimacs`` keeps 8 bytes per edge (an int32 key and its line
number) until it builds the rows from the sorted bit indices of both
orientations of the edges, ``graph.ROW_SUM_BYTES`` of packed rows at a
time.  The graph it returns carries no packed matrix.  ``emit_dimacs``
writes the edges of ``graph.row_blocks``'s blocks of unpacked rows, at
most ``graph.ROW_SUM_BYTES`` at a time, taking only the rows that have
an edge to a higher vertex.
"""
from __future__ import annotations

import re
from typing import Callable, Iterator

import numpy as np

from .graph import Coloring, Graph, _row_ints, row_blocks, rows_per_block


# Largest vertex count a graph file may declare.  The search holds n x n
# adjacency in bits (n**2 / 8 bytes, 128 MiB at the limit) in the int
# rows, in the uint64 words of the driver's base and of a rebuilt
# working graph.
# Packing the words holds one more block of about 1 MiB; the rebuilds
# (progress.induced_subgraph, progress.merge_vertex_set) peak at 0.34
# and 0.35 * n**2 bytes (tracemalloc, G(4096, 1/2)), under 0.5 GiB here.
# At the limit n**2 < 2**31, so parse_dimacs keys an edge (u, v) as the
# int32 u * n + v.
MAX_VERTICES = 1 << 15

BLOCK = 1 << 16  # characters of text read at a time, to a line's end
_LINE_BREAK = re.compile("\r\n|[\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]")  # as str.splitlines
# A line starting with "p", to the "\n" that ends it; every "\n" ends a
# line to str.splitlines, so a block may end after it.
_PROBLEM = re.compile(r"^[ \t]*p[^\n]*\n", re.MULTILINE)
# A "\n" that does not start a record line ending in "\n", or the end, in
# "\n" + a block.  np.fromstring reads the digits of record lines in base
# 10, and 18 digits always fit in int64.  (A search holds no state per
# line; a fullmatch of repeated record lines holds 50 to 86 bytes per
# character, 3.3 to 5.4 MiB for a block.)
_NOT_RECORD = {letter: re.compile(
    rf"\n(?!{letter}[ \t]+[0-9]{{1,18}}[ \t]+[0-9]{{1,18}}[ \t]*\r?\n|\Z)")
    for letter in "es"}


class ParseError(ValueError):
    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _blocks(text: str) -> Iterator[str]:
    """Slices of ``text``, each ending just after a line break: the first
    just after the problem line if that ends within BLOCK characters, and
    each other one BLOCK characters and the rest of a line."""
    start = 0
    problem = _PROBLEM.search(text, 0, BLOCK)
    if problem:
        start = problem.end()
        yield text[:start]
    while start < len(text):
        found = _LINE_BREAK.search(text, start + BLOCK)
        end = found.end() if found else len(text)
        yield text[start:end]
        start = end


def _integers(line: str, tokens: list[str], message: str, line_no: int) -> list[int]:
    """``tokens`` of the stripped ``line`` as ints, or a ParseError with
    ``message`` unless they are spelled as the file formats spell a number:
    an optional ``-`` and ASCII digits.  ``int`` also takes ``+``, ``_``
    and non-ASCII digits; split tokens hold no whitespace."""
    if line.isascii() and "+" not in line and "_" not in line:
        try:
            return [int(token) for token in tokens]
        except ValueError:  # not a number, or more digits than int() reads
            pass
    raise ParseError(message.format(line), line_no)


def _records(text: str, letter: str, fits: Callable[[np.ndarray, np.ndarray], bool],
             read_line: Callable[[str, int], tuple[int, int] | None]
             ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield, block by block, the two numbers and the line number of each
    record line of ``text``, as three arrays.  A block of "<letter> <a>
    <b>" lines is decoded at once if ``fits(a, b)`` holds for its arrays.
    Any other block is read line by line: ``read_line(line, line_no)``
    takes each stripped line that is neither blank nor a comment and
    returns a record's two numbers, or None for a line that holds none, or
    raises ParseError.  That error is raised after the records read before
    it are yielded."""
    not_record = _NOT_RECORD[letter]
    line_no = 1
    for block in _blocks(text):
        if not not_record.search("\n" + block):
            a, b = np.fromstring(block.replace(letter, " "), dtype=np.int64,
                                 sep=" ").reshape(-1, 2).T
            if fits(a, b):
                yield a, b, np.arange(line_no, line_no + len(a))
                line_no += len(a)
                continue
        lines = block.splitlines()
        records = []
        error = None
        for k, line in enumerate(lines, start=line_no):
            line = line.strip()
            if not line or line.startswith("c"):
                continue
            try:
                record = read_line(line, k)
            except ParseError as exc:
                error = exc
                break
            if record is not None:
                records.append((*record, k))
        if records:
            # object, as a color may pass int64
            table = np.array(records, dtype=object)
            yield table[:, 0].astype(np.int64), table[:, 1], table[:, 2].astype(np.int64)
        if error is not None:
            raise error
        line_no += len(lines)


def _first_repeat(keys: np.ndarray) -> int | None:
    """Index of the first entry of ``keys`` equal to an earlier one."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    repeats = order[1:][ordered[1:] == ordered[:-1]]
    return int(repeats.min()) if len(repeats) else None


def parse_dimacs(text: str) -> Graph:
    n = declared_m = None

    def fits(u: np.ndarray, v: np.ndarray) -> bool:
        return n is not None and bool(((u >= 1) & (u <= n) & (v >= 1) & (v <= n)
                                       & (u != v)).all())

    def read_line(line: str, line_no: int) -> tuple[int, int] | None:
        nonlocal n, declared_m
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise ParseError("duplicate problem line", line_no)
            if len(parts) != 4 or parts[1] != "edge":
                raise ParseError(f"malformed problem line {line!r}", line_no)
            size, count = _integers(line, parts[2:], "non-integer counts in {!r}", line_no)
            if size < 0 or count < 0:
                raise ParseError("negative counts", line_no)
            if size > MAX_VERTICES:
                raise ParseError(f"declared {size} vertices, above the limit of {MAX_VERTICES}",
                                 line_no)
            n, declared_m = size, count
            return None
        if parts[0] != "e":
            raise ParseError(f"unrecognized line {line!r}", line_no)
        if n is None:
            raise ParseError("edge before problem line", line_no)
        if len(parts) != 3:
            raise ParseError(f"malformed edge line {line!r}", line_no)
        u, v = _integers(line, parts[1:], "non-integer endpoints in {!r}", line_no)
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(f"endpoint out of range in {line!r}", line_no)
        if u == v:
            raise ParseError(f"self loop at vertex {u}", line_no)
        return u, v

    keys: list[np.ndarray] = []  # per block, each edge (u, v) as (u - 1) * n + v - 1
    key_lines: list[np.ndarray] = []
    error = None
    try:
        for u, v, lines in _records(text, "e", fits, read_line):
            keys.append(((u - 1) * n + v - 1).astype(np.int32))
            key_lines.append(lines.astype(np.int32))
    except ParseError as exc:
        error = exc
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
    step = rows_per_block(8 * words)
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
    def fits(v: np.ndarray, c: np.ndarray) -> bool:
        return bool(((v >= 1) & (v <= n)).all())

    def read_line(line: str, line_no: int) -> tuple[int, int]:
        parts = line.split()
        if parts[0] != "s" or len(parts) != 3:
            raise ParseError(f"unrecognized line {line!r}", line_no)
        v, color = _integers(line, parts[1:], "non-integer fields in {!r}", line_no)
        if not 1 <= v <= n:
            raise ParseError(f"vertex {v} out of range", line_no)
        if color < 0:
            raise ParseError(f"negative color {color}", line_no)
        return v, color

    vertices: list[np.ndarray] = []  # per block, the vertex and color of each line
    colors: list[int] = []
    vertex_lines: list[np.ndarray] = []
    error = None
    try:
        for v, c, lines in _records(text, "s", fits, read_line):
            vertices.append(v)
            colors.extend(c.tolist())
            vertex_lines.append(lines)
    except ParseError as exc:
        error = exc
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
