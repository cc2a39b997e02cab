"""Line-by-line DIMACS readers and writer, kept as the reference that
the block readers in ``threecolor.dimacs`` must agree with on every input:
the same graph, coloring or text, or the same error on the same line.
``parse_coloring`` refuses a vertex colored twice; otherwise these are the
readers and writer as they were before block reading replaced them."""
from __future__ import annotations

from threecolor.dimacs import MAX_VERTICES, ParseError
from threecolor.graph import Coloring, Graph


def _require_decimal(line: str) -> None:
    """Raise ValueError unless ``int`` reads the number tokens of ``line``
    as the file formats spell a number: an optional ``-`` and ASCII
    digits.  ``int`` also takes ``+``, ``_`` and non-ASCII digits; split
    tokens hold no whitespace."""
    if not line.isascii() or "+" in line or "_" in line:
        raise ValueError(f"not a decimal integer line: {line!r}")


def parse_dimacs(text: str) -> Graph:
    n = None
    declared_m = None
    adj: list[int] = []
    m = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise ParseError("duplicate problem line", line_no)
            if len(parts) != 4 or parts[1] != "edge":
                raise ParseError(f"malformed problem line {line!r}", line_no)
            try:
                _require_decimal(line)
                n = int(parts[2])
                declared_m = int(parts[3])
            except ValueError:
                raise ParseError(f"non-integer counts in {line!r}", line_no) from None
            if n < 0 or declared_m < 0:
                raise ParseError("negative counts", line_no)
            if n > MAX_VERTICES:
                raise ParseError(
                    f"declared {n} vertices, above the limit of {MAX_VERTICES}", line_no
                )
            adj = [0] * n
        elif parts[0] == "e":
            if n is None:
                raise ParseError("edge before problem line", line_no)
            if len(parts) != 3:
                raise ParseError(f"malformed edge line {line!r}", line_no)
            try:
                _require_decimal(line)
                u = int(parts[1])
                v = int(parts[2])
            except ValueError:
                raise ParseError(f"non-integer endpoints in {line!r}", line_no) from None
            if not (1 <= u <= n) or not (1 <= v <= n):
                raise ParseError(f"endpoint out of range in {line!r}", line_no)
            if u == v:
                raise ParseError(f"self loop at vertex {u}", line_no)
            if (adj[u - 1] >> (v - 1)) & 1:
                raise ParseError(f"duplicate edge ({u}, {v})", line_no)
            adj[u - 1] |= 1 << (v - 1)
            adj[v - 1] |= 1 << (u - 1)
            m += 1
        else:
            raise ParseError(f"unrecognized line {line!r}", line_no)
    if n is None:
        raise ParseError("missing problem line", 0)
    if declared_m != m:
        raise ParseError(f"declared {declared_m} edges, found {m}", 0)
    return Graph(n, adj, m)


def emit_dimacs(graph: Graph, comment: str | None = None) -> str:
    lines = []
    if comment:
        for part in comment.splitlines():
            lines.append(f"c {part}")
    lines.append(f"p edge {graph.n} {graph.m}")
    for u, v in graph.edges():
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def parse_coloring(text: str, n: int) -> Coloring:
    assign: list[int | None] = [None] * n
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] != "s" or len(parts) != 3:
            raise ParseError(f"unrecognized line {line!r}", line_no)
        try:
            _require_decimal(line)
            v = int(parts[1])
            color = int(parts[2])
        except ValueError:
            raise ParseError(f"non-integer fields in {line!r}", line_no) from None
        if not 1 <= v <= n:
            raise ParseError(f"vertex {v} out of range", line_no)
        if color < 0:
            raise ParseError(f"negative color {color}", line_no)
        if assign[v - 1] is not None:
            raise ParseError(f"vertex {v} colored twice", line_no)
        assign[v - 1] = color
    if any(c is None for c in assign):
        missing = next(i for i, c in enumerate(assign) if c is None)
        raise ParseError(f"vertex {missing + 1} has no color", 0)
    palette = max(assign) + 1 if assign else 0
    return Coloring(tuple(assign), palette)
