"""Output checks computed apart from the program's own checkers.

Every function here works on plain adjacency rows (one Python int
bitmask per vertex, as generated) and returns a list of problems; an
empty list means the output passed.  Nothing here calls into
``threecolor``, so a fault in the library's checkers cannot hide a
fault in its colorers.
"""
from __future__ import annotations


def coloring_problems(rows: tuple[int, ...], assignment, palette: int) -> list[str]:
    """A coloring must be total, lie within its palette and leave no edge
    monochromatic."""
    n = len(rows)
    if len(assignment) != n:
        return [f"coloring covers {len(assignment)} of {n} vertices"]
    problems = []
    classes: dict[int, int] = {}
    for v, c in enumerate(assignment):
        if not isinstance(c, int) or not 0 <= c < palette:
            problems.append(f"vertex {v} has color {c!r} outside [0, {palette})")
            continue
        classes[c] = classes.get(c, 0) | (1 << v)
    if problems:
        return problems
    for v, c in enumerate(assignment):
        clash = rows[v] & classes[c]
        if clash:
            u = (clash & -clash).bit_length() - 1
            problems.append(f"edge ({min(u, v)}, {max(u, v)}) has both ends colored {c}")
            break
    return problems


def same_graph_problems(rows: tuple[int, ...], m: int, graph) -> list[str]:
    """The graph handed to the program must equal the generated one."""
    if graph.n != len(rows):
        return [f"n is {graph.n}, generated {len(rows)}"]
    if graph.m != m:
        return [f"m is {graph.m}, generated {m}"]
    for v, row in enumerate(rows):
        if graph.adj_bits(v) != row:
            return [f"adjacency row {v} differs from the generated one"]
    return []


def claim_problems(kind: str, vertices, conditional, planted) -> list[str]:
    """Screen one logged claim about the input graph against its planted
    3-coloring.  Each claim kind states what every 3-coloring must do,
    so the planted one must do it too."""
    seen = {planted[v] for v in vertices}
    if kind == "multi" and len(seen) < 2:
        return [f"multi claim on {tuple(vertices)} sees one planted color"]
    if kind == "mono" and len(seen) != 1:
        return [f"mono claim on {tuple(vertices)} sees {len(seen)} planted colors"]
    if kind == "mono_if_differ":
        t, r = conditional
        if planted[t] != planted[r] and len(seen) != 1:
            return [
                f"mono_if_differ claim on {tuple(vertices)} sees {len(seen)} "
                f"planted colors while its pair ({t}, {r}) differs"
            ]
    if kind == "type0":
        u, v = vertices
        if planted[u] != planted[v]:
            return [f"type0 claim ({u}, {v}) joins two planted colors"]
    if kind not in ("multi", "mono", "mono_if_differ", "type0"):
        return [f"unknown claim kind {kind!r}"]
    return []
