"""Run parameters: the color target k, the set-size scales c1, c2 and the
side-cut switch, the values a caller sets.

``nhat(h, k)`` and ``default_round_cap(h)`` are computed from each working
graph of h vertices where they are read.  The paper's other constants
are fixed where they are read: the degree buckets and caps of
``regularize`` in ``structure``, the seed, side-cut and exit factors and
the root retries in ``search``, and the pipeline's size floor and degree
split in ``baselines``.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import Any

# computed from every working graph, so a params file cannot set them
DERIVED = ("nhat", "round_cap")


def nhat(n: int, k: float) -> int:
    """max(1, ceil(n / k^2)), the multichromatic-test size floor on n vertices."""
    return max(1, math.ceil(n / (k * k)))


def default_round_cap(n: int) -> int:
    """max(floor(log2 log2 n), 3); the floor keeps small instances sane."""
    if n >= 4:
        ll = math.floor(math.log2(math.log2(n)))
    else:
        ll = 0
    return max(ll, 3)


@dataclass(frozen=True)
class Params:
    """The values a caller sets for one run, read on every working graph."""

    k: float
    c1: float = 1.0  # large-set threshold scale: ceil(c1 * n / k)
    c2: float = 1.0  # small-neighborhood factor: |N(X)| <= c2 * k * |X|
    side_cuts: bool = True

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.c1 > self.c2:
            # the multichromatic fall-through needs the large-set floor to
            # stay below the small-neighborhood cap, which holds iff c1 <= c2
            raise ValueError("c1 must not exceed c2")

    @classmethod
    def for_graph(cls, n: int, min_degree: int, k: float | None = None,
                  **overrides: Any) -> "Params":
        """Parameters for an n-vertex graph of minimum degree ``min_degree``.

        k defaults to sqrt(n / min_degree), clamped to [1, n]; the other
        fields come from ``overrides`` or their defaults.
        """
        if k is None:
            k = math.sqrt(max(n, 1) / max(min_degree, 1))
        k = min(max(float(k), 1.0), float(max(n, 1)))
        return cls(k=k, **overrides)


_EXPECTED = {
    "bool": "true or false",
    "float": "a finite number",
}


def finite_number(val: Any) -> bool:
    """``val`` is a JSON number that is finite as a float.

    JSON true/false is a bool here, never a number; an int too large for
    a float is not finite (``math.isfinite`` would raise OverflowError).
    """
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        return False
    try:
        return math.isfinite(val)
    except OverflowError:
        return False


def _parse_value(key: str, kind: str, val: Any) -> Any:
    """``val`` checked against the field type ``kind``; raises ValueError."""
    if kind == "bool" and isinstance(val, bool) or kind == "float" and finite_number(val):
        return val
    raise ValueError(f"parameter {key!r} must be {_EXPECTED[kind]}, not {val!r}")


def parse_param_overrides(text: str) -> dict[str, Any]:
    """Parse a JSON params file into keyword overrides.

    The settable keys are ``k``, ``c1`` and ``c2`` (finite numbers) and
    ``side_cuts`` (true/false).  Null values are dropped so per-graph
    defaults apply.
    """
    raw = json.loads(text)
    if not isinstance(raw, dict):
        raise ValueError("params file must hold a JSON object")
    kinds = {f.name: f.type for f in fields(Params)}
    out: dict[str, Any] = {}
    for key, val in raw.items():
        if key in DERIVED:
            raise ValueError(f"parameter {key!r} is derived per working graph "
                             "and cannot be set")
        if key not in kinds:
            raise ValueError(f"unknown parameter {key!r}")
        if val is not None:
            out[key] = _parse_value(key, kinds[key], val)
    return out
