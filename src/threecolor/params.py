"""Run parameters: color target k, derived thresholds, exact ratio knobs.

Every ratio used in a >= / < comparison is kept as a Fraction so the
branch decisions of the search are exact and reproducible.  The
subpolynomial factor in the default color target is replaced by the
configurable constant ``k_scale``: the literal factor exceeds n for
every feasible instance size, which would force k > n.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from typing import Any


def default_round_cap(n: int) -> int:
    """max(floor(log2 log2 n), 3); the floor keeps small instances sane."""
    if n >= 4:
        ll = math.floor(math.log2(math.log2(n)))
    else:
        ll = 0
    return max(ll, 3)


@dataclass(frozen=True)
class Params:
    """Parameters for one run of the progress search on one graph."""

    k: float
    nhat: int  # ceil(n / k^2), the multichromatic-test size floor
    k_scale: float = 1.0  # multiplier in the default k = k_scale * sqrt(n / min_degree)
    c1: float = 1.0  # large-set threshold scale: ceil(c1 * n / k)
    c2: float = 1.0  # small-neighborhood factor: |N(X)| <= c2 * k * |X|
    highdeg_factor: Fraction = Fraction(1, 4)  # seeds need degree >= delta_T / 4
    sidecut_factor: Fraction = Fraction(1, 3)  # side cuts need degree >= delta_T / 3
    term_factor: Fraction = Fraction(1, 2)  # inner loop stops below delta_T * |T| / 2
    bucket_base: Fraction = Fraction(4, 3)  # degree bucket boundaries (4/3)^l
    bucket_floor_divisor: int = 2  # eligible buckets need d_l >= avg / 2
    base_degree_divisor: int = 4  # delta_T = d_l / 4
    min_degree_divisor: int = 4  # delta_S = avg degree into bucket / 4
    degree_cap: Fraction = Fraction(16, 3)  # regularized T-side degrees <= cap * delta_T
    round_cap: int = 3
    root_retries: int = 10
    side_cuts: bool = True
    n0: int = 64  # pipeline hands graphs below this to the greedy fallback
    tau: float = 0.605  # pipeline degree-split exponent

    def __post_init__(self):
        if self.nhat < 1:
            raise ValueError("nhat must be at least 1")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.c1 > self.c2:
            # the multichromatic fall-through needs the large-set floor to
            # stay below the small-neighborhood cap, which holds iff c1 <= c2
            raise ValueError("c1 must not exceed c2")
        for name in ("highdeg_factor", "sidecut_factor", "term_factor", "degree_cap"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.bucket_base <= 1:
            # the bucket boundaries bucket_base^l must grow past every degree
            raise ValueError("bucket_base must exceed 1")
        if min(self.bucket_floor_divisor, self.base_degree_divisor,
               self.min_degree_divisor) < 1:
            raise ValueError("degree divisors must be at least 1")
        if self.bucket_base * self.base_degree_divisor > self.degree_cap:
            # a bucket holds the degrees d with b <= d < bucket_base * b and
            # regularize caps T-side degrees at degree_cap * b / base_degree_divisor;
            # a larger base leaves degrees above the cap in large enough buckets
            raise ValueError("bucket_base must not exceed degree_cap / base_degree_divisor")

    @classmethod
    def for_graph(cls, n: int, min_degree: int, k: float | None = None,
                  **overrides: Any) -> "Params":
        """Derive per-graph parameters, filling k and nhat from defaults.

        k defaults to k_scale * sqrt(n / min_degree), clamped to [1, n].
        """
        k_scale = float(overrides.pop("k_scale", 1.0))
        if k is None:
            delta = max(min_degree, 1)
            k = k_scale * math.sqrt(max(n, 1) / delta)
        k = min(max(float(k), 1.0), float(max(n, 1)))
        nhat = max(1, math.ceil(n / (k * k))) if n > 0 else 1
        if "round_cap" not in overrides:
            overrides["round_cap"] = default_round_cap(n)
        return cls(k=k, nhat=nhat, k_scale=k_scale, **overrides)

    def with_overrides(self, **overrides: Any) -> "Params":
        return replace(self, **overrides)


_EXPECTED = {
    "bool": "true or false",
    "int": "an integer",
    "float": "a finite number",
    "Fraction": 'a finite number or a "p/q" string',
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
    if (kind == "bool" and isinstance(val, bool)
            or kind == "int" and isinstance(val, int) and not isinstance(val, bool)):
        return val
    if kind == "float" and finite_number(val):
        return val
    if kind == "Fraction" and finite_number(val):
        rounded = Fraction(val).limit_denominator(10**9)
        # a nonzero value below 1e-9 would round to 0; keep it exact instead
        return rounded if rounded or not val else Fraction(val)
    if kind == "Fraction" and isinstance(val, str):
        try:
            return Fraction(val)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"parameter {key!r} must be {_EXPECTED[kind]}, not {val!r}")


def parse_param_overrides(text: str) -> dict[str, Any]:
    """Parse a JSON params file into keyword overrides.

    Each value must match its field's type: integers for int fields,
    finite numbers for float fields, finite numbers or "p/q" strings
    for Fraction fields, and true/false for ``side_cuts``.  Null values
    are dropped so per-graph defaults apply.
    """
    raw = json.loads(text)
    if not isinstance(raw, dict):
        raise ValueError("params file must hold a JSON object")
    kinds = {f.name: f.type for f in fields(Params)}
    out: dict[str, Any] = {}
    for key, val in raw.items():
        if key not in kinds:
            raise ValueError(f"unknown parameter {key!r}")
        if val is not None:
            out[key] = _parse_value(key, kinds[key], val)
    return out
