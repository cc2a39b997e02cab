import json
import math
from fractions import Fraction

import pytest

from threecolor.params import Params, default_round_cap, parse_param_overrides
from threecolor.structure import _bucket_boundaries


def test_default_k_from_degree():
    p = Params.for_graph(5000, 1666)
    assert abs(p.k - math.sqrt(5000 / 1666)) < 1e-12
    assert p.nhat == math.ceil(5000 / p.k**2)


def test_round_cap_default():
    assert default_round_cap(2000) == 3
    assert default_round_cap(10) == 3
    # the double log only beats the floor for astronomically large n
    assert default_round_cap(2**70) == 6


def test_k_clamped():
    p = Params.for_graph(10, 1, k=500.0)
    assert p.k == 10.0
    p = Params.for_graph(10, 1, k=0.5)
    assert p.k == 1.0


def test_nhat_floor():
    p = Params.for_graph(4, 4, k=4.0)
    assert p.nhat == 1


def test_parse_overrides_fraction_strings():
    out = parse_param_overrides(json.dumps({
        "degree_cap": "16/3",
        "highdeg_factor": 0.25,
        "k": None,
        "round_cap": 5,
    }))
    assert out["degree_cap"] == Fraction(16, 3)
    assert out["highdeg_factor"] == Fraction(1, 4)
    assert "k" not in out
    assert out["round_cap"] == 5


def test_tiny_fraction_knob_kept_exact():
    # limit_denominator(10**9) alone would round 1e-300 to 0
    out = parse_param_overrides('{"term_factor": 1e-300, "sidecut_factor": 0.1}')
    assert out["term_factor"] == Fraction(1e-300) > 0
    assert out["sidecut_factor"] == Fraction(1, 10)
    Params(k=2.0, nhat=1, **out)


def test_unknown_key_rejected():
    with pytest.raises(ValueError):
        parse_param_overrides('{"mystery": 1}')


def test_invalid_values_rejected():
    with pytest.raises(ValueError):
        Params(k=2.0, nhat=0)
    with pytest.raises(ValueError):
        Params(k=0.5, nhat=1)
    with pytest.raises(ValueError):
        Params(k=2.0, nhat=1, term_factor=Fraction(0))


@pytest.mark.parametrize("text", [
    '{"nhat": "x"}', '{"nhat": true}', '{"n0": 64.0}', '{"c1": "2"}', '{"k": [1]}',
    '{"tau": "x"}', '{"tau": NaN}', '{"k": Infinity}', '{"degree_cap": "1/0"}',
    '{"degree_cap": "x"}', '{"degree_cap": true}', '{"side_cuts": "no"}',
    '{"side_cuts": 0}', '{"k": %d}' % 10**400, '{"degree_cap": %d}' % 10**400,
])
def test_parse_overrides_rejects_wrong_types(text):
    with pytest.raises(ValueError):
        parse_param_overrides(text)


@pytest.mark.parametrize("text", [
    '{"bucket_base": "1"}', '{"bucket_base": "1/2"}', '{"bucket_base": 1}',
    '{"bucket_floor_divisor": 0}', '{"base_degree_divisor": 0}',
    '{"min_degree_divisor": -1}',
    # a bucket's top degree can pass the T-side cap degree_cap / base_degree_divisor
    '{"bucket_base": 2}', '{"bucket_base": "400000001/300000000"}',
    '{"degree_cap": 5}', '{"base_degree_divisor": 5}',
])
def test_bucket_base_and_divisors_bounded(text):
    overrides = parse_param_overrides(text)
    with pytest.raises(ValueError):
        Params(k=2.0, nhat=1, **overrides)


@pytest.mark.parametrize("base, cap, divisor", [
    (Fraction(4, 3), Fraction(16, 3), 4),  # the defaults, exactly at the limit
    (Fraction(3, 2), Fraction(6), 4), (Fraction(2), Fraction(8), 4),
    (Fraction(5, 4), Fraction(8, 3), 2), (Fraction(9, 8), Fraction(16, 3), 4),
    (Fraction(3, 2), Fraction(16, 3), 4), (Fraction(4, 3), Fraction(5), 4),
    (Fraction(4, 3), Fraction(16, 3), 5), (Fraction(2), Fraction(3), 1),
])
def test_bucket_base_refused_exactly_when_a_bucket_passes_the_cap(base, cap, divisor):
    # regularize's bucket l holds the degrees d with ceilings[l] <= d < ceilings[l + 1];
    # RegularPair.check refuses T-side degrees above floor(cap * delta_T), where
    # delta_T = boundaries[l] / divisor
    boundaries, ceilings = _bucket_boundaries(base, 10_000)
    passes = any(top > math.floor(cap * b / divisor)
                 for b, top in zip(boundaries, (ceilings[1:] - 1).tolist()))
    try:
        Params(k=2.0, nhat=1, bucket_base=base, degree_cap=cap,
               base_degree_divisor=divisor)
    except ValueError:
        assert passes
    else:
        assert not passes


def test_overrides_survive_for_graph():
    p = Params.for_graph(100, 10, c1=2.0, c2=2.0, side_cuts=False,
                         root_retries=3)
    assert p.c1 == 2.0 and not p.side_cuts and p.root_retries == 3


def test_large_set_scale_cannot_exceed_neighborhood_scale():
    with pytest.raises(ValueError):
        Params.for_graph(100, 10, c1=2.0)
