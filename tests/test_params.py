import math
import re
from dataclasses import fields
from pathlib import Path

import pytest

from threecolor.params import (
    DERIVED,
    Params,
    default_round_cap,
    nhat,
    parse_param_overrides,
)


def test_default_k_from_degree():
    p = Params.for_graph(5000, 1666)
    assert abs(p.k - math.sqrt(5000 / 1666)) < 1e-12
    assert nhat(5000, p.k) == math.ceil(5000 / p.k**2)


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
    assert nhat(4, p.k) == 1


def test_parse_overrides_fraction_strings():
    # no settable key is a fraction: a "p/q" string is refused, nulls are dropped
    with pytest.raises(ValueError, match="finite number"):
        parse_param_overrides('{"c2": "16/3"}')
    out = parse_param_overrides('{"k": null, "c1": 2, "c2": 2.5, "side_cuts": false}')
    assert out == {"c1": 2, "c2": 2.5, "side_cuts": False}


def test_readme_names_the_settable_keys():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Params file")[1].split("###")[0]
    named = re.search(r"Settable keys: (.*?)\.", section, re.S).group(1)
    settable = {f.name for f in fields(Params)} - set(DERIVED)
    assert set(re.findall(r"`(\w+)`", named)) == settable == {"k", "c1", "c2", "side_cuts"}


def test_unknown_key_rejected():
    with pytest.raises(ValueError):
        parse_param_overrides('{"mystery": 1}')


def test_invalid_values_rejected():
    with pytest.raises(ValueError):
        Params(k=0.5)


@pytest.mark.parametrize("text", [
    '{"nhat": "x"}', '{"nhat": true}', '{"c1": "2"}', '{"k": [1]}',
    '{"k": Infinity}', '{"side_cuts": "no"}', '{"side_cuts": 0}',
    '{"k": %d}' % 10**400,
    # fixed constants: refused whatever the value, as unknown parameters
    '{"n0": 64.0}', '{"tau": "x"}', '{"tau": NaN}', '{"degree_cap": "1/0"}',
    '{"degree_cap": "x"}', '{"degree_cap": true}', '{"degree_cap": %d}' % 10**400,
])
def test_parse_overrides_rejects_wrong_types(text):
    with pytest.raises(ValueError):
        parse_param_overrides(text)


@pytest.mark.parametrize("text", [
    '{"bucket_base": "1"}', '{"bucket_base": "1/2"}', '{"bucket_base": 1}',
    '{"bucket_floor_divisor": 0}', '{"base_degree_divisor": 0}',
    '{"min_degree_divisor": -1}',
    # a bucket's top degree would pass the T-side cap degree_cap / base_degree_divisor
    '{"bucket_base": 2}', '{"bucket_base": "400000001/300000000"}',
    '{"degree_cap": 5}', '{"base_degree_divisor": 5}',
])
def test_bucket_base_and_divisors_bounded(text):
    # the bucket base and the divisors are fixed constants, so no params
    # file can move them out of range
    with pytest.raises(ValueError, match="unknown parameter"):
        parse_param_overrides(text)


def test_overrides_survive_for_graph():
    p = Params.for_graph(100, 10, c1=2.0, c2=2.0, side_cuts=False)
    assert p.c1 == 2.0 and not p.side_cuts


def test_large_set_scale_cannot_exceed_neighborhood_scale():
    with pytest.raises(ValueError):
        Params.for_graph(100, 10, c1=2.0)
