import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadeq import (
    NetworkModel,
    ParseError,
    ValidationError,
    format_config,
    load_model,
    parse_config,
    save_model,
)
from cascadeq.model import p_on
from helpers import random_model, step_probability


def test_validate_accepts_worked_example(two_node):
    assert NetworkModel((0.2, 0.7), (0.3, 0.8), ((0.0, 0.2), (0.8, 0.0))) == two_node


def test_probability_out_of_range():
    with pytest.raises(ValidationError) as err:
        NetworkModel((0.2, 1.5), (0.3, 0.8), ((0.0, 0.2), (0.8, 0.0)))
    assert err.value.code == "probability-out-of-range"
    assert "p_fail[2]" in str(err.value)


def test_nonzero_self_trigger():
    with pytest.raises(ValidationError) as err:
        NetworkModel((0.2,), (0.3,), ((0.1,),))
    assert err.value.code == "nonzero-self-trigger"


def test_empty_model():
    with pytest.raises(ValidationError) as err:
        NetworkModel((), (), ())
    assert err.value.code == "empty-model"


def test_negative_probability_rejected():
    with pytest.raises(ValidationError) as err:
        NetworkModel((0.2,), (-0.1,), ((0.0,),))
    assert err.value.code == "probability-out-of-range"


_TWO = dict(p_fail=(0.2, 0.7), p_recover=(0.3, 0.8), p_trigger=((0.0, 0.2), (0.8, 0.0)))


@pytest.mark.parametrize("fields, code", [
    ({"p_fail": ("x", 0.7)}, "probability-out-of-range"),
    ({"p_fail": (None, 0.7)}, "probability-out-of-range"),
    ({"p_recover": (0.3, math.nan)}, "probability-out-of-range"),
    ({"p_fail": (0.2, 1.5)}, "probability-out-of-range"),
    ({"p_trigger": ((0.0, -0.1), (0.8, 0.0))}, "probability-out-of-range"),
    ({"p_fail": (0.2,), "p_recover": (0.3,), "p_trigger": (0.0,)}, "shape-mismatch"),
    ({"p_trigger": ((0.0, 0.2), (0.8,))}, "shape-mismatch"),
    ({"names": ("a",)}, "shape-mismatch"),
    ({"names": ("a", "a")}, "duplicate-node-name"),
    ({"p_trigger": ((0.0, 0.2), (0.8, 0.1))}, "nonzero-self-trigger"),
    ({"p_fail": (), "p_recover": (), "p_trigger": ()}, "empty-model"),
    ({"p_fail": 0.2}, "shape-mismatch"),
    ({"names": 5}, "shape-mismatch"),
], ids=["string", "none", "nan", "above-one", "negative", "flat-trigger", "short-row",
        "names-length", "duplicate-names", "self-trigger", "empty", "scalar-field",
        "scalar-names"])
def test_constructor_refuses_malformed_model(fields, code):
    with pytest.raises(ValidationError) as err:
        NetworkModel(**{**_TWO, **fields})
    assert err.value.code == code


def test_constructor_takes_iterables():
    model = NetworkModel(map(float, ("0.2", "0.7")), iter(_TWO["p_recover"]),
                         (iter(row) for row in _TWO["p_trigger"]), iter("ab"))
    assert model == NetworkModel(**_TWO, names=("a", "b"))


@pytest.mark.parametrize("fields, message", [
    ({"p_fail": (0.2, 1.5), "p_recover": (-0.1, 0.8)}, "p_recover[1]"),
    ({"p_trigger": ((0.0, 0.2), (0.8, 0.1)), "p_fail": (0.2, 1.5)}, "p_fail[2]"),
    ({"p_trigger": ((0.5, 1.5), (0.8, 0.0))}, "p_trigger[1][2]"),
    ({"p_trigger": ((0.5, 0.2), (1.5, 0.0))}, "p_trigger[1][1] must be 0"),
])
def test_constructor_reports_the_first_fault_in_node_order(fields, message):
    # per node p_fail then p_recover, then per trigger row its range and
    # then its self-trigger
    with pytest.raises(ValidationError) as err:
        NetworkModel(**{**_TWO, **fields})
    assert str(err.value).startswith(message)


def test_load_worked_example(two_node, fixtures_dir):
    model = load_model((fixtures_dir / "two_node_model.json").read_text())
    assert model.k == 2
    assert model.p_fail[1] == 0.7
    assert model.p_trigger[1][0] == 0.8
    assert model == two_node


def test_load_single_zero_node():
    text = json.dumps({"nodes": [{"name": "a", "p_fail": 0, "p_recover": 1}]})
    model = load_model(text)
    assert model.k == 1
    assert model.p_recover == (1.0,)  # the integers 0 and 1 are probabilities
    assert model.p_trigger == ((0.0,),)


def test_missing_triggers_means_zero():
    text = json.dumps({"nodes": [
        {"name": "a", "p_fail": 0.1, "p_recover": 0.2},
        {"name": "b", "p_fail": 0.3, "p_recover": 0.4},
    ]})
    model = load_model(text)
    assert all(p == 0.0 for row in model.p_trigger for p in row)


@pytest.mark.parametrize("text, fragment", [
    ("{", "not valid JSON"),
    ("[]", "JSON object"),
    (json.dumps({"nodes": []}), "nonempty"),
    (json.dumps({"nodes": [{"name": "a", "p_fail": 0, "p_recover": 0}], "extra": 1}),
     "unknown field"),
    (json.dumps({"nodes": [{"name": "a", "p_fail": 0, "p_recover": 0, "bogus": 1}]}),
     "unknown field"),
    (json.dumps({"nodes": [{"name": "a", "p_fail": 0}]}), "missing field"),
    (json.dumps({"nodes": [{"name": "a", "p_fail": 0, "p_recover": 0}] * 2}), "unique"),
    (json.dumps({"nodes": [{"name": "a", "p_fail": 0, "p_recover": 0}],
                 "triggers": [{"from": "a", "to": "zz", "p": 0.1}]}), "unknown node"),
    (json.dumps({"nodes": [{"name": "a", "p_fail": 0, "p_recover": 0},
                           {"name": "b", "p_fail": 0, "p_recover": 0}],
                 "triggers": [{"from": "a", "to": "b", "p": 0.1},
                              {"from": "a", "to": "b", "p": 0.2}]}), "duplicate"),
    *[(json.dumps({"nodes": [{"name": "a", "p_fail": bad, "p_recover": 0}]}), "must be a number")
      for bad in ("abc", None, [0.1], "0.2", True)],
    (json.dumps({"nodes": [{"name": "a", "p_fail": 0, "p_recover": False}]}), "must be a number"),
    (json.dumps({"nodes": [{"name": "a", "p_fail": 0, "p_recover": 0},
                           {"name": "b", "p_fail": 0, "p_recover": 0}],
                 "triggers": [{"from": "a", "to": "b", "p": "x"}]}), "must be a number"),
    (json.dumps({"nodes": [{"name": "a", "p_fail": 0, "p_recover": 0},
                           {"name": "b", "p_fail": 0, "p_recover": 0}],
                 "triggers": [{"from": ["1"], "to": "b", "p": 0.1}]}), "must be a string"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        load_model(text)
    assert fragment in str(err.value)


def test_self_trigger_in_file_is_validation_error():
    text = json.dumps({"nodes": [{"name": "a", "p_fail": 0, "p_recover": 0}],
                       "triggers": [{"from": "a", "to": "a", "p": 0.1}]})
    with pytest.raises(ValidationError) as err:
        load_model(text)
    assert err.value.code == "nonzero-self-trigger"


def test_round_trip_worked_example(two_node):
    assert load_model(save_model(two_node)) == two_node


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_round_trip_random_models(data):
    k = data.draw(st.integers(1, 5))
    unit = st.floats(0.0, 1.0, allow_nan=False)
    p_fail = data.draw(st.tuples(*[unit] * k))
    p_recover = data.draw(st.tuples(*[unit] * k))
    rows = []
    for m in range(k):
        row = list(data.draw(st.tuples(*[unit] * k)))
        row[m] = 0.0
        rows.append(tuple(row))
    model = NetworkModel(p_fail, p_recover, tuple(rows))
    assert load_model(save_model(model)) == model


def test_config_helpers():
    assert format_config(2, 2) == "10"  # node 2 failed, node 1 good
    assert parse_config("10") == 2
    assert parse_config("01") == 1
    for value in range(8):
        assert parse_config(format_config(value, 3)) == value
    assert parse_config("1" + "0" * 69) == 1 << 69  # past 64 nodes


def test_format_config_is_the_bit_by_bit_form():
    def bit_by_bit(value, k):
        return "".join(str((value >> (n - 1)) & 1) for n in range(k, 0, -1))

    for k in range(13):
        size = 1 << k
        values = [*range(size), size, size + 5, 3 * size + 1, 1 << 70, -1, -2, -size - 3]
        for value in values:
            assert format_config(value, k) == bit_by_bit(value, k), (value, k)


def test_parse_config_rejects_junk():
    with pytest.raises(ParseError):
        parse_config("1x0")
    with pytest.raises(ParseError):
        parse_config("")


def test_p_on_matches_step_probability_marginals():
    rng = np.random.default_rng(5)
    for k in (1, 2, 3, 4):
        model = random_model(rng, k)
        on = p_on(model, np.arange(1 << k))
        assert on.shape == (1 << k, k)
        for prev in range(1 << k):
            for n in range(k):
                marginal = sum(step_probability(model, prev, cur)
                               for cur in range(1 << k) if (cur >> n) & 1)
                assert abs(on[prev, n] - marginal) <= 1e-15
