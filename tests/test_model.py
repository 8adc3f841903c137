import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadeq import (
    NetworkModel,
    ParseError,
    ValidationError,
    config_bits,
    config_int,
    format_config,
    load_model,
    parse_config,
    save_model,
    validate,
)
from cascadeq.model import p_on
from helpers import random_model, step_probability


def test_validate_accepts_worked_example(two_node):
    validate(two_node)


def test_probability_out_of_range():
    model = NetworkModel((0.2, 1.5), (0.3, 0.8), ((0.0, 0.2), (0.8, 0.0)))
    with pytest.raises(ValidationError) as err:
        validate(model)
    assert err.value.code == "probability-out-of-range"
    assert "p_fail[2]" in str(err.value)


def test_nonzero_self_trigger():
    model = NetworkModel((0.2,), (0.3,), ((0.1,),))
    with pytest.raises(ValidationError) as err:
        validate(model)
    assert err.value.code == "nonzero-self-trigger"


def test_empty_model():
    with pytest.raises(ValidationError) as err:
        validate(NetworkModel((), (), ()))
    assert err.value.code == "empty-model"


def test_negative_probability_rejected():
    model = NetworkModel((0.2,), (-0.1,), ((0.0,),))
    with pytest.raises(ValidationError) as err:
        validate(model)
    assert err.value.code == "probability-out-of-range"


def test_load_worked_example(two_node, fixtures_dir):
    model = load_model((fixtures_dir / "two_node_model.json").read_text())
    assert model.k == 2
    assert model.p_fail[1] == 0.7
    assert model.p_trigger[1][0] == 0.8
    assert model == two_node


def test_load_single_zero_node():
    text = json.dumps({"nodes": [{"name": "a", "p_fail": 0, "p_recover": 0}]})
    model = load_model(text)
    assert model.k == 1
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
    assert config_int([0, 1]) == 2
    assert config_bits(2, 2) == (0, 1)
    assert format_config(2, 2) == "10"  # node 2 failed, node 1 good
    assert parse_config("10") == 2
    assert parse_config("01") == 1
    for value in range(8):
        assert parse_config(format_config(value, 3)) == value


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
