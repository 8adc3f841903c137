import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadeq import NetworkModel, ValidationError, evaluate, marginal
from cascadeq.exact import _step_matrix
from helpers import enumerate_distribution, random_model, step_probability

# printed three-decimal values of the worked two-node example
PRINTED = {
    1: {"00": 0.240, "10": 0.560, "01": 0.060, "11": 0.140},
    2: {"00": 0.167, "10": 0.174, "01": 0.479, "11": 0.179},
    3: {"00": 0.140, "10": 0.219, "01": 0.308, "11": 0.333},
}


def test_step_matrix_single_node_failure_split():
    model = NetworkModel.from_triggers([0.3], [0.0], {})
    assert _step_matrix(model)[0] == pytest.approx([0.7, 0.3])


def test_step_matrix_no_recovery_keeps_mass():
    model = NetworkModel.from_triggers([0.5], [0.0], {})
    assert list(_step_matrix(model)[1]) == [0.0, 1.0]


def test_step_matrix_triggered_split(two_node):
    # previous configuration 10: node 2 failed, node 1 good
    row = _step_matrix(two_node)[2]
    assert row[0] + row[2] == pytest.approx(0.16)
    assert row[1] + row[3] == pytest.approx(0.84)


def test_step_matrix_rows_match_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        k = int(rng.integers(1, 4))
        model = random_model(rng, k)
        matrix = _step_matrix(model)
        for prev, cur in itertools.product(range(1 << k), repeat=2):
            assert matrix[prev, cur] == pytest.approx(
                step_probability(model, prev, cur), rel=0, abs=1e-15)


def test_worked_example_matches_printed_values(two_node):
    tables = evaluate(two_node, 3)
    assert tables[0].by_string() == {"00": 1.0}
    for t, row in PRINTED.items():
        got = tables[t].by_string()
        for config, value in row.items():
            assert got[config] == pytest.approx(value, abs=1e-3)


def test_tables_sum_to_one(two_node):
    for table in evaluate(two_node, 6):
        assert table.total() == pytest.approx(1.0, abs=1e-12)


def test_matches_trajectory_enumeration_random_models():
    rng = np.random.default_rng(7)
    for _ in range(10):
        k = int(rng.integers(1, 4))
        horizon = int(rng.integers(1, 5))
        model = random_model(rng, k)
        expected = enumerate_distribution(model, horizon)
        got = evaluate(model, horizon)[horizon]
        for config in range(1 << k):
            assert got.probability(config) == pytest.approx(expected[config], abs=1e-12)


def test_zero_triggers_factorize():
    rng = np.random.default_rng(3)
    k, horizon = 3, 4
    p_fail = rng.uniform(0, 1, k)
    p_recover = rng.uniform(0, 1, k)
    model = NetworkModel(tuple(p_fail), tuple(p_recover),
                         tuple(tuple(0.0 for _ in range(k)) for _ in range(k)))
    table = evaluate(model, horizon)[horizon]
    # per-node two-state chain marginals
    chain = np.zeros(k)
    for _ in range(horizon):
        chain = chain * (1 - p_recover) + (1 - chain) * p_fail
    for config in range(1 << k):
        product = 1.0
        for n in range(k):
            bit = (config >> n) & 1
            product *= chain[n] if bit else 1 - chain[n]
        assert table.probability(config) == pytest.approx(product, abs=1e-12)


def test_marginal_examples(two_node):
    table = evaluate(two_node, 3)[3]
    assert marginal(table, [1], [1]) == pytest.approx(0.308 + 0.333, abs=1e-3)
    for config in range(4):
        full = marginal(table, [1, 2], [(config >> 0) & 1, (config >> 1) & 1])
        assert full == pytest.approx(table.probability(config), abs=0)
    total = sum(marginal(table, [1, 2], [b1, b2]) for b1 in (0, 1) for b2 in (0, 1))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_marginal_validation(two_node):
    table = evaluate(two_node, 1)[1]
    with pytest.raises(ValidationError):
        marginal(table, [], [])
    with pytest.raises(ValidationError):
        marginal(table, [3], [0])
    with pytest.raises(ValidationError):
        marginal(table, [1, 1], [0, 1])
    with pytest.raises(ValidationError):
        marginal(table, [1], [2])


def test_horizon_zero_allowed(two_node):
    tables = evaluate(two_node, 0)
    assert len(tables) == 1 and tables[0].probability(0) == 1.0


def test_negative_horizon_rejected(two_node):
    with pytest.raises(ValidationError):
        evaluate(two_node, -1)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_random_models_match_oracle_property(data):
    k = data.draw(st.integers(1, 3))
    horizon = data.draw(st.integers(1, 4))
    unit = st.floats(0.0, 1.0, allow_nan=False)
    p_fail = data.draw(st.tuples(*[unit] * k))
    p_recover = data.draw(st.tuples(*[unit] * k))
    rows = []
    for m in range(k):
        row = list(data.draw(st.tuples(*[unit] * k)))
        row[m] = 0.0
        rows.append(tuple(row))
    model = NetworkModel(p_fail, p_recover, tuple(rows))
    expected = enumerate_distribution(model, horizon)
    table = evaluate(model, horizon)[horizon]
    assert table.total() == pytest.approx(1.0, abs=1e-12)
    for config in range(1 << k):
        assert table.probability(config) == pytest.approx(expected[config], abs=1e-12)
