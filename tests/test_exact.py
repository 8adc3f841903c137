import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cascadeq.exact as exact
from cascadeq import (DistributionTable, NetworkModel, ResourceLimitError, ValidationError,
                      evaluate, format_config, marginal)
from cascadeq.cli import main
from cascadeq.errors import DENSE_BYTE_BUDGET
from cascadeq.exact import _FOLD_PEAK, _TABLE_ENTRY_PEAK, _step_matrix
from helpers import (enumerate_distribution, random_model, save_model, step_probability,
                     traced_peak)

# printed three-decimal values of the worked two-node example
PRINTED = {
    1: {"00": 0.240, "10": 0.560, "01": 0.060, "11": 0.140},
    2: {"00": 0.167, "10": 0.174, "01": 0.479, "11": 0.179},
    3: {"00": 0.140, "10": 0.219, "01": 0.308, "11": 0.333},
}


def test_step_matrix_single_node_failure_split():
    model = NetworkModel.from_triggers([0.3], [0.0], {})
    assert _step_matrix(model)[0] == pytest.approx([0.7, 0.3])


@pytest.mark.parametrize("k", [10, 11])
def test_fold_peaks_within_its_byte_budget_factor(k):
    # the budget factor bounds the in-place fold's peak, and is not so loose
    # that it would refuse models the fold could build
    model = random_model(np.random.default_rng(k), k)
    peak = traced_peak(lambda: _step_matrix(model))
    assert peak <= _FOLD_PEAK * 8 * 4 ** k <= 1.3 * peak


def test_table_entry_peak_covers_the_exact_verb(tmp_path):
    # tables and report of a long horizon: a step costs about the same per
    # entry at k = 6 as at k = 1, counting four entries a step for its objects
    measured = []
    for k, horizon in ((1, 3000), (6, 200)):
        path, out = tmp_path / f"model{k}.json", tmp_path / "report.json"
        path.write_text(save_model(random_model(np.random.default_rng(1), k)))
        argv = ["exact", "--model", str(path), "--out", str(out), "--steps"]
        assert main([*argv, "1"]) == 0  # one-time imports and caches are not per step
        peak = traced_peak(lambda: main([*argv, str(horizon)])) - _FOLD_PEAK * 8 * 4 ** k
        measured.append(peak / (((1 << k) + 4) * (horizon + 1)))
    assert max(measured) <= _TABLE_ENTRY_PEAK <= 1.3 * max(measured), measured


class _FoldReached(Exception):
    pass


def test_horizon_past_the_table_budget_is_refused_before_the_fold(monkeypatch, two_node):
    def no_fold(model):
        raise _FoldReached

    monkeypatch.setattr(exact, "_step_matrix", no_fold)
    fold = int(_FOLD_PEAK * 8 * 4 ** 2)
    top = (DENSE_BYTE_BUDGET - fold) // (_TABLE_ENTRY_PEAK * (4 + 4)) - 1
    with pytest.raises(_FoldReached):
        evaluate(two_node, top)
    for horizon in (top + 1, 2 ** 63, 10 ** 400):
        with pytest.raises(ResourceLimitError):
            evaluate(two_node, horizon)


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
        bits = [(config >> 0) & 1, (config >> 1) & 1]
        full = marginal(table, [1, 2], bits)
        assert full == pytest.approx(table.probability(config), abs=0)
        assert marginal(table, np.array([1, 2]), np.array(bits)) == full
    total = sum(marginal(table, [1, 2], [b1, b2]) for b1 in (0, 1) for b2 in (0, 1))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_marginal_validation(two_node):
    table = evaluate(two_node, 1)[1]
    for empty in ([], np.array([], dtype=int)):
        with pytest.raises(ValidationError):
            marginal(table, empty, [])
    with pytest.raises(ValidationError):
        marginal(table, [3], [0])
    with pytest.raises(ValidationError):
        marginal(table, [1, 1], [0, 1])
    with pytest.raises(ValidationError):
        marginal(table, [1], [2])
    for nodes in ([1.5], ["1"], [None]):
        with pytest.raises(ValidationError) as info:
            marginal(table, nodes, [1])
        assert info.value.code == "invalid-node-index"
    assert marginal(table, np.array([2, 1]), [1, 1]) == marginal(table, [1, 2], [1, 1])


@pytest.mark.parametrize("k", range(1, 13))
def test_tables_equal_the_per_entry_conversion(k):
    # each table holds the nonzero entries of dist @ T^t, keyed by Python int
    # in ascending order with Python float values; half the models leave
    # node 1 unable to fail, so their tables miss configurations
    rng = np.random.default_rng(k)
    model = random_model(rng, k)
    if k % 2:
        p_trigger = tuple(tuple(0.0 if n == 0 else p for n, p in enumerate(row))
                          for row in model.p_trigger)
        model = NetworkModel((0.0,) + model.p_fail[1:], model.p_recover, p_trigger)
    horizon = 2
    tables = evaluate(model, horizon)
    matrix = _step_matrix(model)
    dist = np.zeros(1 << k)
    dist[0] = 1.0
    for table in tables[1:]:
        dist = dist @ matrix
        expected = {int(c): float(dist[c]) for c in np.flatnonzero(dist)}
        assert list(table.probs.items()) == list(expected.items())
        assert all(type(c) is int and type(p) is float for c, p in table.probs.items())
    if k % 2:
        assert len(tables[horizon].probs) < 1 << k


@pytest.mark.parametrize("k", range(1, 13))
def test_by_string_equals_format_config_labels(k):
    # full tables and tables missing configurations, keys inserted out of order
    rng = np.random.default_rng(100 + k)
    for size in (1 << k, max(1, (1 << k) // 3), 1):
        configs = rng.permutation(1 << k)[:size].tolist()
        probs = {c: float(p) for c, p in zip(configs, rng.random(size))}
        table = DistributionTable(k, probs)
        expected = {format_config(c, k): p for c, p in sorted(probs.items())}
        assert list(table.by_string().items()) == list(expected.items())


@pytest.mark.parametrize("k, probs", [(2, {0: 0.5, 4: 0.5}), (1, {0: 0.5, 2: 0.5}),
                                      (2, {-1: 1.0})])
def test_table_refuses_a_configuration_outside_its_nodes(k, probs):
    with pytest.raises(ValidationError) as err:
        DistributionTable(k, probs)
    assert err.value.code == "invalid-configuration"


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
