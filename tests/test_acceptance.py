"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v``; a PASS/FAIL line per
criterion is printed at the end of the session.
"""
import math
import time

import numpy as np
import pytest

from cascadeq import (
    GroverSpec,
    LowDepthTrace,
    NetworkModel,
    NoiseSpec,
    build_model_circuit,
    decode_outcome,
    evaluate,
    evaluate_mc,
    fit_noise_model,
    fit_sine,
    grover_eigenphase,
    load_model,
    max_depth,
    min_shots,
    predict,
    probabilities,
    run,
    run_schedule,
    run_standard_qae,
    trace_from_text,
)
from cascadeq.circuit import build_grover
from helpers import enumerate_distribution, extract_unitary, random_model, save_model, trace_to_text

TWO_NODE = NetworkModel.from_triggers([0.2, 0.7], [0.3, 0.8], {(1, 2): 0.2, (2, 1): 0.8})
ONE_NODE = NetworkModel.from_triggers([0.3], [0.1], {})

PRINTED_TABLE = {
    0: [1.0, 0.0, 0.0, 0.0],
    1: [0.240, 0.560, 0.060, 0.140],
    2: [0.167, 0.174, 0.479, 0.179],
    3: [0.140, 0.219, 0.308, 0.333],
}
TABLE_COLUMNS = [0, 2, 1, 3]  # printed column order 00, 10, 01, 11


def test_criterion_01_exact_reproduces_published_table():
    started = time.perf_counter()
    tables = evaluate(TWO_NODE, 3)
    for step, row in PRINTED_TABLE.items():
        for column, config in enumerate(TABLE_COLUMNS):
            assert tables[step].probability(config) == pytest.approx(
                row[column], abs=5e-4)
    assert time.perf_counter() - started < 1.0


def test_criterion_02_exact_equals_trajectory_enumeration():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(50):
        k = int(rng.integers(1, 4))
        horizon = int(rng.integers(1, 5))
        model = random_model(rng, k)
        expected = enumerate_distribution(model, horizon)
        table = evaluate(model, horizon)[horizon]
        for config in range(1 << k):
            assert table.probability(config) == pytest.approx(
                expected[config], abs=1e-12)
    assert time.perf_counter() - started < 30.0


def test_criterion_03_monte_carlo_accuracy_and_spread():
    result = evaluate_mc(TWO_NODE, 3, 10 ** 6, seed=0)
    for column, config in enumerate(TABLE_COLUMNS):
        assert abs(result.estimates.get(config, 0.0)
                   - PRINTED_TABLE[3][column]) <= 0.002

    def pooled_spread(runs: int) -> float:
        per_config = {c: [] for c in range(4)}
        for rep in range(20):
            r = evaluate_mc(TWO_NODE, 3, runs, seed=(123, rep))
            for c in range(4):
                per_config[c].append(r.estimates.get(c, 0.0))
        return float(np.mean([np.std(v) for v in per_config.values()]))

    s3, s4, s5 = pooled_spread(10 ** 3), pooled_spread(10 ** 4), pooled_spread(10 ** 5)
    assert 2.2 <= s3 / s4 <= 4.5
    assert 2.2 <= s4 / s5 <= 4.5


def test_criterion_04_circuit_builder_angle_sets():
    circuit = build_model_circuit(TWO_NODE, 2)
    angles = sorted(gate.angle for gate in circuit.gates)
    expected = sorted([0.927, 1.982, 0.927, 1.982, 1.055, 1.391, -1.055, 0.135])
    assert angles == pytest.approx(expected, abs=1e-3)

    chain = build_model_circuit(ONE_NODE, 4)
    chain_angles = sorted(set(round(gate.angle, 3) for gate in chain.gates))
    assert chain_angles == pytest.approx([1.159, 1.339], abs=1e-3)


def test_criterion_05_statevector_marginals_match_exact():
    circuit = build_model_circuit(TWO_NODE, 3)
    state = run(circuit)
    exact = evaluate(TWO_NODE, 3)
    for step in (1, 2, 3):
        measured = probabilities(state, circuit.register(step))
        for config in range(4):
            assert measured[config] == pytest.approx(
                exact[step].probability(config), abs=1e-9)

    chain = build_model_circuit(ONE_NODE, 4)
    chain_state = run(chain)
    chain_exact = evaluate(ONE_NODE, 4)
    printed = [0.300, 0.480, 0.588, 0.653]
    for step in (1, 2, 3, 4):
        measured = probabilities(chain_state, chain.register(step))
        assert measured[1] == pytest.approx(chain_exact[step].probability(1), abs=1e-9)
        assert measured[1] == pytest.approx(printed[step - 1], abs=5e-4)


def test_criterion_06_grover_eigenphases_match_published():
    published = {
        "00": (0.767, 0.720, 0.694),
        "01": (1.177, 0.384, 0.923),
        "10": (0.975, 0.562, 0.827),
        "11": (1.230, 0.335, 0.942),
    }
    for config, (theta, re, im) in published.items():
        result = grover_eigenphase(TWO_NODE, 3, GroverSpec.from_config(config))
        assert result.theta == pytest.approx(theta, abs=1e-3)
        assert result.lambda_plus.real == pytest.approx(re, abs=1e-3)
        assert result.lambda_plus.imag == pytest.approx(im, abs=1e-3)
        assert result.lambda_minus.real == pytest.approx(re, abs=1e-3)
        assert result.lambda_minus.imag == pytest.approx(-im, abs=1e-3)
        assert result.residual < 1e-8


def test_criterion_07_decode_grid_and_qae_estimates():
    grid = {
        0: (0.0, 0.0), 1: (0.785, 0.146), 2: (1.571, 0.500), 3: (2.356, 0.854),
        4: (3.142, 1.0), 5: (3.927, 0.854), 6: (4.712, 0.500), 7: (5.498, 0.146),
    }
    for outcome, (theta, prob) in grid.items():
        got_theta, got_prob = decode_outcome(outcome, 3)
        assert round(got_theta, 3) == theta
        assert round(got_prob, 3) == prob

    spec = GroverSpec.from_config("11")
    result3 = run_standard_qae(TWO_NODE, 3, spec, 3, shots=4096, seed=7)
    assert result3.probability == pytest.approx(0.500, abs=1e-12)

    result5 = run_standard_qae(TWO_NODE, 3, spec, 5, shots=4096, seed=7)
    folded = min(result5.modal_outcome, (1 << 5) - result5.modal_outcome)
    grid_step = abs(decode_outcome(folded + 1, 5)[1] - decode_outcome(folded, 5)[1])
    assert abs(result5.probability - 0.333) <= grid_step


def test_criterion_08_sine_fit_recovers_published_probabilities(fixtures_dir):
    expected = {"00": 0.144, "01": 0.308, "10": 0.219, "11": 0.330}
    for config, prob in expected.items():
        trace = trace_from_text(
            (fixtures_dir / f"trace_2node_c{config}.csv").read_text())
        assert fit_sine(trace).probability == pytest.approx(prob, abs=0.01)


def test_criterion_09_noise_model_fits_published_count_tables(fixtures_dir):
    noisy_expected = {1: 0.300, 2: 0.459, 3: 0.596, 4: 0.703}
    for step, prob in noisy_expected.items():
        trace = trace_from_text(
            (fixtures_dir / f"trace_1node_noisy_t{step}.csv").read_text())
        assert fit_noise_model(trace).probability == pytest.approx(prob, abs=0.02)

    device_expected = {1: 0.300, 2: 0.487, 3: 0.581, 4: 0.664}
    exact_values = {3: 0.588, 4: 0.6528}
    for step, prob in device_expected.items():
        trace = trace_from_text(
            (fixtures_dir / f"trace_1node_device_t{step}.csv").read_text())
        noise_fit = fit_noise_model(trace)
        assert noise_fit.probability == pytest.approx(prob, abs=0.02)
        if step in exact_values:
            sine_fit = fit_sine(trace)
            exact_value = exact_values[step]
            assert (abs(noise_fit.probability - exact_value)
                    < abs(sine_fit.probability - exact_value))


def test_criterion_10_synthetic_noisy_experiment():
    spec = GroverSpec.from_config("1")
    noise = NoiseSpec.from_decay_rate(0.977)
    hits = 0
    for seed in range(20):
        trace = run_schedule(ONE_NODE, 3, spec, range(9), 2000, noise=noise, seed=seed)
        fit = fit_noise_model(trace)
        hits += abs(fit.probability - 0.588) <= 0.05
    assert hits >= 18


def test_criterion_11_property_bundle():
    rng = np.random.default_rng(99)

    # normalization of exact distributions
    for _ in range(10):
        model = random_model(rng, int(rng.integers(1, 4)))
        for table in evaluate(model, 4):
            assert table.total() == pytest.approx(1.0, abs=1e-12)

    # unitarity of the Grover operator
    grover = build_grover(TWO_NODE, 3, GroverSpec.from_config("01"))
    matrix = extract_unitary(grover)
    assert np.max(np.abs(matrix @ matrix.conj().T - np.eye(64))) < 1e-9

    # ambiguity invariance of predicted curves at integer powers
    for theta in np.linspace(0.1, math.pi, 12):
        twin = 2.0 * math.pi - theta
        for power in range(9):
            for a, f in ((0.0, 0.0), (0.5, 0.5), (-0.1, 0.3)):
                assert predict(theta, power, a, f) == pytest.approx(
                    predict(twin, power, a, f), abs=1e-9)

    # min_shots / max_depth mutual consistency
    for a in (0.1, 0.25, 0.5, 1.0, 2.0):
        for power in range(0, 9):
            for f in (0.1, 0.25, 0.5, 0.75, 0.9):
                shots = min_shots(a, power, f)
                assert max_depth(a, shots, f) >= power

    # model and trace round trips
    for _ in range(10):
        model = random_model(rng, int(rng.integers(1, 5)))
        assert load_model(save_model(model)) == model
    trace = LowDepthTrace((0, 1, 2, 5), (30, 30, 30, 30), (5, 29, 26, 7))
    assert trace_from_text(trace_to_text(trace)) == trace
