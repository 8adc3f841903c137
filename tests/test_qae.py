import math

import numpy as np
import pytest

from cascadeq import (
    DegenerateSubspaceError,
    GroverSpec,
    NetworkModel,
    ValidationError,
    build_qae_circuit,
    decode_outcome,
    evaluate,
    grover_eigenphase,
    probabilities,
    run,
    run_standard_qae,
)
from cascadeq import qae, sim
from helpers import qpe_distribution, random_model, traced_peak

# three-bit decode grid: outcome -> (theta, probability), three decimals
DECODE_GRID = {
    0: (0.0, 0.0),
    1: (0.785, 0.146),
    2: (1.571, 0.500),
    3: (2.356, 0.854),
    4: (3.142, 1.0),
    5: (3.927, 0.854),
    6: (4.712, 0.500),
    7: (5.498, 0.146),
}

# published eigenphase analysis of the two-node example at step 3
EIGEN = {
    "00": (0.767, 0.720, 0.694, 0.140),
    "01": (1.177, 0.384, 0.923, 0.308),
    "10": (0.975, 0.562, 0.827, 0.220),
    "11": (1.230, 0.335, 0.942, 0.333),
}


def test_decode_grid_exact():
    for outcome, (theta, prob) in DECODE_GRID.items():
        got_theta, got_prob = decode_outcome(outcome, 3)
        assert round(got_theta, 3) == theta
        assert round(got_prob, 3) == prob


def test_decode_symmetry():
    for bits in range(1, 7):
        size = 1 << bits
        for outcome in range(size):
            mirrored = (size - outcome) % size
            assert decode_outcome(outcome, bits)[1] == decode_outcome(mirrored, bits)[1]


def test_decode_validation():
    with pytest.raises(ValidationError):
        decode_outcome(8, 3)
    with pytest.raises(ValidationError):
        decode_outcome(-1, 3)
    with pytest.raises(ValidationError):
        decode_outcome(0, 0)


def test_qae_ancilla_distribution_matches_closed_form(two_node):
    spec = GroverSpec.from_config("11", 3)
    circuit = build_qae_circuit(two_node, 3, spec, 3)
    state = run(circuit)
    measured = probabilities(state, circuit.ancillas)
    p_exact = evaluate(two_node, 3)[3].probability(3)
    theta = 2.0 * math.asin(math.sqrt(p_exact))
    assert np.max(np.abs(measured - qpe_distribution(theta, 3))) < 1e-12


def test_qae_modal_estimates(two_node):
    spec = GroverSpec.from_config("11", 3)
    result = run_standard_qae(two_node, 3, spec, 3, shots=2000, seed=17)
    assert result.probability == pytest.approx(0.500, abs=1e-12)
    result5 = run_standard_qae(two_node, 3, spec, 5, shots=2000, seed=17)
    p_exact = evaluate(two_node, 3)[3].probability(3)
    modal = result5.modal_outcome
    neighbor = min(modal, (1 << 5) - modal)
    grid_step = abs(decode_outcome(neighbor + 1, 5)[1] - decode_outcome(neighbor, 5)[1])
    assert abs(result5.probability - p_exact) <= grid_step


def test_qae_on_grid_phase():
    # p = sin^2(pi/8) puts the eigenphase exactly on the 3-bit grid
    model = NetworkModel.from_triggers([math.sin(math.pi / 8) ** 2], [0.0], {})
    spec = GroverSpec.from_config("1", 1)
    circuit = build_qae_circuit(model, 1, spec, 3)
    measured = probabilities(run(circuit), circuit.ancillas)
    expected = np.zeros(8)
    expected[1] = expected[7] = 0.5
    assert np.max(np.abs(measured - expected)) < 1e-12


def test_qae_impossible_configuration():
    model = NetworkModel.from_triggers([1.0], [0.0], {})
    result = run_standard_qae(model, 1, GroverSpec.from_config("0", 1), 1,
                              shots=256, seed=5)
    assert result.outcome_counts == {0: 256}
    assert result.modal_outcome == 0
    assert result.probability == 0.0


@pytest.mark.parametrize("bits", [1, 2, 3, 4])
def test_qae_certain_configuration(bits):
    # the marked event holds with certainty: the Grover operator acts as -1
    model = NetworkModel.from_triggers([1.0], [0.0], {})
    result = run_standard_qae(model, 1, GroverSpec.from_config("1", 1), bits,
                              shots=256, seed=5)
    assert result.outcome_counts == {1 << (bits - 1): 256}
    assert result.probability == 1.0


def test_eigenphase_matches_published(two_node):
    for config, (theta, re, im, prob) in EIGEN.items():
        result = grover_eigenphase(two_node, 3, GroverSpec.from_config(config, 3))
        assert result.theta == pytest.approx(theta, abs=1e-3)
        assert result.lambda_plus.real == pytest.approx(re, abs=1e-3)
        assert result.lambda_plus.imag == pytest.approx(im, abs=1e-3)
        assert result.lambda_minus == result.lambda_plus.conjugate()
        assert result.probability == pytest.approx(prob, abs=1e-3)
        assert abs(abs(result.lambda_plus) - 1.0) < 1e-12
        assert result.residual < 1e-8


def test_eigenphase_equals_exact_everywhere(two_node):
    exact = evaluate(two_node, 3)
    for step in (1, 2, 3):
        for config in range(4):
            spec = GroverSpec(step, ((1, config & 1), (2, (config >> 1) & 1)))
            result = grover_eigenphase(two_node, 3, spec)
            assert result.probability == pytest.approx(
                exact[step].probability(config), abs=1e-9)


def test_eigenphase_degenerate_cases():
    always = NetworkModel.from_triggers([1.0], [0.0], {})
    with pytest.raises(DegenerateSubspaceError):
        grover_eigenphase(always, 1, GroverSpec.from_config("1", 1))
    with pytest.raises(DegenerateSubspaceError):
        grover_eigenphase(always, 1, GroverSpec.from_config("0", 1))


@pytest.mark.parametrize("k, horizon", [(2, 7), (3, 5), (4, 4)])
def test_grover_plane_peaks_within_its_byte_budget_factor(k, horizon):
    model = random_model(np.random.default_rng(k), k)
    spec = GroverSpec.from_config("1" * k, horizon)
    peak = traced_peak(lambda: qae._grover_plane(model, horizon, spec, qubit_cap=20))
    assert peak < sim._RUN_PEAK * (16 << (k * horizon))


@pytest.mark.parametrize("k, horizon", [(4, 4), (4, 5)])
def test_grover_plane_with_mapped_parts_peaks_within_its_byte_budget_factor(k, horizon):
    # at 16 and 20 qubits the marked and unmarked float64 parts lie on
    # mappings of their own, which tracemalloc does not see: count them
    model = random_model(np.random.default_rng(k), k)
    spec = GroverSpec.from_config("1" * k, horizon)
    n = k * horizon
    assert n > sim._BLOCK_QUBITS
    peak = traced_peak(lambda: qae._grover_plane(model, horizon, spec, qubit_cap=20))
    assert peak + 2 * (8 << n) < sim._RUN_PEAK * (16 << n)
