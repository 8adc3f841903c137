import math

import numpy as np
import pytest

from cascadeq import (
    Circuit,
    Gate,
    GroverSpec,
    NetworkModel,
    NoiseSpec,
    ResourceLimitError,
    ValidationError,
    build_grover,
    build_model_circuit,
    evaluate,
    extract_unitary,
    marginal_probability,
    probabilities,
    run,
    run_schedule,
    sample_counts,
)
from cascadeq.sim import apply_gates, sample_marked


def test_single_rotation_probability():
    circuit = Circuit(1, (Gate("ry", (0,), angle=1.159),))
    state = run(circuit)
    assert abs(state[1]) ** 2 == pytest.approx(math.sin(1.159 / 2) ** 2, abs=1e-12)
    assert abs(state[1]) ** 2 == pytest.approx(0.300, abs=1e-3)


def test_empty_circuit_keeps_initial():
    initial = np.array([0.6, 0.8j], dtype=complex)
    state = run(Circuit(1, ()), initial=initial)
    assert np.array_equal(state, initial)
    assert state is not initial


def test_dimension_mismatch():
    with pytest.raises(ValidationError) as err:
        run(Circuit(2, ()), initial=np.array([1.0, 0.0]))
    assert err.value.code == "dimension-mismatch"


def test_resource_limit():
    with pytest.raises(ResourceLimitError):
        run(Circuit(21, ()))
    # 16 * 2^27 bytes is past the dense byte budget; raised before allocating
    with pytest.raises(ResourceLimitError):
        run(Circuit(27, ()), qubit_cap=40)
    # a 25-qubit state fits, but a run peaks at about 2.6 states
    with pytest.raises(ResourceLimitError):
        run(Circuit(25, ()), qubit_cap=40)
    with pytest.raises(ResourceLimitError):
        extract_unitary(Circuit(11, ()))


def test_two_node_register_marginals(two_node):
    circuit = build_model_circuit(two_node, 3)
    state = run(circuit)
    probs = probabilities(state, circuit.register(2))
    # printed row order is 00, 10, 01, 11; index order is 00, 01, 10, 11
    assert list(probs) == pytest.approx([0.167, 0.479, 0.174, 0.179], abs=1e-3)
    exact = evaluate(two_node, 3)
    for t in (1, 2, 3):
        measured = probabilities(state, circuit.register(t))
        for config in range(4):
            assert measured[config] == pytest.approx(
                exact[t].probability(config), abs=1e-9)


def test_random_models_match_exact_marginals():
    from helpers import random_model

    rng = np.random.default_rng(17)
    for _ in range(6):
        k = int(rng.integers(1, 4))
        horizon = int(rng.integers(1, 4))
        model = random_model(rng, k)
        circuit = build_model_circuit(model, horizon)
        state = run(circuit)
        exact = evaluate(model, horizon)
        for step in range(1, horizon + 1):
            measured = probabilities(state, circuit.register(step))
            for config in range(1 << k):
                assert measured[config] == pytest.approx(
                    exact[step].probability(config), abs=1e-9)


def test_one_node_state_one_marginal(one_node):
    circuit = build_model_circuit(one_node, 4)
    state = run(circuit)
    assert marginal_probability(state, [circuit.qubit(1, 4)], [1]) == pytest.approx(
        0.6528, abs=1e-9)


def test_marginal_probability_basics():
    state = np.zeros(4, dtype=complex)
    state[0] = 1.0
    assert marginal_probability(state, [0], [0]) == 1.0
    assert marginal_probability(state, [1], [1]) == 0.0
    uniform = np.full(4, 0.5, dtype=complex)
    assert marginal_probability(uniform, [1], [1]) == pytest.approx(0.5)
    with pytest.raises(ValidationError):
        marginal_probability(state, [2], [0])
    with pytest.raises(ValidationError):
        marginal_probability(state, [0, 0], [0, 0])


def test_sample_counts_behaviour(two_node):
    circuit = build_model_circuit(two_node, 2)
    state = run(circuit)
    counts = sample_counts(state, circuit.register(2), 1000, seed=4)
    assert sum(counts.values()) == 1000
    exact = evaluate(two_node, 2)[2]
    for config, count in counts.items():
        p = exact.probability(config)
        assert abs(count / 1000 - p) <= 4.0 * math.sqrt(p * (1 - p) / 1000)
    # reproducible and single-shot edge
    assert counts == sample_counts(state, circuit.register(2), 1000, seed=4)
    single = sample_counts(state, circuit.register(2), 1, seed=1)
    assert sorted(single.values()) == [1]
    with pytest.raises(ValidationError) as err:
        sample_counts(state, circuit.register(2), 10, seed=-1)
    assert err.value.code == "invalid-seed"


def test_sample_counts_deterministic_state():
    state = np.zeros(2, dtype=complex)
    state[1] = 1.0
    assert sample_counts(state, [0], 64, seed=0) == {1: 64}


def test_extract_unitary_basics():
    x = extract_unitary(Circuit(1, (Gate("x", (0,)),)))
    assert np.array_equal(x, np.array([[0, 1], [1, 0]], dtype=complex))
    theta = 0.73
    ry = extract_unitary(Circuit(1, (Gate("ry", (0,), angle=theta),)))
    expected = np.array([[math.cos(theta / 2), -math.sin(theta / 2)],
                         [math.sin(theta / 2), math.cos(theta / 2)]])
    assert np.max(np.abs(ry - expected)) < 1e-15


def test_grover_unitarity_via_extraction(two_node):
    grover = build_grover(two_node, 3, GroverSpec.from_config("10", 3))
    matrix = extract_unitary(grover)
    assert np.max(np.abs(matrix @ matrix.conj().T - np.eye(64))) < 1e-9


def test_norm_preserved_gate_by_gate(two_node):
    circuit = build_grover(two_node, 2, GroverSpec.from_config("11", 2))
    state = np.zeros(1 << circuit.n_qubits, dtype=complex)
    state[0] = 1.0
    for gate in circuit.gates:
        apply_gates(state, [gate], circuit.n_qubits)
        assert abs(np.linalg.norm(state) - 1.0) < 1e-10


def test_phase_and_mark_gates():
    # mark flips exactly the amplitudes matching the control pattern
    state = np.full(4, 0.5, dtype=complex)
    apply_gates(state, [Gate("mark", controls=((0, 1), (1, 0)))], 2)
    assert np.allclose(state, [0.5, -0.5, 0.5, 0.5])
    state = np.full(4, 0.5, dtype=complex)
    apply_gates(state, [Gate("s0", (0, 1))], 2)
    assert np.allclose(state, [-0.5, 0.5, 0.5, 0.5])
    state = np.array([0.0, 1.0], dtype=complex)
    apply_gates(state, [Gate("phase", (0,), angle=math.pi / 2)], 1)
    assert np.allclose(state, [0.0, 1j])


def test_noise_spec_validation():
    with pytest.raises(ValidationError):
        NoiseSpec(1.5)
    spec = NoiseSpec.from_decay_rate(0.977)
    assert spec.per_grover_error == pytest.approx(1.0 - math.exp(-0.977))


def test_noiseless_channel_matches_distribution(two_node):
    spec = GroverSpec.from_config("01", 3)
    shots = 50_000
    trace = run_schedule(two_node, 3, spec, [0], shots, noise=NoiseSpec(0.0), seed=8)
    p = evaluate(two_node, 3)[3].probability(1)
    assert abs(trace.marked[0] / shots - p) <= 4.0 * math.sqrt(p * (1 - p) / shots)


def test_fully_scrambled_channel_hits_marked_fraction():
    model = NetworkModel.from_triggers([1.0], [0.0], {})
    spec = GroverSpec.from_config("1", 1)
    shots = 50_000
    trace = run_schedule(model, 1, spec, [1], shots, noise=NoiseSpec(1.0), seed=3)
    assert abs(trace.marked[0] / shots - 0.5) <= 4.0 * math.sqrt(0.25 / shots)


def test_survival_fraction_tracks_power():
    # clean shots always measure marked (p_fail = 1), scrambled ones half the
    # time, so the marked fraction pins the empirical survival rate
    model = NetworkModel.from_triggers([1.0], [0.0], {})
    spec = GroverSpec.from_config("1", 1)
    epsilon = 0.3
    shots = 100_000
    powers = (1, 2, 4)
    trace = run_schedule(model, 1, spec, powers, shots, noise=NoiseSpec(epsilon), seed=41)
    for power, count in zip(powers, trace.marked):
        survival = (1.0 - epsilon) ** power
        expectation = survival + (1.0 - survival) * 0.5
        sigma = math.sqrt(expectation * (1.0 - expectation) / shots)
        assert abs(count / shots - expectation) <= 3.0 * sigma


def test_sample_marked_validates_shots():
    state = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(ValidationError):
        sample_marked(state, [0], lambda v: v == 1, 0, 1.0, np.random.default_rng(0))
