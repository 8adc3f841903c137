"""The engines check each other on random small models (k <= 3, T <= 3).

Exact propagation, trajectory enumeration, the statevector (built directly
and through the emitted gate listing), the Grover eigenphase and Monte Carlo
all describe the same step-T distribution, and standard QAE computed on the
Grover plane gives the phase-estimation circuit's ancilla distribution. The
Grover circuit equals the reflection form the library computes with in its
place, and the schedule's closed-form distributions equal the simulated
Grover powers. The float64 statevector of a circuit with no ``phase`` gate
is the real part of its complex128 run.
"""
import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cascadeq import (
    GroverSpec,
    NetworkModel,
    build_grover,
    build_model_circuit,
    build_qae_circuit,
    emit_gates,
    evaluate,
    evaluate_mc,
    grover_eigenphase,
    marginal,
    parse_gates,
    probabilities,
    run,
)
from cascadeq.lowdepth import _power_distributions
from cascadeq.qae import _ancilla_distribution, _half_angle, _plane
from cascadeq.sim import apply_gates
from helpers import enumerate_distribution, extract_unitary

_PROBABILITY = st.floats(0.0, 1.0)


@st.composite
def models(draw) -> NetworkModel:
    k = draw(st.integers(1, 3))
    p_fail = draw(st.lists(_PROBABILITY, min_size=k, max_size=k))
    p_recover = draw(st.lists(_PROBABILITY, min_size=k, max_size=k))
    trigger = [[0.0 if m == n else draw(_PROBABILITY) for n in range(k)] for m in range(k)]
    return NetworkModel(tuple(p_fail), tuple(p_recover), tuple(tuple(row) for row in trigger))


_HORIZONS = st.integers(1, 3)


def _patterns(k: int):
    return st.lists(st.sampled_from("01*"), min_size=k, max_size=k).filter(
        lambda p: p != ["*"] * k).map("".join)


@settings(max_examples=25, deadline=None)
@given(models(), _HORIZONS)
def test_exact_enumeration_and_statevector_agree(model, horizon):
    exact = evaluate(model, horizon)
    circuit = build_model_circuit(model, horizon)
    state = run(circuit)
    relisted = run(parse_gates(emit_gates(circuit), circuit.n_qubits))
    for step in range(1, horizon + 1):
        want = np.array([exact[step].probability(c) for c in range(1 << model.k)])
        enumerated = enumerate_distribution(model, step)
        assert np.allclose([enumerated[c] for c in range(1 << model.k)], want,
                           rtol=0.0, atol=1e-12)
        register = circuit.register(step)
        assert np.allclose(probabilities(state, register), want, rtol=0.0, atol=1e-12)
        assert np.allclose(probabilities(relisted, register), want, rtol=0.0, atol=1e-6)


@settings(max_examples=25, deadline=None)
@given(models(), _HORIZONS, st.data())
def test_real_statevector_is_the_complex_runs_real_part(model, horizon, data):
    spec = GroverSpec.from_config(data.draw(_patterns(model.k)), horizon)
    for circuit in (build_model_circuit(model, horizon), build_grover(model, horizon, spec)):
        full = np.zeros(1 << circuit.n_qubits, dtype=complex)
        full[0] = 1.0
        apply_gates(full, circuit.gates, circuit.n_qubits)
        real = run(circuit)
        assert real.dtype == np.float64 and full.dtype == np.complex128
        assert np.array_equal(real, full.real)
        assert not full.imag.any()


@settings(max_examples=25, deadline=None)
@given(models(), _HORIZONS, st.data())
def test_eigenphase_matches_exact_marked_probability(model, horizon, data):
    spec = GroverSpec.from_config(data.draw(_patterns(model.k)), horizon)
    nodes, bits = zip(*spec.marked)
    p = marginal(evaluate(model, horizon)[horizon], nodes, bits)
    assume(1e-9 < p < 1.0 - 1e-9)
    assert math.isclose(grover_eigenphase(model, horizon, spec).probability, p,
                        rel_tol=0.0, abs_tol=1e-9)


@settings(max_examples=25, deadline=None)
@given(models(), _HORIZONS, st.integers(1, 6), st.data())
def test_plane_distribution_matches_phase_estimation_circuit(model, horizon, bits, data):
    spec = GroverSpec.from_config(data.draw(_patterns(model.k)), horizon)
    nodes, marked = zip(*spec.marked)
    p = marginal(evaluate(model, horizon)[horizon], nodes, marked)
    assume(1e-9 < p < 1.0 - 1e-9)
    circuit = build_qae_circuit(model, horizon, spec, bits)
    want = probabilities(run(circuit), circuit.ancillas)
    _, _, plane_p, residual = _plane(model, horizon, spec, qubit_cap=20)
    got = _ancilla_distribution(_half_angle(plane_p), bits)
    assert residual < 1e-8
    assert np.allclose(got, want, rtol=0.0, atol=1e-12)


def _marked_basis(circuit, spec: GroverSpec) -> np.ndarray:
    """Boolean mask of the circuit's basis states that satisfy the mark."""
    index = np.arange(1 << circuit.n_qubits)
    mask = np.ones(index.shape, dtype=bool)
    for node, bit in spec.marked:
        mask &= (index >> circuit.qubit(node, spec.target_step)) & 1 == bit
    return mask


@settings(max_examples=25, deadline=None)
@given(models(), _HORIZONS, st.data())
def test_grover_circuit_is_the_reflection_form(model, horizon, data):
    # G = -A S0 A^dagger S_chi = (2|psi><psi| - I)(I - 2 Pi), psi = A|0>
    spec = GroverSpec.from_config(data.draw(_patterns(model.k)), horizon)
    base = build_model_circuit(model, horizon)
    psi = run(base)
    reflection = ((2.0 * np.outer(psi, psi) - np.eye(psi.size))
                  * np.where(_marked_basis(base, spec), -1.0, 1.0))
    got = extract_unitary(build_grover(model, horizon, spec))
    assert np.allclose(got, reflection, rtol=0.0, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(models(), _HORIZONS, st.data())
def test_schedule_distributions_match_simulated_grover_powers(model, horizon, data):
    spec = GroverSpec.from_config(data.draw(_patterns(model.k)), horizon)
    base = build_model_circuit(model, horizon)
    grover = build_grover(model, horizon, spec)
    register = base.register(spec.target_step)
    state = run(base)
    powers = range(9)
    for power, got in zip(powers, _power_distributions(model, horizon, spec, powers,
                                                       qubit_cap=20)):
        assert np.allclose(got, probabilities(state, register), rtol=0.0, atol=1e-12)
        apply_gates(state, grover.gates, grover.n_qubits)


@settings(max_examples=25, deadline=None)
@given(models(), _HORIZONS, st.integers(0, 2 ** 32))
def test_monte_carlo_within_five_sigma_of_exact(model, horizon, seed):
    runs = 5_000
    table = evaluate(model, horizon)[horizon]
    counts = evaluate_mc(model, horizon, runs, seed).counts
    for c in range(1 << model.k):
        p = table.probability(c)
        slack = 5.0 * math.sqrt(runs * p * (1.0 - p)) + 1.0
        assert abs(counts.get(c, 0) - runs * p) <= slack
