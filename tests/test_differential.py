"""The engines check each other on random small models (k <= 3, T <= 3).

Exact propagation, trajectory enumeration, the statevector (built directly
and through the emitted gate listing), the Grover eigenphase and Monte Carlo
all describe the same step-T distribution, and standard QAE computed on the
Grover plane gives the phase-estimation circuit's ancilla distribution. The
Grover circuit equals the reflection form the library computes with in its
place, and the schedule's closed-form marked mass equals that of the
simulated Grover powers. The float64 statevector of a circuit with no
``phase`` gate is the real part of its complex128 run, and ``run`` equals
the gate kernel over the whole state in the deferred gate order exactly,
and in the circuit order to rounding.
"""
import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cascadeq import (
    Circuit,
    Gate,
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
from cascadeq.qae import _ancilla_distribution, _half_angle, _plane
from helpers import apply_gates, deferred_order, enumerate_distribution, extract_unitary

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
    spec = GroverSpec.from_config(data.draw(_patterns(model.k)))
    zero = Gate("phase", (0,), angle=0.0)  # multiplies by exactly 1+0j
    for circuit in (build_model_circuit(model, horizon), build_grover(model, horizon, spec)):
        full = run(Circuit(circuit.n_qubits, circuit.gates + (zero,)))
        real = run(circuit)
        assert real.dtype == np.float64 and full.dtype == np.complex128
        assert np.array_equal(real, full.real)
        assert not full.imag.any()


@st.composite
def _gate_lists(draw):
    """Gate lists on up to 7 qubits: a layer of uncontrolled ry gates on some
    qubits in any order (so with gaps), then gates of every kind on the
    qubits below a bound drawn per gate, so that their highest qubits
    spread. They mix fresh-qubit ry, h and x gates, repeated targets,
    controls above the qubits touched so far, and the diagonal kinds."""
    n = draw(st.integers(1, 7))
    angles = st.floats(-math.pi, math.pi)
    layer = draw(st.permutations(range(n)))[:draw(st.integers(0, n))]
    gates = [Gate("ry", (q,), angle=draw(angles)) for q in layer]
    for _ in range(draw(st.integers(0, 20))):
        kind = draw(st.sampled_from(["ry", "ry", "ry", "h", "x", "z", "phase", "s0", "mark"]))
        m = draw(st.integers(1, n))
        qubits = draw(st.permutations(range(m)))
        used = 0 if kind == "mark" else draw(st.integers(1, m)) if kind == "s0" else 1
        if kind == "ry" and draw(st.booleans()):
            count = 0
        else:
            count = draw(st.integers(1 if kind == "mark" else 0, m - used))
        controls = tuple((q, draw(st.integers(0, 1))) for q in qubits[used:used + count])
        angle = draw(angles) if kind in ("ry", "phase") else None
        gates.append(Gate(kind, tuple(qubits[:used]), controls, angle))
    return Circuit(n, tuple(gates))


def _apply_on_zero(gates, n):
    state = np.zeros(1 << n, dtype=complex if any(g.kind == "phase" for g in gates) else float)
    state[0] = 1.0
    return apply_gates(state, gates, n)


@settings(max_examples=200, deadline=None)
@given(_gate_lists())
# the phases act on one amplitude of the live prefix and on two of the whole
# state, and numpy rounds a one-element complex product its own way
@example(Circuit(2, (Gate("h", (0,)), Gate("phase", (0,), angle=1.0),
                     Gate("phase", (0,), angle=1.0))))
def test_run_is_apply_gates_in_the_deferred_order(circuit):
    n = circuit.n_qubits
    state = run(circuit)
    assert np.array_equal(state, _apply_on_zero(deferred_order(circuit.gates), n))
    # against circuit order the products associate in another order: a
    # deferred rotation's cos or sin multiplies an amplitude after the gates
    # it waited for, not before. That moved amplitudes by at most 4.6e-16 in
    # 20,000 such lists, and by 8.3e-17 on 20-qubit model circuits
    assert np.max(np.abs(state - _apply_on_zero(circuit.gates, n))) <= 2e-15


@settings(max_examples=25, deadline=None)
@given(models(), _HORIZONS, st.data())
def test_eigenphase_matches_exact_marked_probability(model, horizon, data):
    spec = GroverSpec.from_config(data.draw(_patterns(model.k)))
    nodes, bits = zip(*spec.marked)
    p = marginal(evaluate(model, horizon)[horizon], nodes, bits)
    assume(1e-9 < p < 1.0 - 1e-9)
    assert math.isclose(grover_eigenphase(model, horizon, spec).probability, p,
                        rel_tol=0.0, abs_tol=1e-9)


@settings(max_examples=25, deadline=None)
@given(models(), _HORIZONS, st.integers(1, 6), st.data())
def test_plane_distribution_matches_phase_estimation_circuit(model, horizon, bits, data):
    spec = GroverSpec.from_config(data.draw(_patterns(model.k)))
    nodes, marked = zip(*spec.marked)
    p = marginal(evaluate(model, horizon)[horizon], nodes, marked)
    assume(1e-9 < p < 1.0 - 1e-9)
    circuit = build_qae_circuit(model, horizon, spec, bits)
    want = probabilities(run(circuit), circuit.ancillas)
    plane_p, residual = _plane(model, horizon, spec)
    got = _ancilla_distribution(_half_angle(plane_p), bits)
    assert residual < 1e-8
    assert np.allclose(got, want, rtol=0.0, atol=1e-12)


def _marked_basis(circuit, horizon: int, spec: GroverSpec) -> np.ndarray:
    """Boolean mask of the circuit's basis states that satisfy the mark on
    the register of ``horizon``."""
    index = np.arange(1 << circuit.n_qubits)
    mask = np.ones(index.shape, dtype=bool)
    for node, bit in spec.marked:
        mask &= (index >> circuit.qubit(node, horizon)) & 1 == bit
    return mask


@settings(max_examples=25, deadline=None)
@given(models(), _HORIZONS, st.data())
def test_grover_circuit_is_the_reflection_form(model, horizon, data):
    # G = -A S0 A^dagger S_chi = (2|psi><psi| - I)(I - 2 Pi), psi = A|0>
    spec = GroverSpec.from_config(data.draw(_patterns(model.k)))
    base = build_model_circuit(model, horizon)
    psi = run(base)
    reflection = ((2.0 * np.outer(psi, psi) - np.eye(psi.size))
                  * np.where(_marked_basis(base, horizon, spec), -1.0, 1.0))
    got = extract_unitary(build_grover(model, horizon, spec))
    assert np.allclose(got, reflection, rtol=0.0, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(models(), _HORIZONS, st.data())
def test_schedule_distributions_match_simulated_grover_powers(model, horizon, data):
    # the marked mass after l simulated Grover applications is the closed
    # form sin^2((2l+1)a) that run_schedule draws its counts from
    spec = GroverSpec.from_config(data.draw(_patterns(model.k)))
    base = build_model_circuit(model, horizon)
    grover = build_grover(model, horizon, spec)
    register = base.register(horizon)
    marked = spec.matches(np.arange(1 << len(register)))
    angle = _half_angle(_plane(model, horizon, spec)[0])
    state = run(base)
    for power in range(9):
        mass = probabilities(state, register)[marked].sum()
        assert math.isclose(mass, math.sin((2 * power + 1) * angle) ** 2,
                            rel_tol=0.0, abs_tol=1e-12)
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
