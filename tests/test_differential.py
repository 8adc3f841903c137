"""The engines check each other on random small models (k <= 3, T <= 3).

Exact propagation, trajectory enumeration, the statevector (built directly
and through the emitted gate listing), the Grover eigenphase and Monte Carlo
all describe the same step-T distribution.
"""
import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cascadeq import (
    GroverSpec,
    NetworkModel,
    build_model_circuit,
    emit_gates,
    evaluate,
    evaluate_mc,
    grover_eigenphase,
    marginal,
    parse_gates,
    probabilities,
    run,
)
from helpers import enumerate_distribution

_PROBABILITY = st.floats(0.0, 1.0)


@st.composite
def models(draw) -> NetworkModel:
    k = draw(st.integers(1, 3))
    p_fail = draw(st.lists(_PROBABILITY, min_size=k, max_size=k))
    p_recover = draw(st.lists(_PROBABILITY, min_size=k, max_size=k))
    trigger = [[0.0 if m == n else draw(_PROBABILITY) for n in range(k)] for m in range(k)]
    return NetworkModel(tuple(p_fail), tuple(p_recover), tuple(tuple(row) for row in trigger))


_HORIZONS = st.integers(1, 3)


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
def test_eigenphase_matches_exact_marked_probability(model, horizon, data):
    pattern = data.draw(st.lists(st.sampled_from("01*"), min_size=model.k,
                                 max_size=model.k).filter(lambda p: p != ["*"] * model.k))
    spec = GroverSpec.from_config("".join(pattern), horizon)
    nodes, bits = zip(*spec.marked)
    p = marginal(evaluate(model, horizon)[horizon], nodes, bits)
    assume(1e-9 < p < 1.0 - 1e-9)
    assert math.isclose(grover_eigenphase(model, horizon, spec).probability, p,
                        rel_tol=0.0, abs_tol=1e-9)


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
