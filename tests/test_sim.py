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
    probabilities,
    run,
    run_schedule,
)
from cascadeq import sim
from cascadeq.qae import _draw_counts
from helpers import (apply_gates, deferred_order, extract_unitary, mapped_bytes, random_model,
                     traced_peak)


def test_single_rotation_probability():
    circuit = Circuit(1, (Gate("ry", (0,), angle=1.159),))
    state = run(circuit)
    assert abs(state[1]) ** 2 == pytest.approx(math.sin(1.159 / 2) ** 2, abs=1e-12)
    assert abs(state[1]) ** 2 == pytest.approx(0.300, abs=1e-3)


def test_state_dtype_follows_the_phase_gates(two_node):
    assert run(build_model_circuit(two_node, 2)).dtype == np.float64
    assert run(Circuit(1, ())).dtype == np.float64
    phase = Circuit(1, (Gate("h", (0,)), Gate("phase", (0,), angle=0.4)))
    state = run(phase)
    assert state.dtype == np.complex128
    assert state[1] == pytest.approx(complex(math.cos(0.4), math.sin(0.4)) / math.sqrt(2.0),
                                     abs=1e-15)


def test_resource_limit():
    # the byte budget is the only size limit: a run peaks at _RUN_PEAK states,
    # 678 MiB at 24 qubits and past the 1 GiB budget from 25 on
    sim.check_run_size(24)
    for n in (25, 27, 62, 63, 1100):
        with pytest.raises(ResourceLimitError):
            sim.check_run_size(n)
    # refused before allocating
    for n in (25, 27):
        with pytest.raises(ResourceLimitError):
            run(Circuit(n, ()))
    with pytest.raises(ResourceLimitError):
        extract_unitary(Circuit(11, ()))


def test_runs_to_24_qubits_pass_the_budget(monkeypatch):
    # 21 to 24 qubits pass the budget; the allocation is stubbed out
    class Allocated(Exception):
        pass

    def no_zeros(size, dtype):
        raise Allocated(size)

    monkeypatch.setattr(sim, "_zeros", no_zeros)
    for n in (21, 24):
        with pytest.raises(Allocated):
            run(Circuit(n, ()))


def _complex_run(circuit):
    """``run`` of the circuit with a trailing zero-angle ``phase`` gate: the
    same gates in the same deferred order on a complex128 state, since the
    phase multiplies by exactly 1+0j."""
    zero = Gate("phase", (0,), angle=0.0)
    state = run(Circuit(circuit.n_qubits, circuit.gates + (zero,)))
    assert state.dtype == np.complex128
    return state


def test_real_run_is_the_complex_runs_real_part():
    model = random_model(np.random.default_rng(5), 3)
    spec = GroverSpec.from_config("1*0")
    for circuit in (build_model_circuit(model, 4), build_grover(model, 4, spec)):
        full = _complex_run(circuit)
        assert np.array_equal(run(circuit), full.real)
        assert not full.imag.any()


def _record_kernel(monkeypatch):
    """Patch the gate kernel to record (gate, amplitudes it acts on) per call."""
    calls = []
    kernel = sim._apply_gate

    def recording(view, gate, n, scratch):
        calls.append((gate, view.size))
        return kernel(view, gate, n, scratch)

    monkeypatch.setattr(sim, "_apply_gate", recording)
    return calls


def test_run_writes_the_initial_layer_as_apply_gates_would(monkeypatch):
    calls = _record_kernel(monkeypatch)
    # (gates, qubits, the deferred order as indices into gates, the gates the
    # kernel applies as (index, live qubits)): a fresh qubit's uncontrolled ry
    # waits until a gate touches that qubit or one above it, and is written
    # by doubling; every other gate acts on the live prefix
    ry = tuple(Gate("ry", (q,), angle=0.3 + 0.2 * q) for q in range(5))
    cx3 = Gate("x", (0,), ((3, 1),))
    cases = [
        ((Gate("h", (0,)),) + ry, 5, range(6), [(0, 1), (1, 1)]),  # h first
        ((Gate("ry", (0,), ((1, 0),), angle=0.7),) + ry, 5, range(6),
         [(0, 2), (1, 2), (2, 2)]),  # controlled first
        ((cx3,) + ry, 5, range(6), [(0, 4), (1, 4), (2, 4), (3, 4), (4, 4)]),  # control above
        (ry[1:] + ry[:1], 5, [4, 0, 1, 2, 3], []),  # starts on qubit 1
        (ry[::-1], 5, [4, 3, 2, 1, 0], []),  # descending
        (ry[:1] + (Gate("ry", (0,), angle=1.1),) + ry[1:], 5, range(6), [(1, 1)]),  # repeated
        (ry[:2] + ry[3:] + ry[2:3], 5, [0, 1, 4, 2, 3], []),  # a gap at qubit 2
        (ry[:2] + (Gate("z", (3,)),) + ry[2:], 5, range(6),
         [(2, 4), (3, 4), (4, 4)]),  # a diagonal gate above the touched qubits
    ]
    # model circuits at 12 and 16 qubits, one with a phase gate after it: each
    # initial ry waits for the first correction on its qubit, so the deferred
    # order is the gates sorted by target, and a correction on qubit t acts on
    # t + 1 qubits
    for k in (3, 4):
        gates = build_model_circuit(random_model(np.random.default_rng(k), k), 4).gates
        order = sorted(range(len(gates)), key=lambda i: gates[i].targets)
        kernel = [(i, gate.targets[0] + 1) for i, gate in enumerate(gates) if gate.controls]
        cases.append((gates, 4 * k, order, kernel))
    gates += (Gate("phase", (3,), angle=0.4),)
    cases.append((gates, 16, order + [len(gates) - 1], kernel + [(len(gates) - 1, 16)]))
    for gates, n, order, kernel in cases:
        deferred = [gates[i] for i in order]
        assert deferred == deferred_order(gates)
        want = sim._zeros(1 << n, complex if any(g.kind == "phase" for g in gates) else float)
        want[0] = 1.0
        apply_gates(want, deferred, n)
        calls.clear()
        got = run(Circuit(n, gates))
        assert calls == [(gates[i], 1 << live) for i, live in kernel], n
        assert got.dtype == want.dtype
        assert np.array_equal(got, want), n


def test_register_one_gates_act_on_the_live_prefix(monkeypatch):
    # k = 4, T = 5: the gates of transition 1 -> 2, controlled on register 1
    # (qubits 0..3) and targeting register 2, touch no qubit above 7
    circuit = build_model_circuit(random_model(np.random.default_rng(4), 4), 5)
    want = run(circuit)
    calls = _record_kernel(monkeypatch)
    got = run(circuit)
    assert np.array_equal(got, want)
    first = [size for gate, size in calls if all(q < 4 for q, _ in gate.controls)]
    assert len(first) == sum(1 for g in circuit.gates if g.controls and g.targets[0] < 8) > 0
    assert max(first) <= 1 << 8
    assert len(calls) == sum(1 for g in circuit.gates if g.controls)


@pytest.mark.parametrize("k, horizon", [(2, 7), (3, 5), (4, 4)])
def test_run_peaks_within_its_byte_budget_factor(k, horizon):
    model = random_model(np.random.default_rng(k), k)
    spec = GroverSpec.from_config("1" * k)
    real = build_model_circuit(model, horizon)
    grover = build_grover(model, horizon, spec)
    n = real.n_qubits
    complex_circuit = Circuit(n, (Gate("phase", (0,), angle=0.3),) + real.gates + grover.gates)
    for circuit in (real, grover, complex_circuit):
        assert traced_peak(lambda: run(circuit)) < sim._RUN_PEAK * (16 << n)


def _model_grover_and_complex(k, horizon):
    model = random_model(np.random.default_rng(k), k)
    real = build_model_circuit(model, horizon)
    grover = build_grover(model, horizon, GroverSpec.from_config("1" * k))
    phase = (Gate("phase", (0,), angle=0.3),)
    return real, grover, Circuit(real.n_qubits, phase + real.gates + grover.gates)


@pytest.mark.parametrize("k, horizon", [(2, 5), (3, 4)])
def test_small_blocks_match_the_default_blocks(monkeypatch, k, horizon):
    # at 10 and 12 qubits the default blocks are a quarter of the state;
    # blocks of 2^4 amplitudes split every target and control pattern, and
    # put the state on a mapping of its own
    circuits = _model_grover_and_complex(k, horizon)
    registers = [circuits[0].register(t) for t in (1, horizon)]
    for circuit in circuits:
        n = circuit.n_qubits
        want = run(circuit)
        marginals = [probabilities(want, register) for register in registers]
        with monkeypatch.context() as patch:
            patch.setattr(sim, "_BLOCK_QUBITS", 4)
            got = run(circuit)
            assert mapped_bytes(got) == got.nbytes
            assert np.max(np.abs(got - want)) <= 1e-14, n
            for register, marginal in zip(registers, marginals):
                assert np.max(np.abs(probabilities(got, register) - marginal)) <= 1e-15


def test_blocked_real_run_is_the_complex_runs_real_part(monkeypatch):
    monkeypatch.setattr(sim, "_BLOCK_QUBITS", 4)
    real, grover, _ = _model_grover_and_complex(3, 4)
    for circuit in (real, grover):
        full = _complex_run(circuit)
        assert np.array_equal(run(circuit), full.real)
        assert not full.imag.any()


@pytest.mark.parametrize("k, horizon", [(4, 4), (4, 5)])
def test_large_runs_allocate_no_state_sized_temporary(k, horizon):
    # 16 and 20 qubits: the state lies on a mapping of its own, which
    # tracemalloc does not see, and the heap holds the kernels' three rows
    # of scratch and numpy's small buffers. A marginal's einsum allocates
    # little more than its output, so 64 KiB fails any block- or state-sized
    # temporary (a block of 2^15 squares is 256 KiB)
    circuits = _model_grover_and_complex(k, horizon)
    n = circuits[0].n_qubits
    register = circuits[0].register(horizon)
    slack = 1 << 19
    for circuit in circuits:
        states = []
        peak = traced_peak(lambda: states.append(run(circuit)))
        state = states[0]
        assert mapped_bytes(state) == state.nbytes
        assert peak < 3 * (state.itemsize << sim._block_qubits(n)) + slack
        assert peak + state.nbytes < sim._RUN_PEAK * (16 << n)
        peak = traced_peak(lambda: probabilities(state, register))
        assert peak < 64 << 10


def _brute_marginal(state, qubits):
    """|amplitude|^2 summed by the index bits of ``qubits``, ``qubits[0]`` least
    significant."""
    index = np.arange(len(state))
    outcome = sum(((index >> q) & 1) << i for i, q in enumerate(qubits))
    return np.bincount(outcome, weights=np.abs(state) ** 2, minlength=1 << len(qubits))


def test_probabilities_on_any_qubit_list():
    rng = np.random.default_rng(23)
    for n in range(1, 13):
        everything = list(range(n))
        lists = [[0], [n - 1], everything, everything[::-1], everything[::2],
                 everything[::-3], list(rng.permutation(n)),
                 list(rng.permutation(n)[:int(rng.integers(1, n + 1))])]
        for dtype in (float, complex):
            state = rng.standard_normal(1 << n)
            if dtype is complex:
                state = state + 1j * rng.standard_normal(1 << n)
            state /= np.linalg.norm(state)
            for qubits in lists:
                qubits = [int(q) for q in qubits]
                got = probabilities(state, qubits)
                assert got.shape == (1 << len(qubits),)
                assert np.array_equal(probabilities(state, np.array(qubits)), got)
                assert np.max(np.abs(got - _brute_marginal(state, qubits))) <= 1e-13, qubits
    for qubits in ([1.5], [0, "1"], [np.float64(0.0)]):
        with pytest.raises(ValidationError) as info:
            probabilities(state, qubits)
        assert info.value.code == "index-out-of-range"


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
    assert probabilities(state, [circuit.qubit(1, 4)])[1] == pytest.approx(0.6528, abs=1e-9)


def test_marginal_probability_basics():
    state = np.zeros(4, dtype=complex)
    state[0] = 1.0
    assert list(probabilities(state, [0])) == [1.0, 0.0]
    assert list(probabilities(state, [1])) == [1.0, 0.0]
    uniform = np.full(4, 0.5, dtype=complex)
    assert probabilities(uniform, [1])[1] == pytest.approx(0.5)
    for qubits in ([], np.array([], dtype=int), [2], [-1], [0, 0], np.array([0, 0])):
        with pytest.raises(ValidationError) as err:
            probabilities(state, qubits)
        assert err.value.code == "index-out-of-range"
    for bad in (np.zeros(0), np.zeros(3), np.zeros((2, 2))):
        with pytest.raises(ValidationError) as err:
            probabilities(bad, [0])
        assert err.value.code == "dimension-mismatch"


def test_sample_counts_behaviour(two_node):
    circuit = build_model_circuit(two_node, 2)
    probs = probabilities(run(circuit), circuit.register(2))
    counts = _draw_counts(probs, 1000, seed=4)
    assert sum(counts.values()) == 1000
    exact = evaluate(two_node, 2)[2]
    for config, count in counts.items():
        p = exact.probability(config)
        assert abs(count / 1000 - p) <= 4.0 * math.sqrt(p * (1 - p) / 1000)
    # reproducible and single-shot edge
    assert counts == _draw_counts(probs, 1000, seed=4)
    single = _draw_counts(probs, 1, seed=1)
    assert sorted(single.values()) == [1]
    # any integer seeds the stream of the equal int; anything else is refused
    assert _draw_counts(probs, 1000, seed=np.int64(4)) == counts
    assert _draw_counts(probs, 100, seed=(np.int64(4), 2)) == _draw_counts(probs, 100, seed=(4, 2))
    for bad in (-1, (4, -2), 3.0, None, "7", (4, 2.0), np.array([4])):
        with pytest.raises(ValidationError) as err:
            _draw_counts(probs, 10, seed=bad)
        assert err.value.code == "invalid-seed", bad


def test_sample_counts_deterministic_state():
    state = np.zeros(2, dtype=complex)
    state[1] = 1.0
    assert _draw_counts(probabilities(state, [0]), 64, seed=0) == {1: 64}


def test_extract_unitary_basics():
    x = extract_unitary(Circuit(1, (Gate("x", (0,)),)))
    assert np.array_equal(x, np.array([[0, 1], [1, 0]], dtype=complex))
    theta = 0.73
    ry = extract_unitary(Circuit(1, (Gate("ry", (0,), angle=theta),)))
    expected = np.array([[math.cos(theta / 2), -math.sin(theta / 2)],
                         [math.sin(theta / 2), math.cos(theta / 2)]])
    assert np.max(np.abs(ry - expected)) < 1e-15


def _unitary_by_columns(circuit):
    """The circuit's matrix one basis column through the whole-state kernel
    at a time: the reference for extract_unitary's single pass."""
    n = circuit.n_qubits
    matrix = np.empty((1 << n, 1 << n), dtype=complex)
    for j in range(1 << n):
        column = np.zeros(1 << n, dtype=complex)
        column[j] = 1.0
        matrix[:, j] = apply_gates(column, circuit.gates, n)
    return matrix


def test_extract_unitary_is_the_column_by_column_matrix():
    rng = np.random.default_rng(17)
    phased = Circuit(3, (Gate("h", (0,)), Gate("ry", (2,), angle=0.4),
                         Gate("phase", (1,), controls=((0, 1), (2, 0)), angle=0.9),
                         Gate("phase", (0,), angle=-1.3), Gate("s0", (0, 1, 2))))
    for circuit in (build_grover(random_model(rng, 2), 3, GroverSpec.from_config("1*")),
                    build_grover(random_model(rng, 3), 2, GroverSpec.from_config("10*")),
                    phased):
        assert circuit.n_qubits <= 6
        assert np.array_equal(extract_unitary(circuit), _unitary_by_columns(circuit))


def test_grover_unitarity_via_extraction(two_node):
    grover = build_grover(two_node, 3, GroverSpec.from_config("10"))
    matrix = extract_unitary(grover)
    assert np.max(np.abs(matrix @ matrix.conj().T - np.eye(64))) < 1e-9


def test_norm_preserved_gate_by_gate(two_node):
    circuit = build_grover(two_node, 2, GroverSpec.from_config("11"))
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
    spec = GroverSpec.from_config("01")
    shots = 50_000
    trace = run_schedule(two_node, 3, spec, [0], shots, noise=NoiseSpec(0.0), seed=8)
    p = evaluate(two_node, 3)[3].probability(1)
    assert abs(trace.marked[0] / shots - p) <= 4.0 * math.sqrt(p * (1 - p) / shots)


def test_fully_scrambled_channel_hits_marked_fraction():
    model = NetworkModel.from_triggers([1.0], [0.0], {})
    spec = GroverSpec.from_config("1")
    shots = 50_000
    trace = run_schedule(model, 1, spec, [1], shots, noise=NoiseSpec(1.0), seed=3)
    assert abs(trace.marked[0] / shots - 0.5) <= 4.0 * math.sqrt(0.25 / shots)


def test_survival_fraction_tracks_power():
    # clean shots always measure marked (p_fail = 1), scrambled ones half the
    # time, so the marked fraction pins the empirical survival rate
    model = NetworkModel.from_triggers([1.0], [0.0], {})
    spec = GroverSpec.from_config("1")
    epsilon = 0.3
    shots = 100_000
    powers = (1, 2, 4)
    trace = run_schedule(model, 1, spec, powers, shots, noise=NoiseSpec(epsilon), seed=41)
    for power, count in zip(powers, trace.marked):
        survival = (1.0 - epsilon) ** power
        expectation = survival + (1.0 - survival) * 0.5
        sigma = math.sqrt(expectation * (1.0 - expectation) / shots)
        assert abs(count / shots - expectation) <= 3.0 * sigma
