import gc
import math

import numpy as np
import pytest
import scipy.linalg

from cascadeq import (
    Circuit,
    Gate,
    GroverSpec,
    NetworkModel,
    ParseError,
    ValidationError,
    build_grover,
    build_model_circuit,
    build_qae_circuit,
    emit_gates,
    parse_gates,
)
from cascadeq.circuit import (_GATE_PEAK, _emit_line, _lower, controlled_gates, inverse_gates,
                              inverse_qft_gates)
from helpers import extract_unitary, plain_emit, random_model, sub_model_gates, traced_peak

# node 1 never fails on its own, so its init rotation has angle 0.0 and the
# inverse the Grover operator takes of it has -0.0: equal gates, unequal text
SIGNED_ZERO = NetworkModel.from_triggers([0.0, 0.4], [0.3, 0.8], {(1, 2): 0.2})


def test_two_node_circuit_matches_diagram(two_node):
    # expected angle sequence of the two-register circuit
    circuit = build_model_circuit(two_node, 2)
    angles = [g.angle for g in circuit.gates]
    expected = [0.927, 1.982, 0.927, 1.982, 1.055, 1.391, -1.055, 0.135]
    assert angles == pytest.approx(expected, abs=1e-3)
    # transition block polarities: open control on the node itself, ancestor
    # polarity matching its failed state
    block = circuit.gates[4:]
    assert block[0].controls == ((circuit.qubit(1, 1), 1),)
    assert block[1].controls == ((circuit.qubit(1, 1), 0), (circuit.qubit(2, 1), 1))
    assert block[2].controls == ((circuit.qubit(2, 1), 1),)
    assert block[3].controls == ((circuit.qubit(2, 1), 0), (circuit.qubit(1, 1), 1))


def test_one_node_circuit_chain(one_node):
    circuit = build_model_circuit(one_node, 4)
    init = [g for g in circuit.gates if not g.controls]
    chain = [g for g in circuit.gates if g.controls]
    assert [g.angle for g in init] == pytest.approx([1.159] * 4, abs=1e-3)
    assert [g.angle for g in chain] == pytest.approx([1.339] * 3, abs=1e-3)
    assert [g.controls[0][0] for g in chain] == [0, 1, 2]
    assert [g.targets[0] for g in chain] == [1, 2, 3]


def test_all_zero_model_angles():
    # init and trigger angles vanish; the recovery correction is pi by the
    # formula because an unrecoverable failed node must pin probability 1
    model = NetworkModel.from_triggers([0.0, 0.0], [0.0, 0.0], {})
    circuit = build_model_circuit(model, 2)
    init = [g for g in circuit.gates if not g.controls]
    recovery = [g for g in circuit.gates if g.controls]
    assert all(g.angle == 0.0 for g in init)
    assert [g.angle for g in recovery] == pytest.approx([math.pi, math.pi])
    assert len(circuit.gates) == 6  # no trigger gates
    # the other boundaries: p_fail = 1 starts at pi; p_recover = 1 - p_fail
    # keeps its recovery gate at angle 0; a 1e-17 trigger leaves
    # 1 - p_trigger at 1.0 and so adds no gate
    model = NetworkModel.from_triggers([1.0, 0.3, 0.9, 0.0], [0.0, 0.7, 0.1, 1.0],
                                       {(1, 2): 1e-17, (3, 4): 1e-17})
    circuit = build_model_circuit(model, 2)
    init = [g for g in circuit.gates if not g.controls]
    recovery = [g for g in circuit.gates if g.controls]
    assert init[0].angle == math.pi
    assert [len(g.controls) for g in recovery] == [1, 1, 1, 1]
    assert [g.angle for g in recovery] == pytest.approx([0.0] * 4, abs=1e-15)


def test_long_chain_circuit():
    # configurations passed to p_on carry one bit per node of the node's
    # sub-model, so a model past 64 nodes still builds
    k = 70
    model = NetworkModel.from_triggers([0.1] * k, [0.6] * k,
                                       {(n, n + 1): 0.5 for n in range(1, k)})
    circuit = build_model_circuit(model, 2)
    block = circuit.gates[2 * k:]
    assert len(block) == 2 * k - 1
    assert all(g.kind == "ry" for g in circuit.gates)
    expected = [((circuit.qubit(1, 1), 1),)]
    for n in range(2, k + 1):
        expected += [((circuit.qubit(n, 1), 1),),
                     ((circuit.qubit(n, 1), 0), (circuit.qubit(n - 1, 1), 1))]
    assert [g.controls for g in block] == expected
    assert [g.targets for g in block] == [(circuit.qubit(n, 2),)
                                          for n in [1] + [m for m in range(2, k + 1)
                                                          for _ in (0, 1)]]
    init = 2 * math.asin(math.sqrt(0.1))
    assert block[-1].angle == pytest.approx(2 * math.asin(math.sqrt(1 - 0.9 * 0.5)) - init)


def test_model_circuit_gates_equal_the_sub_model_form():
    # angles compared by float.hex, so an angle's sign of zero counts too
    def key(gate):
        return gate.kind, gate.targets, gate.controls, float.hex(gate.angle)

    rng = np.random.default_rng(28)
    for i in range(400):
        k = 1 + i % 8
        model = random_model(rng, k)
        if i % 4 == 3:  # nodes that never fail: a recovery correction of exactly 0
            model = NetworkModel([0.0] * k, [1.0] * k, model.p_trigger)
        built = build_model_circuit(model, 2).gates
        assert [key(g) for g in built] == [key(g) for g in sub_model_gates(model, 2)], i
    # past the 63 nodes an int64 configuration holds
    wide = NetworkModel.from_triggers([0.1] * 70, [0.2] * 70,
                                      {(1, 70): 0.3, (70, 1): 0.4, (64, 70): 0.5, (2, 64): 0.6})
    assert ([key(g) for g in build_model_circuit(wide, 2).gates]
            == [key(g) for g in sub_model_gates(wide, 2)])


def test_layout_and_register(two_node):
    circuit = build_model_circuit(two_node, 3)
    assert circuit.qubit(1, 1) == 0
    assert circuit.qubit(2, 3) == 5
    assert circuit.register(2) == [2, 3]
    with pytest.raises(ValidationError):
        circuit.qubit(1, 4)


def test_grover_spec_matches_an_array_of_configurations():
    spec = GroverSpec.from_config("1*0")
    configs = np.arange(8)
    assert spec.matches(configs).tolist() == [spec.matches(int(c)) for c in configs]
    assert spec.matches(configs).tolist() == [False] * 4 + [True, False, True, False]


def test_grover_spec_parsing():
    spec = GroverSpec.from_config("10")
    assert spec.marked == ((1, 0), (2, 1))
    assert spec.matches(2) and not spec.matches(3)
    sub = GroverSpec.from_config("1*")
    assert sub.marked == ((2, 1),)
    with pytest.raises(ValidationError):
        GroverSpec.from_config("**")
    with pytest.raises(ParseError):
        GroverSpec.from_config("1x")


@pytest.mark.parametrize("marked, code", [
    (((0, 1),), "invalid-node-index"),
    (((-2, 0), (1, 1)), "invalid-node-index"),
    (((1.5, 1),), "invalid-node-index"),
    ((("1", 1),), "invalid-node-index"),
    ((1,), "invalid-mark"),
    (((1, 1, 0),), "invalid-mark"),
    (5, "invalid-mark"),
    ((), "invalid-mark"),
    (((1, 1), (1, 0)), "invalid-mark"),
    (((1, 2),), "invalid-mark"),
], ids=["zero", "negative", "fractional", "string", "bare-node", "triple", "scalar", "empty",
        "duplicate", "bit-two"])
def test_grover_spec_refuses_malformed_marks(marked, code):
    # a node below 1 would reach matches() as a negative shift
    with pytest.raises(ValidationError) as info:
        GroverSpec(marked)
    assert info.value.code == code


def test_grover_spec_stores_sorted_integer_pairs():
    spec = GroverSpec([(np.int64(2), True), (1, 0.0)])
    assert spec.marked == ((1, 0), (2, 1))
    assert all(type(v) is int for pair in spec.marked for v in pair)
    assert spec == GroverSpec.from_config("10")


def test_grover_is_unitary_and_marks(two_node):
    spec = GroverSpec.from_config("11")
    grover = build_grover(two_node, 3, spec)
    matrix = extract_unitary(grover)
    assert np.max(np.abs(matrix @ matrix.conj().T - np.eye(64))) < 1e-10


def test_grover_eigenvalues_match_published(two_node):
    spec = GroverSpec.from_config("00")
    matrix = extract_unitary(build_grover(two_node, 3, spec))
    eigenvalues = np.linalg.eigvals(matrix)
    nontrivial = eigenvalues[np.abs(eigenvalues.imag) > 1e-6]
    expected = {complex(0.720, 0.694), complex(0.720, -0.694)}
    assert {complex(round(z.real, 3), round(z.imag, 3)) for z in nontrivial} == expected
    # everything else is +-1: the rotation lives on a single plane
    trivial = eigenvalues[np.abs(eigenvalues.imag) <= 1e-6]
    assert np.max(np.abs(np.abs(trivial.real) - 1.0)) < 1e-6


def test_grover_power_zero_is_model_probability(two_node):
    # without any Grover application the marked probability is just p_c(t)
    from cascadeq import evaluate, probabilities, run

    circuit = build_model_circuit(two_node, 3)
    state = run(circuit)
    probs = probabilities(state, circuit.register(3))
    assert probs[3] == pytest.approx(evaluate(two_node, 3)[3].probability(3), abs=1e-12)


def test_inverse_gates_invert(two_node):
    circuit = build_model_circuit(two_node, 2)
    inverse = Circuit(circuit.n_qubits, tuple(inverse_gates(circuit.gates)))
    identity = extract_unitary(inverse) @ extract_unitary(circuit)
    assert np.max(np.abs(identity - np.eye(16))) < 1e-12


def test_controlled_gates_add_control():
    gates = controlled_gates([Gate("ry", (0,), angle=0.5)], 3)
    assert gates[0].controls == ((3, 1),)
    with pytest.raises(ValidationError):
        controlled_gates([Gate("x", (1,))], 1)


def test_inverse_qft_matches_dft_matrix():
    for m in (1, 2, 3, 4):
        circuit = Circuit(m, tuple(inverse_qft_gates(list(range(m)))))
        matrix = extract_unitary(circuit)
        forward = scipy.linalg.dft(1 << m, scale="sqrtn").conj()
        assert np.max(np.abs(matrix - forward.conj().T)) < 1e-12


def test_qae_circuit_shape(two_node):
    spec = GroverSpec.from_config("11")
    circuit = build_qae_circuit(two_node, 3, spec, 3)
    assert circuit.n_qubits == 9
    assert circuit.ancillas == (6, 7, 8)
    with pytest.raises(ValidationError):
        build_qae_circuit(two_node, 3, spec, 0)


def test_emit_single_rotation():
    circuit = Circuit(1, (Gate("ry", (0,), angle=0.927),))
    assert emit_gates(circuit) == "ry(0.927000) controls=[] targets=[0]\n"


def test_emit_empty_circuit():
    assert emit_gates(Circuit(1, ())) == ""


@pytest.mark.parametrize("which", ["two_node", "signed_zero"])
def test_emit_matches_a_plain_per_gate_emit(which, two_node):
    # a phase-estimation circuit holds each controlled Grover block once,
    # repeated; its flat gate list, distinct gates and listing must read as
    # if every reference were its own entry
    model = two_node if which == "two_node" else SIGNED_ZERO
    circuits = [build_model_circuit(model, 3)]
    for pattern in ("11", "1*", "*0"):
        spec = GroverSpec.from_config(pattern)
        circuits.append(build_grover(model, 3, spec))
        circuits += [build_qae_circuit(model, 3, spec, bits) for bits in range(1, 10)]
    for circuit in circuits:
        assert type(circuit.gates) is tuple
        assert all(type(g) is Gate for g in circuit.gates)
        # the same objects, in first-use order
        assert circuit.distinct_gates == tuple({id(g): g for g in circuit.gates}.values())
        assert list(map(id, circuit.distinct_gates)) == list({id(g): 0 for g in circuit.gates})
        text = emit_gates(circuit)
        assert text == plain_emit(circuit)
        if len(circuit.ancillas) == 9:  # parsing is slow; the largest circuits cover the rest
            lowered = [g for gate in circuit.gates for g in _lower(gate)]
            assert len(parse_gates(text).gates) == len(lowered)


def test_emit_stays_right_when_freed_gate_ids_are_reused(two_node):
    # each circuit's gates die with it, and CPython hands their ids to the
    # next circuit's gates: a listing keyed on ids that outlived its gates
    # would read another circuit's text
    gc.freeze()  # so that each collection scans only this test's objects
    try:
        for i in range(50):
            spec = GroverSpec.from_config(["11", "1*", "*0", "01"][i % 4])
            circuit = build_qae_circuit(SIGNED_ZERO if i % 2 else two_node, 3, spec, 1 + i % 5)
            assert emit_gates(circuit) == plain_emit(circuit)
            del circuit
            gc.collect()
    finally:
        gc.unfreeze()


def test_phase_estimation_build_and_emit_stay_within_the_gate_peak(two_node):
    # the byte budget charges _GATE_PEAK per gate reference; a repeated
    # reference costs a tuple slot and its share of the listing
    spec = GroverSpec.from_config("11")
    for bits in (9, 10, 11):
        references = len(build_qae_circuit(two_node, 3, spec, bits).gates)
        peak = traced_peak(lambda: emit_gates(build_qae_circuit(two_node, 3, spec, bits)))
        assert peak <= _GATE_PEAK * references


def test_signed_zero_model_holds_equal_gates_that_print_apart():
    zeros = [g for g in build_grover(SIGNED_ZERO, 3, GroverSpec.from_config("11")).gates
             if g.angle == 0.0]
    assert any(a == b and hash(a) == hash(b) and _emit_line(a) != _emit_line(b)
               for a in zeros for b in zeros)


def test_emit_transition_block_polarities(two_node):
    circuit = build_model_circuit(two_node, 2)
    lines = emit_gates(circuit).splitlines()[4:]
    assert lines == [
        "ry(1.055018) controls=[(0,1)] targets=[2]",
        "ry(1.391264) controls=[(0,0),(1,1)] targets=[2]",
        "ry(-1.055018) controls=[(1,1)] targets=[3]",
        "ry(0.135334) controls=[(1,0),(0,1)] targets=[3]",
    ]


def test_emit_parse_round_trip(two_node):
    grover = build_grover(two_node, 2, GroverSpec.from_config("01"))
    text = emit_gates(grover)
    parsed = parse_gates(text, n_qubits=grover.n_qubits)
    assert emit_gates(parsed) == text
    # the lowering is unitarily faithful (angles are quantized to 1e-6)
    diff = extract_unitary(parsed) - extract_unitary(grover)
    assert np.max(np.abs(diff)) < 1e-4


def test_parse_rejects_malformed():
    with pytest.raises(ParseError):
        parse_gates("nonsense\n")
    with pytest.raises(ParseError):
        parse_gates("ry controls=[] targets=[0]\n")  # missing angle
    with pytest.raises(ParseError):
        parse_gates("ry(0.5) controls=[(0,2)] targets=[1]\n")
    with pytest.raises(ParseError):
        parse_gates("ww(0.5) controls=[] targets=[0]\n")


def test_gate_validation():
    with pytest.raises(ValidationError):
        Gate("ry", (0,), ((0, 1),), angle=0.1)  # overlapping control/target
    with pytest.raises(ValidationError):
        Gate("x", (0, 1))
    with pytest.raises(ValidationError):
        Gate("ry", (0,), angle=math.inf)
    with pytest.raises(ValidationError):
        Gate("mark", (0,), ((1, 1),))
    with pytest.raises(ValidationError):
        Circuit(1, (Gate("x", (3,)),))


def test_range_check_catches_a_repeated_bad_gate_object():
    bad = Gate("x", (3,))
    with pytest.raises(ValidationError) as info:
        Circuit(2, (bad,) * 1000)
    assert info.value.code == "invalid-circuit"


def test_range_check_catches_an_equal_separate_bad_gate_after_good_ones():
    good, bad, twin = Gate("x", (1,)), Gate("x", (3,)), Gate("x", (3,))
    assert twin == bad and twin is not bad
    Circuit(4, (good,) * 500 + (bad,) * 10)  # in range on four qubits
    with pytest.raises(ValidationError) as info:
        Circuit(2, (good,) * 500 + (twin,))
    assert info.value.code == "invalid-circuit"


def test_circuit_keeps_its_own_copy_of_a_gate_list():
    gates = [Gate("x", (0,))]
    circuit = Circuit(2, gates)
    gates.append(Gate("x", (5,)))
    assert circuit.gates == (Gate("x", (0,)),)
    assert emit_gates(circuit) == "x controls=[] targets=[0]\n"


def test_layout_injectivity_checked():
    with pytest.raises(ValidationError):
        Circuit(2, (), layout={(1, 1): 0, (2, 1): 0})
