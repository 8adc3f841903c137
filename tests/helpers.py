"""Independent oracles used across the test suite.

Nothing here may call into the package's propagation, simulation, or
fitting paths; expected values must come from first-principles enumeration
or closed-form expressions. The exceptions are :func:`apply_gates`, the
simulator's gate kernel over a whole state in circuit order, and
:func:`extract_unitary`, which reads a circuit's matrix through it for the
tests that check the simulator's gates and the circuit builders against
each other.
:func:`plain_emit` reuses the package's line format, one gate at a time.
:func:`sub_model_gates` applies the package's ``p_on`` to a model of each
node and its trigger ancestors alone, the model circuit builder's former
form, to check the builder's gates against.
"""
from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np

from cascadeq import Circuit, Gate, NetworkModel, ResourceLimitError, sim
from cascadeq.circuit import _emit_line, _lower
from cascadeq.model import p_on


def stay_good_probability(model: NetworkModel, prev: int, n: int) -> float:
    """Probability that node n (0-based), good in ``prev``, is still good one
    step later: it neither fails nor is triggered by any failed node."""
    p_off = 1.0 - model.p_fail[n]
    for m in range(model.k):
        if (prev >> m) & 1:
            p_off *= 1.0 - model.p_trigger[m][n]
    return p_off


def step_probability(model: NetworkModel, prev: int, cur: int) -> float:
    """One-step transition probability computed directly from the rules."""
    p = 1.0
    for n in range(model.k):
        prev_failed = (prev >> n) & 1
        cur_failed = (cur >> n) & 1
        if prev_failed:
            p *= (1.0 - model.p_recover[n]) if cur_failed else model.p_recover[n]
        else:
            p_off = stay_good_probability(model, prev, n)
            p *= (1.0 - p_off) if cur_failed else p_off
    return p


def sample_trajectories(model: NetworkModel, horizon: int, count: int,
                        rng: np.random.Generator) -> list[int]:
    """Final configurations of ``count`` trajectories, one node at a time.

    Each step draws ``rng.random((count, k))``; node n of trajectory i is
    failed after the step when its draw is below the node's probability of
    being failed, so the stream and the comparisons are those of the
    package's Monte Carlo sampler.
    """
    configs = [0] * count
    for _ in range(horizon):
        draws = rng.random((count, model.k))
        for i, prev in enumerate(configs):
            cur = 0
            for n in range(model.k):
                if (prev >> n) & 1:
                    on = 1.0 - model.p_recover[n]
                else:
                    on = 1.0 - stay_good_probability(model, prev, n)
                if draws[i, n] < on:
                    cur |= 1 << n
            configs[i] = cur
    return configs


def enumerate_distribution(model: NetworkModel, horizon: int) -> dict[int, float]:
    """Step-``horizon`` distribution by summing over all state trajectories."""
    dist = {c: 0.0 for c in range(1 << model.k)}
    if horizon == 0:
        dist[0] = 1.0
        return dist
    for trajectory in itertools.product(range(1 << model.k), repeat=horizon):
        prev = 0
        weight = 1.0
        for cur in trajectory:
            weight *= step_probability(model, prev, cur)
            prev = cur
        dist[trajectory[-1]] += weight
    return dist


def qpe_distribution(theta: float, bits: int) -> np.ndarray:
    """Closed-form ancilla outcome distribution of phase estimation.

    The prepared state weights the e^{+i theta} and e^{-i theta} eigenvectors
    of the rotation equally, so the outcome distribution is the average of
    the two textbook phase-estimation kernels.
    """
    size = 1 << bits
    probs = np.zeros(size)
    for sign in (1.0, -1.0):
        phase = (sign * theta / (2.0 * math.pi)) % 1.0
        for y in range(size):
            delta = phase - y / size
            amplitude = np.exp(2j * math.pi * np.arange(size) * delta).sum() / size
            probs[y] += 0.5 * abs(amplitude) ** 2
    return probs


def random_model(rng: np.random.Generator, k: int) -> NetworkModel:
    """Random valid model with a sparse-ish trigger matrix."""
    p_fail = rng.uniform(0.0, 1.0, k)
    p_recover = rng.uniform(0.0, 1.0, k)
    trigger = rng.uniform(0.0, 1.0, (k, k)) * (rng.random((k, k)) < 0.6)
    np.fill_diagonal(trigger, 0.0)
    return NetworkModel(tuple(p_fail), tuple(p_recover),
                        tuple(tuple(row) for row in trigger))


def _sub_model_corrections(model: NetworkModel, node: int, init: float) -> list:
    """(controls, angle) of the corrections of ``node`` (0-based), from
    ``p_on`` on the sub-model of the node and its trigger ancestors."""
    ancestors = [m for m in range(model.k) if model.p_trigger[m][node] > 0.0]
    keep = sorted(ancestors + [node])
    sub = NetworkModel(tuple(model.p_fail[m] for m in keep),
                       tuple(model.p_recover[m] for m in keep),
                       tuple(tuple(model.p_trigger[a][b] for b in keep) for a in keep))
    bit = {m: 1 << i for i, m in enumerate(keep)}
    configs = [sum(bit[m] for j, m in enumerate(ancestors) if (pattern >> j) & 1)
               for pattern in range(1 << len(ancestors))]
    p_failed, *p_good = p_on(sub, np.array([bit[node]] + configs))[:, keep.index(node)].tolist()
    out = [(((node, 1),), 2.0 * math.asin(math.sqrt(p_failed)) - init)]
    for pattern in range(1, len(configs)):
        if p_good[pattern] != p_good[0]:
            controls = ((node, 0),) + tuple((m, (pattern >> j) & 1) for j, m in enumerate(ancestors))
            out.append((controls, 2.0 * math.asin(math.sqrt(p_good[pattern])) - init))
    return out


def sub_model_gates(model: NetworkModel, horizon: int) -> list[Gate]:
    """The gates of ``build_model_circuit(model, horizon)`` in its former
    form: every init rotation, then per transition and node the corrections
    that ``p_on`` gives on a sub-model of the node and its trigger ancestors."""
    k = model.k
    init = [2.0 * math.asin(math.sqrt(p)) for p in model.p_fail]
    gates = [Gate("ry", ((t - 1) * k + n,), angle=init[n])
             for t in range(1, horizon + 1) for n in range(k)]
    for t in range(1, horizon):
        for n in range(k):
            for controls, angle in _sub_model_corrections(model, n, init[n]):
                gates.append(Gate("ry", (t * k + n,),
                                  tuple(((t - 1) * k + m, pol) for m, pol in controls),
                                  angle=angle))
    return gates


def apply_gates(state: np.ndarray, gates, n: int) -> np.ndarray:
    """Apply the gates in order to ``state``, of 2^n amplitudes, in place,
    one ``sim._apply_gate`` call each on the whole state; no gate waits."""
    view = state.reshape([2] * n)
    scratch = sim._Scratch(n, state.dtype)
    for gate in gates:
        sim._apply_gate(view, gate, n, scratch)
    return state


def extract_unitary(circuit: Circuit, max_qubits: int = 10) -> np.ndarray:
    """Full complex matrix of the circuit from one pass of its gates, moved up
    by n qubits, over a 2n-qubit state holding the flattened identity: the
    row index sits in the high qubits and the column index in the low ones."""
    n = circuit.n_qubits
    if n > max_qubits:
        raise ResourceLimitError(f"{n} qubits exceed the extraction cap of {max_qubits}")
    dim = 1 << n
    shifted = [Gate(g.kind, tuple(q + n for q in g.targets),
                    tuple((q + n, pol) for q, pol in g.controls), g.angle)
               for g in circuit.gates]
    state = np.eye(dim, dtype=complex).reshape(-1)
    return apply_gates(state, shifted, 2 * n).reshape(dim, dim)


def deferred_order(gates) -> list:
    """The gates in the order ``run`` applies them, restated without a state.

    An uncontrolled ``ry`` on a qubit above every qubit the gates placed so
    far touch, and with no ``ry`` waiting on it yet, waits. A gate that does
    not wait is placed after the waiting rotations on qubits up to its own
    highest qubit, in ascending order; the rest follow at the end.
    """
    out, waiting, high = [], {}, -1
    for gate in gates:
        top = max(gate.qubits)
        if top > high:
            if gate.kind == "ry" and not gate.controls and top not in waiting:
                waiting[top] = gate
                continue
            out += [waiting.pop(q) for q in sorted(waiting) if q <= top]
            high = top
        out.append(gate)
    return out + [waiting[q] for q in sorted(waiting)]


def plain_emit(c: Circuit) -> str:
    """The gate listing formatted one reference at a time, with no memo."""
    return "".join(_emit_line(g) + "\n" for gate in c.gates for g in _lower(gate))


def mapped_bytes(state: np.ndarray) -> int:
    """Bytes of a statevector from ``cascadeq.sim`` that tracemalloc does not
    trace: all of them when it lies on a memory mapping of its own (past
    2^_BLOCK_QUBITS amplitudes), else 0."""
    return state.nbytes if len(state) > 1 << sim._BLOCK_QUBITS else 0


def traced_peak(fn) -> int:
    """Peak bytes traced by tracemalloc while ``fn()`` runs, above what was
    allocated when it started."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
