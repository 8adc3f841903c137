"""Dense statevector simulation of the gate IR.

Basis index bit q is qubit q (qubit 0 least significant). Controlled gates
are applied by slicing the state tensor on the control axes, so a gate
costs O(2^n) regardless of its control count. All kernels accept a trailing
batch axis, which :func:`extract_unitary` uses to push every basis column
through the circuit at once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .circuit import Circuit, Gate
from .errors import ResourceLimitError, ValidationError, check_dense_bytes
from .model import seed_tuple

__all__ = [
    "DEFAULT_QUBIT_CAP",
    "NoiseSpec",
    "run",
    "apply_gates",
    "probabilities",
    "marginal_probability",
    "sample_counts",
    "extract_unitary",
    "sample_marked",
]

DEFAULT_QUBIT_CAP = 20
_EXTRACT_CAP = 10

_RUN_PEAK = 2.65
"""Peak bytes of :func:`run` as a multiple of the 16 * 2^n of its state
(tracemalloc: 2.51-2.65 at 16-20 qubits, from the 2x2 update temporaries)."""


@dataclass(frozen=True)
class NoiseSpec:
    """Phenomenological channel: each Grover application scrambles the shot
    with probability ``per_grover_error``; a scrambled shot measures uniformly
    over the observed register. ``1 - per_grover_error = e^{-a}`` maps to the
    decay rate ``a`` of the damped-oscillation response."""

    per_grover_error: float

    def __post_init__(self):
        if not 0.0 <= self.per_grover_error <= 1.0:
            raise ValidationError("per-Grover error must be in [0, 1]", code="out-of-range")

    @classmethod
    def from_decay_rate(cls, a: float) -> "NoiseSpec":
        if a < 0.0:
            raise ValidationError("decay rate must be >= 0", code="out-of-range")
        return cls(1.0 - math.exp(-a))


def _axis(n: int, qubit: int) -> int:
    return n - 1 - qubit


_MATRICES = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "h": np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0),
}


def _gate_matrix(gate: Gate) -> np.ndarray:
    if gate.kind == "ry":
        c, s = math.cos(gate.angle / 2.0), math.sin(gate.angle / 2.0)
        return np.array([[c, -s], [s, c]], dtype=complex)
    return _MATRICES[gate.kind]


def _apply_gate(view: np.ndarray, gate: Gate, n: int) -> None:
    """Apply one gate in place; ``view`` has shape [2]*n + [batch]."""
    sel: list = [slice(None)] * (n + 1)
    for q, pol in gate.controls:
        sel[_axis(n, q)] = pol
    if gate.kind in ("ry", "x", "h"):
        u = _gate_matrix(gate)
        t_ax = _axis(n, gate.targets[0])
        pos = sum(1 for a in range(t_ax) if isinstance(sel[a], slice))
        sub = np.moveaxis(view[tuple(sel)], pos, 0)
        a0 = sub[0].copy()
        sub[0] = u[0, 0] * a0 + u[0, 1] * sub[1]
        sub[1] = u[1, 0] * a0 + u[1, 1] * sub[1]
    elif gate.kind == "z":
        sel[_axis(n, gate.targets[0])] = 1
        view[tuple(sel)] *= -1.0
    elif gate.kind == "phase":
        sel[_axis(n, gate.targets[0])] = 1
        view[tuple(sel)] *= complex(math.cos(gate.angle), math.sin(gate.angle))
    elif gate.kind == "s0":
        for q in gate.targets:
            sel[_axis(n, q)] = 0
        view[tuple(sel)] *= -1.0
    elif gate.kind == "mark":
        view[tuple(sel)] *= -1.0
    else:  # pragma: no cover - Gate constructor rejects unknown kinds
        raise ValidationError(f"cannot simulate gate kind {gate.kind!r}")


def apply_gates(state: np.ndarray, gates: Sequence[Gate], n_qubits: int) -> np.ndarray:
    """Apply gates in order to a statevector (or a (2^n, batch) matrix), in place."""
    batch = state.reshape([2] * n_qubits + [-1])
    for gate in gates:
        _apply_gate(batch, gate, n_qubits)
    return state


def run(circuit: Circuit, initial: np.ndarray | None = None,
        qubit_cap: int = DEFAULT_QUBIT_CAP) -> np.ndarray:
    """Statevector after the whole circuit, starting from |0...0> by default."""
    n = circuit.n_qubits
    check_statevector_size(n, qubit_cap, _RUN_PEAK, "a statevector run")
    dim = 1 << n
    if initial is None:
        state = np.zeros(dim, dtype=complex)
        state[0] = 1.0
    else:
        initial = np.asarray(initial, dtype=complex)
        if initial.shape != (dim,):
            raise ValidationError(
                f"initial state has shape {initial.shape}, expected ({dim},)",
                code="dimension-mismatch",
            )
        state = initial.copy()
    apply_gates(state, circuit.gates, n)
    norm = np.linalg.norm(state)
    if initial is None and abs(norm - 1.0) > 1e-10:
        raise ValidationError(f"statevector norm drifted to {norm!r}", code="norm-drift")
    return state


def check_statevector_size(n: int, qubit_cap: int, peak: float, what: str) -> None:
    """Raise ResourceLimitError before ``what`` allocates, if its ``n`` qubits
    pass ``qubit_cap`` or its peak of ``peak`` times the 16 * 2^n bytes of one
    statevector passes ``DENSE_BYTE_BUDGET``."""
    if n > qubit_cap:
        raise ResourceLimitError(f"{n} qubits exceed the cap of {qubit_cap}")
    check_dense_bytes(int(peak * (16 << n)), f"{what} on {n} qubits")


def probabilities(state: np.ndarray, qubits: Sequence[int]) -> np.ndarray:
    """Marginal distribution over ``qubits``; ``qubits[0]`` is the output LSB."""
    n = _qubit_count(state)
    _check_qubits(qubits, n)
    p = np.abs(state.reshape([2] * n)) ** 2
    kept = {_axis(n, q) for q in qubits}
    other = tuple(ax for ax in range(n) if ax not in kept)
    if other:
        p = p.sum(axis=other)
    rank = {ax: i for i, ax in enumerate(sorted(kept))}
    perm = [rank[_axis(n, q)] for q in reversed(qubits)]
    return p.transpose(perm).reshape(-1)


def marginal_probability(state: np.ndarray, qubits: Sequence[int],
                         bits: Sequence[int]) -> float:
    """Probability that each listed qubit measures its given bit."""
    n = _qubit_count(state)
    _check_qubits(qubits, n)
    if len(bits) != len(qubits) or any(b not in (0, 1) for b in bits):
        raise ValidationError("one bit in {0,1} per qubit required",
                              code="invalid-configuration")
    sel: list = [slice(None)] * n
    for q, b in zip(qubits, bits):
        sel[_axis(n, q)] = b
    return float((np.abs(state.reshape([2] * n)[tuple(sel)]) ** 2).sum())


def sample_counts(state: np.ndarray, qubits: Sequence[int], shots: int,
                  seed) -> dict[int, int]:
    """Multinomial draw from the marginal over ``qubits``; keys are outcome ints."""
    if shots < 1:
        raise ValidationError("shots must be >= 1", code="invalid-shots")
    probs = np.clip(probabilities(state, qubits), 0.0, None)
    probs /= probs.sum()
    rng = np.random.default_rng(seed_tuple(seed))
    drawn = rng.multinomial(shots, probs)
    return {int(v): int(c) for v, c in enumerate(drawn) if c}


def extract_unitary(circuit: Circuit, qubit_cap: int = _EXTRACT_CAP) -> np.ndarray:
    """Full matrix of the circuit, built by evolving every basis column."""
    n = circuit.n_qubits
    if n > qubit_cap:
        raise ResourceLimitError(f"{n} qubits exceed the extraction cap of {qubit_cap}")
    matrix = np.eye(1 << n, dtype=complex)
    apply_gates(matrix, circuit.gates, n)
    return matrix


def sample_marked(state: np.ndarray, qubits: Sequence[int],
                  marked: Callable[[int], bool], shots: int,
                  survival: float, rng: np.random.Generator) -> int:
    """Count marked outcomes of ``shots`` draws over the shot-scrambling channel.

    Each shot survives with probability ``survival`` and then measures the
    register marginal; otherwise it measures uniformly over the register.
    """
    if shots < 1:
        raise ValidationError("shots must be >= 1", code="invalid-shots")
    probs = np.clip(probabilities(state, qubits), 0.0, None)
    probs /= probs.sum()
    dim = len(probs)
    lut = np.fromiter((bool(marked(v)) for v in range(dim)), dtype=bool, count=dim)
    clean = rng.random(shots) < survival
    outcomes = np.empty(shots, dtype=np.int64)
    n_clean = int(clean.sum())
    if n_clean:
        outcomes[clean] = rng.choice(dim, size=n_clean, p=probs)
    if shots - n_clean:
        outcomes[~clean] = rng.integers(0, dim, size=shots - n_clean)
    return int(lut[outcomes].sum())


def _qubit_count(state: np.ndarray) -> int:
    n = int(math.log2(state.shape[0]))
    if state.shape != (1 << n,):
        raise ValidationError("statevector length must be a power of two",
                              code="dimension-mismatch")
    return n


def _check_qubits(qubits: Sequence[int], n: int) -> None:
    if not qubits:
        raise ValidationError("at least one qubit required", code="index-out-of-range")
    if len(set(qubits)) != len(qubits):
        raise ValidationError("qubits must be distinct", code="index-out-of-range")
    if any(q < 0 or q >= n for q in qubits):
        raise ValidationError(f"qubit outside 0..{n - 1}", code="index-out-of-range")
