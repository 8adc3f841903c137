"""Dense statevector simulation of the gate IR.

Basis index bit q is qubit q (qubit 0 least significant). A gate updates the
state in place through one of two kernels:

* The slicing kernel works on the ``[2]*n`` view. Controlled gates slice it
  on their control axes, and a 2x2 gate updates the two halves of its target
  axis, through a handful of half-size temporaries. Every controlled gate,
  every diagonal kind (``z``, ``phase``, ``s0``, ``mark``) and every gate on
  fewer than ``_BLAS_MIN_QUBITS`` qubits takes it.
* The BLAS kernel takes an uncontrolled ``ry``, ``x`` or ``h`` on a larger
  state as one matrix product, written back in place. A target q >= 4 is a
  batch of (2, 2) @ (2, 2^q) products; a lower target multiplies the
  state's rows of the lowest max(8, 2^(q+1)) amplitudes by one dense block.
  A complex128 state runs it on copies of its real and imaginary parts, so
  its real part matches a float64 run of the same gates exactly. The
  product agrees with the slicing kernel to rounding (within 1e-15 in every
  amplitude in the tests), not bit for bit.

Every gate kind but ``phase`` is real and orthogonal, so :func:`run` holds
the state as float64 when the circuit has no ``phase`` gate, and as
complex128 otherwise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circuit import Circuit, Gate
from .errors import DENSE_BYTE_BUDGET, ResourceLimitError, ValidationError, check_dense_bytes
from .model import seed_tuple

__all__ = [
    "DEFAULT_QUBIT_CAP",
    "NoiseSpec",
    "run",
    "check_run_size",
    "apply_gates",
    "probabilities",
    "sample_marked",
]

DEFAULT_QUBIT_CAP = 20

_RUN_PEAK = 2.65
"""Peak bytes of :func:`run` as a multiple of the 16 * 2^n of one complex128
state. Tracemalloc at 14-20 qubits: 2.00-2.02 for a complex128 run, from the
BLAS kernel's copy of the real or imaginary part and its product; 1.00-1.02
for a float64 run, which it bounds too. The factor is the 2.51-2.65 the
slicing kernel's temporaries peaked at on every 2x2 gate."""

_SHOT_PEAK = 32
"""Peak bytes of :func:`sample_marked` per shot. Tracemalloc at 10^5 to
4 * 10^6 shots on registers of 2 and 64 values: 25.0 with every shot
surviving (the uniform draws, the survival mask, the outcomes and the
drawn values), 23.4 at survival 0.9, 18.0 at 0 and 17.0 at 0.5."""


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
    "x": (0.0, 1.0, 1.0, 0.0),
    "h": tuple(v / math.sqrt(2.0) for v in (1.0, 1.0, 1.0, -1.0)),
}


def _gate_matrix(gate: Gate) -> tuple[float, float, float, float]:
    """Entries (u00, u01, u10, u11) of a real 2x2 gate."""
    if gate.kind == "ry":
        c, s = math.cos(gate.angle / 2.0), math.sin(gate.angle / 2.0)
        return c, -s, s, c
    return _MATRICES[gate.kind]


_BLAS_MIN_QUBITS = 3
"""Smallest state, in qubits, whose uncontrolled 2x2 gates take the BLAS
kernel: the smallest the eight-wide block of a low target fits. Measured
per gate with single-threaded OpenBLAS, the matrix set-up included, the BLAS
kernel is the faster from there on: 1.8 us against 3.3-4.3 us at 3 qubits,
1.6-2.0 against 3.6-4.9 us at 6, 2.0-2.4 against 4.9-10 us at 10, and
0.26-0.80 ms against 0.59-4.8 ms at 20."""

_LOW_TARGETS = 4
"""Targets below this take one dense block of the lowest qubits: a batch of
(2, 2) @ (2, 2^q) products is slower there (at 20 qubits 2.4 ms at q = 2
and 1.3 ms at q = 3, against 0.63 and 0.70 ms for the block) and faster
from q = 4 on (0.69 ms against 0.97 ms)."""


def _low_pattern(q: int) -> np.ndarray:
    """Transposed dense block of a 2x2 gate U on qubit q of the lowest
    max(3, q+1) qubits, as indices into (0, u00, u01, u10, u11): entry (i, j)
    is U's entry (bit q of j, bit q of i) where i and j agree off bit q, and
    0 elsewhere."""
    index = np.arange(max(8, 2 << q))
    bit = (index >> q) & 1
    rest = index & ~(1 << q)
    return np.where(rest[:, None] == rest, 1 + 2 * bit + bit[:, None], 0)


_LOW_PATTERNS = tuple(_low_pattern(q) for q in range(_LOW_TARGETS))


def _blas_update(flat: np.ndarray, u: tuple[float, float, float, float], q: int) -> None:
    """Apply the 2x2 gate ``u`` to target ``q`` of a real state, in place,
    with one matrix product."""
    if q < _LOW_TARGETS:
        pattern = _LOW_PATTERNS[q]
        rows = flat.reshape(-1, pattern.shape[0])
        rows[...] = rows @ np.array((0.0, *u))[pattern]
    else:
        pairs = flat.reshape(-1, 2, 1 << q)
        pairs[...] = np.array(u).reshape(2, 2) @ pairs


def _apply_gate(view: np.ndarray, gate: Gate, n: int) -> None:
    """Apply one gate in place; ``view`` has shape [2]*n."""
    if n >= _BLAS_MIN_QUBITS and not gate.controls and gate.kind in ("ry", "x", "h"):
        u, q, flat = _gate_matrix(gate), gate.targets[0], view.reshape(-1)
        if not np.iscomplexobj(flat):
            _blas_update(flat, u, q)
        else:
            for part in (flat.real, flat.imag):
                contiguous = part.copy()
                _blas_update(contiguous, u, q)
                part[...] = contiguous
        return
    sel: list = [slice(None)] * n
    for q, pol in gate.controls:
        sel[_axis(n, q)] = pol
    if gate.kind in ("ry", "x", "h"):
        u00, u01, u10, u11 = _gate_matrix(gate)
        t_ax = _axis(n, gate.targets[0])
        # the trailing Ellipsis keeps a fully indexed half a 0-d view
        lo, hi = (view[(*sel[:t_ax], b, *sel[t_ax + 1:], ...)] for b in (0, 1))
        a0 = lo.copy()
        lo[...] = u00 * a0 + u01 * hi
        hi[...] = u10 * a0 + u11 * hi
        return
    # the diagonal kinds: z and phase act where their target is 1, s0 where
    # every target is 0, mark (no target) wherever its controls hold
    for q in gate.targets:
        sel[_axis(n, q)] = 0 if gate.kind == "s0" else 1
    view[tuple(sel)] *= (complex(math.cos(gate.angle), math.sin(gate.angle))
                         if gate.kind == "phase" else -1.0)


def apply_gates(state: np.ndarray, gates: Sequence[Gate], n_qubits: int) -> np.ndarray:
    """Apply gates in order to a statevector of 2^n_qubits amplitudes, in place.

    A state of any other length raises ValidationError (``dimension-mismatch``),
    and a real state takes real gates only: a ``phase`` gate raises
    ValidationError (``dtype-mismatch``). Both are raised before the state is
    touched.
    """
    if state.shape != (1 << n_qubits,):
        raise ValidationError(
            f"statevector has shape {state.shape}, expected ({1 << n_qubits},)",
            code="dimension-mismatch",
        )
    if not np.iscomplexobj(state) and _has_phase(gates):
        raise ValidationError("a phase gate needs a complex state", code="dtype-mismatch")
    view = state.reshape([2] * n_qubits)
    for gate in gates:
        _apply_gate(view, gate, n_qubits)
    return state


def _has_phase(gates: Sequence[Gate]) -> bool:
    return any(gate.kind == "phase" for gate in gates)


def run(circuit: Circuit, qubit_cap: int = DEFAULT_QUBIT_CAP) -> np.ndarray:
    """Statevector after the whole circuit, starting from |0...0>; float64
    unless the circuit has a ``phase`` gate."""
    n = circuit.n_qubits
    check_run_size(n, qubit_cap)
    state = np.zeros(1 << n, dtype=complex if _has_phase(circuit.gates) else float)
    state[0] = 1.0
    apply_gates(state, circuit.gates, n)
    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > 1e-10:
        raise ValidationError(f"statevector norm drifted to {norm!r}", code="norm-drift")
    return state


def check_run_size(n: int, qubit_cap: int = DEFAULT_QUBIT_CAP) -> None:
    """Raise ResourceLimitError if :func:`run` on ``n`` qubits would be refused,
    so a caller can refuse before it builds the circuit: ``n`` passes
    ``qubit_cap``, or the run's peak of ``_RUN_PEAK`` times the 16 * 2^n bytes
    of one statevector passes ``DENSE_BYTE_BUDGET``."""
    if n > qubit_cap:
        raise ResourceLimitError(f"{n} qubits exceed the cap of {qubit_cap}")
    # 16 * 2^63 bytes is past any budget, and past about n = 1020 the float
    # product below would overflow
    if n > 62:
        raise ResourceLimitError(f"a statevector run on {n} qubits needs at least 2^67 "
                                 f"bytes, over the budget of {DENSE_BYTE_BUDGET}")
    check_dense_bytes(int(_RUN_PEAK * (16 << n)), f"a statevector run on {n} qubits")


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


def _draw_counts(probs: np.ndarray, shots: int, seed) -> dict[int, int]:
    """Seeded multinomial draw of ``shots`` outcomes from ``probs``, clipped at
    0 and normalised; keys are the outcome indices drawn at least once."""
    if shots < 1:
        raise ValidationError("shots must be >= 1", code="invalid-shots")
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    rng = np.random.default_rng(seed_tuple(seed))
    drawn = rng.multinomial(shots, probs)
    return {int(v): int(c) for v, c in enumerate(drawn) if c}


def sample_marked(probs: np.ndarray, marked: np.ndarray, shots: int,
                  survival: float, rng: np.random.Generator) -> int:
    """Count marked outcomes of ``shots`` draws over the shot-scrambling channel.

    ``probs`` is the register distribution, clipped at 0 and normalised
    before the draw, and ``marked`` the boolean mask of its marked values.
    Each shot survives with probability ``survival`` and then measures
    ``probs``; otherwise it measures uniformly over the register.
    """
    if shots < 1:
        raise ValidationError("shots must be >= 1", code="invalid-shots")
    if marked.shape != probs.shape:
        raise ValidationError(f"mask has shape {marked.shape}, expected {probs.shape}",
                              code="dimension-mismatch")
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    dim = len(probs)
    clean = rng.random(shots) < survival
    outcomes = np.empty(shots, dtype=np.int64)
    n_clean = int(clean.sum())
    if n_clean:
        outcomes[clean] = rng.choice(dim, size=n_clean, p=probs)
    if shots - n_clean:
        outcomes[~clean] = rng.integers(0, dim, size=shots - n_clean)
    return int(marked[outcomes].sum())


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
