"""Standard quantum amplitude estimation and Grover eigenphase analysis."""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .circuit import GroverSpec, build_grover, build_model_circuit, build_qae_circuit
from .errors import DegenerateSubspaceError, ValidationError
from .model import NetworkModel, seed_tuple
from .sim import DEFAULT_QUBIT_CAP, apply_gates, check_statevector_size, run, sample_counts

__all__ = [
    "QaeResult",
    "EigenphaseResult",
    "decode_outcome",
    "run_standard_qae",
    "grover_eigenphase",
]

_EIGENPHASE_PEAK = 9.18
"""Peak bytes of :func:`grover_eigenphase` as a multiple of the 16 * 2^n of
one statevector (tracemalloc: 9.07-9.18 at 16-20 qubits, from the marked
mask, the two basis states and their Grover images)."""


@dataclass(frozen=True)
class QaeResult:
    """Sampled phase-estimation outcomes and the decoded modal estimate."""

    bits: int
    outcome_counts: dict[int, int]
    modal_outcome: int
    theta: float
    probability: float


@dataclass(frozen=True)
class EigenphaseResult:
    """Rotation angle of the Grover operator on its 2D invariant subspace."""

    theta: float
    lambda_plus: complex
    lambda_minus: complex
    probability: float
    residual: float


def decode_outcome(outcome: int, bits: int) -> tuple[float, float]:
    """Map outcome y to (theta, probability): theta = 2*pi*y/2^bits, p = sin^2(theta/2).

    The probability is evaluated at the folded outcome min(y, 2^bits - y) so
    mirrored outcomes decode to bit-identical probabilities.
    """
    if bits < 1:
        raise ValidationError("resolution must be >= 1 bit", code="invalid-bits")
    size = 1 << bits
    if not 0 <= outcome < size:
        raise ValidationError(f"outcome {outcome} outside 0..{size - 1}",
                              code="out-of-range")
    theta = 2.0 * math.pi * outcome / size
    folded = min(outcome, size - outcome)
    return theta, math.sin(math.pi * folded / size) ** 2


def run_standard_qae(model: NetworkModel, horizon: int, spec: GroverSpec, bits: int,
                     shots: int, seed, qubit_cap: int = DEFAULT_QUBIT_CAP) -> QaeResult:
    """Sample the phase-estimation ancillas and decode the most frequent outcome."""
    seeds = seed_tuple(seed)
    circuit = build_qae_circuit(model, horizon, spec, bits)
    state = run(circuit, qubit_cap=qubit_cap)
    counts = sample_counts(state, circuit.ancillas, shots, seeds)
    modal = min(counts, key=lambda y: (-counts[y], y))
    theta, probability = decode_outcome(modal, bits)
    return QaeResult(bits, counts, modal, theta, probability)


def _marked_mask(circuit, spec: GroverSpec) -> np.ndarray:
    index = np.arange(1 << circuit.n_qubits)
    mask = np.ones(index.shape, dtype=bool)
    for node, bit in spec.marked:
        qubit = circuit.qubit(node, spec.target_step)
        mask &= ((index >> qubit) & 1) == bit
    return mask


def grover_eigenphase(model: NetworkModel, horizon: int, spec: GroverSpec,
                      qubit_cap: int = DEFAULT_QUBIT_CAP) -> EigenphaseResult:
    """Read the rotation angle of the Grover operator from its invariant plane.

    The state after the model circuit splits into marked and unmarked
    components; the Grover operator rotates that plane by theta with
    p = sin^2(theta/2). Exact (no sampling), and cheaper than a dense
    eigendecomposition. The residual reports how much of the rotated basis
    leaked outside the plane; it should be at numerical noise level.
    """
    base = build_model_circuit(model, horizon)
    check_statevector_size(base.n_qubits, qubit_cap, _EIGENPHASE_PEAK, "the Grover eigenphase")
    state = run(base, qubit_cap=qubit_cap)
    mask = _marked_mask(base, spec)
    marked_part = np.where(mask, state, 0.0)
    unmarked_part = state - marked_part
    p = float(np.vdot(marked_part, marked_part).real)
    if p < 1e-12 or p > 1.0 - 1e-12:
        raise DegenerateSubspaceError(
            f"marked probability {p!r} leaves no two-dimensional rotation plane")
    basis0 = unmarked_part / math.sqrt(1.0 - p)
    basis1 = marked_part / math.sqrt(p)
    grover = build_grover(model, horizon, spec)
    g0 = apply_gates(basis0.copy(), grover.gates, grover.n_qubits)
    g1 = apply_gates(basis1.copy(), grover.gates, grover.n_qubits)
    m = np.array([[np.vdot(basis0, g0), np.vdot(basis0, g1)],
                  [np.vdot(basis1, g0), np.vdot(basis1, g1)]])
    residual = max(
        float(np.linalg.norm(g0 - (m[0, 0] * basis0 + m[1, 0] * basis1))),
        float(np.linalg.norm(g1 - (m[0, 1] * basis0 + m[1, 1] * basis1))),
    )
    theta = math.atan2(m[1, 0].real, m[0, 0].real)
    lam = cmath.exp(1j * theta)
    return EigenphaseResult(theta, lam, lam.conjugate(), math.sin(theta / 2.0) ** 2, residual)
