"""Standard quantum amplitude estimation and Grover eigenphase analysis.

Both read the Grover operator on its two-dimensional invariant plane
(Brassard, Hoyer, Mosca and Tapp, arXiv:quant-ph/0005055): the model state
splits into its marked and unmarked parts, and the operator maps that plane
to itself by a 2x2 matrix M. The eigenphase is M's rotation angle. Standard
QAE is computed on the plane as well, with no phase-estimation circuit: its
ancilla distribution is an FFT over M^y v0, equal to the circuit's ancilla
marginals to rounding. A plane whose leak residual passes 1e-8 raises
``CascadeqError`` with code ``plane-leak`` (exit 1) rather than return a
wrong distribution.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .circuit import GroverSpec, build_grover, build_model_circuit
from .errors import CascadeqError, DegenerateSubspaceError, ValidationError
from .model import NetworkModel, seed_tuple
from .sim import (
    DEFAULT_QUBIT_CAP,
    _draw_counts,
    apply_gates,
    check_run_size,
    check_statevector_size,
    run,
)

__all__ = [
    "QaeResult",
    "EigenphaseResult",
    "decode_outcome",
    "run_standard_qae",
    "grover_eigenphase",
]

_LEAK_BOUND = 1e-8
"""Largest plane residual standard QAE accepts."""

_EIGENPHASE_PEAK = 9.18
"""Peak bytes of :func:`_grover_plane` as a multiple of the 16 * 2^n of one
complex128 statevector. Tracemalloc at 14-20 qubits: 3.01-3.61 (3.01-3.12
from 16 on), from the two float64 basis states, their Grover images and the
residual's temporaries.
The factor is the 9.07-9.18 a complex128 plane with an index mask peaked
at; it bounds the float64 path from above, and lowering it would admit one
more qubit."""


@dataclass(frozen=True)
class QaeResult:
    """Sampled phase-estimation outcomes, the decoded modal estimate, and
    the leak residual of the Grover plane they were computed on."""

    bits: int
    outcome_counts: dict[int, int]
    modal_outcome: int
    theta: float
    probability: float
    residual: float


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


def _grover_plane(model: NetworkModel, horizon: int, spec: GroverSpec,
                  qubit_cap: int) -> tuple[np.ndarray, np.ndarray, float, float]:
    """The Grover operator on the plane of the model state's marked and
    unmarked parts: (M, v0, residual, p).

    M is the 2x2 matrix of the operator in the basis (unmarked, marked) of
    normalised parts. v0 = (sqrt(1-p), sqrt(p)) holds the parts' norms, so
    the model state is v0 in that basis. The residual is how far the
    operator's image of either basis state leaks out of the plane. When p is
    0 or 1 a part is zero; its basis state, row and column of M and entry of
    v0 are then zero too.
    """
    if horizon >= 1:
        check_statevector_size(model.k * horizon, qubit_cap, _EIGENPHASE_PEAK,
                               "the Grover plane")
    base = build_model_circuit(model, horizon)
    unmarked_part = run(base, qubit_cap=qubit_cap)
    marked_part = _take_marked(unmarked_part, base, spec)
    p = float(np.vdot(marked_part, marked_part))
    v0 = np.sqrt([np.vdot(unmarked_part, unmarked_part), p])
    basis = (unmarked_part, marked_part)
    for part, norm in zip(basis, v0):
        if norm:
            part /= norm
    grover = build_grover(model, horizon, spec)
    images = [apply_gates(b.copy(), grover.gates, grover.n_qubits) for b in basis]
    m = np.array([[np.vdot(b, g) for g in images] for b in basis])
    residual = max(float(np.linalg.norm(g - (m[0, j] * basis[0] + m[1, j] * basis[1])))
                   for j, g in enumerate(images))
    return m, v0, residual, p


def _ancilla_distribution(model: NetworkModel, horizon: int, spec: GroverSpec, bits: int,
                          qubit_cap: int) -> tuple[np.ndarray, float]:
    """Outcome distribution of the phase-estimation ancillas, computed on the
    Grover plane, and the plane's residual.

    After the controlled powers, ancilla value y leaves the model register in
    M^y v0, so after the inverse Fourier transform outcome z has amplitude
    (1/N) sum_y e^{-2 pi i yz/N} M^y v0, with N = 2^bits.
    """
    # the circuit being estimated has bits ancillas; its size is refused as
    # before, which also bounds the (N, 2) arrays below
    if horizon >= 1:
        check_run_size(model.k * horizon + bits, qubit_cap)
    m, v0, residual, _ = _grover_plane(model, horizon, spec, qubit_cap)
    if residual > _LEAK_BOUND:
        raise CascadeqError(
            f"the Grover plane leaks {residual!r}, over {_LEAK_BOUND}", code="plane-leak")
    size = 1 << bits
    # X[y] = M^y v0, doubling as the circuit does: ancilla j applies M^(2^j)
    powers = np.empty((size, 2), dtype=complex)
    powers[0] = v0
    step = m
    for j in range(bits):
        half = 1 << j
        powers[half:2 * half] = powers[:half] @ step.T
        step = step @ step
    probs = (np.abs(np.fft.fft(powers, axis=0)) ** 2).sum(axis=1) / size ** 2
    return probs, residual


def run_standard_qae(model: NetworkModel, horizon: int, spec: GroverSpec, bits: int,
                     shots: int, seed, qubit_cap: int = DEFAULT_QUBIT_CAP) -> QaeResult:
    """Sample the phase-estimation ancillas and decode the most frequent outcome.

    The ancilla distribution is computed on the Grover plane, with no
    phase-estimation circuit: only the k*horizon model qubits are simulated.
    ``qubit_cap`` and the byte budget still count the ``bits`` ancillas of
    the circuit being estimated. A plane residual above 1e-8 raises
    ``CascadeqError`` with code ``plane-leak``.
    """
    if bits < 1:  # before the seed, which the CLI builds from bits
        raise ValidationError("resolution must be >= 1 bit", code="invalid-bits")
    seeds = seed_tuple(seed)
    probs, residual = _ancilla_distribution(model, horizon, spec, bits, qubit_cap)
    counts = _draw_counts(probs, shots, seeds)
    modal = min(counts, key=lambda y: (-counts[y], y))
    theta, probability = decode_outcome(modal, bits)
    return QaeResult(bits, counts, modal, theta, probability, residual)


def _take_marked(state: np.ndarray, circuit, spec: GroverSpec) -> np.ndarray:
    """Move the marked part of ``state`` into a new array, zeroing it in
    ``state``, by slicing the [2]*n view on the marked qubits."""
    n = circuit.n_qubits
    sel: list = [slice(None)] * n
    for node, bit in spec.marked:
        sel[n - 1 - circuit.qubit(node, spec.target_step)] = bit
    sel = tuple(sel)
    view = state.reshape([2] * n)
    marked = np.zeros_like(state)
    marked.reshape([2] * n)[sel] = view[sel]
    view[sel] = 0.0
    return marked


def grover_eigenphase(model: NetworkModel, horizon: int, spec: GroverSpec,
                      qubit_cap: int = DEFAULT_QUBIT_CAP) -> EigenphaseResult:
    """Read the rotation angle of the Grover operator from its invariant plane.

    The state after the model circuit splits into marked and unmarked
    components; the Grover operator rotates that plane by theta with
    p = sin^2(theta/2). Exact (no sampling), and cheaper than a dense
    eigendecomposition. The residual reports how much of the rotated basis
    leaked outside the plane; it should be at numerical noise level.
    """
    m, _, residual, p = _grover_plane(model, horizon, spec, qubit_cap)
    if p < 1e-12 or p > 1.0 - 1e-12:
        raise DegenerateSubspaceError(
            f"marked probability {p!r} leaves no two-dimensional rotation plane")
    theta = math.atan2(m[1, 0], m[0, 0])
    lam = cmath.exp(1j * theta)
    return EigenphaseResult(theta, lam, lam.conjugate(), math.sin(theta / 2.0) ** 2, residual)
