"""Standard quantum amplitude estimation and Grover eigenphase analysis.

Both read the Grover operator -A S0 A^dagger S_chi on its invariant plane.
It equals (2|psi><psi| - I)(I - 2 Pi), with psi = A|0> the model state and
Pi the projector on the marked basis states (Brassard, Hoyer, Mosca and
Tapp, arXiv:quant-ph/0005055), so on the plane of psi's marked and unmarked
parts it is the rotation M by theta = 2 asin(sqrt(p)), p the marked mass.
The marked event pins nodes of one time-step register, so p is a sum over
that register's 2^k-entry marginal: one model run gives it, no second state
is made and no Grover gate is simulated. Standard QAE needs no
phase-estimation circuit: its ancilla distribution is an FFT over M^y v0,
equal to the circuit's ancilla marginals to rounding. The residual is how
far the register marginal's total is from 1, the one error the closed form
leaves.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .circuit import GroverSpec, build_model_circuit
from .errors import DegenerateSubspaceError, ValidationError
from .model import NetworkModel, seed_tuple
from .sim import DEFAULT_QUBIT_CAP, _draw_counts, check_run_size, probabilities, run

__all__ = [
    "QaeResult",
    "EigenphaseResult",
    "decode_outcome",
    "run_standard_qae",
    "grover_eigenphase",
]


@dataclass(frozen=True)
class QaeResult:
    """Sampled phase-estimation outcomes, the decoded modal estimate, and
    the norm residual of the model state they were computed from."""

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


def _register_parts(model: NetworkModel, horizon: int,
                    spec: GroverSpec, qubit_cap: int) -> tuple[np.ndarray, np.ndarray]:
    """(marked, unmarked) parts of the model state's target-register
    marginal: each holds the marginal at its own configurations and 0 at
    the other's. What ``run`` refuses is refused unbuilt, and a marked node
    or step outside the layout before the run."""
    if horizon >= 1:
        check_run_size(model.k * horizon, qubit_cap)
    base = build_model_circuit(model, horizon)
    for node, _ in spec.marked:  # matches() alone would pass a node past k at bit 0
        base.qubit(node, spec.target_step)
    dist = probabilities(run(base, qubit_cap=qubit_cap), base.register(spec.target_step))
    mask = spec.matches(np.arange(len(dist)))
    return np.where(mask, dist, 0.0), np.where(mask, 0.0, dist)


def _grover_plane(model: NetworkModel, horizon: int, spec: GroverSpec,
                  qubit_cap: int) -> tuple[np.ndarray, np.ndarray, float, float]:
    """The Grover operator on the plane of the model state's marked and
    unmarked parts: (M, v0, residual, p).

    M is the 2x2 matrix of the operator in the basis (unmarked, marked) of
    normalised parts: the rotation by theta = 2 asin(sqrt(p)). v0 =
    (sqrt(1-p), sqrt(p)) holds the parts' norms, so the model state is v0 in
    that basis. p and q, the unmarked mass, are the sums of the two parts of
    the target register's marginal, and the residual is |1 - p - q|, how far
    the marginal's total is from 1. When p is 0 or 1 a part is zero; its row
    and column of M and entry of v0 are then zero too.
    """
    p, q = (float(part.sum()) for part in _register_parts(model, horizon, spec, qubit_cap))
    theta = 2.0 * math.asin(math.sqrt(min(p, 1.0)))  # rounding can put p above 1
    v0 = np.sqrt([q, p])
    m = np.array([[math.cos(theta), -math.sin(theta)],
                  [math.sin(theta), math.cos(theta)]]) * np.outer(v0 > 0, v0 > 0)
    return m, v0, abs(q + p - 1.0), p


def _ancilla_distribution(model: NetworkModel, horizon: int, spec: GroverSpec, bits: int,
                          qubit_cap: int) -> tuple[np.ndarray, float]:
    """Outcome distribution of the phase-estimation ancillas, computed on the
    Grover plane, and the model state's norm residual.

    After the controlled powers, ancilla value y leaves the model register in
    M^y v0, so after the inverse Fourier transform outcome z has amplitude
    (1/N) sum_y e^{-2 pi i yz/N} M^y v0, with N = 2^bits.
    """
    # the circuit being estimated has bits ancillas; its size is refused as
    # before, which also bounds the (N, 2) arrays below
    if horizon >= 1:
        check_run_size(model.k * horizon + bits, qubit_cap)
    m, v0, residual, _ = _grover_plane(model, horizon, spec, qubit_cap)
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
    the circuit being estimated.
    """
    if bits < 1:  # before the seed, which the CLI builds from bits
        raise ValidationError("resolution must be >= 1 bit", code="invalid-bits")
    seeds = seed_tuple(seed)
    probs, residual = _ancilla_distribution(model, horizon, spec, bits, qubit_cap)
    counts = _draw_counts(probs, shots, seeds)
    modal = min(counts, key=lambda y: (-counts[y], y))
    theta, probability = decode_outcome(modal, bits)
    return QaeResult(bits, counts, modal, theta, probability, residual)


def grover_eigenphase(model: NetworkModel, horizon: int, spec: GroverSpec,
                      qubit_cap: int = DEFAULT_QUBIT_CAP) -> EigenphaseResult:
    """Read the rotation angle of the Grover operator from its invariant plane.

    The state after the model circuit splits into marked and unmarked
    components; the Grover operator rotates that plane by
    theta = 2 asin(sqrt(p)), p the marked mass of the target register's
    marginal. Exact (no sampling), and cheaper than a dense
    eigendecomposition. The residual reports how far that marginal's total
    is from 1; it should be at numerical noise level.
    """
    _, _, residual, p = _grover_plane(model, horizon, spec, qubit_cap)
    if p < 1e-12 or p > 1.0 - 1e-12:
        raise DegenerateSubspaceError(
            f"marked probability {p!r} leaves no two-dimensional rotation plane")
    theta = 2.0 * math.asin(math.sqrt(p))
    lam = cmath.exp(1j * theta)
    return EigenphaseResult(theta, lam, lam.conjugate(), math.sin(theta / 2.0) ** 2, residual)
