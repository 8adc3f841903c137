"""Standard quantum amplitude estimation and Grover eigenphase analysis.

Both read the Grover operator -A S0 A^dagger S_chi on its invariant plane.
It equals (2|psi><psi| - I)(I - 2 Pi), with psi = A|0> the model state and
Pi the projector on the marked basis states (Brassard, Hoyer, Mosca and
Tapp, arXiv:quant-ph/0005055), so on the plane of psi's marked and unmarked
parts it is the rotation by 2a, sin(a) = sqrt(p), p the marked mass, and l
applications leave psi at (cos((2l+1)a), sin((2l+1)a)) in the basis
(unmarked, marked) of normalised parts. The low-depth schedule reads the
same form. The marked event pins nodes of one time-step register, so p is a
sum over that register's 2^k-entry marginal: one model run gives it, no
second state is made and no Grover gate is simulated. Standard QAE needs no
phase-estimation circuit: its ancilla distribution is an FFT over that form,
equal to the circuit's ancilla marginals to rounding, and a sweep over bit
counts runs the model once. The residual is how far the register
marginal's total is from 1, the one error the closed form leaves.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .circuit import GroverSpec, build_model_circuit
from .errors import DegenerateSubspaceError, ResourceLimitError, ValidationError
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


def _plane(model: NetworkModel, horizon: int, spec: GroverSpec,
           qubit_cap: int) -> tuple[np.ndarray, np.ndarray, float, float]:
    """The Grover plane from one model run: (marked, unmarked, p, residual).

    The parts of the target-register marginal hold it at their own
    configurations and 0 elsewhere; p and q are their sums, and the residual
    is |1 - p - q|. What ``run`` refuses is refused unbuilt, and a marked
    node or step outside the layout before the run."""
    if horizon >= 1:
        check_run_size(model.k * horizon, qubit_cap)
    base = build_model_circuit(model, horizon)
    for node, _ in spec.marked:  # matches() alone would pass a node past k at bit 0
        base.qubit(node, spec.target_step)
    dist = probabilities(run(base, qubit_cap=qubit_cap), base.register(spec.target_step))
    mask = spec.matches(np.arange(len(dist)))
    marked, unmarked = np.where(mask, dist, 0.0), np.where(mask, 0.0, dist)
    p, q = float(marked.sum()), float(unmarked.sum())
    return marked, unmarked, p, abs(q + p - 1.0)


def _half_angle(p: float) -> float:
    """a with sin(a) = sqrt(p): the Grover operator rotates its plane by 2a."""
    return math.asin(math.sqrt(min(p, 1.0)))  # rounding can put p above 1


def _ancilla_distribution(angle: float, bits: int) -> np.ndarray:
    """Phase-estimation outcome distribution on the plane of half angle a.

    Ancilla value y leaves the model register at X[y] = (cos((2y+1)a),
    sin((2y+1)a)) in the basis (unmarked, marked), so after the inverse
    Fourier transform outcome z has amplitude fft(X)[z] / 2^bits."""
    size = 1 << bits
    turns = (2.0 * np.arange(size) + 1.0) * angle
    powers = np.stack([np.cos(turns), np.sin(turns)], axis=1)
    return (np.abs(np.fft.fft(powers, axis=0)) ** 2).sum(axis=1) / size ** 2


def _qae_sweep(model: NetworkModel, horizon: int, spec: GroverSpec, pairs, shots: int,
               qubit_cap: int) -> list[QaeResult]:
    """Standard QAE at each of the (bits, seed) ``pairs``, from one model run.

    Every pair is checked before the model runs: its bit count, its seed,
    the size of the circuit being estimated (the k*horizon model qubits and
    the ``bits`` ancillas) and the shot count, which numpy draws as an int64.
    """
    for bits, seed in pairs:
        if bits < 1:
            raise ValidationError("resolution must be >= 1 bit", code="invalid-bits")
        seed_tuple(seed)
        # this also bounds the (2^bits, 2) arrays of the ancilla distribution
        if horizon >= 1:
            check_run_size(model.k * horizon + bits, qubit_cap)
        # the shots are checked with each pair, so a sweep's first refusal
        # is the one a call per bit count would meet first
        if shots < 1:
            raise ValidationError("shots must be >= 1", code="invalid-shots")
        if shots >= 1 << 63:
            raise ResourceLimitError(f"{shots} shots exceed the 2^63 - 1 that an int64 "
                                     "draw count holds")
    _, _, p, residual = _plane(model, horizon, spec, qubit_cap)
    angle = _half_angle(p)
    results = []
    for bits, seed in pairs:
        counts = _draw_counts(_ancilla_distribution(angle, bits), shots, seed)
        modal = min(counts, key=lambda y: (-counts[y], y))
        theta, probability = decode_outcome(modal, bits)
        results.append(QaeResult(bits, counts, modal, theta, probability, residual))
    return results


def run_standard_qae(model: NetworkModel, horizon: int, spec: GroverSpec, bits: int,
                     shots: int, seed, qubit_cap: int = DEFAULT_QUBIT_CAP) -> QaeResult:
    """Sample the phase-estimation ancillas and decode the most frequent outcome.

    The ancilla distribution is the closed form on the Grover plane: only
    the k*horizon model qubits are simulated, once. ``qubit_cap`` and the
    byte budget still count the ``bits`` ancillas of the circuit being
    estimated; they, and a shot count past an int64, are refused before the
    model runs."""
    return _qae_sweep(model, horizon, spec, [(bits, seed)], shots, qubit_cap)[0]


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
    _, _, p, residual = _plane(model, horizon, spec, qubit_cap)
    if p < 1e-12 or p > 1.0 - 1e-12:
        raise DegenerateSubspaceError(
            f"marked probability {p!r} leaves no two-dimensional rotation plane")
    theta = 2.0 * _half_angle(p)
    lam = cmath.exp(1j * theta)
    return EigenphaseResult(theta, lam, lam.conjugate(), math.sin(theta / 2.0) ** 2, residual)
