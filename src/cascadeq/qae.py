"""Standard quantum amplitude estimation and Grover eigenphase analysis.

Both read the Grover operator -A S0 A^dagger S_chi on its invariant plane.
It equals (2|psi><psi| - I)(I - 2 Pi), with psi = A|0> the model state and
Pi the projector on the marked basis states (Brassard, Hoyer, Mosca and
Tapp, arXiv:quant-ph/0005055), so on the plane of psi's marked and unmarked
parts it is the rotation by 2a, sin(a) = sqrt(p), p the marked mass, and l
applications leave psi at (cos((2l+1)a), sin((2l+1)a)) in the basis
(unmarked, marked) of normalised parts. The low-depth schedule reads the
same form. The marked event pins nodes of the final register, so p is a
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
from .errors import DegenerateSubspaceError, ResourceLimitError, check_dense_bytes
from .model import NetworkModel, check_int, seed_tuple
from .sim import check_run_size, probabilities, run

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
    mirrored outcomes decode to bit-identical probabilities. Past 1,023 bits
    2^bits is no float, and ``bits`` is refused.
    """
    bits = check_int(bits, "bits", "invalid-bits", 1, 1023)
    size = 1 << bits
    outcome = check_int(outcome, "outcome", "out-of-range", 0, size - 1)
    theta = 2.0 * math.pi * outcome / size
    folded = min(outcome, size - outcome)
    return theta, math.sin(math.pi * folded / size) ** 2


def _plane(model: NetworkModel, horizon: int, spec: GroverSpec) -> tuple[float, float]:
    """The Grover plane from one model run: (p, residual).

    p and q are the sums of the final register's marginal over its marked
    and unmarked configurations, and the residual is |1 - p - q|. What
    ``run`` refuses is refused unbuilt, and a marked node past k before the
    run."""
    horizon = check_int(horizon, "horizon", "invalid-horizon", 1)
    check_run_size(model.k * horizon)
    base = build_model_circuit(model, horizon)
    for node, _ in spec.marked:  # matches() alone would pass a node past k at bit 0
        base.qubit(node, horizon)
    dist = probabilities(run(base), base.register(horizon))
    mask = spec.matches(np.arange(len(dist)))
    p = float(np.where(mask, dist, 0.0).sum())
    q = float(np.where(mask, 0.0, dist).sum())
    return p, abs(q + p - 1.0)


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


_OUTCOME_PEAK = 360
"""Peak bytes of the ``qae`` verb per outcome of its sweep, counts and report
included: tracemalloc 326-327 at 12-18 bits with 2^63 - 1 shots, every
outcome drawn; :func:`_ancilla_distribution` alone peaks at 88."""


def _draw_counts(probs: np.ndarray, shots: int, seed) -> dict[int, int]:
    """Seeded multinomial draw of ``shots`` >= 1 outcomes from ``probs``, clipped
    at 0 and normalised; keys are the outcome indices drawn at least once."""
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    rng = np.random.default_rng(seed_tuple(seed))
    drawn = rng.multinomial(shots, probs)
    outcomes = np.flatnonzero(drawn)
    return dict(zip(outcomes.tolist(), drawn[outcomes].tolist()))


def _qae_sweep(model: NetworkModel, horizon: int, spec: GroverSpec, pairs,
               shots: int) -> list[QaeResult]:
    """Standard QAE at each of the (bits, seed) ``pairs``, from one model run.

    Every pair's bit count and seed, and the shot count, which numpy draws
    as an int64, are checked before the model runs; then the bytes of every
    pair's 2^bits outcomes, at ``_OUTCOME_PEAK`` each, against the budget.
    The model run is budgeted by :func:`_plane`; no ancilla is simulated.
    """
    for bits, seed in pairs:
        check_int(bits, "bits", "invalid-bits", 1)
        seed_tuple(seed)
        # the shots are checked with each pair, so a sweep's first refusal
        # is the one a call per bit count would meet first
        shots = check_int(shots, "shots", "invalid-shots", 1)
        if shots >= 1 << 63:
            raise ResourceLimitError("the shot count exceeds the 2^63 - 1 that an int64 draw "
                                     "count holds")
    if any(bits > 62 for bits, _ in pairs):  # not 1 << bits for a huge bit count
        raise ResourceLimitError("a sweep past 62 bits draws 2^63 outcomes or more")
    outcomes = sum(1 << bits for bits, _ in pairs)
    check_dense_bytes(_OUTCOME_PEAK * outcomes, f"a sweep over {outcomes} outcomes")
    p, residual = _plane(model, horizon, spec)
    angle = _half_angle(p)
    results = []
    for bits, seed in pairs:
        counts = _draw_counts(_ancilla_distribution(angle, bits), shots, seed)
        modal = min(counts, key=lambda y: (-counts[y], y))
        theta, probability = decode_outcome(modal, bits)
        results.append(QaeResult(bits, counts, modal, theta, probability, residual))
    return results


def run_standard_qae(model: NetworkModel, horizon: int, spec: GroverSpec, bits: int,
                     shots: int, seed) -> QaeResult:
    """Sample the phase-estimation ancillas and decode the most frequent outcome.

    The ancilla distribution is the closed form on the Grover plane: only
    the k*horizon model qubits are simulated, once, and a model of 25 qubits
    or more is refused. The 2^bits outcomes are budgeted at
    ``_OUTCOME_PEAK`` bytes each, so ``bits`` past 21 is refused; that, and a
    shot count past an int64, before the model runs."""
    return _qae_sweep(model, horizon, spec, [(bits, seed)], shots)[0]


def grover_eigenphase(model: NetworkModel, horizon: int, spec: GroverSpec) -> EigenphaseResult:
    """Read the rotation angle of the Grover operator from its invariant plane.

    The state after the model circuit splits into marked and unmarked
    components; the Grover operator rotates that plane by
    theta = 2 asin(sqrt(p)), p the marked mass of the final register's
    marginal. Exact (no sampling), and cheaper than a dense
    eigendecomposition. The residual reports how far that marginal's total
    is from 1; it should be at numerical noise level.
    """
    p, residual = _plane(model, horizon, spec)
    if p < 1e-12 or p > 1.0 - 1e-12:
        raise DegenerateSubspaceError(
            f"marked probability {p!r} leaves no two-dimensional rotation plane")
    theta = 2.0 * _half_angle(p)
    lam = cmath.exp(1j * theta)
    return EigenphaseResult(theta, lam, lam.conjugate(), math.sin(theta / 2.0) ** 2, residual)
