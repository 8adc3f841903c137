"""Independent oracles used across the test suite.

Nothing here may call into the package's propagation, simulation, or
fitting paths; expected values must come from first-principles enumeration
or closed-form expressions.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from cascadeq import NetworkModel


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
