"""Independent reference values for the benchmark's output checks.

Nothing here imports cascadeq. Models are plain parameter lists
(``p_fail``, ``p_recover``, ``p_trigger[m][n]`` for node m triggering node
n, 0-based), with the configuration convention of the model file format:
node 1 is the least-significant bit.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

# Paper values for the one-node fixture traces (criteria 8/9): what the
# damped-oscillation fit of each count table should recover.
PUBLISHED_NOISY = {1: 0.300, 2: 0.459, 3: 0.596, 4: 0.703}
PUBLISHED_DEVICE = {1: 0.300, 2: 0.487, 3: 0.581, 4: 0.664}
PUBLISHED_TOLERANCE = 0.02


def _p_on(p_fail, p_recover, p_trigger) -> np.ndarray:
    """p_on[prev, n]: probability that node n is failed after one step from ``prev``."""
    k = len(p_fail)
    bits = (np.arange(1 << k)[:, None] >> np.arange(k)[None, :]) & 1
    survive = 1.0 - np.asarray(p_trigger, dtype=float)  # (m, n)
    # factors[prev, n]: product over nodes m failed in prev of (1 - p_trigger[m][n])
    factors = np.where(bits[:, :, None] == 1, survive[None, :, :], 1.0).prod(axis=1)
    p_off_good = (1.0 - np.asarray(p_fail, dtype=float))[None, :] * factors
    stay_failed = (1.0 - np.asarray(p_recover, dtype=float))[None, :]
    return np.where(bits == 1, stay_failed, 1.0 - p_off_good)


def transition_matrix(p_fail, p_recover, p_trigger) -> np.ndarray:
    """Dense one-step matrix ``M[prev, cur]`` built from the model rules."""
    k = len(p_fail)
    p_on = _p_on(p_fail, p_recover, p_trigger)
    cur_bits = (np.arange(1 << k)[:, None] >> np.arange(k)[None, :]) & 1
    matrix = np.ones((1 << k, 1 << k))
    for n in range(k):
        on = p_on[:, n][:, None]
        matrix *= np.where(cur_bits[:, n][None, :] == 1, on, 1.0 - on)
    return matrix


def distributions(p_fail, p_recover, p_trigger, horizon: int) -> np.ndarray:
    """Row t is the configuration distribution at step t, t = 0..horizon."""
    matrix = transition_matrix(p_fail, p_recover, p_trigger)
    out = np.zeros((horizon + 1, matrix.shape[0]))
    out[0, 0] = 1.0
    for t in range(horizon):
        out[t + 1] = out[t] @ matrix
    return out


def _step_probability(p_fail, p_recover, p_trigger, prev: int, cur: int) -> float:
    p = 1.0
    for n in range(len(p_fail)):
        if (prev >> n) & 1:
            p *= (1.0 - p_recover[n]) if (cur >> n) & 1 else p_recover[n]
        else:
            p_off = 1.0 - p_fail[n]
            for m in range(len(p_fail)):
                if (prev >> m) & 1:
                    p_off *= 1.0 - p_trigger[m][n]
            p *= (1.0 - p_off) if (cur >> n) & 1 else p_off
    return p


def enumerate_final(p_fail, p_recover, p_trigger, horizon: int) -> np.ndarray:
    """Step-``horizon`` distribution by summing every state trajectory."""
    dist = np.zeros(1 << len(p_fail))
    if horizon == 0:
        dist[0] = 1.0
        return dist
    for path in itertools.product(range(len(dist)), repeat=horizon):
        weight, prev = 1.0, 0
        for cur in path:
            weight *= _step_probability(p_fail, p_recover, p_trigger, prev, cur)
            prev = cur
        dist[path[-1]] += weight
    return dist


def self_check(seed: int, models: int = 20) -> None:
    """Dense propagation must equal trajectory enumeration (k <= 3, T <= 3)."""
    rng = np.random.default_rng(seed)
    for _ in range(models):
        k = int(rng.integers(1, 4))
        horizon = int(rng.integers(1, 4))
        trig = rng.uniform(0.0, 1.0, (k, k)) * (rng.random((k, k)) < 0.6)
        np.fill_diagonal(trig, 0.0)
        params = (rng.uniform(0.0, 1.0, k).tolist(), rng.uniform(0.0, 1.0, k).tolist(),
                  trig.tolist())
        dense = distributions(*params, horizon)[horizon]
        brute = enumerate_final(*params, horizon)
        if np.max(np.abs(dense - brute)) > 1e-12:
            raise RuntimeError("reference self-check failed: dense propagation "
                               "disagrees with trajectory enumeration")


def marked_probability(dist: np.ndarray, marked: dict[int, int]) -> float:
    """Mass of configurations with node n (1-based) in state ``marked[n]``."""
    configs = np.arange(len(dist))
    mask = np.ones(len(dist), dtype=bool)
    for node, bit in marked.items():
        mask &= ((configs >> (node - 1)) & 1) == bit
    return float(dist[mask].sum())


def qpe_distribution(theta: float, bits: int) -> np.ndarray:
    """Closed-form phase-estimation outcome distribution at rotation angle theta.

    The prepared state has equal weight on the e^{+i theta} and e^{-i theta}
    eigenvectors, so the distribution is the mean of two Fejer kernels.
    """
    size = 1 << bits
    probs = np.zeros(size)
    for sign in (1.0, -1.0):
        delta = (sign * theta / (2.0 * math.pi) - np.arange(size) / size) % 1.0
        den = np.sin(math.pi * delta)
        with np.errstate(divide="ignore", invalid="ignore"):
            kernel = (np.sin(math.pi * size * delta) / (size * den)) ** 2
        probs += 0.5 * np.where(np.abs(den) < 1e-15, 1.0, kernel)
    return probs


def decode_probability(outcome: int, bits: int) -> float:
    """Probability that outcome y decodes to: sin^2(pi * y / 2^bits)."""
    return math.sin(math.pi * outcome / (1 << bits)) ** 2


def count_bound(shots: int, q: float, delta: float = 1e-9) -> float:
    """Bernstein deviation bound for a Binomial(shots, q) count at level ``delta``."""
    log_term = math.log(2.0 / delta)
    var = shots * q * (1.0 - q)
    return log_term / 3.0 + math.sqrt((log_term / 3.0) ** 2 + 2.0 * var * log_term)
