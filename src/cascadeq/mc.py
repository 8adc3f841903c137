"""Monte Carlo estimation of configuration probabilities.

Trajectories are simulated in fixed-size chunks; chunk ``i`` draws from
``numpy.random.default_rng((seed, i))``, so results are reproducible and
independent of how chunks would be distributed over workers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import NetworkModel, seed_tuple, validate

__all__ = ["McResult", "sample_trajectory", "evaluate_mc", "CHUNK_SIZE"]

CHUNK_SIZE = 1 << 16


@dataclass(frozen=True)
class McResult:
    """Configuration counts over ``runs`` sampled trajectories."""

    k: int
    counts: dict[int, int]
    runs: int

    @property
    def estimates(self) -> dict[int, float]:
        return {c: n / self.runs for c, n in self.counts.items()}


def _as_arrays(model: NetworkModel):
    return (
        np.asarray(model.p_fail),
        np.asarray(model.p_recover),
        np.asarray(model.p_trigger),
    )


def _sample_chunk(p_fail, p_rec, p_trig, horizon: int, count: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Final configurations of ``count`` trajectories as integers."""
    k = len(p_fail)
    failed = np.zeros((count, k), dtype=bool)
    for _ in range(horizon):
        u_node = rng.random((count, k))
        u_trig = rng.random((count, k, k))
        # triggered[i, n]: some node m failed in the previous step fires its edge to n
        triggered = (failed[:, :, None] & (u_trig < p_trig[None, :, :])).any(axis=1)
        failed = np.where(failed, u_node >= p_rec, (u_node < p_fail) | triggered)
    weights = 1 << np.arange(k, dtype=np.int64)
    return failed @ weights


def sample_trajectory(model: NetworkModel, horizon: int, rng: np.random.Generator) -> int:
    """Configuration reached after ``horizon`` steps from the all-good state."""
    validate(model)
    if horizon < 0:
        raise ValidationError("horizon must be >= 0", code="invalid-horizon")
    p_fail, p_rec, p_trig = _as_arrays(model)
    return int(_sample_chunk(p_fail, p_rec, p_trig, horizon, 1, rng)[0])


def evaluate_mc(model: NetworkModel, horizon: int, runs: int, seed) -> McResult:
    """Estimate the step-``horizon`` distribution from ``runs`` trajectories.

    ``seed`` may be an int or a tuple of ints; results are deterministic for
    a given (seed, runs) regardless of worker count because each fixed-size
    chunk owns an independent seeded stream.
    """
    validate(model)
    if runs < 1:
        raise ValidationError("runs must be >= 1", code="invalid-runs")
    if horizon < 0:
        raise ValidationError("horizon must be >= 0", code="invalid-horizon")
    seeds = seed_tuple(seed)
    p_fail, p_rec, p_trig = _as_arrays(model)
    counts: dict[int, int] = {}
    done = 0
    chunk_index = 0
    while done < runs:
        size = min(CHUNK_SIZE, runs - done)
        rng = np.random.default_rng((*seeds, chunk_index))
        configs = _sample_chunk(p_fail, p_rec, p_trig, horizon, size, rng)
        values, chunk_counts = np.unique(configs, return_counts=True)
        for v, n in zip(values, chunk_counts):
            counts[int(v)] = counts.get(int(v), 0) + int(n)
        done += size
        chunk_index += 1
    return McResult(model.k, counts, runs)
