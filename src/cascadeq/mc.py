"""Monte Carlo estimation of configuration probabilities.

Each trajectory is held as its configuration integer (node 1 in the
least-significant bit). Each step evaluates :func:`cascadeq.model.p_on` once
per distinct configuration present in the chunk, at most 2^k of them however
many trajectories there are, then draws one uniform per node per trajectory
and fails the node when the draw is below its probability. Configurations
are int64, so models with more than 63 nodes raise ``ResourceLimitError``.

Trajectories are simulated in fixed-size chunks; chunk ``i`` draws from
``numpy.random.default_rng((seed, i))``, so results are reproducible and
independent of how chunks would be distributed over workers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError, ValidationError
from .model import NetworkModel, p_on, seed_tuple, validate

__all__ = ["McResult", "evaluate_mc", "CHUNK_SIZE"]

CHUNK_SIZE = 1 << 16
_MAX_NODES = 63


@dataclass(frozen=True)
class McResult:
    """Configuration counts over ``runs`` sampled trajectories."""

    k: int
    counts: dict[int, int]
    runs: int

    @property
    def estimates(self) -> dict[int, float]:
        return {c: n / self.runs for c, n in self.counts.items()}


def _sample_chunk(model: NetworkModel, horizon: int, count: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Final configurations of ``count`` trajectories as integers."""
    weights = 1 << np.arange(model.k, dtype=np.int64)
    configs = np.zeros(count, dtype=np.int64)
    for _ in range(horizon):
        seen, row = np.unique(configs, return_inverse=True)
        configs = (rng.random((count, model.k)) < p_on(model, seen)[row]) @ weights
    return configs


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
    if model.k > _MAX_NODES:
        raise ResourceLimitError(
            f"{model.k} nodes exceed the {_MAX_NODES} that an int64 configuration holds")
    seeds = seed_tuple(seed)
    counts: dict[int, int] = {}
    done = 0
    chunk_index = 0
    while done < runs:
        size = min(CHUNK_SIZE, runs - done)
        rng = np.random.default_rng((*seeds, chunk_index))
        configs = _sample_chunk(model, horizon, size, rng)
        values, chunk_counts = np.unique(configs, return_counts=True)
        for v, n in zip(values, chunk_counts):
            counts[int(v)] = counts.get(int(v), 0) + int(n)
        done += size
        chunk_index += 1
    return McResult(model.k, counts, runs)
