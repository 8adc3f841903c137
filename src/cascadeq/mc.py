"""Monte Carlo estimation of configuration probabilities.

Each trajectory is held as its configuration integer (node 1 in the
least-significant bit). Each step looks up every trajectory's per-node
probabilities of being failed, then draws one uniform per node per trajectory
and fails the node when the draw is below its probability.

The lookup has two forms, chosen from ``k`` and ``runs`` alone:

* When ``2^k <= min(runs, CHUNK_SIZE)``, :func:`cascadeq.model.p_on` is
  evaluated once per run on every configuration, the table
  ``exact._step_matrix`` folds, and each step reads the rows of its
  trajectories' configurations. Its 2^k rows are no more than one chunk's
  trajectories, so building it costs no more ``p_on`` work than one step of
  the fallback can on a full chunk.
* Otherwise each step of each chunk evaluates ``p_on`` once per distinct
  configuration present (``np.unique``), at most 2^k of them however many
  trajectories there are. This is the only form that runs at 17-63 nodes.

``p_on`` computes each configuration's row on its own with the same
operations, so both forms give bit-identical probabilities, draws and counts.
``McResult.p_on_rows`` counts the configuration rows ``p_on`` evaluated.
Configurations are int64, so models with more than 63 nodes raise
``ResourceLimitError``, and so does a run count whose chunks, at
``_CHUNK_PEAK`` bytes each, would pass ``DENSE_BYTE_BUDGET`` (from about
2^35 runs), before any chunk is submitted.

Trajectories are simulated in fixed-size chunks; chunk ``i`` draws from
``numpy.random.default_rng((seed, i))``. The chunks run on a thread pool
with one worker per CPU of the process's affinity mask (at most one per
chunk), made and shut down within the call; numpy releases the GIL in the
draws, the compare, the row gather and the product, so the workers run at
once. Each chunk step goes in sub-blocks of ``_BLOCK_ROWS`` trajectories,
taken from the chunk's one stream in row order, which draws the same
numbers as one whole-chunk draw and keeps each step's arrays small. Counts
are merged in chunk order, so results are reproducible and do not depend on
the worker count.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ResourceLimitError, check_dense_bytes
from .model import _MAX_NODES, NetworkModel, check_int, p_on, seed_tuple

__all__ = ["McResult", "evaluate_mc", "CHUNK_SIZE"]

CHUNK_SIZE = 1 << 16
_BLOCK_ROWS = 1 << 13
"""Trajectories per sub-block of a chunk step."""
_CHUNK_PEAK = 2300
"""Peak bytes of :func:`evaluate_mc` per chunk, apart from its sampling:
the pool submits every chunk's future at once. Tracemalloc, with the
sampling stubbed out: 1,836-1,883 at 512-4,096 chunks and 1,950 at
32,768."""


@dataclass(frozen=True)
class McResult:
    """Configuration counts over ``runs`` sampled trajectories, the number
    of configuration rows ``p_on`` evaluated to draw them, and the worker
    threads that ran the chunks (which results never depend on, so equality
    ignores it)."""

    k: int
    counts: dict[int, int]
    runs: int
    p_on_rows: int
    workers: int = field(compare=False)

    @property
    def estimates(self) -> dict[int, float]:
        return {c: n / self.runs for c, n in self.counts.items()}

    @property
    def chunks(self) -> int:
        """The seeded chunks the runs were drawn in."""
        return -(-self.runs // CHUNK_SIZE)


def _sample_chunk(model: NetworkModel, horizon: int, count: int, rng: np.random.Generator,
                  table: np.ndarray | None) -> tuple[np.ndarray, int]:
    """Final configurations of ``count`` trajectories as integers, and the
    configuration rows ``p_on`` evaluated for them.

    ``table`` is ``p_on`` of every configuration, or None to evaluate it on
    the configurations present at each step. Each step runs in sub-blocks of
    rows in place: a sub-block reads only its own rows' configurations, and
    before it overwrites them."""
    weights = 1 << np.arange(model.k, dtype=np.int64)
    configs = np.zeros(count, dtype=np.int64)
    rows = 0
    for _ in range(horizon):
        lookup, index = table, configs
        if table is None:
            seen, index = np.unique(configs, return_inverse=True)
            lookup = p_on(model, seen)
            rows += len(seen)
        for start in range(0, count, _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            # np.take gathers rows about three times faster than lookup[index]
            probs = np.take(lookup, index[block], axis=0)
            configs[block] = (rng.random(probs.shape) < probs) @ weights
    return configs, rows


def evaluate_mc(model: NetworkModel, horizon: int, runs: int, seed) -> McResult:
    """Estimate the step-``horizon`` distribution from ``runs`` trajectories.

    ``seed`` may be an int or a tuple of ints; results are deterministic for
    a given (seed, runs) regardless of worker count because each fixed-size
    chunk owns an independent seeded stream.
    """
    runs = check_int(runs, "runs", "invalid-runs", 1)
    horizon = check_int(horizon, "horizon", "invalid-horizon", 0)
    if model.k > _MAX_NODES:
        raise ResourceLimitError(
            f"{model.k} nodes exceed the {_MAX_NODES} that an int64 configuration holds")
    seeds = seed_tuple(seed)
    chunks = -(-runs // CHUNK_SIZE)
    check_dense_bytes(_CHUNK_PEAK * chunks, "the Monte Carlo chunk list")
    table = None
    rows = 0
    if 1 << model.k <= min(runs, CHUNK_SIZE):
        table = p_on(model, np.arange(1 << model.k))
        rows = len(table)
    starts = range(0, runs, CHUNK_SIZE)

    def sample(start: int):
        rng = np.random.default_rng((*seeds, start // CHUNK_SIZE))
        configs, chunk_rows = _sample_chunk(model, horizon, min(CHUNK_SIZE, runs - start), rng,
                                            table)
        return np.unique(configs, return_counts=True), chunk_rows

    # imported here: concurrent.futures brings logging and queue along, about
    # 1 MB resident that only a Monte Carlo run needs
    from concurrent.futures import ThreadPoolExecutor

    workers = min(len(os.sched_getaffinity(0)), len(starts))
    counts: dict[int, int] = {}
    with ThreadPoolExecutor(workers) as pool:
        for (values, chunk_counts), chunk_rows in pool.map(sample, starts):
            rows += chunk_rows
            for v, n in zip(values, chunk_counts):
                counts[int(v)] = counts.get(int(v), 0) + int(n)
    return McResult(model.k, counts, runs, rows, workers)
