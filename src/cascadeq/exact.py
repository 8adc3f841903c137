"""Exact configuration probabilities from the one-step transition matrix.

``T[b, c]`` is the probability of configuration c one step after
configuration b: the paper's pair table of (previous-config,
current-config) mass, held as a dense (2^k, 2^k) array and folded one node
at a time. Each row keeps the previous configuration, which the per-node
rule :func:`cascadeq.model.p_on` reads; the column index accumulates the new
states. A step multiplies the distribution by ``T``.

Cost: the fold fills one table in place and peaks at about 1.03 * 8 * 4^k
bytes (the table and the per-node ``p_on`` rows), and each step is one 2^k
by 2^k vector-matrix product. A step's table is built from ``tolist`` of
its nonzero entries, and ``by_string`` labels it from one tuple of labels
per k, so neither formats or converts entry by entry (k = 10, T = 5:
about 2 ms of products and 5 ms of fold).
A model whose fold, with ``_TABLE_ENTRY_PEAK`` bytes for each of the
2^k + 4 entries of every step's table, would pass ``DENSE_BYTE_BUDGET``
(k >= 14, or a horizon past about 2^30 / (160 * (2^k + 4))) raises
``ResourceLimitError`` before anything is allocated.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError, check_dense_bytes
from .model import _MAX_NODES, NetworkModel, check_int, index_tuple, p_on

__all__ = ["DistributionTable", "evaluate", "marginal"]

_FOLD_PEAK = 1.05
"""Peak bytes of ``_step_matrix`` as a multiple of the 8 * 4^k of its result
(tracemalloc: 1.034 at k=10, 1.012 at k=11)."""

_TABLE_ENTRY_PEAK = 160
"""Peak bytes of the ``exact`` verb per entry of its step tables, the report
included, where a step's table object, report entry and their dicts count
as four entries more. Tracemalloc, at 2^k + 4 entries a step: 121-137 at
k = 1-6 and 137-143 at k = 8-10, over 200 to 16,000 steps; per 2^k
entries alone it would be 396 at k = 1 and 140 at k = 10."""


@dataclass(frozen=True)
class DistributionTable:
    """Probability of each configuration 0..2^k - 1 at one time step;
    configurations with probability 0 are left out."""

    k: int
    probs: dict[int, float]

    def __post_init__(self):
        k = check_int(self.k, "node count", "invalid-configuration", 1, _MAX_NODES)
        object.__setattr__(self, "k", k)
        if self.probs:
            index_tuple((min(self.probs), max(self.probs)), "configuration keys",
                        "invalid-configuration", 0, (1 << k) - 1)

    def probability(self, config: int) -> float:
        return self.probs.get(config, 0.0)

    def by_string(self) -> dict[str, float]:
        """Probabilities keyed by most-significant-node-first strings."""
        label = _labeler(self.k, len(self.probs))
        return {label(c): p for c, p in sorted(self.probs.items())}

    def total(self) -> float:
        return sum(self.probs.values())


@functools.lru_cache(maxsize=1)
def _labels(k: int) -> tuple[str, ...]:
    """``format_config(c, k)`` for every configuration c of k >= 1 nodes."""
    return tuple(format(c, f"0{k}b") for c in range(1 << k))


_LABEL_TABLE_MAX = 1 << 16
"""Most labels ``_labels`` holds: 2^16 labels of 16 characters take about 5 MB."""


def _labeler(k: int, count: int):
    """``format_config(c, k)`` as a function of c in 0..2^k - 1, for labelling
    up to ``count`` configurations: a lookup in ``_labels(k)`` when its 2^k
    labels are no more than ``count`` (so it never formats more labels than
    the caller needs) and ``_LABEL_TABLE_MAX``, and a format of c otherwise."""
    if 1 << k <= min(count, _LABEL_TABLE_MAX):
        return _labels(k).__getitem__
    return f"{{:0{k}b}}".format


def _step_matrix(model: NetworkModel) -> np.ndarray:
    """``T[b, c]``, folded in place from one column of ones: node n splits the
    first 2^n columns into a node-n-good half weighted 1 - p_on, kept in
    place, and a node-n-failed half weighted p_on, written beside it, so the
    column index holds the new states of nodes 1..n."""
    size = 1 << model.k
    on = p_on(model, np.arange(size))
    table = np.empty((size, size))
    table[:, 0] = 1.0
    for n in range(model.k):
        width = 1 << n
        np.multiply(table[:, :width], on[:, n, None], out=table[:, width:2 * width])
        table[:, :width] *= 1.0 - on[:, n, None]
    return table


def evaluate(model: NetworkModel, horizon: int) -> list[DistributionTable]:
    """Distributions for t = 0..horizon; t=0 is all-good with probability 1."""
    horizon = check_int(horizon, "horizon", "invalid-horizon", 0)
    size = 1 << model.k
    check_dense_bytes(int(_FOLD_PEAK * 8 * size * size)
                      + _TABLE_ENTRY_PEAK * (size + 4) * (horizon + 1),
                      f"the {model.k}-node step matrix with its tables")
    matrix = _step_matrix(model)
    dist = np.zeros(1 << model.k)
    dist[0] = 1.0
    dists = [DistributionTable(model.k, {0: 1.0})]
    for _ in range(horizon):
        dist = dist @ matrix
        nonzero = np.flatnonzero(dist)
        dists.append(DistributionTable(model.k, dict(zip(nonzero.tolist(),
                                                         dist[nonzero].tolist()))))
    return dists


def marginal(table: DistributionTable, nodes: Sequence[int], states: Sequence[int]) -> float:
    """Probability that each node in ``nodes`` (1-based) is in its given state."""
    nodes = index_tuple(nodes, "nodes", "invalid-node-index", 1, table.k)
    if not nodes or len(set(nodes)) != len(nodes):
        raise ValidationError("marginal needs distinct nodes, at least one",
                              code="invalid-node-index")
    if len(states) != len(nodes) or any(s not in (0, 1) for s in states):
        raise ValidationError("one state bit, 0 or 1, per node required",
                              code="invalid-configuration")
    total = 0.0
    for c, p in table.probs.items():
        if all((c >> (n - 1)) & 1 == s for n, s in zip(nodes, states)):
            total += p
    return total
