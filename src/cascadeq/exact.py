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
A model whose fold would pass ``DENSE_BYTE_BUDGET`` (k >= 14) raises
``ResourceLimitError`` before anything is allocated.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError, check_dense_bytes
from .model import NetworkModel, format_config, p_on

__all__ = ["DistributionTable", "evaluate", "marginal"]

_FOLD_PEAK = 1.05
"""Peak bytes of ``_step_matrix`` as a multiple of the 8 * 4^k of its result
(tracemalloc: 1.034 at k=10, 1.012 at k=11)."""


@dataclass(frozen=True)
class DistributionTable:
    """Probability of each configuration 0..2^k - 1 at one time step;
    configurations with probability 0 are left out."""

    k: int
    probs: dict[int, float]

    def __post_init__(self):
        if self.probs and (min(self.probs) < 0 or max(self.probs) >= 1 << self.k):
            raise ValidationError(f"a configuration key lies outside 0..{(1 << self.k) - 1}",
                                  code="invalid-configuration")

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
    """``format_config(c, k)`` as a function of c, for labelling up to
    ``count`` configurations: a lookup in ``_labels(k)`` when its 2^k labels
    are no more than ``count`` (so it never formats more labels than the
    caller needs) and ``_LABEL_TABLE_MAX``, and ``format_config`` otherwise."""
    if 1 << k <= min(count, _LABEL_TABLE_MAX):
        return _labels(k).__getitem__
    return functools.partial(format_config, k=k)


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
    if horizon < 0:
        raise ValidationError("horizon must be >= 0", code="invalid-horizon")
    check_dense_bytes(int(_FOLD_PEAK * 8 * 4 ** model.k),
                      f"the {model.k}-node step matrix")
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
    if len(nodes) == 0:
        raise ValidationError("marginal needs at least one node", code="invalid-node-index")
    if len(set(nodes)) != len(nodes):
        raise ValidationError("marginal nodes must be distinct", code="invalid-node-index")
    if len(states) != len(nodes):
        raise ValidationError("one state bit per node required", code="invalid-configuration")
    for n in nodes:
        if not (1 <= n <= table.k):
            raise ValidationError(f"node {n} outside 1..{table.k}", code="invalid-node-index")
    for s in states:
        if s not in (0, 1):
            raise ValidationError(f"state {s!r} is not 0 or 1", code="invalid-configuration")
    total = 0.0
    for c, p in table.probs.items():
        if all((c >> (n - 1)) & 1 == s for n, s in zip(nodes, states)):
            total += p
    return total
