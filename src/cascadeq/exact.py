"""Exact configuration probabilities from the one-step transition matrix.

``T[b, c]`` is the probability of configuration c one step after
configuration b: the paper's pair table of (previous-config,
current-config) mass, held as a dense (2^k, 2^k) array and folded one node
at a time. Each row keeps the previous configuration, which the per-node
rule :func:`cascadeq.model.p_on` reads; the column index accumulates the new
states. A step multiplies the distribution by ``T``.

Cost: the fold peaks at about 1.5 * 8 * 4^k bytes (the last node's input
and output tables), and each step is one 2^k by 2^k vector-matrix product.
A model whose fold would pass ``DENSE_BYTE_BUDGET`` (k >= 14) raises
``ResourceLimitError`` before anything is allocated.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError, check_dense_bytes
from .model import NetworkModel, format_config, p_on, validate

__all__ = ["DistributionTable", "evaluate", "marginal"]

_FOLD_PEAK = 1.53
"""Peak bytes of ``_step_matrix`` as a multiple of the 8 * 4^k of its result
(tracemalloc: 1.53 at k=10, 1.51 at k=11)."""


@dataclass(frozen=True)
class DistributionTable:
    """Probability of each configuration at one time step; configurations
    with probability 0 are left out."""

    k: int
    probs: dict[int, float]

    def probability(self, config: int) -> float:
        return self.probs.get(config, 0.0)

    def by_string(self) -> dict[str, float]:
        """Probabilities keyed by most-significant-node-first strings."""
        return {format_config(c, self.k): p for c, p in sorted(self.probs.items())}

    def total(self) -> float:
        return sum(self.probs.values())


def _step_matrix(model: NetworkModel) -> np.ndarray:
    """``T[b, c]``, folded from one column of ones: node n splits every column
    into a node-n-good half weighted 1 - p_on and a node-n-failed half
    weighted p_on, so the column index holds the new states of nodes 1..n."""
    size = 1 << model.k
    on = p_on(model, np.arange(size))
    table = np.ones((size, 1))
    for n in range(model.k):
        width = table.shape[1]
        folded = np.empty((size, 2 * width))
        np.multiply(table, 1.0 - on[:, n, None], out=folded[:, :width])
        np.multiply(table, on[:, n, None], out=folded[:, width:])
        table = folded
    return table


def evaluate(model: NetworkModel, horizon: int) -> list[DistributionTable]:
    """Distributions for t = 0..horizon; t=0 is all-good with probability 1."""
    validate(model)
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
        dists.append(DistributionTable(model.k, {int(c): float(dist[c])
                                                 for c in np.flatnonzero(dist)}))
    return dists


def marginal(table: DistributionTable, nodes: Sequence[int], states: Sequence[int]) -> float:
    """Probability that each node in ``nodes`` (1-based) is in its given state."""
    if not nodes:
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
