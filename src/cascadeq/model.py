"""Network model definition and serialization.

A network has ``k`` nodes labelled 1..k. Each node is either good (0) or
failed (1). Per time step, a failed node recovers with probability
``p_recover[n]``; a good node fails intrinsically with ``p_fail[n]`` and is
additionally triggered with probability ``p_trigger[m][n]`` by every node
``m`` that was failed in the previous step.

Configurations are encoded as integers with node 1 in the least-significant
bit. Strings are printed most-significant node first, so ``"10"`` means
node 2 failed and node 1 good.
"""
from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import ParseError, ValidationError

__all__ = [
    "NetworkModel",
    "p_on",
    "load_model",
    "save_model",
    "format_config",
    "parse_config",
]


@dataclass(frozen=True)
class NetworkModel:
    """Immutable parameter set of a probabilistic failure network, valid once it exists.

    ``p_trigger[m][n]`` (0-based tuples) is the probability that node m+1,
    failed in the previous step, triggers node n+1. ``names`` are the node
    labels of the file format, "1".."k" by default. Construction stores each
    probability as a float, or raises ValidationError: ``empty-model``,
    ``shape-mismatch``, ``duplicate-node-name``, ``probability-out-of-range``
    (also for a value that is not a number) or ``nonzero-self-trigger``.
    """

    p_fail: tuple[float, ...]
    p_recover: tuple[float, ...]
    p_trigger: tuple[tuple[float, ...], ...]
    names: tuple[str, ...] = field(default=())

    def __post_init__(self):
        try:
            p_fail, p_recover = list(self.p_fail), list(self.p_recover)
            rows = list(map(tuple, self.p_trigger))
            names = tuple(map(str, self.names or range(1, len(p_fail) + 1)))
        except TypeError:
            raise ValidationError("each field must be a sequence", code="shape-mismatch") from None
        k = len(p_fail)
        if k < 1:
            raise ValidationError("model must have at least one node", code="empty-model")
        if len(p_recover) != k or len(names) != k:
            raise ValidationError("p_recover and names must have one entry per node",
                                  code="shape-mismatch")
        if len(rows) != k or any(len(row) != k for row in rows):
            raise ValidationError(f"p_trigger must be a {k}x{k} matrix", code="shape-mismatch")
        if len(set(names)) != k:
            raise ValidationError("node names must be unique", code="duplicate-node-name")
        for i in range(k):
            p_fail[i] = _probability(p_fail[i], "p_fail", i)
            p_recover[i] = _probability(p_recover[i], "p_recover", i)
        for m, row in enumerate(rows):
            rows[m] = tuple(_probability(p, "p_trigger", m, n) for n, p in enumerate(row))
            if rows[m][m] != 0.0:
                raise ValidationError(f"p_trigger[{m + 1}][{m + 1}] must be 0: a node cannot "
                                      "trigger itself", code="nonzero-self-trigger")
        for name, value in (("p_fail", p_fail), ("p_recover", p_recover), ("p_trigger", rows),
                            ("names", names)):
            object.__setattr__(self, name, tuple(value))

    @property
    def k(self) -> int:
        return len(self.p_fail)

    @classmethod
    def from_triggers(
        cls,
        p_fail: Sequence[float],
        p_recover: Sequence[float],
        triggers: Mapping[tuple[int, int], float] | None = None,
        names: Sequence[str] | None = None,
    ) -> "NetworkModel":
        """Build a model from a sparse {(from_node, to_node): p} trigger map (1-based)."""
        k = len(p_fail)
        matrix = [[0.0] * k for _ in range(k)]
        for (m, n), p in (triggers or {}).items():
            if not (1 <= m <= k and 1 <= n <= k):
                raise ValidationError(
                    f"trigger ({m},{n}) references a node outside 1..{k}",
                    code="invalid-node-index",
                )
            matrix[m - 1][n - 1] = p
        return cls(p_fail, p_recover, matrix, names or ())


def _probability(value, name: str, *index: int) -> float:
    """``value`` as a float, or ValidationError (``probability-out-of-range``)
    if it is not a number in [0, 1]; ``index`` (0-based) names the entry."""
    try:
        p = float(value)
    except (TypeError, ValueError):
        p = math.nan
    if not 0.0 <= p <= 1.0:
        where = "".join(f"[{i + 1}]" for i in index)
        raise ValidationError(f"{name}{where} = {value!r} is not a probability in [0, 1]",
                              code="probability-out-of-range")
    return p


def p_on(model: NetworkModel, configs: np.ndarray) -> np.ndarray:
    """Probability that each node is failed after one step.

    ``configs`` is an integer array of the configurations before the step
    (node 1 in the least-significant bit); the result has one more axis, of
    length k. A failed node stays failed with 1 - p_recover; a good node
    stays good with (1 - p_fail) * prod(1 - p_trigger[m][n]) over the failed
    nodes m, multiplied in node order.
    """
    failed = (np.asarray(configs, dtype=np.int64)[..., None] >> np.arange(model.k)) & 1 == 1
    return _p_on_failed(model, failed)


def _p_on_failed(model: NetworkModel, failed: np.ndarray, nodes=slice(None)) -> np.ndarray:
    """:func:`p_on` for ``nodes`` alone, of configurations given unpacked as
    ``failed``, True at each failed node: k may pass the 63 bits of an int64.
    Only the trigger rows of nodes failed in some configuration are read."""
    p_off = np.broadcast_to(1.0 - np.asarray(model.p_fail)[nodes],
                            failed[..., nodes].shape).copy()
    for m in np.flatnonzero(failed.reshape(-1, model.k).any(axis=0)):
        np.multiply(p_off, 1.0 - np.asarray(model.p_trigger[m])[nodes], out=p_off,
                    where=failed[..., m, None])
    return np.where(failed[..., nodes], 1.0 - np.asarray(model.p_recover)[nodes], 1.0 - p_off)


def seed_tuple(seed) -> tuple[int, ...]:
    """An integer or tuple-of-integers seed as a tuple of ints. Any other seed
    and a negative entry raise ValidationError (``invalid-seed``) here, where
    numpy's seeding would raise a bare TypeError or ValueError."""
    try:
        seeds = tuple(map(operator.index, seed if isinstance(seed, tuple) else (seed,)))
    except TypeError:
        raise ValidationError(f"seed {seed!r} is not an integer or a tuple of integers",
                              code="invalid-seed") from None
    if any(s < 0 for s in seeds):
        raise ValidationError(f"seed {seed!r} has a negative entry; seeds must be >= 0",
                              code="invalid-seed")
    return seeds


# --- configuration encoding -------------------------------------------------

def format_config(value: int, k: int) -> str:
    """Render a configuration most-significant node first ("10" = node 2 failed)."""
    return format((value & ((1 << k) - 1)) | (1 << k), "b")[1:]


def parse_config(text: str) -> int:
    """Parse a most-significant-node-first configuration string."""
    if not text or any(ch not in "01" for ch in text):
        raise ParseError(f"configuration string {text!r} must be nonempty over {{0,1}}")
    return int(text, 2)


# --- file format --------------------------------------------------------------
#
# {
#   "nodes":    [{"name": str, "p_fail": num, "p_recover": num}, ...],
#   "triggers": [{"from": name, "to": name, "p": num}, ...]     (optional)
# }
# Unknown fields are rejected. Triggers absent from the file are 0.

def _require_keys(obj: dict, allowed: set[str], required: set[str], what: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ParseError(f"{what} has unknown field(s) {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ParseError(f"{what} is missing field(s) {sorted(missing)}")


def _require_number(value, what: str):
    # NetworkModel's float() would take "0.2" and true as 0.2 and 1.0
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{what} must be a number, not {value!r}")
    return value


def load_model(text: str) -> NetworkModel:
    """Parse and validate a model file; see the module docstring for the format."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"model file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("model file must contain a JSON object")
    _require_keys(doc, {"nodes", "triggers"}, {"nodes"}, "model file")
    nodes = doc["nodes"]
    if not isinstance(nodes, list) or not nodes:
        raise ParseError("'nodes' must be a nonempty list")
    names, p_fail, p_recover = [], [], []
    for i, node in enumerate(nodes):
        if not isinstance(node, dict):
            raise ParseError(f"node entry {i} must be an object")
        _require_keys(node, {"name", "p_fail", "p_recover"},
                      {"name", "p_fail", "p_recover"}, f"node entry {i}")
        if not isinstance(node["name"], str):
            raise ParseError(f"node entry {i}: 'name' must be a string")
        names.append(node["name"])
        p_fail.append(_require_number(node["p_fail"], f"node entry {i}: 'p_fail'"))
        p_recover.append(_require_number(node["p_recover"], f"node entry {i}: 'p_recover'"))
    if len(set(names)) != len(names):
        raise ParseError("node names must be unique")
    index = {name: i for i, name in enumerate(names)}
    k = len(names)
    matrix = [[0.0] * k for _ in range(k)]
    seen: set[tuple[int, int]] = set()
    triggers = doc.get("triggers", [])
    if not isinstance(triggers, list):
        raise ParseError("'triggers' must be a list")
    for i, trig in enumerate(triggers):
        if not isinstance(trig, dict):
            raise ParseError(f"trigger entry {i} must be an object")
        _require_keys(trig, {"from", "to", "p"}, {"from", "to", "p"}, f"trigger entry {i}")
        for key in ("from", "to"):
            if not isinstance(trig[key], str):
                raise ParseError(f"trigger entry {i}: '{key}' must be a string")
            if trig[key] not in index:
                raise ParseError(f"trigger entry {i}: unknown node name {trig[key]!r}")
        m, n = index[trig["from"]], index[trig["to"]]
        if (m, n) in seen:
            raise ParseError(f"trigger entry {i}: duplicate edge {trig['from']!r}->{trig['to']!r}")
        seen.add((m, n))
        matrix[m][n] = _require_number(trig["p"], f"trigger entry {i}: 'p'")
    return NetworkModel(p_fail, p_recover, matrix, names)


def save_model(model: NetworkModel) -> str:
    """Serialize a model; only nonzero triggers are written."""
    doc = {
        "nodes": [
            {"name": model.names[i], "p_fail": model.p_fail[i], "p_recover": model.p_recover[i]}
            for i in range(model.k)
        ],
        "triggers": [
            {"from": model.names[m], "to": model.names[n], "p": model.p_trigger[m][n]}
            for m in range(model.k)
            for n in range(model.k)
            if model.p_trigger[m][n] != 0.0
        ],
    }
    return json.dumps(doc, indent=2) + "\n"
