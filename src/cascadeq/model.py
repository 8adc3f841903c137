"""Network model definition, validation, and serialization.

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
import operator
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import ParseError, ValidationError

__all__ = [
    "NetworkModel",
    "validate",
    "p_on",
    "load_model",
    "save_model",
    "format_config",
    "parse_config",
]


@dataclass(frozen=True)
class NetworkModel:
    """Immutable parameter set of a probabilistic failure network.

    ``p_trigger[m][n]`` (0-based tuples) is the probability that node m+1,
    failed in the previous step, triggers node n+1. The diagonal must be 0.
    ``names`` are the external node labels used by the file format; they
    default to "1".."k".
    """

    p_fail: tuple[float, ...]
    p_recover: tuple[float, ...]
    p_trigger: tuple[tuple[float, ...], ...]
    names: tuple[str, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "p_fail", tuple(float(x) for x in self.p_fail))
        object.__setattr__(self, "p_recover", tuple(float(x) for x in self.p_recover))
        object.__setattr__(
            self, "p_trigger", tuple(tuple(float(x) for x in row) for row in self.p_trigger)
        )
        if not self.names:
            object.__setattr__(self, "names", tuple(str(i + 1) for i in range(len(self.p_fail))))
        else:
            object.__setattr__(self, "names", tuple(str(x) for x in self.names))

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
            matrix[m - 1][n - 1] = float(p)
        return cls(tuple(p_fail), tuple(p_recover), tuple(tuple(r) for r in matrix),
                   tuple(names) if names else ())


def _check_probability(value: float, what: str) -> None:
    if not (isinstance(value, (int, float)) and 0.0 <= value <= 1.0):
        raise ValidationError(f"{what} = {value!r} is not a probability in [0, 1]",
                              code="probability-out-of-range")


def validate(model: NetworkModel) -> None:
    """Raise ValidationError unless every model invariant holds.

    Error codes: ``empty-model``, ``probability-out-of-range``,
    ``nonzero-self-trigger``, ``shape-mismatch``.
    """
    k = model.k
    if k < 1:
        raise ValidationError("model must have at least one node", code="empty-model")
    if len(model.p_recover) != k or len(model.names) != k:
        raise ValidationError("p_recover and names must have one entry per node",
                              code="shape-mismatch")
    if len(model.p_trigger) != k or any(len(row) != k for row in model.p_trigger):
        raise ValidationError(f"p_trigger must be a {k}x{k} matrix", code="shape-mismatch")
    if len(set(model.names)) != k:
        raise ValidationError("node names must be unique", code="duplicate-node-name")
    for i in range(k):
        _check_probability(model.p_fail[i], f"p_fail[{i + 1}]")
        _check_probability(model.p_recover[i], f"p_recover[{i + 1}]")
    for m in range(k):
        for n in range(k):
            _check_probability(model.p_trigger[m][n], f"p_trigger[{m + 1}][{n + 1}]")
        if model.p_trigger[m][m] != 0.0:
            raise ValidationError(
                f"p_trigger[{m + 1}][{m + 1}] must be 0: a node cannot trigger itself",
                code="nonzero-self-trigger",
            )


def p_on(model: NetworkModel, configs: np.ndarray) -> np.ndarray:
    """Probability that each node is failed after one step.

    ``configs`` is an integer array of the configurations before the step
    (node 1 in the least-significant bit); the result has one more axis, of
    length k. A failed node stays failed with 1 - p_recover; a good node
    stays good with (1 - p_fail) * prod(1 - p_trigger[m][n]) over the failed
    nodes m, multiplied in node order.
    """
    failed = (np.asarray(configs, dtype=np.int64)[..., None] >> np.arange(model.k)) & 1 == 1
    p_off = np.broadcast_to(1.0 - np.asarray(model.p_fail), failed.shape).copy()
    trigger = np.asarray(model.p_trigger)
    for m in range(model.k):
        np.multiply(p_off, 1.0 - trigger[m], out=p_off, where=failed[..., m, None])
    return np.where(failed, 1.0 - np.asarray(model.p_recover), 1.0 - p_off)


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
    model = NetworkModel(tuple(p_fail), tuple(p_recover),
                         tuple(tuple(row) for row in matrix), tuple(names))
    validate(model)
    return model


def save_model(model: NetworkModel) -> str:
    """Serialize a validated model; only nonzero triggers are written."""
    validate(model)
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
