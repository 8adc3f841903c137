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

        def probability(p, what: str) -> float:
            return check_real(p, what, "probability-out-of-range", 0.0, 1.0)

        for i in range(k):
            p_fail[i] = probability(p_fail[i], f"p_fail[{i + 1}]")
            p_recover[i] = probability(p_recover[i], f"p_recover[{i + 1}]")
        for m, row in enumerate(rows):
            rows[m] = tuple(probability(p, f"p_trigger[{m + 1}][{n + 1}]")
                            for n, p in enumerate(row))
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
        # the model without triggers first, so that k is read once its checks have
        # passed: a p_fail without a length is refused there, as shape-mismatch
        size = len(p_fail) if hasattr(p_fail, "__len__") else 0
        base = cls(p_fail, p_recover, [[0.0] * size] * size, names or ())
        matrix = [[0.0] * base.k for _ in range(base.k)]
        for key, p in (triggers or {}).items():
            try:
                m, n = index_tuple(key, "trigger nodes", "invalid-node-index", 1, base.k)
            except ValueError:  # ValidationError among them
                raise ValidationError(f"a trigger key is not a pair of nodes in 1..{base.k}",
                                      code="invalid-node-index") from None
            matrix[m - 1][n - 1] = p
        return cls(base.p_fail, base.p_recover, matrix, base.names)


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


def check_int(value, what: str, code: str, lo=-math.inf, hi=math.inf) -> int:
    """``value`` through ``operator.index``, in [lo, hi], or ValidationError
    (``code``): a float, string or out-of-range integer is refused here, where
    it would raise a bare TypeError, ValueError or MemoryError later, or be
    truncated. The message leaves the value out, which may have more digits
    than Python writes as a string."""
    try:
        value = operator.index(value)
    except TypeError:
        value = None
    if value is None or not lo <= value <= hi:
        raise ValidationError(f"{what} must be an integer in [{lo}, {hi}]", code=code)
    return value


def index_tuple(values, what: str, code: str, lo=-math.inf, hi=math.inf) -> tuple[int, ...]:
    """:func:`check_int` of each of ``values``; a ``values`` that is not a
    sequence raises ValidationError (``code``) too."""
    try:
        return tuple(check_int(value, what, code, lo, hi) for value in values)
    except TypeError:
        raise ValidationError(f"{what} must be a sequence of integers", code=code) from None


def check_real(value, what: str, code: str, lo=-math.inf, hi=math.inf) -> float:
    """``float(value)``, finite and in [lo, hi], or ValidationError (``code``):
    NaN, an infinity, a non-number and an integer past the float range are
    refused here."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not (math.isfinite(x) and lo <= x <= hi):
        raise ValidationError(f"{what} must be a finite number in [{lo}, {hi}]", code=code)
    return x


def seed_tuple(seed) -> tuple[int, ...]:
    """An integer or tuple-of-integers seed as a tuple of ints >= 0, where numpy's
    seeding would raise a bare TypeError or ValueError (``invalid-seed``)."""
    return index_tuple(seed if isinstance(seed, tuple) else (seed,), "seed", "invalid-seed", 0)


# --- configuration encoding -------------------------------------------------

_MAX_NODES = 63
"""Most nodes of a configuration: the bits of an int64, which Monte Carlo
holds its configurations in."""


def format_config(value: int, k: int) -> str:
    """Render a configuration most-significant node first ("10" = node 2 failed);
    ``k`` is at most ``_MAX_NODES``."""
    value = check_int(value, "configuration", "invalid-configuration")
    k = check_int(k, "node count", "invalid-configuration", 0, _MAX_NODES)
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

