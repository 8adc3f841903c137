"""Gate-level circuit representation and builders.

Qubit layout for a model circuit with k nodes and horizon T: node n at step
t (both 1-based) sits on qubit (t-1)*k + (n-1), so node 1 of each register
is least significant and measured register strings match the configuration
convention of :mod:`cascadeq.model`. The model circuit's rotation angles
come from :func:`cascadeq.model.p_on`, the per-step transition rule the
exact and Monte Carlo engines apply, so all three engines share one rule.

Gate kinds:

* ``ry``      single-qubit y-rotation by ``angle`` (matrix
              [[cos(a/2), -sin(a/2)], [sin(a/2), cos(a/2)]])
* ``x``, ``z``, ``h``  the usual single-qubit gates
* ``phase``   diag(1, e^{i*angle}) on the target
* ``s0``      phase -1 on the component where every target qubit is 0
* ``mark``    phase -1 where the control pattern is satisfied (no target)

Every kind accepts controls ``(qubit, polarity)``; polarity 0 is an open
control. ``s0`` and ``mark`` exist as primitives so the simulator can apply
them as single diagonal updates; the emitted text format lowers them to
x-conjugated multi-controlled z.
"""
from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ParseError, ValidationError, check_dense_bytes
from .model import NetworkModel, _p_on_failed

__all__ = [
    "Gate",
    "Circuit",
    "GroverSpec",
    "build_model_circuit",
    "build_grover",
    "build_qae_circuit",
    "inverse_gates",
    "controlled_gates",
    "inverse_qft_gates",
    "emit_gates",
    "parse_gates",
]

_GATE_PEAK = 2800
"""Peak bytes of a builder per gate it returns. Tracemalloc: 1,483-2,632 on
model circuits at T=2 whose nodes have 8-17 trigger ancestors, and 2,772 at
18 ancestors, the most the byte budget admits at this factor; 13-17 on
phase-estimation circuits of 9-13 bits, whose repeated Grover blocks share
their gate objects (65-74 with :func:`emit_gates`, 170-185 with the
``circuit`` verb's emitted listing and report, 120-125 with ``--gates-out``)."""

_KINDS_WITH_ANGLE = {"ry", "phase"}
_KINDS = {"ry", "x", "z", "h", "phase", "s0", "mark"}


@dataclass(frozen=True)
class Gate:
    kind: str
    targets: tuple[int, ...] = ()
    controls: tuple[tuple[int, int], ...] = ()
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown gate kind {self.kind!r}", code="unknown-gate-kind")
        if (self.angle is not None) != (self.kind in _KINDS_WITH_ANGLE):
            raise ValidationError(f"gate {self.kind!r} angle mismatch", code="invalid-gate")
        if self.angle is not None and not math.isfinite(self.angle):
            raise ValidationError("gate angle must be finite", code="invalid-gate")
        if self.kind == "mark":
            if self.targets or not self.controls:
                raise ValidationError("mark takes controls only", code="invalid-gate")
        elif self.kind == "s0":
            if not self.targets:
                raise ValidationError("s0 needs at least one target", code="invalid-gate")
        elif len(self.targets) != 1:
            raise ValidationError(f"gate {self.kind!r} takes exactly one target",
                                  code="invalid-gate")
        control_qubits = [q for q, _ in self.controls]
        if len(set(control_qubits)) != len(control_qubits):
            raise ValidationError("duplicate control qubit", code="invalid-gate")
        if set(control_qubits) & set(self.targets):
            raise ValidationError("control and target qubits must be disjoint",
                                  code="invalid-gate")
        if any(pol not in (0, 1) for _, pol in self.controls):
            raise ValidationError("control polarity must be 0 or 1", code="invalid-gate")

    @property
    def qubits(self) -> tuple[int, ...]:
        return self.targets + tuple(q for q, _ in self.controls)


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list on ``n_qubits`` qubits plus the (node, step) layout.

    ``gates`` is flat. A circuit also keeps it as (block, count) pairs, each
    block a gate tuple repeated ``count`` times, so that work done per gate
    object is done once per block; a circuit built from ``gates`` alone is
    one block with count 1."""

    n_qubits: int
    gates: tuple[Gate, ...]
    layout: dict[tuple[int, int], int] = field(default_factory=dict)
    ancillas: tuple[int, ...] = ()

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValidationError("circuit needs at least one qubit", code="invalid-circuit")
        # a tuple, so that a caller's list cannot change under distinct_gates
        object.__setattr__(self, "gates", tuple(self.gates))
        if "_blocks" not in self.__dict__:
            object.__setattr__(self, "_blocks", ((self.gates, 1),))
        for gate in self.distinct_gates:
            if any(q < 0 or q >= self.n_qubits for q in gate.qubits):
                raise ValidationError(
                    f"gate {gate.kind!r} touches a qubit outside 0..{self.n_qubits - 1}",
                    code="invalid-circuit",
                )
        values = list(self.layout.values())
        if len(set(values)) != len(values):
            raise ValidationError("layout must be injective", code="invalid-circuit")

    @cached_property
    def distinct_gates(self) -> tuple[Gate, ...]:
        """Each gate object once, in first-use order.

        Objects are told apart by identity, not by value: the builders share
        one object across repeated Grover blocks, and equal gates need not
        print alike (angles 0.0 and -0.0 compare equal)."""
        return tuple({id(g): g for block, _ in self._blocks for g in block}.values())

    @classmethod
    def _repeated(cls, n_qubits: int, blocks, layout, ancillas) -> "Circuit":
        """The circuit of ``blocks``, (gates, count) pairs in order. Each block's
        gate objects are kept for the circuit's lifetime."""
        circuit = cls.__new__(cls)
        blocks = tuple((tuple(block), count) for block, count in blocks)
        object.__setattr__(circuit, "_blocks", blocks)
        gates = tuple(itertools.chain.from_iterable(block * count for block, count in blocks))
        circuit.__init__(n_qubits, gates, layout, ancillas)
        return circuit

    def qubit(self, node: int, step: int) -> int:
        try:
            return self.layout[(node, step)]
        except KeyError:
            raise ValidationError(f"no qubit for node {node} at step {step}",
                                  code="invalid-node-index") from None

    def register(self, step: int) -> list[int]:
        """Qubits of one time-step register, node 1 first."""
        nodes = sorted({n for n, t in self.layout if t == step})
        if not nodes:
            raise ValidationError(f"no register for step {step}", code="invalid-node-index")
        return [self.qubit(n, step) for n in nodes]


@dataclass(frozen=True)
class GroverSpec:
    """What to mark: nodes (1-based) pinned to bits at one time step.

    ``marked`` lists (node, bit) constraints; a full configuration pins all
    k nodes, a subset marks the marginal event.
    """

    target_step: int
    marked: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.target_step < 1:
            raise ValidationError("target step must be >= 1", code="invalid-horizon")
        if not self.marked:
            raise ValidationError("at least one node must be marked", code="invalid-mark")
        nodes = [n for n, _ in self.marked]
        if len(set(nodes)) != len(nodes):
            raise ValidationError("marked nodes must be distinct", code="invalid-mark")
        if any(b not in (0, 1) for _, b in self.marked):
            raise ValidationError("marked bits must be 0 or 1", code="invalid-mark")
        object.__setattr__(self, "marked", tuple(sorted(self.marked)))

    @classmethod
    def from_config(cls, text: str, step: int) -> "GroverSpec":
        """Parse a most-significant-node-first pattern; '*' leaves a node free."""
        k = len(text)
        marked = []
        for pos, ch in enumerate(text):
            node = k - pos
            if ch == "*":
                continue
            if ch not in "01":
                raise ParseError(f"configuration pattern {text!r} may contain only 0, 1, *")
            marked.append((node, int(ch)))
        if not marked:
            raise ValidationError("pattern marks no node", code="invalid-mark")
        return cls(step, tuple(marked))

    def matches(self, config):
        """Does a register-local configuration integer satisfy the mark? For
        an integer array, the boolean array of the answers."""
        hit = True
        for n, b in self.marked:
            hit = hit & ((config >> (n - 1)) & 1 == b)
        return hit


# --- builders ----------------------------------------------------------------

def _ancestors(model: NetworkModel, node: int) -> list[int]:
    """Trigger ancestors of ``node`` (0-based): the nodes with a nonzero trigger into it."""
    return [m for m in range(model.k) if model.p_trigger[m][node] > 0.0]


def _model_gate_bound(model: NetworkModel, horizon: int) -> int:
    """Most gates :func:`build_model_circuit` returns: one init rotation per
    node and step, and per transition at most 2^|A| rotations per node."""
    per_step = sum(1 << len(_ancestors(model, n)) for n in range(model.k))
    return model.k * horizon + (horizon - 1) * per_step


def _check_gate_count(count: int, what: str) -> None:
    """Raise ResourceLimitError before building ``count`` gates past the byte budget."""
    check_dense_bytes(count * _GATE_PEAK, f"{what} of {count} gates")


def _corrections(model: NetworkModel, node: int, init: float) -> list[tuple[tuple, float]]:
    """Controlled rotations of ``node`` (0-based) across one step, in gate order.

    Each entry is (controls as (node, polarity) pairs, angle). The angle
    lifts the init rotation to 2*arcsin(sqrt(p_on)) for the controlling
    configuration: first the node itself failed, then each nonzero pattern
    of its trigger ancestors with the node good. A pattern whose p_on equals
    the no-ancestor-failed value needs no gate.
    """
    ancestors = _ancestors(model, node)
    # the node failed, then each pattern of failed ancestors: p_on multiplies
    # the same factors in node order as on the node and its ancestors alone
    patterns = 1 << len(ancestors)
    failed = np.zeros((1 + patterns, model.k), dtype=bool)
    failed[0, node] = True
    failed[1:, ancestors] = (np.arange(patterns)[:, None] >> np.arange(len(ancestors))) & 1 == 1
    p_failed, *p_good = _p_on_failed(model, failed, [node])[:, 0].tolist()
    out = [(((node, 1),), 2.0 * math.asin(math.sqrt(p_failed)) - init)]
    for pattern in range(1, patterns):
        if p_good[pattern] != p_good[0]:
            controls = ((node, 0),) + tuple((m, (pattern >> j) & 1) for j, m in enumerate(ancestors))
            out.append((controls, 2.0 * math.asin(math.sqrt(p_good[pattern])) - init))
    return out


def build_model_circuit(model: NetworkModel, horizon: int) -> Circuit:
    """Circuit whose register-t measurement distribution equals the exact step-t table.

    All per-register initialization rotations 2*arcsin(sqrt(p_fail)) are
    hoisted to the front. Each step transition then adds, per node, the
    rotations that take it to the failure probability ``model.p_on`` gives
    for the previous register: a 1-controlled recovery rotation, and one
    multi-controlled rotation per nonempty configuration of the node's
    trigger ancestors (the nodes with a nonzero trigger into it, ascending),
    with an open control on the node itself and polarities matching the
    configuration. Every correction angle is
    2*arcsin(sqrt(p_on)) - 2*arcsin(sqrt(p_fail)). A circuit whose gate
    count bound passes the byte budget is refused before it is built.
    """
    if horizon < 1:
        raise ValidationError("horizon must be >= 1", code="invalid-horizon")
    _check_gate_count(_model_gate_bound(model, horizon), "the model circuit")
    k = model.k
    layout = {(n, t): (t - 1) * k + (n - 1) for t in range(1, horizon + 1)
              for n in range(1, k + 1)}
    init = [2.0 * math.asin(math.sqrt(p)) for p in model.p_fail]
    corrections = [_corrections(model, n, init[n]) for n in range(k)]
    gates: list[Gate] = []
    for t in range(1, horizon + 1):
        for n in range(1, k + 1):
            gates.append(Gate("ry", (layout[(n, t)],), angle=init[n - 1]))
    for t in range(1, horizon):
        for n in range(1, k + 1):
            for controls, angle in corrections[n - 1]:
                gates.append(Gate("ry", (layout[(n, t + 1)],),
                                  tuple((layout[(m + 1, t)], pol) for m, pol in controls),
                                  angle=angle))
    del corrections  # else it adds to the peak while Circuit deduplicates the gates
    return Circuit(k * horizon, tuple(gates), layout)


def inverse_gates(gates: Sequence[Gate]) -> list[Gate]:
    """Gate list implementing the inverse unitary."""
    out = []
    for gate in reversed(gates):
        if gate.kind in ("ry", "phase"):
            out.append(Gate(gate.kind, gate.targets, gate.controls, -gate.angle))
        else:
            out.append(gate)
    return out


def controlled_gates(gates: Sequence[Gate], control: int) -> list[Gate]:
    """Every gate additionally controlled (polarity 1) on ``control``."""
    out = []
    for gate in gates:
        if control in gate.qubits:
            raise ValidationError("control qubit already used by gate", code="invalid-gate")
        out.append(Gate(gate.kind, gate.targets, gate.controls + ((control, 1),), gate.angle))
    return out


def _global_minus(qubit: int) -> list[Gate]:
    # x z x z on one qubit multiplies the whole state by -1; kept explicit so
    # a controlled Grover picks it up as the required relative phase.
    return [Gate("x", (qubit,)), Gate("z", (qubit,)),
            Gate("x", (qubit,)), Gate("z", (qubit,))]


def build_grover(model: NetworkModel, horizon: int, spec: GroverSpec) -> Circuit:
    """Grover operator for the marked event: -(model) s0 (model)^dagger s_chi."""
    base = build_model_circuit(model, horizon)
    return Circuit(base.n_qubits, tuple(_grover_gates(model, horizon, spec, base)), base.layout)


def _grover_gates(model: NetworkModel, horizon: int, spec: GroverSpec,
                  base: Circuit) -> list[Gate]:
    """The Grover operator's gates around ``base``, the built model circuit."""
    if spec.target_step > horizon:
        raise ValidationError(
            f"target step {spec.target_step} beyond horizon {horizon}", code="invalid-horizon")
    for n, _ in spec.marked:
        if not (1 <= n <= model.k):
            raise ValidationError(f"marked node {n} outside 1..{model.k}",
                                  code="invalid-node-index")
    chi = Gate("mark", controls=tuple((base.qubit(n, spec.target_step), b)
                                      for n, b in spec.marked))
    gates = [chi]
    gates += inverse_gates(base.gates)
    gates.append(Gate("s0", tuple(range(base.n_qubits))))
    gates += list(base.gates)
    gates += _global_minus(0)
    return gates


def inverse_qft_gates(qubits: Sequence[int]) -> list[Gate]:
    """Inverse discrete Fourier transform; ``qubits[0]`` is the least-significant bit."""
    return inverse_gates(_qft_gates(qubits))


def _qft_gates(qubits: Sequence[int]) -> list[Gate]:
    m = len(qubits)
    gates: list[Gate] = []
    for i in range(m - 1, -1, -1):
        gates.append(Gate("h", (qubits[i],)))
        for j in range(i - 1, -1, -1):
            gates.append(Gate("phase", (qubits[i],), ((qubits[j], 1),),
                              angle=math.pi / (1 << (i - j))))
    for i in range(m // 2):
        a, b = qubits[i], qubits[m - 1 - i]
        gates += [Gate("x", (b,), ((a, 1),)), Gate("x", (a,), ((b, 1),)),
                  Gate("x", (b,), ((a, 1),))]
    return gates


def build_qae_circuit(model: NetworkModel, horizon: int, spec: GroverSpec,
                      bits: int) -> Circuit:
    """Phase-estimation circuit: ``bits`` ancillas reading the Grover eigenphase.

    Ancilla j controls 2^j applications of the Grover operator; the inverse
    Fourier transform then makes outcome y decode as theta = 2*pi*y/2^bits.
    Its 2^bits - 1 Grover blocks are counted, and an oversized circuit is
    refused, before any gate is built. Each ancilla's controlled Grover
    block is built once and recorded as one block repeated 2^j times, so
    its 2^j references share their gate objects.
    """
    if bits < 1:
        raise ValidationError("resolution must be >= 1 bit", code="invalid-bits")
    if horizon < 1:
        raise ValidationError("horizon must be >= 1", code="invalid-horizon")
    model_gates = _model_gate_bound(model, horizon)
    grover_gates = 2 * model_gates + 6  # mark, s0 and the four-gate global minus
    qft_gates = bits + bits * (bits - 1) // 2 + 3 * (bits // 2)
    _check_gate_count(bits + model_gates + ((1 << bits) - 1) * grover_gates + qft_gates,
                      "the phase-estimation circuit")
    base = build_model_circuit(model, horizon)
    grover = _grover_gates(model, horizon, spec, base)
    ancillas = tuple(range(base.n_qubits, base.n_qubits + bits))
    blocks = [([Gate("h", (a,)) for a in ancillas], 1), (base.gates, 1)]
    blocks += [(controlled_gates(grover, a), 1 << j) for j, a in enumerate(ancillas)]
    blocks.append((inverse_qft_gates(list(ancillas)), 1))
    return Circuit._repeated(base.n_qubits + bits, blocks, base.layout, ancillas)


# --- textual gate format -------------------------------------------------------
#
#   <kind>(<angle>) controls=[(q,pol),...] targets=[q,...]
#
# Angles are fixed at six decimals. s0 and mark are lowered to x-conjugated
# multi-controlled z, so emitted text uses only ry/x/z/h/phase lines.

def _fmt_controls(controls: Sequence[tuple[int, int]]) -> str:
    return "[" + ",".join(f"({q},{pol})" for q, pol in controls) + "]"


def _fmt_targets(targets: Sequence[int]) -> str:
    return "[" + ",".join(str(q) for q in targets) + "]"


def _emit_line(gate: Gate) -> str:
    head = gate.kind if gate.angle is None else f"{gate.kind}({gate.angle:.6f})"
    return f"{head} controls={_fmt_controls(gate.controls)} targets={_fmt_targets(gate.targets)}"


def _lower(gate: Gate) -> list[Gate]:
    if gate.kind == "s0":
        wrap = [Gate("x", (q,)) for q in gate.targets]
        z_target = gate.targets[-1]
        controls = tuple((q, 1) for q in gate.targets[:-1]) + gate.controls
        return wrap + [Gate("z", (z_target,), controls)] + wrap
    if gate.kind == "mark":
        ones = [q for q, pol in gate.controls if pol == 1]
        if ones:
            z_target = ones[-1]
            rest = tuple(c for c in gate.controls if c[0] != z_target)
            return [Gate("z", (z_target,), rest)]
        z_target = gate.controls[-1][0]
        rest = tuple(c for c in gate.controls if c[0] != z_target)
        x = Gate("x", (z_target,))
        return [x, Gate("z", (z_target,), rest), x]
    return [gate]


def emit_gates(circuit: Circuit) -> str:
    """One line per gate; s0/mark appear as their controlled-z lowerings.

    Each distinct gate object is formatted once, and each block's text is
    joined once and repeated, so a controlled Grover block of the
    phase-estimation circuit is written once and copied 2^j times."""
    text: dict[int, str] = {id(gate): "".join(_emit_line(g) + "\n" for g in _lower(gate))
                            for gate in circuit.distinct_gates}
    parts: list[str] = []
    for block, count in circuit._blocks:
        # count references to one string: the listing is copied once, by the join
        parts += ["".join([text[id(gate)] for gate in block])] * count
    return "".join(parts)


_LINE_RE = re.compile(
    r"^(?P<kind>[a-z0-9]+)(\((?P<angle>[^)]+)\))?"
    r" controls=\[(?P<controls>[^\]]*)\]"
    r" targets=\[(?P<targets>[^\]]*)\]$"
)


def parse_gates(text: str, n_qubits: int | None = None) -> Circuit:
    """Parse emitted gate text back into a circuit.

    ``n_qubits`` defaults to one past the highest index used. The layout of
    the original circuit is not part of the format and comes back empty.
    """
    gates: list[Gate] = []
    highest = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        match = _LINE_RE.match(line)
        if not match:
            raise ParseError(f"line {lineno}: cannot parse gate {line!r}")
        kind = match.group("kind")
        if kind not in _KINDS:
            raise ParseError(f"line {lineno}: unknown gate kind {kind!r}")
        angle = None
        if match.group("angle") is not None:
            try:
                angle = float(match.group("angle"))
            except ValueError as exc:
                raise ParseError(f"line {lineno}: bad angle {match.group('angle')!r}") from exc
        controls = []
        raw_controls = match.group("controls")
        if raw_controls:
            if not re.fullmatch(r"\(\d+,[01]\)(,\(\d+,[01]\))*", raw_controls):
                raise ParseError(f"line {lineno}: bad control list {raw_controls!r}")
            controls = [(int(q), int(pol))
                        for q, pol in re.findall(r"\((\d+),([01])\)", raw_controls)]
        targets = tuple(int(tok) for tok in match.group("targets").split(",") if tok)
        try:
            gate = Gate(kind, targets, tuple(controls), angle)
        except ValidationError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        gates.append(gate)
        highest = max([highest, *gate.qubits])
    if n_qubits is None:
        n_qubits = highest + 1 if highest >= 0 else 1
    return Circuit(n_qubits, tuple(gates))
