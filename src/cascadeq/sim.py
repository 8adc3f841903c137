"""Dense statevector simulation of the gate IR.

Basis index bit q is qubit q (qubit 0 least significant). The gate kernel
updates a state in place on its ``[2]*n`` view: a controlled gate slices
the view on its control axes, a 2x2 gate updates the two halves of its
target axis, and a diagonal kind (``z``, ``phase``, ``s0``, ``mark``)
scales the slice where it acts. It works block by block, in scratch that
:func:`run` allocates once for all gates; a block holds at most
2^``_BLOCK_QUBITS`` amplitudes, so no temporary grows with a large state.
:func:`probabilities` is one ``np.einsum`` of each real part of the state
(the state itself, or its ``.real`` and ``.imag`` views) with itself on the
``[2]*n`` view, and allocates little more than the marginal it returns. A
register's marginal is fast this way; a long scattered qubit list, which no
caller asks for, is slower (every other qubit of 20 takes about twice the
time of a sum by blocks on a complex state).

:func:`run` defers the rotations of fresh qubits. An uncontrolled ``ry`` on
a qubit no earlier gate touched (the initial layer of a model circuit, which
the builder hoists to the front) commutes with every gate before the first
one that touches its qubit, so it waits. ``run`` keeps ``live``, the number
of low qubits that may be nonzero, and applies every other gate with the
kernel to the first 2^live amplitudes as it comes. Before a gate whose
highest qubit q is at or above ``live`` it writes the waiting rotations of
qubits live..q by doubling (the rotation on qubit j writes the lower 2^j
amplitudes times sin above them, then multiplies them by cos), and sets
``live`` to q + 1. So the gates of a model circuit's first transition act
on 2^(2k) amplitudes, not 2^(kT). The state is bit for bit the whole-state
kernel on |0...0> over that deferred order. Against the circuit order the
products associate differently: amplitudes of 20-qubit model circuits move
by at most 8.3e-17.

Every gate kind but ``phase`` is real and orthogonal, so :func:`run` holds
the state as float64 when the circuit has no ``phase`` gate, and as
complex128 otherwise.
"""
from __future__ import annotations

import math
import mmap
from typing import Sequence

import numpy as np

from .circuit import Circuit, Gate
from .errors import DENSE_BYTE_BUDGET, ResourceLimitError, ValidationError, check_dense_bytes
from .model import check_int, index_tuple

__all__ = [
    "run",
    "check_run_size",
    "probabilities",
]

_RUN_PEAK = 2.65
"""Peak bytes of :func:`run` as a multiple of the 16 * 2^n of one complex128
state. Tracemalloc, plus the state's own mapping past 2^_BLOCK_QUBITS
amplitudes, on model, Grover and phase-prefixed circuits at 14-20 qubits:
1.10-2.04 for a complex128 run and 0.55-1.04 for a float64 run. That is the
state and the kernel's three rows of scratch, three quarters of the state at
14 qubits and under a tenth at 20. The factor bounds both with room to
spare."""

_BLOCK_QUBITS = 15
"""Blocks of the gate kernel hold at most 2^_BLOCK_QUBITS amplitudes (256 KiB
of float64), and a larger state gets a memory mapping of its own
(:func:`_zeros`). So nothing the size of a large state passes through the
malloc heap, where a freed state or state-sized temporary leaves a hole that
other allocations can split, and the next one then takes fresh pages. With
state-sized temporaries, processes doing the same 20-qubit work peak at
either of two levels, 8 MB apart, depending on what else allocated in
between."""


def _zeros(size: int, dtype) -> np.ndarray:
    """A zeroed 1-D array of ``size`` entries. Above 2^_BLOCK_QUBITS entries it
    lies on an anonymous memory mapping of its own, which is unmapped when
    the array is freed."""
    if size <= 1 << _BLOCK_QUBITS:
        return np.zeros(size, dtype=dtype)
    return np.frombuffer(mmap.mmap(-1, size * np.dtype(dtype).itemsize), dtype=dtype)


def _axis(n: int, qubit: int) -> int:
    return n - 1 - qubit


_MATRICES = {
    "x": (0.0, 1.0, 1.0, 0.0),
    "h": tuple(v / math.sqrt(2.0) for v in (1.0, 1.0, 1.0, -1.0)),
}


def _gate_matrix(gate: Gate) -> tuple[float, float, float, float]:
    """Entries (u00, u01, u10, u11) of a real 2x2 gate."""
    if gate.kind == "ry":
        c, s = math.cos(gate.angle / 2.0), math.sin(gate.angle / 2.0)
        return c, -s, s, c
    return _MATRICES[gate.kind]


class _Scratch:
    """Three rows of 2^_block_qubits(n) entries of an n-qubit state's dtype,
    shared by the gates of one :func:`run` call (on any prefix of the
    state), so that no gate allocates a temporary of its own. :meth:`like`
    hands them out as views of a block's shape, each made once."""

    def __init__(self, n: int, dtype):
        self.qubits = _block_qubits(n)
        self.rows = np.empty((3, 1 << self.qubits), dtype=dtype)
        self._views: dict = {}

    def like(self, shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
        """The three rows as arrays of ``shape``."""
        views = self._views.get(shape)
        if views is None:
            shaped = self.rows[:, :math.prod(shape)].reshape(3, *shape)
            views = shaped[0, ...], shaped[1, ...], shaped[2, ...]  # 0-d views for shape ()
            self._views[shape] = views
        return views


def _apply_gate(view: np.ndarray, gate: Gate, n: int, scratch: _Scratch) -> None:
    """Apply one gate in place; ``view`` has shape [2]*n."""
    sel: list = [slice(None)] * n
    for q, pol in gate.controls:
        sel[_axis(n, q)] = pol
    if gate.kind in ("ry", "x", "h"):
        u00, u01, u10, u11 = _gate_matrix(gate)
        t_ax = _axis(n, gate.targets[0])
        # the trailing Ellipsis keeps a fully indexed half a 0-d view
        lo, hi = (view[(*sel[:t_ax], b, *sel[t_ax + 1:], ...)] for b in (0, 1))
        for lo_part, hi_part in zip(_blocks(lo, scratch.qubits), _blocks(hi, scratch.qubits)):
            a0, new, term = scratch.like(lo_part.shape)
            np.copyto(a0, lo_part)
            for part, (c0, c1) in ((lo_part, (u00, u01)), (hi_part, (u10, u11))):
                np.multiply(a0, c0, out=new)
                new += np.multiply(hi_part, c1, out=term)
                part[...] = new
        return
    # the diagonal kinds: z and phase act where their target is 1, s0 where
    # every target is 0, mark (no target) wherever its controls hold
    for q in gate.targets:
        sel[_axis(n, q)] = 0 if gate.kind == "s0" else 1
    part = view[(*sel, ...)]
    factor = complex(math.cos(gate.angle), math.sin(gate.angle)) if gate.kind == "phase" else -1.0
    if gate.kind == "phase" and part.size == 1:
        # numpy rounds a one-element complex product otherwise than its array
        # loop does, so one amplitude goes through a two-element row: a phase
        # then rounds alike on the live prefix of run and on the whole state
        pair = scratch.rows[0, :2]
        pair[...] = part
        pair *= factor
        part[...] = pair[0]
    else:
        part *= factor


def _block_qubits(n: int) -> int:
    """Qubits of the largest block the gate kernel updates at once in an
    n-qubit state: a quarter of the state, so that the three rows of scratch
    stay below the state's size, but at most _BLOCK_QUBITS, and the whole
    state up to 10 qubits, where more blocks cost more in calls than they
    save in bytes."""
    return min(n, _BLOCK_QUBITS, max(10, n - 2))


def _blocks(view: np.ndarray, qubits: int) -> list[np.ndarray]:
    """``view``, of shape [2]*d, as views of at most 2^qubits entries: one
    per index into its leading d - qubits axes."""
    lead = view.ndim - qubits
    if lead <= 0:
        return [view]
    return [view[index] for index in np.ndindex(view.shape[:lead])]


def run(circuit: Circuit) -> np.ndarray:
    """Statevector after the whole circuit, starting from |0...0>; float64
    unless the circuit has a ``phase`` gate.

    Gates run in the deferred order: an uncontrolled ``ry`` on a qubit no
    earlier gate touched waits until a gate touches that qubit or one above
    it, then is written by doubling, and the other gates act on the live
    prefix only, the amplitudes below 2^live with every qubit from ``live``
    up still |0>. From 25 qubits on, :func:`check_run_size` refuses a run."""
    n = circuit.n_qubits
    check_run_size(n)
    state = _zeros(1 << n, complex if any(g.kind == "phase" for g in circuit.gates) else float)
    state[0] = 1.0
    scratch = _Scratch(n, state.dtype)
    live = 0
    view = state[:1].reshape(())
    pending: dict[int, Gate] = {}
    for gate in circuit.gates:
        top = max(gate.targets) if gate.targets else -1  # max(gate.qubits), but faster
        for q, _ in gate.controls:
            if q > top:
                top = q
        if top >= live:
            # a fresh qubit's ry commutes with every gate before the first
            # one that touches its qubit
            if gate.kind == "ry" and not gate.controls and top not in pending:
                pending[top] = gate
                continue
            live = _grow(state, live, top + 1, pending)
            view = state[:1 << live].reshape([2] * live)
        _apply_gate(view, gate, live, scratch)
    _grow(state, live, n, pending)
    norm = math.sqrt(np.vdot(state, state).real)  # no copy of a complex state's parts
    if abs(norm - 1.0) > 1e-10:
        raise ValidationError(f"statevector norm drifted to {norm!r}", code="norm-drift")
    return state


def _grow(state: np.ndarray, live: int, size: int, pending: dict[int, Gate]) -> int:
    """Write the pending rotations of qubits live..size-1 and return ``size``,
    the new live count. Before the rotation on qubit j only amplitudes below
    2^j can be nonzero, so it writes them times s above them and times c in
    place."""
    for j in range(live, size):
        gate = pending.pop(j, None)
        if gate is not None:
            c, _, s, _ = _gate_matrix(gate)
            h = 1 << j
            np.multiply(state[:h], s, out=state[h:2 * h])
            state[:h] *= c
    return size


def check_run_size(n: int) -> None:
    """Raise ResourceLimitError if :func:`run` on ``n`` qubits would be refused,
    so a caller can refuse before it builds the circuit: the run's peak of
    ``_RUN_PEAK`` times the 16 * 2^n bytes of one statevector passes
    ``DENSE_BYTE_BUDGET``, the simulator's only size limit, from 25 qubits."""
    n = check_int(n, "qubit count", "invalid-circuit", 0)
    # 16 * 2^63 bytes is past any budget, and past about n = 1020 the float
    # product below would overflow
    if n > 62:
        raise ResourceLimitError("a statevector run on more than 62 qubits needs at least "
                                 f"2^67 bytes, over the budget of {DENSE_BYTE_BUDGET}")
    check_dense_bytes(int(_RUN_PEAK * (16 << n)), f"a statevector run on {n} qubits")


def probabilities(state: np.ndarray, qubits: Sequence[int]) -> np.ndarray:
    """Marginal distribution over ``qubits``; ``qubits[0]`` is the output LSB."""
    n = _qubit_count(state)
    qubits = index_tuple(qubits, "qubits", "index-out-of-range", 0, n - 1)
    if not qubits or len(set(qubits)) != len(qubits):
        raise ValidationError("qubits must be distinct, and at least one",
                              code="index-out-of-range")
    parts = (state.real, state.imag) if np.iscomplexobj(state) else (state,)
    views = [part.reshape([2] * n) for part in parts]
    axes = list(range(n))
    # the output axes run from qubits[-1] down to qubits[0], so no transpose
    kept = [_axis(n, q) for q in reversed(qubits)]
    return sum(np.einsum(v, axes, v, axes, kept) for v in views).reshape(-1)


def _qubit_count(state: np.ndarray) -> int:
    size = state.shape[0] if state.ndim == 1 else 0
    if size < 1 or size & (size - 1):
        raise ValidationError("statevector length must be a power of two",
                              code="dimension-mismatch")
    return size.bit_length() - 1
