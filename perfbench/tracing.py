"""Spans around the public functions of each cascadeq layer, and the per-layer
metrics derived from them.

The wrappers live here, not in the program: each traced public function is
replaced, in every cascadeq module that holds a reference to it, by a wrapper
that records a span (name, start, end, parent) plus the work counts read from
its arguments and result. Calls between layers go through module globals, so
nested calls are recorded with their parent.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

_BUILDERS = ("circuit.build_model_circuit", "circuit.build_grover", "circuit.build_qae_circuit")
_TIMED = (
    "model.load_model", "exact.evaluate", "mc.evaluate_mc", *_BUILDERS, "circuit.emit_gates",
    "sim.run", "sim.apply_gates", "sim.probabilities", "sim.sample_counts",
    "qae.run_standard_qae", "qae.grover_eigenphase",
    "lowdepth.fit_noise_model", "lowdepth.fit_sine", "lowdepth.run_schedule",
)

# name -> (unit, better); the order is the order of the printed metrics
PER_LAYER = {
    **{f"{name}_s": ("s", "lower") for name in _TIMED},
    "exact.configs_per_s": ("1/s", "higher"),
    "mc.trajectories": ("count", "higher"),
    "mc.trajectories_per_s": ("1/s", "higher"),
    "circuit.gates": ("count", "lower"),
    "circuit.listing_bytes": ("B", "lower"),
    "sim.ms_per_gate": ("ms", "lower"),
    "sim.pass_ratio": ("ratio", "lower"),
    "sim.state_bytes": ("B", "lower"),
    "lowdepth.fit_starts": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.report_bytes": ("B", "lower"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _fit_starts(name: str, bound, result) -> int:
    if hasattr(result, "n_starts"):
        return int(result.n_starts)
    config = bound.arguments.get("config") or importlib.import_module("cascadeq.lowdepth").FitConfig()
    if name == "lowdepth.fit_sine":
        return len(config.theta_starts)
    f_starts = 1 if bound.arguments.get("fix_f") is not None else len(config.f_starts)
    return len(config.theta_starts) * len(config.a_starts) * f_starts


def _report_bytes(argv) -> int:
    argv = list(argv or [])
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            return os.path.getsize(path)
    return 0


def _counts(name: str, bound, result) -> dict:
    """Work counts of one call, read from its arguments and result."""
    if name == "exact.evaluate":
        return {"configs": (len(result) - 1) * (1 << result[0].k)}
    if name == "mc.evaluate_mc":
        return {"trajectories": result.runs}
    if name in _BUILDERS:
        return {"gates": len(result.gates)}
    if name == "circuit.emit_gates":
        return {"bytes": len(result.encode())}
    if name == "sim.apply_gates":
        return {"gates": len(bound.arguments["gates"]), "qubits": bound.arguments["n_qubits"]}
    if name in ("lowdepth.fit_noise_model", "lowdepth.fit_sine"):
        return {"starts": _fit_starts(name, bound, result)}
    if name == "cli.main":
        return {"report_bytes": _report_bytes(bound.arguments.get("argv"))}
    return {}


class Tracer:
    """Records spans while ``recording`` is set; install() wraps the layers."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.recording = False
        self._stack: list[int] = []

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "cascadeq" or n.startswith("cascadeq.")]
        for name in (*_TIMED, "cli.main"):
            layer, fname = name.split(".")
            original = getattr(importlib.import_module(f"cascadeq.{layer}"), fname, None)
            if not inspect.isfunction(original):
                continue  # renamed or removed: its metrics read 0
            wrapped = self._wrap(name, original)
            for holder in modules:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attr, wrapped)

    def _wrap(self, name: str, original):
        signature = inspect.signature(original)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return original(*args, **kwargs)
            span = Span(name, time.perf_counter(), parent=self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            span.counts = _counts(name, bound, result)
            return result

        return wrapper

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def _pass_ms(qubits: int, repeats: int = 15) -> float:
    """Median time of one in-place numpy pass over a complex state of ``qubits``."""
    state = np.ones(1 << qubits, dtype=complex)
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        np.multiply(state, 1.0, out=state)
        times.append(time.perf_counter() - started)
    return 1000.0 * statistics.median(times)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals of one round of a workload."""
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def total(name: str) -> float:
        return sum(s.duration for s in by_name.get(name, []))

    def count(name: str, key: str) -> int:
        return sum(s.counts.get(key, 0) for s in by_name.get(name, []))

    out = {f"{name}_s": total(name) for name in _TIMED}
    evaluate_s = out["exact.evaluate_s"]
    out["exact.configs_per_s"] = count("exact.evaluate", "configs") / evaluate_s if evaluate_s else 0.0
    out["mc.trajectories"] = count("mc.evaluate_mc", "trajectories")
    mc_s = out["mc.evaluate_mc_s"]
    out["mc.trajectories_per_s"] = out["mc.trajectories"] / mc_s if mc_s else 0.0
    out["circuit.gates"] = sum(
        s.counts["gates"] for s in spans
        if s.name in _BUILDERS and (s.parent is None or spans[s.parent].name not in _BUILDERS))
    out["circuit.listing_bytes"] = count("circuit.emit_gates", "bytes")
    gates = count("sim.apply_gates", "gates")
    out["sim.ms_per_gate"] = 1000.0 * out["sim.apply_gates_s"] / gates if gates else 0.0
    qubits = max((s.counts["qubits"] for s in by_name.get("sim.apply_gates", [])), default=0)
    out["sim.pass_ratio"] = out["sim.ms_per_gate"] / _pass_ms(qubits) if gates else 0.0
    out["sim.state_bytes"] = 16 * (1 << qubits) if qubits else 0  # computed, complex128
    out["lowdepth.fit_starts"] = (count("lowdepth.fit_noise_model", "starts")
                                  + count("lowdepth.fit_sine", "starts"))
    children = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            children[span.parent] += span.duration
    out["cli.self_s"] = sum(s.duration - children[i] for i, s in enumerate(spans)
                            if s.name == "cli.main")
    out["cli.report_bytes"] = count("cli.main", "report_bytes")
    return out
