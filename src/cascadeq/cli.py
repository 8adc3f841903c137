"""Command-line interface.

Verbs: exact, mc, circuit, qae, lowdepth, fit, plotdata. Every verb emits a
JSON run report on stdout (or ``--out``): command, echoed inputs, a results
block, and the wall-clock duration. The results block is bit-identical
across reruns with the same inputs and seeds. ``fit`` and ``lowdepth``
reports add a ``metrics`` block with each fit's iterations, start count and
converged flag; a fit that did not converge also prints a warning on
stderr. ``qae`` reports add one with the simulated model qubits, their
statevector bytes and the norm residual of the model state the Grover
plane is read from; the model runs once per command. ``mc`` reports add
one with the chunks sampled, the configuration rows ``p_on`` evaluated,
the sampling seconds and the trajectories per second, all over every
repeat, and the worker threads the chunks ran on. ``circuit`` reports add
one with the distinct gate objects, the most controls on one gate, the
listing's UTF-8 bytes and the build and emit seconds. With ``--gates-out`` the listing goes only to that file, and
``results`` records its path and byte count in place of the text.
``plotdata`` instead emits CSV series extracted from a previously written
report.

A report is written as ``json.dumps(report, indent=2, sort_keys=True)``
would write it, but by ``_dumps``: ``indent`` sends json to its pure-Python
encoder, so ``_dumps`` hands every container that holds no container, such
as an ``exact`` table of 1,024 entries, to the C encoder in one call.

Exit codes: 0 success, 1 validation/parse problems, 2 resource limit,
3 fit divergence.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .circuit import GroverSpec, build_grover, build_model_circuit, build_qae_circuit, emit_gates
from .errors import (
    CascadeqError,
    FitDivergedError,
    MissingSeriesError,
    ParseError,
    ResourceLimitError,
    ValidationError,
    check_dense_bytes,
)
from .exact import _labeler, evaluate, marginal
from .lowdepth import (
    FitResult,
    LowDepthTrace,
    NoiseSpec,
    fit_noise_model,
    fit_sine,
    predict,
    run_schedule,
    trace_from_text,
)
from .mc import evaluate_mc
from .model import load_model
from .qae import _qae_sweep, grover_eigenphase

_CURVE_STEP = 0.05

_PLOT_ROW_PEAK = 250
"""Peak bytes of ``plotdata`` per CSV row it builds, for the row tuples and
their text: tracemalloc 228-243 on schedule figures of 0.4-0.8 million rows."""

_LIST_ENTRY_PEAK = 48
"""Peak bytes of ``_parse_int_list`` per integer it returns: tracemalloc
39.9-40.7 on ranges of 0.1-4 million entries. Comma-separated single values
peak at 125-153 a value from the split text, but the operating system bounds
an argument's length, so a list that long stays far below the budget."""


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors; 2 means resource-limit here
        return 0 if exc.code == 0 else 1
    started = time.perf_counter()
    try:
        inputs, results, payload, metrics = args.handler(args)
        if payload is None:
            report = {
                "tool": {"name": "cascadeq", "version": __version__},
                "command": args.command,
                "inputs": inputs,
                "results": results,
                "duration_seconds": time.perf_counter() - started,
            }
            if metrics is not None:
                report["metrics"] = metrics
            payload = _dumps(report) + "\n"
        _write(payload, args.out)
    except CascadeqError as exc:
        print(f"error ({exc.code}): {exc}", file=sys.stderr)
        if isinstance(exc, ResourceLimitError):
            return 2
        return 3 if isinstance(exc, FitDivergedError) else 1
    except OSError as exc:
        print(f"error (io): {exc}", file=sys.stderr)
        return 1
    return 0


_CONTAINERS = frozenset((dict, list, tuple))


def _dumps(value, level: int = 0) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` at nesting ``level``,
    for str-keyed dicts, lists, tuples and JSON scalars, as reports hold.

    A container that holds no container is one C-encoder call whose item
    separator carries the newline and the indent; only containers of
    containers recurse."""
    if type(value) not in _CONTAINERS or not value:
        return json.dumps(value)
    is_dict = type(value) is dict
    pad = "\n" + "  " * (level + 1)
    if _CONTAINERS.isdisjoint(map(type, value.values() if is_dict else value)):
        body = json.dumps(value, sort_keys=True, separators=("," + pad, ": "))[1:-1]
    elif is_dict:
        body = ("," + pad).join([json.dumps(key) + ": " + _dumps(value[key], level + 1)
                                 for key in sorted(value)])
    else:
        body = ("," + pad).join([_dumps(item, level + 1) for item in value])
    # one join: a concatenation chain would hold two copies of a long body
    brackets = "{}" if is_dict else "[]"
    return "".join((brackets[0], pad, body, pad[:-2], brackets[1]))


def _write(text: str, out: str | None) -> None:
    """Write ``text`` to the file ``out``, or to stdout when it is empty.

    An existing file is overwritten and then truncated at the written length,
    not truncated first: ext4 flushes a file truncated to zero and rewritten
    when it is closed (its auto_da_alloc rule), tens of milliseconds per
    report."""
    if out:
        fd = os.open(out, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.truncate()
    else:
        sys.stdout.write(text)


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc


def _load_model_file(path: str):
    return load_model(_read_text(path))


def _parse_int_list(text: str) -> list[int]:
    """Parse "0..8" / "0,1,4" / mixtures of both; a list past the byte budget
    is refused before any range is expanded."""
    spans: list[tuple[int, int]] = []
    for token in text.split(","):
        token = token.strip()
        if ".." in token:
            lo, _, hi = token.partition("..")
            try:
                lo_i, hi_i = int(lo), int(hi)
            except ValueError as exc:
                raise ParseError(f"bad range {token!r}") from exc
            if hi_i < lo_i:
                raise ParseError(f"bad range {token!r}")
            spans.append((lo_i, hi_i))
        else:
            try:
                value = int(token)
            except ValueError as exc:
                raise ParseError(f"bad integer {token!r}") from exc
            spans.append((value, value))
    entries = sum(hi - lo + 1 for lo, hi in spans)
    check_dense_bytes(entries * _LIST_ENTRY_PEAK, f"a list of {entries} integers")
    return [value for lo, hi in spans for value in range(lo, hi + 1)]


def _fit_dict(fit: FitResult) -> dict:
    return {
        "theta": fit.theta,
        "theta_half": fit.theta / 2.0,
        "a": fit.a,
        "f": fit.f,
        "probability": fit.probability,
        "loss": fit.loss,
    }


def _fit_blocks(trace: LowDepthTrace, fix_f: float | None) -> tuple[dict, dict]:
    """Sine and noise-model fits of ``trace``: their results and their metrics.

    A fit that did not converge is reported on stderr; its result stands.
    """
    fits = {"sine_fit": fit_sine(trace), "noise_fit": fit_noise_model(trace, fix_f=fix_f)}
    metrics = {}
    for name, fit in fits.items():
        if not fit.converged:
            print(f"warning: {name} did not converge in {fit.iterations} iterations",
                  file=sys.stderr)
        metrics[name] = {"iterations": fit.iterations, "converged": fit.converged,
                         "n_starts": fit.n_starts}
    return {name: _fit_dict(fit) for name, fit in fits.items()}, metrics


def _trace_dict(trace: LowDepthTrace) -> dict:
    marked = [int(m) if m == int(m) else m for m in trace.marked]
    return {"schedule": list(trace.schedule), "shots": list(trace.shots), "marked": marked}


# --- verbs ------------------------------------------------------------------

def _cmd_exact(args):
    model = _load_model_file(args.model)
    tables = evaluate(model, args.steps)
    results = {
        "distributions": [
            {"step": t, "probabilities": table.by_string()}
            for t, table in enumerate(tables)
        ]
    }
    return {"model": args.model, "steps": args.steps}, results, None, None


def _cmd_mc(args):
    if args.repeats < 1:
        raise ValidationError("--repeats must be >= 1", code="invalid-repeats")
    model = _load_model_file(args.model)
    started = time.perf_counter()
    repeats = [evaluate_mc(model, args.steps, args.runs, seed=(args.seed, rep))
               for rep in range(args.repeats)]
    sample_s = time.perf_counter() - started
    label = _labeler(model.k, args.runs)
    results = {
        "runs": args.runs,
        "repeats": [
            {
                "counts": {label(c): n for c, n in sorted(r.counts.items())},
                "estimates": {label(c): e for c, e in sorted(r.estimates.items())},
            }
            for r in repeats
        ],
    }
    if args.repeats > 1:
        # a configuration no repeat saw has spread exactly 0.0 and is left out
        estimates = [r.estimates for r in repeats]
        seen = sorted(set().union(*estimates))
        results["spread"] = {
            label(c): float(np.std([e.get(c, 0.0) for e in estimates]))
            for c in seen
        }
    inputs = {"model": args.model, "steps": args.steps, "runs": args.runs,
              "seed": args.seed, "repeats": args.repeats}
    metrics = {"chunks": sum(r.chunks for r in repeats),
               "p_on_rows": sum(r.p_on_rows for r in repeats),
               "sample_s": sample_s,
               "trajectories_per_s": args.runs * args.repeats / sample_s,
               "workers": max(r.workers for r in repeats)}
    return inputs, results, None, metrics


def _grover_spec(args, model) -> GroverSpec:
    if args.config is None:
        raise ParseError("this command needs --config")
    spec = GroverSpec.from_config(args.config, args.steps)
    if len(args.config) != model.k:
        raise ParseError(
            f"--config {args.config!r} has {len(args.config)} positions, model has {model.k} nodes")
    return spec


def _cmd_circuit(args):
    model = _load_model_file(args.model)
    started = time.perf_counter()
    if args.kind == "model":
        circuit = build_model_circuit(model, args.steps)
    elif args.kind == "grover":
        circuit = build_grover(model, args.steps, _grover_spec(args, model))
    else:
        circuit = build_qae_circuit(model, args.steps, _grover_spec(args, model), args.bits)
    built = time.perf_counter()
    text = emit_gates(circuit)
    emit_s = time.perf_counter() - built
    listing_bytes = len(text.encode("utf-8"))
    results = {
        "kind": args.kind,
        "n_qubits": circuit.n_qubits,
        "gate_count": len(circuit.gates),
    }
    if args.gates_out:
        _write(text, args.gates_out)
        results.update(gates_out=args.gates_out, gates_bytes=listing_bytes)
    else:
        results["gates"] = text
    inputs = {"model": args.model, "steps": args.steps, "kind": args.kind,
              "config": args.config, "bits": args.bits}
    distinct = circuit.distinct_gates
    metrics = {"distinct_gates": len(distinct),
               "max_controls": max((len(g.controls) for g in distinct), default=0),
               "listing_bytes": listing_bytes,
               "build_s": built - started,
               "emit_s": emit_s}
    return inputs, results, None, metrics


def _cmd_qae(args):
    model = _load_model_file(args.model)
    spec = _grover_spec(args, model)
    inputs = {"model": args.model, "steps": args.steps, "config": args.config,
              "seed": args.seed, "shots": args.shots}

    def metrics(residual: float) -> dict:
        qubits = model.k * args.steps  # the model register only, never the ancillas
        return {"simulated_qubits": qubits, "dtype": "float64", "state_bytes": 8 << qubits,
                "plane_residual": residual}

    if args.eigenphase:
        result = grover_eigenphase(model, args.steps, spec)
        results = {
            "eigenphase": {
                "theta": result.theta,
                "lambda_plus": [result.lambda_plus.real, result.lambda_plus.imag],
                "lambda_minus": [result.lambda_minus.real, result.lambda_minus.imag],
                "probability": result.probability,
                "residual": result.residual,
            }
        }
        return inputs, results, None, metrics(result.residual)
    bits_list = _parse_int_list(args.bits_text)
    # one model run for the whole sweep; each bit count draws with its own seed
    estimates = _qae_sweep(model, args.steps, spec,
                           [(bits, (args.seed, bits)) for bits in bits_list], args.shots)
    sweep = [{
        "bits": r.bits,
        "outcome_counts": {str(y): n for y, n in sorted(r.outcome_counts.items())},
        "modal_outcome": r.modal_outcome,
        "theta": r.theta,
        "probability": r.probability,
    } for r in estimates]
    inputs["bits"] = bits_list
    return inputs, {"sweep": sweep}, None, metrics(estimates[0].residual)


def _exact_theta(model, steps: int, spec: GroverSpec) -> tuple[float, float]:
    nodes, bits = zip(*spec.marked)
    p = marginal(evaluate(model, steps)[steps], nodes, bits)
    return 2.0 * math.asin(math.sqrt(p)), p


def _cmd_lowdepth(args):
    model = _load_model_file(args.model)
    spec = _grover_spec(args, model)
    schedule = _parse_int_list(args.schedule)
    noise = None
    if args.noise_epsilon is not None:
        noise = NoiseSpec(args.noise_epsilon)
    elif args.noise_a is not None:
        noise = NoiseSpec.from_decay_rate(args.noise_a)
    trace = run_schedule(model, args.steps, spec, schedule, args.shots,
                         noise=noise, seed=args.seed)
    theta_exact, p_exact = _exact_theta(model, args.steps, spec)
    fits, metrics = _fit_blocks(trace, args.fix_f)
    results = {
        "trace": _trace_dict(trace),
        **fits,
        "exact_theta": theta_exact,
        "exact_probability": p_exact,
    }
    inputs = {"model": args.model, "steps": args.steps, "config": args.config,
              "schedule": schedule, "shots": args.shots, "seed": args.seed,
              "noise_epsilon": noise.per_grover_error if noise else None,
              "fix_f": args.fix_f}
    return inputs, results, None, metrics


def _cmd_fit(args):
    trace = trace_from_text(_read_text(args.trace))
    fits, metrics = _fit_blocks(trace, args.fix_f)
    results = {"trace": _trace_dict(trace), **fits}
    return {"trace": args.trace, "fix_f": args.fix_f}, results, None, metrics


def _cmd_plotdata(args):
    try:
        report = json.loads(_read_text(args.report))
    except json.JSONDecodeError as exc:
        raise ParseError(f"report file is not valid JSON: {exc}") from exc
    try:
        rows = _plot_rows(args.figure, report)
    except MissingSeriesError:
        raise
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ParseError(f"report series is malformed: {exc!r}") from exc
    payload = "\n".join(",".join(str(v) for v in row) for row in rows) + "\n"
    return {"report": args.report, "figure": args.figure}, {}, payload, None


def _plot_rows(figure: str, report) -> list[tuple]:
    """CSV rows of one figure's series; a report of the wrong shape raises
    AttributeError, KeyError, OverflowError, TypeError or ValueError
    (ValidationError among them), and a schedule figure past the byte budget
    raises ResourceLimitError before it builds its curves."""
    results = report.get("results", {})
    rows = [("series", "x", "y")]
    if figure == "spread":
        repeats = results.get("repeats")
        if not repeats or "runs" not in results:
            raise MissingSeriesError("report has no repeated estimate series")
        runs = results["runs"]
        for rep in repeats:
            for config, estimate in rep["estimates"].items():
                rows.append((config, runs, estimate))
    elif figure == "bits":
        sweep = results.get("sweep")
        if not sweep:
            raise MissingSeriesError("report has no resolution sweep series")
        for entry in sweep:
            rows.append(("estimate", entry["bits"], entry["probability"]))
    else:  # schedule; argparse restricts the choices
        series = results.get("trace")
        if not series or not series.get("schedule"):
            raise MissingSeriesError("report has no schedule trace series")
        # the trace checks that the three lists align and hold valid counts
        trace = LowDepthTrace(series["schedule"], series["shots"], series["marked"])
        for power, fraction in zip(trace.schedule, trace.fractions):
            rows.append(("measured", power, fraction))
        curves = []
        if "exact_theta" in results:
            curves.append(("exact", results["exact_theta"], 0.0, 0.0))
        fit = results.get("noise_fit")
        if fit:
            curves.append(("fitted", fit["theta"], fit["a"], min(max(fit["f"], 0.0), 1.0)))
        if curves:
            # a row per curve and grid point, and the grid has 20 points a power
            points = round(1.0 / _CURVE_STEP) * max(trace.schedule) + 1
            check_dense_bytes((len(rows) + len(curves) * points) * _PLOT_ROW_PEAK,
                              f"a schedule figure up to power {max(trace.schedule)}")
            grid = np.arange(0.0, max(trace.schedule) + _CURVE_STEP / 2, _CURVE_STEP)
            for name, theta, a, f in curves:
                for x in grid:
                    rows.append((name, round(float(x), 4), predict(theta, float(x), a, f)))
    return rows


# --- parser -----------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; ``parse_args`` returns a
    fresh namespace on every call and leaves the parser unchanged."""
    parser = argparse.ArgumentParser(
        prog="cascadeq",
        description="Probabilistic failure networks: exact evolution, Monte Carlo, "
                    "and amplitude estimation on a statevector simulator.")
    parser.add_argument("--version", action="version", version=f"cascadeq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, model=True, steps=True):
        if model:
            p.add_argument("--model", required=True, help="model file (JSON)")
        if steps:
            p.add_argument("--steps", type=int, required=True, help="time horizon T")
        p.add_argument("--out", help="write output to this file instead of stdout")

    p = sub.add_parser("exact", help="exact distributions for t = 0..steps")
    common(p)
    p.set_defaults(handler=_cmd_exact)

    p = sub.add_parser("mc", help="Monte Carlo estimates of the step-T distribution")
    common(p)
    p.add_argument("--runs", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeats", type=int, default=1)
    p.set_defaults(handler=_cmd_mc)

    p = sub.add_parser("circuit", help="emit a gate listing")
    common(p)
    p.add_argument("--kind", choices=["model", "grover", "qae"], default="model")
    p.add_argument("--config", help="marked configuration pattern, e.g. 11 or 1*")
    p.add_argument("--bits", type=int, default=3, help="resolution for --kind qae")
    p.add_argument("--gates-out",
                   help="write the raw gate listing to this file instead of the report")
    p.set_defaults(handler=_cmd_circuit)

    p = sub.add_parser("qae", help="standard amplitude estimation (or eigenphase analysis)")
    common(p)
    p.add_argument("--config", required=True)
    p.add_argument("--bits", dest="bits_text", default="3",
                   help="resolution bits; int, list, or range like 3..5")
    p.add_argument("--shots", type=int, default=4096)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eigenphase", action="store_true",
                   help="report the exact Grover eigenphase instead of sampling")
    p.set_defaults(handler=_cmd_qae)

    p = sub.add_parser("lowdepth", help="run a Grover-power schedule and fit it")
    common(p)
    p.add_argument("--config", required=True)
    p.add_argument("--schedule", default="0..8", help="powers; e.g. 0..8 or 0,1,2,4")
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    noise = p.add_mutually_exclusive_group()
    noise.add_argument("--noise-epsilon", type=float,
                       help="per-Grover scramble probability")
    noise.add_argument("--noise-a", type=float,
                       help="per-Grover decay rate; epsilon = 1 - e^-a")
    p.add_argument("--fix-f", type=float, help="pin the scramble level f in the fit")
    p.set_defaults(handler=_cmd_lowdepth)

    p = sub.add_parser("fit", help="fit a trace file (header l,shots,marked)")
    p.add_argument("--trace", required=True)
    p.add_argument("--fix-f", type=float)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("plotdata", help="extract plottable CSV series from a report")
    p.add_argument("--report", required=True)
    p.add_argument("--figure", choices=["spread", "bits", "schedule"], required=True)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_plotdata)

    return parser


if __name__ == "__main__":
    sys.exit(main())
