"""Command-line interface.

Verbs: exact, mc, circuit, qae, lowdepth, fit, plotdata. Every verb emits a
JSON run report on stdout (or ``--out``): command, echoed inputs, a results
block, and the wall-clock duration. The results block is bit-identical
across reruns with the same inputs and seeds. ``fit`` and ``lowdepth``
reports add a ``metrics`` block with each fit's iterations, start count and
converged flag; a fit that did not converge also prints a warning on
stderr. ``plotdata`` instead emits CSV series extracted from a previously
written report.

Exit codes: 0 success, 1 validation/parse problems, 2 resource limit,
3 fit divergence.
"""
from __future__ import annotations

import argparse
import json
import math
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
)
from .exact import evaluate, marginal
from .lowdepth import (
    FitResult,
    LowDepthTrace,
    fit_noise_model,
    fit_sine,
    predict,
    run_schedule,
    trace_from_text,
)
from .mc import evaluate_mc
from .model import format_config, load_model
from .qae import grover_eigenphase, run_standard_qae
from .sim import DEFAULT_QUBIT_CAP, NoiseSpec

_CURVE_STEP = 0.05


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors; 2 means resource-limit here
        return 0 if exc.code == 0 else 1
    started = time.perf_counter()
    try:
        command, inputs, results, payload, metrics = args.handler(args)
    except (ParseError, MissingSeriesError) as exc:
        print(f"error ({exc.code}): {exc}", file=sys.stderr)
        return 1
    except ResourceLimitError as exc:
        print(f"error ({exc.code}): {exc}", file=sys.stderr)
        return 2
    except FitDivergedError as exc:
        print(f"error ({exc.code}): {exc}", file=sys.stderr)
        return 3
    except CascadeqError as exc:
        print(f"error ({exc.code}): {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error (io): {exc}", file=sys.stderr)
        return 1
    if payload is None:
        report = {
            "tool": {"name": "cascadeq", "version": __version__},
            "command": command,
            "inputs": inputs,
            "results": results,
            "duration_seconds": time.perf_counter() - started,
        }
        if metrics is not None:
            report["metrics"] = metrics
        payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
    _write(payload, args.out)
    return 0


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _load_model_file(path: str):
    with open(path, encoding="utf-8") as handle:
        return load_model(handle.read())


def _parse_int_list(text: str) -> list[int]:
    """Parse "0..8" / "0,1,4" / mixtures of both."""
    values: list[int] = []
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
            values.extend(range(lo_i, hi_i + 1))
        else:
            try:
                values.append(int(token))
            except ValueError as exc:
                raise ParseError(f"bad integer {token!r}") from exc
    return values


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
    return "exact", {"model": args.model, "steps": args.steps}, results, None, None


def _cmd_mc(args):
    if args.repeats < 1:
        raise ValidationError("--repeats must be >= 1", code="invalid-repeats")
    model = _load_model_file(args.model)
    repeats = []
    for rep in range(args.repeats):
        result = evaluate_mc(model, args.steps, args.runs, seed=(args.seed, rep))
        repeats.append(result)
    k = model.k
    results = {
        "runs": args.runs,
        "repeats": [
            {
                "counts": {format_config(c, k): n for c, n in sorted(r.counts.items())},
                "estimates": {format_config(c, k): e for c, e in sorted(r.estimates.items())},
            }
            for r in repeats
        ],
    }
    if args.repeats > 1:
        # a configuration no repeat saw has spread exactly 0.0 and is left out
        estimates = [r.estimates for r in repeats]
        seen = sorted(set().union(*estimates))
        results["spread"] = {
            format_config(c, k): float(np.std([e.get(c, 0.0) for e in estimates]))
            for c in seen
        }
    inputs = {"model": args.model, "steps": args.steps, "runs": args.runs,
              "seed": args.seed, "repeats": args.repeats}
    return "mc", inputs, results, None, None


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
    if args.kind == "model":
        circuit = build_model_circuit(model, args.steps)
    elif args.kind == "grover":
        circuit = build_grover(model, args.steps, _grover_spec(args, model))
    else:
        circuit = build_qae_circuit(model, args.steps, _grover_spec(args, model), args.bits)
    text = emit_gates(circuit)
    if args.gates_out:
        with open(args.gates_out, "w", encoding="utf-8") as handle:
            handle.write(text)
    results = {
        "kind": args.kind,
        "n_qubits": circuit.n_qubits,
        "gate_count": len(circuit.gates),
        "gates": text,
    }
    inputs = {"model": args.model, "steps": args.steps, "kind": args.kind,
              "config": args.config, "bits": args.bits}
    return "circuit", inputs, results, None, None


def _cmd_qae(args):
    model = _load_model_file(args.model)
    spec = _grover_spec(args, model)
    inputs = {"model": args.model, "steps": args.steps, "config": args.config,
              "seed": args.seed, "shots": args.shots}
    if args.eigenphase:
        result = grover_eigenphase(model, args.steps, spec, qubit_cap=args.qubit_cap)
        results = {
            "eigenphase": {
                "theta": result.theta,
                "lambda_plus": [result.lambda_plus.real, result.lambda_plus.imag],
                "lambda_minus": [result.lambda_minus.real, result.lambda_minus.imag],
                "probability": result.probability,
                "residual": result.residual,
            }
        }
        return "qae", inputs, results, None, None
    bits_list = _parse_int_list(args.bits_text)
    sweep = []
    for bits in bits_list:
        r = run_standard_qae(model, args.steps, spec, bits, args.shots,
                             seed=(args.seed, bits), qubit_cap=args.qubit_cap)
        sweep.append({
            "bits": bits,
            "outcome_counts": {str(y): n for y, n in sorted(r.outcome_counts.items())},
            "modal_outcome": r.modal_outcome,
            "theta": r.theta,
            "probability": r.probability,
        })
    inputs["bits"] = bits_list
    return "qae", inputs, {"sweep": sweep}, None, None


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
                         noise=noise, seed=args.seed, qubit_cap=args.qubit_cap)
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
    return "lowdepth", inputs, results, None, metrics


def _cmd_fit(args):
    with open(args.trace, encoding="utf-8") as handle:
        trace = trace_from_text(handle.read())
    fits, metrics = _fit_blocks(trace, args.fix_f)
    results = {"trace": _trace_dict(trace), **fits}
    return "fit", {"trace": args.trace, "fix_f": args.fix_f}, results, None, metrics


def _cmd_plotdata(args):
    with open(args.report, encoding="utf-8") as handle:
        try:
            report = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ParseError(f"report file is not valid JSON: {exc}") from exc
    results = report.get("results", {})
    rows = [("series", "x", "y")]
    if args.figure == "spread":
        repeats = results.get("repeats")
        if not repeats or "runs" not in results:
            raise MissingSeriesError("report has no repeated estimate series")
        runs = results["runs"]
        for rep in repeats:
            for config, estimate in rep["estimates"].items():
                rows.append((config, runs, estimate))
    elif args.figure == "bits":
        sweep = results.get("sweep")
        if not sweep:
            raise MissingSeriesError("report has no resolution sweep series")
        for entry in sweep:
            rows.append(("estimate", entry["bits"], entry["probability"]))
    elif args.figure == "schedule":
        trace = results.get("trace")
        if not trace or not trace.get("schedule"):
            raise MissingSeriesError("report has no schedule trace series")
        for power, shots, marked in zip(trace["schedule"], trace["shots"], trace["marked"]):
            rows.append(("measured", power, marked / shots))
        grid = np.arange(0.0, max(trace["schedule"]) + _CURVE_STEP / 2, _CURVE_STEP)
        if "exact_theta" in results:
            theta = results["exact_theta"]
            for x in grid:
                rows.append(("exact", round(float(x), 4), predict(theta, float(x), 0.0, 0.0)))
        fit = results.get("noise_fit")
        if fit:
            for x in grid:
                value = predict(fit["theta"], float(x), fit["a"], min(max(fit["f"], 0.0), 1.0))
                rows.append(("fitted", round(float(x), 4), value))
    else:  # pragma: no cover - argparse restricts choices
        raise ParseError(f"unknown figure {args.figure!r}")
    payload = "\n".join(",".join(str(v) for v in row) for row in rows) + "\n"
    return "plotdata", {"report": args.report, "figure": args.figure}, {}, payload, None


# --- parser -----------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--gates-out", help="also write the raw gate listing to this file")
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
    p.add_argument("--qubit-cap", type=int, default=DEFAULT_QUBIT_CAP)
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
    p.add_argument("--qubit-cap", type=int, default=DEFAULT_QUBIT_CAP)
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
