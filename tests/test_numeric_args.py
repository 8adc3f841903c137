"""Every numeric parameter of every public callable, set in turn to each of
1.5, -1, NaN, inf, 10**400, 0 and 2**63: each call returns, or raises a
CascadeqError, within three seconds. No other exception leaves the package
and no call hangs.

The cases are a fixed list, so every run checks the same ones.
"""
import json
import math
import signal

import numpy as np
import pytest

import cascadeq
from cascadeq import (
    CascadeqError,
    Circuit,
    DistributionTable,
    EigenphaseResult,
    FitResult,
    Gate,
    GroverSpec,
    LowDepthTrace,
    McResult,
    NetworkModel,
    NoiseSpec,
    QaeResult,
)
from cascadeq.sim import check_run_size
from test_public_api import PUBLIC

BAD = {"1.5": 1.5, "-1": -1, "nan": math.nan, "inf": math.inf, "10**400": 10 ** 400,
       "0": 0, "2**63": 2 ** 63}

HUGE = {"10**400", "2**63"}

MODEL = NetworkModel((0.2, 0.3), (0.5, 0.4), ((0.0, 0.5), (0.3, 0.0)))
SPEC = GroverSpec(((1, 1), (2, 1)))
TRACE = LowDepthTrace((0, 1, 2, 4), (100,) * 4, (40, 70, 20, 90))
TABLE = DistributionTable(2, {0: 0.25, 3: 0.75})


def _model_file(p_fail) -> str:
    # json writes NaN and Infinity, which json.loads reads back
    return json.dumps({"nodes": [{"name": "a", "p_fail": 0.1, "p_recover": 0.5},
                                 {"name": "b", "p_fail": 0.2, "p_recover": 0.4}],
                       "triggers": [{"from": "a", "to": "b", "p": 0.3}]}
                      ).replace("0.1", json.dumps(p_fail), 1)


def _trace_file(row) -> str:
    return "l,shots,marked\n0,100,40\n" + ",".join(map(str, row)) + "\n"


# per public name, one call per numeric parameter: (parameter, call of the value)
CALLS = {
    "Circuit": [("n_qubits", lambda v: Circuit(v, ()))],
    "Gate": [("angle", lambda v: Gate("ry", (0,), angle=v)),
             ("target", lambda v: Gate("x", (v,))),
             ("control", lambda v: Gate("x", (0,), ((v, 1),)))],
    "GroverSpec": [("node", lambda v: GroverSpec(((v, 1),))),
                   ("bit", lambda v: GroverSpec(((1, v),)))],
    "DistributionTable": [("k", lambda v: DistributionTable(v, {0: 1.0})),
                          ("key", lambda v: DistributionTable(2, {v: 1.0})),
                          ("probability", lambda v: DistributionTable(2, {0: v}))],
    "NetworkModel": [("p_fail", lambda v: NetworkModel([v], [0.1], [[0.0]])),
                     ("p_recover", lambda v: NetworkModel([0.1], [v], [[0.0]])),
                     ("p_trigger", lambda v: NetworkModel([0.1] * 2, [0.1] * 2,
                                                          [[0.0, v], [0.0, 0.0]])),
                     ("from_triggers node", lambda v: NetworkModel.from_triggers(
                         [0.1] * 2, [0.1] * 2, {(1, v): 0.5})),
                     ("from_triggers p", lambda v: NetworkModel.from_triggers(
                         [0.1] * 2, [0.1] * 2, {(1, 2): v}))],
    "NoiseSpec": [("per_grover_error", NoiseSpec),
                  ("from_decay_rate", NoiseSpec.from_decay_rate)],
    "LowDepthTrace": [("schedule", lambda v: LowDepthTrace((v,), (10,), (5,))),
                      ("shots", lambda v: LowDepthTrace((0,), (v,), (0,))),
                      ("marked", lambda v: LowDepthTrace((0,), (10,), (v,)))],
    "McResult": [(name, lambda v, name=name: McResult(**{
        "k": 1, "counts": {0: 1}, "runs": 1, "p_on_rows": 1, "workers": 1, name: v}))
                 for name in ("k", "runs", "p_on_rows", "workers")],
    "QaeResult": [(name, lambda v, name=name: QaeResult(**{
        "bits": 1, "outcome_counts": {0: 1}, "modal_outcome": 0, "theta": 0.0,
        "probability": 0.0, "residual": 0.0, name: v}))
                  for name in ("bits", "modal_outcome", "theta", "probability", "residual")],
    "EigenphaseResult": [(name, lambda v, name=name: EigenphaseResult(**{
        "theta": 0.0, "lambda_plus": 1j, "lambda_minus": -1j, "probability": 0.0,
        "residual": 0.0, name: v})) for name in ("theta", "probability", "residual")],
    "FitResult": [(name, lambda v, name=name: FitResult(**{
        "theta": 0.0, "a": 0.0, "f": 0.0, "probability": 0.0, "loss": 0.0,
        "iterations": 1, "converged": True, "n_starts": 1, name: v}))
                  for name in ("theta", "a", "f", "probability", "loss", "iterations",
                               "n_starts")],
    "build_model_circuit": [("horizon", lambda v: cascadeq.build_model_circuit(MODEL, v))],
    "build_grover": [("horizon", lambda v: cascadeq.build_grover(MODEL, v, SPEC))],
    "build_qae_circuit": [("horizon", lambda v: cascadeq.build_qae_circuit(MODEL, v, SPEC, 2)),
                          ("bits", lambda v: cascadeq.build_qae_circuit(MODEL, 2, SPEC, v))],
    "parse_gates": [("n_qubits", lambda v: cascadeq.parse_gates("", v))],
    "evaluate": [("horizon", lambda v: cascadeq.evaluate(MODEL, v))],
    "marginal": [("node", lambda v: cascadeq.marginal(TABLE, [v], [1])),
                 ("state", lambda v: cascadeq.marginal(TABLE, [1], [v]))],
    "evaluate_mc": [("horizon", lambda v: cascadeq.evaluate_mc(MODEL, v, 10, 0)),
                    ("runs", lambda v: cascadeq.evaluate_mc(MODEL, 2, v, 0)),
                    ("seed", lambda v: cascadeq.evaluate_mc(MODEL, 2, 10, v)),
                    ("seed entry", lambda v: cascadeq.evaluate_mc(MODEL, 2, 10, (1, v)))],
    "format_config": [("value", lambda v: cascadeq.format_config(v, 3)),
                      ("k", lambda v: cascadeq.format_config(1, v))],
    "load_model": [("p_fail", lambda v: cascadeq.load_model(_model_file(v)))],
    "decode_outcome": [("outcome", lambda v: cascadeq.decode_outcome(v, 3)),
                       ("bits", lambda v: cascadeq.decode_outcome(1, v))],
    "run_standard_qae": [
        ("horizon", lambda v: cascadeq.run_standard_qae(MODEL, v, SPEC, 3, 100, 0)),
        ("bits", lambda v: cascadeq.run_standard_qae(MODEL, 2, SPEC, v, 100, 0)),
        ("shots", lambda v: cascadeq.run_standard_qae(MODEL, 2, SPEC, 3, v, 0)),
        ("seed", lambda v: cascadeq.run_standard_qae(MODEL, 2, SPEC, 3, 100, v))],
    "grover_eigenphase": [("horizon", lambda v: cascadeq.grover_eigenphase(MODEL, v, SPEC))],
    "probabilities": [("qubit", lambda v: cascadeq.probabilities(np.array([1.0, 0.0]), [v]))],
    "run_schedule": [
        ("horizon", lambda v: cascadeq.run_schedule(MODEL, v, SPEC, [0, 1], 10)),
        ("schedule", lambda v: cascadeq.run_schedule(MODEL, 2, SPEC, [0, v], 10)),
        ("shots", lambda v: cascadeq.run_schedule(MODEL, 2, SPEC, [0, 1], v)),
        ("shots entry", lambda v: cascadeq.run_schedule(MODEL, 2, SPEC, [0, 1], [10, v])),
        ("seed", lambda v: cascadeq.run_schedule(MODEL, 2, SPEC, [0, 1], 10, seed=v))],
    "fit_noise_model": [("fix_f", lambda v: cascadeq.fit_noise_model(TRACE, fix_f=v))],
    "predict": [("theta", lambda v: cascadeq.predict(v, 1, 0.1, 0.5)),
                ("power", lambda v: cascadeq.predict(1.0, v, 0.1, 0.5)),
                ("a", lambda v: cascadeq.predict(1.0, 1, v, 0.5)),
                ("f", lambda v: cascadeq.predict(1.0, 1, 0.1, v))],
    "min_shots": [("a", lambda v: cascadeq.min_shots(v, 3, 0.5)),
                  ("power", lambda v: cascadeq.min_shots(0.1, v, 0.5)),
                  ("f", lambda v: cascadeq.min_shots(0.1, 3, v))],
    "max_depth": [("a", lambda v: cascadeq.max_depth(v, 100, 0.5)),
                  ("shots", lambda v: cascadeq.max_depth(0.1, v, 0.5)),
                  ("f", lambda v: cascadeq.max_depth(0.1, 100, v))],
    "trace_from_text": [("power", lambda v: cascadeq.trace_from_text(_trace_file((v, 10, 5)))),
                        ("shots", lambda v: cascadeq.trace_from_text(_trace_file((1, v, 0)))),
                        ("marked", lambda v: cascadeq.trace_from_text(_trace_file((1, 10, v))))],
    "check_run_size": [("n", check_run_size)],
}

# public names whose callables take no number: messages, texts, circuits,
# states, traces and models are checked where they are built
NO_NUMBER = {
    "CascadeqError", "DegenerateSubspaceError", "FitDivergedError", "MissingSeriesError",
    "ParseError", "ResourceLimitError", "ValidationError", "emit_gates", "fit_sine",
    "parse_config", "run",
}

# a huge horizon of a Monte Carlo run only lengthens its steps, each of them
# bounded in memory: the run is refused by nothing and takes that long
SKIP_HUGE = {("evaluate_mc", "horizon"): "a step per unit of horizon, each bounded in memory"}

CASES = [pytest.param(name, parameter, call, value, id=f"{name}-{parameter}-{label}")
         for name, calls in CALLS.items() for parameter, call in calls
         for label, value in BAD.items()
         if not (label in HUGE and (name, parameter) in SKIP_HUGE)]


def test_every_public_name_is_covered():
    assert not PUBLIC - CALLS.keys() - NO_NUMBER
    assert not (CALLS.keys() | NO_NUMBER) - PUBLIC - {"check_run_size"}


def _expire(signum, frame):
    raise TimeoutError("still running after 3 s")


@pytest.mark.parametrize("name, parameter, call, value", CASES)
def test_a_bad_number_returns_or_raises_a_package_error(name, parameter, call, value):
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(3)
    try:
        call(value)
    except CascadeqError:
        pass
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("call", [
    lambda: cascadeq.run_standard_qae(MODEL, 2, SPEC, 3, 1.5, 0),
    lambda: cascadeq.min_shots(0.1, 1.5, 0.5),
], ids=["run_standard_qae-shots", "min_shots-power"])
def test_a_fractional_count_is_refused_not_truncated(call):
    with pytest.raises(CascadeqError):
        call()
