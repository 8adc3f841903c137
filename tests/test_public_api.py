"""The public surface of the package, pinned so that a name or parameter
only tests would use cannot come back unnoticed."""
import dataclasses
import importlib
import inspect
import pkgutil

import cascadeq
from cascadeq import sim

PUBLIC = {
    "CascadeqError", "Circuit", "DegenerateSubspaceError", "DistributionTable",
    "EigenphaseResult", "FitDivergedError", "FitResult", "Gate", "GroverSpec",
    "LowDepthTrace", "McResult", "MissingSeriesError", "NetworkModel", "NoiseSpec",
    "ParseError", "QaeResult", "ResourceLimitError", "ValidationError", "build_grover",
    "build_model_circuit", "build_qae_circuit", "decode_outcome", "emit_gates", "evaluate",
    "evaluate_mc", "fit_noise_model", "fit_sine", "format_config", "grover_eigenphase",
    "load_model", "marginal", "max_depth", "min_shots", "parse_config", "parse_gates",
    "predict", "probabilities", "run", "run_schedule", "run_standard_qae", "trace_from_text",
}


def test_public_names():
    names = {name for name, value in vars(cascadeq).items()
             if not name.startswith("_") and not inspect.ismodule(value)}
    assert names == PUBLIC


def test_sim_names():
    assert sim.__all__ == ["run", "check_run_size", "probabilities"]


def test_every_submodule_all_resolves():
    listed = 0
    for info in pkgutil.iter_modules(cascadeq.__path__):
        module = importlib.import_module(f"cascadeq.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"cascadeq.{info.name}.{name}"
            listed += 1
    assert listed > 0


def test_public_parameters():
    def parameters(function):
        return list(inspect.signature(function).parameters)

    assert parameters(cascadeq.run) == ["circuit"]
    assert parameters(sim.check_run_size) == ["n"]
    assert parameters(cascadeq.run_standard_qae) == ["model", "horizon", "spec", "bits", "shots",
                                                     "seed"]
    assert parameters(cascadeq.grover_eigenphase) == ["model", "horizon", "spec"]
    assert parameters(cascadeq.build_grover) == ["model", "horizon", "spec"]
    assert parameters(cascadeq.build_qae_circuit) == ["model", "horizon", "spec", "bits"]
    assert parameters(cascadeq.run_schedule) == ["model", "horizon", "spec", "schedule", "shots",
                                                 "noise", "seed"]
    assert parameters(cascadeq.fit_sine) == ["trace"]
    assert parameters(cascadeq.fit_noise_model) == ["trace", "fix_f"]


def test_grover_spec_is_the_marked_pattern_alone():
    # the marked register is the horizon's: a spec holds no step of its own
    assert [f.name for f in dataclasses.fields(cascadeq.GroverSpec)] == ["marked"]
    assert list(inspect.signature(cascadeq.GroverSpec.from_config).parameters) == ["text"]
