"""The public surface of the package, pinned so that a name or parameter
only tests would use cannot come back unnoticed."""
import inspect

import cascadeq

PUBLIC = {
    "CascadeqError", "Circuit", "DegenerateSubspaceError", "DistributionTable",
    "EigenphaseResult", "FitDivergedError", "FitResult", "Gate", "GroverSpec",
    "LowDepthTrace", "McResult", "MissingSeriesError", "NetworkModel", "NoiseSpec",
    "ParseError", "QaeResult", "ResourceLimitError", "ValidationError", "build_grover",
    "build_model_circuit", "build_qae_circuit", "decode_outcome", "emit_gates", "evaluate",
    "evaluate_mc", "fit_noise_model", "fit_sine", "format_config", "grover_eigenphase",
    "load_model", "marginal", "max_depth", "min_shots", "parse_config", "parse_gates",
    "predict", "probabilities", "run", "run_schedule", "run_standard_qae", "save_model",
    "trace_from_text", "trace_to_text", "validate",
}


def test_public_names():
    names = {name for name, value in vars(cascadeq).items()
             if not name.startswith("_") and not inspect.ismodule(value)}
    assert names == PUBLIC


def test_public_parameters():
    def parameters(function):
        return list(inspect.signature(function).parameters)

    assert parameters(cascadeq.run) == ["circuit", "qubit_cap"]
    assert parameters(cascadeq.fit_sine) == ["trace"]
    assert parameters(cascadeq.fit_noise_model) == ["trace", "fix_f"]
