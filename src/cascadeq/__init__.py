"""Discrete-time probabilistic failure networks with exact, Monte Carlo, and
quantum-amplitude-estimation evaluation on a built-in statevector simulator."""

from .circuit import (
    Circuit,
    Gate,
    GroverSpec,
    build_grover,
    build_model_circuit,
    build_qae_circuit,
    emit_gates,
    parse_gates,
    theta_init,
    theta_recover,
    theta_trigger,
)
from .errors import (
    CascadeqError,
    DegenerateSubspaceError,
    FitDivergedError,
    MissingSeriesError,
    ParseError,
    ResourceLimitError,
    ValidationError,
)
from .exact import DistributionTable, evaluate, marginal
from .lowdepth import (
    FitConfig,
    FitResult,
    LowDepthTrace,
    fit_noise_model,
    fit_sine,
    max_depth,
    min_shots,
    predict,
    run_schedule,
    trace_from_text,
    trace_to_text,
)
from .mc import McResult, evaluate_mc
from .model import (
    NetworkModel,
    config_bits,
    config_int,
    format_config,
    load_model,
    parse_config,
    save_model,
    validate,
)
from .qae import EigenphaseResult, QaeResult, decode_outcome, grover_eigenphase, run_standard_qae
from .sim import (
    NoiseSpec,
    extract_unitary,
    marginal_probability,
    probabilities,
    run,
    sample_counts,
)

__version__ = "0.1.0"
