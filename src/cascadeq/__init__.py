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
    FitResult,
    LowDepthTrace,
    NoiseSpec,
    fit_noise_model,
    fit_sine,
    max_depth,
    min_shots,
    predict,
    run_schedule,
    trace_from_text,
)
from .mc import McResult, evaluate_mc
from .model import (
    NetworkModel,
    format_config,
    load_model,
    parse_config,
)
from .qae import EigenphaseResult, QaeResult, decode_outcome, grover_eigenphase, run_standard_qae
from .sim import probabilities, run

__version__ = "0.1.0"
