"""Quantum-jump trajectory simulation of measurement-modified decay.

A two-level system is monitored by a dissipative two-level detector; the
detector's spontaneous emission is unraveled into stochastic quantum jumps.
Ensembles of trajectories reproduce density-matrix dynamics, and the decay
rates of a driven two-level system and of a system coupled to a discretized
reservoir band shift with the measurement time: frequent measurement slows
the decay, and with a sufficiently sloped band coupling it accelerates it.
"""

__version__ = "0.1.0"

from .models import (
    DetectorMeasurementModel,
    DetectorParams,
    DriveParams,
    FreeDecayModel,
    MeasuredDecayModel,
    RabiMeasuredModel,
    ReservoirSpec,
)
from .engine import (
    JumpProbabilityWarning,
    ProbabilityOverflow,
    RngStream,
    TrajectoryRecord,
    ZeroNorm,
    run_trajectory,
)
from .ensemble import (
    EnsembleStatistics,
    FitResult,
    NonPositiveValues,
    block_rate_estimate,
    default_fit_window,
    fit_exponential_rate,
    run_ensemble,
)
from .config import (
    ConfigError,
    DEFAULT_MASTER_SEED,
    ModelSpec,
    RunConfig,
    build_model,
    load_config_file,
    preset,
    preset_names,
)
from . import acceptance, dmref, oracles, output

__all__ = [
    "DetectorParams", "DriveParams", "ReservoirSpec", "ModelSpec",
    "DetectorMeasurementModel", "RabiMeasuredModel", "FreeDecayModel",
    "MeasuredDecayModel", "build_model",
    "RngStream", "TrajectoryRecord", "ProbabilityOverflow",
    "JumpProbabilityWarning", "ZeroNorm", "run_trajectory",
    "EnsembleStatistics", "FitResult", "NonPositiveValues", "run_ensemble",
    "fit_exponential_rate", "default_fit_window", "block_rate_estimate",
    "RunConfig", "ConfigError", "DEFAULT_MASTER_SEED", "preset",
    "preset_names", "load_config_file",
    "acceptance", "dmref", "oracles", "output",
]
