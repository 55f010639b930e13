"""Asymptotic weighted mutual information for MIMO ISAC systems.

A numpy library that evaluates the deterministic-equivalent (large-system)
sensing and communication mutual informations of a Weichselberger-channel
ISAC link via coupled fixed-point equations, optimizes the transmit
beamformer by projected gradient ascent, and cross-validates every closed
form against a finite-size Monte Carlo oracle.
"""

from ._linalg import SingularMatrixError
from .correlation import CorrelationOps
from .fixedpoint import (
    ConvergenceError,
    FixedPoint,
    SolverOptions,
    SpectralPoint,
    residual_comm,
    residual_sensing,
    solve_comm,
    solve_sensing,
)
from .mi import (
    MiReport,
    NonRealShannonError,
    cauchy_comm,
    cauchy_sensing,
    derivative_identity_check,
    shannon_comm,
    shannon_sensing,
    weighted_mi,
)
from .model import (
    Beamformer,
    DimensionError,
    GeometryConfig,
    NoiseConfig,
    ScenarioStats,
    SystemDims,
    WeichselbergerStats,
    default_beamformer,
    effective_los,
    generate_scenario,
    scenario_from_json,
    scenario_to_json,
    upa_steering,
    validate,
)
from .montecarlo import (
    McEstimate,
    eigen_ecdf,
    estimate,
    finite_mi_comm,
    finite_mi_sensing,
    mi_curves,
    sample_channels,
    sample_symbols,
)
from .optimizer import PgaAbort, PgaOptions, PgaTrace, gradient, pga, project

__version__ = "0.1.0"

__all__ = [
    "Beamformer",
    "ConvergenceError",
    "CorrelationOps",
    "DimensionError",
    "FixedPoint",
    "GeometryConfig",
    "McEstimate",
    "MiReport",
    "NoiseConfig",
    "NonRealShannonError",
    "PgaAbort",
    "PgaOptions",
    "PgaTrace",
    "ScenarioStats",
    "SingularMatrixError",
    "SolverOptions",
    "SpectralPoint",
    "SystemDims",
    "WeichselbergerStats",
    "cauchy_comm",
    "cauchy_sensing",
    "default_beamformer",
    "derivative_identity_check",
    "effective_los",
    "eigen_ecdf",
    "estimate",
    "finite_mi_comm",
    "finite_mi_sensing",
    "generate_scenario",
    "gradient",
    "mi_curves",
    "pga",
    "project",
    "residual_comm",
    "residual_sensing",
    "sample_channels",
    "sample_symbols",
    "scenario_from_json",
    "scenario_to_json",
    "shannon_comm",
    "shannon_sensing",
    "solve_comm",
    "solve_sensing",
    "upa_steering",
    "validate",
    "weighted_mi",
]
