"""Free-boundary reaction-diffusion simulator for vector-borne disease fronts."""

from .coefficients import (
    CoefficientField,
    LinearizationMatrix,
    TemporalHarmonic,
    spatial_profile,
)
from .model import InitialData, ModelSpec
from .transform import FrontGeometry
from .solver import (
    FrontState,
    SolverConfig,
    Trajectory,
    boundary_derivative,
    simulate,
    step,
)
from .lyapunov import (
    EstimatorConfig,
    LyapunovEstimate,
    lambda_sweep,
    lyapunov_constant_oracle,
    lyapunov_exponent,
)
from .thresholds import (
    BadBracketError,
    Classification,
    LStarConfig,
    MuStarConfig,
    NotConvergedError,
    classify,
    find_L_star,
    find_mu_star,
)
from .config import RunConfig, load_config, parse_config, render_config

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
