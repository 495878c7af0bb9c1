"""Numerics for one-dimensional threshold (regime-switching) diffusions.

The process follows one drift/volatility pair at or below a level a and
another pair above it. This package evaluates its exit-time Laplace
transforms, q-potential densities, transition densities, stationary law,
and the bang-bang control value function built on them, with Monte Carlo
cross-checks. The quadrature and Laplace-inversion engines behind them are
internal, in the quadrature and inversion modules.
"""

from .control import (
    ControlProblem,
    alpha,
    constant_bar_policy,
    constant_low_policy,
    optimal_policy,
    optimal_threshold,
    reversed_threshold_policy,
    value_function,
)
from .density import (
    DensityQuery,
    density_jump_at_threshold,
    is_time_reversible,
    oscillating_bm_density,
    stationary_density,
    transition_density,
)
from .errors import (
    AccuracyError,
    DegenerateIntervalError,
    DomainError,
    IntegrandError,
    InvalidParameterError,
    NoStationaryLawError,
    PolicyError,
    ThresholdDiffusionError,
)
from .exit import (
    ExitQuery,
    g_minus,
    g_plus,
    one_sided_down,
    one_sided_up,
    two_sided_exit,
)
from .params import DiffusionParams, make_params
from .potential import PotentialQuery, potential_density
from .simulate import (
    PathEnsemble,
    SimConfig,
    empirical_hitting_transform,
    simulate_paths,
    simulate_policy,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "ControlProblem",
    "DegenerateIntervalError",
    "DensityQuery",
    "DiffusionParams",
    "DomainError",
    "ExitQuery",
    "IntegrandError",
    "InvalidParameterError",
    "NoStationaryLawError",
    "PathEnsemble",
    "PolicyError",
    "PotentialQuery",
    "SimConfig",
    "ThresholdDiffusionError",
    "alpha",
    "constant_bar_policy",
    "constant_low_policy",
    "density_jump_at_threshold",
    "empirical_hitting_transform",
    "g_minus",
    "g_plus",
    "is_time_reversible",
    "make_params",
    "one_sided_down",
    "one_sided_up",
    "optimal_policy",
    "optimal_threshold",
    "oscillating_bm_density",
    "potential_density",
    "reversed_threshold_policy",
    "simulate_paths",
    "simulate_policy",
    "stationary_density",
    "transition_density",
    "two_sided_exit",
    "value_function",
]
