"""Bang-bang volatility control: maximize the chance of ending above a level.

At every instant the controller must run one of two drift/volatility pairs,
(mu_bar, sigma_bar) or (mu_low, sigma_low) with 0 < sigma_low < sigma_bar,
and wants to maximize P(X_T >= a). The optimal rule is a moving threshold:
take the high-volatility pair exactly while the state sits at or below
a + alpha (T - t), with slope

    alpha = (mu_bar sigma_low - mu_low sigma_bar) / (sigma_bar - sigma_low).

The slope makes (mu_low + alpha)/sigma_low = (mu_bar + alpha)/sigma_bar, so
after the tilt Y_t = X_t - alpha (T - t) the optimally controlled state is
an ordinary threshold diffusion and the value function is the time-T
inverse Laplace transform of its resolvent integrated over [a, infinity).
"""

import math
from dataclasses import dataclass

import numpy as np

from .density import DensityQuery, transition_density
from .errors import AccuracyError, DomainError, InvalidParameterError
from .inversion import _vouched
from .params import DiffusionParams, _finite_real
from .potential import _tail_transform
from .quadrature import QuadSettings, integrate_finite

# The Talbot value is kept only when _vouched's second node count agrees with it
# within _TALBOT_GAP and it lies in [0, 1], both to two orders inside the
# quadrature route's 1e-7 tolerance.
_TALBOT_GAP = 1e-9
_TALBOT_RANGE_SLACK = 1e-9


@dataclass(frozen=True)
class ControlProblem:
    """Two-option control problem data.

    x0 is the simulation start state for controlled Monte Carlo runs; the
    analytic value function takes the start state as an argument instead.
    """

    mu_bar: float
    sigma_bar: float
    mu_low: float
    sigma_low: float
    a: float
    T: float
    x0: float = 0.0

    def __post_init__(self):
        vals = (self.mu_bar, self.sigma_bar, self.mu_low, self.sigma_low,
                self.a, self.T, self.x0)
        if not all(_finite_real(v) for v in vals):
            raise InvalidParameterError(
                f"control problem fields must be finite numbers, got {vals!r}")
        if not (0.0 < self.sigma_low < self.sigma_bar):
            raise InvalidParameterError(
                "volatilities must satisfy 0 < sigma_low < sigma_bar, got "
                f"sigma_low={self.sigma_low!r}, sigma_bar={self.sigma_bar!r}")
        if self.T <= 0.0:
            raise InvalidParameterError(f"horizon must be positive, got {self.T!r}")


def alpha(problem):
    """Slope of the moving switching threshold."""
    return ((problem.mu_bar * problem.sigma_low - problem.mu_low * problem.sigma_bar)
            / (problem.sigma_bar - problem.sigma_low))


def optimal_threshold(problem, t):
    """Switching level a + alpha (T - t); equals a at the horizon."""
    if not (0.0 <= t <= problem.T):
        raise DomainError(f"t must lie in [0, T]=[0, {problem.T!r}], got {t!r}")
    return problem.a + alpha(problem) * (problem.T - t)


@dataclass(frozen=True)
class _ThresholdPolicy:
    """Moving-threshold volatility rule, callable as policy(states, t).

    States at or below the line a + alpha (T - t) get `at_or_below`, states
    above it get `above`; ties at the line take `at_or_below`. alpha is
    stored, not recomputed. Returns an array shaped like `states`.
    """

    problem: ControlProblem
    alpha: float
    at_or_below: float
    above: float

    def __call__(self, states, t):
        level = self.problem.a + self.alpha * (self.problem.T - t)
        states = np.asarray(states, dtype=float)
        return np.where(states <= level, self.at_or_below, self.above)


def optimal_policy(problem):
    """The optimal rule: high volatility at or below the moving threshold, low above it."""
    return _ThresholdPolicy(problem, alpha(problem), problem.sigma_bar, problem.sigma_low)


def constant_bar_policy(problem):
    """Always the high-volatility pair (comparison policy)."""
    return _ThresholdPolicy(problem, alpha(problem), problem.sigma_bar, problem.sigma_bar)


def constant_low_policy(problem):
    """Always the low-volatility pair (comparison policy)."""
    return _ThresholdPolicy(problem, alpha(problem), problem.sigma_low, problem.sigma_low)


def reversed_threshold_policy(problem):
    """The optimal rule with the two options swapped (comparison policy)."""
    return _ThresholdPolicy(problem, alpha(problem), problem.sigma_low, problem.sigma_bar)


def _equivalent_params(problem):
    """Threshold-diffusion parameters of the tilted optimally controlled state."""
    al = alpha(problem)
    return DiffusionParams(problem.mu_bar + al, problem.mu_low + al,
                           problem.sigma_bar, problem.sigma_low, problem.a), al


def value_function(problem, x):
    """Maximal probability of finishing at or above the level a, from state x.

    The fast route inverts the closed-form Laplace transform of
    P(Y_T >= a) for the tilted state with the fixed-Talbot rule, and keeps
    that value only if it is finite, within 1e-9 of an inversion on more
    nodes and within 1e-9 of [0, 1] (then it is clamped). A fixed
    contour loses accuracy for tilted starts far from a, so otherwise the
    value falls back to a quadrature of the tilted transition density over
    [a, zmax], where zmax covers 12 terminal standard deviations plus the
    largest possible drift sweep; the sub-Gaussian tail allowance beyond
    zmax joins the quadrature error. A quadrature result outside [0, 1] by
    more than 1e-4 raises AccuracyError; smaller excursions are clamped.
    """
    if not _finite_real(x):
        raise DomainError(f"x must be a finite number, got {x!r}")
    params, al = _equivalent_params(problem)
    val = _talbot_value(params, problem.T, x - al * problem.T)
    return val if val is not None else _quadrature_value(problem, x)


def _talbot_value(params, T, y0):
    """Talbot inversion of the tail transform, or None when it cannot vouch for itself."""
    val = _vouched(lambda q: _tail_transform(params, q, y0), T, _TALBOT_GAP, 0.0)
    if val is None or not -_TALBOT_RANGE_SLACK <= val <= 1.0 + _TALBOT_RANGE_SLACK:
        return None
    return min(max(val, 0.0), 1.0)


def _quadrature_value(problem, x):
    """z-quadrature of the tilted transition density over [a, zmax]."""
    params, al = _equivalent_params(problem)
    T = problem.T
    y0 = x - al * T
    drift_span = abs(problem.mu_bar) + abs(problem.mu_low) + abs(al)
    zmax = problem.a + 12.0 * problem.sigma_bar * math.sqrt(T) + drift_span * T
    outer = QuadSettings(abs_tol=1e-7, rel_tol=1e-7, max_subdivisions=400)

    def f(zs):
        return np.array([transition_density(DensityQuery(params, T, y0, z))
                         for z in np.asarray(zs, dtype=float)])

    val, err = integrate_finite(f, problem.a, zmax, settings=outer,
                                seed_points=(y0,) if problem.a < y0 < zmax else None)
    margin = (zmax - max(y0, problem.a) - drift_span * T) / (problem.sigma_bar * math.sqrt(T))
    tail = math.exp(-0.5 * margin * margin) if margin > 0 else 1.0
    err += tail
    if val < -1e-4 or val > 1.0 + 1e-4:
        raise AccuracyError(
            f"value function estimate {val!r} lies outside [0, 1] beyond tolerance",
            estimate=val, error_estimate=err)
    return min(max(val, 0.0), 1.0)
