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

from .errors import AccuracyError, DomainError, InvalidParameterError
from .inversion import _vouched
from .params import DiffusionParams, _check_type, _real, _store_reals, h_kernel
from .potential import _tail_transform
from .quadrature import QuadSettings, _h_mode, _layer_seeds, integrate_finite

# A Talbot value is kept only when _vouched's second node count agrees with it
# within _TALBOT_GAP; the whole-horizon value must also lie in [0, 1]. The split
# at the first hit integrates to 1e-10, so the two routes agree within about 1e-9.
_TALBOT_GAP = 1e-9
_TALBOT_RANGE_SLACK = 1e-9
_SPLIT_SETTINGS = QuadSettings(abs_tol=1e-10, rel_tol=1e-10)


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
        _store_reals(self, ("mu_bar", "sigma_bar", "mu_low", "sigma_low", "a", "T", "x0"),
                     positive=("T",))
        if not (0.0 < self.sigma_low < self.sigma_bar):
            raise InvalidParameterError(
                "volatilities must satisfy 0 < sigma_low < sigma_bar, got "
                f"sigma_low={self.sigma_low!r}, sigma_bar={self.sigma_bar!r}")


def alpha(problem):
    """Slope of the moving switching threshold; InvalidParameterError where it
    leaves the double range."""
    _check_type(problem, ControlProblem, "problem")
    slope = ((problem.mu_bar * problem.sigma_low - problem.mu_low * problem.sigma_bar)
             / (problem.sigma_bar - problem.sigma_low))
    if not math.isfinite(slope):
        raise InvalidParameterError(f"the threshold slope alpha of {problem!r} is not finite")
    return slope


def optimal_threshold(problem, t):
    """Switching level a + alpha (T - t); equals a at the horizon."""
    _check_type(problem, ControlProblem, "problem")
    t = _real(t, "t")
    if not 0.0 <= t <= problem.T:
        raise DomainError(f"t must lie in [0, T]=[0, {problem.T!r}], got {t!r}")
    return optimal_policy(problem).level(t)


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

    def level(self, t):
        """The switching line a + alpha (T - t) at time t."""
        return self.problem.a + self.alpha * (self.problem.T - t)

    def __call__(self, states, t):
        states = np.asarray(states, dtype=float)
        return np.where(states <= self.level(t), self.at_or_below, self.above)


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
    nodes and within 1e-9 of [0, 1] (then it is clamped). A fixed contour
    loses accuracy for tilted starts far from a; there the value is split
    at the first hit of a instead (_first_passage_value), which raises
    AccuracyError when its own inversions cannot vouch for themselves.
    """
    x = _real(x, "x")
    params, al = _equivalent_params(problem)
    y0 = x - al * problem.T
    val = _talbot_value(params, problem.T, y0)
    return val if val is not None else _first_passage_value(params, problem.T, y0)


def _talbot_value(params, T, y0):
    """Talbot inversion of the tail transform, or None when it cannot vouch for itself."""
    val = _vouched(lambda q: _tail_transform(params, q, y0), T, _TALBOT_GAP, 0.0)
    if val is None or not -_TALBOT_RANGE_SLACK <= val <= 1.0 + _TALBOT_RANGE_SLACK:
        return None
    return min(max(val, 0.0), 1.0)


def _first_passage_value(params, T, y0):
    """P(Y_T >= a) from y0, split at the first hit of a (strong Markov property).

    With f the first-passage density toward a of the regime on y0's side and
    u(s) = P_a(Y_s >= a), which has no transport delay and inverts well,

        y0 < a:  V = int_0^T f(tau) u(T - tau) dtau
        y0 > a:  V = 1 - int_0^T f(tau) (1 - u(T - tau)) dtau.

    The integral is cut at T/2 and its second half taken in s = T - tau, so f's
    early mass and u's layer at s -> 0 are each integrated in their own variable.
    """
    a = params.a
    mu, sigma = (params.mu1, params.sigma1) if y0 <= a else (params.mu2, params.sigma2)
    y = abs(y0 - a) / sigma
    v = mu / sigma if y0 < a else -mu / sigma  # standardized drift toward a
    if y - max(v, 0.0) * T > 40.0 * math.sqrt(T):
        return 0.0 if y0 < a else 1.0  # a is hit by T with probability below 1e-300

    def g(s):  # u(s) below a and 1 - u(s) above it, for a time or an array of times
        u = _vouched(lambda q: _tail_transform(params, q, a), s, _TALBOT_GAP, 0.0)
        if u is None:
            raise AccuracyError(f"P_a(Y_s >= a) does not invert within {_TALBOT_GAP} "
                                f"for s in (0, {T!r}]")
        return u if y0 < a else 1.0 - u

    if y == 0.0:
        hit = g(T)  # f is a point mass at tau = 0
    else:
        mode = _h_mode(y, v)
        # past v = 1e100, v ** 3 overflows; there, or wherever the peak is narrower
        # than the spacing of doubles at its mode, no panel can resolve f
        width = math.sqrt(y / v ** 3) if 0.0 < v < 1e100 else 0.0
        if v > 0.0 and not mode < mode + width:
            raise AccuracyError(f"the first-passage density toward a, of standardized "
                                f"drift {v!r} over {y!r}, is too sharp to integrate")
        if math.isnan(mode):  # past |v| = 1e154, v * v overflows; here v < 0
            raise DomainError(f"the standardized drift {v!r} away from a is out of range")
        peak = [mode + k * width for k in (-4, -2, -1, 0, 1, 2, 4)]
        early, _ = integrate_finite(lambda tau: h_kernel(tau, y, -v) * g(T - tau),
                                    0.0, 0.5 * T, _SPLIT_SETTINGS, peak)
        late, _ = integrate_finite(lambda s: h_kernel(T - s, y, -v) * g(s), 0.0, 0.5 * T,
                                   _SPLIT_SETTINGS, [T - p for p in peak] + _layer_seeds(T, 0.0))
        hit = early + late
    return min(max(hit if y0 < a else 1.0 - hit, 0.0), 1.0)
