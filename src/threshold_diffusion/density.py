"""Transition density p(t; x, z) of the threshold diffusion.

For a start state above the threshold the density is a reflected
Gaussian pair (same-side, no crossing of a) plus a double integral of
two first-passage kernels convolved in time and integrated over the
crossing overshoot b. Start states below the threshold reuse the same
code path through the reflection

    p(t; x, z; mu1, mu2, s1, s2, a) = p(t; -x, -z; -mu2, -mu1, s2, s1, -a),

so the two branches of the formula exercise one implementation.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError
from .params import deltas
from .potential import potential_q_to_zero_limit
from .quadrature import QuadSettings, _convolve_batch, integrate_semi_infinite

# the double integral may be skipped when the closed-form part dominates
# its Laplace-side bound by this factor
_SKIP_RATIO = 1e12


@dataclass(frozen=True)
class DensityQuery:
    """Transition density evaluation point."""

    params: object
    t: float
    x: float
    z: float
    settings: QuadSettings = None

    def __post_init__(self):
        if not (math.isfinite(self.t) and self.t > 0):
            raise DomainError(f"t must be positive, got {self.t!r}")
        if not (math.isfinite(self.x) and math.isfinite(self.z)):
            raise DomainError("x and z must be finite")


def _crossing_rate(params, t):
    # decay rate of the overshoot integrand, from the closed-form Laplace
    # bound evaluated at the reference rate q = 1/t
    d = deltas(params, 1.0 / t)
    return d.d1_minus + d.d2_plus


def _gaussian_pair(params, t, x, z):
    # same-side part for x, z >= a: free Gaussian minus the reflected term
    # that removes paths dipping below the threshold; exponents are fused
    # and provably nonpositive
    s2sq = params.sigma2 ** 2
    mu2 = params.mu2
    a = params.a
    norm = 1.0 / math.sqrt(2.0 * math.pi * t * s2sq)
    direct = -((z - x - mu2 * t) ** 2) / (2.0 * t * s2sq)
    mirror = (-((z + x - 2.0 * a) ** 2) / (2.0 * t * s2sq)
              + mu2 * (z - x) / s2sq - mu2 * mu2 * t / (2.0 * s2sq))
    return norm * (math.exp(direct) - math.exp(mirror))


def _upper_double_integral(params, t, x, z, settings):
    # crossing part for x >= a, z >= a: paths dip below a (overshoot b) and return
    s1, s2 = params.sigma1, params.sigma2
    a = params.a
    log_scale = 2.0 * params.mu2 * (z - a) / (s2 * s2)

    def outer(b):
        vals, _ = _convolve_batch(t, b / s1, -params.mu1 / s1,
                                  (z + x - 2.0 * a + b) / s2, params.mu2 / s2,
                                  log_scale=log_scale, settings=settings)
        return vals

    rate = _crossing_rate(params, t)
    # Laplace-side bound at q = 1/t on the whole b-integral
    bound = (math.e / rate) * math.exp(log_scale - deltas(params, 1.0 / t).d2_plus
                                       * (z + x - 2.0 * a))
    gauss = _gaussian_pair(params, t, x, z)
    if (2.0 / (s2 * s2)) * bound * _SKIP_RATIO < abs(gauss):
        return gauss
    val, _ = integrate_semi_infinite(outer, 0.0, rate, settings)
    return gauss + (2.0 / (s2 * s2)) * val


def _lower_double_integral(params, t, x, z, settings):
    # crossing part for x >= a, z < a: every contributing path crosses once
    s1, s2 = params.sigma1, params.sigma2
    a = params.a
    log_scale = 2.0 * params.mu1 * (z - a) / (s1 * s1)

    def outer(b):
        vals, _ = _convolve_batch(t, (b - z + a) / s1, -params.mu1 / s1,
                                  (x - a + b) / s2, params.mu2 / s2,
                                  log_scale=log_scale, settings=settings)
        return vals

    rate = _crossing_rate(params, t)
    val, _ = integrate_semi_infinite(outer, 0.0, rate, settings)
    return (2.0 / (s1 * s1)) * val


def transition_density(query):
    """Transition density value p(t; x, z); nonnegative, jump in z at the threshold.

    The z = a evaluation returns the upper-branch one-sided limit
    p(t; x, a+) when x >= a, and the lower-branch limit when x < a.
    """
    p = query.params
    t, x, z = query.t, query.x, query.z
    settings = query.settings
    if x < p.a:
        p = p.mirrored()
        x, z = -x, -z
    try:
        if z >= p.a:
            val = _upper_double_integral(p, t, x, z, settings)
        else:
            val = _lower_double_integral(p, t, x, z, settings)
    except OverflowError as exc:
        raise AccuracyError(f"transition density overflows at t={t!r}") from exc
    return max(val, 0.0)


def density_jump_at_threshold(params, t, x, settings=None):
    """One-sided jump p(t; x, a+) - p(t; x, a-); exactly 0 when sigma1 = sigma2.

    Continuity of the probability flux at a gives
    sigma1^2 p(t; x, a-) = sigma2^2 p(t; x, a+) whatever the drifts, so the
    jump is the one density value at z = a (the limit on the start's side)
    times a ratio of the variances.
    """
    query = DensityQuery(params, t, x, params.a, settings)
    if params.sigma1 == params.sigma2:
        return 0.0
    s1sq, s2sq = params.sigma1 ** 2, params.sigma2 ** 2
    p = transition_density(query)
    return p * (1.0 - s2sq / s1sq) if x >= params.a else p * (s1sq / s2sq - 1.0)


def stationary_density(params, z):
    """Long-time limit of p(t; x, z); exists iff mu1 > 0 > mu2 (independent of x)."""
    return potential_q_to_zero_limit(params, z)


def oscillating_bm_density(sigma1, sigma2, a, t, x, z):
    """Closed-form transition density for the zero-drift (oscillating BM) case.

    Start states below the threshold are handled by the same reflection
    the general density uses, here just a swap of the two volatilities.
    """
    if not (t > 0):
        raise DomainError(f"t must be positive, got {t!r}")
    if sigma1 <= 0 or sigma2 <= 0:
        raise DomainError("volatilities must be positive")
    if x < a:
        return oscillating_bm_density(sigma2, sigma1, -a, t, -x, -z)
    if z >= a:
        return ((sigma1 - sigma2) / ((sigma1 + sigma2) * math.sqrt(2.0 * math.pi * t * sigma2 ** 2))
                * math.exp(-((x + z - 2.0 * a) ** 2) / (2.0 * t * sigma2 ** 2))
                + 1.0 / math.sqrt(2.0 * math.pi * t * sigma2 ** 2)
                * math.exp(-((z - x) ** 2) / (2.0 * t * sigma2 ** 2)))
    return (2.0 * sigma2 / ((sigma1 + sigma2) * sigma1 * math.sqrt(2.0 * math.pi * t))
            * math.exp(-(((z - a) / sigma1 - (x - a) / sigma2) ** 2) / (2.0 * t)))


def is_time_reversible(params):
    """True iff running the density backwards with negated drifts is exact,
    which happens only when the two regimes coincide."""
    return params.mu1 == params.mu2 and params.sigma1 == params.sigma2
