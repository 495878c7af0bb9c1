"""Transition density p(t; x, z) of the threshold diffusion.

For a start state above the threshold the density is a reflected
Gaussian pair (same-side, no crossing of a) plus a double integral of
two first-passage kernels convolved in time and integrated over the
crossing overshoot b. Start states below the threshold reuse the same
code path through the reflection

    p(t; x, z; mu1, mu2, s1, s2, a) = p(t; -x, -z; -mu2, -mu1, s2, s1, -a),

so the two branches of the formula exercise one implementation. At long
horizons under drifts that push toward a, the quadrature's decay hint
stops resolving the overshoot integrand and the double integral is never
run; there the density is the Talbot inversion of potential_density / q
when a second node count vouches for it, else the closed-form Gaussian
pair when its bound certifies that the crossing part is negligible, else
AccuracyError.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError
from .inversion import _vouched
from .params import DiffusionParams, _check_type, _real, _store_reals, deltas
from .potential import _resolvent, potential_q_to_zero_limit
from .quadrature import _DEFAULT, QuadSettings, _convolve_batch, integrate_semi_infinite

# the double integral may be skipped when the closed-form part dominates
# its Laplace-side bound by this factor
_SKIP_RATIO = 1e12

# integrate_semi_infinite places its probes and seeds on the hint scale 1/rate,
# but the overshoot integrand peaks on the diffusion scale min(sigma) sqrt(t).
# Under drifts that push toward a, the hint scale grows like t, and past this
# ratio the panels step over the peak: seen failing from ratios near 300.
_HINT_SCALE_LIMIT = 32.0
_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class DensityQuery:
    """Transition density evaluation point."""

    params: DiffusionParams
    t: float
    x: float
    z: float

    def __post_init__(self):
        _check_type(self.params, DiffusionParams, "params")
        _store_reals(self, ("t", "x", "z"), DomainError, positive=("t",))


def _gaussian_pair(params, t, x, z):
    # same-side part for x, z >= a: free Gaussian minus the reflected term
    # that removes paths dipping below the threshold; exponents are fused
    # and provably nonpositive
    s2sq = params.sigma2 ** 2
    mu2 = params.mu2
    a = params.a
    var2 = 2.0 * t * s2sq
    if not var2:  # then every division below is by 0
        raise AccuracyError(f"the Gaussian pair's variance t sigma2^2 underflows at t={t!r}")
    norm = 1.0 / math.sqrt(2.0 * math.pi * t * s2sq)
    direct = -((z - x - mu2 * t) ** 2) / var2
    mirror = (-((z + x - 2.0 * a) ** 2) / var2
              + mu2 * (z - x) / s2sq - mu2 * mu2 * t / (2.0 * s2sq))
    return norm * (math.exp(direct) - math.exp(mirror))


def _crossing_integral(params, t, rate, c1, c2, log_scale, settings):
    """Overshoot integral of the crossing part, without its 2 / sigma^2 factor.

    With overshoot b, the first-passage displacements are (b + c1) / sigma1
    below a, run for t - tau, and (b + c2) / sigma2 above a, run for tau.
    settings hold the outer b-integral; each tau-convolution keeps _DEFAULT.
    """
    s1, s2 = params.sigma1, params.sigma2

    def outer(b):
        vals, _ = _convolve_batch(t, (b + c1) / s1, -params.mu1 / s1,
                                  (b + c2) / s2, params.mu2 / s2, log_scale, _DEFAULT)
        return vals

    if not math.isfinite(1.0 / rate):  # the quadrature probes at multiples of 1 / rate
        raise DomainError(f"the crossing integral's decay rate {rate!r} has no finite reciprocal")
    # far from a the kernels' squared exponents overflow to inf, and exp takes them to
    # 0; at a horizon of 1e-200 their product overflows near z = a, which _gk15 refuses
    with np.errstate(all="ignore"):
        val, _ = integrate_semi_infinite(outer, 0.0, rate, settings)
    return val


def _talbot_density(params, t, x, z):
    """Talbot inversion of potential_density / q, or None when it cannot vouch for itself."""
    # kept two orders inside the quadrature route's tolerance
    return _vouched(lambda q: _resolvent(params, q, x, z) / q, t,
                    0.01 * _DEFAULT.abs_tol, 0.01 * _DEFAULT.rel_tol)


def _finite(val, t):
    """A density value floored at 0.0, or AccuracyError where it is not a finite number."""
    if not math.isfinite(val):
        raise AccuracyError(f"transition density at t={t!r} is not a finite number: {val!r}")
    return max(val, 0.0)


def transition_density(query):
    """Transition density value p(t; x, z); nonnegative, jump in z at the threshold.

    The z = a evaluation returns the upper-branch one-sided limit
    p(t; x, a+) when x >= a, and the lower-branch limit when x < a. A value
    that leaves the double range, or is not a number, raises AccuracyError.
    """
    _check_type(query, DensityQuery, "query")
    p = query.params
    t, x, z = query.t, query.x, query.z
    if x < p.a:
        p = p.mirrored()
        x, z = -x, -z
    s1, s2, a = p.sigma1, p.sigma2, p.a
    # rates of the overshoot integrand's Laplace-side bound at q = 1/t
    d = deltas(p, 1.0 / t)
    rate, d2p = float(d.d1_minus + d.d2_plus), float(d.d2_plus)
    unresolved = rate * min(s1, s2) * math.sqrt(t) * _HINT_SCALE_LIMIT < 1.0
    if unresolved:
        val = _talbot_density(p, t, x, z)
        if val is not None:
            return _finite(val, t)
    try:
        if z >= a:
            gauss = _gaussian_pair(p, t, x, z)
            log_scale = 2.0 * p.mu2 * (z - a) / (s2 * s2)
            weight, c1, c2 = 2.0 / (s2 * s2), 0.0, z + x - 2.0 * a
            # Laplace-side bound at q = 1/t on the whole crossing part; where it and
            # the pair both underflow, the density is 0 to double precision; a rate
            # of 0.0 bounds nothing (and leaves the point unresolved, refused below)
            bound = (math.e / rate if rate else math.inf) * math.exp(log_scale - d2p * c2)
            if weight * bound * _SKIP_RATIO <= abs(gauss):
                return _finite(gauss, t)
        else:
            gauss, log_scale = 0.0, 2.0 * p.mu1 * (z - a) / (s1 * s1)
            weight, c1, c2 = 2.0 / (s1 * s1), a - z, x - a
        if unresolved:
            raise AccuracyError(f"transition density at t={t!r}: neither Talbot nor the "
                                "closed-form Gaussian pair vouches for its value")
        # the weight multiplies the integral's error too: hold it to the density's tolerance
        settings = QuadSettings(_DEFAULT.abs_tol / max(1.0, weight), _DEFAULT.rel_tol)
        val = gauss + weight * _crossing_integral(p, t, rate, c1, c2, log_scale, settings)
    except OverflowError as exc:
        raise AccuracyError(f"transition density overflows at t={t!r}") from exc
    return _finite(val, t)


def density_jump_at_threshold(params, t, x):
    """One-sided jump p(t; x, a+) - p(t; x, a-); exactly 0 when sigma1 = sigma2.

    Continuity of the probability flux at a gives
    sigma1^2 p(t; x, a-) = sigma2^2 p(t; x, a+) whatever the drifts, so the
    jump is the one density value at z = a (the limit on the start's side)
    times a ratio of the variances.
    """
    _check_type(params, DiffusionParams, "params")
    query = DensityQuery(params, t, x, params.a)
    if params.sigma1 == params.sigma2:
        return 0.0
    s1sq, s2sq = params.sigma1 ** 2, params.sigma2 ** 2
    p = transition_density(query)
    jump = p * (1.0 - s2sq / s1sq) if x >= params.a else p * (s1sq / s2sq - 1.0)
    if not math.isfinite(jump):  # a variance ratio past the double range
        raise AccuracyError(f"the density jump at t={t!r} leaves the double range")
    return jump


# the long-time limit of p(t; x, z) is the q -> 0 limit of the potential density
stationary_density = potential_q_to_zero_limit


def oscillating_bm_density(sigma1, sigma2, a, t, x, z):
    """Closed-form transition density for the zero-drift (oscillating BM) case.

    Start states below the threshold are handled by the same reflection
    the general density uses, here just a swap of the two volatilities.
    A density that underflows is 0.0; one whose prefactor leaves the double
    range raises DomainError.
    """
    sigma1 = _real(sigma1, "sigma1", positive=True)
    sigma2 = _real(sigma2, "sigma2", positive=True)
    a, t, x, z = _real(a, "a"), _real(t, "t", positive=True), _real(x, "x"), _real(z, "z")
    if x < a:
        return oscillating_bm_density(sigma2, sigma1, -a, t, -x, -z)
    # each regime's standard deviation over t; squares are products, so one past
    # the double range is inf and its Gaussian factor an exact 0.0
    sd1, sd2 = sigma1 * math.sqrt(t), sigma2 * math.sqrt(t)
    try:
        if z >= a:
            u, w = ((x - a) + (z - a)) / sd2, (z - x) / sd2
            sd, weight = sd2, 1.0
            g = ((sigma1 - sigma2) / (sigma1 + sigma2) * math.exp(-0.5 * u * u)
                 + math.exp(-0.5 * w * w))
        else:
            u = (z - a) / sd1 - (x - a) / sd2
            sd, weight = sd1, 2.0 * (sigma2 / (sigma1 + sigma2))
            g = math.exp(-0.5 * u * u)
        pre = weight / sd / _SQRT_2PI
        # a prefactor past the double range has no float density (inf * 0.0 is NaN)
        if pre < math.inf and sd < math.inf and sigma1 + sigma2 < math.inf:
            return pre * g
    except ZeroDivisionError:
        pass
    raise DomainError(f"oscillating_bm_density at sigma1={sigma1!r}, sigma2={sigma2!r}, "
                      f"t={t!r} leaves the double range")


def is_time_reversible(params):
    """True iff running the density backwards with negated drifts is exact,
    which happens only when the two regimes coincide."""
    _check_type(params, DiffusionParams, "params")
    return params.mu1 == params.mu2 and params.sigma1 == params.sigma2
