"""Transition density p(t; x, z) of the threshold diffusion.

For a start state above the threshold the density is a reflected
Gaussian pair (same-side, no crossing of a) plus a double integral of
two first-passage kernels convolved in time and integrated over the
crossing overshoot b. Start states below the threshold reuse the same
code path through the reflection

    p(t; x, z; mu1, mu2, s1, s2, a) = p(t; -x, -z; -mu2, -mu1, s2, s1, -a),

so the two branches of the formula exercise one implementation. At long
horizons under drifts that push toward a, the quadrature's decay hint
stops resolving the overshoot integrand; there, while the Peclet number
|mu| |z - x| / sigma^2 stays inside the Talbot contour's range, the density
is the Talbot inversion of potential_density / q, checked against a second
node count.
"""

import cmath
import math
from dataclasses import dataclass

from .errors import AccuracyError, DomainError
from .inversion import invert
from .params import _finite_real, deltas
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

# the fixed Talbot contour stays accurate only while the Peclet number
# |mu| |z - x| / sigma^2 is moderate (error 1e-6 near 45); past this bound
# the transport delay |z - x| / |mu| cancels the contour's damping
_TALBOT_PECLET_LIMIT = 16.0


@dataclass(frozen=True)
class DensityQuery:
    """Transition density evaluation point."""

    params: object
    t: float
    x: float
    z: float
    settings: QuadSettings = None

    def __post_init__(self):
        if not (_finite_real(self.t) and self.t > 0):
            raise DomainError(f"t must be positive, got {self.t!r}")
        if not (_finite_real(self.x) and _finite_real(self.z)):
            raise DomainError("x and z must be finite")


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


def _upper_double_integral(params, t, x, z, settings, rate, d2_plus):
    # crossing part for x >= a, z >= a: paths dip below a (overshoot b) and return
    s1, s2 = params.sigma1, params.sigma2
    a = params.a
    log_scale = 2.0 * params.mu2 * (z - a) / (s2 * s2)

    def outer(b):
        vals, _ = _convolve_batch(t, b / s1, -params.mu1 / s1,
                                  (z + x - 2.0 * a + b) / s2, params.mu2 / s2,
                                  log_scale=log_scale, settings=settings)
        return vals

    # Laplace-side bound at q = 1/t on the whole b-integral
    bound = (math.e / rate) * math.exp(log_scale - d2_plus * (z + x - 2.0 * a))
    gauss = _gaussian_pair(params, t, x, z)
    if (2.0 / (s2 * s2)) * bound * _SKIP_RATIO < abs(gauss):
        return gauss
    val, _ = integrate_semi_infinite(outer, 0.0, rate, settings)
    return gauss + (2.0 / (s2 * s2)) * val


def _lower_double_integral(params, t, x, z, settings, rate):
    # crossing part for x >= a, z < a: every contributing path crosses once
    s1, s2 = params.sigma1, params.sigma2
    a = params.a
    log_scale = 2.0 * params.mu1 * (z - a) / (s1 * s1)

    def outer(b):
        vals, _ = _convolve_batch(t, (b - z + a) / s1, -params.mu1 / s1,
                                  (x - a + b) / s2, params.mu2 / s2,
                                  log_scale=log_scale, settings=settings)
        return vals

    val, _ = integrate_semi_infinite(outer, 0.0, rate, settings)
    return (2.0 / (s1 * s1)) * val


def _talbot_density(params, t, x, z, settings):
    """Talbot inversion of potential_density / q, vouched for by a second node count."""
    def F(q):
        return _resolvent(params, q, x, z, cmath.sqrt, cmath.exp) / q

    val = invert(F, t, 24)
    gap = abs(val - invert(F, t, 32))
    s = settings if settings is not None else _DEFAULT
    # kept two orders inside the quadrature route's tolerance, as value_function does
    if not gap <= 0.01 * max(s.abs_tol, s.rel_tol * abs(val)):
        raise AccuracyError(f"transition density at t={t!r}: Talbot inversions on 24 and "
                            f"32 nodes differ by {gap:.3e}", estimate=val, error_estimate=gap)
    return val


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
    # rates of the overshoot integrand's Laplace-side bound at q = 1/t
    d = deltas(p, 1.0 / t)
    rate = d.d1_minus + d.d2_plus
    try:
        peclet = abs(z - x) * max(abs(p.mu1) / p.sigma1 ** 2, abs(p.mu2) / p.sigma2 ** 2)
        if (rate * min(p.sigma1, p.sigma2) * math.sqrt(t) * _HINT_SCALE_LIMIT < 1.0
                and peclet <= _TALBOT_PECLET_LIMIT):
            val = _talbot_density(p, t, x, z, settings)
        elif z >= p.a:
            val = _upper_double_integral(p, t, x, z, settings, rate, d.d2_plus)
        else:
            val = _lower_double_integral(p, t, x, z, settings, rate)
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
