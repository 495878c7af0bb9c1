"""Transition density p(t; x, z) of the threshold diffusion.

For a start state above the threshold the density is a reflected
Gaussian pair (same-side, no crossing of a) plus a crossing part: two
first-passage kernels convolved in time and integrated over the crossing
overshoot b. At each time the overshoot integral is a Gaussian moment
integral, taken in closed form, so the crossing part is one adaptive
integral over the time of the passage. Start states below the threshold
reuse the same code path through the reflection

    p(t; x, z; mu1, mu2, s1, s2, a) = p(t; -x, -z; -mu2, -mu1, s2, s1, -a),

so the two branches of the formula exercise one implementation. At long
horizons under drifts that push toward a the crossing quadrature is never
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
from .quadrature import (_DEFAULT, _LOG_2PI, QuadSettings, _h_mode, _layer_seeds,
                         integrate_finite)

# the crossing quadrature may be skipped when the closed-form part dominates
# its Laplace-side bound by this factor
_SKIP_RATIO = 1e12

# Long horizons under drifts that push toward a go to Talbot first. There the
# crossing integrand's mass in tau sits in a window about 6 sqrt(t) wide inside
# [0, t], where the drifts balance the times spent on either side, and the
# quadrature's panels step over it: forced through it, (1, -1, 1, 2, 0) at x = 0.1,
# z = 0.2 reads 0.0 at t = 1e9 and 1e12, though within 1e-12 of the stationary law
# at t = 1e6. A point goes to Talbot once the hint scale 1/rate of the Laplace-side
# bound exceeds the diffusion scale min(sigma) sqrt(t) by this ratio.
_HINT_SCALE_LIMIT = 32.0
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)
_SQRT_HALF_PI = math.sqrt(0.5 * math.pi)
# _overshoot_moments: the centre from which the continued fraction takes over,
# where the recurrence has cost up to 1e-13 relative, and its depth, which holds
# it to 4e-16 there
_CF_FROM = 4.0
_CF_LEVELS = 32


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


def _overshoot_moments(y):
    """(K0, K1, K2, h) of the b-integral at standardized centres y, one per node.

    K_n = e^h * integral_0^inf s^n exp(-(s + y)^2 / 2) ds, with h = y^2 / 2 for
    y >= 0 and 0 below, so every K_n is a sum of positive terms or a ratio of
    them. Below _CF_FROM the moments come from math.erfc and the recurrence
    K_(n+1) = n K_(n-1) - y K_n, which cancels for y > 0: K2 loses about
    y^6 / 4 ulps. From there on K1 / K0 and K2 / K1 come from their continued
    fraction K_(n+1) / K_n = (n + 1) / (y + K_(n+2) / K_(n+1)), run down from
    the fixed point of its tail, and K0 = 1 / (y + K1 / K0).
    """
    h = np.maximum(y, 0.0)
    h *= 0.5 * h
    k0, k1, k2 = np.empty_like(y), np.empty_like(y), np.empty_like(y)
    low = y < _CF_FROM
    if low.any():
        yl = y[low]
        erfc = np.array([math.erfc(v) for v in (yl * _SQRT_HALF).tolist()])
        k0[low] = erfc * _SQRT_HALF_PI * np.exp(h[low])
        k1[low] = np.exp(-0.5 * np.minimum(yl, 0.0) ** 2) - yl * k0[low]
        k2[low] = k0[low] - yl * k1[low]
    if not low.all():
        yh = y[~low]
        n = _CF_LEVELS + 1
        rho = 2.0 * n / (yh + np.sqrt(yh * yh + 4.0 * n))
        for n in range(_CF_LEVELS, 1, -1):
            rho = n / (yh + rho)
        rho1 = rho  # K2 / K1
        rho0 = 1.0 / (yh + rho1)  # K1 / K0
        k0[~low] = 1.0 / (yh + rho0)
        k1[~low] = k0[~low] * rho0
        k2[~low] = k1[~low] * rho1
    return k0, k1, k2, h


def _overshoot_integral(params, c1, c2, log_scale, tau, r):
    """The crossing part's b-integral at each node (tau, r = t - tau), in closed form.

    That is exp(log_scale) times the integral over b >= 0 of
    h(r; (b + c1)/sigma1, -mu1/sigma1) h(tau; (b + c2)/sigma2, mu2/sigma2),
    for positive arrays tau and r of one shape and c1, c2 >= 0. With
    u1 = c1 - mu1 r, u2 = c2 + mu2 tau, s1 = sigma1^2 r, s2 = sigma2^2 tau and
    V = s1 + s2, the kernels' product is (b + c1)(b + c2) times a Gaussian in b
    of variance l^2 = s1 s2 / V centred at -m, m = (s2 u1 + s1 u2) / V, so the
    integral is sigma1^2 sigma2^2 / (2 pi V^1.5) exp(-(u1 - u2)^2 / (2 V) - h)
    (K2 + (c1 + c2) / l K1 + c1 c2 / l^2 K0), with K0, K1, K2 and h those of
    _overshoot_moments at y = m / l. It is taken as one exp of its whole
    logarithm: a value is 0.0 where it underflows and inf only past the
    double range.
    """
    mu1, mu2, sigma1, sigma2 = params.mu1, params.mu2, params.sigma1, params.sigma2
    s1, s2 = sigma1 * sigma1 * r, sigma2 * sigma2 * tau
    var = s1 + s2
    w1, w2 = s1 / var, s2 / var
    u1, u2 = c1 - mu1 * r, c2 + mu2 * tau
    ell = np.sqrt(w1) * np.sqrt(s2)
    k0, k1, k2, h = _overshoot_moments((w2 * u1 + w1 * u2) / ell)
    gap = u1 - u2
    log_weight = -(gap * gap / (2.0 * var) + h)
    quad = k2 + ((c1 + c2) / ell) * k1 + (c1 / ell) * (c2 / ell) * k0
    expo = log_scale + 2.0 * (math.log(sigma1) + math.log(sigma2)) - _LOG_2PI
    expo = expo - 1.5 * np.log(var) + log_weight + np.log(quad)
    # a weight that underflows to an exact 0 outweighs a quadratic past the double range
    expo[log_weight == -np.inf] = -np.inf
    return np.exp(expo)


def _crossing_integral(params, t, c1, c2, log_scale, settings):
    """Crossing part of the density, without its 2 / sigma^2 factor.

    With overshoot b, the first-passage displacements are (b + c1) / sigma1
    below a, run for r = t - tau, and (b + c2) / sigma2 above a, run for tau.
    The b-integral is _overshoot_integral's closed form; the tau-integral is
    taken on each half of [0, t] in s = w^2, with tau = s on the first half
    and r = s on the second, since a zero displacement leaves an s^(-1/2)
    layer at that end. The Jacobian 2w multiplies each value after its exp,
    so a tau-integrand past the double range is refused however small w is.
    settings hold each half.
    """
    def near_tau(w):
        s = w * w
        return 2.0 * w * _overshoot_integral(params, c1, c2, log_scale, s, t - s)

    def near_r(w):
        s = w * w
        return 2.0 * w * _overshoot_integral(params, c1, c2, log_scale, t - s, s)

    # boundary layers: the kernel above a concentrates where tau is at its mode
    # scale, the one below where r is; they shrink like the displacement squared
    w_hi = math.sqrt(0.5 * t)
    s1, s2 = params.sigma1, params.sigma2
    seeds_tau = [math.sqrt(s) for s in _layer_seeds(t, _h_mode(c2 / s2, params.mu2 / s2))]
    seeds_r = [math.sqrt(s) for s in _layer_seeds(t, _h_mode(c1 / s1, -params.mu1 / s1))]
    with np.errstate(all="ignore"):
        first, _ = integrate_finite(near_tau, 0.0, w_hi, settings, seeds_tau)
        second, _ = integrate_finite(near_r, 0.0, w_hi, settings, seeds_r)
    return first + second


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
        # the overshoot's variance, at most min(sigma)^2 t, must be a number, and so
        # must the pair the crossing part is added to
        if not min(s1 * s1, s2 * s2) * t < math.inf:
            raise DomainError(f"the crossing part's variance sigma^2 t leaves the double "
                              f"range at t={t!r}")
        if not math.isfinite(gauss):
            raise AccuracyError(f"the Gaussian pair at t={t!r} is not a finite number: {gauss!r}")
        # the weight multiplies the integral's error too: hold it to the density's
        # tolerance, half of it on each half of [0, t]
        settings = QuadSettings(0.5 * _DEFAULT.abs_tol / max(1.0, weight), _DEFAULT.rel_tol)
        val = gauss + weight * _crossing_integral(p, t, c1, c2, log_scale, settings)
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
            # w^2 = u^2 - 2c: where c <= 1 the two Gaussian terms would cancel when
            # sigma1 << sigma2, so their sum is e^(-u^2/2) (2 sigma1/(sigma1 + sigma2) + expm1(c))
            c = 2.0 * ((x - a) / sd2) * ((z - a) / sd2)
            if c <= 1.0:
                g = math.exp(-0.5 * u * u) * (2.0 * (sigma1 / (sigma1 + sigma2)) + math.expm1(c))
            else:
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
