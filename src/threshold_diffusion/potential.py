"""q-potential (resolvent) density of the threshold diffusion.

potential_density(q, x, z) dz = E_x[ X_{e_q} in dz ] where e_q is an
independent exponential clock with rate q. Closed-form piecewise
exponentials; all exponents are grouped before exponentiation and are
nonpositive inside each branch's validity region, so no overflow occurs
for states arbitrarily far from the threshold.
"""

import cmath
import math
from dataclasses import dataclass

from .errors import DomainError, NoStationaryLawError
from .params import _delta_pair, deltas


@dataclass(frozen=True)
class PotentialQuery:
    """Potential density evaluation point: start x, observation z, clock rate q."""

    params: object
    q: float
    x: float
    z: float

    def __post_init__(self):
        if not (math.isfinite(self.q) and self.q > 0):
            raise DomainError(f"q must be positive, got {self.q!r}")
        if not (math.isfinite(self.x) and math.isfinite(self.z)):
            raise DomainError("x and z must be finite")


def _upper_start(params, d, q, x, z):
    # x >= a; branch split at z = x and z = a, the z = a point joining the
    # a <= z <= x expression
    a = params.a
    w2 = math.sqrt(2.0 * q * params.sigma2 ** 2 + params.mu2 ** 2)
    ratio2 = (d.d2_minus - d.d1_minus) / (d.d2_plus + d.d1_minus)
    if z >= x:
        return (q / w2) * (math.exp(-d.d2_minus * (z - x))
                           + ratio2 * math.exp(-d.d2_minus * (z - a) - d.d2_plus * (x - a)))
    if z >= a:
        return (q / w2) * (math.exp(-d.d2_plus * (x - z))
                           + ratio2 * math.exp(-d.d2_plus * (x - a) - d.d2_minus * (z - a)))
    w1 = math.sqrt(2.0 * q * params.sigma1 ** 2 + params.mu1 ** 2)
    front = (d.d1_plus + d.d1_minus) / (d.d2_plus + d.d1_minus)
    return (q / w1) * front * math.exp(-d.d2_plus * (x - a) + d.d1_plus * (z - a))


def _lower_start(params, d, q, x, z):
    # x < a; mirror-image expressions, z = a joining the x < z <= a branch
    a = params.a
    w1 = math.sqrt(2.0 * q * params.sigma1 ** 2 + params.mu1 ** 2)
    ratio1 = (d.d1_plus - d.d2_plus) / (d.d1_minus + d.d2_plus)
    if z <= x:
        return (q / w1) * (math.exp(-d.d1_plus * (x - z))
                           + ratio1 * math.exp(d.d1_plus * (z - a) + d.d1_minus * (x - a)))
    if z <= a:
        return (q / w1) * (math.exp(-d.d1_minus * (z - x))
                           + ratio1 * math.exp(d.d1_plus * (z - a) + d.d1_minus * (x - a)))
    w2 = math.sqrt(2.0 * q * params.sigma2 ** 2 + params.mu2 ** 2)
    front = (d.d2_minus + d.d2_plus) / (d.d1_minus + d.d2_plus)
    return (q / w2) * front * math.exp(d.d1_minus * (x - a) - d.d2_minus * (z - a))


def potential_density(query):
    """Density of the q-potential measure at z for start state x."""
    p = query.params
    d = deltas(p, query.q)
    if query.x >= p.a:
        val = _upper_start(p, d, query.q, query.x, query.z)
    else:
        val = _lower_start(p, d, query.q, query.x, query.z)
    return max(val, 0.0)


def _tail_transform(params, q, x):
    """Laplace transform in t of P_x(X_t >= a): the integral of
    potential_density / q over z >= a, for complex q off the negative axis.

    Both branches are sums of exponentials in z; integrating them and using
    d_plus d_minus = 2q / s^2, d_plus + d_minus = 2w / s^2 leaves

        x >= a:  (1 - d1_minus / (d1_minus + d2_plus) exp(-d2_plus (x - a))) / q
        x <  a:  d2_plus / (d1_minus + d2_plus) exp(d1_minus (x - a)) / q

    which agree at x = a. Overflow on the contour raises OverflowError.
    """
    _, d1m = _delta_pair(params.mu1, params.sigma1, q, cmath.sqrt)
    d2p, _ = _delta_pair(params.mu2, params.sigma2, q, cmath.sqrt)
    h = x - params.a
    if h >= 0:
        return (1.0 - d1m / (d1m + d2p) * cmath.exp(-d2p * h)) / q
    return d2p / (d1m + d2p) * cmath.exp(d1m * h) / q


def potential_q_to_zero_limit(params, z):
    """q -> 0 limit of the potential density; exists iff mu1 > 0 > mu2.

    The limit is the stationary density: a two-sided exponential with a
    jump at the threshold whenever sigma1 != sigma2.
    """
    if not (params.mu1 > 0.0 > params.mu2):
        raise NoStationaryLawError(
            "stationary law requires mu1 > 0 and mu2 < 0, got "
            f"mu1={params.mu1!r}, mu2={params.mu2!r}")
    mass = -params.mu1 * params.mu2 / (params.mu1 - params.mu2)
    if z >= params.a:
        s2 = params.sigma2 ** 2
        return mass * (2.0 / s2) * math.exp(2.0 * params.mu2 * (z - params.a) / s2)
    s1 = params.sigma1 ** 2
    return mass * (2.0 / s1) * math.exp(2.0 * params.mu1 * (z - params.a) / s1)
