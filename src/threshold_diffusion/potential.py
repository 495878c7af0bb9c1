"""q-potential (resolvent) density of the threshold diffusion.

potential_density(q, x, z) dz = E_x[ X_{e_q} in dz ] where e_q is an
independent exponential clock with rate q, so potential_density / q is the
Laplace transform in t of the transition density. One closed form,
_resolvent, computes it for real rates with math functions
(potential_density, which hands it the rates of `deltas`) and for complex
rates with cmath functions (Laplace inversion on the Talbot contour). It is
piecewise exponential in z; all exponents are grouped before
exponentiation and are nonpositive inside each branch's validity region,
so no overflow occurs for states arbitrarily far from the threshold.
_tail_transform is its closed-form integral over z >= a.
"""

import cmath
import math
from dataclasses import dataclass

from .errors import DomainError, NoStationaryLawError
from .params import _delta_pair, _finite_real, deltas


@dataclass(frozen=True)
class PotentialQuery:
    """Potential density evaluation point: start x, observation z, clock rate q."""

    params: object
    q: float
    x: float
    z: float

    def __post_init__(self):
        if not (_finite_real(self.q) and self.q > 0):
            raise DomainError(f"q must be positive, got {self.q!r}")
        if not (_finite_real(self.x) and _finite_real(self.z)):
            raise DomainError("x and z must be finite")


def _resolvent(params, q, x, z, sqrt=math.sqrt, exp=math.exp, rates=None):
    """Potential density at rate q, unclamped; pass cmath functions for complex q.

    rates is (d1_plus, d1_minus, d2_plus, d2_minus) when the caller already
    holds them; otherwise they are taken from _delta_pair with `sqrt`.

    Written for a start at or above a, with the rates named by where they
    lead: `out` decays away from a and `back` toward it on the start's side,
    `cross` and `far` toward and away from a on the other side. A start
    below a is the same expression for -X, which swaps the regimes, the
    plus and minus rates and the sign of every distance. In that
    orientation z = x takes the dz >= 0 branch and z = a the start's side.
    """
    a = params.a
    if rates is None:
        rates = (_delta_pair(params.mu1, params.sigma1, q, sqrt)
                 + _delta_pair(params.mu2, params.sigma2, q, sqrt))
    d1p, d1m, d2p, d2m = rates
    if x >= a:
        out, back, cross, far = d2m, d2p, d1m, d1p
        near_regime, far_regime = (params.mu2, params.sigma2), (params.mu1, params.sigma1)
        h, k, dz = x - a, z - a, z - x
    else:
        out, back, cross, far = d1p, d1m, d2p, d2m
        near_regime, far_regime = (params.mu1, params.sigma1), (params.mu2, params.sigma2)
        h, k, dz = a - x, a - z, x - z
    if k < 0:
        mu, sigma = far_regime
        front = (far + cross) / (back + cross)
        return q / sqrt(2.0 * q * sigma ** 2 + mu ** 2) * front * exp(-back * h + far * k)
    mu, sigma = near_regime
    direct = exp(-out * dz) if dz >= 0 else exp(back * dz)
    reflected = (out - cross) / (back + cross) * exp(-out * k - back * h)
    return (q / sqrt(2.0 * q * sigma ** 2 + mu ** 2)) * (direct + reflected)


def potential_density(query):
    """Density of the q-potential measure at z for start state x."""
    d = deltas(query.params, query.q)
    val = _resolvent(query.params, query.q, query.x, query.z,
                     rates=(d.d1_plus, d.d1_minus, d.d2_plus, d.d2_minus))
    if not math.isfinite(val):
        raise DomainError(f"potential density overflows at q={query.q!r}, "
                          f"x={query.x!r}, z={query.z!r}")
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
    if not _finite_real(z):
        raise DomainError(f"z must be a finite number, got {z!r}")
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
