"""q-potential (resolvent) density of the threshold diffusion.

potential_density(q, x, z) dz = E_x[ X_{e_q} in dz ] where e_q is an
independent exponential clock with rate q, so potential_density / q is the
Laplace transform in t of the transition density. One closed form,
_resolvent, computes it in numpy for a real rate over an array of z in one
pass (potential_grid, which hands it the rates of `deltas`;
potential_density is its one-element case) and for an array of complex
rates at one z (Laplace inversion on the Talbot contour). It is
piecewise exponential in z; all exponents are grouped before
exponentiation and are nonpositive inside each branch's validity region,
and each branch is evaluated only on the points it covers, so no overflow
occurs for states arbitrarily far from the threshold.
_tail_transform is its closed-form integral over z >= a.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoStationaryLawError
from .params import (DiffusionParams, _check_type, _delta_pair, _real, _reals, _store_reals,
                     deltas)


@dataclass(frozen=True)
class PotentialQuery:
    """Potential density evaluation point: start x, observation z, clock rate q."""

    params: DiffusionParams
    q: float
    x: float
    z: float

    def __post_init__(self):
        _check_type(self.params, DiffusionParams, "params")
        _store_reals(self, ("q", "x", "z"), DomainError, positive=("q",))


def _resolvent(params, q, x, z, rates=None):
    """Potential density at rate q, unclamped.

    A real q takes a 1-D float array z; a 1-D complex array of rates q
    takes one float z. rates is (d1_plus, d1_minus, d2_plus, d2_minus) when
    the caller already holds them; otherwise they are taken from
    _delta_pair.

    Written for a start at or above a, with the rates named by where they
    lead: `out` decays away from a and `back` toward it on the start's side,
    `cross` and `far` toward and away from a on the other side. A start
    below a is the same expression for -X, which swaps the regimes, the
    plus and minus rates and the sign of every distance. In that
    orientation z = x takes the dz >= 0 branch and z = a the start's side.
    Over an array each branch is evaluated once, on the points it covers,
    so every exponent is nonpositive when it is exponentiated.
    """
    a = params.a
    if rates is None:
        rates = (_delta_pair(params.mu1, params.sigma1, q)
                 + _delta_pair(params.mu2, params.sigma2, q))
    d1p, d1m, d2p, d2m = rates
    if x >= a:
        rates = (d2m, d2p, d1m, d1p)  # out, back, cross, far
        near, far = (params.mu2, params.sigma2), (params.mu1, params.sigma1)
        h, k, dz = x - a, z - a, z - x
    else:
        rates = (d1p, d1m, d2p, d2m)
        near, far = (params.mu1, params.sigma1), (params.mu2, params.sigma2)
        h, k, dz = a - x, a - z, x - z
    out, back = rates[:2]
    if not isinstance(z, np.ndarray):
        if k < 0:
            return _far_side(q, h, k, rates, far)
        return _near_side(q, h, k, -out * dz if dz >= 0 else back * dz, rates, near)
    val = np.empty_like(z)
    beyond = k < 0
    val[beyond] = _far_side(q, h, k[beyond], rates, far)
    k, dz = k[~beyond], dz[~beyond]
    val[~beyond] = _near_side(q, h, k, np.where(dz >= 0, -out * dz, back * dz), rates, near)
    return val


def _far_side(q, h, k, rates, regime):
    """The resolvent at k < 0, across a from the start; names as in _resolvent
    and regime = (mu, sigma) on that side."""
    (_, back, cross, far), (mu, sigma) = rates, regime
    front = (far + cross) / (back + cross)
    return q / np.sqrt(2.0 * q * sigma ** 2 + mu ** 2) * front * np.exp(-back * h + far * k)


def _near_side(q, h, k, direct, rates, regime):
    """The resolvent at k >= 0, on the start's side of a; `direct` is the free
    term's exponent, -out dz ahead of the start and back dz behind it."""
    (out, back, cross, _), (mu, sigma) = rates, regime
    reflected = (out - cross) / (back + cross) * np.exp(-out * k - back * h)
    return (q / np.sqrt(2.0 * q * sigma ** 2 + mu ** 2)) * (np.exp(direct) + reflected)


def potential_grid(params, q, x, z):
    """potential_density at each point of the 1-D float array z, in one pass."""
    _check_type(params, DiffusionParams, "params")
    return _potential(params, _real(q, "q", positive=True), _real(x, "x"), _reals(z, "z"))


def _potential(params, q, x, z):
    """potential_grid for arguments already checked."""
    d = deltas(params, q)
    # at a rate near the double range's end a weight overflows; the value is refused below
    with np.errstate(all="ignore"):
        val = _resolvent(params, q, x, z, rates=(d.d1_plus, d.d1_minus, d.d2_plus, d.d2_minus))
    if not np.isfinite(val).all():
        raise DomainError(f"potential density overflows at q={q!r}, x={x!r}, "
                          f"z={float(z[~np.isfinite(val)][0])!r}")
    return np.maximum(val, 0.0)


def potential_density(query):
    """Density of the q-potential measure at z for start state x."""
    _check_type(query, PotentialQuery, "query")
    return float(_potential(query.params, query.q, query.x,
                            np.array([query.z], dtype=float))[0])


def _tail_transform(params, q, x):
    """Laplace transform in t of P_x(X_t >= a): the integral of
    potential_density / q over z >= a, for an array of complex q off the
    negative axis.

    Both branches are sums of exponentials in z; integrating them and using
    d_plus d_minus = 2q / s^2, d_plus + d_minus = 2w / s^2 leaves

        x >= a:  (1 - d1_minus / (d1_minus + d2_plus) exp(-d2_plus (x - a))) / q
        x <  a:  d2_plus / (d1_minus + d2_plus) exp(d1_minus (x - a)) / q

    which agree at x = a. Where the contour overflows the value is not finite.
    """
    _, d1m = _delta_pair(params.mu1, params.sigma1, q)
    d2p, _ = _delta_pair(params.mu2, params.sigma2, q)
    h = x - params.a
    if h >= 0:
        return (1.0 - d1m / (d1m + d2p) * np.exp(-d2p * h)) / q
    return d2p / (d1m + d2p) * np.exp(d1m * h) / q


def potential_q_to_zero_limit(params, z):
    """q -> 0 limit of the potential density; exists iff mu1 > 0 > mu2.

    The limit is the stationary density: a two-sided exponential with a
    jump at the threshold whenever sigma1 != sigma2.
    """
    _check_type(params, DiffusionParams, "params")
    z = _real(z, "z")
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
