"""Numerical inversion of Laplace transforms by the fixed-Talbot rule.

An internal engine: the package's own modules call it, with a transform
that takes the numpy array of complex rates and returns one complex value
per rate, and times > 0; nothing here checks them. The Bromwich integral
is taken along Talbot's contour, which starts on the positive real axis
and bends into the left half-plane, with the fixed parameters of Abate and
Valko (IJNME 60, 2004). The transform is called once, on the numpy array
of all the contour's complex rates. In double precision the rule is most
accurate near 24 nodes; more nodes amplify rounding, so a second node
count serves as an error estimate rather than a refinement, and _vouched
keeps a 24-node value only when a 32-node inversion agrees; F is called
once for both, on all 56 rates.
"""

import functools
import math

import numpy as np

from .errors import AccuracyError


@functools.cache
def _contour(nodes):
    """Talbot rates at t = 1 and their weights, with exp(rate) and r / nodes folded in:
    at time t the rates are unit / t and the inverse is Re(F(unit / t) @ weights) / t."""
    r = 2.0 * nodes / 5.0
    theta = np.arange(1, nodes) * (math.pi / nodes)
    cot = np.cos(theta) / np.sin(theta)
    unit = np.concatenate(([r], r * theta * (cot + 1j)))
    weights = np.concatenate(([0.5], 1.0 + 1j * (theta + (theta * cot - 1.0) * cot)))
    return unit, (r / nodes) * np.exp(unit) * weights


def _sums(F, t, unit, parts):
    """Re(F(unit / t)[part] @ w) / t for each (part, w) in parts, part a slice of
    the rates; F is called once, on all the rates, for a time or an array of them."""
    array = isinstance(t, np.ndarray)
    # a subnormal t overflows its rates, and a rate F overflows at leaves the sum non-finite
    with np.errstate(all="ignore"):
        vals = F(unit / (t[:, None] if array else t))
        sums = [(vals[..., part] @ w).real / t for part, w in parts]
    return sums if array else [float(v) for v in sums]


def invert(F, t):
    """Evaluate the inverse transform of F at time t > 0 on 24 Talbot nodes.

    F is called once, on the numpy array of the 24 complex rates (one on the
    positive real axis, the rest in the upper half-plane), and returns one
    transform value per rate. t may also be a 1-D float array of times > 0:
    F is then called once on the (len(t), 24) array of rates, one row per
    time, and the inverse comes back as an array over t. A sum that is not
    finite raises AccuracyError.
    """
    unit, weights = _contour(24)
    total, = _sums(F, t, unit, [(slice(None), weights)])
    if not np.isfinite(total).all():
        raise AccuracyError(f"talbot sum on 24 nodes at t={t!r} is not finite")
    return total


@functools.cache
def _check_pair():
    """The 24-node rates followed by the 32-node rates, and each one's slice and weights."""
    (unit24, weights24), (unit32, weights32) = _contour(24), _contour(32)
    return np.concatenate((unit24, unit32)), [(slice(24), weights24), (slice(24, 56), weights32)]


def _vouched(F, t, abs_tol, rel_tol):
    """The 24-node inverse of F at t (a time or an array of them), or None when a
    sum is not finite or the 32-node inverse differs from it by more than
    max(abs_tol, rel_tol |value|) at any time. F is called once, on the 24 rates
    followed by the 32 (shape (56,), or (len(t), 56) for an array of times)."""
    val, other = _sums(F, t, *_check_pair())
    if not (np.isfinite(val).all() and np.isfinite(other).all()):
        return None
    return val if np.all(abs(val - other) <= np.maximum(abs_tol, rel_tol * abs(val))) else None
