"""Numerical inversion of Laplace transforms by the fixed-Talbot rule.

The Bromwich integral is taken along Talbot's contour, which starts on
the positive real axis and bends into the left half-plane, with the
fixed parameters of Abate and Valko (IJNME 60, 2004). The transform is
called once, on the numpy array of all the contour's complex rates. In
double precision the rule is most accurate near 24 nodes; more nodes
amplify rounding, so a second node count serves as an error estimate
rather than a refinement, and _vouched keeps a 24-node value only when a
32-node inversion agrees.
"""

import math

import numpy as np

from .errors import AccuracyError, DomainError, InvalidParameterError
from .params import _finite_real, _integer


def invert(F, t, nodes=24):
    """Evaluate the inverse transform of F at time t > 0 on `nodes` Talbot nodes.

    F is called once, on the 1-D numpy array of the `nodes` complex rates
    (one on the positive real axis, the rest in the upper half-plane), and
    returns one transform value per rate. nodes must be an integer in
    [8, 1774]. A sum that is not finite raises AccuracyError.
    """
    if not (_finite_real(t) and t > 0):
        raise DomainError(f"t must be positive, got {t!r}")
    # past 1774 nodes the weight exp(r t) = exp(2 nodes / 5) overflows a double
    if not (_integer(nodes) and 8 <= nodes <= 1774):
        raise InvalidParameterError(f"talbot nodes must be an integer in [8, 1774], got {nodes!r}")
    r = 2.0 * nodes / (5.0 * t)
    theta = np.arange(1, nodes) * (math.pi / nodes)
    cot = np.cos(theta) / np.sin(theta)
    s = np.concatenate(([r], r * theta * (cot + 1j)))
    weights = np.concatenate(([0.5], 1.0 + 1j * (theta + (theta * cot - 1.0) * cot)))
    with np.errstate(all="ignore"):  # a rate F overflows at leaves the sum non-finite
        vals = F(s)
        try:
            vals = np.asarray(vals, dtype=complex)
        except (TypeError, ValueError) as exc:
            raise InvalidParameterError(f"F must return complex values: {exc}") from exc
        if vals.shape != s.shape:
            raise InvalidParameterError(f"F must return one value per rate, got {vals.shape}")
        total = (r / nodes) * np.sum((np.exp(s * t) * vals * weights).real)
    if not math.isfinite(total):
        raise AccuracyError(f"talbot sum on {nodes} nodes at t={t!r} is not finite")
    return float(total)


def _vouched(F, t, abs_tol, rel_tol):
    """The 24-node inverse of F at t, or None when either sum is not finite or a
    32-node inversion differs from it by more than max(abs_tol, rel_tol |value|)."""
    try:
        val = invert(F, t, 24)
        gap = abs(val - invert(F, t, 32))
    except AccuracyError:
        return None
    return val if gap <= max(abs_tol, rel_tol * abs(val)) else None
