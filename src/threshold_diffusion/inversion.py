"""Numerical inversion of Laplace transforms by the fixed-Talbot rule.

The Bromwich integral is taken along Talbot's contour, which starts on
the positive real axis and bends into the left half-plane, with the
fixed parameters of Abate and Valko (IJNME 60, 2004). The transform is
therefore evaluated at complex rates. In double precision the rule is
most accurate near 24 nodes; more nodes amplify rounding, so a second
node count serves as an error estimate rather than a refinement, and
_vouched keeps a 24-node value only when a 32-node inversion agrees.
"""

import cmath
import math

from .errors import DomainError, InvalidParameterError
from .params import _integer


def invert(F, t, nodes=24):
    """Evaluate the inverse transform of F at time t > 0 on `nodes` Talbot nodes.

    F is called at complex rates: once on the positive real axis and at
    nodes - 1 contour points in the upper half-plane. nodes must be an
    integer >= 8.
    """
    if not (math.isfinite(t) and t > 0):
        raise DomainError(f"t must be positive, got {t!r}")
    if not (_integer(nodes) and nodes >= 8):
        raise InvalidParameterError(f"talbot node count must be an integer >= 8, got {nodes!r}")
    r = 2.0 * nodes / (5.0 * t)
    total = 0.5 * math.exp(r * t) * complex(F(complex(r, 0.0))).real
    for k in range(1, nodes):
        theta = k * math.pi / nodes
        cot = math.cos(theta) / math.sin(theta)
        s = r * theta * complex(cot, 1.0)
        sigma = theta + (theta * cot - 1.0) * cot
        total += (cmath.exp(s * t) * complex(F(s)) * complex(1.0, sigma)).real
    return (r / nodes) * total


def _vouched(F, t, abs_tol, rel_tol):
    """The 24-node inverse of F at t, or None when it cannot vouch for itself.

    None when a 32-node inversion differs from it by more than
    max(abs_tol, rel_tol |value|), when the value is not finite, or when F
    overflows on the contour.
    """
    try:
        val = invert(F, t, 24)
        gap = abs(val - invert(F, t, 32))
    except (OverflowError, ZeroDivisionError):
        return None
    if not (math.isfinite(val) and gap <= max(abs_tol, rel_tol * abs(val))):
        return None
    return val
