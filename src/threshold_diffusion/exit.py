"""q-harmonic functions and exit-time Laplace transforms.

The decreasing solution g_minus and increasing solution g_plus of
(1/2) sigma(x)^2 g'' + mu(x) g' = q g are piecewise exponentials glued
C^1 at the threshold. All ratios are formed in log space so that states
hundreds of units from the threshold stay finite.
"""

import math
from dataclasses import dataclass

from .errors import DegenerateIntervalError, DomainError
from .params import _finite_real, deltas


def _check_q(q):
    if not (_finite_real(q) and q > 0):
        raise DomainError(f"q must be positive, got {q!r}")


def _check_states(*states):
    # infinite states have exact limits; NaN, None or a string has none
    if not all(_finite_real(s) or s in (-math.inf, math.inf) for s in states):
        raise DomainError(f"states must be numbers other than NaN, got {states!r}")


@dataclass(frozen=True)
class GPair:
    """Log-space evaluators for the pair (g_minus, g_plus) at a fixed rate q."""

    params: object
    q: float

    def __post_init__(self):
        _check_q(self.q)
        object.__setattr__(self, "_d", deltas(self.params, self.q))

    def log_g_minus_at(self, x):
        d = self._d
        s = x - self.params.a
        if s <= 0.0:
            # 1 - c_minus = (d1m + d2p) / (d1m + d1p) in a form that cannot cancel
            keep = (d.d1_minus + d.d2_plus) / (d.d1_minus + d.d1_plus)
            return -d.d1_plus * s + math.log(
                keep + d.c_minus * math.exp((d.d1_minus + d.d1_plus) * s))
        return -d.d2_plus * s

    def log_g_plus_at(self, x):
        d = self._d
        s = x - self.params.a
        if s <= 0.0:
            return d.d1_minus * s
        keep = (d.d1_minus + d.d2_plus) / (d.d2_minus + d.d2_plus)  # 1 - c_plus
        return d.d2_minus * s + math.log(
            keep + d.c_plus * math.exp(-(d.d2_minus + d.d2_plus) * s))


def _exp(log_value, what):
    try:
        return math.exp(log_value)
    except OverflowError:
        raise DomainError(f"{what} overflows a float") from None


def g_minus(params, q, x):
    """Decreasing q-harmonic function, normalized to 1 at the threshold."""
    _check_states(x)
    return _exp(GPair(params, q).log_g_minus_at(x), f"g_minus at x={x!r}")


def g_plus(params, q, x):
    """Increasing q-harmonic function, normalized to 1 at the threshold."""
    _check_states(x)
    return _exp(GPair(params, q).log_g_plus_at(x), f"g_plus at x={x!r}")


@dataclass(frozen=True)
class ExitQuery:
    """Two-sided exit problem: start at x inside [y, z], rate q > 0."""

    params: object
    q: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        _check_q(self.q)
        _check_states(self.x, self.y, self.z)
        if not (self.y <= self.x <= self.z):
            raise DomainError(
                f"levels must satisfy y <= x <= z, got y={self.y!r}, x={self.x!r}, z={self.z!r}")


def two_sided_exit(query):
    """Laplace transforms of the two-sided exit time split by exit side.

    Returns (down_lt, up_lt) where down_lt = E_x[exp(-q T_y); T_y < T_z] and
    up_lt = E_x[exp(-q T_z); T_z < T_y]. Both lie in [0, 1] and sum to at
    most 1; the q-killing already encodes paths that never exit.
    """
    if query.y == query.z:
        raise DegenerateIntervalError(f"interval [{query.y!r}, {query.z!r}] is degenerate")
    if query.x == query.y:
        return 1.0, 0.0
    if query.x == query.z:
        return 0.0, 1.0
    g = GPair(query.params, query.q)
    lmx, lpx = g.log_g_minus_at(query.x), g.log_g_plus_at(query.x)
    lmy, lpy = g.log_g_minus_at(query.y), g.log_g_plus_at(query.y)
    lmz, lpz = g.log_g_minus_at(query.z), g.log_g_plus_at(query.z)

    # numerators and the denominator g-(y)g+(z) - g-(z)g+(y) > 0, all divided by
    # g-(y)g+(z); each exponent sums log-ratios of one function at two states,
    # so a large log g never meets a small one before they are subtracted
    den = -math.expm1((lmz - lmy) + (lpy - lpz))
    if den <= 1e-300:
        raise DegenerateIntervalError(
            "two-sided exit denominator underflowed; levels are numerically indistinguishable")
    down = math.exp(lmx - lmy) * -math.expm1((lmz - lmx) + (lpx - lpz)) / den
    up = math.exp(lpx - lpz) * -math.expm1((lpy - lpx) + (lmx - lmy)) / den
    return min(max(down, 0.0), 1.0), min(max(up, 0.0), 1.0)


def one_sided_down(params, q, x, y):
    """E_x[exp(-q T_y)] for a level y <= x, as the ratio g_minus(x)/g_minus(y)."""
    _check_states(x, y)
    if y > x:
        raise DomainError(f"one_sided_down requires y <= x, got y={y!r} > x={x!r}")
    if y == x:
        return 1.0
    g = GPair(params, q)
    return math.exp(g.log_g_minus_at(x) - g.log_g_minus_at(y))


def one_sided_up(params, q, x, z):
    """E_x[exp(-q T_z)] for a level z >= x, as the ratio g_plus(x)/g_plus(z)."""
    _check_states(x, z)
    if z < x:
        raise DomainError(f"one_sided_up requires x <= z, got x={x!r} > z={z!r}")
    if z == x:
        return 1.0
    g = GPair(params, q)
    return math.exp(g.log_g_plus_at(x) - g.log_g_plus_at(z))
