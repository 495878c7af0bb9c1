"""q-harmonic functions and exit-time Laplace transforms.

The decreasing solution g_minus of (1/2) sigma(x)^2 g'' + mu(x) g' = q g is
a piecewise exponential glued C^1 at the threshold; the increasing one,
g_plus, is g_minus of the mirrored problem (params.py) at -x. All ratios
are formed in log space so that states hundreds of units from the threshold
stay finite. The evaluators take a 1-D array of rates q and run in one numpy
pass (two_sided_exit_grid tabulates the exit transforms that way); every
scalar entry point is the one-element case of the same code.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateIntervalError, DomainError
from .params import DiffusionParams, _check_type, _real, _reals, _store_reals, deltas


def _check_states(*states, names="xyz"):
    """The states, named by `names`, as floats; infinite ones have exact limits, NaN none."""
    return [_real(s, name, finite=False) for s, name in zip(states, names)]


def _check_levels(x, y, z):
    x, y, z = _check_states(x, y, z)
    if not (y <= x <= z):
        raise DomainError(f"levels must satisfy y <= x <= z, got y={y!r}, x={x!r}, z={z!r}")
    return x, y, z


def _rates(params, q):
    """DeltaSet over the one-element grid of a scalar rate q > 0."""
    return deltas(params, np.array([_real(q, "q", positive=True)]))


def _log_g_minus(a, d, x):
    """log g_minus(x) over the rates d, each an array over q, for the threshold a."""
    s = x - a
    if s < 0.0:  # at a itself the pure exponential is exactly 0, the pasted log need not be
        # 1 - c_minus = (d1m + d2p) / (d1m + d1p) in a form that cannot cancel
        keep = (d.d1_minus + d.d2_plus) / (d.d1_minus + d.d1_plus)
        return -d.d1_plus * s + np.log(keep + d.c_minus * np.exp((d.d1_minus + d.d1_plus) * s))
    return -d.d2_plus * s


def _log_g_plus(a, d, x):
    """log g_plus(x): log g_minus of the mirrored problem at -x."""
    return _log_g_minus(-a, d.mirrored(), -x)


def _g(params, q, x, log_g, name):
    _check_type(params, DiffusionParams, "params")
    x, = _check_states(x, names="x")
    log_val = log_g(params.a, _rates(params, q), x)
    with np.errstate(over="ignore"):  # g itself may exceed a float; refused below
        val = float(np.exp(log_val)[0])
    if math.isinf(val):
        raise DomainError(f"{name} at x={x!r} overflows a float")
    return val


def g_minus(params, q, x):
    """Decreasing q-harmonic function, normalized to 1 at the threshold."""
    return _g(params, q, x, _log_g_minus, "g_minus")


def g_plus(params, q, x):
    """Increasing q-harmonic function, normalized to 1 at the threshold."""
    return _g(params, q, x, _log_g_plus, "g_plus")


@dataclass(frozen=True)
class ExitQuery:
    """Two-sided exit problem: start at x inside [y, z], rate q > 0."""

    params: DiffusionParams
    q: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        _check_type(self.params, DiffusionParams, "params")
        _store_reals(self, ("q",), DomainError, positive=("q",))
        for name, value in zip("xyz", _check_levels(self.x, self.y, self.z)):
            object.__setattr__(self, name, value)


def two_sided_exit(query):
    """Laplace transforms of the two-sided exit time split by exit side.

    Returns (down_lt, up_lt) where down_lt = E_x[exp(-q T_y); T_y < T_z] and
    up_lt = E_x[exp(-q T_z); T_z < T_y]. Both lie in [0, 1] and sum to at
    most 1; the q-killing already encodes paths that never exit.
    """
    _check_type(query, ExitQuery, "query")
    down, up = _two_sided(query.params, np.array([query.q], dtype=float),
                          query.x, query.y, query.z)
    return float(down[0]), float(up[0])


def two_sided_exit_grid(params, q, x, y, z):
    """two_sided_exit for each rate of the 1-D float array q, in one pass.

    Returns the arrays (down_lt, up_lt) over q.
    """
    _check_type(params, DiffusionParams, "params")
    return _two_sided(params, _reals(q, "q", positive=True), *_check_levels(x, y, z))


def _two_sided(params, q, x, y, z):
    """(down_lt, up_lt) arrays over the rates q, for levels already checked."""
    d = deltas(params, q)
    if y == z:
        raise DegenerateIntervalError(f"interval [{y!r}, {z!r}] is degenerate")
    if x == y:
        return np.ones_like(q), np.zeros_like(q)
    if x == z:
        return np.zeros_like(q), np.ones_like(q)
    lmx, lpx = _log_g_minus(params.a, d, x), _log_g_plus(params.a, d, x)
    lmy, lpy = _log_g_minus(params.a, d, y), _log_g_plus(params.a, d, y)
    lmz, lpz = _log_g_minus(params.a, d, z), _log_g_plus(params.a, d, z)

    # numerators and the denominator g-(y)g+(z) - g-(z)g+(y) > 0, all divided by
    # g-(y)g+(z); each exponent sums log-ratios of one function at two states,
    # so a large log g never meets a small one before they are subtracted
    den = -np.expm1((lmz - lmy) + (lpy - lpz))
    if not (den > 1e-300).all():
        raise DegenerateIntervalError(
            "two-sided exit denominator underflowed; levels are numerically indistinguishable")
    down = np.exp(lmx - lmy) * -np.expm1((lmz - lmx) + (lpx - lpz)) / den
    up = np.exp(lpx - lpz) * -np.expm1((lpy - lpx) + (lmx - lmy)) / den
    return np.clip(down, 0.0, 1.0), np.clip(up, 0.0, 1.0)


def one_sided_down(params, q, x, y):
    """E_x[exp(-q T_y)] for a level y <= x, as the ratio g_minus(x)/g_minus(y)."""
    _check_type(params, DiffusionParams, "params")
    x, y = _check_states(x, y, names="xy")
    if y > x:
        raise DomainError(f"one_sided_down requires y <= x, got y={y!r} > x={x!r}")
    if y == x:
        return 1.0
    d = _rates(params, q)
    return float(np.exp(_log_g_minus(params.a, d, x) - _log_g_minus(params.a, d, y))[0])


def one_sided_up(params, q, x, z):
    """E_x[exp(-q T_z)] for a level z >= x, as the ratio g_plus(x)/g_plus(z)."""
    _check_type(params, DiffusionParams, "params")
    x, z = _check_states(x, z, names="xz")
    if z < x:
        raise DomainError(f"one_sided_up requires x <= z, got x={x!r} > z={z!r}")
    if z == x:
        return 1.0
    d = _rates(params, q)
    return float(np.exp(_log_g_plus(params.a, d, x) - _log_g_plus(params.a, d, z))[0])
