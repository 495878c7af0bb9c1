"""Model parameters and the kernels everything else is built from.

Regime convention used across the whole library: at state x the process
runs with drift mu1 and volatility sigma1 when x <= a, and with mu2,
sigma2 when x > a. `deltas` (the regime rates and pasting weights at a rate
q > 0) and `h_kernel` (a first-passage density) are internal to the package.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidParameterError

# log(2 pi) / 2, the kernel's prefactor in logs
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _finite_real(value):
    """True for a finite real number; False, not TypeError, for None, str or complex."""
    try:
        return math.isfinite(value)
    except TypeError:
        return False


def _integer(value):
    """True for a Python or numpy integer; False for a bool, a float or anything else."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class DiffusionParams:
    """Threshold diffusion parameters (mu1, sigma1 below the threshold a)."""

    mu1: float
    mu2: float
    sigma1: float
    sigma2: float
    a: float

    def __post_init__(self):
        for name in ("mu1", "mu2", "sigma1", "sigma2", "a"):
            v = getattr(self, name)
            if not _finite_real(v):
                raise InvalidParameterError(f"{name} must be a finite number, got {v!r}")
        for name in ("sigma1", "sigma2"):
            v = getattr(self, name)
            if v <= 0:
                raise InvalidParameterError(f"{name} must be positive, got {v!r}")
            # every rate divides by sigma^2, which must neither underflow nor overflow
            if not sys.float_info.min <= v * v <= sys.float_info.max:
                raise InvalidParameterError(f"{name}={v!r} has no normal float square")

    def mirrored(self):
        """Parameters of the reflected process -X, which is again a threshold diffusion.

        Reflection swaps the regimes: (mu1, mu2, s1, s2, a) -> (-mu2, -mu1, s2, s1, -a).
        """
        return DiffusionParams(-self.mu2, -self.mu1, self.sigma2, self.sigma1, -self.a)


# the package's historical name for the constructor
make_params = DiffusionParams


@dataclass(frozen=True)
class DeltaSet:
    """Exponential rates of the q-harmonic functions, plus the pasting weights.

    For regime i with drift mu_i, volatility s_i:

        d_i_plus  = (sqrt(2 q s_i^2 + mu_i^2) + mu_i) / s_i^2
        d_i_minus = (sqrt(2 q s_i^2 + mu_i^2) - mu_i) / s_i^2

    satisfying d_plus * d_minus = 2q / s^2 and
    d_plus + d_minus = 2 sqrt(2 q s^2 + mu^2) / s^2.
    c_minus, c_plus are the mixing weights that make the decreasing and
    increasing q-harmonic functions C^1 at the threshold; both 1 - c_minus
    and 1 - c_plus are strictly positive.
    """

    q: float
    d1_plus: float
    d1_minus: float
    d2_plus: float
    d2_minus: float
    c_minus: float
    c_plus: float


def _check_rate(q):
    """Refuse, with DomainError, a rate q that is not a finite number > 0, or a
    float array of rates that holds one."""
    if isinstance(q, np.ndarray):
        bad = q[~(np.isfinite(q) & (q > 0.0))]
        q = float(bad[0]) if bad.size else 1.0
    if not (_finite_real(q) and q > 0):
        raise DomainError(f"q must be positive, got {q!r}")


def _delta_pair(mu, sigma, q):
    """(d_plus, d_minus) for one regime, over a rate q or an array of rates, real
    or complex; a float rate gives numpy scalars.

    The root that adds |mu| to w is formed directly and the other one from
    d_plus * d_minus = 2q / s^2: forming w - |mu| by subtraction loses every
    digit once 2 q s^2 falls below mu^2 times the rounding unit.
    """
    s2 = sigma * sigma
    large = (np.sqrt(2.0 * q * s2 + mu * mu) + abs(mu)) / s2
    small = 2.0 * q / (s2 * large)
    return (large, small) if mu >= 0 else (small, large)


def deltas(params, q):
    """The DeltaSet at a rate q > 0, or over a 1-D float array of rates q > 0.

    A float q gives numpy float64 fields; an array gives arrays over q, element
    for element equal to the float call's value (the rates and weights take
    only correctly rounded operations). A rate whose 2 q sigma^2 overflows, or
    underflows to 0 in a regime without drift, raises DomainError.
    """
    _check_rate(q)
    with np.errstate(all="ignore"):  # a rate that is not a finite float is refused below
        rates = (_delta_pair(params.mu1, params.sigma1, q)
                 + _delta_pair(params.mu2, params.sigma2, q))
        total = sum(rates)
    # an overflowing 2 q s^2 makes the large root inf; an underflowing one (mu = 0)
    # makes it 0 and the small root inf
    if not np.isfinite(total).all():
        bad = np.atleast_1d(q)[~np.isfinite(np.atleast_1d(total))]
        raise DomainError(f"q={float(bad[0])!r} is out of range: "
                          "2 q sigma^2 overflows or underflows a float")
    return DeltaSet(q, *rates, *_weights(*rates))


def _weights(d1p, d1m, d2p, d2m):
    """The pasting weights (c_minus, c_plus) of the rates."""
    return (d1p - d2p) / (d1m + d1p), (d2m - d1m) / (d2m + d2p)


def h_kernel(t, x, mu):
    """First-passage kernel h(t; x, mu) = |x|/sqrt(2 pi t^3) * exp(-(x+mu t)^2/(2t)).

    For a standard Brownian motion with drift mu started at 0 this is the
    density of the hitting time of level -x (equivalently of level |x| after
    reflecting), restricted to the event that the level is hit.

    Parameters
    ----------
    t : float or ndarray
        Time argument, must be finite and > 0.
    x, mu : float or ndarray
        Finite displacement and drift, broadcast against t.

    The kernel is one exp of its whole logarithm, so it is 0.0 exactly when
    x = 0 or where it underflows, and inf only where it exceeds the double
    range; no floating-point warning escapes. Arguments that are not finite
    numbers (None and NaN included) raise DomainError.
    """
    try:
        t, x, mu = (np.asarray(v, dtype=float) for v in (t, x, mu))
    except (TypeError, ValueError) as exc:
        raise DomainError(f"h_kernel takes numbers: {exc}") from exc
    if not np.all(t > 0.0):  # NaN fails too
        raise DomainError("h_kernel requires t > 0")
    if not (np.isfinite(t).all() and np.isfinite(x).all() and np.isfinite(mu).all()):
        raise DomainError("h_kernel requires finite t, x and mu")
    # log 0 = -inf at x = 0, and a square past the double range is -inf too: exact 0s
    with np.errstate(all="ignore"):
        out = np.exp(np.log(np.abs(x)) - (x + mu * t) ** 2 / (2.0 * t)
                     - 1.5 * np.log(t) - _HALF_LOG_2PI)
    if out.ndim == 0:
        return float(out)
    return out
