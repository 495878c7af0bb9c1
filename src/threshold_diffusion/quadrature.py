"""Adaptive Gauss-Kronrod quadrature for the library's kernel integrals.

An internal engine: the package's own modules call it, and nothing here
checks what they pass. One engine serves every integral: _gk15 applies the
15-point Kronrod rule and its embedded 7-point Gauss rule to an array of
panels in a single integrand call, taking both rules' sums in one product
with a (15, 2) weight matrix, and _adaptive, QUADPACK's worst-first scheme,
bisects the four worst panels a round until the error estimate
|Kronrod - Gauss| meets the tolerance; each round one keep-mask drops the
panels it bisects or retires, and one concatenate per panel array appends
the halves. The integrand may be a batch: it then returns one row per batch
element, the panels are shared by the batch, and refinement goes on until
every element is converged. integrate_finite runs the engine on a single
integrand (and integrate_semi_infinite on top of it); _convolve_batch runs
it on the product of two first-passage kernels, taken as one exp of its
logarithm, one row per overshoot node of the transition density's crossing
integral.

Callers pass finite float bounds, seeds and decay rates, and integrands
that accept a 1-d ndarray and return an array whose last axis matches it.
Panels are open: no integrand is ever evaluated exactly at a domain
endpoint. A non-finite integrand value raises IntegrandError, and an
exhausted budget AccuracyError.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError, IntegrandError

# 15-point Kronrod nodes/weights with the embedded 7-point Gauss rule
# (odd-indexed nodes). Standard QUADPACK constants.
_XGK = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])

# column 0 the Kronrod weights, column 1 the Gauss weights (0 on the Kronrod-only
# nodes): one product takes both rules' sums
_WEIGHTS = np.zeros((15, 2))
_WEIGHTS[:, 0] = _WGK
_WEIGHTS[1::2, 1] = _WG

_REFINE_BATCH = 4  # panels bisected per round
_MAX_SUBDIVISIONS = 2000  # panels one integral may make before AccuracyError

_LOG_2PI = math.log(2.0 * math.pi)

# integrate_semi_infinite truncates where its implied tail bound drops below this
_TRUNCATION_EPSILON = 1e-12


@dataclass(frozen=True)
class QuadSettings:
    """Tolerances of the adaptive integrators, both positive floats."""

    abs_tol: float = 1e-9
    rel_tol: float = 1e-7


_DEFAULT = QuadSettings()


def _gk15(f, los, his):
    """GK15 on a batch of panels with a single integrand call.

    f maps a 1-d array of abscissas to an array whose last axis runs over
    them: one row per batch element, or a 1-d array for a single integrand.
    Both rules' sums come from one product with _WEIGHTS. Returns the Kronrod
    sums and |Kronrod - Gauss|, shaped (..., panels).
    """
    centers = 0.5 * (los + his)
    halves = 0.5 * (his - los)
    nodes = (centers[:, None] + halves[:, None] * _XGK[None, :]).ravel()
    vals = np.asarray(f(nodes), dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):  # inf * a Gauss weight of 0 is NaN
        sums = vals.reshape(-1, 15) @ _WEIGHTS
    # every Kronrod weight is positive, so a non-finite value reaches its panel's sum
    if not np.isfinite(sums).all():
        vals = vals.reshape(-1, nodes.size)
        finite = np.isfinite(vals).all(axis=0)
        # finite values can overflow a sum too: then name the largest one's node
        bad = nodes[~finite][0] if not finite.all() else nodes[np.abs(vals).max(axis=0).argmax()]
        raise IntegrandError(f"integrand returned a non-finite value near x={bad!r}")
    sums = sums.reshape(vals.shape[:-1] + (len(los), 2))
    kron = sums[..., 0] * halves
    gauss = sums[..., 1] * halves
    return kron, np.abs(kron - gauss)


def _adaptive(f, lo, hi, seeds, settings, what):
    """Worst-first adaptive GK15 on [lo, hi], with the distinct seeds inside it as panel bounds.

    The panels are shared by every batch element of f (see _gk15). Each round bisects
    the _REFINE_BATCH panels of largest error over the batch, until each element's error
    is within max(abs_tol, rel_tol*|value|). A panel too narrow to bisect is retired with
    its error left in the total; AccuracyError is raised once the retired error of an
    element exceeds its allowance, or once the subdivision budget is spent. Returns
    (values, error_estimates) shaped like one row of f's output.
    """
    bounds = [lo, *sorted(p for p in set(seeds) if lo < p < hi), hi]
    los, his = np.array(bounds[:-1], dtype=float), np.array(bounds[1:], dtype=float)
    kron, err = _gk15(f, los, his)
    totals, errors = kron.sum(axis=-1), err.sum(axis=-1)
    n_sub = len(los)
    retired = 0.0  # error locked in panels too narrow to bisect

    while True:
        allowed = np.maximum(settings.abs_tol, settings.rel_tol * np.abs(totals))
        if np.all(errors <= allowed):
            return totals, errors
        if n_sub >= _MAX_SUBDIVISIONS or not len(los):
            raise AccuracyError(
                f"{what}: worst residual {float(np.max(errors)):.3e} after "
                f"{n_sub} subdivisions", estimate=totals, error_estimate=errors)
        mids = 0.5 * (los + his)
        keep = np.ones(len(los), dtype=bool)
        split = []
        # panels are kept in the order they were made; the stable sort ranks ties that way
        for j in np.argsort(-err.reshape(-1, len(los)).max(axis=0), kind="stable"):
            if len(split) == _REFINE_BATCH:
                break
            keep[j] = False
            if not los[j] < mids[j] < his[j]:
                retired = retired + err[..., j]
                if np.any(retired > allowed):
                    raise AccuracyError(
                        f"{what}: residual error trapped in panels at machine width",
                        estimate=totals, error_estimate=errors)
                continue
            totals, errors = totals - kron[..., j], errors - err[..., j]
            split.append(j)
        new_los = np.stack([los[split], mids[split]], axis=-1).ravel()  # left, right halves
        new_his = np.stack([mids[split], his[split]], axis=-1).ravel()
        new_kron, new_err = _gk15(f, new_los, new_his) if split else (kron[..., :0], err[..., :0])
        totals, errors = totals + new_kron.sum(axis=-1), errors + new_err.sum(axis=-1)
        n_sub += len(new_los)
        los = np.concatenate((los[keep], new_los))
        his = np.concatenate((his[keep], new_his))
        kron = np.concatenate((kron[..., keep], new_kron), axis=-1)
        err = np.concatenate((err[..., keep], new_err), axis=-1)


def integrate_finite(f, lo, hi, settings=_DEFAULT, seed_points=()):
    """Adaptively integrate f over [lo, hi], lo <= hi; equal bounds give (0.0, 0.0).

    seed_points inside (lo, hi) are forced to be panel boundaries, to respect
    known kinks or boundary layers. Returns (value, error_estimate) with
    error_estimate <= max(abs_tol, rel_tol*|value|), or raises AccuracyError
    once the subdivision budget is exhausted.
    """
    if lo > hi:
        raise DomainError(f"lo must be <= hi, got [{lo!r}, {hi!r}]")
    if lo == hi:
        return 0.0, 0.0
    value, err = _adaptive(f, lo, hi, seed_points, settings, "integrate_finite")
    return float(value), float(err)


def integrate_semi_infinite(f, lo, rate, settings=_DEFAULT):
    """Integrate f over [lo, inf) assuming an eventual C*exp(-rate*u) envelope.

    The decay rate hint, with a finite reciprocal, fixes the truncation point:
    the domain is cut where the implied tail bound drops below
    _TRUNCATION_EPSILON, with the envelope constant estimated from probe
    evaluations. The measured tail bound |f(u*)|/rate is folded into the
    returned error estimate, and the domain is extended if that bound is
    still too large. When every probe reads 0, f is searched for nearer lo
    before (0.0, 0.0) is returned.
    """
    eps = _TRUNCATION_EPSILON

    probe_offsets = np.array([0.125, 0.5, 1.0, 2.0, 4.0]) / rate
    pv = np.asarray(f(lo + probe_offsets), dtype=float)
    if not np.all(np.isfinite(pv)):
        raise IntegrandError("integrand returned a non-finite value at a probe point")
    if not pv.any():
        # a loose hint puts every probe past the mass: look for it nearer lo, in one
        # call on a ladder of halvings that spans the double range, and start again
        # on the scale u where |f(u)| u, the mass per halving, is largest
        ladder = probe_offsets[0] * 0.5 ** np.arange(1.0, 2048.0)
        ladder = ladder[(lo + ladder > lo) & (ladder >= np.finfo(float).tiny)]
        lv = np.asarray(f(lo + ladder), dtype=float)
        if not np.all(np.isfinite(lv)):
            raise IntegrandError("integrand returned a non-finite value at a probe point")
        if not lv.any():
            return 0.0, 0.0
        rate = 0.125 / ladder[np.argmax(np.abs(lv) * ladder)]
        # a Python float, as every caller's hint is, so the error estimate stays one
        return integrate_semi_infinite(f, lo, float(rate), settings)
    with np.errstate(over="ignore"):
        env = np.abs(pv) * np.exp(rate * probe_offsets)
    # an envelope that underflows over eps * rate would take log to 0; any floor < 1 clamps alike
    span = math.log(max(float(np.max(env)) / (eps * rate), 1e-300)) / rate
    span = min(max(span, 4.0 / rate), 2000.0 / rate)

    seeds = []
    w = 0.5 / rate
    while w < span:
        seeds.append(lo + w)
        w *= 2.0
    value, err = integrate_finite(f, lo, lo + span, settings, seeds)
    hi = lo + span

    for _ in range(64):
        tail = abs(float(np.asarray(f(np.array([hi])), dtype=float)[0])) / rate
        target = max(settings.abs_tol, settings.rel_tol * abs(value))
        if tail <= max(eps, 0.5 * target):
            return value, err + tail
        v2, e2 = integrate_finite(f, hi, hi + span, settings)
        value += v2
        err += e2
        hi += span
    raise AccuracyError(
        f"integrate_semi_infinite: tail bound never fell below tolerance by u={hi!r}",
        estimate=value, error_estimate=err)


def _h_mode(y, nu):
    """Location of the mass of s -> h(s; y, nu); sets the boundary-layer scale."""
    if y <= 0:
        return math.inf
    if abs(nu) < 1e-12:
        return y * y / 3.0
    ny2 = nu * nu
    return (-3.0 + math.sqrt(9.0 + 4.0 * ny2 * y * y)) / (2.0 * ny2)


def _layer_seeds(t, scale):
    """Geometric panel boundaries resolving a boundary layer of the given scale."""
    if not math.isfinite(scale):
        return []
    s = max(scale / 4.0, t * 1e-13)
    out = []
    while s < 0.5 * t:
        out.append(s)
        s *= 4.0
    return out


def _convolve_batch(t, x1, mu1, x2, mu2, log_scale, settings):
    """Batched exp(log_scale) * integral_0^t h(t-tau; x1_i, mu1) h(tau; x2_i, mu2) dtau.

    t > 0, and x1, x2 are 1-d arrays of nonnegative displacements of one length.
    The integrand is the two kernels' product as one exp of its whole logarithm,
    as h_kernel takes it: a row term log x1 + log x2 per overshoot node (-inf, so
    an exact 0, at a zero displacement), a column term log_scale - log 2 pi
    - 1.5 (log(t - tau) + log tau) per tau node, and the two squared drift terms.
    The logs of t - tau and tau are taken apart, so their product cannot
    underflow; the exponent is built in place, and a product past the double
    range is inf, which _gk15 refuses. One _adaptive run refines tau panels
    shared by the batch until every element meets settings. Returns
    (values, error_estimates).
    """
    x1c, x2c = x1[:, None], x2[:, None]
    with np.errstate(divide="ignore"):
        row = (np.log(x1) + np.log(x2))[:, None]
    shift = log_scale - _LOG_2PI

    def kernel(tau):
        rem = t - tau
        col = shift - 1.5 * (np.log(rem) + np.log(tau))
        expo = x1c + mu1 * rem
        expo *= expo
        expo *= 0.5 / rem
        drift2 = x2c + mu2 * tau
        drift2 *= drift2
        drift2 *= 0.5 / tau
        expo += drift2
        np.subtract(row, expo, out=expo)
        expo += col
        with np.errstate(under="ignore"):
            return np.exp(expo, out=expo)

    # boundary layers: the x1 kernel concentrates where t - tau is at its mode
    # scale, the x2 kernel where tau is; they shrink like displacement^2
    seeds = [t - w for w in _layer_seeds(t, _h_mode(float(x1.min()), mu1))]
    seeds += _layer_seeds(t, _h_mode(float(x2.min()), mu2))
    return _adaptive(kernel, 0.0, t, seeds, settings, "convolution quadrature")
