"""Transition density: closed-form oracles, jump law, stationarity, MC."""

import math
import warnings

import numpy as np
import pytest

from threshold_diffusion import density as density_module
from threshold_diffusion import (AccuracyError, DensityQuery, DiffusionParams, DomainError,
                                 NoStationaryLawError, SimConfig, ThresholdDiffusionError,
                                 density_jump_at_threshold, is_time_reversible,
                                 oscillating_bm_density, simulate_paths, stationary_density,
                                 transition_density)
from threshold_diffusion.quadrature import QuadSettings, integrate_finite

TWO_REGIME = DiffusionParams(1.0, -1.0, 1.0, 2.0, 0.0)
OSC = DiffusionParams(0.0, 0.0, 1.0, 2.0, 0.0)


def p_at(params, t, x, z):
    return transition_density(DensityQuery(params, t, x, z))


def test_standard_brownian_point():
    p = DiffusionParams(0.0, 0.0, 1.0, 1.0, 0.0)
    assert p_at(p, 1.0, 0.0, 0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-9)


def test_oscillating_oracle_grid():
    span = np.linspace(-2.5, 2.5, 7)
    for x in span:
        for z in span:
            got = p_at(OSC, 1.0, float(x), float(z))
            want = oscillating_bm_density(1.0, 2.0, 0.0, 1.0, float(x), float(z))
            assert got == pytest.approx(want, abs=1e-5)


def test_one_sided_limits_at_threshold():
    # closed-form limits of the zero-drift two-volatility density at z = a
    up = 2.0 * 1.0 / ((1.0 + 2.0) * math.sqrt(2 * math.pi * 4.0))
    lo = 2.0 * 2.0 / ((1.0 + 2.0) * 1.0 * math.sqrt(2 * math.pi))
    assert p_at(OSC, 1.0, 0.0, 0.0) == pytest.approx(up, abs=1e-9)
    assert p_at(OSC, 1.0, 0.0, -1e-12) == pytest.approx(lo, abs=1e-9)
    jump = density_jump_at_threshold(OSC, 1.0, 0.0)
    assert jump == pytest.approx(up - lo, abs=1e-9)
    assert jump == pytest.approx(-1.0 / math.sqrt(2 * math.pi), abs=1e-9)


def test_jump_matches_numerical_one_sided_limits():
    eps = 1e-6
    for x in (0.5, -0.5):
        got = density_jump_at_threshold(TWO_REGIME, 1.0, x)
        diff = p_at(TWO_REGIME, 1.0, x, eps) - p_at(TWO_REGIME, 1.0, x, -eps)
        assert got == pytest.approx(diff, abs=1e-4)


def test_jump_zero_iff_equal_sigmas():
    assert density_jump_at_threshold(DiffusionParams(1.0, -1.0, 1.3, 1.3, 0.4), 1.0, 0.2) == 0.0
    assert density_jump_at_threshold(OSC, 1.0, 0.0) < -0.1


def test_continuity_in_start_state():
    eps = 1e-5
    for z in (-0.7, 0.7):
        gap = abs(p_at(TWO_REGIME, 1.0, eps, z) - p_at(TWO_REGIME, 1.0, -eps, z))
        assert gap <= 1e-5


def test_reflection_through_mirrored_params():
    m = TWO_REGIME.mirrored()
    for x in (-0.8, 0.3, 1.1):
        for z in (-1.4, 0.6):
            assert p_at(TWO_REGIME, 0.7, x, z) == pytest.approx(
                p_at(m, 0.7, -x, -z), rel=1e-12, abs=1e-300)


def test_equal_sigma_gaussian_reduction():
    got = p_at(DiffusionParams(0.5, 0.5, 1.0, 1.0, 0.0), 1.0, 0.0, 0.5)
    assert got == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-9)


def test_equal_sigma_continuity_at_threshold():
    assert density_jump_at_threshold(DiffusionParams(1.0, -1.0, 1.0, 1.0, 0.0), 1.0, 0.3) == 0.0


def test_equal_sigma_normalization():
    params = DiffusionParams(1.0, -1.0, 1.0, 1.0, 0.0)

    def f(zs):
        return np.array([p_at(params, 1.0, 0.3, float(z)) for z in zs])
    val, _ = integrate_finite(f, -13.0, 13.0, seed_points=(0.0, 0.3),
                              settings=QuadSettings(abs_tol=1e-8, rel_tol=1e-8))
    assert val == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("t", [0.25, 4.0])
@pytest.mark.parametrize("params", [TWO_REGIME, DiffusionParams(-1.0, 1.0, 2.0, 1.0, -0.3)])
def test_normalization_time_sweep(params, t):
    x = params.a + 0.4
    smax = max(params.sigma1, params.sigma2)
    span = 12 * smax * math.sqrt(t) + (abs(params.mu1) + abs(params.mu2)) * t
    lo, hi = min(x - span, params.a - 1.0), max(x + span, params.a + 1.0)

    def f(zs):
        return np.array([p_at(params, t, x, float(z)) for z in zs])
    val, _ = integrate_finite(f, lo, hi, seed_points=(params.a, x),
                              settings=QuadSettings(abs_tol=3e-7, rel_tol=3e-7))
    assert val == pytest.approx(1.0, abs=1e-4)


def test_oscillating_closed_form_self_checks():
    assert oscillating_bm_density(1.0, 1.0, 0.0, 1.0, 0.0, 0.0) == pytest.approx(
        1.0 / math.sqrt(2 * math.pi), rel=1e-13)
    # mass above the threshold is sigma1/(sigma1+sigma2)
    def f(zs):
        return np.array([oscillating_bm_density(1.0, 2.0, 0.0, 1.0, 0.0, float(z))
                         for z in zs])
    above, _ = integrate_finite(f, 0.0, 30.0)
    assert above == pytest.approx(1.0 / 3.0, abs=1e-8)
    total, _ = integrate_finite(
        lambda zs: np.array([oscillating_bm_density(1.0, 2.0, 0.0, 0.5, 1.0, float(z))
                             for z in zs]), -20.0, 20.0, seed_points=(0.0, 1.0))
    assert total == pytest.approx(1.0, abs=1e-8)


def test_oscillating_rejects_bad_args():
    with pytest.raises(DomainError):
        oscillating_bm_density(1.0, 2.0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        oscillating_bm_density(-1.0, 2.0, 0.0, 1.0, 0.0, 0.0)


def test_oscillating_density_underflows_to_zero_and_never_reads_nan():
    # a square past the double range used to be refused: the density is 0.0 there
    assert oscillating_bm_density(1e-200, 1.0, 0.0, 1.0, 0.3, -0.2) == 0.0
    for s1 in np.logspace(-200, 38.4, 9):
        for s2 in np.logspace(-200, 38.4, 9):
            for x, z in ((0.3, 0.2), (0.3, -0.2), (-0.3, -0.2), (-0.3, 0.2)):
                p = oscillating_bm_density(float(s1), float(s2), 0.0, 1.0, x, z)
                assert 0.0 <= p < math.inf


def _oscillating_mp(mp, s1, s2, a, t, x, z):
    """oscillating_bm_density's closed form in mpmath at the current precision."""
    s1, s2, a, t, x, z = map(mp.mpf, (s1, s2, a, t, x, z))
    if x < a:
        return _oscillating_mp(mp, s2, s1, -a, t, -x, -z)
    sd1, sd2 = s1 * mp.sqrt(t), s2 * mp.sqrt(t)
    if z >= a:
        u, w = ((x - a) + (z - a)) / sd2, (z - x) / sd2
        g = (s1 - s2) / (s1 + s2) * mp.exp(-u * u / 2) + mp.exp(-w * w / 2)
        return g / (sd2 * mp.sqrt(2 * mp.pi))
    u = (z - a) / sd1 - (x - a) / sd2
    return 2 * s2 / (s1 + s2) * mp.exp(-u * u / 2) / (sd1 * mp.sqrt(2 * mp.pi))


@pytest.mark.parametrize("s1", [1e-200, 1e-12, 1e-3, 0.5])
@pytest.mark.parametrize("s2", [1.0, 25642.54, 1e6, 1.67e11])
def test_oscillating_density_keeps_its_digits_when_sigma1_is_far_below_sigma2(s1, s2):
    # on the start's side of a, (sigma1 - sigma2) / (sigma1 + sigma2) rounds to -1,
    # and a sum of the two Gaussian terms cancels: at (1e-200, 25642.54) it is
    # 5.1e-7 off, and at (1e-200, 1.67e11) it reads 0.0 against 1.03e-35
    mp = pytest.importorskip("mpmath")
    for a, t, x, z in ((0.0, 1.0, 0.3, 0.2), (0.0, 0.5, 1.0, 0.1), (0.5, 2.0, 0.6, 3.0),
                       (-1.0, 1e-3, -0.99, -0.95), (0.0, 1.0, 2.0, 3.0), (0.0, 1.0, 0.3, 0.3)):
        with mp.workdps(60):
            want = float(_oscillating_mp(mp, s1, s2, a, t, x, z))
        assert want > 0.0
        got = oscillating_bm_density(s1, s2, a, t, x, z)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("args", [
    (1.0, 1e-320, 0.0, 1.0, 0.3, 0.3),  # 1 / (sigma sqrt(2 pi t)) overflows
    (1e-200, 1.0, 0.0, 1e-250, 0.3, -0.2),  # sigma1 sqrt(t) underflows to 0
    (1e308, 1e308, 0.0, 1.0, 0.3, 0.2),  # sigma1 + sigma2 overflows
    (1.0, 1e300, 0.0, 1e300, 0.3, 0.2),  # sigma2 sqrt(t) overflows
])
def test_oscillating_density_refuses_a_prefactor_past_the_double_range(args):
    with pytest.raises(DomainError, match="double range"):
        oscillating_bm_density(*args)


def test_stationary_point_value_and_mass():
    p = DiffusionParams(1.0, -1.0, 1.0, 1.0, 0.0)
    assert stationary_density(p, 0.0) == pytest.approx(1.0, rel=1e-13)
    val, _ = integrate_finite(
        lambda zs: np.array([stationary_density(p, float(z)) for z in zs]),
        -25.0, 25.0, seed_points=(0.0,))
    assert val == pytest.approx(1.0, abs=1e-9)


def test_stationary_requires_confining_drifts():
    with pytest.raises(NoStationaryLawError):
        stationary_density(DiffusionParams(-1.0, 1.0, 1.0, 1.0, 0.0), 0.0)


def test_stationary_rejects_nan_state():
    with pytest.raises(DomainError):
        stationary_density(TWO_REGIME, math.nan)


def test_time_reversibility_flags():
    assert is_time_reversible(DiffusionParams(0.0, 0.0, 1.0, 1.0, 0.0))
    assert not is_time_reversible(DiffusionParams(1.0, 1.0, 1.0, 2.0, 0.0))
    assert not is_time_reversible(DiffusionParams(1.0, -1.0, 1.0, 1.0, 0.0))


def test_density_rejects_bad_t():
    with pytest.raises(DomainError):
        DensityQuery(TWO_REGIME, 0.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        DensityQuery(TWO_REGIME, 1.0, None, 0.2)
    with pytest.raises(DomainError):
        DensityQuery(TWO_REGIME, "1", 0.1, 0.2)
    with pytest.raises(DomainError):
        density_jump_at_threshold(TWO_REGIME, -1.0, 0.0)


def test_density_overflow_at_huge_t_is_a_library_error():
    # drifts away from a keep this on the quadrature route, whose Gaussian overflows
    with pytest.raises(AccuracyError):
        p_at(DiffusionParams(-1.0, 1.0, 1.0, 2.0, 0.0), 1e300, 0.1, 0.2)


def test_density_far_below_a_is_zero_without_warnings():
    # the convolution kernel's squared exponents overflow to inf there
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert p_at(DiffusionParams(1.0, -1.0, 1.0, 2.0, 0.0), 1.0, 0.5, -1e300) == 0.0


def test_density_at_a_horizon_of_1e_minus_300_is_zero_or_a_library_error():
    # the Gaussian pair and its crossing bound both underflow: the density is 0
    assert p_at(TWO_REGIME, 1e-300, 0.5, 0.2) == 0.0
    # at z = a the true density is near 1e149, which the quadrature cannot reach
    with pytest.raises(ThresholdDiffusionError):
        density_jump_at_threshold(TWO_REGIME, 1e-300, 0.0)


@pytest.mark.parametrize("t", [1e-110, 1e-130, 1e-150, 1e-200])
def test_jump_at_a_tiny_horizon_is_the_two_gaussian_heights(t):
    # as t -> 0 the drifts stop mattering: p(t; a, a+) sqrt(2 pi t) tends to the
    # oscillating BM's 2 sigma1 / (sigma2 (sigma1 + sigma2)) = 1/3, so the jump times
    # sqrt(2 pi t) tends to (1/3)(1 - 4) = -1; the convolution kernels' prefactor
    # overflowed up to t = 1e-150 while the kernel was not one exp of its logarithm,
    # and their product itself at t = 1e-200 while the overshoot integral was a quadrature
    jump = density_jump_at_threshold(TWO_REGIME, t, 0.0)
    assert abs(jump * math.sqrt(2.0 * math.pi * t) + 1.0) <= 1e-12


@pytest.mark.parametrize("t", [1e-250, 1e-300])
def test_jump_past_the_double_range_is_a_library_error(t):
    # the crossing part's tau-integrand, about t^-1.5, overflows near tau = t / 2
    with pytest.raises(ThresholdDiffusionError):
        density_jump_at_threshold(TWO_REGIME, t, 0.0)


# Inputs at the edge of the double range, found by a sweep of extreme parameters,
# where the density once divided by zero or read NaN
UNDERFLOWING_PAIR = (DiffusionParams(6.976738203430948e-75, -3.565920264337515e-49,
                                 2.9759868491716195e-71, 9.070515040062959e-145,
                                 1.3270788841295151),
                     9.916462390323963e-202, 0.028325218767051068, 0.006759436856249216)
ZERO_RATE = (DiffusionParams(1e100, -1e100, 1e148, 1e148, 0.0), 1e290, 0.1, 0.2)
NAN_DENSITY = (DiffusionParams(8.131331686848541e35, 4.57162579704913e-109,
                           4.5041762950219047e108, 1.2784933172048618e-28,
                           0.36037721793630156),
               4.358488906372367e273, -0.018395755649174728, 0.0)


@pytest.mark.parametrize("args", [UNDERFLOWING_PAIR, ZERO_RATE, NAN_DENSITY],
                         ids=["pair-variance-underflows", "zero-decay-rate", "nan"])
def test_density_past_the_double_range_raises_accuracy_error(args):
    # the Gaussian pair's sqrt(2 pi t sigma2^2) underflows to 0; the crossing part's
    # decay rate is 0.0, which the skip bound divided by; the value is NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AccuracyError):
            p_at(*args)


def test_jump_with_a_variance_ratio_past_the_double_range_raises_accuracy_error():
    params = DiffusionParams(0.0, -1.7960653730129987e-299, 1.7278530657106356e-89,
                         2.079012351193694e120, 0.030496534991314272)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AccuracyError):
            density_jump_at_threshold(params, 12.312353552541486, 1.0529682838945404)


def test_density_whose_pasting_weight_overflows_is_refused_without_warnings():
    # finite rates at q = 1 / t of far-apart sizes; c_minus overflowed in _weights
    params = DiffusionParams(-6.51497912448766e135, -2.662244045004801e-287,
                         7.044264510648909e-31, 3.854421098608135e130, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="pasting weight"):
            p_at(params, 0.040976005320035896, -4.780036350860407, 0.0)


def test_density_at_huge_t_under_confining_drifts_is_the_stationary_law():
    # the quadrature route overflowed here; the Talbot route does not
    assert p_at(TWO_REGIME, 1e300, 0.1, 0.2) == pytest.approx(
        stationary_density(TWO_REGIME, 0.2), rel=1e-7)


@pytest.mark.parametrize("t", [3e7, 1e9, 1e20])
@pytest.mark.parametrize("x, z", [(0.1, 0.2), (-0.5, 0.3)])
def test_long_horizon_density_is_the_stationary_law(t, x, z):
    # the overshoot quadrature's decay hint misses the integrand here (it read
    # 3.2e-17 at t = 3e7 for x = 0.1, z = 0.2)
    assert p_at(TWO_REGIME, t, x, z) == pytest.approx(
        stationary_density(TWO_REGIME, z), rel=1e-7)


def _forced_route(monkeypatch, talbot):
    # a zero hint-scale limit sends every point to Talbot, an infinite one none
    monkeypatch.setattr(density_module, "_HINT_SCALE_LIMIT", 0.0 if talbot else math.inf)


# TWO_REGIME's hint-scale switch lies at t = 4093.5 for every x, z; the two points
# at t = 5000 carry Peclet numbers 15.9 and 16.1 past the switch; at t = 1e6 the
# quadrature over the overshoot read 3.8e-7 relative off Talbot
@pytest.mark.parametrize("t, x, z", [
    (2000.0, 0.1, 0.2), (8000.0, 0.1, 0.2), (2000.0, -0.5, 0.3), (8000.0, -0.5, 0.3),
    (2000.0, 0.3, -0.4), (8000.0, 0.3, -0.4), (5000.0, 0.1, 16.0), (5000.0, 0.1, 16.2),
    (1e6, 0.1, 0.2), (1e6, 0.1, -0.3), (1e6, -0.5, 0.7)])
def test_density_routes_agree_on_both_sides_of_the_switch(monkeypatch, t, x, z):
    chosen = p_at(TWO_REGIME, t, x, z)
    with monkeypatch.context() as m:
        _forced_route(m, talbot=True)
        talbot = p_at(TWO_REGIME, t, x, z)
    with monkeypatch.context() as m:
        _forced_route(m, talbot=False)
        quadrature = p_at(TWO_REGIME, t, x, z)
    assert chosen in (talbot, quadrature)
    assert talbot == pytest.approx(quadrature, rel=1e-9)


# (mu1, mu2, sigma1, sigma2, a), t, x, z and 40-digit mpmath Talbot on the
# resolvent; the first two read 2.1e-12 and 4.8e-19 on the crossing quadrature
LONG_HORIZON_PINS = [
    ((1.0, -1.0, 1.0, 2.0, 0.0), 1e5, 0.1, 16.3, 7.218383990710e-5),
    ((1.0, -1.0, 1.0, 2.0, 0.0), 1e5, 0.1, 20.0, 1.134998244062e-5),
    ((2.2556, -2.5562, 1.4391, 0.3629, 0.0), 8660.8421, -1.7201, -0.7539, 2.239765558496e-1),
    ((0.6027, -2.016, 0.0522, 0.9972, 0.0), 9457.1585, 2.0204, 2.6211, 2.261605778161e-5),
    ((2.4913, -2.9255, 0.7492, 0.1517, 0.0), 722.5395, -2.4741, -1.4935, 8.375382252843e-6),
    ((1.6359, -1.0902, 0.5994, 1.536, 0.0), 5174.6876, 1.8021, 16.4108, 1.436381772133e-7),
]


@pytest.mark.parametrize("fields, t, x, z, want", LONG_HORIZON_PINS)
def test_long_horizon_density_matches_mpmath_without_the_crossing_quadrature(
        monkeypatch, fields, t, x, z, want):
    def crossing(*args, **kwargs):
        raise AssertionError("the crossing quadrature ran")
    monkeypatch.setattr(density_module, "_crossing_integral", crossing)
    assert abs(p_at(DiffusionParams(*fields), t, x, z) - want) <= max(1e-9, 1e-7 * want)


# The crossing quadrature against 40- and 60-digit mpmath Talbot (and de Hoog)
# on the resolvent, which agree on every digit pinned here. Its outer integral
# must meet abs_tol / max(1, 2 / sigma^2): at abs_tol it read 2.424841e-3 and
# 9.519e-8.
def test_ordinary_horizon_density_meets_its_tolerance():
    want = 2.424853427595e-3
    got = p_at(DiffusionParams(-0.0618, -2.8226, 0.0956, 0.9626, 0.0), 46.93, 0.7455, -0.8512)
    assert abs(got - want) <= max(1e-9, 1e-7 * want)


def test_long_horizon_tail_density_keeps_relative_accuracy():
    # 1e-3 relative, far below abs_tol: the double integral over the overshoot
    # read 4.36e-11 here, and the closed-form overshoot integral keeps its digits
    want = 4.374445266101e-10
    got = p_at(DiffusionParams(-0.7, -0.2, 3.0, 1.0, 1.2), 1000.0, 0.1, 0.2)
    assert abs(got - want) <= 1e-3 * want


def _overshoot_mp(mp, params, c1, c2, log_scale, tau, r):
    """exp(log_scale) integral_0^inf h(r; (b + c1)/sigma1, -mu1/sigma1) h(tau; (b + c2)/sigma2,
    mu2/sigma2) db by Gauss-Legendre panels at the working precision: across the Gaussian
    in b where its centre is inside [0, inf), else across 40 decay lengths from b = 0."""
    mu1, mu2, s1, s2 = (mp.mpf(v) for v in (params.mu1, params.mu2, params.sigma1, params.sigma2))
    tau, r, c1, c2 = (mp.mpf(v) for v in (tau, r, c1, c2))

    def h(s, y, nu):
        return y / mp.sqrt(2 * mp.pi * s ** 3) * mp.exp(-(y + nu * s) ** 2 / (2 * s))

    v1, v2 = s1 ** 2 * r, s2 ** 2 * tau
    centre = -(v2 * (c1 - mu1 * r) + v1 * (c2 + mu2 * tau)) / (v1 + v2)
    ell = mp.sqrt(v1 * v2 / (v1 + v2))
    y = -centre / ell
    lo = max(0, centre - 15 * ell)
    hi = max(0, centre) + (15 * ell if y <= 1 else 40 * ell / y)
    product = lambda b: h(r, (b + c1) / s1, -mu1 / s1) * h(tau, (b + c2) / s2, mu2 / s2)
    return mp.exp(log_scale) * mp.quad(product, mp.linspace(lo, hi, 121) + [mp.inf],
                                       method="gauss-legendre")


REPELLING = DiffusionParams(-1.0, 1.0, 1.0, 2.0, 0.0)
# Peclet numbers |mu| c / sigma^2 of 100 to 300
STEEP = DiffusionParams(3.0, -2.5, 0.1, 0.15, 0.0)
STEEP_REPELLING = DiffusionParams(-3.0, 2.5, 0.1, 0.15, 0.0)


# params, c1, c2, log_scale, t, tau; the centre y = m / l runs from -21 to 42, and
# a log_scale keeps a value in range where y^2 / 2 alone would underflow it
OVERSHOOT_NODES = [
    (TWO_REGIME, 0.0, 0.3, 0.0, 1.0, 0.5), (TWO_REGIME, 0.4, 0.3, 0.0, 1.0, 0.3),
    (TWO_REGIME, 0.0, 0.0, 0.0, 1.0, 1e-9), (TWO_REGIME, 0.0, 0.0, 0.0, 1.0, 1.0 - 1e-9),
    (TWO_REGIME, 0.7, 0.0, 0.0, 1.0, 1e-9), (TWO_REGIME, 0.0, 0.7, 0.0, 1.0, 1.0 - 1e-9),
    (REPELLING, 0.0, 0.0, 0.0, 1.0, 0.5), (REPELLING, 0.0, 0.0, 0.0, 24.0, 12.0),
    (REPELLING, 0.0, 0.0, 0.0, 30.0, 15.0), (REPELLING, 0.1, 0.2, 0.0, 60.0, 30.0),
    (REPELLING, 0.0, 0.0, 400.0, 1500.0, 750.0), (REPELLING, 0.0, 0.0, 700.0, 2800.0, 1400.0),
    (STEEP, 1.0, 0.5, 0.0, 1.0, 0.4), (STEEP, 0.0, 0.5, 0.0, 1.0, 0.4),
    (STEEP, 0.3, 0.0, 0.0, 1.0, 1e-8), (STEEP, 0.0, 0.2, 0.0, 1.0, 1.0 - 1e-8),
    (STEEP_REPELLING, 0.05, 0.0, 0.0, 0.15, 0.07), (STEEP_REPELLING, 0.0, 0.0, 300.0, 1.0, 0.5),
    (STEEP_REPELLING, 0.001, 0.0, 50.0, 1.0, 1e-8),
    (STEEP_REPELLING, 0.0, 0.001, 50.0, 1.0, 1.0 - 1e-8)]


@pytest.mark.parametrize("params, c1, c2, log_scale, t, tau", OVERSHOOT_NODES)
def test_overshoot_integral_matches_mpmath_quadrature_over_b(params, c1, c2, log_scale, t, tau):
    mp = pytest.importorskip("mpmath")
    r = t - tau
    with np.errstate(all="ignore"):
        got = density_module._overshoot_integral(params, c1, c2, log_scale,
                                                 np.array([tau]), np.array([r]))
    with mp.workdps(40):
        want = float(_overshoot_mp(mp, params, c1, c2, log_scale, tau, r))
    assert 1e-300 < want < math.inf
    assert float(got[0]) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_overshoot_integral_cases_cover_every_branch_of_the_moments():
    # centres below 0, on the recurrence below _CF_FROM, on the continued fraction on
    # both sides of y = 26 sqrt(2) (where erfc(y / sqrt(2)) would underflow)
    ys = []
    for params, c1, c2, _, t, tau in OVERSHOOT_NODES:
        s1, s2 = params.sigma1 ** 2 * (t - tau), params.sigma2 ** 2 * tau
        var = s1 + s2
        m = (s2 * (c1 - params.mu1 * (t - tau)) + s1 * (c2 + params.mu2 * tau)) / var
        ys.append(m / math.sqrt(s1 * s2 / var))
    cf_from, erfc_limit = density_module._CF_FROM, 26.0 * math.sqrt(2.0)
    assert min(ys) < -10.0
    assert any(0.0 <= y < cf_from and y > cf_from - 0.5 for y in ys)
    assert any(cf_from <= y < erfc_limit for y in ys)
    assert any(y > erfc_limit for y in ys)


def test_crossing_density_meets_its_tolerance():
    # 40- and 60-digit mpmath Talbot on the resolvent agree on every digit pinned here
    want = 1.14793777467836e-7
    got = p_at(DiffusionParams(0.3814, 0.5267, 0.2041, 0.4063, 0.0), 11.868, 0.088, -0.3746)
    assert abs(got - want) <= max(1e-9, 1e-7 * want)


def _sweep_point(index):
    """Point `index` of the seeded density sweep: (mu1, mu2, sigma1, sigma2, 0), t, x, z."""
    rng = np.random.default_rng(20261019)
    for _ in range(index + 1):
        mus = rng.uniform(-3.0, 3.0, 2)
        sigmas = np.exp(rng.uniform(math.log(0.08), math.log(2.7), 2))
        t = float(np.exp(rng.uniform(math.log(0.007), math.log(55.0))))
        x, z = rng.uniform(-4.0, 4.0, 2)
    return (*(float(v) for v in (*mus, *sigmas)), 0.0), t, float(x), float(z)


def _mp_density(mp, fields, t, x, z):
    """Talbot inversion of the closed-form resolvent / q at the working precision,
    written for a = 0 after the library's mirror, with d(+/-) = (w +/- mu) / sigma^2."""
    mu1, mu2, s1, s2, _ = (mp.mpf(v) for v in fields)
    x, z = mp.mpf(x), mp.mpf(z)
    if x < 0:
        (mu1, s1), (mu2, s2), x, z = (-mu2, s2), (-mu1, s1), -x, -z

    def transform(q):
        w1, w2 = mp.sqrt(2 * q * s1 ** 2 + mu1 ** 2), mp.sqrt(2 * q * s2 ** 2 + mu2 ** 2)
        out, back = (w2 - mu2) / s2 ** 2, (w2 + mu2) / s2 ** 2
        cross, far = (w1 - mu1) / s1 ** 2, (w1 + mu1) / s1 ** 2
        if z < 0:
            return (far + cross) / (back + cross) * mp.exp(-back * x + far * z) / w1
        direct = mp.exp(-out * (z - x) if z >= x else back * (z - x))
        return (direct + (out - cross) / (back + cross) * mp.exp(-out * z - back * x)) / w2
    return mp.invertlaplace(transform, mp.mpf(t), method="talbot")


# Reference values of the sweep points that the density once missed (the first
# six) or that a Talbot-first route refused (the last five), identical at 40 and
# 60 digits
SWEEP_PINS = {79: 2.984404229756667e-08, 541: 6.0493709962316215e-06,
              1113: 1.1443456294237129e-07, 1300: 1.1518542334763766e-07,
              1446: 1.6681142715555938e-05, 1497: 4.3074588076009936e-04,
              477: 0.20724513069611405, 680: 1.8295925049539505,
              1869: 1.5508478435592252e-06, 1919: 0.04033886934343952,
              2026: 0.9728919865592064}


@pytest.mark.parametrize("index", sorted(set(SWEEP_PINS) | set(range(0, 2500, 50))))
def test_density_matches_mpmath_on_the_seeded_sweep(index):
    # the sweep draws (mu1, mu2), (sigma1, sigma2) log-uniform on [0.08, 2.7], t
    # log-uniform on [0.007, 55] and (x, z) in this order; a point counts only
    # where the 40- and 60-digit references agree
    mp = pytest.importorskip("mpmath")
    fields, t, x, z = _sweep_point(index)
    refs = []
    for dps in (40, 60):
        with mp.workdps(dps):
            refs.append(float(_mp_density(mp, fields, t, x, z)))
    want = refs[1]
    if abs(refs[0] - want) > max(1e-13, 1e-10 * abs(want)):
        pytest.skip(f"40- and 60-digit references differ: {refs!r}")
    if index in SWEEP_PINS:
        assert want == pytest.approx(SWEEP_PINS[index], rel=1e-13, abs=0.0)
    got = p_at(DiffusionParams(*fields), t, x, z)
    assert abs(got - want) <= max(1e-9, 1e-7 * abs(want))


def test_small_volatility_transport_peak_takes_the_certified_gaussian_pair():
    # sigma2 = 0.01 puts the hint-scale ratio below the switch at t = 0.3, but the
    # peak is carried by the drift over |z - x| = |mu2| t, where the Talbot contour
    # loses its damping (the node sums read 8.9e5 and 7.7e14); the closed-form
    # Gaussian pair's bound certifies it here
    p = DiffusionParams(1.0, -1.0, 2.0, 0.01, 0.0)
    assert p_at(p, 0.3, 0.5, 0.2) == pytest.approx(72.83656203947193, rel=1e-12)


def test_long_horizon_density_refuses_what_talbot_cannot_vouch_for(monkeypatch):
    # the crossing quadrature would read 0.0 here against the stationary 0.226
    monkeypatch.setattr(density_module, "_talbot_density", lambda *args: None)
    with pytest.raises(AccuracyError):
        p_at(TWO_REGIME, 1e9, 0.1, 0.2)


def test_a_crossing_decay_rate_without_a_finite_reciprocal_is_refused():
    # the rate at q = 1/t is 2e-309, whose reciprocal overflows, and so does the
    # crossing part's variance sigma^2 t
    with pytest.raises(DomainError, match="double range"):
        p_at(DiffusionParams(10.0, -10.0, 1.3e154, 1.3e154, 0.0), 1e308, 0.1, 0.2)


def test_density_regression_pin():
    assert p_at(TWO_REGIME, 1.0, 0.5, 1.0) == pytest.approx(
        0.17904676882325116, rel=1e-10)


def _binned_masses(params, t, x0, edges):
    out = []
    for i in range(len(edges) - 1):
        def f(zs):
            return np.array([p_at(params, t, x0, float(z)) for z in zs])
        mass, _ = integrate_finite(f, float(edges[i]), float(edges[i + 1]),
                                   settings=QuadSettings(abs_tol=1e-6, rel_tol=1e-6))
        out.append(mass)
    return out


@pytest.mark.slow
def test_monte_carlo_histogram_drift_switch():
    # binned t = 1 law from 1e5 Euler paths vs quadrature of the density;
    # with equal volatilities the Euler weak error is far below the MC noise
    params, t, x0, dt = DiffusionParams(1.0, -1.0, 1.0, 1.0, 0.0), 1.0, 0.0, 1e-3
    ens = simulate_paths(SimConfig(params, x0, t, dt, 100_000, 31337))
    edges, freq, _ = ens.histogram(20, -3.0, 3.0)
    for i, mass in enumerate(_binned_masses(params, t, x0, edges)):
        se = math.sqrt(max(mass * (1 - mass), 1e-12) / ens.n_paths)
        assert abs(freq[i] - mass) <= 3.0 * se, f"bin {i}: {freq[i]} vs {mass}"


@pytest.mark.slow
def test_monte_carlo_histogram_volatility_switch():
    # a volatility discontinuity gives Euler paths an O(sqrt(dt)) weak error
    # concentrated near the threshold (measured coefficient ~0.5 for this
    # set); each bin gets that allowance on top of the sampling noise
    params, t, x0, dt = TWO_REGIME, 1.0, 0.0, 1e-3
    ens = simulate_paths(SimConfig(params, x0, t, dt, 100_000, 31337))
    edges, freq, _ = ens.histogram(20, -3.0, 3.0)
    for i, mass in enumerate(_binned_masses(params, t, x0, edges)):
        se = math.sqrt(max(mass * (1 - mass), 1e-12) / ens.n_paths)
        budget = 3.0 * se + 1.0 * math.sqrt(dt)
        assert abs(freq[i] - mass) <= budget, f"bin {i}: {freq[i]} vs {mass}"
