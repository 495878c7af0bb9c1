"""q-harmonic functions and exit-time Laplace transforms."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from threshold_diffusion import exit as exit_module
from threshold_diffusion import (DegenerateIntervalError, DiffusionParams, DomainError, ExitQuery,
                                 g_minus, g_plus, one_sided_down, one_sided_up, two_sided_exit)
from threshold_diffusion.exit import two_sided_exit_grid

TWO_REGIME = DiffusionParams(1.0, -1.0, 1.0, 2.0, 0.0)

BATTERY = (
    DiffusionParams(0.0, 0.0, 1.0, 1.0, 0.0),
    DiffusionParams(1.0, 1.0, 1.0, 2.0, 0.5),
    TWO_REGIME,
    DiffusionParams(-1.0, 1.0, 2.0, 1.0, -0.3),
    DiffusionParams(0.5, -0.5, 1.0, 4.0, 0.0),
    DiffusionParams(-0.7, -0.2, 3.0, 1.0, 1.2),
)


def linearexp(mu, sigma, q, dist):
    # one-regime transform over a distance: exp(mu d - d sqrt(2q sigma^2 + mu^2))/sigma^2
    return math.exp((mu * dist - dist * math.sqrt(2 * q * sigma**2 + mu**2)) / sigma**2)


def test_g_equals_one_at_threshold():
    # exactly 1, as documented: at a, the log of g_minus's pasted sum need not
    # round to 0 (it gives 0.9999999999999999 for TWO_REGIME at q = 2 and 3.5)
    for p in BATTERY:
        for q in (0.3, 1.0, 2.0, 3.5, 4.0, *np.logspace(-6, 6, 37)):
            assert g_minus(p, q, p.a) == 1.0
            assert g_plus(p, q, p.a) == 1.0


def test_g_monotonicity():
    xs = np.linspace(-3.0, 3.0, 25)
    for p in (TWO_REGIME, BATTERY[3]):
        gm = [g_minus(p, 1.0, float(x)) for x in xs]
        gp = [g_plus(p, 1.0, float(x)) for x in xs]
        assert all(a > b for a, b in zip(gm, gm[1:]))
        assert all(a < b for a, b in zip(gp, gp[1:]))


def test_g_single_regime_value():
    p = DiffusionParams(0.0, 0.0, 1.0, 1.0, 0.0)
    assert g_minus(p, 0.5, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-13)


def test_g_rejects_nonpositive_q():
    with pytest.raises(DomainError):
        g_minus(TWO_REGIME, 0.0, 1.0)
    with pytest.raises(DomainError):
        g_plus(TWO_REGIME, -1.0, 1.0)


@pytest.mark.parametrize("g", [g_minus, g_plus])
@pytest.mark.parametrize("x", [-0.7, 0.7])
def test_g_satisfies_the_ode(g, x):
    # residual of (sigma^2/2) g'' + mu g' - q g by central differences away
    # from the threshold, where the pieces are smooth
    p, q, h = TWO_REGIME, 1.0, 1e-3
    mu = p.mu1 if x <= p.a else p.mu2
    sigma = p.sigma1 if x <= p.a else p.sigma2
    f0, fp, fm = g(p, q, x), g(p, q, x + h), g(p, q, x - h)
    d1 = (fp - fm) / (2 * h)
    d2 = (fp - 2 * f0 + fm) / (h * h)
    residual = 0.5 * sigma * sigma * d2 + mu * d1 - q * f0
    assert abs(residual) <= 1e-5 * max(1.0, abs(f0))


@pytest.mark.parametrize("q", [0.5, 2.0])
def test_smooth_pasting(q):
    # one-sided second-order stencils on both sides of the threshold; a
    # straddling quotient would average away a kink instead of exposing it
    h = 1e-5
    for p in BATTERY:
        a = p.a
        for g in (g_minus, g_plus):
            right = (-3 * g(p, q, a) + 4 * g(p, q, a + h) - g(p, q, a + 2 * h)) / (2 * h)
            left = (3 * g(p, q, a) - 4 * g(p, q, a - h) + g(p, q, a - 2 * h)) / (2 * h)
            assert abs(right - left) <= 1e-6 * max(1.0, abs(right), abs(left))


def test_two_sided_boundary_starts():
    assert two_sided_exit(ExitQuery(TWO_REGIME, 0.5, -1.0, -1.0, 1.0)) == (1.0, 0.0)
    assert two_sided_exit(ExitQuery(TWO_REGIME, 0.5, 1.0, -1.0, 1.0)) == (0.0, 1.0)


def test_two_sided_symmetric_brownian():
    p = DiffusionParams(0.0, 0.0, 1.0, 1.0, 0.0)
    down, up = two_sided_exit(ExitQuery(p, 0.5, 0.0, -1.0, 1.0))
    want = math.sinh(1.0) / math.sinh(2.0)
    assert down == pytest.approx(want, rel=1e-12)
    assert up == pytest.approx(want, rel=1e-12)


def test_two_sided_regression_pin():
    down, up = two_sided_exit(ExitQuery(TWO_REGIME, 0.7, 0.5, -1.0, 2.0))
    assert down == pytest.approx(0.16144071695593085, rel=1e-12)
    assert up == pytest.approx(0.28328661952688705, rel=1e-12)


def test_two_sided_errors():
    with pytest.raises(DegenerateIntervalError):
        two_sided_exit(ExitQuery(TWO_REGIME, 0.5, 1.0, 1.0, 1.0))
    with pytest.raises(DomainError):
        ExitQuery(TWO_REGIME, 0.5, 0.0, 1.0, 2.0)
    with pytest.raises(DomainError):
        ExitQuery(TWO_REGIME, 0.0, 0.0, -1.0, 1.0)


def test_two_sided_probabilistic_bounds():
    for p in BATTERY:
        for q in (0.5, 2.0):
            for x in (-0.5, 0.0, 0.8):
                down, up = two_sided_exit(ExitQuery(p, q, x, -1.5, 1.5))
                assert 0.0 <= down <= 1.0
                assert 0.0 <= up <= 1.0
                assert down + up <= 1.0 + 1e-12


@st.composite
def exit_problems(draw):
    unit = st.floats(0.0, 1.0)
    params = DiffusionParams(-2.0 + 4.0 * draw(unit), -2.0 + 4.0 * draw(unit),
                         0.3 + 2.7 * draw(unit), 0.3 + 2.7 * draw(unit),
                         -1.0 + 2.0 * draw(unit))
    y, x, z = sorted(params.a - 3.0 + 6.0 * draw(unit) for _ in range(3))
    assume(y < z)
    return ExitQuery(params, 10.0 ** (-3.0 + 5.0 * draw(unit)), x, y, z)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(exit_problems())
def test_two_sided_pair_is_a_subprobability(query):
    down, up = two_sided_exit(query)
    assert 0.0 <= down <= 1.0
    assert 0.0 <= up <= 1.0
    assert down + up <= 1.0 + 1e-12


@st.composite
def exit_grids(draw):
    query = draw(exit_problems())
    x = draw(st.sampled_from((query.x, query.y, query.z)))  # inside or at either end
    rate = st.floats(-3.0, 2.0).map(lambda e: 10.0 ** e)
    # 1-17 rates covers every SIMD tail length
    q = np.array(draw(st.lists(rate, min_size=1, max_size=17)))
    return query.params, q, x, query.y, query.z


@settings(max_examples=300, deadline=None, derandomize=True)
@given(exit_grids())
def test_grid_and_point_transforms_agree_bit_for_bit(case):
    params, q, x, y, z = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy overflow, invalid or divide warnings fail
        down, up = two_sided_exit_grid(params, q, x, y, z)
        points = np.array([two_sided_exit(ExitQuery(params, float(r), x, y, z)) for r in q])
    assert np.stack([down, up], axis=1).tobytes() == points.tobytes()


def test_nan_states_are_rejected():
    nan = math.nan
    calls = (lambda: g_minus(TWO_REGIME, 1.0, nan), lambda: g_plus(TWO_REGIME, 1.0, nan),
             lambda: one_sided_down(TWO_REGIME, 1.0, nan, 0.0),
             lambda: one_sided_down(TWO_REGIME, 1.0, 0.5, nan),
             lambda: one_sided_up(TWO_REGIME, 1.0, nan, 0.0),
             lambda: one_sided_up(TWO_REGIME, 1.0, 0.5, nan))
    for call in calls:
        with pytest.raises(DomainError):
            call()


def test_entry_points_reject_non_numbers_and_overflow_as_library_errors():
    calls = (lambda: ExitQuery(TWO_REGIME, 1.0, None, -1.0, 1.0),
             lambda: ExitQuery(TWO_REGIME, "1", 0.0, -1.0, 1.0),
             lambda: ExitQuery(TWO_REGIME, None, 0.0, -1.0, 1.0),
             lambda: exit_module._check_states(None),
             lambda: g_plus(TWO_REGIME, 1.0, "0"),
             # g_minus(-40) = exp(8040) has no float
             lambda: g_minus(DiffusionParams(1.0, -1.0, 0.1, 2.0, 0.0), 1.0, -40.0))
    for call in calls:
        with pytest.raises(DomainError):
            call()


def test_infinite_levels_keep_their_one_sided_limits():
    inf = math.inf
    down, up = one_sided_down(TWO_REGIME, 1.0, 0.1, -1.0), one_sided_up(TWO_REGIME, 1.0, 0.1, 1.0)
    assert two_sided_exit(ExitQuery(TWO_REGIME, 1.0, 0.1, -inf, 1.0)) == (0.0, pytest.approx(up))
    assert two_sided_exit(ExitQuery(TWO_REGIME, 1.0, 0.1, -1.0, inf)) == (pytest.approx(down), 0.0)
    assert two_sided_exit(ExitQuery(TWO_REGIME, 1.0, 0.1, -inf, inf)) == (0.0, 0.0)


def _mp_two_sided_exit(mp, params, q, x, y, z):
    # textbook pasting weights at 60 digits, enough to absorb their cancellation
    mu1, mu2, s1, s2, a, q, x, y, z = (mp.mpf(v) for v in (
        params.mu1, params.mu2, params.sigma1, params.sigma2, params.a, q, x, y, z))

    def rates(mu, s):
        w = mp.sqrt(2 * q * s ** 2 + mu ** 2)
        return (w + mu) / s ** 2, (w - mu) / s ** 2
    (d1p, d1m), (d2p, d2m) = rates(mu1, s1), rates(mu2, s2)
    cm, cp = (d1p - d2p) / (d1m + d1p), (d2m - d1m) / (d2m + d2p)

    def gm(u):
        s = u - a
        return mp.exp(-d1p * s) * (1 - cm + cm * mp.exp((d1m + d1p) * s)) if s <= 0 \
            else mp.exp(-d2p * s)

    def gp(u):
        s = u - a
        return mp.exp(d1m * s) if s <= 0 \
            else mp.exp(d2m * s) * (1 - cp + cp * mp.exp(-(d2m + d2p) * s))
    den = gm(y) * gp(z) - gm(z) * gp(y)
    return (gp(z) * gm(x) - gm(z) * gp(x)) / den, (gm(y) * gp(x) - gp(y) * gm(x)) / den


@pytest.mark.parametrize("sigma1", [1e-4, 1e-6, 1e-7, 1e-8])
def test_two_sided_exit_at_small_volatility_matches_mpmath(sigma1):
    # 1 - c_minus once cancelled (up read 0.40404 at 1e-7, a domain error at 1e-8)
    mp = pytest.importorskip("mpmath")
    p = DiffusionParams(1.0, -1.0, sigma1, 2.0, 0.0)
    with mp.workdps(60):
        for x, y, z in ((0.1, -1.0, 1.0), (-0.5, -1.0, 1.0), (0.5, -0.2, 0.7), (-0.3, -2.0, -0.1)):
            want = _mp_two_sided_exit(mp, p, 1.0, x, y, z)
            got = two_sided_exit(ExitQuery(p, 1.0, x, y, z))
            for g, w in zip(got, want):
                assert g == pytest.approx(float(w), rel=1e-13, abs=1e-300)


def test_overflowing_rate_is_rejected():
    with pytest.raises(DomainError):
        two_sided_exit(ExitQuery(TWO_REGIME, 1e308, 0.1, -1.0, 1.0))
    with pytest.raises(DomainError):
        g_minus(TWO_REGIME, 1e308, 0.5)


def test_transforms_decrease_in_q():
    qs = (0.25, 0.5, 1.0, 2.0, 4.0)
    downs = [one_sided_down(TWO_REGIME, q, 0.5, -1.0) for q in qs]
    ups = [one_sided_up(TWO_REGIME, q, 0.5, 2.0) for q in qs]
    assert all(a > b for a, b in zip(downs, downs[1:]))
    assert all(a > b for a, b in zip(ups, ups[1:]))


def test_one_sided_trivial_starts():
    assert one_sided_down(TWO_REGIME, 0.5, 1.0, 1.0) == 1.0
    assert one_sided_up(TWO_REGIME, 0.5, 1.0, 1.0) == 1.0


def test_one_sided_down_single_regime():
    p = DiffusionParams(0.0, 0.0, 1.0, 1.0, 0.0)
    assert one_sided_down(p, 0.5, 1.0, 0.0) == pytest.approx(math.exp(-1.0), rel=1e-13)


def test_one_sided_up_single_regime_two_rates():
    # exp(mu d - d sqrt(2q + mu^2)) at mu = 1, d = 1: sqrt(2) at q = 0.5
    # and sqrt(3) at q = 1
    p = DiffusionParams(1.0, 1.0, 1.0, 1.0, 0.0)
    assert one_sided_up(p, 0.5, 0.0, 1.0) == pytest.approx(
        math.exp(1.0 - math.sqrt(2.0)), rel=1e-12)
    assert one_sided_up(p, 1.0, 0.0, 1.0) == pytest.approx(
        math.exp(1.0 - math.sqrt(3.0)), rel=1e-12)


def test_one_sided_down_is_g_ratio():
    got = one_sided_down(TWO_REGIME, 1.0, 1.0, -1.0)
    ratio = g_minus(TWO_REGIME, 1.0, 1.0) / g_minus(TWO_REGIME, 1.0, -1.0)
    assert got == pytest.approx(ratio, rel=1e-12)
    assert got == pytest.approx(0.10503781203983005, rel=1e-12)


def test_one_sided_up_regression_pin():
    assert one_sided_up(TWO_REGIME, 1.0, -1.0, 1.0) == pytest.approx(
        0.2054295792492502, rel=1e-12)


def test_one_sided_ordering_errors():
    with pytest.raises(DomainError):
        one_sided_down(TWO_REGIME, 0.5, 0.0, 1.0)
    with pytest.raises(DomainError):
        one_sided_up(TWO_REGIME, 0.5, 1.0, 0.0)


def test_one_sided_monotone_in_level():
    zs = np.linspace(0.5, 6.0, 12)
    vals = [one_sided_up(TWO_REGIME, 1.0, 0.0, float(z)) for z in zs]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_one_sided_matches_two_sided_limit():
    # pushing the far boundary out recovers the one-sided transform
    for p in (TWO_REGIME, BATTERY[4]):
        down, _ = two_sided_exit(ExitQuery(p, 1.0, 0.5, -1.0, -1.0 + 40.0))
        assert down == pytest.approx(one_sided_down(p, 1.0, 0.5, -1.0), abs=1e-8)


def test_single_regime_reduction_closed_form():
    for mu in (-0.7, 0.0, 0.7):
        for q in (0.5, 2.0):
            for sigma in (1.0, 1.5):
                p = DiffusionParams(mu, mu, sigma, sigma, 0.0)
                for dist in (0.3, 2.0):
                    assert one_sided_down(p, q, dist, 0.0) == pytest.approx(
                        linearexp(-mu, sigma, q, dist), rel=1e-12, abs=0.0)
                    assert one_sided_up(p, q, 0.0, dist) == pytest.approx(
                        linearexp(mu, sigma, q, dist), rel=1e-12, abs=0.0)
