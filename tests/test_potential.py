"""Resolvent (q-potential) density against independent oracles."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from threshold_diffusion import (DiffusionParams, DomainError, NoStationaryLawError,
                                 PotentialQuery, g_minus, g_plus, potential_density,
                                 stationary_density)
from threshold_diffusion.params import deltas
from threshold_diffusion.potential import potential_grid
from threshold_diffusion.quadrature import QuadSettings, integrate_finite

TWO_REGIME = DiffusionParams(1.0, -1.0, 1.0, 2.0, 0.0)

# mixed drift signs and volatility ratios from 1 to 4
BATTERY8 = (
    DiffusionParams(0.0, 0.0, 1.0, 1.0, 0.0),
    DiffusionParams(1.0, 1.0, 1.0, 2.0, 0.5),
    TWO_REGIME,
    DiffusionParams(-1.0, 1.0, 2.0, 1.0, -0.3),
    DiffusionParams(0.5, -0.5, 1.0, 4.0, 0.0),
    DiffusionParams(-0.7, -0.2, 3.0, 1.0, 1.2),
    DiffusionParams(0.3, 0.7, 2.0, 0.5, 0.4),
    DiffusionParams(-2.0, -1.0, 1.0, 3.0, -1.0),
)


def resolvent_oracle(params, q, x, z):
    """Independent route: q g+(x^z) g-(x v z) m(z) / w_q with the scale-free
    Wronskian w_q = d1_minus + d2_plus and speed density m."""
    d = deltas(params, q)
    lo, hi = (x, z) if x <= z else (z, x)
    if z <= params.a:
        mu, sig = params.mu1, params.sigma1
    else:
        mu, sig = params.mu2, params.sigma2
    m = (2.0 / (sig * sig)) * math.exp(2.0 * mu * (z - params.a) / (sig * sig))
    w = d.d1_minus + d.d2_plus
    return q * g_plus(params, q, lo) * g_minus(params, q, hi) * m / w


def test_single_regime_at_start_point():
    p = DiffusionParams(0.0, 0.0, 1.0, 1.0, 0.0)
    assert potential_density(PotentialQuery(p, 0.5, 0.3, 0.3)) == pytest.approx(0.5, rel=1e-13)


def test_single_regime_closed_form_grid():
    mu, sigma = 0.4, 1.3
    p = DiffusionParams(mu, mu, sigma, sigma, 0.0)
    for q in (0.5, 2.0):
        w = math.sqrt(2 * q * sigma**2 + mu**2)
        dp, dm = (w + mu) / sigma**2, (w - mu) / sigma**2
        for x in (-1.0, 0.0, 0.7):
            for z in (-1.5, -0.2, 0.7, 2.0):
                want = (q / w) * math.exp(-dm * (z - x) if z >= x else -dp * (x - z))
                got = potential_density(PotentialQuery(p, q, x, z))
                assert got == pytest.approx(want, rel=1e-10)


def test_wronskian_oracle_random_sweep():
    rng = np.random.default_rng(23)
    for _ in range(120):
        mu1, mu2 = rng.normal(size=2) * 1.5
        s1, s2 = rng.uniform(0.3, 3.0, size=2)
        a = rng.normal() * 0.5
        p = DiffusionParams(mu1, mu2, s1, s2, a)
        q = rng.uniform(0.1, 5.0)
        x, z = rng.normal(size=2) * 2 + a
        want = resolvent_oracle(p, q, float(x), float(z))
        got = potential_density(PotentialQuery(p, q, float(x), float(z)))
        assert got == pytest.approx(want, rel=1e-11, abs=1e-300)


def test_normalization_worked_example():
    def f(zs):
        return np.array([potential_density(PotentialQuery(TWO_REGIME, 1.0, 0.3, float(z)))
                         for z in zs])
    val, _ = integrate_finite(f, -40.0, 40.0, seed_points=(0.0, 0.3),
                              settings=QuadSettings(abs_tol=1e-9, rel_tol=1e-9))
    assert val == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("params", BATTERY8, ids=range(len(BATTERY8)))
def test_normalization_battery(params):
    q = 1.0
    x = params.a - 0.3
    d = deltas(params, q)
    lo = min(params.a - 60.0 / d.d1_plus, x - 1.0)
    hi = max(params.a + 60.0 / d.d2_minus, x + 1.0)

    def f(zs):
        return np.array([potential_density(PotentialQuery(params, q, x, float(z)))
                         for z in zs])
    val, _ = integrate_finite(f, lo, hi, seed_points=(params.a, x),
                              settings=QuadSettings(abs_tol=1e-9, rel_tol=1e-9))
    assert val == pytest.approx(1.0, abs=1e-6)


def test_reflection_identity_exact():
    p = TWO_REGIME
    m = p.mirrored()
    for q in (0.5, 2.0):
        for x in np.linspace(-1.5, 1.5, 5):
            for z in np.linspace(-2.0, 2.0, 5):
                direct = potential_density(PotentialQuery(p, q, float(x), float(z)))
                # z = -a must land on the mirrored branch of the same limit,
                # so nudge the reflected observation point off the threshold
                if -float(z) == m.a:
                    continue
                mirrored = potential_density(PotentialQuery(m, q, -float(x), -float(z)))
                assert direct == pytest.approx(mirrored, rel=1e-12, abs=1e-300)


def test_branch_agreement_at_start_boundary():
    # the x >= a and x < a expressions must meet continuously at x = a
    for q in (0.5, 1.0, 3.0):
        for z in (-1.0, -0.2, 0.4, 1.5):
            upper = potential_density(PotentialQuery(TWO_REGIME, q, 0.0, z))
            lower = potential_density(PotentialQuery(TWO_REGIME, q, -1e-12, z))
            assert upper == pytest.approx(lower, abs=1e-10)


def test_positivity_on_grid():
    for p in BATTERY8:
        for x in (-0.8, 0.1, 1.3):
            for z in np.linspace(-4, 4, 17):
                assert potential_density(PotentialQuery(p, 1.0, x, float(z))) >= 0.0


def test_query_validation():
    with pytest.raises(DomainError):
        PotentialQuery(TWO_REGIME, 0.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        PotentialQuery(TWO_REGIME, -1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        PotentialQuery(TWO_REGIME, 1.0, math.inf, 1.0)
    with pytest.raises(DomainError):
        PotentialQuery(TWO_REGIME, 1.0, 0.0, math.nan)
    with pytest.raises(DomainError):
        PotentialQuery(TWO_REGIME, "1", 0.1, 0.2)
    with pytest.raises(DomainError):
        PotentialQuery(TWO_REGIME, 1.0, None, 0.2)


def test_overflowing_rate_is_rejected():
    with pytest.raises(DomainError):
        potential_density(PotentialQuery(TWO_REGIME, 1e308, 0.1, 0.2))


@pytest.mark.parametrize("x, z", [(0.0, 0.5), (0.0, -0.5), (-0.5, 0.2)])
def test_subnormal_rate_is_rejected_without_a_warning(x, z):
    # the pasting weights overflow at q = 1e-320, on either side of a
    with pytest.raises(DomainError):
        potential_density(PotentialQuery(TWO_REGIME, 1e-320, x, z))


@st.composite
def potential_points(draw):
    unit = st.floats(0.0, 1.0)
    params = DiffusionParams(-2.0 + 4.0 * draw(unit), -2.0 + 4.0 * draw(unit),
                         0.3 + 2.7 * draw(unit), 0.3 + 2.7 * draw(unit),
                         -1.0 + 2.0 * draw(unit))
    q = 10.0 ** (-3.0 + 5.0 * draw(unit))
    x = params.a - 3.0 + 6.0 * draw(unit)
    z = params.a - 3.0 + 6.0 * draw(unit)
    return params, q, x, z


@settings(max_examples=500, deadline=None, derandomize=True)
@given(potential_points())
def test_mirror_identity(case):
    # X -> -X is the threshold diffusion with DiffusionParams.mirrored()
    params, q, x, z = case
    assume(z != params.a)  # z = a is a one-sided limit on each side
    direct = potential_density(PotentialQuery(params, q, x, z))
    mirrored = potential_density(PotentialQuery(params.mirrored(), q, -x, -z))
    assert direct == pytest.approx(mirrored, rel=1e-12, abs=1e-300)


@st.composite
def potential_grids(draw):
    params, q, x, _ = draw(potential_points())
    d = deltas(params, q)
    # the threshold, the start, and where each decaying exponential reaches e^-700
    special = [params.a, x] + [params.a + side * 700.0 / rate for side, rate in (
        (1.0, d.d2_minus), (1.0, d.d2_plus), (-1.0, d.d1_plus), (-1.0, d.d1_minus))]
    point = st.one_of(st.sampled_from(special), st.floats(params.a - 3.0, params.a + 3.0))
    # 1-17 points covers every SIMD tail length
    return params, q, x, np.array(draw(st.lists(point, min_size=1, max_size=17)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(potential_grids())
def test_grid_and_point_evaluations_agree_bit_for_bit(case):
    params, q, x, z = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy overflow, invalid or divide warnings fail
        grid = potential_grid(params, q, x, z)
        points = np.array([potential_density(PotentialQuery(params, q, x, float(v)))
                           for v in z])
    assert grid.tobytes() == points.tobytes()


def test_q_to_zero_point_value():
    p = DiffusionParams(1.0, -1.0, 1.0, 1.0, 0.0)
    assert stationary_density(p, 0.0) == pytest.approx(1.0, rel=1e-13)


def test_q_to_zero_total_mass():
    for mu1, mu2, s1, s2 in ((1.0, -1.0, 1.0, 2.0), (0.3, -2.0, 0.7, 1.1)):
        p = DiffusionParams(mu1, mu2, s1, s2, 0.2)

        def f(zs):
            return np.array([stationary_density(p, float(z)) for z in zs])
        span = 40.0 * max(s1, s2) ** 2 / min(mu1, -mu2)
        val, _ = integrate_finite(f, p.a - span, p.a + span, seed_points=(p.a,))
        assert val == pytest.approx(1.0, abs=1e-8)


def test_q_to_zero_matches_small_q():
    p = TWO_REGIME
    for z in (-2.0, -1.0, 0.0, 1.0, 2.0):
        limit = stationary_density(p, z)
        small_q = potential_density(PotentialQuery(p, 1e-5, 0.3, z))
        assert small_q == pytest.approx(limit, abs=1e-3)


def test_q_to_zero_requires_confining_drifts():
    for mu1, mu2 in ((-1.0, -1.0), (1.0, 1.0), (0.0, -1.0), (1.0, 0.0)):
        with pytest.raises(NoStationaryLawError):
            stationary_density(DiffusionParams(mu1, mu2, 1.0, 1.0, 0.0), 0.5)


def test_potential_regression_pins():
    assert potential_density(PotentialQuery(TWO_REGIME, 1.0, 0.5, 1.0)) == pytest.approx(
        0.22294679001823464, rel=1e-13)
    assert potential_density(PotentialQuery(TWO_REGIME, 1.0, 0.5, -0.5)) == pytest.approx(
        0.32253025686996356, rel=1e-13)


def test_far_field_is_finite_and_tiny():
    v = potential_density(PotentialQuery(TWO_REGIME, 1.0, 0.0, 500.0))
    assert 0.0 <= v < 1e-200
    v = potential_density(PotentialQuery(TWO_REGIME, 1.0, 0.0, -500.0))
    assert 0.0 <= v < 1e-200
