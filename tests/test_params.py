"""Parameter objects, delta rates, and the first-passage h kernel."""

import math

import numpy as np
import pytest

from threshold_diffusion import (DensityQuery, DiffusionParams, DomainError, ExitQuery,
                                 InvalidParameterError, PotentialQuery, SimConfig,
                                 potential_density, simulate_paths, stationary_density,
                                 transition_density, two_sided_exit)
from threshold_diffusion.params import deltas, h_kernel
from threshold_diffusion.quadrature import QuadSettings, integrate_semi_infinite


def test_valid_construction():
    DiffusionParams(0.0, 0.0, 1.0, 1.0, 0.0)
    DiffusionParams(1.0, -1.0, 1.0, 2.0, 0.0)


def test_nonpositive_sigma_names_field():
    with pytest.raises(InvalidParameterError, match="sigma1"):
        DiffusionParams(0.0, 0.0, 0.0, 1.0, 0.0)
    with pytest.raises(InvalidParameterError, match="sigma2"):
        DiffusionParams(0.0, 0.0, 1.0, -2.0, 0.0)


@pytest.mark.parametrize("sigma", [1e-155, 1e-200, 1e160])
def test_sigma_without_normal_square_rejected(sigma):
    # every rate divides by sigma^2; a subnormal, zero or infinite square has no rates
    with pytest.raises(InvalidParameterError, match="sigma1"):
        DiffusionParams(1.0, -1.0, sigma, 2.0, 0.0)
    with pytest.raises(InvalidParameterError, match="sigma2"):
        DiffusionParams(1.0, -1.0, 2.0, sigma, 0.0)


def test_tiny_sigma_with_normal_square_reaches_its_limit():
    # sigma1 = 1e-150 (square 1e-300) gives the same values as 1e-50: the sigma1 -> 0 limit
    tiny = DiffusionParams(1.0, -1.0, 1e-150, 2.0, 0.0)
    small = DiffusionParams(1.0, -1.0, 1e-50, 2.0, 0.0)
    for run in (lambda p: potential_density(PotentialQuery(p, 1.0, 0.1, 0.2)),
                lambda p: transition_density(DensityQuery(p, 1.0, 0.1, 0.2)),
                lambda p: two_sided_exit(ExitQuery(p, 1.0, 0.1, -1.0, 1.0))[1],
                lambda p: stationary_density(p, 0.2)):
        assert run(tiny) > 0.0
        assert run(tiny) == pytest.approx(run(small), rel=1e-12)
    assert stationary_density(tiny, -1e-300) == pytest.approx(math.exp(-2.0) * 1e300, rel=1e-12)


def test_nonfinite_fields_rejected():
    with pytest.raises(InvalidParameterError, match="mu1"):
        DiffusionParams(math.nan, 0.0, 1.0, 1.0, 0.0)
    with pytest.raises(InvalidParameterError, match="a"):
        DiffusionParams(0.0, 0.0, 1.0, 1.0, math.inf)
    with pytest.raises(InvalidParameterError, match="mu2"):
        DiffusionParams(0.0, None, 1.0, 1.0, 0.0)
    with pytest.raises(InvalidParameterError, match="sigma1"):
        DiffusionParams(0.0, 0.0, "1", 1.0, 0.0)


def test_params_frozen():
    p = DiffusionParams(0.0, 0.0, 1.0, 1.0, 0.0)
    with pytest.raises(AttributeError):
        p.mu1 = 2.0


def test_mirrored_swaps_regimes():
    p = DiffusionParams(1.0, -2.0, 1.5, 0.5, 0.3)
    m = p.mirrored()
    assert (m.mu1, m.mu2, m.sigma1, m.sigma2, m.a) == (2.0, -1.0, 0.5, 1.5, -0.3)
    r = m.mirrored()
    assert (r.mu1, r.mu2, r.sigma1, r.sigma2, r.a) == (p.mu1, p.mu2, p.sigma1, p.sigma2, p.a)


def test_deltas_zero_drift():
    d = deltas(DiffusionParams(0.0, 0.0, 1.0, 1.0, 0.0), 0.5)
    assert d.d1_plus == pytest.approx(1.0, rel=1e-14)
    assert d.d1_minus == pytest.approx(1.0, rel=1e-14)


def test_deltas_worked_example():
    # sqrt(2*1*4 + 1) = 3, so (3 + 1)/4 and (3 - 1)/4
    d = deltas(DiffusionParams(1.0, 0.0, 2.0, 1.0, 0.0), 1.0)
    assert d.d1_plus == pytest.approx(1.0, rel=1e-14)
    assert d.d1_minus == pytest.approx(0.5, rel=1e-14)


def test_deltas_negative_q_rejected():
    for q in (-0.1, 0.0):  # every rate must be positive; q = 0 has no limit case
        with pytest.raises(DomainError):
            deltas(DiffusionParams(0.0, 0.0, 1.0, 1.0, 0.0), q)


def test_deltas_refuse_a_rate_whose_square_term_underflows():
    # without drift, 2 q sigma^2 = 2e-324 rounds to 0: both rates of regime 1 collapse
    with pytest.raises(DomainError):
        deltas(DiffusionParams(0.0, 0.0, 1e-150, 1.0, 0.0), 1e-24)
    with pytest.raises(DomainError):
        deltas(DiffusionParams(0.0, 0.0, 1e-150, 1.0, 0.0), np.array([1.0, 1e-24]))


def test_deltas_over_an_array_equal_the_calls_per_rate():
    p = DiffusionParams(1.3, -0.4, 0.7, 2.1, 0.2)
    q = np.array([1e-300, 1e-9, 0.37, 1.0, 55.0, 1e250])
    grid = deltas(p, q)
    fields = ("d1_plus", "d1_minus", "d2_plus", "d2_minus", "c_minus", "c_plus")
    for k, rate in enumerate(q):
        point = deltas(p, float(rate))
        for name in fields:
            assert getattr(point, name).tobytes() == getattr(grid, name)[k].tobytes()


def test_delta_identities():
    rng = np.random.default_rng(7)
    for _ in range(50):
        mu1, mu2 = rng.normal(size=2) * 2
        s1, s2 = rng.uniform(0.2, 4.0, size=2)
        q = rng.uniform(0.05, 8.0)
        p = DiffusionParams(mu1, mu2, s1, s2, 0.0)
        d = deltas(p, q)
        assert d.d1_plus * d.d1_minus == pytest.approx(2 * q / s1**2, rel=1e-12)
        assert d.d2_plus * d.d2_minus == pytest.approx(2 * q / s2**2, rel=1e-12)
        assert d.d1_plus + d.d1_minus == pytest.approx(
            2 * math.sqrt(2 * q * s1**2 + mu1**2) / s1**2, rel=1e-12)
        # the pasting weights stay on the correct side of 1
        assert 1.0 - d.c_minus > 0.0
        assert 1.0 - d.c_plus > 0.0


@pytest.mark.parametrize("q", [1e-300, 1e-16, 1e-12, 1.0])
def test_deltas_match_high_precision_roots(q):
    # the small root must keep full relative accuracy as 2 q s^2 drops below mu^2 eps;
    # w - mu cancels about -log10(q) digits, so the reference carries 30 beyond those
    mp = pytest.importorskip("mpmath")
    p = DiffusionParams(1.0, -1.0, 1.0, 2.0, 0.0)
    d = deltas(p, q)
    with mp.workdps(30 + max(0, round(-math.log10(q)))):
        for mu, sigma, got_plus, got_minus in ((p.mu1, p.sigma1, d.d1_plus, d.d1_minus),
                                               (p.mu2, p.sigma2, d.d2_plus, d.d2_minus)):
            s2 = mp.mpf(sigma) ** 2
            w = mp.sqrt(2 * mp.mpf(q) * s2 + mp.mpf(mu) ** 2)
            assert got_plus == pytest.approx(float((w + mu) / s2), rel=1e-14, abs=0.0)
            assert got_minus == pytest.approx(float((w - mu) / s2), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("params", [DiffusionParams(1.0, -1.0, 1.0, 2.0, 0.0),
                                    DiffusionParams(0.5, -2.0, 3.0, 0.7, -0.4)])
def test_potential_at_tiny_rate_is_stationary(params):
    for x, z in ((0.3, 0.5), (-1.0, -0.2), (2.0, -1.5), (-0.7, 1.1)):
        got = potential_density(PotentialQuery(params, 1e-16, x, z))
        assert got == pytest.approx(stationary_density(params, z), rel=1e-9)


def test_h_kernel_zero_displacement():
    assert h_kernel(1.0, 0.0, 5.0) == 0.0


def test_h_kernel_point_value():
    want = math.exp(-0.5) / math.sqrt(2 * math.pi)
    assert h_kernel(1.0, 1.0, 0.0) == pytest.approx(want, rel=1e-14)


def test_h_kernel_reflection_identities():
    rng = np.random.default_rng(11)
    for _ in range(40):
        t = rng.uniform(0.05, 5.0)
        x = rng.normal() * 2
        mu = rng.normal()
        assert h_kernel(t, x, mu) == pytest.approx(h_kernel(t, -x, -mu), rel=1e-13, abs=1e-300)
        assert h_kernel(t, -x, mu) == pytest.approx(
            h_kernel(t, x, mu) * math.exp(2 * mu * x), rel=1e-12, abs=1e-300)


def test_h_kernel_reflection_worked_example():
    v = h_kernel(1.0, -1.0, 1.0)
    assert v == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-14)
    assert v == pytest.approx(h_kernel(1.0, 1.0, 1.0) * math.exp(2.0), rel=1e-13)


def test_h_kernel_underflow_is_exact_zero():
    assert h_kernel(1e-6, 3.0, 0.0) == 0.0


@pytest.mark.parametrize("t, x, mu", [
    (1e-110, 1.0, 0.0),      # t**3 underflows to 0
    (1e-320, 1.0, 0.0),      # subnormal t; x**2 / (2 t) overflows
    (1.0, 1e200, 1e200),     # the square in the exponent overflows
    (1e-110, 1e-60, 0.0),    # t**3 underflows, yet the kernel is about 4e104
    (1e150, 1e75, 0.0),      # t**3 overflows, yet the kernel is about 2.4e-151
    (1e-300, 1e-300, 0.0),   # |x| and t**1.5 both leave the range; the kernel is about 3.9894e149
])
def test_h_kernel_at_extreme_arguments_matches_mpmath(t, x, mu):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        t_, x_, mu_ = mp.mpf(t), mp.mpf(x), mp.mpf(mu)
        want = abs(x_) / mp.sqrt(2 * mp.pi * t_ ** 3) * mp.exp(-(x_ + mu_ * t_) ** 2 / (2 * t_))
    got = h_kernel(t, x, mu)
    assert math.isfinite(got)
    # below the underflow threshold the documented answer is an exact 0
    assert got == (0.0 if want < mp.mpf("1e-320")
                   else pytest.approx(float(want), rel=1e-12, abs=0.0))


def test_h_kernel_rejects_bad_t():
    with pytest.raises(DomainError):
        h_kernel(0.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        h_kernel(-1.0, 1.0, 0.0)


@pytest.mark.parametrize("bad", [None, math.nan, math.inf, -math.inf, "x"])
@pytest.mark.parametrize("slot", [0, 1, 2])
def test_h_kernel_rejects_non_finite_arguments(slot, bad):
    args = [1.0, 1.0, 0.0]
    args[slot] = bad
    with pytest.raises(DomainError):
        h_kernel(*args)
    args[slot] = [1.0, bad]
    with pytest.raises(DomainError):
        h_kernel(*args)


def h_laplace(q, x, mu):
    """Laplace transform in t of h_kernel at q >= 0: exp(-(mu + sign(x) sqrt(mu^2 + 2q)) x)."""
    return math.exp(-(mu + math.copysign(math.sqrt(mu * mu + 2.0 * q), x)) * x)


@pytest.mark.parametrize("q,x,mu", [(0.5, 1.0, 0.0), (2.0, 0.7, 1.0), (0.1, -1.2, 0.4)])
def test_h_laplace_matches_time_quadrature(q, x, mu):
    val, _ = integrate_semi_infinite(
        lambda ts: np.array([math.exp(-q * t) * h_kernel(float(t), x, mu) for t in ts]),
        1e-14, q)
    assert val == pytest.approx(h_laplace(q, x, mu), abs=1e-6)


def test_h_total_mass_is_passage_probability():
    # integral over all time equals the q=0 transform e^{-(mu+sgn(x)|mu|)x}
    mu, x = 0.5, 1.0
    val, _ = integrate_semi_infinite(
        lambda ts: np.array([h_kernel(float(t), x, mu) for t in ts]), 1e-14, 2 * mu,
        settings=QuadSettings(abs_tol=1e-10, rel_tol=1e-10))
    assert val == pytest.approx(h_laplace(0.0, x, mu), abs=1e-8)
    assert val == pytest.approx(math.exp(-2 * mu * x), abs=1e-8)
    assert val <= 1.0 + 1e-12


def test_boundary_state_belongs_to_regime_one():
    # the library-wide convention: exactly-at-threshold uses regime 1. One Euler step
    # from x0 = a follows (mu1, sigma1) whatever (mu2, sigma2) are; the step's
    # regrouped sum rounds apart by at most an ulp, where a regime gap is ~0.1
    a, dt = 0.5, 1e-2

    def one_step(mu2, sigma2, x0):
        config = SimConfig(DiffusionParams(1.0, mu2, 1.0, sigma2, a), x0, dt, dt, 4096, 3)
        return simulate_paths(config).terminal_values

    regime_one = one_step(1.0, 1.0, a)
    for mu2, sigma2 in ((-1.0, 2.0), (3.0, 0.7)):
        np.testing.assert_allclose(one_step(mu2, sigma2, a), regime_one, rtol=0.0, atol=4e-16)
        assert np.abs(one_step(mu2, sigma2, a + 1e-12) - regime_one).max() > 0.1
