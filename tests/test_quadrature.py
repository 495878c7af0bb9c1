"""Adaptive quadrature: finite panels, semi-infinite tails, h-convolution."""

import math
import re

import numpy as np
import pytest

from threshold_diffusion import (AccuracyError, DensityQuery, DiffusionParams, IntegrandError,
                                 transition_density)
from threshold_diffusion import quadrature
from threshold_diffusion.params import deltas, h_kernel
from threshold_diffusion.quadrature import (QuadSettings, _convolve_batch, integrate_finite,
                                            integrate_semi_infinite)

SPIKY = lambda x: np.exp(-np.abs(np.asarray(x) - 0.37123) * 2000.0)  # noqa: E731
BATCH_X1 = np.array([0.05, 1.0, 0.3, 2.0, 0.7])
BATCH_X2 = np.array([1.2, 0.5, 0.3, 0.1, 0.02])


def convolve(t, x1, mu1, x2, mu2):
    """One-element _convolve_batch: integral_0^t h(t-tau; x1, mu1) h(tau; x2, mu2) dtau."""
    values, _ = _convolve_batch(t, np.array([x1]), mu1, np.array([x2]), mu2, 0.0, QuadSettings())
    return float(values[0])


def test_polynomial_exactness():
    val, err = integrate_finite(lambda x: x * x, 0.0, 1.0)
    assert val == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert abs(val - 1.0 / 3.0) <= max(err, 1e-15)


def test_passage_probability_integral():
    # integral of the first-passage kernel over [0,1] = P(T_1 <= 1) = 2(1-Phi(1))
    val, _ = integrate_finite(
        lambda ts: np.array([h_kernel(float(t), 1.0, 0.0) for t in ts]), 0.0, 1.0)
    assert val == pytest.approx(math.erfc(1.0 / math.sqrt(2.0)), abs=1e-8)


def test_empty_interval():
    val, err = integrate_finite(lambda x: x, 1.0, 1.0)
    assert val == 0.0
    assert err == 0.0


def test_endpoints_never_evaluated():
    # open panels: integrands with removable endpoint singularities are safe
    def f(ts):
        ts = np.asarray(ts)
        assert np.all(ts > 0.0) and np.all(ts < 1.0)
        return np.sqrt(ts) * np.log(ts)
    val, _ = integrate_finite(f, 0.0, 1.0)
    # the default request is rel_tol 1e-7; do not demand more than was asked
    assert val == pytest.approx(-4.0 / 9.0, abs=1e-7)


def test_nan_integrand_reported():
    def f(ts):
        return np.where(np.asarray(ts) > 0.5, math.nan, 1.0)
    with pytest.raises(IntegrandError):
        integrate_finite(f, 0.0, 1.0)


def test_subdivision_budget_exhaustion(monkeypatch):
    # seed point pins a panel edge on the kink; otherwise the coarse nodes
    # miss the spike entirely and the rule is satisfied with the wrong value
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 3)
    settings = QuadSettings(abs_tol=1e-15, rel_tol=1e-15)
    with pytest.raises(AccuracyError):
        integrate_finite(SPIKY, 0.0, 1.0, settings=settings, seed_points=(0.37123,))


def test_semi_infinite_exponential():
    val, _ = integrate_semi_infinite(lambda u: np.exp(-np.asarray(u)), 0.0, 1.0)
    assert val == pytest.approx(1.0, abs=1e-9)


def test_semi_infinite_gamma():
    val, _ = integrate_semi_infinite(
        lambda u: np.asarray(u) * np.exp(-2.0 * np.asarray(u)), 0.0, 2.0)
    assert val == pytest.approx(0.25, abs=1e-9)


@pytest.mark.parametrize("scale, hint", [(1.0, 1e-3), (1.0, 1e-8), (1.0, 1e-20), (1.0, 1e-300),
                                         (1e-6, 1e-8)])
def test_semi_infinite_finds_the_mass_under_a_loose_hint(scale, hint):
    # from a hint of 1e-8 down, every probe reads 0; the integral is still the scale
    val, err = integrate_semi_infinite(lambda u: np.exp(-u / scale), 0.0, hint)
    # within the default allowance max(abs_tol, rel_tol |value|)
    assert val == pytest.approx(scale, abs=1e-9) and err <= max(1e-9, 1e-7 * scale)


def test_semi_infinite_of_a_subnormal_integrand_under_a_huge_rate_is_quiet():
    # the envelope over eps * rate underflowed to 0, and log(0) raised ValueError
    val, err = integrate_semi_infinite(lambda u: 1e-320 * np.exp(-1e300 * u), 0.0, 1e300)
    assert 0.0 <= val <= 1e-300 and err <= 1e-9


def test_semi_infinite_of_zero_is_exact_zero():
    assert integrate_semi_infinite(np.zeros_like, 0.0, 1.0) == (0.0, 0.0)


def test_geometric_factor_of_crossing_integral():
    # the outer crossing integral of the density construction has an
    # exponential envelope whose exact mass is 1/(d2_plus + d1_minus)
    d = deltas(DiffusionParams(1.0, -1.0, 1.0, 2.0, 0.0), 0.5)
    rate = d.d2_plus + d.d1_minus
    val, _ = integrate_semi_infinite(
        lambda b: np.exp(-rate * np.asarray(b)), 0.0, rate)
    assert val == pytest.approx(1.0 / rate, abs=1e-8)


def test_convolution_matches_semigroup_identity():
    # same drift, same displacement sign: the convolution collapses to a
    # single kernel evaluation at the summed displacement
    got = convolve(1.0, 0.5, 0.0, 0.5, 0.0)
    assert got == pytest.approx(h_kernel(1.0, 1.0, 0.0), abs=1e-10)


@pytest.mark.parametrize("t,x1,x2,mu", [(0.5, 1.0, 0.5, 0.7), (2.0, 0.4, 1.1, -0.3),
                                        (1.0, 0.2, 2.0, 0.0)])
def test_convolution_semigroup_sweep(t, x1, x2, mu):
    got = convolve(t, x1, mu, x2, mu)
    assert got == pytest.approx(h_kernel(t, x1 + x2, mu), abs=1e-8)


def test_convolution_zero_displacement():
    assert convolve(1.0, 1.0, 0.5, 0.0, 0.5) == 0.0


def _fused_kernel(monkeypatch, t, x1, mu1, x2, mu2, log_scale):
    """The integrand _convolve_batch hands to the adaptive engine."""
    seen = []
    monkeypatch.setattr(quadrature, "_adaptive", lambda f, *args: seen.append(f))
    _convolve_batch(t, x1, mu1, x2, mu2, log_scale, QuadSettings())
    return seen[0]


def test_fused_kernel_is_the_product_of_two_h_kernels(monkeypatch):
    t, mu1, mu2, log_scale = 2.0, 0.7, -1.3, 0.4
    # zero displacements give exact 0 rows; the small ones put boundary layers
    # of width x^2 / 3 at both ends of [0, t]
    x1 = np.array([0.0, 1e-3, 0.05, 0.7, 2.5])
    x2 = np.array([0.3, 2e-3, 0.0, 1.1, 0.04])
    tau = np.array([2e-13, 4e-7, 1.3e-6, 8e-4, 0.3, 1.0, 1.7, t - 3e-4, t - 4e-7, t - 2e-13])
    got = _fused_kernel(monkeypatch, t, x1, mu1, x2, mu2, log_scale)(tau)
    want = (math.exp(log_scale) * h_kernel(t - tau, x1[:, None], mu1)
            * h_kernel(tau, x2[:, None], mu2))
    assert got.shape == want.shape == (5, 10)
    assert np.all(got[0] == 0.0) and np.all(got[2] == 0.0)
    assert np.count_nonzero(want) == 16 and np.all(want[want > 0.0] > 1e-300)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("node", [0, 4, 14])
def test_gk15_names_an_inf_on_a_kronrod_only_node(node):
    # even indices carry Kronrod weight only; the sums still see the inf
    los, his = np.array([0.0, 1.0]), np.array([1.0, 2.0])
    bad = (np.array([1.5]) + np.array([0.5]) * quadrature._XGK[node])[0]

    def f(x):
        return np.stack([np.ones_like(x), np.where(x == bad, np.inf, 1.0)])
    with pytest.raises(IntegrandError, match=f"near x={re.escape(repr(bad))}$"):
        quadrature._gk15(f, los, his)


def test_convolution_swap_symmetry():
    a = convolve(2.0, 1.0, 1.0, 0.5, -0.5)
    b = convolve(2.0, 0.5, -0.5, 1.0, 1.0)
    assert a == pytest.approx(b, abs=1e-10)


def test_convolution_batch_matches_scalar_calls():
    # the batch shares its tau panels; each element must still meet its own
    # tolerance, so it agrees with a scalar call within twice the allowance
    s = QuadSettings()
    values, errors = _convolve_batch(1.0, BATCH_X1, 0.7, BATCH_X2, -0.4, 0.0, s)
    assert values.shape == errors.shape == (len(BATCH_X1),)
    for v, e, a, b in zip(values, errors, BATCH_X1, BATCH_X2):
        want = convolve(1.0, float(a), 0.7, float(b), -0.4)
        allowance = max(s.abs_tol, s.rel_tol * abs(want))
        assert e <= allowance
        assert abs(v - want) <= 2.0 * allowance


def test_convolution_budget_exhaustion_reports_every_element(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 1)
    settings = QuadSettings(abs_tol=1e-300, rel_tol=1e-15)
    with pytest.raises(AccuracyError) as info:
        _convolve_batch(1.0, np.array([0.5, 1.0]), 0.0, np.array([0.5, 0.2]), 0.0, 0.0, settings)
    assert isinstance(info.value.estimate, np.ndarray)
    assert isinstance(info.value.error_estimate, np.ndarray)
    assert info.value.estimate.shape == info.value.error_estimate.shape == (2,)
    assert np.all(info.value.error_estimate > 0.0)


# The worst-first order, ties to the older panel, is part of the engine's
# output: another order of bisection gives other panels and other bits.
@pytest.mark.parametrize("integral, calls, panels", [
    (lambda: integrate_finite(SPIKY, 0.0, 1.0, seed_points=(0.37123,)), 8, 54),
    (lambda: integrate_semi_infinite(lambda u: np.exp(-u), 0.0, 1e-8), 1, 7),
    (lambda: _convolve_batch(1.0, BATCH_X1, 0.7, BATCH_X2, -0.4, 0.0, QuadSettings()), 3, 30),
    (lambda: transition_density(DensityQuery(DiffusionParams(1.0, -1.0, 1.0, 2.0, 0.0), 1.0, 0.5,
                                             1.0)), 2, 4),
], ids=["seeded-spike", "loose-hint", "convolution-batch", "density"])
def test_refinement_order_keeps_its_gk15_calls_and_panels(monkeypatch, integral, calls, panels):
    seen = []
    gk15 = quadrature._gk15

    def counted(f, los, his):
        seen.append(len(los))
        return gk15(f, los, his)
    monkeypatch.setattr(quadrature, "_gk15", counted)
    integral()
    assert (len(seen), sum(seen)) == (calls, panels)


def test_error_estimates_are_honest():
    cases = [
        (lambda x: np.asarray(x) ** 3, 0.0, 2.0, 4.0),
        (lambda x: np.sin(np.asarray(x)), 0.0, math.pi, 2.0),
        (lambda x: np.exp(np.asarray(x)), -1.0, 1.0, math.e - 1.0 / math.e),
    ]
    for f, lo, hi, truth in cases:
        val, err = integrate_finite(f, lo, hi)
        assert abs(val - truth) <= max(err, 1e-13)

