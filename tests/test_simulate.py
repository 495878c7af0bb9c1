"""Path simulation: reproducibility, statistics, policy runs, hitting MC."""

import math

import numpy as np
import pytest

from threshold_diffusion import (ControlProblem, DomainError, InvalidParameterError,
                                 PathEnsemble, PolicyError, SimConfig,
                                 empirical_hitting_transform, make_params,
                                 simulate_paths, simulate_policy)
from threshold_diffusion.simulate import _norm_ppf

TWO_REGIME = make_params(1.0, -1.0, 1.0, 2.0, 0.0)


def test_inverse_normal_cdf_against_scipy():
    ndtri = pytest.importorskip("scipy.special").ndtri
    u = np.concatenate([
        np.linspace(1e-12, 1e-3, 500),
        np.linspace(1e-3, 1.0 - 1e-3, 2001),
        1.0 - np.linspace(1e-12, 1e-3, 500),
    ])
    got = _norm_ppf(u)
    want = ndtri(u)
    scale = np.maximum(1.0, np.abs(want))
    assert np.max(np.abs(got - want) / scale) <= 2e-15


def test_inverse_normal_cdf_shapes():
    u = np.array([[0.1, 0.5, 0.9], [0.25, 0.75, 0.999]])
    out = _norm_ppf(u)
    assert out.shape == u.shape
    assert out[0, 1] == 0.0
    flat = _norm_ppf(u.reshape(-1))
    assert np.array_equal(out.reshape(-1), flat)


def test_determinism_and_thread_invariance():
    # horizon chosen to leave a partial closing step
    cfg = SimConfig(TWO_REGIME, 0.1, 0.7503, 1e-2, 3000, 42)
    a = simulate_paths(cfg)
    b = simulate_paths(cfg)
    c = simulate_paths(cfg, threads=3)
    assert np.array_equal(a.terminal_values, b.terminal_values)
    assert np.array_equal(a.terminal_values, c.terminal_values)


def test_seed_changes_output():
    base = dict(params=TWO_REGIME, x0=0.0, horizon=0.5, dt=1e-2, n_paths=200)
    a = simulate_paths(SimConfig(seed=1, **base))
    b = simulate_paths(SimConfig(seed=2, **base))
    assert not np.array_equal(a.terminal_values, b.terminal_values)


@pytest.mark.parametrize("kwargs", [
    dict(horizon=0.0), dict(horizon=float("nan")),
    dict(dt=0.0), dict(dt=2.0),
    dict(n_paths=0),
    dict(seed=-1), dict(seed=2 ** 64),
    dict(x0=float("inf")),
    dict(n_paths=10.5), dict(n_paths=10.0), dict(n_paths=True),
    dict(seed=True),
    dict(x0=None), dict(horizon="1"), dict(dt=None),
])
def test_config_validation(kwargs):
    base = dict(params=TWO_REGIME, x0=0.0, horizon=1.0, dt=1e-2, n_paths=10, seed=0)
    base.update(kwargs)
    with pytest.raises(InvalidParameterError):
        SimConfig(**base)


def test_single_regime_moments():
    # Euler is exact for constant coefficients, so only sampling error remains
    mu, sigma, T = 0.3, 1.3, 0.7
    p = make_params(mu, mu, sigma, sigma, 0.0)
    ens = simulate_paths(SimConfig(p, 0.2, T, 1e-2, 40_000, 7))
    mean, se = ens.mean()
    assert abs(mean - (0.2 + mu * T)) <= 4.0 * se
    std = ens.terminal_values.std(ddof=1)
    assert abs(std - sigma * math.sqrt(T)) <= 0.02


def test_survival_probabilities_match_closed_forms():
    # symmetric case: driftless unit-volatility paths end above 0 half the time
    bm = make_params(0.0, 0.0, 1.0, 1.0, 0.0)
    ens = simulate_paths(SimConfig(bm, 0.0, 1.0, 1e-3, 100_000, 2024))
    pr, se = ens.survival_frequency(0.0)
    assert abs(pr - 0.5) <= 3.0 * se

    # two-volatility case: time above the level has mass sigma1/(sigma1+sigma2)
    osc = make_params(0.0, 0.0, 1.0, 2.0, 0.0)
    ens = simulate_paths(SimConfig(osc, 0.0, 1.0, 1e-3, 100_000, 2025))
    pr, se = ens.survival_frequency(0.0)
    assert abs(pr - 1.0 / 3.0) <= 3.0 * se


def test_survival_frequency_semantics():
    ens = PathEnsemble(np.array([-1.0, 0.0, 0.5, 2.0]), 4, 0, 0.1, 0.0, 1.0)
    pr, se = ens.survival_frequency(0.0)
    assert pr == 0.75
    assert se > 0.0


def test_histogram_totals_and_edges():
    ens = PathEnsemble(np.array([-0.5, 0.1, 0.2, 0.9, 5.0]), 5, 0, 0.1, 0.0, 1.0)
    edges, freq, se = ens.histogram(4, -1.0, 1.0)
    assert np.allclose(edges, [-1.0, -0.5, 0.0, 0.5, 1.0])
    assert freq.sum() == pytest.approx(0.8)  # the 5.0 value falls outside
    assert np.all(se >= 0.0)


def test_hitting_transform_trivial_start():
    cfg = SimConfig(TWO_REGIME, 0.0, 1.0, 1e-2, 10, 0)
    assert empirical_hitting_transform(cfg, 0.0, 1.0) == (1.0, 0.0)


def test_hitting_transform_rejects_bad_rate():
    cfg = SimConfig(TWO_REGIME, 0.5, 1.0, 1e-2, 10, 0)
    with pytest.raises(DomainError):
        empirical_hitting_transform(cfg, 0.0, 0.0)


def test_hitting_transform_single_regime():
    # driftless unit volatility from 0.5 down to 0: E e^{-q tau} = e^{-0.5 sqrt(2q)}
    q, dt, horizon, sigma = 0.5, 1e-3, 8.0, 1.0
    p = make_params(0.0, 0.0, sigma, sigma, 0.0)
    cfg = SimConfig(p, 0.5, horizon, dt, 20_000, 11)
    est, se = empirical_hitting_transform(cfg, 0.0, q)
    want = math.exp(-0.5 * math.sqrt(2.0 * q))
    # grid detection sees the barrier shifted down by ~0.5826 sigma sqrt(dt)
    shift = 0.5826 * sigma * math.sqrt(dt)
    bias = abs(math.exp(-(0.5 + shift) * math.sqrt(2.0 * q)) - want)
    budget = 3.0 * se + 2.0 * bias + math.exp(-q * horizon)
    assert abs(est - want) <= budget


def test_policy_must_return_offered_volatilities():
    prob = ControlProblem(0.0, 2.0, 0.0, 1.0, 0.0, 1.0, x0=0.0)
    with pytest.raises(PolicyError):
        simulate_policy(prob, lambda states, t: np.full_like(states, 3.0),
                        1e-2, 50, 0)


def test_constant_low_policy_equals_plain_run():
    # same seeds, same arithmetic order: results must agree bit for bit
    prob = ControlProblem(0.7, 2.0, -0.4, 1.0, 0.0, 1.0, x0=0.3)
    pol = simulate_policy(prob, lambda states, t: np.full_like(states, 1.0),
                          1e-2, 2000, 99)
    plain = simulate_paths(SimConfig(make_params(-0.4, -0.4, 1.0, 1.0, 0.0),
                                     0.3, 1.0, 1e-2, 2000, 99))
    assert np.array_equal(pol.terminal_values, plain.terminal_values)


def test_policy_run_rejects_fractional_path_count():
    prob = ControlProblem(0.0, 2.0, 0.0, 1.0, 0.0, 1.0, x0=0.0)
    with pytest.raises(InvalidParameterError, match="n_paths"):
        simulate_policy(prob, lambda states, t: np.full_like(states, 1.0), 1e-2, 10.5, 0)
