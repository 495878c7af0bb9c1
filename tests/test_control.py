"""Bang-bang control: threshold geometry, value function, MC dominance."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshold_diffusion import (AccuracyError, ControlProblem, DomainError,
                                 InvalidParameterError, ThresholdDiffusionError, alpha,
                                 constant_bar_policy, constant_low_policy, optimal_policy,
                                 optimal_threshold, reversed_threshold_policy, simulate_policy,
                                 value_function)
from threshold_diffusion import control

SYMMETRIC = ControlProblem(0.0, 2.0, 0.0, 1.0, 0.0, 1.0, x0=0.0)
DRIFTED = ControlProblem(1.0, 2.0, -1.0, 1.0, 0.0, 1.0, x0=0.0)
# criterion 9's third problem, the symmetric one at a longer horizon, and a falling threshold line
SLOW_SWITCH = ControlProblem(0.5, 1.5, -0.5, 0.5, 0.0, 1.0)
SYMMETRIC_T4 = ControlProblem(0.0, 2.0, 0.0, 1.0, 0.0, 4.0)
FALLING = ControlProblem(1.0, 2.0, 1.5, 1.0, 0.0, 1.0)


def talbot_value(problem, x):
    params, al = control._equivalent_params(problem)
    return control._talbot_value(params, problem.T, x - al * problem.T)


def test_alpha_closed_forms():
    assert alpha(DRIFTED) == 3.0
    # proportional drifts: the threshold line is flat
    assert alpha(ControlProblem(2.0, 2.0, 1.0, 1.0, 0.0, 1.0)) == 0.0
    assert alpha(ControlProblem(2.0, 2.0, 2.0, 1.0, 0.0, 1.0)) == -2.0
    assert alpha(FALLING) == -2.0


def test_alpha_equalizes_slopes():
    al = alpha(DRIFTED)
    lo = (DRIFTED.mu_low + al) / DRIFTED.sigma_low
    hi = (DRIFTED.mu_bar + al) / DRIFTED.sigma_bar
    assert lo == pytest.approx(2.0, rel=1e-14)
    assert hi == pytest.approx(2.0, rel=1e-14)
    assert abs(lo - hi) <= 1e-12


@pytest.mark.parametrize("kwargs", [
    dict(sigma_low=2.0),          # not below sigma_bar
    dict(sigma_low=0.0),
    dict(sigma_bar=1.0, sigma_low=1.0),
    dict(T=0.0),
    dict(T=-1.0),
    dict(mu_bar=float("nan")),
    dict(a=float("inf")),
    dict(mu_low=None),
    dict(T="1"),
])
def test_problem_validation(kwargs):
    base = dict(mu_bar=1.0, sigma_bar=2.0, mu_low=-1.0, sigma_low=1.0, a=0.0, T=1.0)
    base.update(kwargs)
    with pytest.raises(InvalidParameterError):
        ControlProblem(**base)


def test_threshold_line():
    assert optimal_threshold(DRIFTED, DRIFTED.T) == 0.0
    assert optimal_threshold(DRIFTED, 0.0) == 3.0
    assert optimal_threshold(SYMMETRIC, 0.37) == 0.0
    with pytest.raises(DomainError):
        optimal_threshold(DRIFTED, -0.1)
    with pytest.raises(DomainError):
        optimal_threshold(DRIFTED, 1.1)


def test_volatility_selection():
    # far below the line: push hard; far above: lock in
    pol = optimal_policy(DRIFTED)
    assert pol(-10.0, 0.5) == 2.0
    assert pol(10.0, 0.5) == 1.0
    level = optimal_threshold(DRIFTED, 0.5)
    assert pol(level, 0.5) == 2.0  # tie takes high vol
    out = pol(np.array([level - 1.0, level, level + 1.0]), 0.5)
    assert np.array_equal(out, [2.0, 2.0, 1.0])


def test_optimal_policy_matches_pointwise_rule():
    states = np.array([-1.0, 0.0, 1.4, 1.5, 1.6, 5.0])  # the line is at 1.5 at t = 0.5
    level = optimal_threshold(DRIFTED, 0.5)
    rule = [2.0 if s <= level else 1.0 for s in states]
    assert np.array_equal(optimal_policy(DRIFTED)(states, 0.5), rule)
    # the comparison policy swaps the two options, ties included
    swapped = [1.0 if s <= level else 2.0 for s in states]
    assert np.array_equal(reversed_threshold_policy(DRIFTED)(states, 0.5), swapped)


def test_symmetric_value_at_start():
    # starting on the level with zero drifts: 2/3 chance of finishing above it
    assert value_function(SYMMETRIC, 0.0) == pytest.approx(2.0 / 3.0, abs=1e-3)


def test_value_bounds_and_monotonicity():
    xs = [-5.0, -1.0, -0.3, 0.0, 0.3, 1.0, 2.0, 3.5, 5.0]
    vals = [value_function(DRIFTED, x) for x in xs]
    assert all(0.0 <= v <= 1.0 for v in vals)
    for lo, hi in zip(vals, vals[1:]):
        assert hi >= lo - 1e-4


def test_value_translation_covariance():
    c = 2.5
    shifted = ControlProblem(1.0, 2.0, -1.0, 1.0, c, 1.0)
    for x in (-0.5, 0.0, 1.2):
        assert value_function(DRIFTED, x) == pytest.approx(
            value_function(shifted, x + c), abs=1e-8)


def test_optimal_policy_beats_constants_under_mc():
    prob = SYMMETRIC
    dt, n = 2e-3, 20_000
    runs = {}
    for name, pol, seed in (("opt", optimal_policy(prob), 5150),
                            ("bar", constant_bar_policy(prob), 5151),
                            ("low", constant_low_policy(prob), 5152)):
        ens = simulate_policy(prob, pol, dt, n, seed)
        runs[name] = ens.survival_frequency(prob.a)
    p_opt, se_opt = runs["opt"]
    assert abs(p_opt - 2.0 / 3.0) <= 3.0 * se_opt + 0.02
    for other in ("bar", "low"):
        p_alt, se_alt = runs[other]
        pooled = math.hypot(se_opt, se_alt)
        assert p_opt >= p_alt - 3.0 * pooled


def first_passage_value(problem, x):
    params, al = control._equivalent_params(problem)
    return control._first_passage_value(params, problem.T, x - al * problem.T)


@pytest.mark.parametrize("problem", [SYMMETRIC, DRIFTED, SLOW_SWITCH, SYMMETRIC_T4, FALLING])
def test_talbot_route_matches_quadrature_route(problem):
    # the fallback is a quadrature over the first hit of a
    for x in (-5.0, -1.3, 0.4, 2.1, 5.0):
        fast = talbot_value(problem, x)
        assert fast is not None
        assert value_function(problem, x) == fast
        assert fast == pytest.approx(first_passage_value(problem, x), abs=1e-9)


# values of the z-quadrature of the transition density that the first-passage
# split replaced (tolerance 1e-7), an oracle independent of the split
DENSITY_QUADRATURE = {(100.0, 0.0): 0.9999997356060849, (50.0, 0.0): 0.9998132093313306,
                      (10.0, -20.0): 0.06069097165049194}


@pytest.mark.parametrize("horizon,x", [
    (100.0, 0.0),   # tilted start 300 below a: 24-node Talbot returns about -3e8
    (50.0, 0.0),    # the two node counts differ by about 2e-5
    (10.0, -20.0),  # likewise, about 1e-5
])
def test_talbot_route_falls_back_to_quadrature_far_from_threshold(horizon, x):
    problem = ControlProblem(1.0, 2.0, -1.0, 1.0, 0.0, horizon)
    assert talbot_value(problem, x) is None
    assert value_function(problem, x) == first_passage_value(problem, x)
    assert value_function(problem, x) == pytest.approx(DENSITY_QUADRATURE[horizon, x],
                                                       abs=1e-7)


@pytest.mark.parametrize("x", [1e20, -1e20, 1e300, -1e300])
def test_extreme_starts_are_exact_and_quiet(x):
    assert value_function(DRIFTED, x) == (1.0 if x > 0 else 0.0)


def test_drifts_of_1e300_give_a_probability_or_a_library_error():
    # Talbot's rates overflow here, and so did the split's v ** 3
    try:
        v = value_function(ControlProblem(1e300, 2.0, -1e300, 1.0, 0.0, 1.0), 0.1)
    except ThresholdDiffusionError:
        return
    assert 0.0 <= v <= 1.0


@pytest.mark.parametrize("call", [alpha, lambda pr: optimal_threshold(pr, 1.0),
                                  lambda pr: value_function(pr, 0.1)],
                         ids=["alpha", "optimal_threshold", "value_function"])
def test_a_threshold_slope_past_the_double_range_is_refused(call):
    # the slope is inf here: the threshold read nan, and the value named a tilted drift
    with pytest.raises(InvalidParameterError, match="alpha"):
        call(ControlProblem(1e308, 2.0, -1e308, 1.0, 0.0, 1.0))


@pytest.mark.parametrize("drift", [1e30, 1e300])
def test_split_refuses_a_first_passage_too_sharp_to_integrate(drift):
    # the passage time's spread is below the spacing of doubles at its mode: the
    # split's panels read 0 there (it returned 0.0 at 1e30), where Talbot reads 1
    with pytest.raises(AccuracyError):
        first_passage_value(ControlProblem(drift, 2.0, -drift, 1.0, 0.0, 1.0), 0.1)


def test_split_refuses_a_drift_away_from_a_whose_square_overflows():
    # above a the tilted state drifts away from it at a standardized 1e155, whose
    # square overflows: the mode of the hitting time, and the split's seeds, are NaN
    with pytest.raises(DomainError, match="away from a"):
        value_function(ControlProblem(2e155, 2.0, 1e155, 1.0, 0.0, 1.0), 0.5)


def test_symmetric_value_at_start_is_two_thirds_to_talbot_accuracy():
    assert value_function(SYMMETRIC, 0.0) == pytest.approx(2.0 / 3.0, abs=1e-9)
    # a start on a: the split's first hit is at once, and it reads u(T) alone
    assert first_passage_value(SYMMETRIC, 0.0) == pytest.approx(2.0 / 3.0, abs=1e-9)


@st.composite
def problems_and_starts(draw):
    unit = st.floats(0.0, 1.0)
    sigma_low = 0.3 + 1.7 * draw(unit)
    problem = ControlProblem(mu_bar=-2.0 + 4.0 * draw(unit),
                             sigma_bar=sigma_low * (1.3 + 1.7 * draw(unit)),
                             mu_low=-2.0 + 4.0 * draw(unit), sigma_low=sigma_low,
                             a=-1.0 + 2.0 * draw(unit), T=0.1 + 3.9 * draw(unit))
    # starts within 2.5 terminal standard deviations of the switch level
    level = problem.a + alpha(problem) * problem.T
    spread = 2.5 * problem.sigma_bar * math.sqrt(problem.T)
    xs = sorted(level + spread * (2.0 * draw(unit) - 1.0) for _ in range(5))
    return problem, xs


@settings(max_examples=100, deadline=None, derandomize=True)
@given(problems_and_starts())
def test_value_is_a_probability_nondecreasing_in_start(case):
    problem, xs = case
    vals = [value_function(problem, x) for x in xs]
    assert all(0.0 <= v <= 1.0 for v in vals)
    for lo, hi in zip(vals, vals[1:]):
        assert hi >= lo - 1e-9


def constant_policy_bound(problem, x):
    """The better constant policy's value, max over both pairs of
    Phi((x - a + mu T) / (sigma sqrt(T))); V can never be below it."""
    return max(0.5 * math.erfc(-(x - problem.a + mu * problem.T)
                               / (sigma * math.sqrt(2.0 * problem.T)))
               for mu, sigma in ((problem.mu_bar, problem.sigma_bar),
                                 (problem.mu_low, problem.sigma_low)))


# The z-quadrature of the transition density, the fallback before the first-passage
# split, read 1.9e-12 at the first point and 0.0235 at the second, whose tilted start
# sits 27 terminal standard deviations above a.
@pytest.mark.parametrize("problem, x", [
    (ControlProblem(1.0, 1.001, -1.0, 1.0, 0.0, 1.0), 0.0),
    (ControlProblem(-1.7291, 0.1531, -1.3546, 0.1200, 0.0, 0.2271), 1.9977),
])
def test_value_is_at_least_the_better_constant_policy(problem, x):
    assert value_function(problem, x) >= constant_policy_bound(problem, x) - 1e-9


@st.composite
def sweep_problems(draw):
    # ranges of the 1 500-problem sweep that found the misses above
    def log_uniform(lo, hi):
        return math.exp(draw(st.floats(math.log(lo), math.log(hi))))
    sigma_low = log_uniform(0.1, 3.0)
    problem = ControlProblem(mu_bar=draw(st.floats(-3.0, 3.0)),
                             sigma_bar=sigma_low * (1.0 + log_uniform(1e-4, 10.0)),
                             mu_low=draw(st.floats(-3.0, 3.0)), sigma_low=sigma_low,
                             a=0.0, T=log_uniform(0.01, 50.0))
    return problem, draw(st.floats(-5.0, 5.0))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(sweep_problems())
def test_value_is_at_least_the_better_constant_policy_over_the_sweep(case):
    problem, x = case
    assert constant_policy_bound(problem, x) - 1e-9 <= value_function(problem, x) <= 1.0
