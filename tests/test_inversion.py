"""Laplace inversion on transforms with known time-domain pairs."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshold_diffusion import (AccuracyError, DensityQuery, make_params,
                                 oscillating_bm_density, transition_density)
from threshold_diffusion.inversion import _contour, _sums, _vouched, invert
from threshold_diffusion.potential import _resolvent, _tail_transform


def test_exponential_pair():
    assert invert(lambda q: 1.0 / (q + 1.0), 1.0) == pytest.approx(math.exp(-1.0), abs=1e-10)


def test_ramp_pair():
    assert invert(lambda q: 1.0 / q ** 2, 2.0) == pytest.approx(2.0, abs=1e-10)


@pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
def test_gaussian_density_pair(t):
    # transform of the drifted unit-volatility heat kernel at displacement d
    mu, d = 0.3, 0.7
    def F(q):
        root = np.sqrt(2.0 * q + mu * mu)
        return np.exp(mu * d - abs(d) * root) / root
    want = math.exp(-(d - mu * t) ** 2 / (2.0 * t)) / math.sqrt(2.0 * math.pi * t)
    assert invert(F, t) == pytest.approx(want, rel=1e-9)


def test_potential_transform_inverts_to_density():
    params = make_params(0.0, 0.0, 1.0, 2.0, 0.0)
    x, z = 0.0, 0.5

    def F(q):
        return _resolvent(params, q, x, z) / q

    want = oscillating_bm_density(1.0, 2.0, 0.0, 1.0, x, z)
    assert invert(F, 1.0) == pytest.approx(want, abs=1e-10)


def test_talbot_on_known_pairs():
    assert invert(lambda q: 1.0 / (q + 1.0), 1.0) == pytest.approx(math.exp(-1.0), abs=1e-7)

    def F(q):
        root = np.sqrt(2.0 * q)
        return np.exp(-root) / root
    want = math.exp(-0.5) / math.sqrt(2.0 * math.pi)
    assert invert(F, 1.0) == pytest.approx(want, abs=1e-7)


def talbot(F, t, nodes):
    """The inverse on one contour of `nodes` Talbot nodes: invert's sum on 24, and
    each of the two sums _vouched compares on 24 and 32."""
    unit, weights = _contour(nodes)
    return _sums(F, t, unit, [(slice(None), weights)])[0]


@pytest.mark.parametrize("nodes", [8, 24, 32])
def test_array_of_times_matches_one_call_per_time(nodes):
    calls = []
    params = make_params(1.0, -1.0, 1.0, 2.0, 0.0)

    def F(q):
        calls.append(q.shape)
        return _resolvent(params, q, 0.5, -0.5) / q

    t = np.array([1e-6, 0.1, 1.0, 10.0])
    got = talbot(F, t, nodes)
    assert calls == [(len(t), nodes)]
    assert got.shape == t.shape
    # the same terms summed in another order: a few rounding units per term
    for ti, gi in zip(t, got):
        _, magnitude = talbot_loop(F, float(ti), nodes)
        gap = abs(gi - talbot(F, float(ti), nodes))
        assert gap <= 4 * nodes * sys.float_info.epsilon * magnitude


@pytest.mark.parametrize("nodes", [8, 24, 32])
def test_transform_is_called_once_on_the_node_array(nodes):
    calls = []

    def F(q):
        calls.append(q)
        return 1.0 / (q + 1.0)

    assert talbot(F, 1.0, nodes) == pytest.approx(math.exp(-1.0), abs=1e-5)
    assert len(calls) == 1
    q = calls[0]
    assert isinstance(q, np.ndarray) and q.dtype == complex and q.shape == (nodes,)


def talbot_loop(F, t, nodes):
    """The fixed-Talbot sum node by node, one F call per node, in Python complex;
    returns the sum and the sum of its terms' magnitudes."""
    r = 2.0 * nodes / (5.0 * t)
    terms = [0.5 * math.exp(r * t) * complex(F(np.array([r + 0j]))[0]).real]
    for k in range(1, nodes):
        theta = k * math.pi / nodes
        cot = math.cos(theta) / math.sin(theta)
        s = r * theta * complex(cot, 1.0)
        sigma = theta + (theta * cot - 1.0) * cot
        terms.append((complex(np.exp(s * t)) * complex(F(np.array([s]))[0])
                      * complex(1.0, sigma)).real)
    return (r / nodes) * math.fsum(terms), (r / nodes) * math.fsum(map(abs, terms))


@pytest.mark.parametrize("nodes", [8, 24, 32])
@pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
def test_node_array_sum_matches_the_node_by_node_loop(nodes, t):
    params = make_params(1.0, -1.0, 1.0, 2.0, 0.0)

    def F(q):
        return _resolvent(params, q, 0.5, -0.5) / q

    want, magnitude = talbot_loop(F, t, nodes)
    # the same terms summed in another order: a few rounding units per term
    assert abs(talbot(F, t, nodes) - want) <= 4 * nodes * sys.float_info.epsilon * magnitude


def test_invert_is_the_24_node_sum():
    def F(q):
        return 1.0 / (q + 1.0)
    t = np.array([0.1, 1.0, 10.0])
    assert np.array_equal(invert(F, t), talbot(F, t, 24))
    assert invert(F, 1.0) == talbot(F, 1.0, 24)


def test_non_finite_sum_is_an_accuracy_error():
    with pytest.raises(AccuracyError):
        invert(lambda q: q * np.nan, 1.0)
    with pytest.raises(AccuracyError):
        invert(lambda q: np.exp(1e3 * q), 1.0)


@st.composite
def densities(draw):
    # |mu| |z - x| / sigma^2 stays at or below 16. The fixed contour loses
    # accuracy as that ratio grows: on corner cases, 24 nodes miss by 1e-6
    # near 45 and by 3e9 near 130 (mu = -2, sigma = 0.3, x - z = 6, t = 1).
    unit = st.floats(0.0, 1.0)
    params = make_params(-1.0 + 2.0 * draw(unit), -1.0 + 2.0 * draw(unit),
                         0.5 + 2.5 * draw(unit), 0.5 + 2.5 * draw(unit),
                         -1.0 + 2.0 * draw(unit))
    t = 0.05 + 3.95 * draw(unit)
    x = params.a - 2.0 + 4.0 * draw(unit)
    z = params.a - 2.0 + 4.0 * draw(unit)
    return params, t, x, z


@settings(max_examples=200, deadline=None, derandomize=True)
@given(densities())
def test_talbot_on_complex_resolvent_matches_transition_density(case):
    params, t, x, z = case
    got = invert(lambda q: _resolvent(params, q, x, z) / q, t)
    assert got == pytest.approx(transition_density(DensityQuery(params, t, x, z)), abs=1e-6)


@pytest.mark.parametrize("t", [1.0, np.array([0.01, 1.0, 30.0])])
def test_vouched_calls_the_transform_once_on_both_contours(t):
    calls = []

    def F(q):
        calls.append(q.shape)
        return 1.0 / (q + 1.0)

    got = _vouched(F, t, 1e-9, 0.0)
    assert calls == [(56,) if np.ndim(t) == 0 else (len(t), 56)]
    assert np.allclose(got, np.exp(-t), rtol=0.0, atol=1e-9)


def two_inversions(F, t, abs_tol, rel_tol):
    """The check as two single-contour inversions, one F call each: the 24-node
    value when both sums are finite and the 32-node one agrees."""
    val, other = talbot(F, t, 24), talbot(F, t, 32)
    if not (np.isfinite(val).all() and np.isfinite(other).all()):
        return None
    return val if np.all(abs(val - other) <= np.maximum(abs_tol, rel_tol * abs(val))) else None


@st.composite
def transforms(draw):
    # wide enough that both answers occur: far starts, long horizons and tight
    # tolerances are where the two node counts part
    unit = st.floats(0.0, 1.0)
    params = make_params(-3.0 + 6.0 * draw(unit), -3.0 + 6.0 * draw(unit),
                         0.1 + 2.9 * draw(unit), 0.1 + 2.9 * draw(unit), 0.0)
    x, z = (-6.0 + 12.0 * draw(unit) for _ in range(2))
    if draw(st.booleans()):
        F = lambda q: _resolvent(params, q, x, z) / q  # noqa: E731
    else:
        F = lambda q: _tail_transform(params, q, x)  # noqa: E731
    times = [10.0 ** (-3.0 + 5.0 * draw(unit)) for _ in range(draw(st.integers(1, 4)))]
    t = np.array(times) if draw(st.booleans()) else times[0]
    return F, t, 10.0 ** (-13.0 + 7.0 * draw(unit)), draw(st.sampled_from([0.0, 1e-9, 1e-6]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(transforms())
def test_vouched_matches_two_inversions(case):
    F, t, abs_tol, rel_tol = case
    got, want = _vouched(F, t, abs_tol, rel_tol), two_inversions(F, t, abs_tol, rel_tol)
    assert (got is None) == (want is None)
    if want is not None:
        assert type(got) is type(want)
        assert np.all(got == want)
