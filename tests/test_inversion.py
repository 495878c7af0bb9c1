"""Laplace inversion on transforms with known time-domain pairs."""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshold_diffusion import (DensityQuery, DomainError, InvalidParameterError, invert,
                                 make_params, oscillating_bm_density, transition_density)
from threshold_diffusion.potential import _resolvent


def test_exponential_pair():
    assert invert(lambda q: 1.0 / (q + 1.0), 1.0) == pytest.approx(math.exp(-1.0), abs=1e-10)


def test_ramp_pair():
    assert invert(lambda q: 1.0 / q ** 2, 2.0) == pytest.approx(2.0, abs=1e-10)


@pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
def test_gaussian_density_pair(t):
    # transform of the drifted unit-volatility heat kernel at displacement d
    mu, d = 0.3, 0.7
    def F(q):
        root = cmath.sqrt(2.0 * q + mu * mu)
        return cmath.exp(mu * d - abs(d) * root) / root
    want = math.exp(-(d - mu * t) ** 2 / (2.0 * t)) / math.sqrt(2.0 * math.pi * t)
    assert invert(F, t) == pytest.approx(want, rel=1e-9)


def test_potential_transform_inverts_to_density():
    params = make_params(0.0, 0.0, 1.0, 2.0, 0.0)
    x, z = 0.0, 0.5

    def F(q):
        return _resolvent(params, q, x, z, cmath.sqrt, cmath.exp) / q

    want = oscillating_bm_density(1.0, 2.0, 0.0, 1.0, x, z)
    assert invert(F, 1.0) == pytest.approx(want, abs=1e-10)


def test_talbot_on_known_pairs():
    assert invert(lambda q: 1.0 / (q + 1.0), 1.0) == pytest.approx(math.exp(-1.0), abs=1e-7)

    def F(q):
        root = cmath.sqrt(2.0 * q)
        return cmath.exp(-root) / root
    want = math.exp(-0.5) / math.sqrt(2.0 * math.pi)
    assert invert(F, 1.0) == pytest.approx(want, abs=1e-7)


def test_rejects_nonpositive_time():
    with pytest.raises(DomainError):
        invert(lambda q: 1.0 / q, 0.0)
    with pytest.raises(DomainError):
        invert(lambda q: 1.0 / q, -2.0)


def test_settings_validation():
    for nodes in (4, 7, 8.5, 24.0, True, "24", None):
        with pytest.raises(InvalidParameterError):
            invert(lambda q: 1.0 / q, 1.0, nodes)


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
    got = invert(lambda q: _resolvent(params, q, x, z, cmath.sqrt, cmath.exp) / q, t)
    assert got == pytest.approx(transition_density(DensityQuery(params, t, x, z)), abs=1e-6)
