"""Acceptance battery: one test per advertised correctness criterion.

Each check lives in threshold_diffusion.validate so the CLI's validate
subcommand and this suite share the exact same code paths and tolerances.
The Monte Carlo criteria dominate the runtime (several minutes total).
Each criterion runs on every CPU, as the validate subcommand does; results
are thread-invariant by contract, and criterion 11 checks that.
"""

import os

import pytest

from threshold_diffusion import validate


def _check(fn):
    r = fn(threads=os.cpu_count() or 1)
    assert r.passed, f"criterion {r.criterion} ({r.name}): {r.detail}"


def test_criterion_01_oscillating_oracle():
    _check(validate.criterion_1)


def test_criterion_02_threshold_jump():
    _check(validate.criterion_2)


def test_criterion_03_single_regime_reduction():
    _check(validate.criterion_3)


@pytest.mark.slow
def test_criterion_04_laplace_consistency():
    _check(validate.criterion_4)


def test_criterion_05_normalization():
    _check(validate.criterion_5)


@pytest.mark.slow
def test_criterion_06_chapman_kolmogorov():
    _check(validate.criterion_6)


@pytest.mark.slow
def test_criterion_07_stationary_law():
    _check(validate.criterion_7)


@pytest.mark.slow
def test_criterion_08_exit_transforms():
    _check(validate.criterion_8)


@pytest.mark.slow
def test_criterion_09_control_value():
    _check(validate.criterion_9)


def test_criterion_10_time_reversal():
    _check(validate.criterion_10)


def test_criterion_11_determinism():
    _check(validate.criterion_11)
