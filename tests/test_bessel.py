"""Bessel J1 against an arbitrary-precision oracle (mpmath)."""

import mpmath
import numpy as np
import pytest

from pulsescope.bessel import j1, j1_over_x

mpmath.mp.dps = 30

# first positive zero of J1 (spot-size sanity checks)
J1_FIRST_ZERO = 3.8317059702075123156


def _reference(xs):
    return np.array([float(mpmath.besselj(1, float(x))) for x in xs])


@pytest.mark.parametrize(
    "lo,hi",
    [(0.0, 11.99), (11.99, 19.99), (19.99, 60.0), (60.0, 400.0)],
)
def test_matches_mpmath_absolute(lo, hi):
    xs = np.linspace(lo, hi, 311)
    assert np.max(np.abs(j1(xs) - _reference(xs))) < 1e-12


def test_branch_boundaries_continuous():
    for edge in (12.0, 20.0):
        xs = np.linspace(edge - 1e-6, edge + 1e-6, 9)
        assert np.max(np.abs(j1(xs) - _reference(xs))) < 1e-12


def test_odd_symmetry():
    xs = np.linspace(0.1, 50.0, 101)
    np.testing.assert_array_equal(j1(-xs), -j1(xs))


def test_first_zero():
    assert abs(j1(J1_FIRST_ZERO)) < 1e-12
    # bracketing sign change
    assert j1(J1_FIRST_ZERO - 1e-3) * j1(J1_FIRST_ZERO + 1e-3) < 0


def test_j1_over_x_removable_singularity():
    assert j1_over_x(0.0) == 0.5
    xs = np.array([1e-12, 1e-8, 1e-4, 0.3, 2.0, 15.0, 30.0])
    expect = _reference(xs) / xs
    assert np.max(np.abs(j1_over_x(xs) - expect)) < 1e-12


def test_scalar_in_scalar_out():
    assert np.isscalar(float(j1(1.5)))
    assert isinstance(j1(np.array([1.0, 2.0])), np.ndarray)
