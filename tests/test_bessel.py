"""Bessel J1 against an arbitrary-precision oracle (mpmath)."""

import mpmath
import numpy as np
import pytest
import scipy.special

from scipy.special import j1

from pulsescope import bessel
from pulsescope.bessel import j1_over_x

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
    # filled in place: j1(x)/x bit for bit off zero, exactly 1/2 at +0 and
    # -0, the argument untouched and a float giving a 0-d result
    grid = np.array([[0.0, -3.5, 1e-300], [-0.0, 7.0, 0.0]])
    before = grid.copy()
    got = j1_over_x(grid)
    off = grid != 0
    assert np.array_equal(got[off], j1(grid[off]) / grid[off])
    assert np.array_equal(got[~off], [0.5, 0.5, 0.5])
    assert np.array_equal(grid, before) and np.signbit(grid[1, 0])
    for x in (0.0, -0.0, 2.5):
        value = j1_over_x(x)
        assert np.ndim(value) == 0
        assert value == (0.5 if x == 0 else j1(x) / x)


def test_scalar_in_scalar_out():
    assert np.isscalar(float(j1(1.5)))
    assert isinstance(j1(np.array([1.0, 2.0])), np.ndarray)


def _through_scipy(x):
    # the scipy formula of j1_over_x, taken even when x has no nonzero element
    x = np.asarray(x, dtype=float)
    out = scipy.special.j1(x, out=np.empty(x.shape))
    np.divide(out, x, out=out, where=x != 0)
    out[x == 0] = 0.5
    return out[()]


@pytest.mark.parametrize("x", [0.0, -0.0, np.zeros(0), np.zeros(3),
                               np.zeros((2, 4)), -np.zeros(2)],
                         ids=["zero", "negative-zero", "empty", "zeros-3",
                              "zeros-2x4", "negative-zeros"])
def test_j1_over_x_without_a_nonzero_argument(x):
    got, want = j1_over_x(x), _through_scipy(x)
    assert type(got) is type(want)
    assert got.dtype == want.dtype and np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)


def test_j1_over_x_mixed_and_nan():
    x = np.array([[0.0, -0.0, 2.5, -1e-300], [7.0, 0.0, 1e300, -3.0]])
    assert j1_over_x(x).tobytes() == _through_scipy(x).tobytes()
    assert np.isnan(j1_over_x(np.nan))
    got = j1_over_x(np.array([0.0, np.nan, 1.0]))
    assert got[0] == 0.5 and np.isnan(got[1]) and got[2] == scipy.special.j1(1.0)


def test_other_names_raise():
    # J1 itself is scipy.special.j1; the module holds only J1(x)/x
    for name in ("j1", "no_such_name"):
        with pytest.raises(AttributeError, match=name):
            getattr(bessel, name)
