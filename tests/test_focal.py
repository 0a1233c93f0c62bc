"""Focused fields, rephased intensity, resolution curves, spot sizes."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.constants import c as C
from test_bessel import J1_FIRST_ZERO

from pulsescope.errors import (
    GridRangeError,
    InvalidParameterError,
    InvalidStateError,
    NumericalConvergenceError,
)
from pulsescope.excitation import PulseAreaSynthesis, TwoLevelSystem
from pulsescope.focal import (
    SECANT_BUDGET,
    FocusingGeometry,
    RadialCurve,
    _airy_kernel,
    _amplitude_prefactor,
    focal_field_time,
    focal_intensity_rephased,
    intensity_resolution_curve,
    resolution_curve,
    spot_size,
)
from pulsescope.spectra import make_gaussian_spectrum

W0 = 2.0e15
U = 1e-9
GEO = FocusingGeometry(0.01, 0.001)  # A = 0.1


@pytest.fixture(scope="module")
def ultrafast():
    return make_gaussian_spectrum(W0, 10.0 * W0)


@pytest.fixture(scope="module")
def narrowband():
    return make_gaussian_spectrum(W0, 0.01 * W0)


def test_geometry_validation():
    with pytest.raises(InvalidParameterError):
        FocusingGeometry(-1.0, 0.1)
    with pytest.warns(UserWarning):
        FocusingGeometry(0.01, 0.005)  # A = 0.5 beyond paraxial


def test_far_field_flag(ultrafast):
    assert GEO.far_field_valid(ultrafast)
    tight = FocusingGeometry(1e-7, 1e-8)
    assert not tight.far_field_valid(ultrafast)


def spectral_field(spectrum, rho, w):
    """E(rho, w) e^{-i w f / c}, the focal spectral amplitude, from the
    factors focal_field_time, chi and the intensity transform share."""
    return (1j * _amplitude_prefactor(U) * spectrum.value(w)
            * _airy_kernel(GEO, w, rho))


def test_spectral_field_removable_singularity(ultrafast):
    w = ultrafast.mean_frequency
    lam = ultrafast.mean_wavelength
    at_zero = spectral_field(ultrafast, 0.0, w)
    near = spectral_field(ultrafast, 1e-9 * lam, w)
    np.testing.assert_allclose(near, at_zero, rtol=1e-6)
    # limit value A w / (2 c) times the spectral amplitude
    a = GEO.numerical_aperture
    expect = 1j * np.sqrt(2 * U / (8.8541878128e-12 * C)) * ultrafast.value(w) \
        * a * w / (2 * C)
    np.testing.assert_allclose(at_zero, expect, rtol=1e-6)


def test_spectral_field_against_mpmath_bessel(ultrafast):
    mpmath.mp.dps = 30
    w = ultrafast.mean_frequency
    rho = ultrafast.mean_wavelength / GEO.numerical_aperture
    x = GEO.numerical_aperture * w * rho / C
    kernel = float(mpmath.besselj(1, x)) / rho
    np.testing.assert_allclose(_airy_kernel(GEO, w, rho), kernel, rtol=1e-8)


def test_fields_reject_negative_rho(ultrafast):
    t_r = GEO.reference_sphere_radius / C
    tls = TwoLevelSystem(W0, 1e8)
    for call in (lambda: focal_field_time(GEO, ultrafast, U, -1e-9, t_r),
                 lambda: focal_intensity_rephased(GEO, ultrafast, [0.0, -1e-9]),
                 lambda: PulseAreaSynthesis(GEO, ultrafast, U, tls).chi(-1e-9)):
        with pytest.raises(InvalidParameterError):
            call()


def test_monochromatic_first_zero(narrowband):
    # first null of the Airy kernel at A w rho / c = 3.8317 (~0.61 lambda/A)
    rho_zero = J1_FIRST_ZERO * C / (GEO.numerical_aperture * W0)
    lam = 2 * np.pi * C / W0
    np.testing.assert_allclose(rho_zero, 0.6098 * lam / GEO.numerical_aperture,
                               rtol=1e-3)
    vals = focal_intensity_rephased(
        GEO, narrowband, np.linspace(0.8 * rho_zero, 1.2 * rho_zero, 81))
    i_min = np.argmin(vals)
    assert 0.85 < np.linspace(0.8, 1.2, 81)[i_min] < 1.15


def test_time_field_peaks_at_rephasing_time(ultrafast):
    t_r = GEO.reference_sphere_radius / C
    half = 6.0 / ultrafast.spectral_width
    t = np.linspace(t_r - half, t_r + half, 4001)
    e = focal_field_time(GEO, ultrafast, U, 0.0, t)
    assert np.all(np.isreal(e))
    peak = np.argmax(np.abs(e))
    assert abs(t[peak] - t_r) <= (t[1] - t[0])
    # rephasing optimality: no sampled |E| exceeds the rephasing value
    assert np.max(np.abs(e)) <= abs(focal_field_time(GEO, ultrafast, U, 0.0, t_r)) * (1 + 1e-9)


def test_time_field_rejects_coarse_grid(ultrafast):
    t_r = GEO.reference_sphere_radius / C
    coarse = np.linspace(t_r - 1e-15, t_r + 1e-15, 5)
    with pytest.raises(NumericalConvergenceError):
        focal_field_time(GEO, ultrafast, U, 0.0, coarse)


def test_parseval(ultrafast):
    from pulsescope.constants import FIELD_CALIBRATION
    t_r = GEO.reference_sphere_radius / C
    half = 14.0 / ultrafast.spectral_width
    t = np.linspace(t_r - half, t_r + half, 60001)
    e = focal_field_time(GEO, ultrafast, U, 0.0, t)
    lhs = np.trapezoid(e**2, t)
    w = ultrafast.frequency_grid(60001)
    ew = spectral_field(ultrafast, 0.0, w)
    rhs = FIELD_CALIBRATION**2 / np.pi * np.trapezoid(np.abs(ew) ** 2, w)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-6)


def test_intensity_nonnegative_and_narrowband_airy(narrowband):
    lam = 2 * np.pi * C / W0
    rho = np.linspace(0.0, 0.8 * lam / GEO.numerical_aperture, 60)
    vals = focal_intensity_rephased(GEO, narrowband, rho)
    assert np.all(vals >= 0)
    # narrowband limit: proportional to the monochromatic Airy pattern
    # (normalized curves compared absolutely; the raw ratio is singular
    # at the Airy zero inside the range)
    from pulsescope.bessel import j1_over_x
    x = GEO.numerical_aperture * W0 * rho / C
    airy = (W0 * GEO.numerical_aperture / C * j1_over_x(x)) ** 2
    np.testing.assert_allclose(vals / vals[0], airy / airy[0], atol=1e-2)


def test_intensity_dense_double_quadrature_oracle(ultrafast):
    # brute force: scipy Bessel + 10x denser trapezoid, 20 radii
    from scipy.special import j1 as scipy_j1
    lam = ultrafast.mean_wavelength
    rhos = np.linspace(1e-9, 0.6 * lam / GEO.numerical_aperture, 20)
    got = focal_intensity_rephased(GEO, ultrafast, rhos)
    w = np.linspace(0.0, ultrafast.max_frequency, 60011)
    phi = ultrafast.value(w)
    brute = np.array([
        abs(np.trapezoid(phi * scipy_j1(GEO.numerical_aperture * w * r / C) / r, w)) ** 2
        for r in rhos
    ])
    np.testing.assert_allclose(got, brute, rtol=1e-4)


def test_resolution_bounds_and_value_at_zero(ultrafast):
    lam = ultrafast.mean_wavelength
    curve = intensity_resolution_curve(
        GEO, ultrafast, rho_max=lam / GEO.numerical_aperture, n_points=12)
    assert curve.values[0] == 1.0 and curve.evaluator(0.0) == 1.0
    assert np.all((curve.values >= 0) & (curve.values <= 1))


def test_scale_invariance_in_a_rho(ultrafast):
    # (A, rho) and (2A, rho/2) give identical resolution values
    geo2 = FocusingGeometry(0.01, 0.002)
    rho_max = ultrafast.mean_wavelength / GEO.numerical_aperture
    v1 = intensity_resolution_curve(GEO, ultrafast, rho_max, 21).values
    v2 = intensity_resolution_curve(geo2, ultrafast, rho_max / 2, 21).values
    np.testing.assert_allclose(v1, v2, rtol=1e-9)


def test_wavelength_rescale_invariance():
    s1 = make_gaussian_spectrum(W0, 10 * W0)
    s2 = make_gaussian_spectrum(3 * W0, 30 * W0)
    rho_max = 0.8 * s1.mean_wavelength / GEO.numerical_aperture
    v1 = intensity_resolution_curve(GEO, s1, rho_max, 17).values
    v2 = intensity_resolution_curve(GEO, s2, rho_max / 3, 17).values
    np.testing.assert_allclose(v1, v2, rtol=1e-9)


def test_spot_size_ultrafast_constant(ultrafast):
    curve = intensity_resolution_curve(GEO, ultrafast)
    spot = spot_size(curve)
    const = spot * GEO.numerical_aperture / ultrafast.mean_wavelength
    # honest value of the half crossing at width/carrier = 10
    np.testing.assert_allclose(const, 0.221095, rtol=5e-3)


def test_spot_size_doubling_aperture_halves_spot(ultrafast):
    geo2 = FocusingGeometry(0.01, 0.002)
    s1 = spot_size(intensity_resolution_curve(GEO, ultrafast))
    s2 = spot_size(intensity_resolution_curve(geo2, ultrafast))
    np.testing.assert_allclose(s1 / s2, 2.0, rtol=1e-5)


def test_spot_size_narrowband_regression(narrowband):
    curve = intensity_resolution_curve(GEO, narrowband)
    const = spot_size(curve) * GEO.numerical_aperture / narrowband.mean_wavelength
    np.testing.assert_allclose(const, 0.317955, rtol=1e-2)


def test_spot_size_threshold_one_is_zero(ultrafast):
    curve = intensity_resolution_curve(GEO, ultrafast)
    assert spot_size(curve, threshold=1.0) == 0.0


def test_spot_size_no_crossing_raises(ultrafast):
    lam = ultrafast.mean_wavelength
    curve = intensity_resolution_curve(
        GEO, ultrafast, rho_max=0.01 * lam / GEO.numerical_aperture)
    with pytest.raises(GridRangeError):
        spot_size(curve, threshold=0.1)


def test_radial_curve_csv_round_trip(ultrafast):
    curve = intensity_resolution_curve(GEO, ultrafast, n_points=17)
    text = curve.to_csv()
    header, *rows = [line.split(",") for line in text.splitlines()]
    assert header == ["rho_m", "value", "kind"]
    np.testing.assert_array_equal([float(r) for r, _, _ in rows], curve.radii)
    np.testing.assert_array_equal([float(v) for _, v, _ in rows], curve.values)
    assert {k for _, _, k in rows} == {"resolution"}


def test_radial_curve_invariants():
    with pytest.raises(InvalidParameterError):
        RadialCurve(np.array([0.0, 1.0, 1.0]), np.zeros(3), "intensity")
    with pytest.raises(InvalidParameterError):
        RadialCurve(np.array([0.5, 1.0]), np.zeros(2), "intensity")
    with pytest.raises(InvalidParameterError):
        RadialCurve(np.array([0.0, 1.0]), np.array([0.9, 0.5]), "resolution")
    with pytest.raises(InvalidParameterError):
        RadialCurve(np.array([0.0, 1.0]), np.zeros(2), "banana")


def test_degenerate_spectrum_invalid_state():
    # identically vanishing amplitude: the resolution ratio is undefined
    from pulsescope.errors import InvalidStateError
    from pulsescope.spectra import PulseSpectrum

    dead = PulseSpectrum(
        carrier_frequency=W0, spectral_width=0.1 * W0, normalization=1.0,
        mean_frequency=W0, mean_wavelength=2 * np.pi * C / W0,
        _shape=lambda w: np.zeros_like(np.asarray(w, dtype=complex)))
    with pytest.raises(InvalidStateError):
        intensity_resolution_curve(GEO, dead)


def test_resolution_curve_monotone_through_crossing(ultrafast):
    # broadband curve falls monotonically from 1 through the half crossing;
    # no ripple appears within a mean wavelength over the aperture
    curve = intensity_resolution_curve(GEO, ultrafast, n_points=101)
    assert np.all(np.diff(curve.values) < 0)
    assert curve.values[-1] < 0.02


def test_spot_size_without_evaluator_raises():
    # spot_size bisects the evaluator; bare samples are not enough
    bare = RadialCurve(np.linspace(0.0, 2.0, 5), [1.0, 0.8, 0.6, 0.4, 0.2],
                       "resolution")
    assert bare.evaluator is None
    with pytest.raises(InvalidParameterError, match="evaluator"):
        spot_size(bare)


def test_filon_weights_match_arbitrary_precision():
    from pulsescope.quadrature import _filon_weights
    mpmath.mp.dps = 40
    thetas = np.array([1e-8, 1e-3, 0.0399, 0.0401, 0.3, 2.0, 40.0])
    P, Q = _filon_weights(thetas)
    for th, p, q in zip(thetas, P, Q):
        p_ref = mpmath.quad(lambda s: (1 - s) * mpmath.e ** (1j * th * s), [0, 1])
        q_ref = mpmath.quad(lambda s: s * mpmath.e ** (1j * th * s), [0, 1])
        assert abs(p - complex(p_ref)) < 1e-12
        assert abs(q - complex(q_ref)) < 1e-12


def test_filon_transform_exact_for_linear_times_oscillation():
    # exact for piecewise-linear data at any oscillation frequency;
    # reference computed in arbitrary precision
    from pulsescope.quadrature import filon_transform
    t = np.linspace(-1.0, 2.0, 301)
    f = 0.7 - 0.3 * t + 0j
    mpmath.mp.dps = 40
    for q in (0.0, 1e-6, 0.5, 3.0, 200.0):
        got = filon_transform(t, f, q)
        expect = mpmath.quad(
            lambda s: (mpmath.mpf("0.7") - mpmath.mpf("0.3") * s)
            * mpmath.e ** (1j * q * s), [-1, 2], maxdegree=12)
        np.testing.assert_allclose(got, complex(expect), rtol=1e-10,
                                   atol=1e-13)


def test_resolution_curve_of_an_analytic_quantity():
    # q = exp(-rho^2): 2q/(q0+q) = 1/2 at q = 1/3, i.e. rho = sqrt(ln 3)
    curve = resolution_curve(lambda r: np.exp(-np.square(r)), 2.0, 9)
    radii = np.linspace(0.0, 2.0, 9)
    np.testing.assert_array_equal(curve.radii, radii)
    q = np.exp(-radii**2)
    np.testing.assert_allclose(curve.values, 2 * q / (1 + q), rtol=1e-15)
    assert curve.values[0] == 1.0 and curve.evaluator(0.0) == 1.0
    for r, v in zip(radii[1:], curve.values[1:]):
        assert curve.evaluator(float(r)) == v
    np.testing.assert_allclose(spot_size(curve), np.sqrt(np.log(3.0)), rtol=1e-6)
    with pytest.raises(InvalidStateError):
        resolution_curve(np.square, 1.0, 5)


def plain_bisection(curve, threshold=0.5, rtol=1e-6):
    """(spot, evaluations) of the plain bisection spot_size replays: the
    reference its answers must equal bit for bit."""
    hi_idx = np.nonzero(curve.values <= threshold)[0][0]
    lo, hi = curve.radii[hi_idx - 1], curve.radii[hi_idx]
    evaluations = 0
    while (hi - lo) > rtol * hi:
        mid = 0.5 * (lo + hi)
        evaluations += 1
        if curve.evaluator(mid) > threshold:
            lo = mid
        else:
            hi = mid
    return float(0.5 * (lo + hi)), evaluations


def counted(curve):
    """curve with its evaluator wrapped to count calls into calls[0]."""
    calls = [0]
    evaluate = curve.evaluator

    def wrapped(r):
        calls[0] += 1
        return evaluate(r)

    curve.evaluator = wrapped
    return calls


def _gaussian_curve():
    # q = exp(-rho^2): the resolution crosses 1/2 at rho = sqrt(ln 3) = 1.0481
    return resolution_curve(lambda r: np.exp(-np.square(r)), 2.0, 9)


@pytest.mark.parametrize("rtol", [1e-17, 0.0, -1e-6, math.nan, math.inf, 1.0,
                                  2.0, "1e-6", None])
def test_spot_size_rejects_rtol_before_evaluating(rtol):
    # 1e-17 and 0 hung in the bisection; nan returned the sample midpoint
    curve = _gaussian_curve()
    calls = counted(curve)
    with pytest.raises(InvalidParameterError, match="rtol"):
        spot_size(curve, rtol=rtol)
    assert calls[0] == 0


def test_spot_size_at_the_smallest_rtol():
    rtol = 4 * np.finfo(float).eps
    spot = spot_size(_gaussian_curve(), rtol=rtol)
    assert spot == plain_bisection(_gaussian_curve(), rtol=rtol)[0]
    np.testing.assert_allclose(spot, np.sqrt(np.log(3.0)), rtol=1e-14)


@pytest.mark.parametrize("n_points", [0, -3, 2.5, 9.0, "9", None, True])
def test_resolution_curve_rejects_n_points(n_points):
    quantity_calls = []

    def quantity(r):
        quantity_calls.append(r)
        return np.exp(-np.square(r))

    with pytest.raises(InvalidParameterError, match="n_points"):
        resolution_curve(quantity, 2.0, n_points)
    assert not quantity_calls


def test_resolution_curve_of_one_point():
    # excitation_resolution builds its one-radius evaluator this way
    curve = resolution_curve(lambda r: np.exp(-np.square(r)), 2.0, np.int64(1))
    assert curve.radii.tolist() == [0.0] and curve.values.tolist() == [1.0]
    assert curve.evaluator(0.5) == 2 * np.exp(-0.25) / (1 + np.exp(-0.25))


def _quantity(kind, scale, power, edge, level):
    """A radial quantity q of one of four families, q(0) = 1."""
    if kind == "analytic":
        return lambda r: np.exp(-(r / scale) ** power)
    if kind == "lorentzian":
        return lambda r: 1.0 / (1.0 + np.square(r / scale))
    if kind == "step":
        return lambda r: np.where(r < edge, 1.0, level)
    # plateau, then a drop
    return lambda r: np.exp(-(np.maximum(r - edge, 0.0) / scale) ** power)


CURVES = st.fixed_dictionaries({
    "kind": st.sampled_from(["analytic", "lorentzian", "step", "plateau"]),
    "scale": st.floats(-9.0, 1.0).map(lambda u: 10.0 ** u),
    "power": st.floats(0.5, 4.0),
    "edge": st.floats(0.1, 3.0),
    "level": st.floats(0.0, 0.95),
    "reach": st.floats(1.5, 8.0),
    "n_points": st.integers(2, 80),
    "threshold": st.floats(0.02, 0.98),
    "rtol": st.floats(-12.0, -2.0).map(lambda u: 10.0 ** u),
})


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(CURVES)
def test_spot_size_replays_the_plain_bisection(drawn):
    scale = drawn["scale"]
    q = _quantity(drawn["kind"], scale, drawn["power"],
                  drawn["edge"] * scale, drawn["level"])
    curve = resolution_curve(q, drawn["reach"] * scale, drawn["n_points"])
    below = np.nonzero(curve.values <= drawn["threshold"])[0]
    if below.size == 0 or below[0] == 0:
        return  # no sample bracket: nothing is evaluated
    args = drawn["threshold"], drawn["rtol"]
    calls = counted(curve)
    spot = spot_size(curve, *args)
    made = calls[0]
    expected, evaluations = plain_bisection(curve, *args)
    assert spot == expected
    assert made <= evaluations + SECANT_BUDGET
