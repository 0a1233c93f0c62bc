"""Focused fields, rephased intensity, resolution curves, spot sizes."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.constants import c as C
from spot_reference import counted, plain_bisection
from test_bessel import J1_FIRST_ZERO

from pulsescope import excitation, focal
from pulsescope.bessel import j1_over_x
from pulsescope.errors import (
    GridRangeError,
    InvalidParameterError,
    InvalidStateError,
    NumericalConvergenceError,
)
from pulsescope.excitation import PulseAreaSynthesis, PulseTrainConfig, TwoLevelSystem
from pulsescope.config import ScenarioConfig
from pulsescope.focal import (
    SECANT_BUDGET,
    SPECTRUM_REACH,
    AirySpectrum,
    FocusingGeometry,
    RadialCurve,
    _amplitude_prefactor,
    focal_field_time,
    focal_intensity_rephased,
    intensity_resolution_curve,
    resolution_curve,
    spot_size,
)
from pulsescope.quadrature import trapezoid_weights
from pulsescope.scenario import resolve
from pulsescope.spectra import make_gaussian_spectrum, make_spectrum

W0 = 2.0e15
U = 1e-9
GEO = FocusingGeometry(0.01, 0.001)  # A = 0.1


@pytest.fixture(scope="module")
def ultrafast():
    return make_gaussian_spectrum(W0, 10.0 * W0)


@pytest.fixture(scope="module")
def narrowband():
    return make_gaussian_spectrum(W0, 0.01 * W0)


@pytest.fixture(scope="module")
def scenario_parts():
    """Spectrum, transition and train of the reference config, whose
    geometry is GEO."""
    spectrum, geometry, tls, train = ScenarioConfig().build()
    assert geometry == GEO
    return spectrum, tls, train


def test_geometry_validation():
    with pytest.raises(InvalidParameterError):
        FocusingGeometry(-1.0, 0.1)
    with pytest.warns(UserWarning):
        FocusingGeometry(0.01, 0.005)  # A = 0.5 beyond paraxial


def test_far_field_flag(ultrafast):
    assert GEO.far_field_valid(ultrafast)
    tight = FocusingGeometry(1e-7, 1e-8)
    assert not tight.far_field_valid(ultrafast)


def spectral_field(spectrum, rho, n):
    """(w, E(rho, w) e^{-i w f / c}) on the n-point grid of the Airy-weighted
    spectrum that focal_field_time, chi and the intensity share: its
    order-1 column is -conj(E) h / sqrt(2U/(eps0 c)), h the trapezoid
    weights."""
    airy = AirySpectrum(spectrum, GEO.numerical_aperture, n)
    w = airy.frequencies
    return w, (-_amplitude_prefactor(U) * np.conj(airy.columns(rho, 1))
               / trapezoid_weights(w))


def test_spectral_field_removable_singularity(ultrafast):
    lam = ultrafast.mean_wavelength
    w, at_zero = spectral_field(ultrafast, 0.0, 41)
    _, near = spectral_field(ultrafast, 1e-9 * lam, 41)
    np.testing.assert_allclose(near, at_zero, rtol=1e-6)
    # limit value A w / (2 c) times the spectral amplitude
    a = GEO.numerical_aperture
    expect = 1j * np.sqrt(2 * U / (8.8541878128e-12 * C)) * ultrafast.value(w) \
        * a * w / (2 * C)
    np.testing.assert_allclose(at_zero, expect, rtol=1e-6)


def test_spectral_field_against_mpmath_bessel(ultrafast):
    # J1(A w rho / c) / rho, the Airy kernel, at grid frequencies around
    # the mean one
    mpmath.mp.dps = 30
    rho = ultrafast.mean_wavelength / GEO.numerical_aperture
    w, field = spectral_field(ultrafast, rho, 41)
    for j in range(2, 30, 3):
        kernel = field[j] / (1j * _amplitude_prefactor(U) * ultrafast.value(w[j]))
        x = GEO.numerical_aperture * w[j] * rho / C
        np.testing.assert_allclose(kernel, float(mpmath.besselj(1, x)) / rho,
                                   rtol=1e-8)


def test_fields_reject_negative_rho(ultrafast):
    # and radii that are not finite
    tls = TwoLevelSystem(W0, 1e8)
    train = PulseTrainConfig(1, 1e-12, U)
    synthesis = PulseAreaSynthesis(GEO, ultrafast, U, tls)
    for rho in (-1e-9, float("nan"), float("inf")):
        for call in (lambda: focal_field_time(GEO, ultrafast, U, rho, 0.0),
                     lambda: focal_intensity_rephased(GEO, ultrafast, [0.0, rho]),
                     lambda: synthesis.chi(rho),
                     lambda: synthesis.probability(train, rho)):
            with pytest.raises(InvalidParameterError, match="radial"):
                call()
    # a time that is not finite, alone or in a grid
    for t in (float("nan"), np.array([0.0, float("nan"), 1e-17])):
        with pytest.raises(InvalidParameterError, match="finite"):
            focal_field_time(GEO, ultrafast, U, 0.0, t)


def test_rephased_intensity_at_no_radii_is_empty(ultrafast):
    # as chi and probability at no radii are; it raised a concatenation ValueError
    out = focal_intensity_rephased(GEO, ultrafast, [])
    assert isinstance(out, np.ndarray) and out.shape == (0,)


def test_rephased_intensity_keeps_the_shape_of_2d_radii(ultrafast):
    # it returned a (2, 1) array, the intensities at the first column only
    rho = np.array([[0.0, 1e-7], [2e-7, 3e-7]])
    got = focal_intensity_rephased(GEO, ultrafast, rho)
    np.testing.assert_array_equal(
        got, focal_intensity_rephased(GEO, ultrafast, rho.ravel()).reshape(2, 2))


def test_time_field_at_no_times_is_empty(ultrafast):
    # it raised a zero-size reduction ValueError
    out = focal_field_time(GEO, ultrafast, U, 0.0, [])
    assert isinstance(out, np.ndarray) and out.shape == (0,)


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
    # t counts from the rephasing instant f/c
    half = 6.0 / ultrafast.spectral_width
    t = np.linspace(-half, half, 4001)
    e = focal_field_time(GEO, ultrafast, U, 0.0, t)
    assert np.all(np.isreal(e))
    peak = np.argmax(np.abs(e))
    assert abs(t[peak]) <= (t[1] - t[0])
    # rephasing optimality: no sampled |E| exceeds the rephasing value
    assert np.max(np.abs(e)) <= abs(focal_field_time(GEO, ultrafast, U, 0.0, 0.0)) * (1 + 1e-9)


def test_time_field_grid_is_converged(ultrafast, narrowband):
    # the band-sized frequency grid (max|tau| + A rho / c + 8 / G) against
    # one four times denser, on and off axis
    for spectrum in (ultrafast, narrowband):
        t = np.linspace(-6.0, 6.0, 1201) / spectrum.spectral_width
        for rho in (0.0, spectrum.mean_wavelength / GEO.numerical_aperture):
            fine = focal_field_time(GEO, spectrum, U, rho, t, grid_scale=4.0)
            got = focal_field_time(GEO, spectrum, U, rho, t)
            assert np.max(np.abs(got - fine)) <= 1e-12 * np.max(np.abs(fine))


def test_time_field_rejects_coarse_grid(ultrafast):
    coarse = np.linspace(-1e-15, 1e-15, 5)
    with pytest.raises(NumericalConvergenceError):
        focal_field_time(GEO, ultrafast, U, 0.0, coarse)


def test_parseval(ultrafast):
    from pulsescope.constants import FIELD_CALIBRATION
    half = 14.0 / ultrafast.spectral_width
    t = np.linspace(-half, half, 60001)
    e = focal_field_time(GEO, ultrafast, U, 0.0, t)
    lhs = np.trapezoid(e**2, t)
    w, ew = spectral_field(ultrafast, 0.0, 60001)
    rhs = FIELD_CALIBRATION**2 / np.pi * np.trapezoid(np.abs(ew) ** 2, w)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-6)


def test_intensity_is_the_squared_field_at_the_rephasing_instant(scenario_parts):
    # one Airy-weighted spectrum behind both: for the built-in, purely
    # imaginary spectrum the rephased amplitude is real, so the intensity
    # ratio is the squared field ratio at tau = 0
    spectrum, _, train = scenario_parts
    rhos = np.linspace(0.0, spectrum.mean_wavelength / GEO.numerical_aperture, 9)
    intensity = focal_intensity_rephased(GEO, spectrum, rhos)
    field = np.array([focal_field_time(GEO, spectrum, train.pulse_energy, r, 0.0)
                      for r in rhos])
    assert np.max(np.abs(intensity / intensity[0] - (field / field[0]) ** 2)) <= 1e-13


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
    # brute force: scipy Bessel and a dense trapezoid, 20 radii; the
    # band-sized, refined grid must match it to 1e-12 of the peak
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
    assert np.max(np.abs(got - brute)) <= 1e-12 * np.max(brute)


def _physical_complex(carrier, width):
    """Re phi even, Im phi odd and phi(0) = 0, as for the built-in
    spectrum, whose imaginary part it keeps beside a real one."""
    def shape(w):
        lp = np.exp(-((w + carrier) ** 2) / (4.0 * width**2))
        lm = np.exp(-((w - carrier) ** 2) / (4.0 * width**2))
        return 1j * (lp - lm) + 0.5 * (w / width) ** 2 * (lp + lm)
    return make_spectrum(shape, carrier, width)


def _dense_references(spectrum, rhos, taus):
    """(intensity at rhos, chi at unit prefactor at taus x rhos) by plain
    40001-point trapezoids, chi's complex exponentials in blocks of 16
    taus."""
    w = spectrum.frequency_grid(40001)
    a = GEO.numerical_aperture
    weights = np.full(w.size, w[1])
    weights[[0, -1]] *= 0.5
    cols = np.stack([spectrum.value(w) * (a / C) * j1_over_x(a * w * r / C)
                     for r in rhos], axis=1) * weights[:, None]
    intensity = np.abs((w * cols.T).sum(axis=1)) ** 2
    chi = np.empty((taus.size, rhos.size))
    for i in range(0, taus.size, 16):
        chi[i:i + 16] = (np.exp(-1j * np.outer(taus[i:i + 16], w)) @ cols).real
    return intensity, chi


BANDS = [(c, g) for c in (0.5, 1.0, 5.0) for g in (0.01, 0.1, 1.0, 10.0, 100.0)]


@pytest.mark.parametrize("carrier, width", BANDS)
def test_band_sized_grids_match_dense_references(carrier, width, monkeypatch):
    # the intensity and chi on grids sized from their integrands' band,
    # against 40001-point trapezoids, within 1e-12 of the peak
    evaluated = []
    real_refine = focal.refine_until_converged

    def counted(evaluate, *args, **kwargs):
        def tally(n):
            evaluated.append(n)
            return evaluate(n)
        return real_refine(tally, *args, **kwargs)

    monkeypatch.setattr(focal, "refine_until_converged", counted)
    tls = TwoLevelSystem(W0, 1e8)
    for spectrum in (make_gaussian_spectrum(carrier * W0, width * W0),
                     _physical_complex(carrier * W0, width * W0)):
        rhos = np.linspace(0.0, spectrum.mean_wavelength / GEO.numerical_aperture, 5)
        taus = np.linspace(-12.0, 12.0, 97) / spectrum.spectral_width
        intensity, chi = _dense_references(spectrum, rhos, taus)
        evaluated.clear()
        got = focal_intensity_rephased(GEO, spectrum, rhos)
        assert np.max(np.abs(got - intensity)) <= 1e-12 * np.max(intensity)
        synthesis = PulseAreaSynthesis(GEO, spectrum, U, tls)
        got = synthesis.chi(rhos, unit=True)(taus)
        assert np.max(np.abs(got - chi)) <= 1e-12 * np.max(np.abs(chi))
    # the real part makes the intensity integrand odd in w, where the
    # trapezoid converges as h^4: the certificate refines past its first
    # grid wherever Re phi is not negligible at low frequencies
    if width >= carrier:
        assert len(evaluated) > 2


@pytest.mark.parametrize("grid_scale", [0.05, 0.3])
def test_grid_scale_stops_at_the_alias_free_count(ultrafast, narrowband, grid_scale):
    # grid_scale shrinks the band-sized grids down to the alias-free count
    # and no further, so coarse scales keep chi and the intensity curve
    tls = TwoLevelSystem(W0, 1e8)
    for spectrum in (ultrafast, narrowband):
        rhos = np.linspace(0.0, spectrum.mean_wavelength / GEO.numerical_aperture, 9)
        taus = np.linspace(-12.0, 12.0, 241) / spectrum.spectral_width
        values = []
        for scale in (1.0, grid_scale):
            curve = intensity_resolution_curve(GEO, spectrum, grid_scale=scale)
            synthesis = PulseAreaSynthesis(GEO, spectrum, U, tls, scale)
            values.append((focal_intensity_rephased(GEO, spectrum, rhos, scale),
                           curve.values, synthesis.chi(rhos, unit=True)(taus)))
        for fine, coarse in zip(*values):
            assert np.max(np.abs(coarse - fine)) <= 1e-12 * np.max(np.abs(fine))


def test_chi_past_its_grids_band_raises(ultrafast):
    # at the alias-free count the grid holds the tau span out to a mean
    # wavelength over A; a farther radius would alias
    synthesis = PulseAreaSynthesis(GEO, ultrafast, U, TwoLevelSystem(W0, 1e8), 0.05)
    rho_edge = ultrafast.mean_wavelength / GEO.numerical_aperture
    assert rho_edge <= synthesis.max_radius < 3.0 * rho_edge
    taus = np.linspace(-12.0, 12.0, 97) / ultrafast.spectral_width
    assert np.all(np.isfinite(synthesis.chi(rho_edge)(taus)))
    with pytest.raises(GridRangeError, match="radius"):
        synthesis.chi(np.array([0.0, 3.0 * rho_edge]))


def test_chi_past_its_grids_tau_reach_raises(scenario_parts):
    # the grid resolves 2 pi / dw - A rho / c - SPECTRUM_REACH / G of tau,
    # about 88 pulse widths at rho = 0 and TAU_SPAN at max_radius; past it
    # chi(0)(1 s) read -0.0737 against a peak of 0.498
    spectrum, tls, train = scenario_parts
    synthesis = PulseAreaSynthesis(GEO, spectrum, train.pulse_energy, tls)
    width = 1.0 / spectrum.spectral_width
    reach = 2.0 * np.pi / synthesis.frequencies[1] - SPECTRUM_REACH * width
    assert 80.0 * width < reach < 100.0 * width
    inside = (1.0 - 1e-12) * reach
    assert np.isfinite(synthesis.chi(0.0)(np.array([-inside, inside]))).all()
    for tau in (1.0, 1.001 * reach, np.array([0.0, -1.001 * reach])):
        with pytest.raises(GridRangeError, match="past the .* s its grid resolves"):
            synthesis.chi(0.0)(tau)
    for tau in (np.nan, np.array([0.0, np.inf])):
        with pytest.raises(InvalidParameterError, match="tau must be finite"):
            synthesis.chi(0.0)(tau)
    edge = synthesis.chi(synthesis.max_radius, unit=True)
    span = excitation.TAU_SPAN * width
    assert np.isfinite(edge(np.array([-span, span]))).all()
    with pytest.raises(GridRangeError):
        edge(1.001 * span)


def test_field_grid_past_its_point_limit_raises(scenario_parts):
    # |t| = 1 ns would take 2.0e8 frequencies (1.6 GB per array)
    spectrum, _, train = scenario_parts
    with pytest.raises(GridRangeError, match=r"frequency grid needs 2\.02e\+08 points"):
        focal_field_time(GEO, spectrum, train.pulse_energy, 0.0, 1e-9)


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


def test_radial_curve_csv_round_trip(tmp_path):
    # the curve `resolve` writes reads back to the curve's own bits
    cfg = ScenarioConfig(output_dir=str(tmp_path))
    resolve(cfg)
    spectrum, geometry, _, _ = cfg.build()
    curve = intensity_resolution_curve(geometry, spectrum, grid_scale=cfg.grid_scale)
    text = (tmp_path / "intensity_resolution.csv").read_text()
    header, *rows = [line.split(",") for line in text.splitlines()]
    assert header == ["rho_m", "value", "kind"]
    np.testing.assert_array_equal([float(r) for r, _, _ in rows], curve.radii)
    np.testing.assert_array_equal([float(v) for _, v, _ in rows], curve.values)
    assert {k for _, _, k in rows} == {"resolution"}


def _one(r):
    return 1.0


def test_empty_radial_curve_raises():
    # it raised an IndexError
    with pytest.raises(InvalidParameterError, match="rho = 0"):
        RadialCurve([], [], _one)


def test_radial_curve_invariants():
    with pytest.raises(InvalidParameterError, match="increase strictly"):
        RadialCurve(np.array([0.0, 1.0, 1.0]), np.ones(3), _one)
    with pytest.raises(InvalidParameterError, match="rho = 0"):
        RadialCurve(np.array([0.5, 1.0]), np.ones(2), _one)
    with pytest.raises(InvalidParameterError, match="exactly 1"):
        RadialCurve(np.array([0.0, 1.0]), np.array([0.9, 0.5]), _one)
    with pytest.raises(InvalidParameterError, match="equal length"):
        RadialCurve(np.array([0.0, 1.0]), np.ones(3), _one)


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


def _gaussian_curve():
    # q = exp(-rho^2): the resolution crosses 1/2 at rho = sqrt(ln 3) = 1.0481
    return resolution_curve(lambda r: np.exp(-np.square(r)), 2.0, 9)


@pytest.mark.parametrize("name, value", [
    *[("rtol", v) for v in (1e-17, 0.0, -1e-6, math.nan, math.inf, 1.0, 2.0,
                            "1e-6", None)],
    *[("threshold", v) for v in (0.0, -0.5, 1.5, math.nan, math.inf, "0.5",
                                 None, [0.5])]])
def test_spot_size_rejects_inputs_before_evaluating(name, value):
    # rtol 1e-17 and 0 hung in the bisection, nan returned the sample
    # midpoint; threshold "0.5" raised a bare TypeError
    curve = _gaussian_curve()
    calls = counted(curve)
    with pytest.raises(InvalidParameterError, match=name):
        spot_size(curve, **{name: value})
    assert calls == []


def test_spot_size_at_the_smallest_rtol():
    spot = spot_size(_gaussian_curve(), rtol=4 * np.finfo(float).eps)
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
# every trial above the crossing, until one past the last guess moves b
@example({"kind": "lorentzian", "scale": 1.5200022094869609e-06, "power": 1.0,
          "edge": 1.0, "level": 0.0, "reach": 5.0603898579717566, "n_points": 39,
          "threshold": 0.9746367874260911, "rtol": 7.685564514100996e-12})
# a bisection that ends at rtol * hi, whose secant root lies too near b
@example({"kind": "step", "scale": 2.2235147746892783e-07, "power": 1.0,
          "edge": 1.380939393393114, "level": 0.3662870101273198,
          "reach": 5.538081317919223, "n_points": 78,
          "threshold": 0.5382761982762321, "rtol": 5.839461026916929e-12})
def test_spot_size_matches_the_plain_bisection(drawn):
    scale = drawn["scale"]
    q = _quantity(drawn["kind"], scale, drawn["power"],
                  drawn["edge"] * scale, drawn["level"])
    curve = resolution_curve(q, drawn["reach"] * scale, drawn["n_points"])
    below = np.nonzero(curve.values <= drawn["threshold"])[0]
    if below.size == 0 or below[0] == 0:
        return  # no sample bracket: nothing is evaluated
    threshold, rtol = drawn["threshold"], drawn["rtol"]
    hi = curve.radii[below[0]]
    expected, evaluations = plain_bisection(curve, threshold, rtol)
    calls = counted(curve)
    spot = spot_size(curve, threshold, rtol)
    radii = [r for call in calls for r in call]
    # both answers lie within rtol * hi / 2 of the one crossing
    assert abs(spot - expected) <= rtol * hi
    assert len(radii) <= evaluations + SECANT_BUDGET
    # each radius is new, never a stored sample
    assert len(set(radii)) == len(radii)
    assert not set(radii) & set(curve.radii.tolist())
    if drawn["kind"] == "step":
        # the crossing is the edge; the bracket's ends are within an ulp
        assert abs(spot - drawn["edge"] * scale) <= 0.5 * rtol * hi + 2 * np.spacing(hi)
    if drawn["kind"] in ("analytic", "lorentzian"):
        # the secant root of the last bracket, not its midpoint
        crossing, _ = plain_bisection(curve, threshold, 4 * np.finfo(float).eps)
        assert abs(spot - crossing) <= 0.01 * rtol * hi
