"""Spectral amplitudes: normalization, reality, zero-DC, mean frequency."""

import numpy as np
import pytest
from numpy import trapezoid

from pulsescope.errors import InvalidParameterError
from pulsescope.quadrature import refine_until_converged
from pulsescope.spectra import (
    TAIL_WIDTHS,
    _gaussian_shape,
    make_gaussian_spectrum,
    make_spectrum,
)

W0 = 2.0e15  # reference carrier, rad/s


def gaussian_normalization_closed_form(carrier: float, width: float) -> float:
    """Closed-form N of the antisymmetrized Gaussian:
    1 / sqrt(G sqrt(2 pi) (1 - exp(-w_c^2 / (2 G^2))))."""
    n2 = width * np.sqrt(2.0 * np.pi) * (1.0 - np.exp(-(carrier**2) / (2.0 * width**2)))
    return 1.0 / np.sqrt(n2)


@pytest.fixture(scope="module", params=[0.01, 0.3, 1.0, 10.0, 100.0])
def spectrum(request):
    return make_gaussian_spectrum(W0, request.param * W0)


def test_rejects_nonpositive_parameters():
    with pytest.raises(InvalidParameterError):
        make_gaussian_spectrum(-W0, W0)
    with pytest.raises(InvalidParameterError):
        make_gaussian_spectrum(W0, 0.0)


def test_normalization(spectrum):
    w = spectrum.frequency_grid(200001)
    norm = trapezoid(np.abs(spectrum.value(w)) ** 2, w)
    assert abs(norm - 1.0) < 1e-8


def test_normalization_closed_form(spectrum):
    expected = gaussian_normalization_closed_form(
        spectrum.carrier_frequency, spectrum.spectral_width)
    np.testing.assert_allclose(spectrum.normalization, expected, rtol=1e-8)


def test_reality_condition(spectrum):
    w = np.linspace(-spectrum.max_frequency, spectrum.max_frequency, 4001)
    phi = spectrum.value(w)
    peak = np.max(np.abs(phi))
    assert np.max(np.abs(phi - np.conj(spectrum.value(-w)))) < 1e-12 * peak


def test_zero_dc(spectrum):
    peak = np.max(np.abs(spectrum.value(spectrum.frequency_grid(2001))))
    assert abs(spectrum.value(0.0)) < 1e-14 * peak
    assert spectrum.value(0.0) == 0.0


def test_value_at_mean_matches_dense_reevaluation():
    # independent evaluation: raw formula + high-resolution trapezoid norm
    s = make_gaussian_spectrum(W0, 10.0 * W0)
    w = np.linspace(0.0, s.max_frequency, 400001)
    raw = np.exp(-((w + W0) ** 2) / (4 * (10 * W0) ** 2)) - np.exp(
        -((w - W0) ** 2) / (4 * (10 * W0) ** 2))
    nrm = 1.0 / np.sqrt(trapezoid(raw**2, w))
    wbar = s.mean_frequency
    raw_at = nrm * (np.exp(-((wbar + W0) ** 2) / (4 * (10 * W0) ** 2))
                    - np.exp(-((wbar - W0) ** 2) / (4 * (10 * W0) ** 2)))
    np.testing.assert_allclose(abs(s.value(wbar)) ** 2, raw_at**2, rtol=1e-8)


def test_mean_frequency_quasimonochromatic():
    s = make_gaussian_spectrum(W0, 0.01 * W0)
    assert abs(s.mean_frequency / W0 - 1.0) < 1e-3


def test_mean_frequency_asymptote():
    s = make_gaussian_spectrum(W0, 100.0 * W0)
    assert abs(s.mean_frequency / (100.0 * W0) - np.sqrt(8 / np.pi)) < 1e-2


def test_mean_frequency_refinement_oracle(spectrum):
    # 10x denser direct quadrature moves the result by < 1e-6 relative,
    # and the dense one matches the cached mean frequency to 1e-9
    def direct(n):
        w = np.linspace(0.0, spectrum.max_frequency, n)
        return trapezoid(w * np.abs(spectrum.value(w)) ** 2, w)

    coarse = direct(40001)
    dense = direct(400001)
    assert abs(dense - coarse) / dense < 1e-6
    np.testing.assert_allclose(dense, spectrum.mean_frequency, rtol=1e-9)


def test_mean_frequency_monotone_in_width():
    widths = np.array([0.01, 0.1, 0.5, 1, 2, 5, 10, 30, 100])
    wbars = [make_gaussian_spectrum(W0, r * W0).mean_frequency for r in widths]
    assert np.all(np.diff(wbars) > 0)


def test_conjugate_pairs(spectrum):
    w = np.array([0.3, 1.7, 4.0]) * spectrum.spectral_width
    np.testing.assert_allclose(spectrum.value(-w), np.conj(spectrum.value(w)),
                               atol=1e-300, rtol=1e-14)


def test_mean_wavelength_consistency(spectrum):
    from scipy.constants import c
    np.testing.assert_allclose(
        spectrum.mean_wavelength, 2 * np.pi * c / spectrum.mean_frequency,
        rtol=1e-14)


def four_evaluation_statistics(shape, carrier, width, rtol=1e-10):
    """(normalization, mean frequency) by the former rule: each moment
    refined on its own, the shape evaluated on every point of every grid."""
    wmax = carrier + TAIL_WIDTHS * width

    def norm2(n):
        w = np.linspace(0.0, wmax, n)
        return trapezoid(np.abs(shape(w)) ** 2, w)

    nrm = 1.0 / np.sqrt(refine_until_converged(norm2, 2001, rtol=rtol))

    def first_moment(n):
        w = np.linspace(0.0, wmax, n)
        return trapezoid(w * np.abs(nrm * shape(w)) ** 2, w)

    return nrm, refine_until_converged(first_moment, 2001, rtol=rtol)


@pytest.mark.parametrize("carrier_ratio", [0.5, 1.0, 2.0, 5.0])
def test_statistics_sample_each_grid_point_once(carrier_ratio):
    # both moments share one evaluation of each grid point, the finer grid
    # adding only its midpoints, with the bits of the former four-evaluation
    # rule; at rtol 1e-13 most widths refine through two more grids
    carrier = carrier_ratio * W0
    for width in np.geomspace(0.01, 100.0, 9) * W0:
        for rtol in (1e-10, 1e-13):
            shape = _gaussian_shape(carrier, width)
            sizes = []

            def counted(w, shape=shape):
                sizes.append(w.size)
                return shape(w)

            spectrum = make_spectrum(counted, carrier, width, rtol=rtol)
            nrm, wbar = four_evaluation_statistics(shape, carrier, width, rtol)
            assert spectrum.normalization == nrm and spectrum.mean_frequency == wbar
            assert sum(sizes) == 2000 * 2 ** (len(sizes) - 1) + 1
            assert sizes[:2] == [2001, 2000]
