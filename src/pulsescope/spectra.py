"""Normalized pulse spectral functions and their scalar statistics.

A pulse is described by a complex spectral amplitude phi(w) obeying the
reality condition phi(w) = conj(phi(-w)), unit norm on the positive axis
int_0^inf |phi|^2 dw = 1, and phi(0) = 0 (propagating pulses carry no
electrostatic component). The built-in family is the antisymmetrized
Gaussian

    phi(w) = i N [l(w) - l(-w)],   l(w) = exp[-(w + w_c)^2 / (4 G^2)],

with carrier w_c and spectral width G. For G >> w_c the mean frequency
approaches G sqrt(8/pi); for G << w_c it approaches the carrier.

All constructed objects are immutable and every operation is a pure
function, so concurrent readers need no synchronization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .constants import C_LIGHT
from .errors import InvalidParameterError
from .quadrature import refine_until_converged

# Gaussian tails beyond carrier + 12 widths are below 1e-30 of the peak,
# so the positive-frequency support is truncated there.
TAIL_WIDTHS = 12.0
# widths up to this keep the 4 G^2 of the Gaussian exponent finite
# (just below sqrt(float max / 4) = 6.7039e153)
MAX_GAUSSIAN_WIDTH = 6.7e153


@dataclass(frozen=True)
class PulseSpectrum:
    """Immutable spectral amplitude with cached scalar statistics.

    Attributes
    ----------
    carrier_frequency : float
        Carrier w_c in rad/s.
    spectral_width : float
        Width G in rad/s.
    normalization : float
        N such that int_0^inf |phi|^2 dw = 1.
    mean_frequency : float
        w_bar = int_0^inf w |phi(w)|^2 dw in rad/s.
    mean_wavelength : float
        2 pi c / w_bar in meters.
    """

    carrier_frequency: float
    spectral_width: float
    normalization: float
    mean_frequency: float
    mean_wavelength: float
    _shape: Callable = field(repr=False, compare=False)

    @property
    def max_frequency(self) -> float:
        """Certified positive-frequency support edge."""
        return self.carrier_frequency + TAIL_WIDTHS * self.spectral_width

    def value(self, omega):
        """phi(omega) for any real omega (vectorized)."""
        return self.normalization * self._shape(np.asarray(omega, dtype=float))

    def frequency_grid(self, n: int) -> np.ndarray:
        """Uniform grid on [0, max_frequency]."""
        return np.linspace(0.0, self.max_frequency, n)


def _gaussian_shape(carrier: float, width: float) -> Callable:
    def shape(omega):
        lp = np.exp(-((omega + carrier) ** 2) / (4.0 * width**2))
        lm = np.exp(-((omega - carrier) ** 2) / (4.0 * width**2))
        return 1j * (lp - lm)
    return shape


def make_spectrum(shape: Callable, carrier: float, width: float,
                  rtol: float = 1e-10) -> PulseSpectrum:
    """Normalize an arbitrary spectral shape and cache its statistics.

    shape(omega) must return the unnormalized complex amplitude for any
    real omega and satisfy shape(w) = conj(shape(-w)) and shape(0) = 0;
    these are enforced as invariants by the test suite rather than here.
    """
    if not 0 < carrier < np.inf:
        raise InvalidParameterError(f"carrier frequency must be finite and positive, got {carrier}")
    if not 0 < width < np.inf:
        raise InvalidParameterError(f"spectral width must be finite and positive, got {width}")

    wmax = carrier + TAIL_WIDTHS * width
    # shape on each refinement grid; the grid of 2n - 1 points keeps every
    # point of the one of n, so only its midpoints are new, evaluated as
    # one contiguous array (the bits of evaluating the whole grid)
    samples = {}

    def sampled(n: int):
        w = np.linspace(0.0, wmax, n)
        if n not in samples:
            coarse = samples.get((n + 1) // 2)
            if coarse is None:
                samples[n] = np.asarray(shape(w))
            else:
                fine = samples[n] = np.empty(n, dtype=coarse.dtype)
                fine[::2], fine[1::2] = coarse, shape(np.ascontiguousarray(w[1::2]))
        return w, samples[n]

    def norm2(n: int) -> float:
        w, values = sampled(n)
        return np.trapezoid(np.abs(values) ** 2, w)

    nrm = 1.0 / np.sqrt(refine_until_converged(norm2, 2001, rtol=rtol,
                                               what="spectrum normalization"))

    def first_moment(n: int) -> float:
        w, values = sampled(n)
        return np.trapezoid(w * np.abs(nrm * values) ** 2, w)

    wbar = refine_until_converged(first_moment, 2001, rtol=rtol,
                                  what="mean frequency")
    return PulseSpectrum(
        carrier_frequency=float(carrier),
        spectral_width=float(width),
        normalization=float(nrm),
        mean_frequency=float(wbar),
        mean_wavelength=2.0 * np.pi * C_LIGHT / float(wbar),
        _shape=shape,
    )


def make_gaussian_spectrum(carrier: float, width: float) -> PulseSpectrum:
    """Antisymmetrized Gaussian spectrum phi = i N [l(w) - l(-w)]."""
    if width > MAX_GAUSSIAN_WIDTH:
        raise InvalidParameterError(
            f"spectral width {width!r} rad/s overflows: the Gaussian "
            "exponent squares it past the floating-point range")
    return make_spectrum(_gaussian_shape(carrier, width), carrier, width)

