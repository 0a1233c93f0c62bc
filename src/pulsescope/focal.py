"""Focused broadband fields, rephased intensity, and resolution curves.

The focusing model is a thin nondispersive reference sphere of radius f
illuminated by a waist-sigma beam, valid in the paraxial regime
A = sigma/f << 1 with the focus in the far field of every retained
frequency. The model is the focal plane z = 0, where each spectral
component focuses to an Airy disk whose scale is set by its own
frequency,

    E(rho, w) = i e^{i w f/c} sqrt(2 U / (eps0 c)) phi(w)
                * J1(A w rho / c) / rho,

so the coherent superposition at the rephasing time t = f/c is
narrower than any single-color spot when the spectrum is broad. The
radial dependence enters only through A*w*rho/c; resolution curves are
therefore exactly scale invariant in the product A*rho. J1(A w rho/c)
has Fourier support |t| <= A rho/c in w, so every integral over w is
band-limited and takes a grid sized from its band (`_band_points`).
`AirySpectrum` is that spectrum, Airy-weighted: the field and chi are
Fourier sums of its columns, the rephased intensity and eta its `sums`.

Intensities here are reported in arbitrary units (only ratios enter the
resolution function); field amplitudes carry full SI prefactors because
the excitation chain needs absolute pulse areas.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .bessel import j1_over_x
from .constants import C_LIGHT, EPSILON_0, FIELD_CALIBRATION
from .errors import (
    GridRangeError,
    InvalidParameterError,
    InvalidStateError,
    NumericalConvergenceError,
)
from .quadrature import _chunk, fourier_sum, refine_until_converged, trapezoid_weights
from .spectra import PulseSpectrum

PARAXIAL_LIMIT = 0.2
FAR_FIELD_WAVELENGTHS = 50.0

SPECTRUM_REACH = 8.0  # exp(-G^2 t^2), the spectrum's transform, < e^-64 past 8 / G
# bound on the points of a `_band_points` frequency grid; the largest in
# use, an N = 64 oracle train's drive at grid scale 4, takes 2.4e5
MAX_FREQUENCY_POINTS = 1_000_000
# spot_size bisects after SECANT_BUDGET radii of pairs and nudged guesses
SECANT_BUDGET = 8


@dataclass(frozen=True)
class FocusingGeometry:
    """Reference sphere radius f and beam waist sigma, both in meters."""

    reference_sphere_radius: float
    waist: float

    def __post_init__(self):
        if not 0 < self.reference_sphere_radius < np.inf:
            raise InvalidParameterError("reference sphere radius must be finite and positive")
        if not 0 < self.waist < np.inf:
            raise InvalidParameterError("waist must be finite and positive")
        if self.numerical_aperture > PARAXIAL_LIMIT:
            warnings.warn(
                f"numerical aperture {self.numerical_aperture:.3g} exceeds the "
                f"paraxial limit {PARAXIAL_LIMIT}; results are extrapolated",
                stacklevel=2,
            )

    @property
    def numerical_aperture(self) -> float:
        return self.waist / self.reference_sphere_radius

    def far_field_valid(self, spectrum: PulseSpectrum) -> bool:
        """Focus at least 50 mean wavelengths from the reference sphere."""
        return self.reference_sphere_radius >= FAR_FIELD_WAVELENGTHS * spectrum.mean_wavelength


@dataclass
class RadialCurve:
    """Sampled resolution curve with its evaluator.

    radii start at zero and increase strictly, and values start at
    exactly 1. The evaluator recomputes the underlying continuous
    function at a radius (a float) or at an array of radii (an array,
    all in one call). spot_size brackets the crossing on the stored
    values and evaluates it only inside that bracket, in one or two
    calls of two radii per curve when the curve is smooth there.
    """

    radii: np.ndarray
    values: np.ndarray
    evaluator: Callable = field(repr=False, compare=False)

    def __post_init__(self):
        self.radii = np.asarray(self.radii, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.radii.size != self.values.size:
            raise InvalidParameterError("radii and values must have equal length")
        if self.radii.size == 0 or self.radii[0] != 0.0:
            raise InvalidParameterError("radial grid must start at rho = 0")
        if np.any(np.diff(self.radii) <= 0):
            raise InvalidParameterError("radial grid must increase strictly")
        if self.values[0] != 1.0:
            raise InvalidParameterError("resolution curves must start at exactly 1")


def _amplitude_prefactor(pulse_energy: float) -> float:
    if not 0 < pulse_energy < np.inf:
        raise InvalidParameterError(f"pulse energy must be finite and positive, got {pulse_energy}")
    return np.sqrt(2.0 * pulse_energy / (EPSILON_0 * C_LIGHT))


def _band_points(spectrum: PulseSpectrum, reach: float, grid_scale: float) -> int:
    """Odd point count of a grid on [0, max_frequency] of step at most 2 pi /
    (4 reach max(grid_scale, 1/4)): 4 times, and never under, the alias-free
    count for an integrand whose Fourier transform vanishes past |t| = reach.
    A count above MAX_FREQUENCY_POINTS raises GridRangeError."""
    dw = 2.0 * np.pi / (4.0 * max(grid_scale, 0.25) * reach)
    count = np.ceil(spectrum.max_frequency / dw) + 1
    if not count <= MAX_FREQUENCY_POINTS:
        raise GridRangeError(
            f"frequency grid needs {count:.3g} points for a reach of {reach:.3g} s, "
            f"above the limit of {MAX_FREQUENCY_POINTS}")
    return int(count) | 1


class AirySpectrum:
    """The focused `spectrum` at aperture A on the n-point grid `frequencies`
    of [0, max_frequency]: for radius rho and order k the column conj(phi
    h) (A/c) (i w)^k J1(x)/x, x = A w rho / c, h the trapezoid weights. Its
    Fourier sum at tau is the k-th tau derivative of order 0's, and its
    plain sum of order 1 i conj(int phi(w) J1(A w rho / c) / rho dw)."""

    def __init__(self, spectrum: PulseSpectrum, aperture: float, n: int):
        w = self.frequencies = spectrum.frequency_grid(n)
        self.spectrum, self.aperture = spectrum, aperture
        self._weights = np.conj(spectrum.value(w) * trapezoid_weights(w)
                                * (aperture / C_LIGHT))
        self._powers = {}  # ks -> the weights times (i w)^k, one column per k in ks

    @staticmethod
    def radii(rho) -> np.ndarray:
        """rho as a float array; one not finite and >= 0 raises InvalidParameterError."""
        radii = np.asarray(rho, dtype=float)
        if not np.all((radii >= 0) & (radii < np.inf)):
            raise InvalidParameterError(f"radial coordinate must be finite and >= 0, got {rho}")
        return radii

    def columns(self, rho, order: int = 0) -> np.ndarray:
        """The order-k columns of radii rho, already `radii`, of shape (n,) + shape(rho)."""
        w = self.frequencies.reshape((-1,) + (1,) * np.ndim(rho))
        # i^k w^k, as numpy's power of the complex 1j w is slow at k = 1
        return (self._weights.reshape(w.shape) * (1j ** order * w ** order)
                * j1_over_x(self.aperture * w * rho / C_LIGHT))

    def sums(self, rho, ks=(1,), tau: float = 0.0) -> np.ndarray:
        """Sums over w of the order-k columns (k in the tuple ks) of radii rho, already
        `radii`, times e^{i w tau}: shape(rho) + (len(ks),), one real product of J1(x)/x.
        The weighted vectors of a tuple ks are made once per object."""
        w = self.frequencies
        if ks not in self._powers:
            self._powers[ks] = np.stack([self._weights * (1j ** k * w ** k) for k in ks], -1)
        v = self._powers[ks] * np.exp(1j * (w * tau))[:, None] if tau else self._powers[ks]
        x = np.multiply.outer(rho, self.aperture * w / C_LIGHT)
        return (j1_over_x(x) @ v.view(float)).view(complex)


def focal_field_time(
    geometry: FocusingGeometry,
    spectrum: PulseSpectrum,
    pulse_energy: float,
    rho: float,
    t,
    grid_scale: float = 1.0,
):
    """Real time-domain field at radius rho in the focal plane (V/m), at
    times t (s) from the rephasing instant f/c: it peaks at t = 0.

    Synthesized as (kappa / pi) Re int_0^inf E(rho, w) e^{-i w (t + f/c)} dw
    by the reality fold phi(w) = conj(phi(-w)), kappa the package field
    calibration constant: -(kappa/pi) sqrt(2U/(eps0 c)) times Re of one
    `fourier_sum` at t of the order-1 `AirySpectrum` column, on the
    `_band_points` grid of max|t| + A rho / c + SPECTRUM_REACH / G. A
    radius not finite and >= 0, or a t not finite, raises
    InvalidParameterError, a grid over MAX_FREQUENCY_POINTS GridRangeError.
    """
    rho = float(AirySpectrum.radii(rho))        # it sizes the grid
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    if not np.all(np.isfinite(t)):
        raise InvalidParameterError("times must be finite")
    if t.size > 1:
        dt = np.diff(t)
        needed = 2.0 * np.pi / (spectrum.carrier_frequency + 6.0 * spectrum.spectral_width) / 4.0
        if np.max(dt) > needed:
            raise NumericalConvergenceError(
                "time grid does not resolve the field oscillation",
                max_step=float(np.max(dt)), required=needed,
            )
    reach = (float(np.max(np.abs(t), initial=0.0)) + geometry.numerical_aperture * rho / C_LIGHT
             + SPECTRUM_REACH / spectrum.spectral_width)
    airy = AirySpectrum(spectrum, geometry.numerical_aperture,
                        _band_points(spectrum, reach, grid_scale))
    out = fourier_sum(airy.frequencies, t, airy.columns(rho, 1)).real * (
        -_amplitude_prefactor(pulse_energy) * FIELD_CALIBRATION / np.pi)
    return float(out[0]) if scalar else out


def focal_intensity_rephased(
    geometry: FocusingGeometry,
    spectrum: PulseSpectrum,
    rho,
    grid_scale: float = 1.0,
) -> np.ndarray:
    """Rephasing-time intensity |int_0^inf dw phi(w) J1(A w rho/c)/rho|^2
    in arbitrary units (only ratios are meaningful downstream): |order-1
    `AirySpectrum.sums`|^2 for blocks of radii of at most CHUNK_ELEMENTS
    elements, on a grid holding the band max(A rho, mean wavelength) / c +
    SPECTRUM_REACH / G (so a curve's samples and later radii share it),
    refined n -> 2n - 1 until the amplitudes agree within 1e-12 of their
    peak (a real part of phi converges only as h^4)."""
    rhos = AirySpectrum.radii(rho).ravel()          # they size the grid
    if rhos.size == 0:
        return np.zeros(np.shape(rho))
    a = geometry.numerical_aperture
    reach = (max(a * np.max(rhos, initial=0.0), spectrum.mean_wavelength) / C_LIGHT
             + SPECTRUM_REACH / spectrum.spectral_width)

    def amplitudes(n: int) -> np.ndarray:
        airy = AirySpectrum(spectrum, a, n)
        rows = _chunk(airy.frequencies)
        return np.concatenate([airy.sums(rhos[i0:i0 + rows])[:, 0]
                               for i0 in range(0, rhos.size, rows)])

    amp = refine_until_converged(amplitudes, _band_points(spectrum, reach, grid_scale),
                                 rtol=1e-12, what="rephased focal amplitude")
    out = amp.real**2 + amp.imag**2
    return out.reshape(np.shape(rho)) if np.ndim(rho) else float(out[0])


def resolution_curve(quantity: Callable, rho_max: float,
                     n_points: int) -> RadialCurve:
    """Resolution curve 2 q(rho) / [q(0) + q(rho)] of a radial quantity q.

    quantity maps an array of radii to the sequence of their q, and is
    called once for the n_points samples (an integer >= 1; 1 keeps only
    rho = 0). The samples take q(0) from the first radius, and q(0) = 0
    raises InvalidStateError. The evaluator, exactly 1 at rho = 0, takes
    a radius or an array of radii and calls quantity once with its
    nonzero radii; spot_size searches it from the stored samples.
    """
    if (isinstance(n_points, bool) or not isinstance(n_points, (int, np.integer))
            or n_points < 1):
        raise InvalidParameterError(f"n_points must be an integer >= 1, got {n_points!r}")
    radii = np.linspace(0.0, rho_max, n_points)
    samples = np.asarray(quantity(radii), dtype=float)
    q0 = samples[0]
    if q0 == 0.0:
        raise InvalidStateError(
            "focal value vanishes; the resolution ratio is undefined")

    def ratio(q):
        return 2.0 * q / (q0 + q)

    def evaluate(r):
        r = np.asarray(r, dtype=float)
        out, nonzero = np.ones(r.shape), r != 0.0
        if nonzero.any():
            out[nonzero] = ratio(np.asarray(quantity(r[nonzero]), dtype=float))
        return out if out.ndim else float(out)

    values = ratio(samples)
    values[0] = 1.0
    return RadialCurve(radii, values, evaluate)


def intensity_resolution_curve(
    geometry: FocusingGeometry,
    spectrum: PulseSpectrum,
    rho_max: Optional[float] = None,
    n_points: int = 81,
    grid_scale: float = 1.0,
) -> RadialCurve:
    """Sampled intensity-resolution curve with its evaluator (`resolution_curve`)."""
    if rho_max is None:
        # one Airy-scale unit past the expected half crossing
        rho_max = spectrum.mean_wavelength / geometry.numerical_aperture
    return resolution_curve(
        lambda r: focal_intensity_rephased(geometry, spectrum, r, grid_scale),
        rho_max, n_points)


def _inverse_cubic(radii, gaps) -> float:
    """The radius at g = 0 of the cubic in g through the four points
    (gaps[i], radii[i]), in plain arithmetic (Lagrange's form):
    sum_i radii[i] prod_{j != i} gaps[j] / (gaps[j] - gaps[i])."""
    root = 0.0
    for i, term in enumerate(radii):
        for j, g in enumerate(gaps):
            if j != i:
                term *= g / (g - gaps[i])
        root += term
    return root


def spot_size(curve: RadialCurve, threshold: float = 0.5,
              rtol: float = 1e-6) -> float:
    """Smallest radius where a resolution curve crosses the threshold.

    Brackets the crossing on the stored samples [lo, hi] and narrows the
    bracket [a, b] on the curve's evaluator from a guess: first the
    inverse cubic through the four stored samples around the crossing,
    if they decrease strictly, then the secant through the last two
    points evaluated. A trial is one of three kinds. A trusted guess
    (the cubic, or a secant step of at most sqrt(rtol) hi / 2, whose
    error on a curve that bends on the scale of hi is under rtol hi / 4)
    is the pair guess +/- rtol hi / 4, in one call, if both lie inside
    [a, b]: a pair that straddles the crossing closes the bracket. Any
    other guess inside [a, b] is one radius, moved rtol hi / 4 toward the
    end that moved last, at least rtol hi / 4 inside [a, b]. With no
    guess inside [a, b], or past SECANT_BUDGET radii, it is the midpoint.
    No radius is evaluated twice, and no stored sample. The search ends
    once b - a <= rtol hi / 2 (rtol hi where bisecting that far would
    take more trials than a plain bisection of [lo, hi]) and returns the
    secant root of [a, b], kept within rtol hi / 2 of both ends: within
    rtol hi / 2 of the crossing whenever the evaluator crosses the
    threshold once within [lo, hi], and far closer on a smooth curve.

    threshold must be a number in (0, 1], rtol a finite number in
    [4 eps, 1).
    """
    if not (isinstance(threshold, numbers.Real) and 0.0 < threshold <= 1.0):
        raise InvalidParameterError(f"threshold must lie in (0, 1], got {threshold!r}")
    # below 4 eps, b - a cannot shrink under rtol * hi and the search never ends
    if not (isinstance(rtol, numbers.Real) and 4.0 * np.finfo(float).eps <= rtol < 1.0):
        raise InvalidParameterError(f"rtol must lie in [4 eps, 1), got {rtol!r}")
    if threshold == 1.0:
        return 0.0
    below = np.nonzero(curve.values <= threshold)[0]
    if below.size == 0:
        raise GridRangeError(
            f"curve never reaches {threshold} within rho <= {curve.radii[-1]!r}; "
            "extend the radial grid"
        )
    hi_idx = below[0]  # not 0: values[0] == 1 > threshold
    hi = float(curve.radii[hi_idx])
    # the stored samples start the bracket, so it costs nothing until the
    # first trial; a steps up on "above", b down on "not above"
    a, b = float(curve.radii[hi_idx - 1]), hi
    ga, gb = (curve.values[hi_idx - 1:hi_idx + 1] - threshold).tolist()
    last = [(a, ga), (b, gb)]  # the two points evaluated last
    guess, trusted = np.nan, True
    gaps = curve.values[max(hi_idx - 2, 0):hi_idx + 2] - threshold
    if gaps.size == 4 and np.all(np.diff(gaps) < 0):
        guess = _inverse_cubic(curve.radii[hi_idx - 2:hi_idx + 2].tolist(), gaps.tolist())
    margin = 0.25 * rtol * hi
    start, width = b - a, 2.0 * margin
    moved = spent = 0
    while b - a > width:
        if spent >= SECANT_BUDGET and (
                np.ceil(np.log2((b - a) / width)) > np.ceil(np.log2(start / (rtol * hi)))):
            width = rtol * hi
            continue
        if not (a < guess < b and spent < SECANT_BUDGET):
            xs = [0.5 * (a + b)]
        elif trusted and spent + 2 <= SECANT_BUDGET and a < guess - margin < guess + margin < b:
            xs = [guess - margin, guess + margin]
        else:
            xs = [min(max(guess + moved * margin, a + margin), b - margin)]
        gs = (curve.evaluator(np.array(xs)) - threshold).tolist()
        spent += len(xs)
        for x, g in zip(xs, gs):
            if not a < x < b:
                continue  # the pair's upper point, past the lower one's new b
            if g > 0:
                a, ga, moved = x, g, 1
            else:
                b, gb, moved = x, g, -1
        if [a, b] == xs:
            break  # the pair straddles the crossing
        last = (last + list(zip(xs, gs)))[-2:]
        (x0, g0), (x1, g1) = last
        guess = x1 - g1 * (x1 - x0) / (g1 - g0) if g1 != g0 else np.nan
        trusted = abs(guess - x1) <= 0.5 * np.sqrt(rtol) * hi
    root = b - gb * (b - a) / (gb - ga)
    return float(min(max(root, b - 0.5 * rtol * hi), a + 0.5 * rtol * hi))
