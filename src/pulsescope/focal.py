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
therefore exactly scale invariant in the product A*rho.

Intensities here are reported in arbitrary units (only ratios enter the
resolution function); field amplitudes carry full SI prefactors because
the excitation chain needs absolute pulse areas.
"""

from __future__ import annotations

import io
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
from .quadrature import kernel_transform, trapezoid_weights
from .spectra import PulseSpectrum

PARAXIAL_LIMIT = 0.2
FAR_FIELD_WAVELENGTHS = 50.0

CURVE_KINDS = ("intensity", "resolution")
# frequency points of the rephased-intensity transform at grid_scale 1
INTENSITY_GRID_POINTS = 6001
# spot_size's regula falsi keeps its steps SECANT_MARGIN * hi inside its
# bracket, far above any evaluator's rounding, and stops after
# SECANT_BUDGET evaluations
SECANT_MARGIN = 1e-9
SECANT_BUDGET = 8


@dataclass(frozen=True)
class FocusingGeometry:
    """Reference sphere radius f and beam waist sigma, both in meters."""

    reference_sphere_radius: float
    waist: float

    def __post_init__(self):
        if self.reference_sphere_radius <= 0:
            raise InvalidParameterError("reference sphere radius must be positive")
        if self.waist <= 0:
            raise InvalidParameterError("waist must be positive")
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
    """Sampled radial profile with an optional evaluator.

    radii start at zero and increase strictly; kind tags the unit
    ("intensity", "resolution"). The evaluator, when present, recomputes
    the underlying continuous function at any radius. spot_size brackets
    the crossing on the stored values and evaluates it only inside that
    bracket, a few times per curve.
    """

    radii: np.ndarray
    values: np.ndarray
    kind: str
    evaluator: Optional[Callable[[float], float]] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self):
        self.radii = np.asarray(self.radii, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.kind not in CURVE_KINDS:
            raise InvalidParameterError(f"unknown curve kind {self.kind!r}")
        if self.radii.size != self.values.size:
            raise InvalidParameterError("radii and values must have equal length")
        if self.radii[0] != 0.0:
            raise InvalidParameterError("radial grid must start at rho = 0")
        if np.any(np.diff(self.radii) <= 0):
            raise InvalidParameterError("radial grid must increase strictly")
        if self.kind == "resolution" and self.values[0] != 1.0:
            raise InvalidParameterError("resolution curves must start at exactly 1")

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("rho_m,value,kind\n")
        for r, v in zip(self.radii, self.values):
            buf.write(f"{float(r)!r},{float(v)!r},{self.kind}\n")
        return buf.getvalue()


def _amplitude_prefactor(pulse_energy: float) -> float:
    if pulse_energy <= 0:
        raise InvalidParameterError(f"pulse energy must be positive, got {pulse_energy}")
    return np.sqrt(2.0 * pulse_energy / (EPSILON_0 * C_LIGHT))


def _airy_kernel(geometry: FocusingGeometry, omega, rho: float):
    """J1(A w rho / c) / rho with the removable rho -> 0 limit A w / (2 c)."""
    a = geometry.numerical_aperture
    x = a * np.asarray(omega, dtype=float) * rho / C_LIGHT
    return (a * np.asarray(omega, dtype=float) / C_LIGHT) * j1_over_x(x)


def _synthesis_grid(spectrum: PulseSpectrum, tau_span: float, grid_scale: float = 1.0) -> np.ndarray:
    """Frequency grid dense enough that trapezoid synthesis at delay tau_span
    has negligible aliasing."""
    wmax = spectrum.max_frequency
    n = int(max(4001, 16.0 * tau_span * wmax)) | 1
    n = int(n * max(grid_scale, 0.05)) | 1
    return np.linspace(0.0, wmax, n)


def focal_field_time(
    geometry: FocusingGeometry,
    spectrum: PulseSpectrum,
    pulse_energy: float,
    rho: float,
    t,
    grid_scale: float = 1.0,
):
    """Real time-domain field at radius rho in the focal plane (V/m).

    Synthesized as (kappa / pi) * Re int_0^inf E(rho, w) e^{-i w t} dw
    using the reality fold phi(w) = conj(phi(-w)); kappa is the package
    field calibration constant. The peak sits at the rephasing time
    t = f/c.

    On a uniform t the field is one chirp z-transform (`kernel_transform`),
    which corrects to first order the jitter tau = t - f/c takes from
    rounding f/c.
    """
    if rho < 0:
        raise InvalidParameterError(f"radial coordinate must be >= 0, got {rho}")
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    t_rephase = geometry.reference_sphere_radius / C_LIGHT
    tau = t - t_rephase
    if t.size > 1:
        dt = np.diff(t)
        needed = 2.0 * np.pi / (spectrum.carrier_frequency + 6.0 * spectrum.spectral_width) / 4.0
        if np.max(dt) > needed:
            raise NumericalConvergenceError(
                "time grid does not resolve the field oscillation",
                max_step=float(np.max(dt)), required=needed,
            )
    w = _synthesis_grid(spectrum, float(np.max(np.abs(tau))) + 1.0 / spectrum.spectral_width,
                        grid_scale)
    kern = 1j * spectrum.value(w) * _airy_kernel(geometry, w, rho) * trapezoid_weights(w)
    out = kernel_transform(w, tau, [(np.cos, kern.real), (np.sin, kern.imag)])
    out *= _amplitude_prefactor(pulse_energy) * FIELD_CALIBRATION / np.pi
    return float(out[0]) if scalar else out


def focal_intensity_rephased(
    geometry: FocusingGeometry,
    spectrum: PulseSpectrum,
    rho,
    grid_scale: float = 1.0,
) -> np.ndarray:
    """Rephasing-time intensity |int_0^inf dw phi(w) J1(A w rho/c)/rho|^2
    in arbitrary units (only ratios are meaningful downstream), as one
    J1(x)/x kernel transform for all radii."""
    rhos = np.atleast_1d(np.asarray(rho, dtype=float))
    if np.any(rhos < 0):
        raise InvalidParameterError("radial coordinates must be >= 0")
    w = spectrum.frequency_grid(int(INTENSITY_GRID_POINTS * max(grid_scale, 0.05)) | 1)
    scale = geometry.numerical_aperture * w / C_LIGHT
    g = spectrum.value(w) * scale * trapezoid_weights(w)
    halves = np.stack([g.real, g.imag], axis=1)
    # only the nonzero halves: the package's spectra are purely imaginary
    amp = kernel_transform(scale, rhos, [(j1_over_x, halves[:, halves.any(axis=0)])])
    out = np.sum(amp**2, axis=1)
    return out if np.ndim(rho) else float(out[0])


def resolution_curve(quantity: Callable, rho_max: float,
                     n_points: int) -> RadialCurve:
    """Resolution curve 2 q(rho) / [q(0) + q(rho)] of a radial quantity q.

    quantity maps an array of radii to the sequence of their q, and is
    called once for the n_points samples (an integer >= 1; 1 keeps only
    rho = 0). The samples take q(0) from the first radius. The
    evaluator, exactly 1 at rho = 0, calls quantity with one radius; it
    is what spot_size searches, starting from the stored samples.
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

    def evaluate(r: float) -> float:
        return 1.0 if r == 0.0 else float(ratio(quantity(np.array([r]))[0]))

    values = ratio(samples)
    values[0] = 1.0
    return RadialCurve(radii, values, "resolution", evaluate)


def intensity_resolution_curve(
    geometry: FocusingGeometry,
    spectrum: PulseSpectrum,
    rho_max: Optional[float] = None,
    n_points: int = 81,
    grid_scale: float = 1.0,
) -> RadialCurve:
    """Sampled intensity-resolution curve with a one-radius evaluator."""
    if rho_max is None:
        # one Airy-scale unit past the expected half crossing
        rho_max = spectrum.mean_wavelength / geometry.numerical_aperture
    return resolution_curve(
        lambda r: focal_intensity_rephased(geometry, spectrum, r, grid_scale),
        rho_max, n_points)


def spot_size(curve: RadialCurve, threshold: float = 0.5,
              rtol: float = 1e-6) -> float:
    """Smallest radius where a resolution curve crosses the threshold.

    Brackets on the stored samples [lo, hi], then returns bit for bit
    what bisecting the curve's evaluator to relative tolerance rtol
    returns, in fewer evaluations. Illinois regula falsi, started from
    the two samples' stored values, first narrows an evaluated bracket
    [a, b] to half the bisection's last width, or stops after
    SECANT_BUDGET evaluations. The bisection then runs unchanged on
    [lo, hi], except that a midpoint more than SECANT_MARGIN * hi below
    a counts as above the threshold, and one as far above b as below it,
    without an evaluation; each other midpoint is evaluated once. That
    is the bisection's own answer whenever the evaluator crosses the
    threshold once within the sample bracket, as the bisection assumes.

    rtol must be a finite number in [4 eps, 1). A curve without an
    evaluator raises InvalidParameterError.
    """
    if curve.kind != "resolution":
        raise InvalidParameterError("spot size is defined on resolution curves")
    if curve.evaluator is None:
        raise InvalidParameterError(
            "spot size searches the curve's evaluator; this curve has none")
    if not 0.0 < threshold <= 1.0:
        raise InvalidParameterError(f"threshold must lie in (0, 1], got {threshold}")
    # below 4 eps, hi - lo cannot shrink under rtol * hi and bisection never ends
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
    hi_idx = below[0]
    if hi_idx == 0:
        return 0.0
    lo, hi = curve.radii[hi_idx - 1], curve.radii[hi_idx]
    seen = {}

    def above(r) -> bool:
        if r not in seen:
            seen[r] = curve.evaluator(r)
        return seen[r] > threshold

    # phase 1: the stored samples start the bracket, so it costs nothing
    # until the first step; a steps up on "above", b down on "not above"
    margin = SECANT_MARGIN * hi
    a, b = lo, hi
    ga, gb = curve.values[hi_idx - 1] - threshold, curve.values[hi_idx] - threshold
    moved = 0
    # half the bisection's last width; the floor above 2 margins keeps
    # each clamped step strictly inside the bracket
    width = max(0.5 * rtol * hi, 4.0 * margin)
    for _ in range(SECANT_BUDGET):
        if b - a <= width:
            break
        x = b - gb * (b - a) / (gb - ga)
        x = min(max(x, a + margin), b - margin) if np.isfinite(x) else 0.5 * (a + b)
        if above(x):
            a, ga = x, seen[x] - threshold
            gb = 0.5 * gb if moved > 0 else gb  # Illinois: b kept twice
            moved = 1
        else:
            b, gb = x, seen[x] - threshold
            ga = 0.5 * ga if moved < 0 else ga
            moved = -1
    # phase 2: the plain bisection, answered outside [a - margin, b + margin]
    while (hi - lo) > rtol * hi:
        mid = 0.5 * (lo + hi)
        if mid < a - margin or (mid <= b + margin and above(mid)):
            lo = mid
        else:
            hi = mid
    return float(0.5 * (lo + hi))
