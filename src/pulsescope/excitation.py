"""Pulse areas, weak-field excitation probability, and imaging rate.

A two-level system at the focus is driven by a train of N identical
ultrashort pulses. Because the spectrum carries no DC component, the
accumulated pulse area

    chi(rho, t) = -(d_eg / hbar) int_-inf^t E(rho, t') dt'

returns to zero after each pulse, so the system cannot stay excited at
any order of the classical drive alone. Excitation survives only through
the counterrotating part of the coupling to the free photon modes: the
system is left excited *and* a photon is emitted. In the weak-field
regime the paper's sudden-approximation formula for that probability is

    p_e(rho) = f(rho) * 2 N Gamma0 / (pi w0^3),
    f(rho)   = int_0^inf dw_k w_k^3 | int dtau e^{i w_k tau}
               sin(w0 tau) chi^2(rho, tau) |^2,

with tau measured from the pulse center (the rephasing time), where
chi(rho, tau) is exactly odd and chi^2 even. p_e depends on the field
intensity, not its sign, which is what makes the excitation profile as
narrow as the focused intensity itself.

This formula is not the first-order emission probability: it keeps
the sin(w0 tau) phase but drops propagator phases of the same order,
and exceeds the first-order probability by a factor that tends to 6 in
the ultrafast limit (5.55 at width/carrier 10 and 5.99 at 30 against
the exact propagator in `oracle`). See README "Acceptance status".

The free-space dipole relation Gamma0 = d^2 w0^3 / (3 pi eps0 hbar c^3)
is isolated in one function so an alternative convention can be swapped.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .bessel import j1_over_x
from .constants import C_LIGHT, EPSILON_0, FIELD_CALIBRATION, HBAR
from .errors import (
    GridRangeError,
    InvalidParameterError,
    NumericalConvergenceError,
    RegimeViolationError,
)
from .focal import (
    FocusingGeometry,
    RadialCurve,
    _amplitude_prefactor,
    resolution_curve,
)
from .quadrature import (
    certified_tail_cutoff,
    kernel_transform,
    oscillatory_cos_sin,
    trapezoid_weights,
)
from .spectra import PulseSpectrum

RESONANCE_TOLERANCE = 1e-6
WEAK_FIELD_MAX_ETA = 0.5
UNITARITY_BUDGET = 0.1
# bound on the points of the inner emission transform's tau grid
MAX_TAU_POINTS = 1_000_000
# radii whose f one f_integral call computes together; a block's arrays
# grow with it (the reference run peaks about 1 MB higher at 8 than at 1,
# and 4 MB at 33)
RADII_PER_BLOCK = 8


def dipole_from_spontaneous_rate(transition_frequency: float,
                                 spontaneous_rate: float) -> float:
    """|d_eg| in C*m from Gamma0 = d^2 w0^3 / (3 pi eps0 hbar c^3)."""
    try:
        d2 = (3.0 * np.pi * EPSILON_0 * HBAR * C_LIGHT**3 * spontaneous_rate
              / transition_frequency**3)
    except (OverflowError, ZeroDivisionError):
        d2 = 0.0
    if not 0.0 < d2 < np.inf:
        raise InvalidParameterError(
            f"dipole from spontaneous rate {spontaneous_rate!r} rad/s and "
            f"transition frequency {transition_frequency!r} rad/s is out of "
            "floating-point range")
    return np.sqrt(d2)


@dataclass(frozen=True)
class TwoLevelSystem:
    """Optical transition: frequency w0, free-space rate Gamma0, and
    inhomogeneous broadening gamma_c (all rad/s)."""

    transition_frequency: float
    spontaneous_rate: float
    inhomogeneous_broadening: float = 0.0

    def __post_init__(self):
        if self.transition_frequency <= 0:
            raise InvalidParameterError("transition frequency must be positive")
        if self.spontaneous_rate <= 0:
            raise InvalidParameterError("spontaneous rate must be positive")
        if self.inhomogeneous_broadening < 0:
            raise InvalidParameterError("inhomogeneous broadening must be >= 0")

    @property
    def dephasing_rate(self) -> float:
        return 0.5 * self.spontaneous_rate + self.inhomogeneous_broadening

    @property
    def dipole_magnitude(self) -> float:
        return dipole_from_spontaneous_rate(self.transition_frequency,
                                            self.spontaneous_rate)


@dataclass(frozen=True)
class PulseTrainConfig:
    """N pulses of energy U separated by T (N >= 0 allowed; 0 means no drive)."""

    pulse_count: int
    period: float
    pulse_energy: float

    def __post_init__(self):
        if self.pulse_count < 0 or int(self.pulse_count) != self.pulse_count:
            raise InvalidParameterError("pulse count must be a nonnegative integer")
        if self.period <= 0:
            raise InvalidParameterError("pulse period must be positive")
        if self.pulse_energy <= 0:
            raise InvalidParameterError("pulse energy must be positive")

    def resonance_offset(self, transition_frequency: float) -> float:
        """Distance of w0 T / (2 pi) from the nearest integer (nan if w0 T overflows)."""
        cycles = transition_frequency * self.period / (2.0 * np.pi)
        return abs(cycles - round(cycles)) if np.isfinite(cycles) else np.nan

    def validate_against(self, spectrum: PulseSpectrum,
                         tls: TwoLevelSystem) -> None:
        if self.period * spectrum.spectral_width < 10.0:
            warnings.warn(
                "pulse period is not long against the pulse duration "
                f"(T*Gamma = {self.period * spectrum.spectral_width:.3g} < 10)",
                stacklevel=2,
            )
        budget = tls.dephasing_rate * self.pulse_count * self.period
        if budget > UNITARITY_BUDGET:
            warnings.warn(
                f"unitarity budget gamma*N*T = {budget:.3g} exceeds "
                f"{UNITARITY_BUDGET}; dynamics are not safely unitary",
                stacklevel=2,
            )


@dataclass(frozen=True)
class ExcitationResult:
    """Excitation probability with its building blocks and validity flags."""

    p_e: float
    eta: float
    f_value: float
    flags: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"


class PulseAreaSynthesis:
    """Single-pulse area chi(rho, tau) for one spectrum, geometry, pulse
    energy and transition, at any radius.

    chi is the running integral of the focal field from t = -inf; with
    phi(0) = 0 each spectral component contributes sin(w tau)/w, giving

        chi(rho, tau) = (d/hbar) (kappa/pi) sqrt(2U/(eps0 c))
                        * Re int_0^inf (phi(w) B(w, rho) / w) e^{-i w tau} dw

    with B the Airy kernel J1(A w rho / c)/rho and tau measured from the
    rephasing time. Exact for every tau, so no cumulative quadrature
    error enters the area.

    The frequency grid, the trapezoid-weighted spectrum and the
    prefactor do not depend on rho, so one instance serves a whole run:
    `eta` scans chi(0, tau) on the first tau grid of `f_integral` through
    it, and f is computed once per radius and kept, so `probability` at a
    radius already computed is a lookup. Each chi evaluation is one
    chirp z-transform of the spectrum (`kernel_transform`); nothing else
    is kept. The radii of an array (the excitation curve's samples) are
    computed RADII_PER_BLOCK at a time, each block as the columns of one
    `f_integral` call, so they share every chi and emission transform.
    """

    def __init__(self, geometry: FocusingGeometry, spectrum: PulseSpectrum,
                 pulse_energy: float, tls: TwoLevelSystem,
                 grid_scale: float = 1.0):
        self.tls = tls
        self.spectrum = spectrum
        self.grid_scale = grid_scale
        n = int(max(4001, 24.0 * spectrum.max_frequency / spectrum.spectral_width)
                * max(grid_scale, 0.05)) | 1
        self.frequencies = spectrum.frequency_grid(n)
        self.aperture = geometry.numerical_aperture
        weighted = (spectrum.value(self.frequencies)
                    * trapezoid_weights(self.frequencies)
                    * (self.aperture / C_LIGHT))
        # the real and imaginary parts of the spectrum, each with its kernel
        # (the built-in spectrum is purely imaginary, so chi needs sin only)
        self._parts = [(kernel, np.ascontiguousarray(part)) for kernel, part
                       in ((np.cos, weighted.real), (np.sin, weighted.imag))
                       if part.any()] or [(np.sin, weighted.imag)]
        self.prefactor = (tls.dipole_magnitude / HBAR
                          * FIELD_CALIBRATION / np.pi
                          * _amplitude_prefactor(pulse_energy))
        self._f_values = {}

    def chi(self, rho) -> Callable:
        """chi(rho, tau) as a function of tau (s, scalar or array). For an
        array of radii it returns one column per radius, all from one
        transform."""
        radii = np.atleast_1d(np.asarray(rho, dtype=float))
        if np.any(radii < 0):
            raise InvalidParameterError(f"radial coordinate must be >= 0, got {rho}")
        w, a = self.frequencies, self.aperture
        terms = [(kernel, np.empty((w.size, radii.size)))
                 for kernel, _ in self._parts]
        for j, r in enumerate(radii):
            airy = j1_over_x(a * w * r / C_LIGHT)
            for (_, part), (_, c) in zip(self._parts, terms):
                c[:, j] = part * airy

        def chi(tau):
            out = kernel_transform(w, tau, terms) * self.prefactor
            out = out.reshape(np.shape(tau) + np.shape(rho))
            return out if out.ndim else float(out)

        return chi

    def probability(self, train: PulseTrainConfig, rho):
        """(p_e, f) at one radius for a train of this synthesis' pulses, or
        arrays of both over an array of radii. f is computed once per
        radius; the radii not yet computed go to `f_integral` in blocks of
        RADII_PER_BLOCK."""
        radii = np.asarray(rho, dtype=float)
        tls = self.tls
        f_val = np.zeros(radii.shape)
        if train.pulse_count > 0:
            todo = [r for r in dict.fromkeys(radii.ravel().tolist())
                    if r not in self._f_values]
            for i in range(0, len(todo), RADII_PER_BLOCK):
                block = todo[i:i + RADII_PER_BLOCK]
                self._f_values.update(zip(block, np.atleast_1d(f_integral(
                    tls, self.chi(np.array(block)), self.spectrum,
                    self.grid_scale))))
            f_val = np.array([self._f_values[r] for r in radii.ravel().tolist()]
                             ).reshape(radii.shape)
        p_e = (
            f_val * 2.0 * train.pulse_count * tls.spontaneous_rate
            / (np.pi * tls.transition_frequency**3)
        )
        if not np.all(np.isfinite(p_e)):
            raise InvalidParameterError(
                f"transition frequency {tls.transition_frequency!r} rad/s is "
                f"out of floating-point range: "
                f"p_e = {float(p_e[~np.isfinite(p_e)][0])!r}")
        if np.any(p_e > 1.0):
            raise RegimeViolationError(
                f"p_e = {np.max(p_e):.3g} > 1: inputs are outside perturbative validity"
            )
        return (p_e, f_val) if radii.ndim else (float(p_e), float(f_val))


def eta(
    geometry: FocusingGeometry,
    spectrum: PulseSpectrum,
    pulse_energy: float,
    tls: TwoLevelSystem,
    grid_scale: float = 1.0,
    synthesis: PulseAreaSynthesis | None = None,
) -> float:
    """Maximum pulse area at the focus: a scan of the tau grid of
    `f_integral`, then twelve zooms that each resample the two intervals
    around the largest sample 4x finer.

    `synthesis`, built from the same inputs, supplies chi; without it eta
    builds a synthesis of its own. The scan is one chirp z-transform; a
    9-point zoom, too short for one, is a 9-row sin block.
    """
    if synthesis is None:
        synthesis = PulseAreaSynthesis(geometry, spectrum, pulse_energy, tls,
                                       grid_scale)
    w0 = tls.transition_frequency
    taus = _tau_grid(_photon_band(synthesis.spectrum, w0),
                     synthesis.grid_scale) / w0
    chi = synthesis.chi(0.0)
    values = chi(taus)
    for _zoom in range(12):
        i = int(np.argmax(np.abs(values)))
        lo, hi = taus[max(i - 1, 0)], taus[min(i + 1, taus.size - 1)]
        taus = np.linspace(lo, hi, 9)
        values = chi(taus)
    return float(np.max(np.abs(values)))


def _photon_band(spectrum: PulseSpectrum, w0: float):
    """(ghat, first panel, panel step, resolved band qmax) of the
    photon-frequency integral of f, in units of w0; ghat is the spectral
    width over w0.

    The emission kernel sin(w0 tau) chi^2 has bands at the odd
    harmonics w0 and |2 w_c +/- w0| (w_c the carrier). For the built-in
    spectrum each is a Gaussian exp(-dq^2 / 4 ghat^2) in the integrand,
    below 1e-12 of its peak 10.5 ghat out, so the support ends at edge =
    2 w_c + w0 + 11 ghat. Narrower than w0, the bands stand apart: the
    first panel runs to the edge, so the stop of `certified_tail_cutoff`
    neither falls in a gap nor joins two panel grids across a band. As
    wide as w0 (the `ultrafast` flag), they merge into one, whose
    integrand stops near 14 ghat, on panels of 4 ghat (at least to the top
    band) and then 2 ghat. The step, max(2 ghat, 1), is at most 64 ghat,
    so the cutoff's spacing of at most step/128 samples every band at
    ghat/2 or finer. qmax holds every such cutoff doubled.
    """
    pulse_width = 1.0 / spectrum.spectral_width   # the unit of the tau span
    ghat = 1.0 / (w0 * pulse_width)
    top = 2.0 * spectrum.carrier_frequency / w0 + 1.0
    edge = top + 11.0 * ghat
    step = min(max(2.0 * ghat, 1.0), 64.0 * ghat)
    start = edge if spectrum.spectral_width < w0 else max(4.0 * ghat, top)
    return ghat, start, step, max(35.0 * ghat, 2.0 * (edge + 2.0 * step))


def _tau_grid(band, grid_scale: float) -> np.ndarray:
    """Uniform tau grid, in 1/w0, of the inner emission transform: +/- 12
    pulse widths, resolving the photon frequencies up to the qmax of
    band (`_photon_band`). A grid of more than MAX_TAU_POINTS points
    raises GridRangeError.
    """
    ghat, _, _, qmax = band
    tau_span = 12.0 / ghat                   # 12 pulse widths, in 1/w0
    dt = 2.0 * np.pi / (5.0 * (qmax + 1.0)) / max(grid_scale, 0.05)
    count = 2.0 * tau_span / dt
    if not count <= MAX_TAU_POINTS:
        raise GridRangeError(
            f"emission tau grid needs {count:.3g} points, above the limit of "
            f"{MAX_TAU_POINTS}, at spectral width / transition frequency "
            f"= {ghat:.3g}")
    return np.linspace(-tau_span, tau_span, int(count) | 1)


def f_integral(
    tls: TwoLevelSystem,
    chi_fn: Callable,
    spectrum: PulseSpectrum,
    grid_scale: float = 1.0,
):
    """Double integral of the emission kernel, in 1/s^2.

    chi_fn(tau) is the single-pulse area of `spectrum`, tau from the pulse
    center in seconds; it must have decayed at +/- 12 pulse widths. A
    chi_fn that returns an (n_tau, k) matrix, one column per radius (as
    `PulseAreaSynthesis.chi` of k radii does), gives the k values of f as
    an array, each the one its column has alone (to rounding): the
    columns share every emission transform. A column of zeros gives 0,
    and one that has not decayed raises InvalidParameterError for the
    whole call.

    The inner transform runs on one uniform tau grid, one chirp
    z-transform per photon-frequency panel for all columns. The grid and
    the panels come from the kernel's spectral support (`_photon_band`);
    `certified_tail_cutoff` cuts each column off where its integrand
    falls below 1e-12 of its peak and certifies the cutoff by doubling.
    A photon frequency past the band the grid resolves, or an integrand
    that overflows, raises NumericalConvergenceError, and a grid of more
    than MAX_TAU_POINTS GridRangeError.
    """
    w0 = tls.transition_frequency
    # dimensionless time and frequency, in units of w0
    _, start, step, qmax = band = _photon_band(spectrum, w0)
    taus = _tau_grid(band, grid_scale)
    chi = np.asarray(chi_fn(taus / w0), dtype=float)
    shape, chi = chi.shape[1:], chi.reshape(taus.size, -1)
    peak = np.max(np.abs(chi), axis=0)
    edge = np.maximum(np.abs(chi[0]), np.abs(chi[-1]))
    late = edge > 1e-6 * peak
    if np.any(late):
        raise InvalidParameterError(
            "chi does not decay within 12 pulse widths "
            f"(edge/max = {np.max(edge[late] / peak[late]):.2e})"
        )
    f = np.zeros(peak.size)
    live = np.flatnonzero(peak)
    if live.size:
        kernel = np.sin(taus)[:, None] * chi[:, live] ** 2

        def integrand(qhat):
            if qhat[-1] > qmax:
                raise NumericalConvergenceError(
                    "photon-frequency integral reaches past the band its tau "
                    "grid resolves", qmax=qmax, photon_frequency=float(qhat[-1]))
            inner = oscillatory_cos_sin(taus, kernel, qhat)
            # an overflow reaches certified_tail_cutoff, which rejects it
            with np.errstate(over="ignore", invalid="ignore"):
                return qhat[:, None] ** 3 * np.abs(inner) ** 2

        f[live] = certified_tail_cutoff(integrand, start, step, 1e-6,
                                        what="photon-frequency integral")[1]
    f = (f * w0**2).reshape(shape)
    return f if f.ndim else float(f)


def validity_flags(
    train: PulseTrainConfig,
    tls: TwoLevelSystem,
    geometry: FocusingGeometry,
    spectrum: PulseSpectrum,
    eta_value: float,
) -> dict:
    """The regime checks reported with every excitation probability."""
    return {
        "weak_field": bool(eta_value <= WEAK_FIELD_MAX_ETA),
        "ultrafast": bool(spectrum.spectral_width >= tls.transition_frequency),
        "resonant_train": bool(
            train.resonance_offset(tls.transition_frequency) <= RESONANCE_TOLERANCE
        ),
        "far_field": bool(geometry.far_field_valid(spectrum)),
    }


def excitation_probability(
    train: PulseTrainConfig,
    tls: TwoLevelSystem,
    geometry: FocusingGeometry,
    spectrum: PulseSpectrum,
    rho: float,
    grid_scale: float = 1.0,
    synthesis: PulseAreaSynthesis | None = None,
) -> ExcitationResult:
    """p_e(rho) = f(rho) * 2 N Gamma0 / (pi w0^3) with validity flags.

    eta and p_e share `synthesis` (built from these inputs), or one built
    here when it is not given.
    """
    train.validate_against(spectrum, tls)
    if synthesis is None:
        synthesis = PulseAreaSynthesis(geometry, spectrum, train.pulse_energy,
                                       tls, grid_scale)
    eta_val = eta(geometry, spectrum, train.pulse_energy, tls, grid_scale,
                  synthesis)
    flags = validity_flags(train, tls, geometry, spectrum, eta_val)
    p_e, f_val = synthesis.probability(train, rho)
    return ExcitationResult(p_e, eta_val, f_val, flags)


def excitation_resolution(
    train: PulseTrainConfig,
    tls: TwoLevelSystem,
    geometry: FocusingGeometry,
    spectrum: PulseSpectrum,
    rho: float,
    grid_scale: float = 1.0,
) -> float:
    """2 p_e(rho) / [p_e(0) + p_e(rho)]; exactly 1 at rho = 0."""
    return excitation_resolution_curve(train, tls, geometry, spectrum,
                                       n_points=1,
                                       grid_scale=grid_scale).evaluator(rho)


def excitation_resolution_curve(
    train: PulseTrainConfig,
    tls: TwoLevelSystem,
    geometry: FocusingGeometry,
    spectrum: PulseSpectrum,
    rho_max: float | None = None,
    n_points: int = 33,
    grid_scale: float = 1.0,
    synthesis: PulseAreaSynthesis | None = None,
) -> RadialCurve:
    """Sampled excitation-resolution curve with a one-radius evaluator.

    The samples and the evaluator share one PulseAreaSynthesis, held by
    the evaluator: `synthesis` (built from these inputs, whose p_e(0) it
    may already hold) or one built here. The whole array of sample radii
    goes to `PulseAreaSynthesis.probability`, which computes them as
    column blocks; each evaluation spot_size makes (about five per
    curve) is a block of one radius. eta and the flags are not computed.
    The train is not checked either: N and T cancel in the ratio.
    """
    if rho_max is None:
        rho_max = spectrum.mean_wavelength / geometry.numerical_aperture
    if synthesis is None:
        synthesis = PulseAreaSynthesis(geometry, spectrum, train.pulse_energy,
                                       tls, grid_scale)
    return resolution_curve(
        lambda radii: synthesis.probability(train, radii)[0],
        rho_max, n_points)


def imaging_rate(train: PulseTrainConfig, tls: TwoLevelSystem,
                 p_e_focal: float) -> float:
    """R = p_e / (N T + 1/Gamma0), the fluorescence-throughput figure of merit."""
    if not 0.0 <= p_e_focal <= 1.0:
        raise InvalidParameterError(
            f"focal excitation probability must lie in [0, 1], got {p_e_focal}"
        )
    cycle = train.pulse_count * train.period + 1.0 / tls.spontaneous_rate
    return p_e_focal / cycle
