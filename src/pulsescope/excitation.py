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

import copy
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
    CosSinMatrices,
    add_certified_tail,
    certified_tail_cutoff,
    cos_sin_transform,
    oscillatory_cos_sin,
    trapezoid_weights,
)
from .spectra import PulseSpectrum

RESONANCE_TOLERANCE = 1e-6
WEAK_FIELD_MAX_ETA = 0.5
UNITARITY_BUDGET = 0.1
# bound on the points of the inner emission transform's tau grid
MAX_TAU_POINTS = 1_000_000


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

    The frequency grid, the trapezoid-weighted spectrum, the prefactor
    and the cos/sin matrices (`matrices`) do not depend on rho, so one
    instance serves a whole run: `eta` scans chi(0, tau) on the first tau
    grid of `f_integral` through it, p_e(0) is computed once and kept,
    and every radius of the excitation curve reuses the same matrices.
    `at_energy` gives the same synthesis at another pulse energy sharing
    this store. The matrices are freed with the last instance holding
    them.
    """

    def __init__(self, geometry: FocusingGeometry, spectrum: PulseSpectrum,
                 pulse_energy: float, tls: TwoLevelSystem,
                 grid_scale: float = 1.0):
        self.tls = tls
        self.pulse_width = 1.0 / spectrum.spectral_width
        self.grid_scale = grid_scale
        n = int(max(4001, 24.0 * spectrum.max_frequency / spectrum.spectral_width)
                * max(grid_scale, 0.05)) | 1
        self.frequencies = spectrum.frequency_grid(n)
        self.aperture = geometry.numerical_aperture
        self.weighted_spectrum = (spectrum.value(self.frequencies)
                                  * trapezoid_weights(self.frequencies))
        self.prefactor = self._prefactor(pulse_energy)
        self.matrices = CosSinMatrices()
        self._f_values = {}

    def _prefactor(self, pulse_energy: float) -> float:
        return (self.tls.dipole_magnitude / HBAR
                * FIELD_CALIBRATION / np.pi
                * _amplitude_prefactor(pulse_energy))

    def at_energy(self, pulse_energy: float) -> "PulseAreaSynthesis":
        """This synthesis for pulses of another energy, sharing its store:
        chi is exactly proportional to sqrt(U), and only the prefactor,
        applied after the transform, differs."""
        other = copy.copy(self)
        other.prefactor = self._prefactor(pulse_energy)
        other._f_values = {}
        return other

    def chi(self, rho: float, stored: bool = True) -> Callable:
        """chi(rho, tau) as a function of tau (s, scalar or array); with
        stored=False its transforms bypass the store (grids used once)."""
        if rho < 0:
            raise InvalidParameterError(f"radial coordinate must be >= 0, got {rho}")
        w, a = self.frequencies, self.aperture
        g = self.weighted_spectrum * (a / C_LIGHT) * j1_over_x(a * w * rho / C_LIGHT)
        re, im = np.ascontiguousarray(g.real), np.ascontiguousarray(g.imag)
        matrices = self.matrices if stored else None

        def chi(tau):
            out = cos_sin_transform(w, tau, re, im, matrices) * self.prefactor
            return out if np.ndim(tau) else float(out)

        return chi

    def probability(self, train: PulseTrainConfig,
                    rho: float) -> tuple[float, float]:
        """(p_e, f) at one radius for a train of this synthesis' pulses;
        f is computed once per radius."""
        if train.pulse_count == 0:
            return 0.0, 0.0
        tls = self.tls
        f_val = self._f_values.get(rho)
        if f_val is None:
            f_val = self._f_values[rho] = f_integral(
                tls, self.chi(rho), self.pulse_width, self.grid_scale,
                self.matrices)
        p_e = (
            f_val * 2.0 * train.pulse_count * tls.spontaneous_rate
            / (np.pi * tls.transition_frequency**3)
        )
        if p_e > 1.0:
            raise RegimeViolationError(
                f"p_e = {p_e:.3g} > 1: inputs are outside perturbative validity"
            )
        return float(p_e), f_val


def _chi_evaluator(
    geometry: FocusingGeometry,
    spectrum: PulseSpectrum,
    pulse_energy: float,
    tls: TwoLevelSystem,
    rho: float,
    grid_scale: float = 1.0,
) -> Callable:
    """chi(rho, tau) from a synthesis of its own (see PulseAreaSynthesis)."""
    return PulseAreaSynthesis(geometry, spectrum, pulse_energy, tls,
                              grid_scale).chi(rho)


def chi_of_time(
    geometry: FocusingGeometry,
    spectrum: PulseSpectrum,
    pulse_energy: float,
    tls: TwoLevelSystem,
    rho: float,
    t,
    grid_scale: float = 1.0,
):
    """Accumulated single-pulse area at absolute lab time t (z = 0)."""
    chi = _chi_evaluator(geometry, spectrum, pulse_energy, tls, rho, grid_scale)
    t_rephase = geometry.reference_sphere_radius / C_LIGHT
    return chi(np.asarray(t) - t_rephase)


def eta(
    geometry: FocusingGeometry,
    spectrum: PulseSpectrum,
    pulse_energy: float,
    tls: TwoLevelSystem,
    grid_scale: float = 1.0,
    synthesis: PulseAreaSynthesis | None = None,
) -> float:
    """Maximum pulse area at the focus: a scan of the first tau grid of
    `f_integral`, then twelve zooms that each resample the two intervals
    around the largest sample 4x finer.

    `synthesis`, built from the same inputs, supplies chi and keeps the
    scan's sin block in its store, where f_integral at rho = 0 finds it;
    without it eta builds a synthesis of its own. The 9-point zoom grids
    are used once and bypass the store.
    """
    if synthesis is None:
        synthesis = PulseAreaSynthesis(geometry, spectrum, pulse_energy, tls,
                                       grid_scale)
    w0 = tls.transition_frequency
    ghat = 1.0 / (w0 * synthesis.pulse_width)
    taus = _tau_grid(ghat, _inner_band(ghat), synthesis.grid_scale) / w0
    values = synthesis.chi(0.0)(taus)
    zoom = synthesis.chi(0.0, stored=False)
    for _zoom in range(12):
        i = int(np.argmax(np.abs(values)))
        lo, hi = taus[max(i - 1, 0)], taus[min(i + 1, taus.size - 1)]
        taus = np.linspace(lo, hi, 9)
        values = zoom(taus)
    return float(np.max(np.abs(values)))


def _inner_band(ghat: float) -> float:
    """First photon-frequency band, in carrier units, that f_integral's
    tau grid resolves."""
    # the certified cutoff lands at 14 ghat for spectra wider than a few
    # carriers; 2.5 times that leaves the doubling check inside the band
    return max(35.0 * ghat, 10.0)


def _tau_grid(ghat: float, qmax: float, grid_scale: float) -> np.ndarray:
    """Uniform tau grid, in 1/w0, of the inner emission transform: +/- 12
    pulse widths, resolving photon frequencies up to qmax carriers.

    ghat is the spectral width over the transition frequency. A grid of
    more than MAX_TAU_POINTS points raises GridRangeError.
    """
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
    pulse_width: float,
    grid_scale: float = 1.0,
    matrices: CosSinMatrices | None = None,
) -> float:
    """Double integral of the emission kernel, in 1/s^2.

    chi_fn(tau) is the single-pulse area with tau from the pulse center in
    seconds; it must have decayed at +/- 12 pulse widths. The inner
    transform runs on a uniform grid; the outer photon-frequency integral
    is cut off where its integrand falls below 1e-12 of the peak, and the
    cutoff is certified by doubling. Calls that share `matrices` reuse
    the inner transform's cos/sin matrices; the value does not depend on
    it. A tau grid of more than MAX_TAU_POINTS raises GridRangeError.
    """
    w0 = tls.transition_frequency
    # dimensionless time/frequency in carrier units
    ghat = 1.0 / (w0 * pulse_width)          # spectral width over carrier
    qmax = _inner_band(ghat)
    for _attempt in range(4):
        taus = _tau_grid(ghat, qmax, grid_scale)
        chi_vals = np.asarray(chi_fn(taus / w0), dtype=float)
        peak = float(np.max(np.abs(chi_vals)))
        if peak == 0.0:
            return 0.0
        edge = max(abs(chi_vals[0]), abs(chi_vals[-1]))
        if edge > 1e-6 * peak:
            raise InvalidParameterError(
                "chi does not decay within 12 pulse widths "
                f"(edge/max = {edge / peak:.2e})"
            )
        kernel = np.sin(taus) * chi_vals**2

        def integrand(qhat):
            inner = oscillatory_cos_sin(taus, kernel, np.asarray(qhat), matrices)
            return np.asarray(qhat) ** 3 * np.abs(inner) ** 2

        start = max(4.0 * ghat, 2.0)
        step = max(2.0 * ghat, 1.0)
        cutoff, value = certified_tail_cutoff(
            integrand, start, step, rel_floor=1e-12,
            what="photon-frequency integral",
        )
        if 2.0 * cutoff > qmax:
            # doubling certification would leave the resolved band; re-grid
            qmax = 2.5 * cutoff
            continue
        return float(add_certified_tail(integrand, cutoff, value, 1e-6,
                                        "photon-frequency integral") * w0**2)
    raise NumericalConvergenceError(
        "inner grid could not accommodate the certified cutoff", qmax=qmax,
    )


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
    """Sampled excitation-resolution curve with a bisectable evaluator.

    The samples and the evaluator share one PulseAreaSynthesis, held by
    the evaluator: `synthesis` (built from these inputs, whose p_e(0) it
    may already hold) or one built here. eta and the flags are not
    computed. The train is not checked either: N and T cancel in the
    ratio.
    """
    if rho_max is None:
        rho_max = spectrum.mean_wavelength / geometry.numerical_aperture
    if synthesis is None:
        synthesis = PulseAreaSynthesis(geometry, spectrum, train.pulse_energy,
                                       tls, grid_scale)
    return resolution_curve(
        lambda radii: [synthesis.probability(train, float(r))[0] for r in radii],
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
