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
chi(rho, tau), a sum of the focused spectrum `focal.AirySpectrum`, is
exactly odd and chi^2 even. p_e depends on the field intensity, not its
sign, which is what makes the excitation profile as narrow as the
focused intensity itself.

This formula is not the first-order emission probability: it keeps
the sin(w0 tau) phase but drops propagator phases of the same order,
and exceeds the first-order probability by a factor that tends to 6 in
the ultrafast limit (5.55 at width/carrier 10 and 5.99 at 30 against
the exact propagator in `oracle`). See README "Acceptance status".

The free-space dipole relation Gamma0 = d^2 w0^3 / (3 pi eps0 hbar c^3)
is isolated in one function so an alternative convention can be swapped.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .constants import C_LIGHT, EPSILON_0, FIELD_CALIBRATION, HBAR
from .errors import (
    GridRangeError,
    InvalidParameterError,
    NumericalConvergenceError,
    RegimeViolationError,
)
from .focal import (
    SPECTRUM_REACH,
    AirySpectrum,
    FocusingGeometry,
    RadialCurve,
    _amplitude_prefactor,
    _band_points,
    resolution_curve,
)
from .quadrature import (
    certified_tail_cutoff,
    fourier_sum,
    oscillatory_cos_sin,
)
from .spectra import PulseSpectrum

RESONANCE_TOLERANCE = 1e-6
WEAK_FIELD_MAX_ETA = 0.5
UNITARITY_BUDGET = 0.1
TAU_SPAN = 12.0  # half-span of the emission transform's tau grid, in pulse widths
# bound on the points of the inner emission transform's tau grid
MAX_TAU_POINTS = 1_000_000
# radii whose f one f_integral call computes together: the 33 radii of
# the scenario curve in two calls, the 17 of a scan row in one. A
# block's arrays grow with it (a reference scenario peaks about 0.4 MB
# higher at 17 than at 8, and 1.6 MB at 33)
RADII_PER_BLOCK = 17
# bound on eta's Newton steps: 2 to 4 reach a bit-stable tau from the
# largest scan sample, and the bound stops one alternating between two
# neighbouring floats
NEWTON_STEPS = 6


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
        if not 0 < self.transition_frequency < np.inf:
            raise InvalidParameterError("transition frequency must be finite and positive")
        if not 0 < self.spontaneous_rate < np.inf:
            raise InvalidParameterError("spontaneous rate must be finite and positive")
        if not 0 <= self.inhomogeneous_broadening < np.inf:
            raise InvalidParameterError("inhomogeneous broadening must be finite and >= 0")

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
        if not 0 <= self.pulse_count < np.inf or int(self.pulse_count) != self.pulse_count:
            raise InvalidParameterError("pulse count must be a nonnegative integer")
        if not 0 < self.period < np.inf:
            raise InvalidParameterError("pulse period must be finite and positive")
        if not 0 < self.pulse_energy < np.inf:
            raise InvalidParameterError("pulse energy must be finite and positive")

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


class PulseAreaSynthesis(AirySpectrum):
    """Single-pulse area chi(rho, tau) for one spectrum, geometry, pulse
    energy and transition, at radii up to `max_radius`.

    chi is the running integral of the focal field from t = -inf; with
    phi(0) = 0 each spectral component contributes sin(w tau)/w, giving

        chi(rho, tau) = (d/hbar) (kappa/pi) sqrt(2U/(eps0 c))
                        * Re int_0^inf (phi(w) B(w, rho) / w) e^{-i w tau} dw

    with B the Airy kernel J1(A w rho / c)/rho and tau from the rephasing
    time: at unit prefactor (the factor in front), Re of the `fourier_sum`
    at tau of the order-0 column of this `AirySpectrum` of chi's band,
    alias-free for |tau| up to TAU_SPAN pulse widths, so no cumulative
    quadrature error enters the area. eta, f and p_e are computed at unit
    prefactor and scaled last by the energy they are given: an energy
    whose p_e overflows gives p_e > 1, not a non-finite f.

    The grid does not depend on rho, so one instance serves a whole run
    (`eta`, p_e(0) and the excitation curve), and f is computed once per
    radius and kept: `probability` at a radius already computed is a
    lookup. The radii of an array are computed RADII_PER_BLOCK at a time,
    each block the columns of one chi and one `f_integral` call, so they
    share every emission transform.
    """

    def __init__(self, geometry: FocusingGeometry, spectrum: PulseSpectrum,
                 pulse_energy: float, tls: TwoLevelSystem,
                 grid_scale: float = 1.0):
        # chi's band: TAU_SPAN pulse widths of tau out to a mean wavelength / A
        span = (TAU_SPAN + SPECTRUM_REACH) / spectrum.spectral_width
        super().__init__(spectrum, geometry.numerical_aperture, _band_points(
            spectrum, span + spectrum.mean_wavelength / C_LIGHT, grid_scale))
        self.tls, self.grid_scale = tls, grid_scale
        self.max_radius = ((2.0 * np.pi / self.frequencies[1] - span)
                           * C_LIGHT / self.aperture)
        # the transition's coupling times the pulse's field amplitude
        self._coupling = tls.dipole_magnitude / HBAR * FIELD_CALIBRATION / np.pi
        self.prefactor = self._coupling * _amplitude_prefactor(pulse_energy)
        self._f_values = {}

    def chi(self, rho, unit: bool = False) -> Callable:
        """chi(rho, tau) as a function of tau (s, scalar or array), at unit
        prefactor if `unit`. For an array of radii it returns one column
        per radius, all from one transform. A radius that is not finite
        and >= 0 raises InvalidParameterError, one past `max_radius`
        (where the grid would alias) GridRangeError. So does a tau that is
        not finite, and one past 2 pi / dw - A max(rho) / c -
        SPECTRUM_REACH / G, the reach the grid resolves at these radii
        (TAU_SPAN pulse widths at `max_radius`)."""
        c = self.columns(self.radii(rho))
        far = float(np.max(rho, initial=0.0))
        if far > self.max_radius:
            raise GridRangeError(f"chi at radius {far!r} m is past "
                                 f"the {self.max_radius!r} m its grid resolves")
        reach = (TAU_SPAN / self.spectrum.spectral_width
                 + self.aperture * (self.max_radius - far) / C_LIGHT)

        def chi(tau):
            span = np.abs(np.asarray(tau, dtype=float))
            if not np.all(span < np.inf):
                raise InvalidParameterError(f"tau must be finite, got {tau}")
            if np.any(span > reach):
                raise GridRangeError(f"chi at tau {float(span.max())!r} s is past "
                                     f"the {float(reach)!r} s its grid resolves")
            out = fourier_sum(self.frequencies, tau, c).real
            if not unit:
                out *= self.prefactor
            return out if out.ndim else float(out)

        return chi

    def probability(self, train: PulseTrainConfig, rho):
        """(p_e, f) at the train's pulse energy, at one radius or as arrays
        over an array of radii. f is computed at unit prefactor once per
        radius; the radii not yet computed go to `f_integral` in blocks of
        RADII_PER_BLOCK. A p_e not finite at unit field amplitude raises
        InvalidParameterError, and one above 1 (an overflow too)
        RegimeViolationError."""
        radii = np.asarray(rho, dtype=float)
        tls = self.tls
        f_unit = np.zeros(radii.shape)
        if train.pulse_count > 0:
            todo = [r for r in dict.fromkeys(radii.ravel().tolist())
                    if r not in self._f_values]
            for i in range(0, len(todo), RADII_PER_BLOCK):
                block = todo[i:i + RADII_PER_BLOCK]
                self._f_values.update(zip(block, np.atleast_1d(f_integral(
                    tls, self.chi(np.array(block), unit=True), self.spectrum,
                    self.grid_scale))))
            f_unit = np.array([self._f_values[r] for r in radii.ravel().tolist()]
                              ).reshape(radii.shape)
        c, a = float(self._coupling), float(_amplitude_prefactor(train.pulse_energy))
        # one factor at a time, so a zero stays zero; f and p_e at unit
        # field amplitude depend on the transition alone
        with np.errstate(over="ignore"):
            f_coupled = f_unit * c * c * c * c
            rate = (f_coupled * 2.0 * train.pulse_count * tls.spontaneous_rate
                    / (np.pi * tls.transition_frequency**3))
            p_e, f_val = rate * a * a * a * a, f_coupled * a * a * a * a
        if not np.all(np.isfinite(rate)):
            raise InvalidParameterError(
                f"transition frequency {tls.transition_frequency!r} rad/s is "
                f"out of floating-point range: "
                f"p_e = {float(p_e[~np.isfinite(rate)][0])!r}")
        # past the float range the pulse energy alone makes p_e > 1
        if not np.all(p_e <= 1.0):
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
    """Maximum pulse area at the focus: a scan of chi(0, tau) on the tau
    grid of `f_integral` at four times its density (`_eta_taus`, one chirp
    z-transform), then Newton steps tau <- tau - chi'/chi'' on the
    `AirySpectrum.sums` at tau of orders 0-2 at rho = 0 from every lobe the
    peak may lie on, each step clamped to the two scan intervals around the
    lobe's largest sample. The peak lies within half a scan interval dtau of
    a sample, and |chi''| <= the summed moduli of the order-2 column (unit
    prefactor), so a lobe whose largest sample (a local maximum of the
    scan) is lower than the largest by more than 1/2 max|chi''| (dtau/2)^2
    cannot hold it; every other lobe is polished, which a narrowband
    spectrum, with many lobes of nearly equal height, needs. The steps stop
    when tau stops changing, after NEWTON_STEPS, or at a chi'' that is zero
    or not finite; eta is the prefactor at `pulse_energy` times the largest
    polished |chi| or |sample|.

    `synthesis`, built from the same inputs at any pulse energy, supplies
    chi; without it eta builds a synthesis of its own.
    """
    if synthesis is None:
        synthesis = PulseAreaSynthesis(geometry, spectrum, pulse_energy, tls,
                                       grid_scale)
    taus = _eta_taus(synthesis)
    scan = np.abs(synthesis.chi(0.0, unit=True)(taus))
    loss = 0.5 * np.abs(synthesis.columns(0.0, 2)).sum() * (0.5 * (taus[1] - taus[0])) ** 2
    padded = np.concatenate(([-np.inf], scan, [-np.inf]))
    lobes = np.flatnonzero((scan > padded[:-2]) & (scan >= padded[2:])
                           & (scan >= scan.max() - loss))
    best = scan.max()
    for i in lobes:
        lo, hi = taus[max(i - 1, 0)], taus[min(i + 1, taus.size - 1)]
        tau = float(taus[i])
        value, slope, curvature = synthesis.sums(0.0, (0, 1, 2), tau).real
        for _step in range(NEWTON_STEPS):
            if not (np.isfinite(curvature) and curvature != 0.0):
                break
            # Python floats: an overflowing step is inf, clamped, not a warning
            new = min(max(tau - float(slope) / float(curvature), lo), hi)
            if new == tau:
                break
            tau = new
            value, slope, curvature = synthesis.sums(0.0, (0, 1, 2), tau).real
        best = max(best, abs(value))
    return float(synthesis._coupling * _amplitude_prefactor(pulse_energy) * best)


def _eta_taus(synthesis: PulseAreaSynthesis) -> np.ndarray:
    """The tau grid, in s, on which `eta` scans chi(0, tau): the emission
    transform's at four times its density. eta's lobe-admission bound
    grows as dtau^2, so on the alias-free grid itself a narrowband
    spectrum would admit about four times as many lobes, each polished
    by Newton steps."""
    w0 = synthesis.tls.transition_frequency
    return _tau_grid(_photon_band(synthesis.spectrum, w0),
                     4.0 * max(synthesis.grid_scale, 1.0)) / w0


def _photon_band(spectrum: PulseSpectrum, w0: float):
    """(ghat, first panel, panel step, resolved band qmax, support edge)
    of the photon-frequency integral of f, in units of w0; ghat is the
    spectral width over w0.

    The emission kernel sin(w0 tau) chi^2 has bands at the odd
    harmonics w0 and |2 w_c +/- w0| (w_c the carrier). For the built-in
    spectrum each is a Gaussian exp(-dq^2 / 4 ghat^2) in the integrand,
    below 1e-12 of its peak 10.5 ghat out, so the support ends at edge =
    2 w_c + w0 + 11 ghat. Narrower than w0, the bands stand apart: the
    first panel runs to the edge, so no junction of two panel grids falls
    in a band. As wide as w0 (the `ultrafast` flag), they merge into one,
    on a first panel of 4 ghat (at least to the top band) and then steps
    of 2 ghat. The step, max(2 ghat, 1), is at most 64 ghat, so the
    spacing of at most step/128 of `certified_tail_cutoff` samples every
    band at ghat/2 or finer. Its step panels through the edge end before
    edge + 2 step, and qmax holds their end doubled, the reach of its
    tail.
    """
    pulse_width = 1.0 / spectrum.spectral_width   # the unit of the tau span
    ghat = 1.0 / (w0 * pulse_width)
    top = 2.0 * spectrum.carrier_frequency / w0 + 1.0
    edge = top + 11.0 * ghat
    step = min(max(2.0 * ghat, 1.0), 64.0 * ghat)
    start = edge if spectrum.spectral_width < w0 else max(4.0 * ghat, top)
    return ghat, start, step, max(35.0 * ghat, 2.0 * (edge + 2.0 * step)), edge


def _tau_grid(band, grid_scale: float) -> np.ndarray:
    """Uniform tau grid, in 1/w0, of the inner emission transform: +/-
    TAU_SPAN pulse widths on an even count of intervals, at a step dt of
    at most 2 pi / ((qmax + edge) max(grid_scale, 1)), qmax and the
    support edge from band (`_photon_band`). The kernel's spectrum ends
    at the edge, so its images on that step lie 2 pi / dt - edge >= qmax
    or farther from 0: every photon frequency f integrates is resolved
    alias-free. A grid scale below 1 gives the grid of scale 1, one
    above refines it. A grid of more than MAX_TAU_POINTS points raises
    GridRangeError.
    """
    ghat, _, _, qmax, edge = band
    tau_span = TAU_SPAN / ghat               # in 1/w0
    count = tau_span * (qmax + edge) * max(grid_scale, 1.0) / np.pi
    if not count <= MAX_TAU_POINTS:
        raise GridRangeError(
            f"emission tau grid needs {count:.3g} points, above the limit of "
            f"{MAX_TAU_POINTS}, at spectral width / transition frequency "
            f"= {ghat:.3g}")
    return np.linspace(-tau_span, tau_span, 2 * int(np.ceil(count / 2.0)) + 1)


def f_integral(
    tls: TwoLevelSystem,
    chi_fn: Callable,
    spectrum: PulseSpectrum,
    grid_scale: float = 1.0,
):
    """Double integral of the emission kernel, in 1/s^2.

    chi_fn(tau) is the single-pulse area of `spectrum`, tau from the pulse
    center in seconds; it must have decayed at +/- TAU_SPAN pulse widths. A
    chi_fn that returns an (n_tau, k) matrix, one column per radius (as
    `PulseAreaSynthesis.chi` of k radii does), gives the k values of f as
    an array, each the one its column has alone (to rounding): the
    columns share every emission transform. A column of zeros gives 0,
    and one that has not decayed raises InvalidParameterError for the
    whole call.

    The inner transform runs on one uniform tau grid, one chirp
    z-transform per integrand call for all columns, at the alias-free
    step for the photon frequencies up to qmax (`_tau_grid`; a grid
    scale below 1 gives the grid of scale 1). The grid and the panels
    come from the kernel's spectral support (`_photon_band`):
    `certified_tail_cutoff` samples [0, start] and then the step panels
    through the support edge in one call each, integrates every column
    to their common end, checks that each has fallen below 1e-12 of its
    peak there and certifies the end by the tail over its doubling. A
    photon frequency past the band the grid resolves (where a column
    that has not fallen would double the panels), or an integrand that
    overflows, raises NumericalConvergenceError, and a grid of more than
    MAX_TAU_POINTS GridRangeError.
    """
    w0 = tls.transition_frequency
    # dimensionless time and frequency, in units of w0
    _, start, step, qmax, support = band = _photon_band(spectrum, w0)
    taus = _tau_grid(band, grid_scale)
    chi = np.asarray(chi_fn(taus / w0), dtype=float)
    shape, chi = chi.shape[1:], chi.reshape(taus.size, -1)
    peak = np.max(np.abs(chi), axis=0)
    edge = np.maximum(np.abs(chi[0]), np.abs(chi[-1]))
    late = edge > 1e-6 * peak
    if np.any(late):
        raise InvalidParameterError(
            f"chi does not decay within {TAU_SPAN:g} pulse widths "
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

        f[live] = certified_tail_cutoff(integrand, start, step, support, 1e-6,
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
    """p_e(rho) = f(rho) * 2 N Gamma0 / (pi w0^3) with validity flags; p_e
    and f are arrays over an array of radii (`PulseAreaSynthesis.probability`).

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
    """Sampled excitation-resolution curve with its evaluator.

    The samples and the evaluator share one PulseAreaSynthesis, held by
    the evaluator: `synthesis` (built from these inputs, whose p_e it
    may already hold) or one built here. The whole array of sample
    radii, rho = 0 among them, goes to `PulseAreaSynthesis.probability`,
    which computes them as column blocks of RADII_PER_BLOCK (two for the
    33 of `scenario`); each evaluator call spot_size makes (one or two
    pairs of radii per curve) is a block too. eta and the flags are not
    computed. The train is not checked either: N and T cancel in the
    ratio.
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
