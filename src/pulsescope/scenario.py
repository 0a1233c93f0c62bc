"""Application layer: the work of every subcommand, and every output file.

Everything here is a thin composition of the physics modules; every
number in a report is recomputable by calling the underlying operation
with the same configuration. Outputs are deterministic: identical
configurations produce byte-identical CSV/JSON.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ScenarioConfig, ScenarioReport, checked_number
from .constants import C_LIGHT, HBAR
from .errors import ConfigError, InvalidParameterError, RegimeViolationError
from .excitation import (
    PulseAreaSynthesis,
    PulseTrainConfig,
    eta,
    excitation_probability,
    excitation_resolution_curve,
    f_integral,
    imaging_rate,
    validity_flags,
)
from .focal import (
    RadialCurve,
    focal_field_time,
    focal_intensity_rephased,
    intensity_resolution_curve,
    spot_size,
)
from .oracle import (
    OracleReport,
    FIRST_ORDER_TRUST,
    default_time_grid,
    oracle_excitation_probability,
    propagate_driven_tls,
)
from .spectra import make_gaussian_spectrum

FIGURES = ("1b", "1c", "1c-inset", "1d")
FIGURE_1B_HALF_WINDOW = 6.0  # figure 1b spans +-6 pulse widths (1/Gamma)
# scan parameter -> config key; A sets the waist at the fixed focal radius
_SCAN_KEYS = {"U": "pulse_energy_J", "A": "waist_m",
              "Gamma": "spectral_width_rad_per_s", "N": "pulse_count",
              "T": "pulse_period_s"}
SCAN_PARAMETERS = tuple(_SCAN_KEYS)


def _write(cfg: ScenarioConfig, name: str, text: str) -> str:
    """Write one file into the output directory of cfg; returns its name."""
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / name).write_text(text)
    return name


def emit_spectrum(cfg: ScenarioConfig) -> str:
    """Write the spectral density and statistics; returns the means as text."""
    spectrum = cfg.build()[0]
    w = spectrum.frequency_grid(2001)
    dens = np.abs(spectrum.value(w)) ** 2
    rows = "".join(f"{float(wi)!r},{float(di)!r}\n" for wi, di in zip(w, dens))
    _write(cfg, "spectrum.csv", "omega_rad_per_s,density_s\n" + rows)
    _write(cfg, "spectrum.json",
           json.dumps(spectrum.serializable(), indent=2, sort_keys=True) + "\n")
    return (f"mean frequency {spectrum.mean_frequency!r} rad/s, "
            f"mean wavelength {spectrum.mean_wavelength!r} m")


def focus(cfg: ScenarioConfig) -> str:
    """Write the rephased focal intensity out to one mean wavelength over A."""
    spectrum, geometry, _, _ = cfg.build()
    rho_max = spectrum.mean_wavelength / geometry.numerical_aperture
    radii = np.linspace(0.0, rho_max, 81)
    vals = focal_intensity_rephased(geometry, spectrum, radii, cfg.grid_scale)
    name = _write(cfg, "focal_intensity.csv",
                  RadialCurve(radii, vals, "intensity").to_csv())
    return f"wrote {name} ({len(radii)} radii)"


def _intensity_spot(cfg: ScenarioConfig, spectrum, geometry) -> tuple[float, str]:
    """Intensity spot size; writes the intensity resolution curve."""
    curve = intensity_resolution_curve(geometry, spectrum,
                                       grid_scale=cfg.grid_scale)
    spot = spot_size(curve)
    return spot, _write(cfg, "intensity_resolution.csv", curve.to_csv())


def resolve(cfg: ScenarioConfig) -> str:
    """Write the intensity resolution curve; returns the spot size as text."""
    spectrum, geometry, _, _ = cfg.build()
    spot, _ = _intensity_spot(cfg, spectrum, geometry)
    return f"intensity spot size {spot!r} m"


def excite(cfg: ScenarioConfig) -> str:
    """Write the focal excitation record; returns p_e(0), eta and R as text."""
    spectrum, geometry, tls, train = cfg.build()
    result = excitation_probability(train, tls, geometry, spectrum, 0.0,
                                    cfg.grid_scale)
    rate = imaging_rate(train, tls, result.p_e)
    _write(cfg, "excitation.json", result.to_json())
    return f"p_e(0) = {result.p_e!r}, eta = {result.eta!r}, R = {rate!r} Hz"


def _focal_excitation(physics, grid_scale: float, n_points: int):
    """(excitation at the focus, excitation-resolution curve or None if
    there are no pulses) of the built physics objects, from one
    PulseAreaSynthesis: it computes eta and p_e(0) once and is freed with
    the curve."""
    spectrum, geometry, tls, train = physics
    synthesis = PulseAreaSynthesis(geometry, spectrum, train.pulse_energy, tls,
                                   grid_scale)
    result = excitation_probability(train, tls, geometry, spectrum, 0.0,
                                    grid_scale, synthesis)
    curve = None
    if train.pulse_count > 0:
        curve = excitation_resolution_curve(
            train, tls, geometry, spectrum, n_points=n_points,
            grid_scale=grid_scale, synthesis=synthesis)
    return result, curve


def run_scenario(cfg: ScenarioConfig) -> ScenarioReport:
    """Compute eta, p_e(0), R, both spot sizes; write curves and report."""
    physics = cfg.build()
    spectrum, geometry, tls, train = physics

    spot_i, name_i = _intensity_spot(cfg, spectrum, geometry)
    files = {"intensity_resolution": name_i}

    result, curve_e = _focal_excitation(physics, cfg.grid_scale, n_points=33)
    spot_e = None
    if curve_e is not None:
        spot_e = spot_size(curve_e)
        files["excitation_resolution"] = _write(
            cfg, "excitation_resolution.csv", curve_e.to_csv())
    rate = imaging_rate(train, tls, result.p_e)

    report = ScenarioReport(
        eta=float(result.eta),
        p_e_focal=float(result.p_e),
        imaging_rate_hz=float(rate),
        spot_intensity_m=float(spot_i),
        spot_excitation_m=None if spot_e is None else float(spot_e),
        flags=dict(result.flags),
        curve_files=files,
    )
    _write(cfg, "scenario_report.json", report.to_json())
    return report


def emit_figure_data(cfg: ScenarioConfig, figure: str) -> str:
    """Write one figure's data as CSV; returns the file name."""
    if figure not in FIGURES:
        raise ConfigError(f"unknown figure id {figure!r}; choose from {FIGURES}")
    spectrum, geometry, tls, train = cfg.build()
    wbar = spectrum.mean_frequency

    if figure == "1b":
        half = FIGURE_1B_HALF_WINDOW / spectrum.spectral_width
        t_rephase = geometry.reference_sphere_radius / C_LIGHT
        n = int(max(2001, 32.0 * half * spectrum.max_frequency / np.pi)) | 1
        t = t_rephase + np.linspace(-half, half, n)
        e = focal_field_time(geometry, spectrum, train.pulse_energy, 0.0, t,
                             grid_scale=cfg.grid_scale)
        e = e / np.max(np.abs(e))
        rows = "".join(f"{float(wbar * ti)!r},{float(ei)!r}\n" for ti, ei in zip(t, e))
        return _write(cfg, "figure_1b.csv", "omega_bar_t,field_arbitrary\n" + rows)

    if figure == "1c":
        w = spectrum.frequency_grid(2001)
        density = np.abs(spectrum.value(w)) ** 2 * wbar
        rows = "".join(f"{float(wi / wbar)!r},{float(di)!r}\n" for wi, di in zip(w, density))
        return _write(cfg, "figure_1c.csv",
                      "omega_over_mean,spectral_density_times_mean\n" + rows)

    if figure == "1c-inset":
        w0 = spectrum.carrier_frequency
        ratios = np.logspace(-2, 2, 33)
        rows = []
        for r in ratios:
            s = make_gaussian_spectrum(w0, r * w0)
            rows.append(f"{float(r)!r},{float(s.mean_frequency / w0)!r}\n")
        return _write(cfg, "figure_1c_inset.csv",
                      "width_over_carrier,mean_over_carrier\n" + "".join(rows))

    # 1d: both resolution functions against A rho / lambda_bar
    a = geometry.numerical_aperture
    lam = spectrum.mean_wavelength
    xs = np.linspace(0.0, 0.5, 26)
    curve_i = intensity_resolution_curve(
        geometry, spectrum, rho_max=0.5 * lam / a, n_points=26,
        grid_scale=cfg.grid_scale)
    curve_e = excitation_resolution_curve(
        train, tls, geometry, spectrum, rho_max=0.5 * lam / a, n_points=26,
        grid_scale=cfg.grid_scale)
    rows = "".join(
        f"{float(x)!r},{float(vi)!r},{float(ve)!r}\n"
        for x, vi, ve in zip(xs, curve_i.values, curve_e.values)
    )
    return _write(cfg, "figure_1d.csv",
                  "a_rho_over_lambda,intensity_resolution,excitation_resolution\n"
                  + rows)


def _apply_parameter(cfg: ScenarioConfig, name: str, value: float) -> ScenarioConfig:
    if name == "A":
        value = checked_number("scan A", value) * cfg.focal_radius_m
    return replace(cfg, **{_SCAN_KEYS[name]: value})


def scan(cfg: ScenarioConfig, parameter: str, values) -> str:
    """One row per value: eta, p_e(0), R, excitation spot size."""
    if parameter not in SCAN_PARAMETERS:
        raise ConfigError(
            f"unknown scan parameter {parameter!r}; choose from {SCAN_PARAMETERS}")
    header = "parameter,value,eta,p_e_focal,imaging_rate_hz,spot_excitation_m\n"
    # every row's config is checked and its physics built before the
    # first row runs
    configs = [(value, _apply_parameter(cfg, parameter, value)) for value in values]
    built = [(value, sub, sub.build()) for value, sub in configs]
    rows = []
    for value, sub, physics in built:
        _, _, tls, train = physics
        result, curve_e = _focal_excitation(physics, sub.grid_scale, n_points=17)
        eta_val, p_e0 = result.eta, result.p_e
        spot_e = float("nan") if curve_e is None else spot_size(curve_e)
        rate = imaging_rate(train, tls, p_e0)
        rows.append(
            f"{parameter},{float(value)!r},{float(eta_val)!r},{float(p_e0)!r},"
            f"{float(rate)!r},{float(spot_e)!r}\n")
    return _write(cfg, f"scan_{parameter}.csv", header + "".join(rows))


def _oracle_single(cfg: ScenarioConfig, width_ratio: float, eta_target: float,
                   n_pulses: int = 1) -> OracleReport:
    w0 = cfg.transition_frequency_rad_per_s
    spectrum = make_gaussian_spectrum(w0, width_ratio * w0)
    _, base, tls, _ = cfg.build()
    # pulse energy that realizes the requested focal area; eta ~ sqrt(U)
    # and p_e ~ chi^4 exactly, so the one synthesis at the reference
    # energy gives the row's eta and p_e
    u_ref = cfg.pulse_energy_J
    reference = PulseAreaSynthesis(base, spectrum, u_ref, tls, cfg.grid_scale)
    eta_ref = eta(base, spectrum, u_ref, tls, cfg.grid_scale, reference)
    ratio = eta_target / eta_ref
    u = u_ref * (ratio * ratio)          # inf, not OverflowError, past range
    if not u < np.inf:
        raise InvalidParameterError(
            f"oracle eta target {eta_target!r} needs a pulse energy out of "
            "floating-point range")
    # resonant period with T * Gamma >= 10
    m = int(np.ceil(10.0 * w0 / (2.0 * np.pi * spectrum.spectral_width))) + 1
    period = m * 2.0 * np.pi / w0
    train = PulseTrainConfig(n_pulses, period, u)
    train.validate_against(spectrum, tls)
    eta_row = float(eta_ref * np.sqrt(u / u_ref))
    # f of the area at unit peak, times eta_row^4 (products give inf, not
    # OverflowError), is finite wherever the row's f is, whatever the
    # config energy
    chi_ref = reference.chi(0.0)
    f_unit = f_integral(tls, lambda tau: chi_ref(tau) / eta_ref, spectrum,
                        cfg.grid_scale)
    p_an = (f_unit * (eta_row * eta_row) * (eta_row * eta_row) * 2.0 * n_pulses
            * tls.spontaneous_rate / (np.pi * w0**3))
    if not p_an <= 1.0:
        raise RegimeViolationError(
            f"p_e = {p_an:.3g} > 1: inputs are outside perturbative validity")

    t_rephase = base.reference_sphere_radius / C_LIGHT
    d_over_hbar = tls.dipole_magnitude / HBAR

    def drive(t):
        t = np.asarray(t, dtype=float)
        total = np.zeros(t.shape)
        for s_idx in range(n_pulses):
            total = total - d_over_hbar * focal_field_time(
                base, spectrum, u, 0.0, t + t_rephase - s_idx * period,
                grid_scale=cfg.grid_scale,
            )
        return total

    half = 8.0 / spectrum.spectral_width
    grid = default_time_grid(
        spectrum.spectral_width, w0,
        -half, (n_pulses - 1) * period + half, cfg.grid_scale,
    )
    history = propagate_driven_tls(drive, grid, w0)
    p_or = oracle_excitation_probability(history, tls)
    deviation = abs(p_or - p_an) / p_an
    flags = validity_flags(train, tls, base, spectrum, eta_row)
    flags["first_order_trust"] = bool(p_or <= FIRST_ORDER_TRUST)
    return OracleReport(
        width_over_transition=float(width_ratio),
        eta=float(eta_row),
        pulse_count=n_pulses,
        p_e_oracle=float(p_or),
        p_e_analytic=float(p_an),
        relative_deviation=float(deviation),
        flags=flags,
    )


def oracle_compare(cfg: ScenarioConfig, pairs) -> str:
    """CSV table of analytic vs oracle p_e over (Gamma/w0, eta) pairs.

    Every target is checked before the first row runs (ConfigError, exit 2);
    a numerical failure of a valid target is written into its row.
    """
    pairs = [(checked_number("oracle width ratio", ratio),
              checked_number("oracle eta target", target)) for ratio, target in pairs]
    header = ("width_over_transition,eta,p_e_analytic,p_e_oracle,"
              "relative_deviation,error\n")
    rows = []
    reports = []
    for ratio, eta_target in pairs:
        try:
            rep = _oracle_single(cfg, ratio, eta_target)
            reports.append(rep)
            rows.append(
                f"{rep.width_over_transition!r},{rep.eta!r},"
                f"{rep.p_e_analytic!r},{rep.p_e_oracle!r},"
                f"{rep.relative_deviation!r},\n")
        except Exception as exc:  # annotate, do not abort
            rows.append(f"{ratio!r},{eta_target!r},,,,"
                        f"{type(exc).__name__}: {exc}\n")
    name = _write(cfg, "oracle_compare.csv", header + "".join(rows))
    for i, rep in enumerate(reports):
        _write(cfg, f"oracle_report_{i}.json", rep.to_json())
    return name
