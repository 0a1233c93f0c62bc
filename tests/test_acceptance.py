"""Acceptance gate: one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -s` to see every line. Each
test asserts the stated tolerance; computed values are printed first so
a red criterion still reports the honest number.
"""

import filecmp
from dataclasses import replace

import numpy as np
import pytest
from scipy.constants import c as C, hbar
from scipy.optimize import brentq
from scipy.special import ive

import pulsescope as ps
from pulsescope.scenario import _oracle_single, run_scenario


def _line(num: str, ok: bool, detail: str) -> str:
    text = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(text)
    return text


@pytest.fixture(scope="module")
def cfg():
    return ps.ScenarioConfig()


@pytest.fixture(scope="module")
def built(cfg):
    return cfg.build()


def test_criterion_1_mean_frequency_asymptote(built):
    spectrum, *_ = built
    w0 = spectrum.carrier_frequency
    s = ps.make_gaussian_spectrum(w0, 100.0 * w0)
    got = s.mean_frequency / s.spectral_width
    want = np.sqrt(8.0 / np.pi)
    ok = abs(got / want - 1.0) <= 0.01
    _line("1", ok, f"mean/width = {got:.6f} vs sqrt(8/pi) = {want:.6f} (tol 1%)")
    assert ok


def _ultrafast_half_crossing() -> float:
    """x* = A rho / lambda_bar of the intensity half crossing, ultrafast limit.

    For phi(w) ~ w exp(-w^2 / 4 G^2), the integral
    int_0^inf w e^{-w^2/4G^2} J1(v w) dw gives the rephasing-time field
    E(rho)/E(0) = e^{-y} [I0(y) - I1(y)] with y = pi^3 x^2 / 4 once
    lambda_bar = 2 pi c / (G sqrt(8/pi)) is inserted. The resolution
    2I/(I0 + I) is 1/2 where (E/E0)^2 = 1/3.
    """
    def field_ratio(x):
        y = np.pi**3 * x**2 / 4.0
        return ive(0, y) - ive(1, y)

    return brentq(lambda x: field_ratio(x) ** 2 - 1.0 / 3.0, 0.05, 0.5,
                  xtol=1e-14)


def test_criterion_2_intensity_spot_size(built):
    spectrum, geometry, *_ = built
    f = geometry.reference_sphere_radius
    x_star = _ultrafast_half_crossing()
    results = []
    for a in (0.05, 0.1, 0.2):
        geo = ps.FocusingGeometry(f, a * f)
        spot = ps.spot_size(ps.intensity_resolution_curve(geo, spectrum))
        coeff = spot * a / spectrum.mean_wavelength
        results.append((a, coeff, abs(coeff / x_star - 1.0)))
    worst = max(r[2] for r in results)
    # the paper quotes the coefficient to one digit
    rounds_to_paper = all(round(r[1], 1) == 0.2 for r in results)
    ok = worst <= 1e-4 and rounds_to_paper
    detail = "; ".join(
        f"A={a}: spot*A/lam = {k:.7f} vs closed form {x_star:.7f} ({d:.1e})"
        for a, k, d in results)
    _line("2", ok, detail + " (tol 1e-4; rounds to the paper's 0.2: "
          f"{rounds_to_paper})")
    assert ok, detail


def test_criterion_3_closed_form_coefficients(built):
    spectrum, geometry, tls, train = built
    result = ps.excitation_probability(train, tls, geometry, spectrum, 0.0)
    q = result.p_e / (result.eta**4 * train.pulse_count
                      * tls.spontaneous_rate / tls.transition_frequency)
    eta_coeff = result.eta / (
        geometry.numerical_aperture
        * np.sqrt(train.pulse_energy * tls.spontaneous_rate
                  / (hbar * tls.transition_frequency * spectrum.spectral_width)))
    ok_q = abs(q / 25.3 - 1.0) <= 0.02
    ok_eta = abs(eta_coeff / 0.64 - 1.0) <= 0.02
    detail = (f"p_e/(eta^4 N G0/w0) = {q:.3f} vs 25.3 ({q / 25.3 - 1:+.1%}); "
              f"eta coefficient = {eta_coeff:.4f} vs 0.64 "
              f"({eta_coeff / 0.64 - 1:+.2%}) (tol 2%)")
    _line("3", ok_q and ok_eta, detail)
    assert ok_q and ok_eta, detail


def test_criterion_4_worked_scenario(cfg, tmp_path):
    report = run_scenario(replace(cfg, output_dir=str(tmp_path / "run")))
    ok_eta = abs(report.eta / 0.5 - 1.0) <= 0.02
    ok_rate = abs(report.imaging_rate_hz / 1.1e5 - 1.0) <= 0.05
    ok_spot = abs(report.spot_excitation_m / 90e-9 - 1.0) <= 0.05
    detail = (f"eta = {report.eta:.4f} vs 0.5 ({report.eta / 0.5 - 1:+.1%}, tol 2%); "
              f"R = {report.imaging_rate_hz:.4g} Hz vs 1.1e5 "
              f"({report.imaging_rate_hz / 1.1e5 - 1:+.1%}, tol 5%); "
              f"spot = {report.spot_excitation_m * 1e9:.2f} nm vs 90 nm "
              f"({report.spot_excitation_m / 90e-9 - 1:+.1%}, tol 5%)")
    _line("4", ok_eta and ok_rate and ok_spot, detail)
    assert ok_eta and ok_rate and ok_spot, detail


def test_criterion_5_excitation_spot_formula(built):
    spectrum, geometry, tls, train = built
    f = geometry.reference_sphere_radius
    results = []
    for a in (0.05, 0.1, 0.2):
        geo = ps.FocusingGeometry(f, a * f)
        curve = ps.excitation_resolution_curve(train, tls, geo, spectrum,
                                               n_points=17)
        spot = ps.spot_size(curve)
        want = 0.4 * np.pi * C / (a * spectrum.mean_frequency)
        results.append((a, spot, want, spot / want - 1.0))
    worst = max(abs(r[3]) for r in results)
    ok = worst <= 0.10
    detail = "; ".join(
        f"A={a}: {s * 1e9:.2f} nm vs 0.4 pi c/(A wbar) = {w * 1e9:.2f} nm ({d:+.1%})"
        for a, s, w, d in results)
    _line("5", ok, detail + " (tol 10%)")
    assert ok, detail


def test_criterion_6_oracle_equivalence(cfg):
    r10 = _oracle_single(cfg, cfg.build(), 10.0, 0.05)
    r30 = _oracle_single(cfg, cfg.build(), 30.0, 0.05)
    ok_10 = r10.relative_deviation <= 0.05
    ok_30 = r30.relative_deviation <= 0.05
    ok_trend = r30.relative_deviation < r10.relative_deviation
    detail = (f"deviation at width/carrier 10: {r10.relative_deviation:.1%}, "
              f"at 30: {r30.relative_deviation:.1%} (tol 5%, must decrease); "
              f"p_e analytic/oracle at 10: {r10.p_e_analytic:.3e}/{r10.p_e_oracle:.3e}")
    _line("6", ok_10 and ok_30 and ok_trend, detail)
    assert ok_10 and ok_30 and ok_trend, detail


def test_criterion_7_c0_suppression(cfg, built):
    spectrum, geometry, tls, _ = built
    w0 = tls.transition_frequency
    dh = tls.dipole_magnitude / hbar
    c0_sq = []
    transients = []
    for ratio in (3.0, 10.0, 30.0):
        s = ps.make_gaussian_spectrum(w0, ratio * w0)
        e1 = ps.eta(geometry, s, cfg.pulse_energy_J, tls)
        u = cfg.pulse_energy_J * (0.3 / e1) ** 2
        half = 8.0 / s.spectral_width
        grid = ps.default_time_grid(s.spectral_width, w0, -half, half)

        def drive(t, s=s, u=u):
            return -dh * ps.focal_field_time(geometry, s, u, 0.0, t)

        h = ps.propagate_driven_tls(drive, grid, w0)
        c0_sq.append(abs(ps.oracle_c0(h)) ** 2)
        transients.append(float(np.max(np.abs(h.propagators[:, 0, 1]) ** 2)))
    ok_supp = c0_sq[1] * 10.0 <= transients[1]
    ok_mono = c0_sq[0] > c0_sq[1] > c0_sq[2]
    detail = (f"|c0|^2 at ratio 10 = {c0_sq[1]:.3e} vs transient peak "
              f"{transients[1]:.3e} (>=10x suppressed: {ok_supp}); "
              f"|c0|^2 over ratios 3,10,30 = {c0_sq[0]:.2e}, {c0_sq[1]:.2e}, "
              f"{c0_sq[2]:.2e} (monotone: {ok_mono})")
    _line("7", ok_supp and ok_mono, detail)
    assert ok_supp and ok_mono, detail


def test_criterion_8_invariant_suite(cfg, built):
    spectrum, geometry, tls, train = built
    checks = {}

    w = np.linspace(-spectrum.max_frequency, spectrum.max_frequency, 20001)
    phi = spectrum.value(w)
    peak = np.max(np.abs(phi))
    wpos = spectrum.frequency_grid(200001)
    checks["normalization"] = abs(
        np.trapezoid(np.abs(spectrum.value(wpos)) ** 2, wpos) - 1.0) < 1e-8
    checks["reality"] = np.max(np.abs(phi - np.conj(spectrum.value(-w)))) < 1e-12 * peak
    checks["zero_dc"] = abs(spectrum.value(0.0)) < 1e-14 * peak

    half = 8.0 / spectrum.spectral_width
    grid = ps.default_time_grid(spectrum.spectral_width,
                                tls.transition_frequency, -half, half)
    dh = tls.dipole_magnitude / hbar

    def drive(t):
        return -dh * ps.focal_field_time(geometry, spectrum,
                                         cfg.pulse_energy_J, 0.0, t)

    history = ps.propagate_driven_tls(drive, grid, tls.transition_frequency)
    checks["unitarity"] = history.unitarity_defect() < 1e-10

    rho = 0.2 * spectrum.mean_wavelength / geometry.numerical_aperture
    geo2 = ps.FocusingGeometry(geometry.reference_sphere_radius,
                               2 * geometry.waist)
    r1 = ps.excitation_resolution(train, tls, geometry, spectrum, rho)
    r2 = ps.excitation_resolution(train, tls, geo2, spectrum, rho / 2)
    checks["a_rho_scale_invariance"] = abs(r1 - r2) / r1 < 1e-6

    t1 = ps.PulseTrainConfig(1, train.period, train.pulse_energy)
    scales = np.array([0.01, 0.0316, 0.1, 0.316, 1.0])
    pes = [ps.excitation_probability(
        ps.PulseTrainConfig(1, train.period, s * train.pulse_energy),
        tls, geometry, spectrum, 0.0).p_e for s in scales]
    slope = np.polyfit(np.log(scales), np.log(pes), 1)[0]
    checks["energy_power_law"] = abs(slope - 2.0) <= 0.02

    p1 = ps.excitation_probability(t1, tls, geometry, spectrum, 0.0).p_e
    pn = ps.excitation_probability(train, tls, geometry, spectrum, 0.0).p_e
    checks["n_linearity"] = abs(pn / p1 / train.pulse_count - 1.0) < 1e-6

    from pulsescope.spectra import make_spectrum
    flipped = make_spectrum(lambda x: -spectrum._shape(x),
                            spectrum.carrier_frequency,
                            spectrum.spectral_width)
    p_flip = ps.excitation_probability(t1, tls, geometry, flipped, 0.0).p_e
    checks["sign_flip"] = abs(p_flip - p1) / p1 < 1e-12

    ok = all(checks.values())
    detail = ", ".join(f"{k}={'ok' if v else 'VIOLATED'}"
                       for k, v in checks.items()) + f", slope={slope:.4f}"
    _line("8", ok, detail)
    assert ok, detail


def test_criterion_9_determinism(cfg, tmp_path):
    fast = replace(cfg, grid_scale=0.5)
    rep1 = run_scenario(replace(fast, output_dir=str(tmp_path / "a")))
    rep2 = run_scenario(replace(fast, output_dir=str(tmp_path / "b")))
    names = sorted((tmp_path / "a").iterdir())
    identical = all(
        filecmp.cmp(p, tmp_path / "b" / p.name, shallow=False) for p in names)
    ok = identical and rep1 == rep2
    _line("9", ok, f"{len(names)} output files byte-identical: {identical}")
    assert ok
