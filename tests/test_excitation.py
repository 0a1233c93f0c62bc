"""Pulse areas, Eq.-style excitation probability, resolution, imaging rate.

Reference values frozen from converged runs are regression anchors; the
headline acceptance targets live in test_acceptance.py.
"""

import numpy as np
import pytest
from scipy.constants import c as C, epsilon_0, hbar

import pulsescope as ps
from pulsescope.errors import (
    InvalidParameterError,
    InvalidStateError,
    NumericalConvergenceError,
    RegimeViolationError,
)
from pulsescope import excitation
from pulsescope.excitation import PulseAreaSynthesis, dipole_from_spontaneous_rate


@pytest.fixture(scope="module")
def scenario():
    cfg = ps.ScenarioConfig()
    spectrum, geometry, tls, train = cfg.build()
    return cfg, spectrum, geometry, tls, train


@pytest.fixture(scope="module")
def focal_result(scenario):
    _, spectrum, geometry, tls, train = scenario
    return ps.excitation_probability(train, tls, geometry, spectrum, 0.0)


def test_two_level_system_derived_quantities(scenario):
    _, _, _, tls, _ = scenario
    assert tls.dephasing_rate == 0.5 * tls.spontaneous_rate + tls.inhomogeneous_broadening
    # free-space relation round trip
    d = tls.dipole_magnitude
    gamma_back = d**2 * tls.transition_frequency**3 / (
        3 * np.pi * epsilon_0 * hbar * C**3)
    np.testing.assert_allclose(gamma_back, tls.spontaneous_rate, rtol=1e-10)


def test_two_level_system_validation():
    with pytest.raises(InvalidParameterError):
        ps.TwoLevelSystem(-1.0, 1.0)
    with pytest.raises(InvalidParameterError):
        ps.TwoLevelSystem(1.0, 1.0, -0.1)


def test_train_validation_and_resonance(scenario):
    _, _, _, tls, train = scenario
    with pytest.raises(InvalidParameterError):
        ps.PulseTrainConfig(-1, 1.0, 1.0)
    with pytest.raises(InvalidParameterError):
        ps.PulseTrainConfig(1, 0.0, 1.0)
    # worked scenario: w0 T / 2pi = 14.0098, off resonance beyond 1e-6
    assert train.resonance_offset(tls.transition_frequency) > 1e-6
    resonant = ps.PulseTrainConfig(
        1, 14 * 2 * np.pi / tls.transition_frequency, train.pulse_energy)
    assert resonant.resonance_offset(tls.transition_frequency) < 1e-9


def test_chi_decays_and_scales_with_sqrt_energy(scenario):
    _, spectrum, geometry, tls, train = scenario
    chi1 = PulseAreaSynthesis(geometry, spectrum, train.pulse_energy, tls).chi(0.0)
    chi2 = PulseAreaSynthesis(geometry, spectrum, 2 * train.pulse_energy, tls).chi(0.0)
    taus = np.linspace(-12, 12, 1501) / spectrum.spectral_width
    v1 = chi1(taus)
    peak = np.max(np.abs(v1))
    assert abs(v1[-1]) < 1e-6 * peak and abs(v1[0]) < 1e-6 * peak
    np.testing.assert_allclose(chi2(taus), np.sqrt(2.0) * v1,
                               rtol=1e-10, atol=1e-10 * peak)


def test_chi_is_odd_about_rephasing_time(scenario):
    _, spectrum, geometry, tls, train = scenario
    chi = PulseAreaSynthesis(geometry, spectrum, train.pulse_energy, tls).chi(0.0)
    taus = np.linspace(1e-18, 3e-17, 40)
    np.testing.assert_allclose(chi(-taus), -chi(taus), rtol=1e-9)


@pytest.mark.parametrize("width_ratio", [0.3, 10.0, 30.0])
def test_chi_is_odd_on_the_tau_grid(scenario, width_ratio):
    _, _, geometry, tls, train = scenario
    w0 = tls.transition_frequency
    spectrum = ps.make_gaussian_spectrum(w0, width_ratio * w0)
    for grid_scale in (0.3, 1.0, 2.0):
        taus = excitation._tau_grid(excitation._photon_band(spectrum, w0),
                                    grid_scale)
        synthesis = excitation.PulseAreaSynthesis(
            geometry, spectrum, train.pulse_energy, tls, grid_scale)
        for rho in (0.0, 5e-8):
            chi = synthesis.chi(rho)(taus / w0)
            peak = np.max(np.abs(chi))
            assert peak > 0
            assert np.max(np.abs(chi + chi[::-1])) <= 1e-12 * peak


def test_chi_matches_cumulative_field_integral(scenario):
    # independent route: cumulative trapezoid of the synthesized field
    _, spectrum, geometry, tls, train = scenario
    t_r = geometry.reference_sphere_radius / C
    half = 10.0 / spectrum.spectral_width
    t = np.linspace(t_r - half, t_r + half, 20001)
    e = ps.focal_field_time(geometry, spectrum, train.pulse_energy, 0.0, t)
    d = tls.dipole_magnitude
    cum = -d / hbar * np.concatenate(
        ([0.0], np.cumsum(0.5 * (e[1:] + e[:-1]) * np.diff(t))))
    chi = PulseAreaSynthesis(geometry, spectrum, train.pulse_energy, tls).chi(0.0)
    direct = chi(t - t_r)
    peak = np.max(np.abs(direct))
    assert np.max(np.abs(cum - direct)) < 2e-3 * peak


def test_eta_worked_scenario_regression(focal_result):
    np.testing.assert_allclose(focal_result.eta, 0.4975758, rtol=1e-3)


def test_eta_coefficient_calibration(scenario, focal_result):
    _, spectrum, geometry, tls, train = scenario
    coeff = focal_result.eta / (
        geometry.numerical_aperture
        * np.sqrt(train.pulse_energy * tls.spontaneous_rate
                  / (hbar * tls.transition_frequency * spectrum.spectral_width)))
    np.testing.assert_allclose(coeff, 0.64, rtol=1e-3)


def test_eta_linear_in_aperture(scenario):
    _, spectrum, _, tls, train = scenario
    apertures = [0.01, 0.05, 0.1, 0.2]
    etas = [
        ps.eta(ps.FocusingGeometry(0.01, 0.01 * a), spectrum,
               train.pulse_energy, tls)
        for a in apertures
    ]
    ratios = np.array(etas) / np.array(apertures)
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-3)


def test_eta_grid_refinement(scenario):
    _, spectrum, geometry, tls, train = scenario
    coarse = ps.eta(geometry, spectrum, train.pulse_energy, tls)
    fine = ps.eta(geometry, spectrum, train.pulse_energy, tls, grid_scale=3.0)
    assert abs(fine - coarse) / fine < 1e-6


@pytest.mark.parametrize("width_ratio", [0.3, 10.0, 30.0])
def test_eta_matches_a_bounded_scalar_maximum(scenario, width_ratio):
    # reference: scipy's bounded scalar search on the same chi, started
    # from the bracket of a 4001-point scan of its own
    from scipy.optimize import minimize_scalar

    _, _, geometry, tls, train = scenario
    w0 = tls.transition_frequency
    spectrum = ps.make_gaussian_spectrum(w0, width_ratio * w0)
    chi = PulseAreaSynthesis(geometry, spectrum, train.pulse_energy, tls, 0.3).chi(0.0)
    half = 8.0 / spectrum.spectral_width
    taus = np.linspace(-half, half, 4001)
    i = int(np.argmax(np.abs(chi(taus))))
    res = minimize_scalar(lambda s: -abs(chi(s)), bounds=(taus[i - 1], taus[i + 1]),
                          method="bounded", options={"xatol": 1e-9 * half})
    got = ps.eta(geometry, spectrum, train.pulse_energy, tls, grid_scale=0.3)
    np.testing.assert_allclose(got, -res.fun, rtol=1e-12)


def test_f_integral_zero_for_zero_area(scenario):
    _, spectrum, _, tls, _ = scenario
    f = ps.f_integral(tls, lambda tau: np.zeros_like(np.asarray(tau)), spectrum)
    assert f == 0.0


def test_f_integral_quartic_in_energy(scenario):
    _, spectrum, geometry, tls, train = scenario
    chi1 = PulseAreaSynthesis(geometry, spectrum, train.pulse_energy, tls).chi(0.0)
    chi2 = PulseAreaSynthesis(geometry, spectrum, 2 * train.pulse_energy, tls).chi(0.0)
    f1 = ps.f_integral(tls, chi1, spectrum)
    f2 = ps.f_integral(tls, chi2, spectrum)
    np.testing.assert_allclose(f2 / f1, 4.0, rtol=1e-6)


def test_f_integral_rejects_nondecaying(scenario):
    _, spectrum, _, tls, _ = scenario
    with pytest.raises(InvalidParameterError):
        ps.f_integral(tls, lambda tau: np.ones_like(np.asarray(tau)), spectrum)


def test_f_integral_dense_quadrature_oracle(scenario):
    # independent: direct oscillatory integration, 10x oversampling, no
    # shared transform helper
    _, spectrum, geometry, tls, train = scenario
    chi = PulseAreaSynthesis(geometry, spectrum, train.pulse_energy, tls).chi(0.0)
    pw = 1.0 / spectrum.spectral_width
    got = ps.f_integral(tls, chi, spectrum)
    w0 = tls.transition_frequency
    brute = _brute_force_f(chi, w0, 12 * pw, 40001,
                           16.0 * spectrum.spectral_width + 4 * w0, 6001)
    np.testing.assert_allclose(got, brute, rtol=1e-4)


def _brute_force_f(chi, w0, half, n_tau, q_top, n_q):
    """f by trapezoid sums over uniform tau and photon-frequency grids, in
    blocks of 64 frequencies; no shared transform helper."""
    taus = np.linspace(-half, half, n_tau)
    ker = np.sin(w0 * taus) * chi(taus) ** 2 * (taus[1] - taus[0])
    ker[[0, -1]] /= 2.0                      # trapezoid end weights
    qs = np.linspace(0.0, q_top, n_q)
    inner2 = np.empty(qs.shape)
    for i in range(0, qs.size, 64):
        phase = np.outer(qs[i:i + 64], taus)
        re = np.cos(phase) @ ker
        im = np.sin(phase) @ ker
        inner2[i:i + 64] = re * re + im * im
    return np.trapezoid(qs**3 * inner2, qs)


@pytest.mark.parametrize("carrier, width", [
    (5.0, 0.05), (1.0, 0.01), (5.0, 0.01), (1.0, 0.003)])
def test_f_integral_narrowband_and_detuned_against_brute_force(
        scenario, carrier, width):
    # the emission bands sit at w0 and 2 w_c +/- w0: a carrier 5x the
    # transition puts the strongest at 11 w0, and a width of 0.01 w0
    # leaves a gap between the bands at w0 and 3 w0; at widths of 0.01
    # and 0.003 w0 the bands are narrower than 257 points over the
    # support resolve. The brute-force q range runs past 2 w_c + w0 plus
    # 11 widths
    _, _, geometry, tls, train = scenario
    w0 = tls.transition_frequency
    spectrum = ps.make_gaussian_spectrum(carrier * w0, width * w0)
    chi = PulseAreaSynthesis(geometry, spectrum, train.pulse_energy, tls).chi(0.0)
    got = ps.f_integral(tls, chi, spectrum)
    top = 2.0 * carrier + 1.0 + 12.0 * width       # in units of w0
    half = 12.0 / spectrum.spectral_width
    # e^{i q tau} times the kernel has no frequency above 2 top, where a
    # tau step below pi/top is exact; take half that. Two photon
    # frequencies per width, against bands of sqrt(2) widths
    n_tau = int(2.0 * half * w0 / (np.pi / (2.0 * top))) | 1
    n_q = int(top / (0.5 * width)) | 1
    brute = _brute_force_f(chi, w0, half, n_tau, top * w0, n_q)
    np.testing.assert_allclose(got, brute, rtol=1e-4)


def test_probability_worked_scenario_regression(focal_result, scenario):
    _, spectrum, geometry, tls, train = scenario
    np.testing.assert_allclose(focal_result.p_e, 1.4660e-4, rtol=3e-3)
    ratio = focal_result.p_e / (
        focal_result.eta**4 * train.pulse_count
        * tls.spontaneous_rate / tls.transition_frequency)
    # honest coefficient of the closed form at width/carrier = 10
    np.testing.assert_allclose(ratio, 22.130, rtol=5e-3)
    assert focal_result.flags["weak_field"]
    assert focal_result.flags["ultrafast"]
    assert not focal_result.flags["resonant_train"]


def test_probability_linear_in_pulse_count(scenario):
    _, spectrum, geometry, tls, train = scenario
    t1 = ps.PulseTrainConfig(1, train.period, train.pulse_energy)
    t5 = ps.PulseTrainConfig(5, train.period, train.pulse_energy)
    p1 = ps.excitation_probability(t1, tls, geometry, spectrum, 0.0).p_e
    p5 = ps.excitation_probability(t5, tls, geometry, spectrum, 0.0).p_e
    np.testing.assert_allclose(p5 / p1, 5.0, rtol=1e-6)


def test_probability_zero_pulses(scenario):
    _, spectrum, geometry, tls, train = scenario
    t0 = ps.PulseTrainConfig(0, train.period, train.pulse_energy)
    res = ps.excitation_probability(t0, tls, geometry, spectrum, 0.0)
    assert res.p_e == 0.0 and res.f_value == 0.0
    assert ps.imaging_rate(t0, tls, res.p_e) == 0.0


def test_probability_energy_power_law(scenario):
    # log-log slope 2 across two decades of pulse energy
    _, spectrum, geometry, tls, train = scenario
    t1 = ps.PulseTrainConfig(1, train.period, train.pulse_energy)
    scales = np.array([0.01, 0.0316, 0.1, 0.316, 1.0])
    ps_vals = []
    for s in scales:
        ti = ps.PulseTrainConfig(1, train.period, s * train.pulse_energy)
        ps_vals.append(ps.excitation_probability(ti, tls, geometry,
                                                 spectrum, 0.0).p_e)
    slope = np.polyfit(np.log(scales), np.log(ps_vals), 1)[0]
    assert abs(slope - 2.0) < 0.01


def test_probability_sign_flip_invariance(scenario):
    # global field sign flip: same spectrum shape with opposite sign
    _, spectrum, geometry, tls, train = scenario
    from pulsescope.spectra import make_spectrum
    flipped = make_spectrum(lambda w: -spectrum._shape(w),
                            spectrum.carrier_frequency,
                            spectrum.spectral_width)
    t1 = ps.PulseTrainConfig(1, train.period, train.pulse_energy)
    p_plus = ps.excitation_probability(t1, tls, geometry, spectrum, 0.0).p_e
    p_minus = ps.excitation_probability(t1, tls, geometry, flipped, 0.0).p_e
    np.testing.assert_allclose(p_minus, p_plus, rtol=1e-12)


def test_probability_regime_violation(scenario):
    _, spectrum, geometry, tls, train = scenario
    strong = ps.PulseTrainConfig(453, train.period, 4e-6)
    with pytest.raises(RegimeViolationError):
        ps.excitation_probability(strong, tls, geometry, spectrum, 0.0)


def test_unitarity_budget_warning(scenario):
    _, spectrum, geometry, tls, train = scenario
    long_train = ps.PulseTrainConfig(10 * train.pulse_count, train.period,
                                     train.pulse_energy)
    with pytest.warns(UserWarning, match="unitarity budget"):
        long_train.validate_against(spectrum, tls)
    short_gap = ps.PulseTrainConfig(1, 5.0 / spectrum.spectral_width,
                                    train.pulse_energy)
    with pytest.warns(UserWarning, match="pulse period"):
        short_gap.validate_against(spectrum, tls)


def test_resolution_value_at_zero_and_identity(scenario):
    _, spectrum, geometry, tls, train = scenario
    assert ps.excitation_resolution(train, tls, geometry, spectrum, 0.0) == 1.0
    curve = ps.excitation_resolution_curve(train, tls, geometry, spectrum,
                                           n_points=17)
    spot = ps.spot_size(curve)
    p0 = ps.excitation_probability(train, tls, geometry, spectrum, 0.0).p_e
    p_at = ps.excitation_probability(train, tls, geometry, spectrum, spot).p_e
    # I_e = 1/2 there, so p_e(spot) = p_e(0)/3
    np.testing.assert_allclose(p_at / p0, 1.0 / 3.0, rtol=1e-3)


def test_resolution_radial_scale_invariance(scenario):
    _, spectrum, geometry, tls, train = scenario
    geo2 = ps.FocusingGeometry(
        geometry.reference_sphere_radius, 2 * geometry.waist)
    rho = 0.2 * spectrum.mean_wavelength / geometry.numerical_aperture
    r1 = ps.excitation_resolution(train, tls, geometry, spectrum, rho)
    r2 = ps.excitation_resolution(train, tls, geo2, spectrum, rho / 2)
    np.testing.assert_allclose(r1, r2, rtol=1e-6)


def test_imaging_rate_formula(scenario):
    _, _, _, tls, train = scenario
    p = 1e-4
    expect = p / (train.pulse_count * train.period + 1.0 / tls.spontaneous_rate)
    np.testing.assert_allclose(ps.imaging_rate(train, tls, p), expect, rtol=1e-14)
    # Gamma0 -> large: R -> p/(N T)
    np.testing.assert_allclose(
        ps.imaging_rate(train, ps.TwoLevelSystem(tls.transition_frequency, 1e20), p),
        p / (train.pulse_count * train.period), rtol=1e-4)
    with pytest.raises(InvalidParameterError):
        ps.imaging_rate(train, tls, 1.5)


def test_dipole_helper_is_the_single_convention_point():
    d = dipole_from_spontaneous_rate(2.0e15, 1e9)
    assert d > 0
    np.testing.assert_allclose(
        d, np.sqrt(3 * np.pi * epsilon_0 * hbar * C**3 * 1e9 / 2.0e15**3),
        rtol=1e-14)


def test_strong_field_flag_clears(scenario):
    _, spectrum, geometry, tls, train = scenario
    # ~2x the reference area: still p_e << 1 but beyond the weak-field flag
    stronger = ps.PulseTrainConfig(1, train.period, 4 * train.pulse_energy)
    res = ps.excitation_probability(stronger, tls, geometry, spectrum, 0.0)
    assert res.eta > 0.5
    assert not res.flags["weak_field"]
    assert 0.0 <= res.p_e <= 1.0


def test_f_integral_certifies_its_cutoff_once(scenario, monkeypatch):
    # the first inner grid already leaves room for the doubling check, so
    # no cutoff scan is thrown away by a re-grid
    _, spectrum, geometry, tls, train = scenario
    calls = []
    real = excitation.certified_tail_cutoff

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(excitation, "certified_tail_cutoff", counted)
    chi = PulseAreaSynthesis(geometry, spectrum, train.pulse_energy, tls).chi(0.0)
    assert ps.f_integral(tls, chi, spectrum) > 0.0
    assert len(calls) == 1


def _curve_radii(spectrum, geometry):
    return np.linspace(0.0, spectrum.mean_wavelength / geometry.numerical_aperture,
                       33)


def _f_alone_and_in_one_block(scenario, grid_scale, monkeypatch,
                              spectrum=None):
    """(f of each curve radius alone, f of all in one block, the cutoffs
    of the radii alone, the certified_tail_cutoff calls of the block), for
    the scenario's spectrum or another."""
    _, reference, geometry, tls, train = scenario
    spectrum = spectrum or reference
    synthesis = PulseAreaSynthesis(geometry, spectrum, train.pulse_energy,
                                   tls, grid_scale)
    radii = _curve_radii(spectrum, geometry)
    calls = []
    real = excitation.certified_tail_cutoff

    def recorded(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append(np.ravel(out[0]).tolist())
        return out

    monkeypatch.setattr(excitation, "certified_tail_cutoff", recorded)

    def f(rho):
        return ps.f_integral(tls, synthesis.chi(rho), spectrum, grid_scale)

    alone = np.array([f(float(r)) for r in radii])
    cutoffs = [c for call in calls for c in call]
    calls.clear()
    return alone, f(radii), cutoffs, calls


@pytest.mark.parametrize("grid_scale", [0.3, 1.0])
def test_f_block_equals_each_radius_alone(scenario, grid_scale, monkeypatch):
    alone, block, cutoffs, block_calls = _f_alone_and_in_one_block(
        scenario, grid_scale, monkeypatch)
    assert len(set(cutoffs)) > 1  # the columns stop at different panels
    assert len(block_calls) == 1 and block.shape == alone.shape
    np.testing.assert_allclose(block, alone, rtol=1e-13, atol=0)


def test_f_block_equals_each_radius_alone_without_a_regrid(scenario,
                                                          monkeypatch):
    # at width 0.3 x carrier the cutoffs of a width-only band needed a
    # second, finer grid; a band from the kernel's support holds every
    # doubled cutoff on the one grid, so each call certifies once
    _, reference, _, tls, _ = scenario
    w0 = tls.transition_frequency
    spectrum = ps.make_gaussian_spectrum(w0, 0.3 * w0)
    alone, block, cutoffs, block_calls = _f_alone_and_in_one_block(
        scenario, 0.3, monkeypatch, spectrum)
    assert len(cutoffs) == alone.size and len(block_calls) == 1
    qmax = excitation._photon_band(spectrum, w0)[3]
    assert max(cutoffs) > 2.0 and 2.0 * max(cutoffs) <= qmax
    np.testing.assert_allclose(block, alone, rtol=1e-13, atol=0)


def test_f_past_the_resolved_band_raises(scenario, monkeypatch):
    # a band that cannot hold the doubled cutoff (about 140 carriers at
    # the reference width) is an error, not a silently aliased value
    _, spectrum, geometry, tls, train = scenario
    real = excitation._photon_band

    def narrow(spectrum, w0):
        ghat, start, step, _ = real(spectrum, w0)
        return ghat, start, step, 200.0

    monkeypatch.setattr(excitation, "_photon_band", narrow)
    chi = PulseAreaSynthesis(geometry, spectrum, train.pulse_energy, tls, 0.3).chi(0.0)
    with pytest.raises(NumericalConvergenceError,
                       match=r"reaches past the band its tau grid resolves "
                             r"\[photon_frequency=\d+\.0, qmax=200\.0\]"):
        ps.f_integral(tls, chi, spectrum, 0.3)


def test_f_block_zero_column_gives_zero(scenario):
    _, spectrum, geometry, tls, train = scenario
    chi = PulseAreaSynthesis(geometry, spectrum, train.pulse_energy, tls, 0.3).chi(0.0)

    def block(tau):
        c = chi(tau)
        return np.stack([c, np.zeros_like(c), 2.0 * c], axis=1)

    f = ps.f_integral(tls, block, spectrum, 0.3)
    assert f[1] == 0.0 and f[0] > 0.0
    np.testing.assert_allclose(f[0], ps.f_integral(tls, chi, spectrum, 0.3),
                               rtol=1e-13)
    np.testing.assert_allclose(f[2], 16.0 * f[0], rtol=1e-12)  # chi^4


def test_f_block_rejects_one_nondecaying_column(scenario):
    _, spectrum, geometry, tls, train = scenario
    chi = PulseAreaSynthesis(geometry, spectrum, train.pulse_energy, tls, 0.3).chi(0.0)

    def block(tau):
        c = chi(tau)
        return np.stack([c, np.full_like(c, np.max(np.abs(c)))], axis=1)

    with pytest.raises(InvalidParameterError, match="does not decay"):
        ps.f_integral(tls, block, spectrum, 0.3)


def test_probability_over_radii_is_each_radius_alone(scenario):
    # the array path fills the same per-radius cache as single radii
    _, spectrum, geometry, tls, train = scenario
    radii = _curve_radii(spectrum, geometry)[::4]
    shared = PulseAreaSynthesis(geometry, spectrum, train.pulse_energy, tls, 0.3)
    p_e, f = shared.probability(train, radii)
    assert p_e.shape == f.shape == radii.shape
    for r, p in zip(radii, p_e):
        assert shared.probability(train, float(r))[0] == p
        fresh = PulseAreaSynthesis(geometry, spectrum, train.pulse_energy, tls, 0.3)
        np.testing.assert_allclose(fresh.probability(train, float(r))[0], p,
                                   rtol=1e-13)


def test_resolution_curve_without_pulses_is_undefined(scenario):
    # p_e(0) = 0 for N = 0, so 2 p_e / (p_e(0) + p_e) has no value
    _, spectrum, geometry, tls, train = scenario
    idle = ps.PulseTrainConfig(0, train.period, train.pulse_energy)
    with pytest.raises(InvalidStateError):
        ps.excitation_resolution_curve(idle, tls, geometry, spectrum,
                                       n_points=3, grid_scale=0.3)
