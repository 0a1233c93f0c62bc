"""Pulse areas, Eq.-style excitation probability, resolution, imaging rate.

Reference values frozen from converged runs are regression anchors; the
headline acceptance targets live in test_acceptance.py.
"""

import copy

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
    with pytest.raises(InvalidParameterError, match="pulse energy"):
        ps.PulseTrainConfig(1, 1.0, 0.0)
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
        synthesis = excitation.PulseAreaSynthesis(
            geometry, spectrum, train.pulse_energy, tls, grid_scale)
        # the emission transform's grid and eta's scan grid
        grids = (excitation._tau_grid(excitation._photon_band(spectrum, w0),
                                      grid_scale) / w0,
                 excitation._eta_taus(synthesis))
        for taus in grids:
            for rho in (0.0, 5e-8):
                chi = synthesis.chi(rho)(taus)
                peak = np.max(np.abs(chi))
                assert peak > 0
                assert np.max(np.abs(chi + chi[::-1])) <= 1e-12 * peak


def test_chi_matches_cumulative_field_integral(scenario):
    # independent route: cumulative trapezoid of the synthesized field
    _, spectrum, geometry, tls, train = scenario
    half = 10.0 / spectrum.spectral_width
    t = np.linspace(-half, half, 20001)
    e = ps.focal_field_time(geometry, spectrum, train.pulse_energy, 0.0, t)
    d = tls.dipole_magnitude
    cum = -d / hbar * np.concatenate(
        ([0.0], np.cumsum(0.5 * (e[1:] + e[:-1]) * np.diff(t))))
    chi = PulseAreaSynthesis(geometry, spectrum, train.pulse_energy, tls).chi(0.0)
    direct = chi(t)
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


def _lobe_samples(synthesis, taus, scan):
    """Indices of the local maxima of a scan of |chi(0, tau)| at unit
    prefactor that lie within 1/2 max|chi''| (dtau/2)^2 of its largest
    sample, max|chi''| bounded by the summed moduli of the order-2 column
    at rho = 0: every lobe that may hold the peak."""
    bound = np.sum(np.abs(synthesis.columns(0.0, 2)))
    loss = 0.5 * bound * (0.5 * (taus[1] - taus[0])) ** 2
    return [i for i in range(taus.size)
            if (i == 0 or scan[i] > scan[i - 1])
            and (i == taus.size - 1 or scan[i] >= scan[i + 1])
            and scan[i] >= scan.max() - loss]


def _zoomed_eta(synthesis, w0):
    """eta by twelve zooms: a scan of eta's tau grid, then twelve 9-point
    resamplings of the two intervals around the largest sample, each 4x
    finer, from every lobe that may hold the peak; the search Newton's
    steps replaced."""
    taus = excitation._eta_taus(synthesis)
    chi = synthesis.chi(0.0, unit=True)
    best = 0.0
    for i in _lobe_samples(synthesis, taus, np.abs(chi(taus))):
        grid = taus
        for _zoom in range(12):
            grid = np.linspace(grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)], 9)
            values = np.abs(chi(grid))
            i = int(np.argmax(values))
        best = max(best, float(values.max()))
    return synthesis.prefactor * best


@pytest.mark.parametrize("grid_scale", [0.3, 1.0, 2.0])
@pytest.mark.parametrize("carrier_ratio", [1.0, 3.0])
def test_eta_matches_the_twelve_zoom_search(scenario, carrier_ratio, grid_scale):
    # 21 widths from 0.01 to 100 w0; at the narrow ones chi oscillates at
    # the carrier, in many lobes of nearly equal height, so the steps must
    # polish every lobe that may hold the peak (the largest sample's lobe
    # alone is low by 2e-3 at carrier 1, width 0.01, grid scale 0.3). Each
    # spectrum also runs times 1 + 0.5i, whose real part the built-in
    # purely imaginary spectrum lacks. Grid scales 0.3 and 1 scan one tau
    # grid, on chi from two frequency grids; grid scale 2 scans a finer one
    _, _, geometry, tls, train = scenario
    w0 = tls.transition_frequency
    for width_ratio in np.geomspace(0.01, 100.0, 21):
        gaussian = ps.make_gaussian_spectrum(carrier_ratio * w0, width_ratio * w0)
        phased = ps.make_spectrum(lambda w: (1.0 + 0.5j) * gaussian._shape(w),
                                  carrier_ratio * w0, width_ratio * w0)
        for spectrum in (gaussian, phased):
            synthesis = PulseAreaSynthesis(geometry, spectrum, train.pulse_energy,
                                           tls, grid_scale)
            got = ps.eta(geometry, spectrum, train.pulse_energy, tls, grid_scale,
                         synthesis)
            np.testing.assert_allclose(got, _zoomed_eta(synthesis, w0), rtol=1e-12)
            taus = excitation._eta_taus(synthesis)
            assert got >= np.max(np.abs(synthesis.chi(0.0)(taus)))


def test_eta_steps_stay_in_the_scan_bracket(scenario, monkeypatch):
    # derivatives whose steps overflow, then a zero or non-finite chi'',
    # keep every tau in the two scan intervals around each polished lobe's
    # largest sample (no RuntimeWarning), and eta at the scan's largest
    # sample; the reference scan has two lobes, chi being odd in tau. Grid
    # scale 0.3 scans the grid of scale 1, and grid scale 2 a finer one
    _, spectrum, geometry, tls, train = scenario
    for grid_scale in (0.3, 2.0):
        synthesis = PulseAreaSynthesis(geometry, spectrum, train.pulse_energy,
                                       tls, grid_scale)
        taus = excitation._eta_taus(synthesis)
        scan = np.abs(synthesis.chi(0.0, unit=True)(taus))
        lobes = _lobe_samples(synthesis, taus, scan)
        assert len(lobes) == 2 and int(np.argmax(scan)) in lobes
        for curvatures in ([1e-300, -1e-300, 1e-300], [0.0], [np.nan], [-np.inf]):
            seen = []
            rest = {}

            def sums(rho, ks, tau):
                # each lobe's steps start at its sample and draw the curvatures anew
                assert rho == 0.0 and ks == (0, 1, 2)
                if tau in taus[lobes]:
                    rest["it"] = iter(curvatures + [0.0])
                seen.append(tau)
                return np.array([0.0, 1e300, next(rest["it"])])

            monkeypatch.setattr(synthesis, "sums", sums)
            got = ps.eta(geometry, spectrum, train.pulse_energy, tls, grid_scale,
                         synthesis)
            steps = int(len(curvatures) > 1)
            assert set(seen) == {tau for i in lobes
                                 for tau in taus[i - steps:i + steps + 1]}
            assert got == float(synthesis.prefactor * scan.max())


@pytest.mark.parametrize("width_ratio", [0.03, 1.0, 100.0])
def test_tau_grid_step_is_the_alias_free_one(scenario, width_ratio):
    # the kernel's images on a step dt lie 2 pi / dt - edge from 0, so the
    # step resolves every photon frequency up to qmax at 2 pi / dt >=
    # qmax + edge, and at no more than two intervals past that count; a
    # grid scale below 1 gives the grid of scale 1, one above refines it
    _, _, _, tls, _ = scenario
    w0 = tls.transition_frequency
    band = excitation._photon_band(ps.make_gaussian_spectrum(w0, width_ratio * w0), w0)
    qmax, edge = band[3], band[4]
    base = excitation._tau_grid(band, 1.0)
    for grid_scale in (0.05, 0.5, 1.0, 2.0, 3.7):
        taus = excitation._tau_grid(band, grid_scale)
        assert taus.size % 2 == 1 and taus[-1] == -taus[0] == base[-1]
        bandwidth = 2.0 * np.pi / np.diff(taus)
        rule = (qmax + edge) * max(grid_scale, 1.0)
        assert bandwidth.min() >= rule * (1.0 - 1e-12)
        assert bandwidth.max() <= rule * (1.0 + 2.0 / (taus.size - 3))
    for grid_scale in (0.05, 0.5):
        np.testing.assert_array_equal(excitation._tau_grid(band, grid_scale), base)
    fine = excitation._tau_grid(band, 2.0)
    assert fine[0] == base[0] and fine.size >= 2 * base.size - 3


@pytest.mark.parametrize("carrier_ratio", [0.5, 1.0, 3.0])
def test_f_and_eta_agree_with_a_four_times_finer_tau_grid(scenario, carrier_ratio):
    # f (radii 0 to 0.4 mean wavelengths / A) and eta on the default tau
    # grids, alias-free for the photon frequencies f integrates, against
    # the same chi on tau grids four times finer; at 0.9 times the
    # alias-free density f moves by 1e-9 or more, or fails to certify
    _, _, geometry, tls, train = scenario
    w0 = tls.transition_frequency
    for width_ratio in np.geomspace(0.03, 100.0, 6):
        spectrum = ps.make_gaussian_spectrum(carrier_ratio * w0, width_ratio * w0)
        synthesis = PulseAreaSynthesis(geometry, spectrum, train.pulse_energy, tls)
        finer = copy.copy(synthesis)
        finer.grid_scale = 4.0
        radii = (np.array([0.0, 0.1, 0.2, 0.4]) * spectrum.mean_wavelength
                 / geometry.numerical_aperture)
        chi = synthesis.chi(radii, unit=True)
        np.testing.assert_allclose(ps.f_integral(tls, chi, spectrum),
                                   ps.f_integral(tls, chi, spectrum, 4.0),
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(
            ps.eta(geometry, spectrum, train.pulse_energy, tls, 1.0, synthesis),
            ps.eta(geometry, spectrum, train.pulse_energy, tls, 4.0, finer),
            rtol=1e-12)


def test_eta_polishes_few_lobes_of_a_narrowband_spectrum(scenario, monkeypatch):
    # at width 0.001 x carrier chi(0, tau) has many lobes of nearly equal
    # height. The admission bound grows as dtau^2, so a scan on the
    # alias-free emission grid itself would polish about four times as
    # many lobes (492 one-point sums); on eta's grid, four times denser,
    # it takes 108, under the 118 of a scan at 2 pi / dtau = 5 (qmax + 1)
    cfg, _, geometry, tls, train = scenario
    carrier = cfg.carrier_frequency_rad_per_s
    spectrum = ps.make_gaussian_spectrum(carrier, 0.001 * carrier)
    synthesis = PulseAreaSynthesis(geometry, spectrum, train.pulse_energy, tls)
    real, taus = synthesis.sums, []

    def sums(rho, ks, tau):
        taus.append(tau)
        return real(rho, ks, tau)

    monkeypatch.setattr(synthesis, "sums", sums)
    got = ps.eta(geometry, spectrum, train.pulse_energy, tls, 1.0, synthesis)
    assert 0 < len(taus) <= 118
    np.testing.assert_allclose(got, _zoomed_eta(synthesis, tls.transition_frequency),
                               rtol=1e-12)


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


def test_probability_and_eta_scale_by_the_energy_given(scenario):
    # one synthesis serves every pulse energy: p_e and f by the train's
    # energy (~ U^2), eta by its argument (~ sqrt(U)); the synthesis' own
    # energy scales only chi
    _, spectrum, geometry, tls, train = scenario
    synthesis = PulseAreaSynthesis(geometry, spectrum, train.pulse_energy, tls)
    u = train.pulse_energy
    t1 = ps.PulseTrainConfig(1, train.period, u)
    t2 = ps.PulseTrainConfig(1, train.period, 2.0 * u)
    (p1, f1), (p2, f2) = synthesis.probability(t1, 0.0), synthesis.probability(t2, 0.0)
    assert abs(p2 - 4.0 * p1) <= 1e-14 * p2
    assert abs(f2 - 4.0 * f1) <= 1e-14 * f2
    e1 = ps.eta(geometry, spectrum, u, tls, 1.0, synthesis)
    e2 = ps.eta(geometry, spectrum, 2.0 * u, tls, 1.0, synthesis)
    assert abs(e2 - np.sqrt(2.0) * e1) <= 1e-14 * e2


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
    """(f of each curve radius alone, f of all in one block, the ends of
    the radii alone, the certified_tail_cutoff calls of the block), for
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
    assert len(set(cutoffs)) == 1  # every radius ends where the block does
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
        ghat, start, step, _, edge = real(spectrum, w0)
        return ghat, start, step, 200.0, edge

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
