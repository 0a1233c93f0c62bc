"""Exact driven-TLS propagation and first-order emission probability.

The oracle is certified here three ways: exactly solvable limits, grid
refinement, and an independent second-order perturbative evaluation of
the emission amplitude. The measured oracle-vs-analytic deviations are
frozen as regressions; the headline equivalence targets are exercised in
test_acceptance.py.
"""

import json
from dataclasses import asdict, replace

import numpy as np
import pytest
from scipy.constants import hbar

import pulsescope as ps
from pulsescope import oracle
from pulsescope.errors import (
    GridRangeError,
    InvalidParameterError,
    NumericalConvergenceError,
)
from pulsescope.excitation import PulseAreaSynthesis, _photon_band
from pulsescope.scenario import _oracle_single, oracle_compare

W0 = 2.0e15


def _gaussian_drive(amplitude, width, center=0.0):
    def drive(t):
        x = (np.asarray(t, dtype=float) - center) * width
        return amplitude * x * np.exp(-(x**2)) * np.exp(0.5)
    return drive


@pytest.fixture(scope="module")
def physical_run():
    """Worked-scenario-anchored oracle drive at width/carrier = 10, eta small."""
    cfg = ps.ScenarioConfig()
    spectrum, geometry, tls, _ = cfg.build()
    s = ps.make_gaussian_spectrum(tls.transition_frequency,
                                  10 * tls.transition_frequency)
    e1 = ps.eta(geometry, s, cfg.pulse_energy_J, tls)
    u = cfg.pulse_energy_J * (0.05 / e1) ** 2
    half = 8.0 / s.spectral_width
    grid = ps.default_time_grid(s.spectral_width, tls.transition_frequency,
                                -half, half)
    dh = tls.dipole_magnitude / hbar

    def drive(t):
        return -dh * ps.focal_field_time(geometry, s, u, 0.0, t)

    history = ps.propagate_driven_tls(drive, grid, tls.transition_frequency)
    return history, drive, grid, tls, s


def _edge(spectrum, tls):
    """The photon-frequency support edge (rad/s) of a spectrum's emission."""
    w0 = tls.transition_frequency
    return _photon_band(spectrum, w0)[4] * w0


def test_free_evolution():
    grid = np.linspace(0.0, 40.0 / W0, 4001)
    h = ps.propagate_driven_tls(lambda t: np.zeros_like(np.asarray(t)), grid, W0)
    t_span = grid[-1] - grid[0]
    expect = np.array([[np.exp(-1j * W0 * t_span), 0.0], [0.0, 1.0]])
    assert np.max(np.abs(h.final - expect)) < 1e-10
    assert ps.oracle_c0(h) == 0.0


def test_resonant_rabi_rotation():
    # constant drive with w0 = 0: |<e|U|g>|^2 = sin^2(Omega t). The stepper
    # needs a nonzero carrier for its grid check, so use a tiny one and
    # compare against the exact two-level solution.
    omega = 3.0e13
    grid = np.linspace(0.0, 3e-14, 30001)
    w0 = 1.0  # effectively zero on these time scales
    h = ps.propagate_driven_tls(lambda t: np.full(np.shape(t), omega), grid, w0)
    amp = h.final[0, 1]
    np.testing.assert_allclose(abs(amp) ** 2,
                               np.sin(omega * grid[-1]) ** 2, atol=1e-8)


def _composition_defect(history, n_samples=16):
    """max |U(t2,t0) - U(t2,t1) U(t1,t0)| over sampled triples."""
    n = len(history.times)
    worst = 0.0
    for j in np.linspace(1, n - 2, n_samples).astype(int):
        u10 = history.propagators[j]
        u20 = history.propagators[-1]
        u21 = u20 @ u10.conj().T
        worst = max(worst, float(np.max(np.abs(u21 @ u10 - u20))))
    return worst


def test_unitarity_and_composition(physical_run):
    history, *_ = physical_run
    assert history.unitarity_defect() < 1e-10
    assert _composition_defect(history) < 1e-8


def _one_step(t0, t1, om0, om1, w0):
    """The midpoint-exponential step from t0 to t1, built alone."""
    h = (t1 - t0) * w0
    om_mid = 0.5 * (om1 + om0) / w0
    a = np.sqrt(om_mid * om_mid + 0.25)
    c, s = np.cos(a * h), np.sin(a * h)
    nx, nz = om_mid / a, 0.5 / a
    return np.exp(-0.5j * h) * np.array(
        [[c - 1j * s * nz, -1j * s * nx], [-1j * s * nx, c + 1j * s * nz]])


def _step_loop(grid, om, w0):
    """U(t_j, t_0) by one 2x2 product per step, the later step on the left
    (the steps built as one array, by the formula of `_one_step`)."""
    h = np.diff(grid) * w0
    om_mid = 0.5 * (om[1:] + om[:-1]) / w0
    a = np.sqrt(om_mid * om_mid + 0.25)
    c, s, nx, nz = np.cos(a * h), np.sin(a * h), om_mid / a, 0.5 / a
    steps = np.exp(-0.5j * h)[:, None, None] * np.moveaxis(np.array(
        [[c - 1j * s * nz, -1j * s * nx], [-1j * s * nx, c + 1j * s * nz]]), -1, 0)
    props = np.empty((grid.size, 2, 2), dtype=complex)
    props[0] = np.eye(2)
    for j, step in enumerate(steps):
        props[j + 1] = step @ props[j]
    return props


def test_steps_match_the_one_step_loop(physical_run):
    # the steps are built as one array, each with the bits of the step
    # built alone (U(t_1, t_0) is the first step); the prefix scan
    # reassociates their products, so U agrees with the loop to rounding
    history, drive, grid, tls, _ = physical_run
    w0 = tls.transition_frequency
    om = drive(grid)
    assert np.array_equal(history.propagators[1],
                          _one_step(grid[0], grid[1], om[0], om[1], w0))
    assert np.max(np.abs(history.propagators - _step_loop(grid, om, w0))) < 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_prefix_scan_matches_the_step_loop_on_random_drives(seed):
    # random drives of up to a third of the carrier on 3 to 700 points,
    # and nonuniform steps
    rng = np.random.default_rng(seed)
    for n in (3, 4, 5, 17, 64, 65, 700):
        grid = np.cumsum(rng.uniform(0.2, 1.0, n)) * 2.0 * np.pi / (20.0 * W0)
        om = rng.uniform(-W0 / 3.0, W0 / 3.0, n)
        h = ps.propagate_driven_tls(lambda t: om, grid, W0)
        assert np.max(np.abs(h.propagators - _step_loop(grid, om, W0))) < 1e-12


def test_prefix_scan_matches_the_step_loop_on_a_pulse_train():
    # four pulses at width/carrier 10, two carrier periods apart (the
    # oracle's resonant period there), on one grid of 15,720 steps
    width, period = 10.0 * W0, 2.0 * 2.0 * np.pi / W0
    grid = ps.default_time_grid(width, W0, -8.0 / width, 3 * period + 8.0 / width)
    assert grid.size > 10_001
    om = sum(_gaussian_drive(0.2 * W0, width, k * period)(grid) for k in range(4))
    h = ps.propagate_driven_tls(lambda t: om, grid, W0)
    assert np.max(np.abs(h.propagators - _step_loop(grid, om, W0))) < 1e-12


def _einsum_unitarity_defect(u):
    """max |U U^dag - 1| over the (n, 2, 2) stack, by einsum (the former
    `PropagatorHistory.unitarity_defect`)."""
    prod = np.einsum("nij,nkj->nik", u, u.conj())
    prod[:, 0, 0] -= 1.0
    prod[:, 1, 1] -= 1.0
    return float(np.max(np.abs(prod)))


def _einsum_emission_matrix_element(u):
    """m_j = [U_final U_j^dag sigma_x U_j]_{eg} by einsum (the former
    `_emission_core`)."""
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    w = np.einsum("ij,njk->nik", u[-1], u.conj().transpose(0, 2, 1))
    return np.einsum("nij,jk,nkl->nil", w, sigma_x, u)[:, 0, 1]


def test_element_wise_algebra_matches_einsum(physical_run):
    history, *_ = physical_run
    u = history.propagators
    n, e0, gg = oracle._emission_core(history)
    m = _einsum_emission_matrix_element(u)
    ref = m * np.exp(-1j * history.transition_frequency * history.times)
    assert np.max(np.abs(n - ref)) <= 1e-14 * np.max(np.abs(ref))
    assert (e0, gg) == (u[-1, 0, 0], u[-1, 1, 1])
    # within 1e-14 of U U^dag - 1 on the history (a defect of rounding, 1e-13)
    # and on a stack drifted from unitarity by 1e-9
    rng = np.random.default_rng(3)
    drifted = u * (1.0 + 1e-9 * rng.standard_normal(u.shape))
    for stack in (u, drifted):
        got = oracle.PropagatorHistory(history.times, stack, history.transition_frequency,
                                       history.drive_values).unitarity_defect()
        want = _einsum_unitarity_defect(stack)
        assert abs(got - want) <= 1e-14
    assert _einsum_unitarity_defect(drifted) > 1e-10


def test_step_refinement(physical_run):
    history, drive, grid, tls, s = physical_run
    fine = ps.default_time_grid(s.spectral_width, tls.transition_frequency,
                                grid[0], grid[-1], grid_scale=2.0)
    h2 = ps.propagate_driven_tls(drive, fine, tls.transition_frequency)
    assert abs(h2.final[0, 1] - history.final[0, 1]) < 1e-8


def test_grid_validation():
    with pytest.raises(InvalidParameterError):
        ps.propagate_driven_tls(lambda t: np.zeros_like(t), np.array([0.0]), W0)
    coarse = np.linspace(0.0, 1e-13, 5)
    with pytest.raises(NumericalConvergenceError):
        ps.propagate_driven_tls(lambda t: np.zeros_like(t), coarse, W0)


def test_grid_that_does_not_increase_raises():
    grid = np.array([0.0, 1e-17, 1e-17, 2e-17])
    with pytest.raises(InvalidParameterError, match="increase strictly"):
        ps.propagate_driven_tls(lambda t: np.zeros_like(t), grid, W0)


def test_unitarity_drift_raises(monkeypatch):
    # a defect is >= 0, so even an exactly unitary run reaches the raise
    monkeypatch.setattr(oracle, "UNITARITY_TOL", -1.0)
    grid = np.linspace(0.0, 1e-15, 21)
    with pytest.raises(NumericalConvergenceError, match="unitarity drift"):
        ps.propagate_driven_tls(lambda t: np.zeros_like(t), grid, W0)


def test_oracle_probability_rejects_another_transition():
    grid = np.linspace(0.0, 1e-15, 21)
    history = ps.propagate_driven_tls(lambda t: np.zeros_like(t), grid, W0)
    with pytest.raises(InvalidParameterError, match="transition frequency"):
        ps.oracle_excitation_probability(history, ps.TwoLevelSystem(2.0 * W0, 1e8), 10.0 * W0)


def test_zero_drive_emission_amplitude_vanishes():
    grid = np.linspace(-20.0 / W0, 20.0 / W0, 8001)
    h = ps.propagate_driven_tls(lambda t: np.zeros_like(np.asarray(t)), grid, W0)
    qs = np.array([0.1, 1.0, 5.0, 20.0]) * W0
    m = ps.oracle_emission_amplitude(h, qs)
    # analytic tails cancel the window integral exactly for free evolution
    assert np.max(np.abs(m)) < 1e-12 / W0


def test_emission_amplitude_requires_decayed_drive():
    grid = np.linspace(-1.0 / W0, 1.0 / W0, 2001)
    drive = _gaussian_drive(0.05 * W0, W0)  # width ~ carrier: not decayed
    h = ps.propagate_driven_tls(drive, grid, W0)
    with pytest.raises(GridRangeError):
        ps.oracle_emission_amplitude(h, W0)


def test_emission_on_a_grid_that_is_not_uniform_raises():
    # Filon's rule takes its step from the first two points; a bent grid
    # that the propagator accepts must not give a silently wrong amplitude
    grid = np.linspace(-20.0 / W0, 20.0 / W0, 8001)
    bent = grid * (1.0 + 1e-3 * (W0 * grid) ** 2)
    drive = _gaussian_drive(0.05 * W0, 0.5 * W0)
    h = ps.propagate_driven_tls(drive, bent, W0)
    tls = ps.TwoLevelSystem(W0, 1e8)
    with pytest.raises(InvalidParameterError, match="uniform"):
        ps.oracle_emission_amplitude(h, W0)
    with pytest.raises(InvalidParameterError, match="uniform"):
        ps.oracle_excitation_probability(h, tls, 20.0 * W0)
    with pytest.raises(InvalidParameterError, match="uniform"):
        ps.second_order_emission_amplitude(drive, bent, W0, W0)


def test_emission_amplitude_positive_frequencies_only(physical_run):
    history, *_ = physical_run
    with pytest.raises(InvalidParameterError):
        ps.oracle_emission_amplitude(history, -W0)


def test_second_order_cross_check(physical_run):
    # independent weak-field evaluation agrees pointwise at small area
    history, drive, grid, tls, s = physical_run
    w0 = tls.transition_frequency
    qs = np.array([0.3, 0.5, 1.0, 2.0, 3.0]) * s.spectral_width
    m_oracle = ps.oracle_emission_amplitude(history, qs)
    m_pert = ps.second_order_emission_amplitude(drive, grid, w0, qs)
    # global phase between the two pictures is e^{-i w0 t_end}
    np.testing.assert_allclose(np.abs(m_oracle) ** 2, np.abs(m_pert) ** 2,
                               rtol=2e-2)
    phases = np.angle(m_oracle / m_pert)
    assert np.max(np.abs(phases - phases[0])) < 1e-6


def test_c0_suppression_with_width(physical_run):
    cfg = ps.ScenarioConfig()
    spectrum, geometry, tls, _ = cfg.build()
    w0 = tls.transition_frequency
    dh = tls.dipole_magnitude / hbar
    c0s = []
    for ratio in (3.0, 10.0, 30.0):
        s = ps.make_gaussian_spectrum(w0, ratio * w0)
        e1 = ps.eta(geometry, s, cfg.pulse_energy_J, tls)
        u = cfg.pulse_energy_J * (0.3 / e1) ** 2
        half = 8.0 / s.spectral_width
        grid = ps.default_time_grid(s.spectral_width, w0, -half, half)
        drive = lambda t: -dh * ps.focal_field_time(geometry, s, u, 0.0, t)
        h = ps.propagate_driven_tls(drive, grid, w0)
        c0s.append(abs(ps.oracle_c0(h)) ** 2)
        # suppression relative to the peak transient excitation
        transient = np.max(np.abs(h.propagators[:, 0, 1]) ** 2)
        assert c0s[-1] < transient / 10.0
    assert c0s[0] > c0s[1] > c0s[2]


def test_oracle_probability_eta_scaling(physical_run):
    history, drive, grid, tls, s = physical_run
    p1 = ps.oracle_excitation_probability(history, tls, _edge(s, tls))

    def half_drive(t):
        return 0.5 * drive(t)

    h2 = ps.propagate_driven_tls(half_drive, grid, tls.transition_frequency)
    p2 = ps.oracle_excitation_probability(h2, tls, _edge(s, tls))
    np.testing.assert_allclose(p1 / p2, 16.0, rtol=5e-3)


def test_oracle_probability_sign_flip(physical_run):
    history, drive, grid, tls, s = physical_run
    h2 = ps.propagate_driven_tls(lambda t: -drive(t), grid,
                                 tls.transition_frequency)
    p1 = ps.oracle_excitation_probability(history, tls, _edge(s, tls))
    p2 = ps.oracle_excitation_probability(h2, tls, _edge(s, tls))
    np.testing.assert_allclose(p1, p2, rtol=1e-10)


def test_oracle_probability_zero_drive():
    grid = np.linspace(-20.0 / W0, 20.0 / W0, 8001)
    h = ps.propagate_driven_tls(lambda t: np.zeros_like(np.asarray(t)), grid, W0)
    tls = ps.TwoLevelSystem(W0, 1e-6 * W0)
    assert ps.oracle_excitation_probability(h, tls, 20.0 * W0) < 1e-30


def test_oracle_vs_analytic_regression():
    # measured deviations of the sudden/weak-field chain from the exact
    # first-order dynamics (the headline targets live in acceptance)
    cfg = ps.ScenarioConfig()
    r10 = _oracle_single(cfg, cfg.build(), 10.0, 0.05)
    r30 = _oracle_single(cfg, cfg.build(), 30.0, 0.05)
    np.testing.assert_allclose(r10.relative_deviation, 0.820, atol=0.02)
    np.testing.assert_allclose(r30.relative_deviation, 0.833, atol=0.02)
    assert r10.flags["first_order_trust"]
    assert r30.flags["first_order_trust"]


def test_oracle_train_linearity():
    cfg = ps.ScenarioConfig()
    r1 = _oracle_single(cfg, cfg.build(), 10.0, 0.05, n_pulses=1)
    r2 = _oracle_single(cfg, cfg.build(), 10.0, 0.05, n_pulses=2)
    np.testing.assert_allclose(r2.p_e_oracle / r1.p_e_oracle, 2.0, rtol=5e-2)
    np.testing.assert_allclose(r2.p_e_analytic / r1.p_e_analytic, 2.0,
                               rtol=1e-9)


def test_oracle_row_takes_p_e_from_the_reference_synthesis():
    # the row's p_e_analytic is the synthesis that gives its eta, asked
    # for p_e at the row's pulse energy (the period does not enter p_e)
    cfg = ps.ScenarioConfig()
    _, geometry, tls, _ = cfg.build()
    w0 = tls.transition_frequency
    spectrum = ps.make_gaussian_spectrum(w0, 10.0 * w0)
    u_ref = cfg.pulse_energy_J
    reference = PulseAreaSynthesis(geometry, spectrum, u_ref, tls, cfg.grid_scale)
    ratio = 0.05 / ps.eta(geometry, spectrum, u_ref, tls, cfg.grid_scale, reference)
    train = ps.PulseTrainConfig(1, 1.0, u_ref * (ratio * ratio))
    row = _oracle_single(cfg, cfg.build(), 10.0, 0.05)
    assert row.p_e_analytic == reference.probability(train, 0.0)[0]


def test_oracle_converges_at_second_order():
    # p_e_oracle at grid scales 1, 2 and 4: each halving of the time step
    # shrinks the change fourfold (measured 3.99), so grid scale 1 is
    # about 0.3% below the limit at this width
    cfg = ps.ScenarioConfig()
    p1, p2, p4 = (_oracle_single(replace(cfg, grid_scale=g), cfg.build(), 10.0, 0.05).p_e_oracle
                  for g in (1.0, 2.0, 4.0))
    assert 3.5 <= (p2 - p1) / (p4 - p2) <= 4.5


def test_oracle_time_grid_is_never_coarser_than_grid_scale_1():
    # a coarser time step biases p_e_oracle low (26% at grid scale 0.1),
    # so below grid scale 1 the oracle keeps the time grid of scale 1
    cfg = ps.ScenarioConfig()
    p1 = _oracle_single(cfg, cfg.build(), 10.0, 0.05).p_e_oracle
    for g in (0.1, 0.3):
        got = _oracle_single(replace(cfg, grid_scale=g), cfg.build(), 10.0, 0.05).p_e_oracle
        assert abs(got - p1) <= 1e-10 * p1
    grid = ps.default_time_grid(10.0 * W0, W0, -1e-15, 1e-15)
    assert np.array_equal(ps.default_time_grid(10.0 * W0, W0, -1e-15, 1e-15, 0.1),
                          grid)


def test_oracle_report_json(tmp_path):
    # the report `oracle` writes reads back to the row's own record
    cfg = ps.ScenarioConfig(output_dir=str(tmp_path))
    oracle_compare(cfg, [(10.0, 0.05)])
    rep = _oracle_single(cfg, cfg.build(), 10.0, 0.05)
    data = json.loads((tmp_path / "oracle_report_0.json").read_text())
    assert data == asdict(rep)


def test_oracle_probability_unreachable_floor_raises(physical_run,
                                                    monkeypatch):
    history, _, _, tls, s = physical_run
    monkeypatch.setattr(oracle, "REL_FLOOR", 0.0)
    with pytest.raises(NumericalConvergenceError, match="cutoff not reached"):
        ps.oracle_excitation_probability(history, tls, _edge(s, tls))
