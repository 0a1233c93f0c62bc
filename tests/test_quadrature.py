"""The kernel transform - chirp z-transforms for cos/sin sums, blocked
products for J1(x)/x and for grids that are not uniform - against the
loops it replaced.

The reference loops below are the package's former implementations of
chi, the time-domain focal field, the inner emission transform, Filon's
rule (complex exponentials and einsum) and the rephased focal intensity
(one trapezoid per radius). The transforms sum the same terms in
another order, so results agree to float64 rounding: 1e-12 of the
peak, fixed before comparing.
"""

import numpy as np
import pytest
from scipy.constants import c as C, epsilon_0, hbar

import pulsescope as ps
from pulsescope import quadrature
from pulsescope.bessel import j1_over_x
from pulsescope.constants import FIELD_CALIBRATION
from pulsescope.excitation import PulseAreaSynthesis
from pulsescope.focal import _synthesis_grid
from pulsescope.errors import InvalidParameterError, NumericalConvergenceError
from pulsescope.quadrature import (
    _filon_weights,
    _fourier_sum,
    certified_tail_cutoff,
    filon_transform,
    kernel_transform,
    oscillatory_cos_sin,
    refine_until_converged,
    trapezoid_weights,
)

TOL = 1e-12


def _close_to_peak(got, ref):
    peak = np.max(np.abs(ref))
    assert peak > 0
    assert np.max(np.abs(np.asarray(got) - ref)) <= TOL * peak


def reference_chi(geometry, spectrum, pulse_energy, tls, rho, tau):
    n = int(max(4001, 24.0 * spectrum.max_frequency / spectrum.spectral_width)) | 1
    w = spectrum.frequency_grid(n)
    a = geometry.numerical_aperture
    gw = spectrum.value(w) * (a / C) * j1_over_x(a * w * rho / C)
    pref = (tls.dipole_magnitude / hbar * FIELD_CALIBRATION / np.pi
            * np.sqrt(2.0 * pulse_energy / (epsilon_0 * C)))
    out = np.empty(tau.shape)
    chunk = max(1, int(4e6 // w.size))
    for i0 in range(0, tau.size, chunk):
        sl = slice(i0, i0 + chunk)
        phase = np.exp(-1j * np.outer(tau[sl], w))
        out[sl] = np.trapezoid((phase * gw[None, :]).real, w, axis=1)
    return out * pref


def reference_field(geometry, spectrum, pulse_energy, rho, t):
    tau = t - geometry.reference_sphere_radius / C
    w = _synthesis_grid(spectrum, float(np.max(np.abs(tau)))
                        + 1.0 / spectrum.spectral_width)
    a = geometry.numerical_aperture
    kern = 1j * spectrum.value(w) * (a * w / C) * j1_over_x(a * w * rho / C)
    out = np.empty(t.shape)
    chunk = max(1, int(4e6 // w.size))
    for i0 in range(0, tau.size, chunk):
        sl = slice(i0, i0 + chunk)
        phase = np.exp(-1j * np.outer(tau[sl], w))
        out[sl] = np.trapezoid((phase * kern[None, :]).real, w, axis=1)
    return out * np.sqrt(2.0 * pulse_energy / (epsilon_0 * C)) * FIELD_CALIBRATION / np.pi


def reference_oscillatory(t, f, q):
    qs = np.atleast_1d(q)
    out = np.empty(qs.shape, dtype=complex)
    chunk = max(1, int(4e6 // t.size))
    for i0 in range(0, qs.size, chunk):
        sl = slice(i0, i0 + chunk)
        phase = np.exp(1j * np.outer(qs[sl], t))
        out[sl] = np.trapezoid(phase * f[None, :], t, axis=1)
    return out


def reference_filon(t, f, q):
    h = t[1] - t[0]
    qs = np.atleast_1d(np.asarray(q, dtype=float))
    P, Q = _filon_weights(qs * h)
    out = np.empty(qs.shape, dtype=complex)
    chunk = max(1, int(4e6 // t.size))
    for i0 in range(0, qs.size, chunk):
        sl = slice(i0, i0 + chunk)
        phase = np.exp(1j * np.outer(qs[sl], t[:-1]))
        weighted = P[sl, None] * f[None, :-1] + Q[sl, None] * f[None, 1:]
        out[sl] = h * np.einsum("qt,qt->q", phase, weighted)
    return out


def reference_intensity(geometry, spectrum, rhos, n_grid=6001):
    w = spectrum.frequency_grid(n_grid)
    phi = spectrum.value(w)
    a = geometry.numerical_aperture
    out = np.empty(rhos.shape)
    for i, r in enumerate(rhos):
        amp = np.trapezoid(phi * (a * w / C) * j1_over_x(a * w * r / C), w)
        out[i] = np.abs(amp) ** 2
    return out


@pytest.fixture(scope="module")
def scenario():
    spectrum, geometry, tls, train = ps.ScenarioConfig().build()
    return spectrum, geometry, tls, train


@pytest.mark.parametrize("x_units", [0.0, 0.5])
def test_chi_matches_complex_exp_loop(scenario, x_units):
    spectrum, geometry, tls, train = scenario
    rho = x_units * spectrum.mean_wavelength / geometry.numerical_aperture
    # the tau grid f_integral samples: 353 points over 12 pulse widths
    tau = np.linspace(-12.0, 12.0, 353) / spectrum.spectral_width
    chi = PulseAreaSynthesis(geometry, spectrum, train.pulse_energy, tls).chi(rho)
    ref = reference_chi(geometry, spectrum, train.pulse_energy, tls, rho, tau)
    _close_to_peak(chi(tau), ref)
    assert isinstance(chi(float(tau[100])), float)
    assert abs(chi(float(tau[100])) - ref[100]) <= TOL * np.max(np.abs(ref))


@pytest.mark.parametrize("rho", [0.0, 5e-8])
def test_focal_field_time_matches_complex_exp_loop(scenario, rho):
    spectrum, geometry, _, train = scenario
    t_r = geometry.reference_sphere_radius / C
    half = 6.0 / spectrum.spectral_width
    t = np.linspace(t_r - half, t_r + half, 1201)
    got = ps.focal_field_time(geometry, spectrum, train.pulse_energy, rho, t)
    _close_to_peak(got, reference_field(geometry, spectrum, train.pulse_energy,
                                        rho, t))


def test_oscillatory_cos_sin_matches_complex_exp_loop():
    t = np.linspace(-1.2, 1.2, 353)
    real = np.sin(t) * np.exp(-(3.0 * t) ** 2)
    cplx = real * np.exp(0.7j * t)
    q = np.linspace(0.0, 60.0, 257)
    for f in (real, cplx):
        ref = reference_oscillatory(t, f, q)
        _close_to_peak(oscillatory_cos_sin(t, f, q), ref)
        _close_to_peak(oscillatory_cos_sin(t, np.stack([f, 2.0 * f], axis=1), q),
                       np.stack([ref, 2.0 * ref], axis=1))
        scalar = oscillatory_cos_sin(t, f, 7.5)
        assert np.ndim(scalar) == 0
        assert abs(scalar - reference_oscillatory(t, f, 7.5)[0]) <= TOL * np.max(np.abs(ref))


def test_trapezoid_weights_reproduce_numpy():
    x = np.linspace(0.0, 3.0, 101) ** 2  # nonuniform
    y = np.cos(x)
    np.testing.assert_allclose(np.sum(trapezoid_weights(x) * y),
                               np.trapezoid(y, x), rtol=1e-14)


def test_repeated_transforms_give_identical_sums(monkeypatch):
    x = np.linspace(0.0, 5.0, 301)
    y = np.linspace(-2.0, 2.0, 97)
    a, b = np.cos(3 * x), np.exp(-x)
    calls = _watch_chirps(monkeypatch)
    first = kernel_transform(x, y, [(np.cos, a), (np.sin, b)])
    again = kernel_transform(x, y, [(np.cos, a), (np.sin, b)])
    assert np.array_equal(first, again)
    # both terms go through one transform, of one column each
    assert [k for _, _, k in calls] == [2, 2]
    # an all-zero coefficient skips its column
    calls.clear()
    kernel_transform(x, y, [(np.cos, a), (np.sin, np.zeros_like(x))])
    assert [k for _, _, k in calls] == [1]
    # the kept chirps are read-only and give the bits of fresh ones
    w, kernel = quadrature._chirp(0.25, y.size, 400)
    assert not (w.flags.writeable or kernel.flags.writeable)
    quadrature._chirp.cache_clear()
    assert np.array_equal(kernel_transform(x, y, [(np.cos, a), (np.sin, b)]), first)


def test_shared_synthesis_matches_a_fresh_one(scenario):
    # every radius of a curve shares one synthesis; the shared path must
    # give the same bits as a synthesis built for that radius alone
    spectrum, geometry, tls, train = scenario
    tau = np.linspace(-12.0, 12.0, 353) / spectrum.spectral_width
    shared = PulseAreaSynthesis(geometry, spectrum, train.pulse_energy, tls)
    for rho in (0.0, 3e-8, 9e-8):
        fresh = PulseAreaSynthesis(geometry, spectrum, train.pulse_energy, tls).chi(rho)
        assert np.array_equal(shared.chi(rho)(tau), fresh(tau))


def test_filon_transform_matches_complex_exp_loop():
    # demodulated emission integrand: a dressing constant plus a pulse
    t = np.linspace(-1.2, 1.2, 641)
    f = 0.3 + (np.sin(4.0 * t) + 0.5j * t) * np.exp(-(3.0 * t) ** 2)
    q = np.concatenate([[0.0, 1e-3], np.linspace(1.0, 900.0, 301)])
    ref = reference_filon(t, f, q)
    _close_to_peak(filon_transform(t, f, q), ref)
    for k in (0, 2, 150):
        scalar = filon_transform(t, f, q[k])
        assert np.ndim(scalar) == 0
        assert abs(scalar - ref[k]) <= TOL * np.max(np.abs(ref))


def test_focal_intensity_matches_trapezoid_loop(scenario, monkeypatch):
    spectrum, geometry, _, _ = scenario
    rho_max = spectrum.mean_wavelength / geometry.numerical_aperture
    rhos = np.linspace(0.0, rho_max, 33)
    complex_spectrum = ps.make_spectrum(
        lambda w: (1.0 + 0.5j) * w * np.exp(-((w - 3e15) / 2e15) ** 2),
        3e15, 1e15)
    # blocks of 7 radii, so the chunk seams are covered too
    monkeypatch.setattr(quadrature, "CHUNK_ELEMENTS", 7 * 6001)
    for s in (spectrum, complex_spectrum):
        ref = reference_intensity(geometry, s, rhos)
        _close_to_peak(ps.focal_intensity_rephased(geometry, s, rhos), ref)
        scalar = ps.focal_intensity_rephased(geometry, s, float(rhos[5]))
        assert isinstance(scalar, float)
        assert abs(scalar - ref[5]) <= TOL * np.max(ref)


def reference_cos_sin(x, y, a, b):
    """sum_j a_j cos(y_k x_j) + b_j sin(y_k x_j) as the real part of a
    complex-exp sum, for vector or matrix a and b."""
    phase = np.exp(1j * np.outer(y, x))
    return (phase @ (a - 1j * b)).real


def _coefficient_sets(x):
    """(a, b) pairs on x: odd, even and mixed vectors, and two-column
    matrices (real and imaginary part of a complex coefficient, one
    column all zero for a real one)."""
    odd = np.sin(3.0 * x) * np.exp(-x**2)
    even = np.cos(2.0 * x) * np.exp(-x**2)
    cplx = (odd + 0.4j * even) * np.exp(0.7j * x)
    real_pair = np.stack([odd, np.zeros_like(x)], axis=1)
    cplx_pair = np.stack([cplx.real, cplx.imag], axis=1)
    return [(odd, odd), (even, odd), (odd + even, even),
            (real_pair, real_pair[:, ::-1]), (cplx_pair, -cplx_pair[:, ::-1])]


def _watch_chirps(monkeypatch):
    """(x, y, column count) of every chirp z-transform from now on."""
    calls = []
    real_chirp = quadrature._chirp_z

    def counted(x, y, c):
        calls.append((x, y, c.shape[1]))
        return real_chirp(x, y, c)

    monkeypatch.setattr(quadrature, "_chirp_z", counted)
    return calls


def cos_sin(x, y, a, b):
    return kernel_transform(x, y, [(np.cos, a), (np.sin, b)])


@pytest.mark.parametrize("n", [353, 354])
def test_kernel_transform_folds_a_symmetric_sum_axis(monkeypatch, n):
    # a sum axis symmetric about 0, of odd and even length, is summed
    # over its whole grid in one transform per call
    x = np.linspace(-1.2, 1.2, n)
    y = np.linspace(0.0, 60.0, 257)
    calls = _watch_chirps(monkeypatch)
    for a, b in _coefficient_sets(x):
        _close_to_peak(cos_sin(x, y, a, b), reference_cos_sin(x, y, a, b))
    assert len(calls) == len(_coefficient_sets(x))
    assert all(np.array_equal(gx, x) for gx, _, _ in calls)


@pytest.mark.parametrize("n", [353, 354])
def test_kernel_transform_mirrors_a_symmetric_output_axis(monkeypatch, n):
    # an output axis symmetric about 0 is evaluated over its whole grid,
    # y < 0 included
    x = np.linspace(0.0, 3.0, 301)
    y = np.linspace(-40.0, 40.0, n)
    calls = _watch_chirps(monkeypatch)
    for a, b in _coefficient_sets(x):
        _close_to_peak(cos_sin(x, y, a, b), reference_cos_sin(x, y, a, b))
    assert len(calls) == len(_coefficient_sets(x))
    assert all(np.array_equal(gy, y) for _, gy, _ in calls)


def reference_fourier(x, y, c):
    """sum_j c_j e^{i y_k x_j} by complex exponentials."""
    return np.exp(1j * np.outer(np.atleast_1d(y), x)) @ c


def _columns(x, y):
    """A complex column with its content inside y's range, a zero column
    and a real one."""
    centre, span = 0.5 * (x[0] + x[-1]), abs(x[-1] - x[0])
    pulse = np.exp(-((x - centre) / (0.2 * span)) ** 2 - 1j * np.median(y) * x)
    return np.stack([pulse, np.zeros_like(x), pulse.real], axis=1)


@pytest.mark.parametrize("x, y", [
    # m = 1 and n = 2: fewer than MIN_CHIRP_POINTS, summed as blocks
    (np.linspace(-1.2, 1.2, 353), np.array([7.5])),
    (np.array([0.3, 0.9]), np.linspace(-5.0, 5.0, 11)),
    (np.linspace(-1.2, 1.2, 353), np.linspace(5.0, 9.0, 12)),  # m = 12
    (np.linspace(1.2, -1.2, 353), np.linspace(60.0, -3.0, 200)),  # descending
    (np.linspace(3.0, 5.0, 401), np.linspace(100.0, 160.0, 301)),  # offsets
    # phases y x up to 2500 rad, 30 times figure 1b's
    (np.linspace(0.0, 1.0, 4001), np.linspace(0.0, 2500.0, 1001)),
    # chirp phases a k^2 / 2 up to 7.5e5 rad on grids of unlike length
    (np.linspace(0.0, 1.0, 20001), np.linspace(0.0, 300.0, 5)),
    (np.linspace(0.0, 300.0, 5), np.linspace(0.0, 1.0, 20001)),
])
def test_chirp_z_matches_complex_exp_sums(x, y):
    c = _columns(x, y)
    chirp = min(x.size, y.size) >= quadrature.MIN_CHIRP_POINTS
    assert (quadrature._chirp_z(x, y, c) is not None) == chirp
    got = _fourier_sum(x, y, c)
    _close_to_peak(got, reference_fourier(x, y, c))
    assert not got[:, 1].any()  # a zero column stays exactly zero
    for k in (0, 2):
        scalar = _fourier_sum(x, float(y[-1]), c[:, k])
        assert np.ndim(scalar) == 0
        assert abs(scalar - reference_fourier(x, y[-1], c[:, k])[0]) <= (
            TOL * np.max(np.abs(reference_fourier(x, y, c))))


def test_chirp_z_corrects_a_jittered_output_grid():
    # tau = (t_r + s) - t_r, as focal_field_time forms it, leaves its line
    # by about 1e-8 of a step; uncorrected that moves the sums by ~1e-8
    t_r = 3.3356409519815204e-09
    tau = (t_r + np.linspace(-2e-14, 2e-14, 1201)) - t_r
    w = np.linspace(0.0, 2e16, 4001)
    c = w * np.exp(-((w - 1e16) / 3e15) ** 2)
    assert not quadrature._line(tau)[3]
    _close_to_peak(_fourier_sum(w, tau, c), reference_fourier(w, tau, c))
    _close_to_peak(kernel_transform(w, tau, [(np.cos, c)]),
                   reference_cos_sin(w, tau, c, 0.0 * c))


def test_grids_that_are_not_uniform_fall_back_to_blocks(monkeypatch):
    uniform = np.linspace(0.0, 3.0, 101)
    y = np.linspace(0.0, 20.0, 257)
    # a bent grid, and a jitter 30 times past what is corrected
    cases = [(uniform**2 / 3.0, y), (uniform, y + 1e-6 * np.sin(y))]
    # several blocks per call, so the chunk seams are covered too
    monkeypatch.setattr(quadrature, "CHUNK_ELEMENTS", 20 * uniform.size)
    built = []
    real_block = quadrature._trig_block

    def counted(x, ys, i0, kernel):
        built.append(kernel.__name__)
        return real_block(x, ys, i0, kernel)

    monkeypatch.setattr(quadrature, "_trig_block", counted)
    for x, ys in cases:
        c = _columns(x, ys)
        assert quadrature._chirp_z(x, ys, c) is None
        _close_to_peak(_fourier_sum(x, ys, c), reference_fourier(x, ys, c))
        real = c[:, 2].real
        _close_to_peak(cos_sin(x, ys, real, real),
                       reference_cos_sin(x, ys, real, real))
    assert {"cos", "sin"} <= set(built)


def test_filon_transform_rejects_a_grid_that_is_not_uniform():
    t = np.linspace(-1.2, 1.2, 641)
    f = 0.3 + np.sin(4.0 * t) * np.exp(-(3.0 * t) ** 2)
    bent = t + 0.05 * t**3          # still increasing
    with pytest.raises(InvalidParameterError, match="uniform"):
        filon_transform(bent, f, 5.0)
    # a grid uniform to rounding is accepted
    rounded = (t + 3.0) - 3.0
    assert not np.array_equal(rounded, t)
    _close_to_peak(filon_transform(rounded, f, 5.0), reference_filon(t, f, 5.0))


def test_refinement_stops_at_the_first_non_finite_value():
    for values in ([np.nan], [1.0, np.inf], [1.0, 2.0, np.nan]):
        calls = []

        def evaluate(n):
            calls.append(n)
            return values[len(calls) - 1]

        with pytest.raises(NumericalConvergenceError, match="not finite"):
            refine_until_converged(evaluate, 11, what="moment")
        assert len(calls) == len(values)
    with pytest.raises(NumericalConvergenceError,
                       match=r"last_change=0\.4, n_final=") as err:
        refine_until_converged(lambda n: float(n), 3, max_doublings=1)
    assert type(err.value.diagnostics["last_change"]) is float


def test_cutoff_columns_stop_where_each_stops_alone():
    # each column of a matrix integrand stops, and takes its doubled tail,
    # at its own panel, with the bits it has alone
    rates = np.array([1.0, 0.3, 2.0, 0.3])

    def columns(x):
        return x[:, None] ** 3 * np.exp(-np.outer(x, rates))

    cutoff, total = certified_tail_cutoff(columns, 2.0, 4.0, 1e-6)
    assert len(set(cutoff.tolist())) == 3
    for j, rate in enumerate(rates):
        def alone(x, rate=rate):
            return x**3 * np.exp(-rate * x)

        c, v = certified_tail_cutoff(alone, 2.0, 4.0, 1e-6)
        assert np.ndim(c) == 0 and np.ndim(v) == 0
        assert cutoff[j] == c and total[j] == v
    np.testing.assert_allclose(total, 6.0 / rates**4, rtol=1e-5)


def test_cutoff_in_a_gap_fails_its_doubled_tail():
    # a second band past the first quiet panel: the stop rule cuts off in
    # the gap, and the tail over [cutoff, 2 cutoff] finds the band
    def two_bands(x):
        return np.exp(-x**2) + np.exp(-4.0 * (x - 14.0)**2)

    with pytest.raises(NumericalConvergenceError,
                       match=r"test integral not converged at its cutoff "
                             r"\[cutoff=8\.0, relative_tail="):
        certified_tail_cutoff(two_bands, 8.0, 4.0, 1e-6, what="test integral")
    cutoff, total = certified_tail_cutoff(two_bands, 14.0, 4.0, 1e-6)
    assert cutoff == 18.0
    np.testing.assert_allclose(total, np.sqrt(np.pi), rtol=1e-9)


def test_cutoff_stops_at_the_first_non_finite_sample():
    # the third panel, [6, 10], turns inf past 9: no running peak can be
    # certified against it, so the cutoff raises there
    edges = []

    def overflowing(x):
        edges.append(x[-1])
        return np.where(x > 9.0, np.inf, x)[:, None] * np.ones(2)

    with pytest.raises(NumericalConvergenceError,
                       match=r"test integral is not finite \[at=9\.015625\]"):
        certified_tail_cutoff(overflowing, 2.0, 4.0, 1e-6, what="test integral")
    assert edges == [2.0, 6.0, 10.0]


def test_cutoff_samples_a_long_first_panel_at_the_step_resolution():
    # a band 0.01 wide at 10, inside a first panel of 12: 257 points
    # would space it 4.7 widths apart, and step/128 spaces it 0.8 apart
    def narrow(x):
        return np.exp(-0.5 * ((x - 10.0) / 0.01) ** 2)

    cutoff, total = certified_tail_cutoff(narrow, 12.0, 1.0, 1e-6)
    assert cutoff == 12.0
    np.testing.assert_allclose(total, 0.01 * np.sqrt(2.0 * np.pi), rtol=1e-9)
