"""The Fourier sum - a chirp z-transform between uniform grids, blocks of
complex exponentials otherwise - and the radius blocks of the focal
intensity's Airy-weighted sums, against the loops they replaced.

The reference loops below are the package's former implementations of
chi, the time-domain focal field, the inner emission transform, Filon's
rule (complex exponentials and einsum), the rephased focal intensity
(one trapezoid per radius) and the certified cutoff (one integrand call
per panel). The transforms sum the same terms in
another order, so results agree to float64 rounding: 1e-12 of the
peak, fixed before comparing.
"""

import numpy as np
import pytest
from scipy.constants import c as C, epsilon_0, hbar

import pulsescope as ps
from pulsescope import focal, quadrature
from pulsescope.bessel import j1_over_x
from pulsescope.constants import FIELD_CALIBRATION
from pulsescope.excitation import PulseAreaSynthesis
from pulsescope.focal import SPECTRUM_REACH, _band_points
from pulsescope.errors import InvalidParameterError, NumericalConvergenceError
from pulsescope.quadrature import (
    _filon_weights,
    certified_tail_cutoff,
    filon_transform,
    fourier_sum,
    oscillatory_cos_sin,
    refine_until_converged,
    trapezoid_weights,
)

TOL = 1e-12


def _close_to_peak(got, ref):
    peak = np.max(np.abs(ref))
    assert peak > 0
    assert np.max(np.abs(np.asarray(got) - ref)) <= TOL * peak


def reference_chi(geometry, spectrum, pulse_energy, tls, rho, tau, w):
    # on the synthesis' own grid w: the phased spectrum breaks
    # phi(-w) = conj(phi(w)), so its chi converges only as h^2, and this
    # checks the transform, not the grid
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
    # on the grid of the production sum: this checks the transform; t is
    # counted from the rephasing instant
    a = geometry.numerical_aperture
    reach = (float(np.max(np.abs(t))) + a * rho / C
             + SPECTRUM_REACH / spectrum.spectral_width)
    w = spectrum.frequency_grid(_band_points(spectrum, reach, 1.0))
    kern = 1j * spectrum.value(w) * (a * w / C) * j1_over_x(a * w * rho / C)
    out = np.empty(t.shape)
    chunk = max(1, int(4e6 // w.size))
    for i0 in range(0, t.size, chunk):
        sl = slice(i0, i0 + chunk)
        phase = np.exp(-1j * np.outer(t[sl], w))
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


def phased(spectrum):
    """The spectrum times 1 + 0.5i: a real part beside the imaginary one,
    so a sign error that chi^2 hides, or a dropped conj, shows."""
    return ps.make_spectrum(lambda w: (1.0 + 0.5j) * spectrum._shape(w),
                            spectrum.carrier_frequency, spectrum.spectral_width)


def _with_phased(values):
    """(value, False) with the value's own id, then (value, True) for the
    phased spectrum."""
    return ([pytest.param(v, False, id=str(v)) for v in values]
            + [pytest.param(v, True, id=f"{v}-phased") for v in values])


@pytest.mark.parametrize("x_units, with_phase", _with_phased([0.0, 0.5]))
def test_chi_matches_complex_exp_loop(scenario, x_units, with_phase):
    spectrum, geometry, tls, train = scenario
    if with_phase:
        spectrum = phased(spectrum)
    rho = x_units * spectrum.mean_wavelength / geometry.numerical_aperture
    # the tau grid f_integral samples: 353 points over 12 pulse widths
    tau = np.linspace(-12.0, 12.0, 353) / spectrum.spectral_width
    synthesis = PulseAreaSynthesis(geometry, spectrum, train.pulse_energy, tls)
    chi = synthesis.chi(rho)
    ref = reference_chi(geometry, spectrum, train.pulse_energy, tls, rho, tau,
                        synthesis.frequencies)
    _close_to_peak(chi(tau), ref)
    assert isinstance(chi(float(tau[100])), float)
    assert abs(chi(float(tau[100])) - ref[100]) <= TOL * np.max(np.abs(ref))


@pytest.mark.parametrize("rho, with_phase", _with_phased([0.0, 5e-8]))
def test_focal_field_time_matches_complex_exp_loop(scenario, rho, with_phase):
    spectrum, geometry, _, train = scenario
    if with_phase:
        spectrum = phased(spectrum)
    half = 6.0 / spectrum.spectral_width
    t = np.linspace(-half, half, 1201)
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
    c = np.stack([np.cos(3 * x), -1j * np.exp(-x)], axis=1)
    calls = _watch_chirps(monkeypatch)
    first = fourier_sum(x, y, c)
    again = fourier_sum(x, y, c)
    assert np.array_equal(first, again)
    # both columns go through one transform per call
    assert [k for _, _, k in calls] == [2, 2]
    # the kept chirps are read-only and give the bits of fresh ones
    w, kernel = quadrature._chirp(0.25, y.size, 400)
    assert not (w.flags.writeable or kernel.flags.writeable)
    quadrature._chirp.cache_clear()
    assert np.array_equal(fourier_sum(x, y, c), first)


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
    # blocks of 7 radii, each one J1(x)/x array of the Airy-weighted
    # spectrum's sums, so the chunk seams are covered too
    monkeypatch.setattr(focal, "_chunk", lambda x: 7)
    blocks = []
    real_j1 = focal.j1_over_x

    def recorded(x):
        if np.ndim(x) == 2:
            blocks.append(np.shape(x))
        return real_j1(x)

    monkeypatch.setattr(focal, "j1_over_x", recorded)
    for s in (spectrum, complex_spectrum):
        ref = reference_intensity(geometry, s, rhos)
        blocks.clear()
        _close_to_peak(ps.focal_intensity_rephased(geometry, s, rhos), ref)
        # the first grid holds the band A rho / c + 8 / G four times over,
        # rho at least a mean wavelength over A, and each refinement takes
        # n -> 2n - 1
        reach = max(rho_max * geometry.numerical_aperture,
                    s.mean_wavelength) / C + 8.0 / s.spectral_width
        n = int(np.ceil(4.0 * s.max_frequency * reach / (2.0 * np.pi)) + 1) | 1
        grids = []
        while len(grids) < len(blocks):
            grids += [(7, n)] * 4 + [(5, n)]
            n = 2 * n - 1
        assert len(grids) >= 10 and blocks == grids
        scalar = ps.focal_intensity_rephased(geometry, s, float(rhos[5]))
        assert isinstance(scalar, float)
        assert abs(scalar - ref[5]) <= TOL * np.max(ref)


def _coefficient_sets(x):
    """Coefficients on x: complex vectors whose real and imaginary parts
    are odd, even or mixed, and two-column matrices (a real column beside
    an imaginary one, a complex one beside its parts swapped)."""
    odd = np.sin(3.0 * x) * np.exp(-x**2)
    even = np.cos(2.0 * x) * np.exp(-x**2)
    cplx = (odd + 0.4j * even) * np.exp(0.7j * x)
    return [odd - 1j * odd, even - 1j * odd, odd + even - 1j * even,
            np.stack([odd, -1j * odd], axis=1),
            np.stack([cplx, cplx.imag + 1j * cplx.real], axis=1)]


def _watch_chirps(monkeypatch):
    """(x, y, column count) of every chirp z-transform from now on."""
    calls = []
    real_chirp = quadrature._chirp_z

    def counted(x, y, c):
        calls.append((x, y, c.shape[1]))
        return real_chirp(x, y, c)

    monkeypatch.setattr(quadrature, "_chirp_z", counted)
    return calls


def reference_fourier(x, y, c):
    """sum_j c_j e^{i y_k x_j} by complex exponentials."""
    return np.exp(1j * np.outer(np.atleast_1d(y), x)) @ c


@pytest.mark.parametrize("n", [353, 354])
def test_chirp_z_sums_a_symmetric_sum_axis_in_one_transform(monkeypatch, n):
    # a sum axis symmetric about 0, of odd and even length, is summed
    # over its whole grid in one transform per call
    x = np.linspace(-1.2, 1.2, n)
    y = np.linspace(0.0, 60.0, 257)
    calls = _watch_chirps(monkeypatch)
    for c in _coefficient_sets(x):
        _close_to_peak(fourier_sum(x, y, c), reference_fourier(x, y, c))
    assert len(calls) == len(_coefficient_sets(x))
    assert all(np.array_equal(gx, x) for gx, _, _ in calls)


@pytest.mark.parametrize("n", [353, 354])
def test_chirp_z_evaluates_a_symmetric_output_axis_in_one_transform(monkeypatch, n):
    # an output axis symmetric about 0 is evaluated over its whole grid,
    # y < 0 included, in one transform per call
    x = np.linspace(0.0, 3.0, 301)
    y = np.linspace(-40.0, 40.0, n)
    calls = _watch_chirps(monkeypatch)
    for c in _coefficient_sets(x):
        _close_to_peak(fourier_sum(x, y, c), reference_fourier(x, y, c))
    assert len(calls) == len(_coefficient_sets(x))
    assert all(np.array_equal(gy, y) for _, gy, _ in calls)


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
    got = fourier_sum(x, y, c)
    _close_to_peak(got, reference_fourier(x, y, c))
    assert not got[:, 1].any()  # a zero column stays exactly zero
    for k in (0, 2):
        scalar = fourier_sum(x, float(y[-1]), c[:, k])
        assert np.ndim(scalar) == 0
        assert abs(scalar - reference_fourier(x, y[-1], c[:, k])[0]) <= (
            TOL * np.max(np.abs(reference_fourier(x, y, c))))


def test_chirp_z_corrects_a_jittered_output_grid():
    # tau = (t_r + s) - t_r leaves its line by about 1e-8 of a step from
    # the rounding of t_r; a chirp z-transform would move its sums by ~1e-8,
    # so such a grid takes the blocks and its sums stay exact
    t_r = 3.3356409519815204e-09
    tau = (t_r + np.linspace(-2e-14, 2e-14, 1201)) - t_r
    w = np.linspace(0.0, 2e16, 4001)
    c = w * np.exp(-((w - 1e16) / 3e15) ** 2)
    assert not quadrature._line(tau)[-1]
    assert quadrature._chirp_z(w, tau, c[:, None]) is None
    _close_to_peak(fourier_sum(w, tau, c), reference_fourier(w, tau, c))
    # a real and an imaginary column in one sum
    pair = np.stack([c, 1j * c], axis=1)
    _close_to_peak(fourier_sum(w, tau, pair), reference_fourier(w, tau, pair))


def test_grids_that_are_not_uniform_fall_back_to_blocks(monkeypatch):
    uniform = np.linspace(0.0, 3.0, 101)
    y = np.linspace(0.0, 20.0, 257)
    # a bent grid, and a jitter 30 times past the grid's rounding
    cases = [(uniform**2 / 3.0, y), (uniform, y + 1e-6 * np.sin(y))]
    # several blocks per call, so the chunk seams are covered too
    monkeypatch.setattr(quadrature, "CHUNK_ELEMENTS", 20 * uniform.size)
    rows = []
    real_chunk = quadrature._chunk

    def counted(x):
        rows.append(real_chunk(x))
        return rows[-1]

    monkeypatch.setattr(quadrature, "_chunk", counted)
    for x, ys in cases:
        c = _columns(x, ys)
        assert quadrature._chirp_z(x, ys, c) is None
        _close_to_peak(fourier_sum(x, ys, c), reference_fourier(x, ys, c))
        vector = c[:, 2].real - 1j * c[:, 2].real
        _close_to_peak(fourier_sum(x, ys, vector), reference_fourier(x, ys, vector))
    # each sum ran in blocks of 20 rows, 13 blocks for 257 outputs
    assert rows == [20] * (2 * len(cases))


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


def test_filon_transform_rejects_an_f_of_another_shape():
    # one column per q once gave a silently wrong sum (its endpoint terms
    # broadcast the columns against q), other column counts a bare
    # ValueError
    t = np.linspace(0.0, 1.0, 101)
    pulse = np.exp(-((t - 0.5) / 0.1) ** 2)
    for f in (np.stack([pulse, 2.0 * pulse], axis=1),
              np.stack([pulse] * 3, axis=1), pulse[:-1]):
        with pytest.raises(InvalidParameterError, match="one f value per time"):
            filon_transform(t, f, np.array([3.0, 5.0]))


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
    # every column of a matrix integrand is integrated to the one common
    # end, which a column alone reaches too when no doubling runs: each
    # then has the bits it has alone
    rates = np.array([1.0, 0.3, 2.0, 0.3])

    def columns(x):
        return x[:, None] ** 3 * np.exp(-np.outer(x, rates))

    end, total = certified_tail_cutoff(columns, 2.0, 4.0, 130.0, 1e-6)
    assert end == 134.0 and total.shape == rates.shape
    for j, rate in enumerate(rates):
        def alone(x, rate=rate):
            return x**3 * np.exp(-rate * x)

        e, v = certified_tail_cutoff(alone, 2.0, 4.0, 130.0, 1e-6)
        assert np.ndim(e) == 0 and np.ndim(v) == 0
        assert end == e and total[j] == v
    np.testing.assert_allclose(total, 6.0 / rates**4, rtol=1e-5)


def test_cutoff_in_a_gap_fails_its_doubled_tail():
    # a second band in [end, 2 end], past the quiet end of the panels
    # through the edge: the tail over [end, 2 end] finds it
    def far_bands(x):
        return np.exp(-x**2) + np.exp(-4.0 * (x - 20.0)**2)

    with pytest.raises(NumericalConvergenceError,
                       match=r"test integral not converged at its cutoff "
                             r"\[cutoff=12\.0, relative_tail="):
        certified_tail_cutoff(far_bands, 8.0, 4.0, 8.0, 1e-6, what="test integral")


def test_cutoff_integrates_a_band_inside_its_doubled_end():
    # the band at 14 is not quiet at the end 12 of the panels through the
    # edge, nor at 16: the panels double twice, to 24, and take it in
    calls = []

    def counted(x):
        calls.append((x[0], x[-1]))
        return _two_bands(x)

    end, total = certified_tail_cutoff(counted, 8.0, 4.0, 8.0, 1e-6)
    assert end == 24.0
    assert calls == [(0.0, 8.0), (8.0, 12.0), (12.0, 16.0), (16.0, 24.0),
                     (24.0, 48.0)]
    np.testing.assert_allclose(total, np.sqrt(np.pi), rtol=1e-9)


def test_cutoff_stops_at_the_first_non_finite_sample():
    # the panels through the edge turn inf past 9: no peak can be
    # certified against it, so the cutoff raises there
    edges = []

    def overflowing(x):
        edges.append(x[-1])
        return np.where(x > 9.0, np.inf, x)[:, None] * np.ones(2)

    with pytest.raises(NumericalConvergenceError,
                       match=r"test integral is not finite \[at=9\.015625\]"):
        certified_tail_cutoff(overflowing, 2.0, 4.0, 13.0, 1e-6,
                              what="test integral")
    assert edges == [2.0, 18.0]


def test_cutoff_raises_at_a_non_finite_sample_anywhere_on_its_band():
    # every sample through the edge is integrated, so an inf past the
    # point where the integrand went quiet (the walk with one call per
    # panel stopped at 30 and never saw it) raises too
    def decaying(x):
        return np.where(x > 60.0, np.inf, np.exp(-x))

    assert panel_by_panel_cutoff(decaying, 2.0, 4.0, 1e-6)[0] == 30.0
    with pytest.raises(NumericalConvergenceError,
                       match=r"outer integral is not finite \[at=60\.015625\]"):
        certified_tail_cutoff(decaying, 2.0, 4.0, 200.0, 1e-6)


def test_cutoff_samples_a_long_first_panel_at_the_step_resolution():
    # a band 0.01 wide at 10, inside a first panel of 12: 257 points
    # would space it 4.7 widths apart, and step/128 spaces it 0.8 apart
    def narrow(x):
        return np.exp(-0.5 * ((x - 10.0) / 0.01) ** 2)

    end, total = certified_tail_cutoff(narrow, 12.0, 1.0, 12.0, 1e-6)
    assert end == 13.0
    np.testing.assert_allclose(total, 0.01 * np.sqrt(2.0 * np.pi), rtol=1e-9)


def panel_by_panel_cutoff(integrand, start, step, tail_tol, rel_floor=1e-12,
                          max_panels=64, what="outer integral"):
    """The former certified_tail_cutoff: one integrand call per panel,
    each column stopped at the first panel whose last 64 samples are
    below rel_floor of its running peak and given the tail over its own
    doubled cutoff."""
    def rows_of(x, y):
        rows = np.ascontiguousarray(np.reshape(y, (x.size, -1)).T)
        finite = np.isfinite(rows)
        if not finite.all():
            raise NumericalConvergenceError(
                f"{what} is not finite", at=float(x[np.argmin(finite.all(axis=0))]))
        return rows

    total = peak = cutoff = None
    lo, hi = 0.0, start
    intervals = 256 * max(1, int(np.ceil(start / (2.0 * step))))
    for _ in range(max_panels):
        x = np.linspace(lo, hi, intervals + 1)
        y = integrand(x)
        rows = rows_of(x, y)
        if total is None:
            total, peak = np.zeros((2, rows.shape[0]))
            cutoff = np.full(rows.shape[0], np.nan)
        live = np.isnan(cutoff)
        size = np.abs(rows)
        total[live] += np.trapezoid(rows[live], x)
        peak[live] = np.maximum(peak[live], size[live].max(axis=1))
        quiet = size[:, -64:].max(axis=1) < rel_floor * peak
        cutoff[live & quiet & (peak > 0)] = hi
        if not np.isnan(cutoff).any():
            break
        lo, hi, intervals = hi, hi + step, 256
    else:
        raise NumericalConvergenceError(
            f"{what} cutoff not reached", panels=max_panels, last_edge=lo)
    for edge in np.unique(cutoff):
        at = cutoff == edge
        ext = np.linspace(edge, 2.0 * edge, 513)
        extra = np.trapezoid(rows_of(ext, integrand(ext))[at], ext)
        if np.any(np.abs(extra) > tail_tol * np.abs(total[at])):
            raise NumericalConvergenceError(
                f"{what} not converged at its cutoff", cutoff=float(edge),
                relative_tail=float(np.max(np.abs(extra / total[at]))))
        total[at] += extra
    shape = np.shape(y)[1:]
    return cutoff.reshape(shape)[()], total.reshape(shape)[()]


def _rate_columns(x):
    return x[:, None] ** 3 * np.exp(-np.outer(x, [1.0, 0.3, 2.0, 0.3]))


def _two_bands(x):
    return np.exp(-x**2) + np.exp(-4.0 * (x - 14.0)**2)


def _overflowing(x):
    return np.where(x > 9.0, np.inf, x)[:, None] * np.ones(2)


def _narrow(x):
    return np.exp(-0.5 * ((x - 10.0) / 0.01) ** 2)


# (integrand, start, step): the integrands of the cutoff tests above
CUTOFF_CASES = {
    "columns": (_rate_columns, 2.0, 4.0),
    "gap": (_two_bands, 8.0, 4.0),
    "past-the-gap": (_two_bands, 14.0, 4.0),
    "non-finite": (_overflowing, 2.0, 4.0),
    "long-first-panel": (_narrow, 12.0, 1.0),
}


def _outcome(cutoff, *args, **kwargs):
    try:
        return cutoff(*args, **kwargs)
    except NumericalConvergenceError as err:
        return str(err)


@pytest.mark.parametrize("edge", [-5.0, 0.0, 3.0, 13.0, 40.0, 1e4])
@pytest.mark.parametrize("case", sorted(CUTOFF_CASES))
def test_cutoff_through_matches_the_panel_by_panel_walk(case, edge):
    # an edge below start, one that falls short of the walk's cutoff and
    # one far past it give the values (to 1e-14) and the non-finite error
    # of the walk with one call per panel; in the gap the common end
    # reaches the second band, which the walk stops short of
    integrand, start, step = CUTOFF_CASES[case]
    want = _outcome(panel_by_panel_cutoff, integrand, start, step, 1e-6)
    got = _outcome(certified_tail_cutoff, integrand, start, step, edge, 1e-6)
    if case == "gap":
        assert "not converged at its cutoff [cutoff=8.0" in want
        np.testing.assert_allclose(got[1], np.sqrt(np.pi), rtol=1e-9)
    elif isinstance(want, str):
        assert got == want
    else:
        assert np.all(got[0] >= want[0])
        np.testing.assert_allclose(got[1], want[1], rtol=1e-14, atol=0)


def test_cutoff_batch_takes_the_panels_through_the_edge_in_one_call():
    edges = []

    def counted(x):
        edges.append((x[0], x[-1], x.size))
        return _rate_columns(x)

    end, _ = certified_tail_cutoff(counted, 2.0, 4.0, 130.0, 1e-6)
    # [0, 2], then ceil(128 / 4) + 1 = 33 step panels in one call, then
    # one tail for every column
    assert edges == [(0.0, 2.0, 257), (2.0, 134.0, 33 * 256 + 1),
                     (134.0, 268.0, 513)]
    assert end == 134.0


def test_cutoff_through_still_exhausts_its_panels():
    # the 4 panels through the edge double up to MAX_PANELS, only the new
    # ones sampled, then the cutoff is not reached; an all-zero column has
    # no peak to fall below, and the walk's panels run out too
    sizes = []

    def never_quiet(x):
        sizes.append(x.size)
        return np.ones(x.size)

    assert quadrature.MAX_PANELS == 64
    with pytest.raises(NumericalConvergenceError,
                       match=r"cutoff not reached \[end=258\.0, panels=64\]"):
        certified_tail_cutoff(never_quiet, 2.0, 4.0, 13.0, 1e-6)
    assert sizes == [257] + [n * 256 + 1 for n in (4, 4, 8, 16, 32)]
    with pytest.raises(NumericalConvergenceError, match=r"cutoff not reached"):
        certified_tail_cutoff(lambda x: np.zeros((x.size, 2)), 2.0, 4.0, 13.0,
                              1e-6)
    with pytest.raises(NumericalConvergenceError,
                       match=r"cutoff not reached \[last_edge=18\.0, panels=5\]"):
        panel_by_panel_cutoff(never_quiet, 2.0, 4.0, 1e-6, max_panels=5)


def test_oracle_row_makes_three_filon_transforms_per_integral(monkeypatch):
    # [0, start], the panels through the band edge and the doubled tail:
    # at eta 0.05 no doubling runs
    from pulsescope import oracle
    from pulsescope.scenario import _oracle_single

    calls = []
    real = oracle.filon_transform

    def counted(t, f, q):
        calls.append(np.size(q))
        return real(t, f, q)

    monkeypatch.setattr(oracle, "filon_transform", counted)
    cfg = ps.ScenarioConfig()
    for ratio in (10.0, 30.0):
        calls.clear()
        _oracle_single(cfg, cfg.build(), ratio, 0.05)
        assert len(calls) <= 3


def test_oracle_row_doubles_its_panels_as_the_walk_needed(monkeypatch):
    # at eta 1 and width 10 the walk's cutoff lies past the panels through
    # the band edge (1.22 times their end), so they double once; the value
    # is the walk's on the same integrand
    from pulsescope import oracle
    from pulsescope.scenario import _oracle_single

    seen = []
    real = oracle.certified_tail_cutoff

    def recorded(integrand, start, step, edge, *args, **kwargs):
        sizes = []

        def counted(q):
            sizes.append(q.size)
            return integrand(q)

        seen.append((integrand, start, step, edge, sizes,
                     real(counted, start, step, edge, *args, **kwargs)))
        return seen[-1][-1]

    monkeypatch.setattr(oracle, "certified_tail_cutoff", recorded)
    cfg = ps.ScenarioConfig()
    _oracle_single(cfg, cfg.build(), 10.0, 1.0)
    [(integrand, start, step, edge, sizes, (end, value))] = seen
    k = int(np.ceil((edge - start) / step)) + 1
    assert sizes[1:] == [256 * k + 1, 256 * k + 1, 513]
    np.testing.assert_allclose(end, start + 2 * k * step, rtol=1e-15)
    cutoff, want = panel_by_panel_cutoff(
        integrand, start, step, oracle.TAIL_TOL, oracle.REL_FLOOR,
        max_panels=80)
    assert start + k * step < cutoff < end
    np.testing.assert_allclose(value, want, rtol=1e-10, atol=0)
