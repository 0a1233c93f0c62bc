"""Brute-force validation of the excitation chain.

The driven two-level system is propagated exactly (no sudden
approximation) with a norm-preserving midpoint-exponential stepper, and
the probability of ending excited with one photon emitted is evaluated
to first order in the coupling to the free modes:

    p_e = Gamma0 / (2 pi w0^3) * int_0^inf dw_k w_k^3 |M(w_k)|^2,
    M(w_k) = int dt' e^{i w_k t'} <e| U(t_end, t') sigma_x U(t', t_start) |g>.

The angular mode sum was carried out analytically: with the dipole along
x, sum_pol int dOmega |eps . e_x|^2 = 8 pi / 3, and together with the
coupling g_k^2 = d^2 w_k / (2 eps0 (2 pi)^3 hbar) and the free-space
relation d^2 = 3 pi eps0 hbar c^3 Gamma0 / w0^3 the 3-D k-integral
reduces to the prefactor above; in the sudden/weak limit the same
reduction reproduces the 2 N Gamma0 / (pi w0^3) prefactor of the
analytic pipeline.

Two numerical hazards are handled explicitly. After (and before) the
pulse the integrand of M is a pure phase times a constant - the virtual
dressing of the ground state - whose naive truncation would swamp the
physical amplitude; the window integral therefore uses Filon-type
weights on the demodulated integrand (so the constant segments integrate
exactly) and the infinite tails are summed analytically, which also
makes M vanish identically for zero drive. Second, an independent
second-order (in the drive) perturbative evaluation of M is provided as
a cross-check of the propagator route at small pulse areas. The outer
photon-frequency integral uses the package's certified cutoff and
doubling-tail check from `quadrature`, as the analytic chain does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import GridRangeError, InvalidParameterError, NumericalConvergenceError
from .excitation import TwoLevelSystem
from .quadrature import certified_tail_cutoff, filon_transform

UNITARITY_TOL = 1e-10
FIRST_ORDER_TRUST = 0.1
# bound on the photon-frequency tail over [cutoff, 2 cutoff], relative to
# the integral up to the cutoff
TAIL_TOL = 1e-3
# the integrand's last samples must fall below this fraction of its peak
REL_FLOOR = 1e-6


@dataclass(frozen=True)
class PropagatorHistory:
    """Cumulative propagators U(t_j, t_0) of the driven two-level system.

    Basis order is (|e>, |g>). The drive must have decayed at both ends
    of the grid for the emission-amplitude tails to be valid.
    """

    times: np.ndarray
    propagators: np.ndarray          # (n, 2, 2) complex
    transition_frequency: float
    drive_values: np.ndarray = field(repr=False)   # Omega(t_j), rad/s

    @property
    def final(self) -> np.ndarray:
        return self.propagators[-1]

    def unitarity_defect(self) -> float:
        """max |U U^dag - 1| over the history, element by element."""
        a, b, c, d = _elements(self.propagators)
        entries = (np.abs(a) ** 2 + np.abs(b) ** 2 - 1.0,
                   np.abs(c) ** 2 + np.abs(d) ** 2 - 1.0,
                   a * c.conj() + b * d.conj())
        return float(max(np.abs(x).max() for x in entries))


def _elements(u: np.ndarray):
    """The element arrays (U00, U01, U10, U11) of an (n, 2, 2) stack."""
    return u[:, 0, 0], u[:, 0, 1], u[:, 1, 0], u[:, 1, 1]


def propagate_driven_tls(
    drive: Callable,
    times: np.ndarray,
    transition_frequency: float,
) -> PropagatorHistory:
    """Integrate i dU/dt = [w0 |e><e| + Omega(t) sigma_x] U on the grid.

    Each step applies the exponential of the midpoint Hamiltonian, which
    is exactly unitary regardless of step size; accuracy (not stability)
    sets the grid requirement of >= 20 points per carrier period. The
    cumulative products U(t_j, t_0) = S_j ... S_1 come from a
    Hillis-Steele prefix scan on the four element arrays of the steps:
    ceil(log2 n) levels of element-wise 2x2 products, the later step on
    the left. It reassociates the products, so U differs from a
    step-by-step loop by rounding (about 1e-14); the steps themselves
    keep the bits of a step built alone. A unitarity defect above
    UNITARITY_TOL raises NumericalConvergenceError.
    """
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size < 3:
        raise InvalidParameterError("time grid must be a 1-D array of >= 3 points")
    dt = np.diff(t)
    if np.any(dt <= 0):
        raise InvalidParameterError("time grid must increase strictly")
    w0 = float(transition_frequency)
    if np.max(dt) > 2.0 * np.pi / (20.0 * w0):
        raise NumericalConvergenceError(
            "time grid does not resolve the carrier period",
            max_step=float(np.max(dt)), required=2.0 * np.pi / (20.0 * w0),
        )
    om = np.asarray(drive(t), dtype=float)
    # every midpoint step at once, in carrier units
    h = dt * w0
    om_mid = 0.5 * (om[1:] + om[:-1]) / w0
    a = np.sqrt(om_mid * om_mid + 0.25)
    c, s, nx, nz = np.cos(a * h), np.sin(a * h), om_mid / a, 0.5 / a
    # rows U00, U01, U10, U11 over t; column 0 is the identity, column j
    # the step S_j, phase * element as in a step built alone
    u = np.empty((4, t.size), dtype=complex)
    u[:, 0] = 1.0, 0.0, 0.0, 1.0
    phase = np.exp(-0.5j * h)
    u[0, 1:] = phase * (c - 1j * s * nz)
    u[1, 1:] = u[2, 1:] = phase * (-1j * s * nx)
    u[3, 1:] = phase * (c + 1j * s * nz)
    shift = 1
    while shift < t.size:
        p, q, r, v = u[:, shift:]          # later products
        e, f, g, k = u[:, :-shift]         # the earlier ones they extend
        u[:, shift:] = p * e + q * g, p * f + q * k, r * e + v * g, r * f + v * k
        shift *= 2
    # (n, 2, 2) view of the rows: propagators[:, i, j] is row 2i + j
    history = PropagatorHistory(t, u.T.reshape(t.size, 2, 2), w0, om)
    defect = history.unitarity_defect()
    if defect > UNITARITY_TOL:
        raise NumericalConvergenceError(
            "unitarity drift beyond tolerance; reduce the step",
            defect=defect,
        )
    return history


def oracle_c0(history: PropagatorHistory) -> complex:
    """Amplitude <e,0|U(t_end, t_start)|g,0>: excitation with no photon."""
    return complex(history.final[0, 1])


def _emission_core(history: PropagatorHistory):
    """Demodulated matrix element n(t) = m(t) e^{-i w0 t} and tail data."""
    om = history.drive_values
    peak = float(np.max(np.abs(om)))
    if peak > 0.0:
        edge = max(abs(om[0]), abs(om[-1]))
        if edge > 1e-8 * peak:
            raise GridRangeError(
                "drive has not decayed at the history endpoints; "
                "extend the time window"
            )
    a, b, c, d = _elements(history.propagators)
    e00, e01 = history.final[0]
    # m_j = [Ue Uj^dag sigma_x Uj]_{eg}
    ac, bc, cc, dc = a.conj(), b.conj(), c.conj(), d.conj()
    m = (e00 * ac + e01 * bc) * d + (e00 * cc + e01 * dc) * b
    n = m * np.exp(-1j * history.transition_frequency * history.times)
    return n, complex(e00), complex(history.final[1, 1])


def oracle_emission_amplitude(history: PropagatorHistory, omega_k) -> complex:
    """M(w_k): photon-emission amplitude density (seconds).

    Window integral by Filon weights on the demodulated integrand plus
    the analytic pre/post dressing tails; identically zero for zero
    drive, for any w_k.
    """
    qs = np.atleast_1d(np.asarray(omega_k, dtype=float))
    if np.any(qs <= 0):
        raise InvalidParameterError("photon frequencies must be positive")
    out = _window_plus_tails(history, *_emission_core(history), qs)
    return out if np.ndim(omega_k) else complex(out[0])


def _window_plus_tails(history: PropagatorHistory, n, e0, gg, qs):
    """Filon window integral of the demodulated n(t) plus the analytic
    pre/post dressing tails, at photon frequencies qs."""
    w0 = history.transition_frequency
    t = history.times
    out = filon_transform(t, n, qs + w0)
    out = out + e0 * np.exp(1j * qs * t[0]) / (1j * (qs + w0))
    return out - gg * np.exp(1j * qs * t[-1]) / (1j * (qs + w0))


def oracle_excitation_probability(
    history: PropagatorHistory,
    tls: TwoLevelSystem,
    edge: float,
) -> float:
    """p_e = Gamma0/(2 pi w0^3) int dw_k w_k^3 |M(w_k)|^2 by
    `certified_tail_cutoff`: the panels through `edge` (rad/s), the edge
    of the emission spectrum, come from one Filon transform; they double
    while the integrand is not yet below REL_FLOOR of its peak, and the
    tail over one more octave must stay below TAIL_TOL of the total.
    """
    if abs(tls.transition_frequency - history.transition_frequency) > 1e-9 * history.transition_frequency:
        raise InvalidParameterError(
            "two-level system does not match the propagated transition frequency"
        )
    w0 = history.transition_frequency
    if not np.any(history.drive_values):
        return 0.0
    core = _emission_core(history)
    dt = history.times[1] - history.times[0]
    # drive bandwidth resolved by the history sets the panel scale
    band = 2.0 * np.pi / (40.0 * dt)
    step = max(band / 4.0, 2.0 * w0)

    def integrand(q):
        return q**3 * np.abs(_window_plus_tails(history, *core, q)) ** 2

    _, total = certified_tail_cutoff(integrand, step, step, edge, TAIL_TOL,
                                     REL_FLOOR, what="photon-frequency integral")
    return float(total * tls.spontaneous_rate / (2.0 * np.pi * w0**3))


def second_order_emission_amplitude(
    drive: Callable,
    times: np.ndarray,
    transition_frequency: float,
    omega_k,
) -> complex:
    """Exact-in-w0 second-order (in the drive) evaluation of M(w_k).

    Independent cross-check of the propagator route: the three operator
    orderings of the emission vertex among the two drive vertices are
    accumulated from cumulative integrals, with the same demodulated
    Filon window handling and analytic tails.
    """
    t = np.asarray(times, dtype=float)
    w0 = float(transition_frequency)
    om = np.asarray(drive(t), dtype=float)
    dt = t[1] - t[0]
    ep = np.exp(1j * w0 * t)
    em = ep.conj()

    def cumtrap(y):
        out = np.empty(y.shape, dtype=complex)
        out[0] = 0.0
        np.cumsum(0.5 * (y[1:] + y[:-1]) * dt, out=out[1:])
        return out

    p = cumtrap(om * ep)
    q = cumtrap(om * em)
    r = cumtrap(om * ep * q)
    s = cumtrap(om * em * p)
    t1 = ep * ((r[-1] - r) - q * (p[-1] - p))
    t2 = em * (p[-1] - p) * p
    t3 = ep * s
    m = ep - (t1 + t2 + t3)
    n = m * em
    qs = np.atleast_1d(np.asarray(omega_k, dtype=float))
    out = filon_transform(t, n, qs + w0)
    # interaction-picture asymptotes are (1 - R) e^{i w0 t'}, so the tails
    # carry the full q + w0 phase at the endpoints
    out = out + (1.0 - r[-1]) * np.exp(1j * (qs + w0) * t[0]) / (1j * (qs + w0))
    out = out - (1.0 - s[-1]) * np.exp(1j * (qs + w0) * t[-1]) / (1j * (qs + w0))
    return out if np.ndim(omega_k) else complex(out[0])


@dataclass(frozen=True)
class OracleReport:
    """Oracle-vs-analytic comparison record."""

    width_over_transition: float
    eta: float
    pulse_count: int
    p_e_oracle: float
    p_e_analytic: float
    relative_deviation: float
    flags: dict = field(default_factory=dict)


def default_time_grid(
    spectrum_width: float,
    transition_frequency: float,
    t_start: float,
    t_end: float,
    grid_scale: float = 1.0,
) -> np.ndarray:
    """Grid resolving both the carrier and the pulse:
    dt = min(2 pi / (40 w0), 1 / (40 Gamma)) / max(grid_scale, 1); a
    coarser step biases p_e low (26% at grid scale 0.1 and width 10 w0).

    The grid is uniform, as Filon's rule needs: its Fourier sum is one
    chirp z-transform."""
    dt = min(2.0 * np.pi / (40.0 * transition_frequency),
             1.0 / (40.0 * spectrum_width)) / max(grid_scale, 1.0)
    n = int(np.ceil((t_end - t_start) / dt)) + 1
    return np.linspace(t_start, t_end, n)
