"""Quadrature helpers: certified trapezoid refinement, one Fourier sum,
Filon transforms, certified outer cutoffs.

Spectral moments integrate smooth Gaussian-tailed kernels, where
composite trapezoid converges fast but must be *certified* by grid
refinement. Every sum_j c_j e^{i y_k x_j} in the package - chi, the
field, the inner emission transform and Filon's rule - is one call of
`fourier_sum`: one chirp z-transform on numpy.fft when both grids lie on
their lines, else blocks of exp(i outer(y, x)). Filon-type weights treat
an e^{i q t} oscillation far above the grid Nyquist scale exactly; they
need only that sum plus two endpoint terms. One routine,
`certified_tail_cutoff`, integrates an outer integral through the
caller's support edge on one grid and certifies the end by the tail over
its doubling.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .errors import InvalidParameterError, NumericalConvergenceError

# bound on the elements of one block of a blocked product
CHUNK_ELEMENTS = 4_000_000


def refine_until_converged(
    evaluate: Callable[[int], float | np.ndarray],
    n_start: int,
    rtol: float = 1e-9,
    max_doublings: int = 12,
    what: str = "integral",
) -> float | np.ndarray:
    """Evaluate(n) on doubling grids until successive results agree.

    evaluate(n) must compute the quantity, a number or an array (whose
    largest change counts against its largest magnitude), on an n-point
    grid. Returns the last value; raises NumericalConvergenceError at the
    first non-finite value, which no refinement can mend, or if the
    relative change never drops below rtol.
    """
    def finite(n: int):
        value = evaluate(n)
        bad = ~np.isfinite(value)
        if np.any(bad):
            raise NumericalConvergenceError(
                f"{what} is not finite", n=n, value=np.asarray(value)[bad][0].item())
        return value

    prev = finite(n_start)
    n = n_start
    for _ in range(max_doublings):
        n = 2 * n - 1
        cur = finite(n)
        step, now, before = (np.abs(v).max(initial=0.0) for v in (cur - prev, cur, prev))
        scale = max(now, before, 1e-300)
        if step <= rtol * scale:
            return cur
        change = float(step / scale)
        prev = cur
    raise NumericalConvergenceError(
        f"{what} did not converge under grid refinement",
        rtol=rtol, n_final=n, last_change=change,
    )


def _filon_weights(theta: np.ndarray):
    """P, Q with int_0^h e^{i q t}[(1-t/h) f0 + (t/h) f1] dt = h (P f0 + Q f1),
    theta = q h."""
    theta = np.asarray(theta, dtype=float)
    P = np.empty(theta.shape, dtype=complex)
    Q = np.empty(theta.shape, dtype=complex)
    # the closed form cancels catastrophically as theta -> 0 (error ~
    # eps/theta^2), so the series branch extends to 0.04, where both
    # branches sit below 1e-12
    small = np.abs(theta) < 0.04
    ts = theta[small]
    P[small] = (0.5 + 1j * ts / 6.0 - ts**2 / 24.0 - 1j * ts**3 / 120.0
                + ts**4 / 720.0 + 1j * ts**5 / 5040.0)
    Q[small] = (0.5 + 1j * ts / 3.0 - ts**2 / 8.0 - 1j * ts**3 / 30.0
                + ts**4 / 144.0 + 1j * ts**5 / 840.0)
    tb = theta[~small]
    e = np.exp(1j * tb)
    it = 1j * tb
    P[~small] = -1.0 / it + (e - 1.0) / it**2
    Q[~small] = e / it - (e - 1.0) / it**2
    return P, Q


def filon_transform(t: np.ndarray, f: np.ndarray, q) -> np.ndarray:
    """int f(t) e^{i q t} dt on a uniform grid, exact in the oscillation.

    f, one value per point of t, is interpolated piecewise-linearly; q
    may be a scalar or 1-D array. With the Fourier sum S = sum_j f_j
    e^{i q t_j} over all n points, the panel sums are h [P (S - f_{n-1}
    e^{i q t_{n-1}}) + Q e^{-i q h} (S - f_0 e^{i q t_0})]. A t that is
    not uniform to UNIFORM_ULPS, or an f of another shape than t, raises
    InvalidParameterError.
    """
    t = np.asarray(t, dtype=float)
    f = np.asarray(f)
    if t.ndim != 1 or t.size < 2 or not _line(t)[2]:
        raise InvalidParameterError("Filon's rule needs a uniform time grid")
    if f.shape != t.shape:
        raise InvalidParameterError(
            f"Filon's rule needs one f value per time, not shape {f.shape}")
    h = t[1] - t[0]
    qs = np.atleast_1d(np.asarray(q, dtype=float))
    P, Q = _filon_weights(qs * h)
    s = fourier_sum(t, qs, f)
    left = s - f[-1] * np.exp(1j * qs * t[-1])     # f_j at panel starts
    right = s - f[0] * np.exp(1j * qs * t[0])      # f_j at panel ends
    out = h * (P * left + Q * np.exp(-1j * qs * h) * right)
    return out if np.ndim(q) else out[0]


def trapezoid_weights(x: np.ndarray) -> np.ndarray:
    """w with sum(w * f) the trapezoid integral of f over the grid x."""
    d = np.diff(np.asarray(x, dtype=float))
    w = np.zeros(d.size + 1)
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    return w


def _chunk(x: np.ndarray) -> int:
    """Rows of a block of at most CHUNK_ELEMENTS elements against x."""
    return max(1, int(CHUNK_ELEMENTS // max(x.size, 1)))


# a grid is uniform within this many ulps of max|grid| of its end-point line
UNIFORM_ULPS = 8
# fewer points, and a block beats three FFTs; no Fourier sum of the scenario,
# oracle or figure commands is that short, only a direct evaluation of chi
# or the field at a few times
MIN_CHIRP_POINTS = 12


def _line(v: np.ndarray):
    """(v[0], step, whether v lies within UNIFORM_ULPS of max|v| of the
    line from v[0] to v[-1])."""
    step = (v[-1] - v[0]) / (v.size - 1) if v.size > 1 else 0.0
    deviation = np.abs(v - (v[0] + step * np.arange(v.size))).max()
    return v[0], step, bool(deviation <= UNIFORM_ULPS * np.spacing(np.abs(v).max()))


@functools.lru_cache(maxsize=4)
def _chirp(a: float, m: int, size: int):
    """(w, FFT of conj(w)), read-only, w = e^{i a lag^2 / 2} on the lags of
    a length-size convolution with m outputs, its phase exact to rounding:
    a = head + tail, head * lag^2 / 2 exact and the tail 2^-s of a. Kept
    for the few (a, m, size) every emission panel and chi of a run repeat."""
    lag = np.arange(size)
    lag[m:] -= size
    half_lag2 = 0.5 * (lag * lag)
    mantissa, exponent = math.frexp(a)
    s = 53 - (max(m - 1, size - m) ** 2).bit_length()
    head = math.ldexp(round(math.ldexp(mantissa, s)), exponent - s)
    w = np.exp(1j * (head * half_lag2)) * np.exp(1j * ((a - head) * half_lag2))
    kernel = np.fft.fft(w.conj())
    w.flags.writeable = kernel.flags.writeable = False
    return w, kernel


def _chirp_z(x, y, c):
    """sum_j c_j e^{i y_k x_j} for every column of c (n x columns), by
    Bluestein's chirp z-transform (Rabiner, Schafer & Rader 1969): with
    x_j = x0 + j dx, y_k = y0 + k dy and a = dx dy, y_k x_j = y0 x_j
    + k dy x0 + a (k^2 + j^2 - (k - j)^2) / 2, so the sum is one
    convolution, by numpy.fft along the last axis of all columns at once.
    x and y must both lie on their lines to UNIFORM_ULPS; other grids, or
    fewer than MIN_CHIRP_POINTS points, give None."""
    if min(x.size, y.size) < MIN_CHIRP_POINTS:
        return None
    x0, dx, x_uniform = _line(x)
    y0, dy, y_uniform = _line(y)
    if not (x_uniform and y_uniform and np.isfinite(dx * dy)):
        return None
    n, m = x.size, y.size
    # the shortest 5-smooth FFT length >= n + m - 1, to a few per cent
    size = min(f << ((n + m - 2) // f).bit_length()
               for f in (1, 3, 5, 9, 15, 25, 27, 45, 75, 81, 125))
    w, kernel = _chirp(float(dx * dy), m, size)
    u = np.zeros((c.shape[1], size), dtype=complex)
    pre = w[-np.arange(n)]
    u[:, :n] = c.T * (pre if y0 == 0 else np.exp(1j * y0 * x) * pre)
    # in place: one (columns, size) array at a time
    np.fft.fft(u, out=u)
    u *= kernel
    np.fft.ifft(u, out=u)
    z = u[:, :m] * w[:m]
    if x0 != 0:
        z *= np.exp(1j * (dy * x0) * np.arange(m))
    return z.T


def fourier_sum(x, y, c):
    """sum_j c_j e^{i y_k x_j} for every y_k, for real or complex c on the
    grid x (quadrature weights applied): a vector, or a matrix with one
    column per right-hand side. All columns go through one chirp
    z-transform when x and y both lie on their lines, else through
    blocks of exp(i outer(y, x)) @ c of at most CHUNK_ELEMENTS elements.
    A scalar y drops the output axis."""
    x, c = np.asarray(x, dtype=float), np.asarray(c)
    ys = np.atleast_1d(np.asarray(y, dtype=float))
    cols = c.reshape(x.size, -1)
    z = _chirp_z(x, ys, cols)
    if z is None:
        z = np.empty((ys.size, cols.shape[1]), dtype=complex)
        chunk = _chunk(x)
        for i0 in range(0, ys.size, chunk):
            z[i0:i0 + chunk] = np.exp(1j * np.outer(ys[i0:i0 + chunk], x)) @ cols
    return z.reshape(np.shape(y) + c.shape[1:])[()]


def oscillatory_cos_sin(t: np.ndarray, f: np.ndarray, q) -> np.ndarray:
    """int f(t) e^{i q t} dt by plain trapezoid (smooth, decayed kernels).

    f is a vector over t, or a matrix with one column per kernel, all
    summed in one transform.
    """
    weighted = (np.asarray(f).T * trapezoid_weights(t)).T
    return fourier_sum(t, q, weighted)


def _rows(x: np.ndarray, y, what: str) -> np.ndarray:
    """Integrand values y at the points x, one contiguous row per column;
    a non-finite value raises NumericalConvergenceError."""
    rows = np.ascontiguousarray(np.reshape(y, (x.size, -1)).T)
    finite = np.isfinite(rows)
    if not finite.all():
        raise NumericalConvergenceError(
            f"{what} is not finite", at=float(x[np.argmin(finite.all(axis=0))]))
    return rows


# bound on the step panels the doubling reaches, about 11 times the band
# edge: an integrand not below its floor that far out is not decaying
MAX_PANELS = 64


def certified_tail_cutoff(
    integrand: Callable[[np.ndarray], np.ndarray],
    start: float,
    step: float,
    edge: float,
    tail_tol: float,
    rel_floor: float = 1e-12,
    what: str = "outer integral",
):
    """Certified (end, value) of the integral of integrand over [0, inf).

    [0, start] takes 256 intervals per two steps (at least 256), then the
    k = max(ceil((edge - start)/step) + 1, 1) step panels through the
    caller's support edge come from one integrand call on one uniform
    grid at step/256, so no sample spacing exceeds step/128. Every column
    of a matrix integrand (one per radius in `f_integral`) is integrated
    by the trapezoid to the one common end, start + k step, and no column
    depends on another. While the last 64 samples of some column are not
    below rel_floor of its peak, k doubles, up to MAX_PANELS (only the new
    panels are sampled); past that, or for an all-zero column, the cutoff
    is not reached and NumericalConvergenceError is raised. The tail over
    [end, 2 end] is then added, certified by requiring it to stay within
    tail_tol of each column's value; a larger one, or a non-finite sample
    anywhere, raises NumericalConvergenceError. value is an array over
    the columns.
    """
    x = np.linspace(0.0, start, 256 * max(1, math.ceil(start / (2.0 * step))) + 1)
    y = integrand(x)
    rows = _rows(x, y, what)
    total, peak = np.trapezoid(rows, x), np.abs(rows).max(axis=1)
    done, k = 0, max(math.ceil((edge - start) / step) + 1, 1)
    while True:
        x = np.linspace(start + done * step, start + k * step, 256 * (k - done) + 1)
        rows = _rows(x, integrand(x), what)
        size = np.abs(rows)
        total += np.trapezoid(rows, x)
        peak = np.maximum(peak, size.max(axis=1))
        if np.all(size[:, -64:].max(axis=1) < rel_floor * peak):
            break
        if k >= MAX_PANELS:
            raise NumericalConvergenceError(
                f"{what} cutoff not reached", panels=k, end=float(x[-1]))
        done, k = k, min(2 * k, MAX_PANELS)
    end = float(x[-1])
    ext = np.linspace(end, 2.0 * end, 513)
    extra = np.trapezoid(_rows(ext, integrand(ext), what), ext)
    if np.any(np.abs(extra) > tail_tol * np.abs(total)):
        raise NumericalConvergenceError(
            f"{what} not converged at its cutoff", cutoff=end,
            relative_tail=float(np.max(np.abs(extra / total))),
        )
    return end, (total + extra).reshape(np.shape(y)[1:])[()]
