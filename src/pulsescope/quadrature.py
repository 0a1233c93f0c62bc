"""Quadrature helpers: certified trapezoid refinement, one kernel
transform, Filon transforms, certified outer cutoffs.

Spectral moments integrate smooth Gaussian-tailed kernels, where
composite trapezoid converges fast but must be *certified* by grid
refinement. Every sum_j c_j K(y_k x_j) in the package - chi, the field
and the inner emission transform (K = cos, sin), the tau = 0 focal
intensity (K = J1(x)/x) and Filon's rule - runs over its whole grid as
one chirp z-transform on numpy.fft between uniform grids, else as
blocks of K(outer(y, x)) (`kernel_transform`). Filon-type weights
treat an e^{i q t} oscillation far above the grid Nyquist scale
exactly; they need only the plain Fourier sum plus two endpoint terms.
One routine, `certified_tail_cutoff`, cuts an outer integral off panel
by panel and certifies the cutoff by the tail over its doubling.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .errors import InvalidParameterError, NumericalConvergenceError

# bound on the elements of one kernel-matrix block
CHUNK_ELEMENTS = 4_000_000


def refine_until_converged(
    evaluate: Callable[[int], float],
    n_start: int,
    rtol: float = 1e-9,
    max_doublings: int = 12,
    what: str = "integral",
) -> float:
    """Evaluate(n) on doubling grids until successive results agree.

    evaluate(n) must compute the quantity on an n-point grid. Returns the
    last value; raises NumericalConvergenceError at the first non-finite
    value, which no refinement can mend, or if the relative change never
    drops below rtol.
    """
    def finite(n: int) -> float:
        value = evaluate(n)
        if not np.isfinite(value):
            raise NumericalConvergenceError(
                f"{what} is not finite", n=n, value=float(value))
        return value

    prev = finite(n_start)
    n = n_start
    for _ in range(max_doublings):
        n = 2 * n - 1
        cur = finite(n)
        scale = max(abs(cur), abs(prev), 1e-300)
        if abs(cur - prev) <= rtol * scale:
            return cur
        change = float(abs(cur - prev) / scale)
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

    f is interpolated piecewise-linearly; q may be a scalar or 1-D array.
    With the Fourier sum S = sum_j f_j e^{i q t_j} over all n points, the
    panel sums are h [P (S - f_{n-1} e^{i q t_{n-1}})
    + Q e^{-i q h} (S - f_0 e^{i q t_0})]. A t that is not uniform to
    UNIFORM_ULPS raises InvalidParameterError.
    """
    t = np.asarray(t, dtype=float)
    f = np.asarray(f)
    if t.ndim != 1 or t.size < 2 or not _line(t)[3]:
        raise InvalidParameterError("Filon's rule needs a uniform time grid")
    h = t[1] - t[0]
    qs = np.atleast_1d(np.asarray(q, dtype=float))
    P, Q = _filon_weights(qs * h)
    s = _fourier_sum(t, qs, f)
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
    return max(1, int(CHUNK_ELEMENTS // max(x.size, 1)))


def _trig_block(x, y, i0, kernel):
    """kernel(outer(y[i0:i0 + chunk], x)); a numpy ufunc (cos, sin) fills
    the product matrix in place."""
    m = np.outer(y[i0:i0 + _chunk(x)], x)
    return kernel(m, out=m) if isinstance(kernel, np.ufunc) else kernel(m)


def kernel_transform(x, y, terms):
    """sum_j c_j K(y_k x_j), summed over the (K, c) pairs of terms, for
    every y_k. Each c is real on the grid x, quadrature weights applied:
    a vector, or a matrix with one column per right-hand side; an
    all-zero c is skipped. When every K is cos or sin and `_chirp_z`
    takes both grids, all columns go through one chirp z-transform,
    whose real part is the cos sum and imaginary part the sin sum;
    otherwise through blocks of K(outer(y, x)) of at most CHUNK_ELEMENTS.
    """
    ys = np.atleast_1d(np.asarray(y, dtype=float))
    out = _sums(np.asarray(x, dtype=float), ys,
                [(kernel, np.ascontiguousarray(c, dtype=float)) for kernel, c in terms])
    return out if np.ndim(y) else out[0]


def _sums(x, ys, terms):
    """sum over (K, c) terms of K(outer(ys, x)) @ c, by one chirp
    z-transform when every K is cos or sin and `_chirp_z` takes the
    grids, else by blocks of rows."""
    out = np.zeros(ys.shape + terms[0][1].shape[1:])
    live = [term for term in terms if term[1].any()]
    z = None
    if live and all(kernel in (np.cos, np.sin) for kernel, _ in terms):
        z = _chirp_z(x, ys, np.hstack([c.reshape(x.size, -1) for _, c in live]))
    chunk = ys.size if z is not None else _chunk(x)
    for i0 in range(0, ys.size, chunk):
        rows = slice(i0, i0 + chunk)
        for kernel, c in live:
            if z is None:
                part = _trig_block(x, ys, i0, kernel) @ c
            else:
                part, z = np.hsplit(z, [c[0].size])
                part = (part.imag if kernel is np.sin else part.real).reshape(
                    ys.shape + c.shape[1:])
            out[rows] += part
    return out


# a grid is uniform within this many ulps of max|grid| of its end-point line
UNIFORM_ULPS = 8
# max|jitter| * max|x| corrected to first order (the second order < 5e-15)
MAX_JITTER_PHASE = 1e-7
# fewer points, and a block beats three FFTs (9 x 4001: 0.32 against 0.56 ms)
MIN_CHIRP_POINTS = 12


def _line(v: np.ndarray):
    """(v[0], step, v minus the line from v[0] to v[-1], whether that
    deviation stays within UNIFORM_ULPS of max|v|)."""
    step = (v[-1] - v[0]) / (v.size - 1) if v.size > 1 else 0.0
    deviation = v - (v[0] + step * np.arange(v.size))
    return v[0], step, deviation, bool(
        np.abs(deviation).max() <= UNIFORM_ULPS * np.spacing(np.abs(v).max()))


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
    x must be uniform to UNIFORM_ULPS; y may leave its line by a jitter
    delta, as tau = t - t_rephase does, which up to MAX_JITTER_PHASE
    enters to first order: Z(c) + i delta Z(x c). Other grids, or fewer
    than MIN_CHIRP_POINTS points, give None."""
    if min(x.size, y.size) < MIN_CHIRP_POINTS:
        return None
    x0, dx, _, uniform = _line(x)
    y0, dy, jitter, exact = _line(y)
    if not (uniform and np.isfinite(dx * dy)
            and np.abs(jitter).max() * np.abs(x).max() <= MAX_JITTER_PHASE):
        return None
    cols = c.T if exact else np.concatenate([c.T, c.T * x])
    n, m = x.size, y.size
    # the shortest 5-smooth FFT length >= n + m - 1, to a few per cent
    size = min(f << ((n + m - 2) // f).bit_length()
               for f in (1, 3, 5, 9, 15, 25, 27, 45, 75, 81, 125))
    w, kernel = _chirp(float(dx * dy), m, size)
    u = np.zeros((cols.shape[0], size), dtype=complex)
    pre = w[-np.arange(n)]
    u[:, :n] = cols * (pre if y0 == 0 else np.exp(1j * y0 * x) * pre)
    z = np.fft.ifft(np.fft.fft(u) * kernel)[:, :m] * w[:m]
    if x0 != 0:
        z *= np.exp(1j * (dy * x0) * np.arange(m))
    return z.T if exact else (z[:c.shape[1]] + 1j * jitter * z[c.shape[1]:]).T


def _fourier_sum(t, q, c):
    """sum_j c_j e^{i q_k t_j} for real or complex c (a vector, or one
    column per right-hand side): one chirp z-transform of c, or, on grids
    `_chirp_z` does not take, `kernel_transform`."""
    t, c = np.asarray(t, dtype=float), np.asarray(c)
    cols = c.reshape(t.size, -1)
    z = _chirp_z(t, np.atleast_1d(np.asarray(q, dtype=float)), cols)
    if z is None:
        # real and imaginary part as cos and sin terms (zero ones skipped)
        re, im = cols.real, cols.imag
        z = (kernel_transform(t, q, [(np.cos, re), (np.sin, -im)])
             + 1j * kernel_transform(t, q, [(np.cos, im), (np.sin, re)]))
    return z.reshape(np.shape(q) + c.shape[1:])[()]


def oscillatory_cos_sin(t: np.ndarray, f: np.ndarray, q) -> np.ndarray:
    """int f(t) e^{i q t} dt by plain trapezoid (smooth, decayed kernels).

    f is a vector over t, or a matrix with one column per kernel, all
    summed in one transform.
    """
    weighted = (np.asarray(f).T * trapezoid_weights(t)).T
    return _fourier_sum(t, q, weighted)


def _rows(x: np.ndarray, y, what: str) -> np.ndarray:
    """Integrand values y at the points x, one contiguous row per column;
    a non-finite value raises NumericalConvergenceError."""
    rows = np.ascontiguousarray(np.reshape(y, (x.size, -1)).T)
    finite = np.isfinite(rows)
    if not finite.all():
        raise NumericalConvergenceError(
            f"{what} is not finite", at=float(x[np.argmin(finite.all(axis=0))]))
    return rows


def certified_tail_cutoff(
    integrand: Callable[[np.ndarray], np.ndarray],
    start: float,
    step: float,
    tail_tol: float,
    rel_floor: float = 1e-12,
    max_panels: int = 64,
    what: str = "outer integral",
):
    """Certified (cutoff, value) of the integral of integrand over [0, inf).

    Panels [0, start], then one step each, run until the integrand falls
    below rel_floor of its running peak; the value is their trapezoid
    integral. A step panel takes 257 points and [0, start] 256 intervals
    per two steps (at least 256), so the step sets the resolution: no
    sample spacing exceeds step/128. The tail over [cutoff, 2 cutoff] is
    then added, certified by requiring it to stay within tail_tol of the
    value; a larger one, or a non-finite integrand value, raises
    NumericalConvergenceError. integrand(x)
    may return a matrix with one column per integrand (one per radius in
    `f_integral`). Each column then stops at its own panel and takes its
    tail over its own cutoff, with the bits it has alone, and cutoff and
    value are arrays over the columns; panels run until the last column
    stops, and the columns that share a cutoff share one tail call.
    """
    total = peak = cutoff = None
    lo = 0.0
    hi = start
    intervals = 256 * max(1, math.ceil(start / (2.0 * step)))
    for _ in range(max_panels):
        x = np.linspace(lo, hi, intervals + 1)
        y = integrand(x)
        rows = _rows(x, y, what)
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
            f"{what} cutoff not reached", panels=max_panels, last_edge=lo,
        )
    for edge in np.unique(cutoff):
        at = cutoff == edge
        ext = np.linspace(edge, 2.0 * edge, 513)
        extra = np.trapezoid(_rows(ext, integrand(ext), what)[at], ext)
        if np.any(np.abs(extra) > tail_tol * np.abs(total[at])):
            raise NumericalConvergenceError(
                f"{what} not converged at its cutoff", cutoff=float(edge),
                relative_tail=float(np.max(np.abs(extra / total[at]))),
            )
        total[at] += extra
    shape = np.shape(y)[1:]
    return cutoff.reshape(shape)[()], total.reshape(shape)[()]
