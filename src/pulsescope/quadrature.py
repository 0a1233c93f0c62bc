"""Quadrature helpers: certified trapezoid refinement, one blocked kernel
transform, Filon transforms, certified outer cutoffs.

Spectral moments integrate smooth Gaussian-tailed kernels, where
composite trapezoid converges fast but must be *certified* by grid
refinement. Every sum_j c_j K(y_k x_j) in the package - chi, the field
and the inner emission transform (K = cos, sin), the tau = 0 focal
intensity (K = J1(x)/x) and Filon's rule - is a `kernel_transform`, the
one place that builds K(outer(y, x)) blocks. Filon-type weights treat an
e^{i q t} oscillation far above the grid Nyquist scale exactly; they need
only the plain Fourier sum plus two endpoint terms. Outer integrals are
cut off panel by panel and their tail certified by doubling the cutoff.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import NumericalConvergenceError

# bound on the elements of one kernel-matrix block
CHUNK_ELEMENTS = 4_000_000
# bound on the block bytes one CosSinMatrices store keeps (the reference
# scenario's store holds about 60 MB)
STORE_BYTES = 256 * 2**20


def refine_until_converged(
    evaluate: Callable[[int], float],
    n_start: int,
    rtol: float = 1e-9,
    max_doublings: int = 12,
    what: str = "integral",
) -> float:
    """Evaluate(n) on doubling grids until successive results agree.

    evaluate(n) must compute the quantity on an n-point grid. Returns the
    last value; raises NumericalConvergenceError if the relative change
    never drops below rtol.
    """
    prev = evaluate(n_start)
    n = n_start
    for _ in range(max_doublings):
        n = 2 * n - 1
        cur = evaluate(n)
        scale = max(abs(cur), abs(prev), 1e-300)
        if abs(cur - prev) <= rtol * scale:
            return cur
        prev = cur
    raise NumericalConvergenceError(
        f"{what} did not converge under grid refinement",
        rtol=rtol, n_final=n, last_change=abs(cur - prev) / scale,
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
    + Q e^{-i q h} (S - f_0 e^{i q t_0})].
    """
    t = np.asarray(t, dtype=float)
    f = np.asarray(f)
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


class CosSinMatrices:
    """cos and sin blocks of outer(y, x), kept per (x-grid, y-grid) pair.

    One store belongs to one pulse-area synthesis. The scan of chi(0, tau)
    in `eta`, p_e(0) and every radius of the excitation curve pass it to
    their transforms, as do the eta and p_e of one oracle row, so a
    repeated grid builds its matrices once. The store holds them until
    it is dropped. Grids are matched by their exact bytes. A block that
    would take the held bytes past STORE_BYTES is built, returned and not
    kept, so every caller of a full store rebuilds it.
    """

    def __init__(self):
        self._blocks = {}
        self.nbytes = 0

    def block(self, x, y, i0, trig):
        """trig(outer(y[i0:i0 + chunk], x)) for one chunk of y."""
        key = (x.tobytes(), y.tobytes(), i0, trig.__name__)
        m = self._blocks.get(key)
        if m is None:
            m = _trig_block(x, y, i0, trig)
            if self.nbytes + m.nbytes <= STORE_BYTES:
                self._blocks[key] = m
                self.nbytes += m.nbytes
        return m


def _chunk(x: np.ndarray) -> int:
    return max(1, int(CHUNK_ELEMENTS // max(x.size, 1)))


def _trig_block(x, y, i0, kernel):
    """kernel(outer(y[i0:i0 + chunk], x)); a numpy ufunc (cos, sin) fills
    the product matrix in place."""
    m = np.outer(y[i0:i0 + _chunk(x)], x)
    return kernel(m, out=m) if isinstance(kernel, np.ufunc) else kernel(m)


def kernel_transform(x, y, terms, matrices: CosSinMatrices | None = None):
    """sum_j c_j K(y_k x_j), summed over the (K, c) pairs of terms, for
    every y_k.

    Each c is real on the grid x with any quadrature weights already
    applied: a vector, or a matrix with one column per right-hand side,
    which then share each block of K. Computed as real matrix products
    over blocks of K(outer(y, x)) of at most CHUNK_ELEMENTS; an all-zero
    c is skipped with its matrix. Blocks come from `matrices` when given
    and are built and dropped otherwise; the sums are the same either way.
    """
    x = np.asarray(x, dtype=float)
    ys = np.atleast_1d(np.asarray(y, dtype=float))
    terms = [(kernel, np.ascontiguousarray(c, dtype=float)) for kernel, c in terms]
    out = np.zeros(ys.shape + terms[0][1].shape[1:])
    terms = [(kernel, c) for kernel, c in terms if c.any()]
    chunk = _chunk(x)
    for i0 in range(0, ys.size, chunk):
        for kernel, c in terms:
            m = (_trig_block(x, ys, i0, kernel) if matrices is None
                 else matrices.block(x, ys, i0, kernel))
            out[i0:i0 + chunk] += m @ c
    return out if np.ndim(y) else out[0]


def cos_sin_transform(x, y, a, b, matrices: CosSinMatrices | None = None):
    """sum_j a_j cos(y_k x_j) + b_j sin(y_k x_j) for every y_k.

    With a + ib = f * trapezoid_weights(x) this is Re int f(x) e^{-i y x} dx.
    """
    return kernel_transform(x, y, [(np.cos, a), (np.sin, b)], matrices)


def _fourier_sum(t, q, c, matrices: CosSinMatrices | None = None):
    """sum_j c_j e^{i q_k t_j} for complex c; each cos/sin block serves
    both the real and the imaginary part."""
    c = np.asarray(c)
    s = kernel_transform(t, q, [(np.cos, np.stack([c.real, c.imag], axis=1)),
                                (np.sin, np.stack([-c.imag, c.real], axis=1))],
                         matrices)
    return s[..., 0] + 1j * s[..., 1]


def oscillatory_cos_sin(t: np.ndarray, f: np.ndarray, q,
                        matrices: CosSinMatrices | None = None) -> np.ndarray:
    """int f(t) e^{i q t} dt by plain trapezoid (smooth, decayed kernels).

    Calls that share `matrices` reuse the cos/sin blocks of a repeated
    (t, q) pair.
    """
    return _fourier_sum(t, q, np.asarray(f) * trapezoid_weights(t), matrices)


def certified_tail_cutoff(
    integrand: Callable[[np.ndarray], np.ndarray],
    start: float,
    step: float,
    rel_floor: float = 1e-12,
    max_panels: int = 64,
    what: str = "outer integral",
):
    """Extend panel-by-panel until the integrand falls below rel_floor of
    its running peak; returns (cutoff, value).

    The value is the trapezoid integral over [0, cutoff] assembled from the
    panel grids. `add_certified_tail` then certifies the cutoff.
    """
    total = 0.0
    peak = 0.0
    lo = 0.0
    hi = start
    for _ in range(max_panels):
        x = np.linspace(lo, hi, 257)
        y = integrand(x)
        total += np.trapezoid(y, x)
        peak = max(peak, float(np.max(np.abs(y))))
        if peak > 0 and float(np.max(np.abs(y[-64:]))) < rel_floor * peak:
            return hi, total
        lo, hi = hi, hi + step
    raise NumericalConvergenceError(
        f"{what} cutoff not reached", panels=max_panels, last_edge=lo,
    )


def add_certified_tail(integrand, cutoff: float, value: float, rtol: float,
                       what: str) -> float:
    """value plus the integral over [cutoff, 2 cutoff], certified by
    requiring that doubled tail to stay within rtol of value."""
    ext = np.linspace(cutoff, 2.0 * cutoff, 513)
    extra = np.trapezoid(integrand(ext), ext)
    if abs(extra) > rtol * abs(value):
        raise NumericalConvergenceError(
            f"{what} not converged at its cutoff",
            cutoff=cutoff, relative_tail=float(abs(extra / value)),
        )
    return value + extra
