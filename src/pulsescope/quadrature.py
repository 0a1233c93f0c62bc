"""Quadrature helpers: certified trapezoid refinement, the trapezoid
cos/sin transform, Filon transforms.

Three recurring needs drive this module. Spectral moments integrate
smooth Gaussian-tailed kernels, where composite trapezoid converges fast
but must be *certified* by grid refinement. Field synthesis and the
inner emission transform are trapezoid sums against cos and sin of
outer(y, x); `cos_sin_transform` computes them as real matrix-vector
products, and a `CosSinMatrices` store lets every radius of one curve
reuse the matrices. Emission amplitudes integrate data multiplied by
e^{i q t} with q far above the grid Nyquist scale of plain trapezoid
accuracy; there the transform uses Filon-type weights that treat the
oscillation exactly and interpolate the data linearly.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import NumericalConvergenceError

# bound on the elements of one phase-matrix block
CHUNK_ELEMENTS = 4_000_000


def trapezoid(y, x):
    return np.trapezoid(y, x)


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
    """
    t = np.asarray(t, dtype=float)
    f = np.asarray(f)
    h = t[1] - t[0]
    qs = np.atleast_1d(np.asarray(q, dtype=float))
    P, Q = _filon_weights(qs * h)
    out = np.empty(qs.shape, dtype=complex)
    # chunk over q to bound the phase-matrix size
    chunk = _chunk(t)
    for i0 in range(0, qs.size, chunk):
        sl = slice(i0, i0 + chunk)
        phase = np.exp(1j * np.outer(qs[sl], t[:-1]))
        weighted = P[sl, None] * f[None, :-1] + Q[sl, None] * f[None, 1:]
        out[sl] = h * np.einsum("qt,qt->q", phase, weighted)
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

    Pass one store to every transform of one computation (one excitation
    curve) so repeated grids build their matrices once; the store holds
    them until it is dropped. Grids are matched by their exact bytes.
    """

    def __init__(self):
        self._blocks = {}

    def block(self, x, y, i0, trig):
        """trig(outer(y[i0:i0 + chunk], x)) for one chunk of y."""
        key = (x.tobytes(), y.tobytes(), i0, trig.__name__)
        m = self._blocks.get(key)
        if m is None:
            m = self._blocks[key] = _trig_block(x, y, i0, trig)
        return m


def _chunk(x: np.ndarray) -> int:
    return max(1, int(CHUNK_ELEMENTS // max(x.size, 1)))


def _trig_block(x, y, i0, trig):
    m = np.outer(y[i0:i0 + _chunk(x)], x)
    return trig(m, out=m)


def cos_sin_transform(x, y, a, b, matrices: CosSinMatrices | None = None):
    """sum_j a_j cos(y_k x_j) + b_j sin(y_k x_j) for every y_k.

    a and b are real coefficients on the grid x with the quadrature
    weights already applied, so with a + ib = f * trapezoid_weights(x)
    this is Re int f(x) e^{-i y x} dx. Computed as real matrix-vector
    products over blocks of at most CHUNK_ELEMENTS; an all-zero a or b
    is skipped with its matrix. Blocks come from `matrices` when given
    and are built and dropped otherwise; the sums are the same either
    way.
    """
    x = np.asarray(x, dtype=float)
    ys = np.atleast_1d(np.asarray(y, dtype=float))
    terms = [(trig, np.ascontiguousarray(c, dtype=float))
             for trig, c in ((np.cos, a), (np.sin, b)) if np.any(c)]
    out = np.zeros(ys.shape)
    chunk = _chunk(x)
    for i0 in range(0, ys.size, chunk):
        for trig, c in terms:
            m = (_trig_block(x, ys, i0, trig) if matrices is None
                 else matrices.block(x, ys, i0, trig))
            out[i0:i0 + chunk] += m @ c
    return out if np.ndim(y) else out[0]


def oscillatory_cos_sin(t: np.ndarray, f: np.ndarray, q,
                        matrices: CosSinMatrices | None = None) -> np.ndarray:
    """int f(t) e^{i q t} dt by plain trapezoid (smooth, decayed kernels).

    Calls that share `matrices` reuse the cos/sin blocks of a repeated
    (t, q) pair.
    """
    fw = np.asarray(f) * trapezoid_weights(t)
    re = cos_sin_transform(t, q, fw.real, -fw.imag, matrices)
    im = cos_sin_transform(t, q, fw.imag, fw.real, matrices)
    return re + 1j * im


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
    panel grids.
    """
    edges = [0.0]
    total = 0.0
    peak = 0.0
    lo = 0.0
    hi = start
    for _ in range(max_panels):
        x = np.linspace(lo, hi, 257)
        y = integrand(x)
        total += np.trapezoid(y, x)
        peak = max(peak, float(np.max(np.abs(y))))
        edges.append(hi)
        if peak > 0 and float(np.max(np.abs(y[-64:]))) < rel_floor * peak:
            return hi, total
        lo, hi = hi, hi + step
    raise NumericalConvergenceError(
        f"{what} cutoff not reached", panels=max_panels, last_edge=edges[-1],
    )
