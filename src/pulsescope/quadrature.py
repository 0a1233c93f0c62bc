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
# scenario's store holds about 17 MB)
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
    it is dropped. Grids are matched by their exact bytes; a grid that
    `kernel_transform` folds is kept as its half >= 0, so the tau grid of
    chi and of the emission integral holds sin blocks over tau >= 0
    only. A block that would take the held bytes past STORE_BYTES is
    built, returned and not kept, so every caller of a full store
    rebuilds it.
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
    c, or column of c, is skipped with its product. Blocks come from
    `matrices` when given and are built and dropped otherwise; the sums
    are the same either way.

    When every K is cos or sin, a grid that is bit-exactly odd about 0
    (`symmetric_grid`) is folded onto its half >= 0. On x the
    coefficients fold, c(x) + c(-x) for cos and c(x) - c(-x) for sin,
    with a centre point counted once; an odd c then leaves the cos
    block unbuilt. On y the sums are computed for y >= 0 and mirrored,
    cos as even and sin as odd, which gives the bits of computing the
    negative half directly. Every other kernel or grid is summed as is.
    """
    x = np.asarray(x, dtype=float)
    ys = np.atleast_1d(np.asarray(y, dtype=float))
    terms = [(kernel, np.ascontiguousarray(c, dtype=float), _PARITY.get(kernel))
             for kernel, c in terms]
    folds = all(parity is not None for _, _, parity in terms)
    if folds and _mirrored(x):
        x = x[x.size // 2:]
        terms = [(kernel, _fold(c, parity), parity) for kernel, c, parity in terms]
    if folds and _mirrored(ys):
        half = ys.size // 2
        upper, lower = _blocked_sums(x, ys[half:], terms, matrices, mirror=True)
        out = np.concatenate([lower[::-1][:half], upper])
    else:
        out = _blocked_sums(x, ys, terms, matrices)[0]
    return out if np.ndim(y) else out[0]


# parity of each kernel that kernel_transform folds
_PARITY = {np.cos: 1.0, np.sin: -1.0}


def _mirrored(v: np.ndarray) -> bool:
    return np.array_equal(v, -v[::-1])


def _fold(c: np.ndarray, parity: float) -> np.ndarray:
    """c on a mirrored grid moved onto its half >= 0: c(x) + parity c(-x),
    with the centre point of an odd-length grid counted once."""
    half = c.shape[0] // 2
    folded = c[half:] + parity * c[::-1][half:]
    if c.shape[0] % 2:
        folded[0] = c[half] if parity > 0 else 0.0
    return folded


def _blocked_sums(x, ys, terms, matrices, mirror=False):
    """(sum over (K, c, parity) terms of K(outer(ys, x)) @ c, and with
    mirror the same sum at -ys from the same blocks, else None)."""
    out = np.zeros(ys.shape + terms[0][1].shape[1:])
    neg = np.zeros_like(out) if mirror else None
    live = []
    for kernel, c, parity in terms:
        nonzero = c.any(axis=0)
        if not np.any(nonzero):
            continue
        cols = None
        if not np.all(nonzero):
            cols = np.flatnonzero(nonzero)
            c = np.ascontiguousarray(c[:, cols])
        live.append((kernel, c, cols, parity))
    chunk = _chunk(x)
    for i0 in range(0, ys.size, chunk):
        rows = slice(i0, i0 + chunk)
        for kernel, c, cols, parity in live:
            m = (_trig_block(x, ys, i0, kernel) if matrices is None
                 else matrices.block(x, ys, i0, kernel))
            part = m @ c
            at = rows if cols is None else (rows, cols)
            out[at] += part
            if neg is not None:
                neg[at] += parity * part
    return out, neg


def symmetric_grid(span: float, n: int) -> np.ndarray:
    """np.linspace(-span, span, n >= 2), with its step, built bit-exactly
    odd about 0 (t == -t[::-1]) by mirroring its half >= 0."""
    upper = np.linspace(0.0 if n % 2 else span / (n - 1), span, (n + 1) // 2)
    return np.concatenate([-upper[::-1][:n // 2], upper])


def cos_sin_transform(x, y, a, b, matrices: CosSinMatrices | None = None):
    """sum_j a_j cos(y_k x_j) + b_j sin(y_k x_j) for every y_k.

    With a + ib = f * trapezoid_weights(x) this is Re int f(x) e^{-i y x} dx.
    """
    return kernel_transform(x, y, [(np.cos, a), (np.sin, b)], matrices)


def _fourier_sum(t, q, c, matrices: CosSinMatrices | None = None):
    """sum_j c_j e^{i q_k t_j} for complex c, a vector or a matrix with one
    column per right-hand side; each cos/sin block serves both the real
    and the imaginary part of every column."""
    c = np.asarray(c)
    cols = c.reshape(c.shape[0], -1)
    k = cols.shape[1]
    s = kernel_transform(t, q, [(np.cos, np.hstack([cols.real, cols.imag])),
                                (np.sin, np.hstack([-cols.imag, cols.real]))],
                         matrices)
    out = s[..., :k] + 1j * s[..., k:]
    return out.reshape(np.shape(q) + c.shape[1:])[()]


def oscillatory_cos_sin(t: np.ndarray, f: np.ndarray, q,
                        matrices: CosSinMatrices | None = None) -> np.ndarray:
    """int f(t) e^{i q t} dt by plain trapezoid (smooth, decayed kernels).

    f is a vector over t, or a matrix with one column per kernel, all
    summed against the same cos/sin blocks. Calls that share `matrices`
    reuse the blocks of a repeated (t, q) pair.
    """
    weighted = (np.asarray(f).T * trapezoid_weights(t)).T
    return _fourier_sum(t, q, weighted, matrices)


def _rows(y, n: int) -> np.ndarray:
    """Integrand values at n points, one contiguous row per column."""
    return np.ascontiguousarray(np.reshape(y, (n, -1)).T)


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
    integrand(x) may return a matrix with one column per integrand (one
    per radius in `f_integral`). Each column then stops at its own panel,
    with the cutoff and value it has alone, and cutoff and value are
    arrays over the columns; panels run until the last column stops.
    """
    total = peak = cutoff = None
    lo = 0.0
    hi = start
    for _ in range(max_panels):
        x = np.linspace(lo, hi, 257)
        y = integrand(x)
        rows = _rows(y, x.size)
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
            shape = np.shape(y)[1:]
            return cutoff.reshape(shape)[()], total.reshape(shape)[()]
        lo, hi = hi, hi + step
    raise NumericalConvergenceError(
        f"{what} cutoff not reached", panels=max_panels, last_edge=lo,
    )


def add_certified_tail(integrand, cutoff, value, rtol: float,
                       what: str):
    """value plus the integral over [cutoff, 2 cutoff], certified by
    requiring that doubled tail to stay within rtol of value.

    For an integrand with columns, cutoff and value are arrays over them,
    as `certified_tail_cutoff` returns them: each column takes its tail
    over its own cutoff, and the columns that share a cutoff share one
    integrand call.
    """
    cutoff = np.asarray(cutoff, dtype=float)
    total = np.array(value, dtype=float)
    for edge in np.unique(cutoff):
        at = cutoff == edge
        ext = np.linspace(edge, 2.0 * edge, 513)
        extra = np.trapezoid(_rows(integrand(ext), ext.size)[at.ravel()], ext)
        if np.any(np.abs(extra) > rtol * np.abs(total[at])):
            raise NumericalConvergenceError(
                f"{what} not converged at its cutoff", cutoff=float(edge),
                relative_tail=float(np.max(np.abs(extra / total[at]))),
            )
        total[at] += extra
    return total[()]
