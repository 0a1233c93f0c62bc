"""First-order Bessel function of the first kind, from scipy.

The focal-field kernels integrate J1 against oscillatory spectral weights,
so evaluation error is amplified by the outer quadrature. scipy's J1 is
within ~1e-15 absolute of arbitrary precision on the real line; this
module adds only the removable singularity of J1(x)/x.

`scipy.special` is imported at the first nonzero argument, not with the
package: commands that take J1(x)/x only at x = 0 (ρ = 0) never load it.
"""

from __future__ import annotations

import numpy as np


def j1_over_x(x):
    """J1(x)/x with the removable singularity: value 1/2 at x = 0, filled
    in place (the explicit out keeps a 0-d x an array for the division).
    An x with no nonzero element is all 1/2 without touching scipy."""
    x = np.asarray(x, dtype=float)
    if not x.any():
        return np.full(x.shape, 0.5)[()]
    from scipy.special import j1
    out = j1(x, out=np.empty(x.shape))
    np.divide(out, x, out=out, where=x != 0)
    out[x == 0] = 0.5
    return out[()]
