"""First-order Bessel function of the first kind, from scipy.

The focal-field kernels integrate J1 against oscillatory spectral weights,
so evaluation error is amplified by the outer quadrature. scipy's J1 is
within ~1e-15 absolute of arbitrary precision on the real line; this
module adds only the removable singularity of J1(x)/x.
"""

from __future__ import annotations

import numpy as np
from scipy.special import j1

#: First positive zero of J1 (spot-size sanity checks).
J1_FIRST_ZERO = 3.8317059702075123156


def j1_over_x(x):
    """J1(x)/x with the removable singularity: value 1/2 at x = 0."""
    x = np.asarray(x, dtype=float)
    zero = x == 0.0
    safe = np.where(zero, 1.0, x)
    return np.where(zero, 0.5, j1(safe) / safe)[()]
