"""The plain bisection spot_size is checked against, and an evaluator
call counter, shared by the focal and scenario tests."""

import numpy as np


def plain_bisection(curve, threshold=0.5, rtol=1e-6):
    """(spot, evaluations) of bisecting the curve's evaluator on its
    sample bracket until the bracket is at most rtol * hi wide."""
    hi_idx = np.nonzero(curve.values <= threshold)[0][0]
    lo, hi = curve.radii[hi_idx - 1], curve.radii[hi_idx]
    evaluations = 0
    while (hi - lo) > rtol * hi:
        mid = 0.5 * (lo + hi)
        evaluations += 1
        if curve.evaluator(mid) > threshold:
            lo = mid
        else:
            hi = mid
    return float(0.5 * (lo + hi)), evaluations


def counted(curve):
    """The radii the curve's evaluator is called at from now on, one per call."""
    radii = []
    evaluate = curve.evaluator

    def wrapped(r):
        radii.append(r)
        return evaluate(r)

    curve.evaluator = wrapped
    return radii
