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
    """The calls of the curve's evaluator from now on, each the list of
    its radii (one for a float, every radius of an array)."""
    calls = []
    evaluate = curve.evaluator

    def wrapped(r):
        calls.append(np.atleast_1d(r).tolist())
        return evaluate(r)

    curve.evaluator = wrapped
    return calls
