"""Golden-section refinement of scalar extrema on an interval, and the
coarse-scan-then-refine policy built on it."""

from __future__ import annotations

import math

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_min(fun, a: float, b: float, tol: float = 1e-12):
    """Minimize a unimodal fun on [a, b]; returns (x, fun(x)).

    The result is the best of the final bracket midpoint and the interior
    probes, so the returned value is always an actual evaluation at the
    returned point.
    """
    if not b > a:
        raise ValueError("golden_min needs b > a")
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = fun(c)
    fd = fun(d)
    while (b - a) > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fun(d)
    m = 0.5 * (a + b)
    candidates = [(fun(m), m), (fc, c), (fd, d)]
    val, x = min(candidates)
    return x, val


def golden_max(fun, a: float, b: float, tol: float = 1e-12):
    """Maximize fun on [a, b] via golden_min of its negation."""
    x, val = golden_min(lambda t: -fun(t), a, b, tol)
    return x, -val


def refine_extremum(th, vals, refine, sense: int):
    """Extreme of vals, sampled at the uniform angles th of the full circle,
    refined by refine(a, b) -> (x, value) on one sample spacing either side
    of the coarse extreme.  sense = 1 takes the maximum, -1 the minimum.

    Values within rounding noise of the extreme count as ties and resolve
    to the smallest angle; the refined point replaces the coarse sample only
    if it beats it by more than the noise.  Returns (theta mod 2 pi, value).
    """
    s = sense * np.asarray(vals)
    best = float(s.max())
    noise = 1e-12 * max(1.0, abs(best))
    i = int(np.argmax(s >= best - noise))
    delta = 2.0 * math.pi / len(th)
    x, v = refine(th[i] - delta, th[i] + delta)
    if sense * v - s[i] <= noise:
        x, v = th[i], vals[i]
    return float(x % (2.0 * math.pi)), float(v)
