"""An oracle for the zero counts of the sweep's disk certificate: the roots
that numpy.polynomial.polynomial.polyroots finds inside |z| < r for f', f/z
and the Mobius denominator of a series handle.  It shares no grid, no
phase and no winding number with the sweep."""

import re

import numpy as np
from numpy.polynomial import polynomial as npp

import stardisk as sd
from stardisk.errors import CriticalPointError, FunctionZeroError, PoleError

# in the order the sweep checks f', f/z and the Mobius denominator
GUARD_ERRORS = (CriticalPointError, FunctionZeroError, PoleError)


def series_from_critical_points(factors):
    """The series handle z + sum a_n z^n whose f' is the product of the
    factors, each a coefficient list [1, c_1, ...] in z: a real root rho
    gives [1, -1/rho], a conjugate pair [1, -2 Re(1/rho), |1/rho|^2]."""
    df = np.ones(1)
    for factor in factors:
        df = npp.polymul(df, factor)
    return sd.series(df[1:] / np.arange(2, len(df) + 1))


def _roots(poly):
    poly = npp.polytrim(poly)  # drops exact zeros of the top degrees
    return npp.polyroots(poly) if len(poly) > 1 else np.empty(0)


def polynomials(fh, beta, theorem):
    """f', f/z and the Mobius denominator times f/z (q - beta for theorem 1,
    1 - beta q for theorem 2), all polynomials in z, of a series handle."""
    f = np.zeros(len(fh.coeffs) + 2, dtype=complex)
    f[1:] = (1.0,) + fh.coeffs
    zdf = npp.polymul([0.0, 1.0], npp.polyder(f))
    den = npp.polysub(zdf, beta * f) if theorem == 1 else npp.polysub(f, beta * zdf)
    # z f' - beta f and f - beta z f' vanish at 0, where q - beta does not
    return npp.polyder(f), f[1:], den[1:]


def expected(fh, beta, theorem, r):
    """(error type, count) of the first polynomial with a root in |z| < r,
    in the order the sweep checks them, or None."""
    for error, poly in zip(GUARD_ERRORS, polynomials(fh, beta, theorem)):
        k = int(np.sum(np.abs(_roots(poly)) < r))
        if k:
            return error, k
    return None


def closest_root(fh, beta, theorem, r):
    """min over the roots of the three polynomials of ||root| - r|."""
    roots = np.concatenate([_roots(p) for p in polynomials(fh, beta, theorem)])
    return np.abs(np.abs(roots) - r).min(initial=np.inf)


COUNT = re.compile(r" has (-?\d+) zeros? in \|z\| < (\S+?)[;( ]")


def swept(fh, beta, theorem, grid):
    """(error type, count) the sweep raises, or None; the message must name
    the grid's largest radius."""
    try:
        sd.sweep([fh], [beta], grid, theorem)
    except GUARD_ERRORS as exc:
        m = COUNT.search(str(exc))
        assert m, str(exc)
        assert float(m[2]) == grid.radii[-1], str(exc)
        return type(exc), int(m[1])
    return None
