"""Jets and functionals of normalized analytic functions on the unit disk.

A :class:`FunctionHandle` represents a member of the normalized class
(f(0) = 0, f'(0) = 1) and evaluates to a second-order jet (f, f', f'').
On top of the jets sit the starlikeness functional z f'/f, the convexity
functional 1 + z f''/f', the Mobius maps used by the verification
theorems, and the Alexander integral transform.

Evaluators are pure and accept a complex scalar or a numpy array of
points; scalar input gives scalar output.  Powers (1-z)^p are computed as
exp(p Log(1-z)) with the principal logarithm, which is analytic on the
disk because Re(1-z) > 0 there.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from itertools import groupby
from typing import NamedTuple

import numpy as np
from numpy.polynomial import polynomial as npp

from .errors import (
    CriticalPointError,
    DiskDomainError,
    FunctionZeroError,
    ParameterDomainError,
    PoleError,
)

# Below this |z| the removable singularity of z f'/f is patched with its
# two-term series; keeps 1e-12 accuracy while avoiding 0/0.
SMALL_Z = 1e-6
# |f| (or |f'|) below this counts as a vanishing value away from the origin.
ZERO_TOL = 1e-14
# Proximity threshold for Mobius poles.
POLE_TOL = 1e-13
# Series handles carry a_2 .. a_64 at most, so evaluation stays exact in doubles.
MAX_SERIES_COEFFS = 63
# Gauss-Legendre nodes of the quadrature in alexander_jet.
_ALEXANDER_NODES = 32

DEFAULT_RADII = (0.5, 0.9, 0.99)
DEFAULT_ANGULAR_COUNT = 4096


class Jet2(NamedTuple):
    """Value and first two derivatives at a point (or arrays thereof)."""

    f: complex
    df: complex
    d2f: complex


class DiskSpec(NamedTuple):
    """A disk in the complex plane."""

    center: complex
    radius: float


@dataclass(frozen=True)
class FunctionHandle:
    """A normalized analytic function on the unit disk.

    ``kind`` selects the representation:

    ``series``
        z + sum_{n>=2} a_n z^n with coefficients a_2..a_N in ``coeffs``.
    ``power``
        (1/mu)(1 - (1-z)^mu), principal branch, exponent in ``mu``.
    ``log``
        -log(1-z), the mu -> 0 limit of the power form.
    ``koebe``
        z/(1-z)^2.
    ``halfplane``
        z/(1-z).

    Handles are immutable and safe to share across threads.
    """

    kind: str
    label: str
    coeffs: tuple = ()
    mu: float = 0.0

    def __post_init__(self):
        if self.kind not in _EVALUATORS:
            raise ParameterDomainError(f"unknown handle kind '{self.kind}'")
        if self.kind == "series" and len(self.coeffs) > MAX_SERIES_COEFFS:
            raise ParameterDomainError(
                f"series handles are capped at a_{MAX_SERIES_COEFFS + 1} "
                f"(got {len(self.coeffs)} coefficients)"
            )
        if self.kind == "power" and self.mu == 0.0:
            raise ParameterDomainError("power handles need mu != 0; use kind='log'")
        if not math.isfinite(self.mu):
            raise ParameterDomainError(f"handles need a finite mu (got {self.mu:g})")
        for n, a in enumerate(self.coeffs, 2):
            if not cmath.isfinite(a):
                raise ParameterDomainError(f"series coefficients must be finite (got a_{n} = {a})")


@dataclass(frozen=True)
class SamplingGrid:
    """Concentric-circle sampling: angles theta_j = 2 pi j / angular_count."""

    radii: tuple = DEFAULT_RADII
    angular_count: int = DEFAULT_ANGULAR_COUNT

    def __post_init__(self):
        radii = tuple(float(r) for r in self.radii)
        object.__setattr__(self, "radii", radii)
        if not radii:
            raise ParameterDomainError("at least one radius is required")
        if any(not 0.0 < r < 1.0 for r in radii):
            raise ParameterDomainError(f"radii must lie in (0, 1), got {radii}")
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise ParameterDomainError(f"radii must be strictly increasing, got {radii}")
        object.__setattr__(self, "angular_count", _integer(self.angular_count, "angular_count", 8))

    def angles(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.angular_count) / self.angular_count

    def circle(self, r: float) -> np.ndarray:
        return r * np.exp(1j * self.angles())


def default_grid() -> SamplingGrid:
    return SamplingGrid()


def log_one_minus(z):
    """Principal Log(1 - z), series-corrected for tiny |z|."""
    arr = np.asarray(z, dtype=complex)
    out = np.log(1.0 - arr)
    small = np.abs(arr) < 1e-8
    if np.count_nonzero(small):
        zs = np.where(small, arr, 0.0)
        out = np.where(small, -zs * (1.0 + 0.5 * zs), out)
    return out


def _refuse(mask, values, error, message, cast=complex):
    """Raise error(message.format(v)) where mask holds anywhere: v is the
    first such entry of values, broadcast to the shape of mask, in row-major
    order, passed through cast."""
    if np.count_nonzero(mask):
        raise error(message.format(cast(np.broadcast_to(values, np.shape(mask))[mask][0])))


def _beta_text(x: float) -> str:
    """x in its shortest round-trip digits, less a trailing '.0' (2.5, 2,
    1.0000001, 1e+150): a label or a refusal names the exact number."""
    text = repr(float(x))
    return text[:-2] if text.endswith(".0") else text


def _integer(value, name, least=None):
    """value as an int, which a numpy integer gives too; anything else,
    an integral float included, or an int below least (when given), raises
    ParameterDomainError naming name."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ParameterDomainError(f"{name} must be an integer (got {value!r})") from None
    if least is not None and value < least:
        raise ParameterDomainError(f"{name} must be >= {least} (got {value})")
    return value


def _require_in_disk(arr):
    if np.count_nonzero(np.isfinite(arr)) < arr.size:
        raise DiskDomainError("evaluation points must be finite")
    _refuse(np.abs(arr) >= 1.0, arr, DiskDomainError,
            "|z| >= 1 at z = {}; handles live on the open disk")


def _series_coef(fh):
    coef = np.zeros(max(3, len(fh.coeffs) + 2), dtype=complex)
    coef[1] = 1.0
    if fh.coeffs:
        coef[2 : 2 + len(fh.coeffs)] = fh.coeffs
    return coef


def _jet_series(fh, z):
    coef = _series_coef(fh)
    f = npp.polyval(z, coef)
    df = npp.polyval(z, npp.polyder(coef))
    d2f = npp.polyval(z, npp.polyder(coef, 2))
    return f, df, d2f


def _power_jet(mu, lg):
    """Jet of (1/mu)(1 - (1-z)^mu) from lg = Log(1-z); mu may be an array
    that broadcasts against lg, which evaluates many exponents at once."""
    # f = -expm1(mu L)/mu is the stable form of (1 - (1-z)^mu)/mu for all mu.
    f = -np.expm1(mu * lg) / mu
    df = np.exp((mu - 1.0) * lg)
    d2f = -(mu - 1.0) * np.exp((mu - 2.0) * lg)
    return f, df, d2f


def _jet_power(fh, z):
    return _power_jet(fh.mu, log_one_minus(z))


def _jet_log(fh, z):
    u = 1.0 - z
    return -log_one_minus(z), 1.0 / u, 1.0 / u**2


def _jet_koebe(fh, z):
    u = 1.0 - z
    return z / u**2, (1.0 + z) / u**3, (4.0 + 2.0 * z) / u**4


def _jet_halfplane(fh, z):
    u = 1.0 - z
    return z / u, 1.0 / u**2, 2.0 / u**3


_EVALUATORS = {
    "series": _jet_series,
    "power": _jet_power,
    "log": _jet_log,
    "koebe": _jet_koebe,
    "halfplane": _jet_halfplane,
}


def _may_vanish(handles):
    """(f', f/z): may each vanish in |z| < 1 for some handle, so need a zero
    count?  A series may.  With L = Log(1-z), |Im L| < pi/2 there.  f' is
    e^{(mu-1)L}, 1/(1-z), (1+z)/(1-z)^3 or 1/(1-z)^2 (power, log, Koebe, half
    plane), f/z is -L/z, 1/(1-z)^2 or 1/(1-z) (log, Koebe, half plane): none is 0.
    The power form's f/z = -expm1(mu L)/(mu z) is 0 only at z = 1 - e^{i phi}, phi =
    2 pi k/mu, k != 0, |phi| < pi/2; there |z| = 2|sin(phi/2)| < 1 needs |mu| > 6."""
    series = any(fh.kind == "series" for fh in handles)
    return series, series or any(fh.kind == "power" and abs(fh.mu) > 6.0 for fh in handles)


def _real(handles):
    """Whether every handle has real Taylor coefficients (all but a series
    with a complex one): then Re p, Re q, |w| and |q - c| are even in theta."""
    return all(c.imag == 0.0 for fh in handles for c in fh.coeffs)


def eval_jet(fh: FunctionHandle, z) -> Jet2:
    """Second-order jet (f, f', f'') of the handle at points of the disk."""
    arr = np.asarray(z, dtype=complex)
    _require_in_disk(arr)
    f, df, d2f = _EVALUATORS[fh.kind](fh, arr)
    if arr.ndim == 0:
        return Jet2(complex(f), complex(df), complex(d2f))
    return Jet2(np.asarray(f), np.asarray(df), np.asarray(d2f))


def _blocks(handles, z, size):
    """A sweep's blocks on the points z of one circle, as (lo, hi, lg): the
    handles[lo:hi], at most size, share one jet.  Power handles share the
    power form over lg = Log(1 - z), which has no small-z patch, when every
    |z| > SMALL_Z; any other handle shares only with its copies (lg None)."""
    # |r e^{i theta}| can round below r, so the test is on the points
    clear = np.abs(z).min() > SMALL_Z
    keys = [None if clear and fh.kind == "power" else fh for fh in handles]
    lg, hi = (log_one_minus(z) if None in keys else None), 0
    for key, run in groupby(keys):
        lo, hi = hi, hi + len(list(run))
        for i in range(lo, hi, size):
            yield i, min(i + size, hi), lg if key is None else None


def _block_jet(handles, z, lg):
    """The jet (f, f', f'') on z of one block of _blocks, as rows, and
    jet(rows, x), that of those rows at points x: the power form over lg =
    Log(1 - z), a row per handle, or with lg None one row of handles[0]'s
    eval_jet, looked up at call time, where a span tracer may replace it."""
    if lg is None:
        return eval_jet(handles[0], z[None]), lambda rows, x: eval_jet(handles[0], x)
    _require_in_disk(z)
    mu = np.array([fh.mu for fh in handles])
    return _power_jet(mu[:, None], lg), lambda rows, x: _power_jet(mu[rows], log_one_minus(x))


def _a2(fh) -> complex:
    return eval_jet(fh, 0j).d2f / 2.0


def _p_from_jet(arr, df, d2f):
    _refuse(np.abs(df) < ZERO_TOL, arr, CriticalPointError,
            "f has a critical point at z = {}; 1 + z f''/f' is singular there")
    return 1.0 + arr * d2f / df


def _q_from_jet(fh, arr, f, df):
    small = np.abs(arr) <= SMALL_Z
    _refuse((np.abs(f) < ZERO_TOL) & ~small, arr, FunctionZeroError,
            "f has a zero inside the disk at z = {}; "
            "z f'/f is singular there and f cannot be starlike")
    if not np.count_nonzero(small):
        return arr * df / f
    q = arr * df / np.where(small, 1.0, f)
    return np.where(small, 1.0 + _a2(fh) * arr, q)


def starlike_q(fh: FunctionHandle, z):
    """The starlikeness functional z f'(z)/f(z).

    The removable singularity at the origin is patched with the series
    value 1 + (f''(0)/2) z for |z| <= SMALL_Z.
    """
    arr = np.asarray(z, dtype=complex)
    jet = eval_jet(fh, arr)
    q = _q_from_jet(fh, arr, jet.f, jet.df)
    return complex(q) if arr.ndim == 0 else q


def convexity_p(fh: FunctionHandle, z):
    """The convexity functional 1 + z f''(z)/f'(z); equals 1 at z = 0."""
    arr = np.asarray(z, dtype=complex)
    jet = eval_jet(fh, arr)
    p = _p_from_jet(arr, jet.df, jet.d2f)
    return complex(p) if arr.ndim == 0 else p


def _mobius(beta, num, den, pole_message):
    """num / den, the value of a Mobius map, with its pole check: a point
    where |den| < POLE_TOL raises PoleError(pole_message.format(b)), b the
    beta of the first such point (beta broadcasts against den).  A complex
    scalar when num / den is 0-d, so when beta and the point both are."""
    _refuse(np.abs(den) < POLE_TOL, beta, PoleError, pole_message, _beta_text)
    out = num / den
    return complex(out) if out.ndim == 0 else out


def mobius_target(beta: float, z):
    """The target Mobius map beta (1 - z) / (beta - z)."""
    if beta == 0.0:
        raise ParameterDomainError("the target map needs beta != 0")
    arr = np.asarray(z, dtype=complex)
    return _mobius(beta, beta * (1.0 - arr), beta - arr,
                   "z = beta = {} is the pole of the target map")


def mobius_invert_t1(beta, q):
    """w = beta (q - 1) / (q - beta), the inverse of q = beta(1-w)/(beta-w).

    beta may be an array that broadcasts against q; a pole names the beta
    of its first point.
    """
    arr = np.asarray(q, dtype=complex)
    return _mobius(beta, beta * (arr - 1.0), arr - beta,
                   "q = beta = {} is the pole of the inverse map")


def mobius_invert_t2(beta, q):
    """w = beta (1 - q) / (1 - beta q), where q = z f'/f.

    This is the Schwarz candidate induced by subordinating f/(z f') = 1/q.
    beta may be an array that broadcasts against q, as in mobius_invert_t1.
    """
    arr = np.asarray(q, dtype=complex)
    return _mobius(beta, beta * (1.0 - arr), 1.0 - beta * arr,
                   "beta * q = 1 (beta = {}) is the pole of the inverse map")


def target_disk(beta: float) -> DiskSpec:
    """Image of the unit disk under the target map: center = radius = beta/(beta+1).

    Only meaningful for beta > 1; at lower beta the conclusion region is a
    half plane, not this disk.
    """
    if not 1.0 < beta < np.inf:
        raise ParameterDomainError(
            f"the target disk needs 1 < beta < inf (got {_beta_text(beta)})")
    c = beta / (beta + 1.0)
    return DiskSpec(complex(c), c)


def alexander_jet(fh: FunctionHandle, z) -> Jet2:
    """Jet of the Alexander transform g(z) = integral_0^z f(t)/t dt.

    Only the value needs quadrature (32-point Gauss-Legendre along the
    straight segment [0, z]); the derivatives are closed-form, g' = f/z and
    g'' = (z f' - f)/z^2, with series values 1 and f''(0)/2 at the origin.
    """
    arr = np.asarray(z, dtype=complex)
    _require_in_disk(arr)
    x, wt = np.polynomial.legendre.leggauss(_ALEXANDER_NODES)
    s = 0.5 * (x + 1.0)
    # g = sum_j (w_j / s_j) f(s_j z): the 1/t singularity never appears
    # because the integrand is sampled as f(s z)/(s z) * z = f(s z)/s.
    t = s.reshape((-1,) + (1,) * arr.ndim) * arr
    ft = _EVALUATORS[fh.kind](fh, t)[0]
    g = np.tensordot(0.5 * wt / s, ft, axes=(0, 0))

    jet = eval_jet(fh, arr)
    small = np.abs(arr) <= SMALL_Z
    a2 = _a2(fh)
    zsafe = np.where(small, 1.0, arr)
    dg = np.where(small, 1.0 + a2 * arr, jet.f / zsafe)
    d2g = np.where(small, a2, (arr * jet.df - jet.f) / zsafe**2)
    if arr.ndim == 0:
        return Jet2(complex(g), complex(dg), complex(d2g))
    return Jet2(np.asarray(g), np.asarray(dg), np.asarray(d2g))
