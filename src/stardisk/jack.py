"""Numerical probes of the boundary-maximum lemma for Schwarz functions.

Where |w| attains its maximum over a circle |z| = r, the ratio
z w'(z)/w(z) is a real number k >= 1.  ``jack_probe`` locates the argmax
by a coarse scan plus golden-section refinement and measures the ratio
with Cauchy's integral formula on a small circle around the argmax,
keeping the probe independent of any closed-form derivative of w.  A w is
a label and a map: z^n (monomial), z (z-a)/(1 - conj(a) z) (blaschke) or
the w a theorem run induces from z f'/f (induced).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .analytic_core import (
    FunctionHandle,
    _beta_text,
    _integer,
    mobius_invert_t1,
    mobius_invert_t2,
    starlike_q,
)
from .criteria import t1_bound, t2_bound
from .errors import DegenerateSchwarzError, DiskDomainError, ParameterDomainError
from .search import golden_max, refine_extremum

DEGENERATE_TOL = 1e-13


@dataclass(frozen=True)
class SchwarzFunction:
    """Analytic w on the disk with w(0) = 0: a label and a map taking scalars
    or arrays.  Equality and hash go by label, so the induced w of two series
    handles with the same series[N] label compare equal: the label's limit."""

    label: str
    map: Callable = field(compare=False)

    def __call__(self, z):
        return self.map(z)


@dataclass(frozen=True)
class JackProbe:
    """Boundary argmax location and the measured ratio z0 w'(z0)/w(z0)."""

    r: float
    theta_star: float
    w_at_max: complex
    ratio: complex
    k_estimate: float


def monomial(n: int) -> SchwarzFunction:
    n = _integer(n, "monomial order", 1)
    return SchwarzFunction(f"monomial:{n}", lambda z: z**n)


def blaschke(a) -> SchwarzFunction:
    a = complex(a)
    if not abs(a) < 1.0:  # also rejects a NaN zero
        raise ParameterDomainError(f"Blaschke zero needs |a| < 1 (got |a| = {_beta_text(abs(a))})")
    im = _beta_text(a.imag)
    label = f"blaschke:{_beta_text(a.real)}{'' if im.startswith('-') else '+'}{im}j"
    return SchwarzFunction(label, lambda z: z * (z - a) / (1.0 - a.conjugate() * z))


def induced(theorem: int, handle: FunctionHandle, beta: float) -> SchwarzFunction:
    """The Schwarz candidate a theorem run induces from z f'/f."""
    if theorem not in (1, 2):
        raise ParameterDomainError(f"theorem must be 1 or 2 (got {theorem})")
    (t1_bound if theorem == 1 else t2_bound)(beta)  # the theorem's beta interval

    def w(z):  # looks the maps up on each call, so a patched one is found
        q = starlike_q(handle, z)
        return mobius_invert_t1(beta, q) if theorem == 1 else mobius_invert_t2(beta, q)

    return SchwarzFunction(f"induced:t{theorem}:{handle.label}:{_beta_text(beta)}", w)


def boundary_argmax(w, r: float, n: int = 1024):
    """Locate the maximum of |w| on |z| = r.

    Coarse scan over n uniform angles, then golden-section refinement of
    the bracket around the first coarse argmax down to 1e-12 in theta, by
    search.refine_extremum.  Returns (theta_star, max_abs).
    """
    if not 0.0 < r < 1.0:
        raise DiskDomainError(f"probe radius must be in (0, 1) (got {_beta_text(r)})")
    n = _integer(n, "angular sample count", 256)
    th = 2.0 * np.pi * np.arange(n) / n
    vals = np.abs(np.asarray(w(r * np.exp(1j * th))))
    if vals.max() < DEGENERATE_TOL:
        raise DegenerateSchwarzError(
            f"|w| < {DEGENERATE_TOL:g} everywhere on |z| = {r:g}"
        )
    # Ties (|z^n| is constant on circles, for example) resolve to the
    # smallest coarse angle.
    return refine_extremum(
        th, vals, lambda a, b: golden_max(lambda t: abs(w(r * cmath.exp(1j * t))), a, b), 1
    )


def jack_probe(w, r: float, n: int = 1024) -> JackProbe:
    """Measure z0 w'(z0)/w(z0) at the boundary argmax z0 = r e^{i theta*}.

    w'(z0) ~ mean(w(z0 + h u) conj(u)) / h, Cauchy's formula on the circle
    |z - z0| = h = (1 - r)/10 inside the disk, u the eight 8th roots of unity:
    no closed-form derivative of w is trusted, and rounding, of order eps/h,
    outweighs the h^8 truncation.  At a strict maximum the ratio is real, >= 1.
    """
    theta, _ = boundary_argmax(w, r, n)
    z0 = r * cmath.exp(1j * theta)
    w0 = complex(w(z0))
    if abs(w0) < DEGENERATE_TOL:
        raise DegenerateSchwarzError("w vanishes at the boundary argmax")
    h = 0.1 * (1.0 - r)
    u = np.exp(0.25j * np.pi * np.arange(8))
    dw = complex(np.mean(w(z0 + h * u) * u.conj())) / h
    ratio = z0 * dw / w0
    return JackProbe(r=r, theta_star=theta, w_at_max=w0, ratio=ratio, k_estimate=ratio.real)
