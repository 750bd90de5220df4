"""Numerical probes of the boundary-maximum lemma for Schwarz functions.

Where |w| attains its maximum over a circle |z| = r, the ratio
z w'(z)/w(z) is a real number k >= 1.  ``jack_probe`` locates the argmax
by a coarse scan plus golden-section refinement and measures the ratio
with a central difference, keeping the probe independent of any
closed-form derivative of w.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .analytic_core import FunctionHandle, mobius_invert_t1, mobius_invert_t2, starlike_q
from .errors import DegenerateSchwarzError, DiskDomainError, ParameterDomainError
from .search import golden_max, refine_extremum

DEGENERATE_TOL = 1e-13


@dataclass(frozen=True)
class SchwarzFunction:
    """Analytic w on the disk with w(0) = 0: a monomial z^n, a Blaschke
    composition z (z-a)/(1 - conj(a) z), or the w induced by a theorem run.

    Instances are callables accepting scalars or arrays of points.
    """

    kind: str
    label: str
    n: int = 1
    a: complex = 0j
    theorem: int = 1
    handle: FunctionHandle | None = None
    beta: float = 0.0

    def __call__(self, z):
        if self.kind == "monomial":
            return z**self.n
        if self.kind == "blaschke":
            return z * (z - self.a) / (1.0 - self.a.conjugate() * z)
        q = starlike_q(self.handle, z)
        if self.theorem == 1:
            return mobius_invert_t1(self.beta, q)
        return mobius_invert_t2(self.beta, q)


@dataclass(frozen=True)
class JackProbe:
    """Boundary argmax location and the measured ratio z0 w'(z0)/w(z0)."""

    r: float
    theta_star: float
    w_at_max: complex
    ratio: complex
    k_estimate: float


def monomial(n: int) -> SchwarzFunction:
    if n < 1:
        raise ParameterDomainError(f"monomial order must be >= 1 (got {n})")
    return SchwarzFunction(kind="monomial", label=f"monomial:{n}", n=n)


def blaschke(a) -> SchwarzFunction:
    a = complex(a)
    if abs(a) >= 1.0:
        raise ParameterDomainError(f"Blaschke zero needs |a| < 1 (got |a| = {abs(a):g})")
    return SchwarzFunction(kind="blaschke", label=f"blaschke:{a.real:g}{a.imag:+g}j", a=a)


def induced(theorem: int, handle: FunctionHandle, beta: float) -> SchwarzFunction:
    """The Schwarz candidate a theorem run induces from z f'/f."""
    if theorem not in (1, 2):
        raise ParameterDomainError(f"theorem must be 1 or 2 (got {theorem})")
    if not -np.inf < beta < np.inf:
        raise ParameterDomainError(f"induced w needs -inf < beta < inf (got {beta:g})")
    return SchwarzFunction(
        kind="induced",
        label=f"induced:t{theorem}:{handle.label}:{beta:g}",
        theorem=theorem,
        handle=handle,
        beta=beta,
    )


def boundary_argmax(w, r: float, n: int = 1024):
    """Locate the maximum of |w| on |z| = r.

    Coarse scan over n uniform angles, then golden-section refinement of
    the bracket around the first coarse argmax down to 1e-12 in theta, by
    search.refine_extremum.  Returns (theta_star, max_abs).
    """
    if not 0.0 < r < 1.0:
        raise DiskDomainError(f"probe radius must be in (0, 1) (got {r:g})")
    if n < 256:
        raise ParameterDomainError(f"angular sample count must be >= 256 (got {n})")
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

    w' comes from a complex central difference with step 1e-6 (1 - r), so
    the probe never trusts a closed-form derivative of w.  At a strict
    maximum the ratio is real with Re >= 1 up to difference error.
    """
    theta, _ = boundary_argmax(w, r, n)
    z0 = r * cmath.exp(1j * theta)
    w0 = complex(w(z0))
    if abs(w0) < DEGENERATE_TOL:
        raise DegenerateSchwarzError("w vanishes at the boundary argmax")
    h = 1e-6 * (1.0 - r)
    dw = (complex(w(z0 + h)) - complex(w(z0 - h))) / (2.0 * h)
    ratio = z0 * dw / w0
    return JackProbe(r=r, theta_star=theta, w_at_max=w0, ratio=ratio, k_estimate=ratio.real)
