"""Verification of the two sufficient-condition theorems on sampling grids.

``run_t1`` / ``run_t2`` compare the grid supremum/infimum of
Re(1 + z f''/f') against the theorem bound and evaluate the conclusion
through the induced Schwarz candidate w.  The ``proof_*`` operations
re-derive the sharp constants numerically by scanning the boundary-value
formulas over theta at k = 1 (k = 1 is extremal by monotonicity in k).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .analytic_core import (
    FunctionHandle,
    SamplingGrid,
    convexity_p,
    functionals,
    mobius_invert_t1,
    mobius_invert_t2,
    starlike_q,
)
from .errors import ParameterDomainError
from .search import golden_max, golden_min

# Theorem 2's bound and boundary value multiply beta^2 by small constants,
# which overflows to inf (and then NaN) from |beta| ~ 1e154 on.
T2_BETA_MAX = 1e150


@dataclass(frozen=True)
class RadiusHypothesis:
    """Extreme of Re(1 + z f''/f') on one circle (sup for theorem 1, inf
    for theorem 2) and the grid point where it is attained."""

    r: float
    extreme: float
    witness: complex


@dataclass(frozen=True)
class HypothesisReport:
    bound: float
    per_radius: tuple
    satisfied: bool
    margin_at_rmax: float


@dataclass(frozen=True)
class RadiusConclusion:
    """Conclusion diagnostics on one circle.  disk_slack is
    radius - max|q - center| of the theorem-1 target disk (positive means
    strictly inside) and is None for theorem 2."""

    r: float
    max_abs_w: float
    schwarz_ratio: float
    min_re_q: float
    disk_slack: float | None = None


@dataclass(frozen=True)
class ConclusionReport:
    per_radius: tuple
    order_estimate: float
    w_origin: complex


@dataclass(frozen=True)
class BoundaryScan:
    theta_samples: int
    k: float
    extremal_value: float
    theta_star: float


def _require_t1_beta(beta: float) -> None:
    if not 1.0 < beta < 3.0:
        raise ParameterDomainError(f"theorem 1 needs 1 < beta < 3 (got {beta:g})")


def _require_t2_beta(beta: float) -> None:
    if not (abs(beta) <= T2_BETA_MAX and (beta <= -1.0 or beta > 1.0)):
        raise ParameterDomainError(
            f"theorem 2 needs -{T2_BETA_MAX:g} <= beta <= -1 or "
            f"1 < beta <= {T2_BETA_MAX:g} (got {beta:g})"
        )


def _require_k(k: float) -> None:
    if k < 1.0:
        raise ParameterDomainError(f"k must be >= 1 (got {k:g})")


def t1_bound(beta: float) -> float:
    """Upper bound on Re(1 + z f''/f') in the theorem-1 hypothesis:
    (beta+1)/(2(beta-1)) for beta >= 2, (5 beta - 1)/(2(beta+1)) below.
    The branches agree at beta = 2, where both give 3/2."""
    _require_t1_beta(beta)
    if beta >= 2.0:
        return (beta + 1.0) / (2.0 * (beta - 1.0))
    return (5.0 * beta - 1.0) / (2.0 * (beta + 1.0))


def t2_bound(beta: float) -> float:
    """Lower bound on Re(1 + z f''/f') in the theorem-2 hypothesis:
    -(beta+1)/(2 beta (beta-1)) for beta <= -1, (3 beta + 1)/(2 beta (beta+1))
    for beta > 1."""
    _require_t2_beta(beta)
    if beta <= -1.0:
        # + 0.0 turns the -0.0 at beta = -1 into a plain 0.0
        return -(beta + 1.0) / (2.0 * beta * (beta - 1.0)) + 0.0
    return (3.0 * beta + 1.0) / (2.0 * beta * (beta + 1.0))


def _scan_radius(fh, beta, theorem, r, unit):
    z = r * unit
    q, p = functionals(fh, z)
    re_p = p.real
    if theorem == 1:
        i = int(np.argmax(re_p))
        w = mobius_invert_t1(beta, q)
    else:
        i = int(np.argmin(re_p))
        w = mobius_invert_t2(beta, q)
    rec = {
        "r": float(r),
        "extreme": float(re_p[i]),
        "witness": complex(z[i]),
        "max_abs_w": float(np.abs(w).max()),
        "min_re_q": float(q.real.min()),
        "disk_slack": None,
    }
    if theorem == 1:
        c = beta / (beta + 1.0)
        rec["disk_slack"] = float(c - np.abs(q - c).max())
    return rec


def _run(fh, beta, grid, theorem, bound, threads):
    unit = np.exp(1j * grid.angles())

    def worker(r):
        return _scan_radius(fh, beta, theorem, r, unit)

    # Rows are assembled in radii order regardless of the worker count, so
    # reports are identical across thread counts.
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(worker, grid.radii))
    else:
        rows = [worker(r) for r in grid.radii]

    if theorem == 1:
        satisfied = all(row["extreme"] < bound for row in rows)
        margin = bound - rows[-1]["extreme"]
        w0 = mobius_invert_t1(beta, starlike_q(fh, 0j))
    else:
        satisfied = all(row["extreme"] > bound for row in rows)
        margin = rows[-1]["extreme"] - bound
        w0 = mobius_invert_t2(beta, starlike_q(fh, 0j))

    hyp = HypothesisReport(
        bound=bound,
        per_radius=tuple(
            RadiusHypothesis(row["r"], row["extreme"], row["witness"]) for row in rows
        ),
        satisfied=satisfied,
        margin_at_rmax=margin,
    )
    con = ConclusionReport(
        per_radius=tuple(
            RadiusConclusion(
                r=row["r"],
                max_abs_w=row["max_abs_w"],
                schwarz_ratio=row["max_abs_w"] / row["r"],
                min_re_q=row["min_re_q"],
                disk_slack=row["disk_slack"],
            )
            for row in rows
        ),
        order_estimate=rows[-1]["min_re_q"],
        w_origin=w0,
    )
    return hyp, con


def run_t1(fh: FunctionHandle, beta: float, grid: SamplingGrid, threads: int = 1):
    """Check the theorem-1 hypothesis (Re p below t1_bound) and conclusion
    (w = mobius_invert_t1(beta, z f'/f) a Schwarz function; q inside the
    target disk) on the grid.  Returns (HypothesisReport, ConclusionReport).
    """
    return _run(fh, beta, grid, 1, t1_bound(beta), threads)


def run_t2(fh: FunctionHandle, beta: float, grid: SamplingGrid, threads: int = 1):
    """Check the theorem-2 hypothesis (Re p above t2_bound) and conclusion
    (w = mobius_invert_t2(beta, z f'/f) a Schwarz function; starlikeness
    order target (beta+1)/(2 beta))."""
    return _run(fh, beta, grid, 2, t2_bound(beta), threads)


def order_of_starlikeness(fh: FunctionHandle, grid: SamplingGrid) -> float:
    """min Re(z f'/f) over the largest sampled circle; by the harmonic
    minimum principle the largest circle controls all smaller radii."""
    z = grid.circle(grid.radii[-1])
    return float(starlike_q(fh, z).real.min())


def order_of_convexity(fh: FunctionHandle, grid: SamplingGrid) -> float:
    """min Re(1 + z f''/f') over the largest sampled circle."""
    z = grid.circle(grid.radii[-1])
    return float(convexity_p(fh, z).real.min())


def proof_boundary_value_t1(beta: float, theta, k: float):
    """Re(1 + z0 f''/f') on the |w| = 1 boundary parameterization w = e^{i theta}:

        (1+beta)/2 + (beta^2-1)(1-beta+k) / (2 (1+beta^2-2 beta cos theta)).
    """
    _require_t1_beta(beta)
    _require_k(k)
    th = np.asarray(theta, dtype=float)
    den = 1.0 + beta * beta - 2.0 * beta * np.cos(th)
    val = 0.5 * (1.0 + beta) + (beta * beta - 1.0) * (1.0 - beta + k) / (2.0 * den)
    return float(val) if np.ndim(theta) == 0 else val


def proof_boundary_value_t2(beta: float, theta, k: float):
    """Boundary value for theorem 2:

        1/2 + 1/(2 beta) - k (beta^2-1) / (2 (1+beta^2-2 beta cos theta)).

    At beta = -1 the k-term has an identically zero numerator and is
    dropped, which also removes the 0/0 at theta = pi.
    """
    _require_t2_beta(beta)
    _require_k(k)
    th = np.asarray(theta, dtype=float)
    base = 0.5 + 0.5 / beta
    if beta * beta == 1.0:
        val = np.full(th.shape, base)
    else:
        den = 1.0 + beta * beta - 2.0 * beta * np.cos(th)
        val = base - k * (beta * beta - 1.0) / (2.0 * den)
    return float(val) if np.ndim(theta) == 0 else val


def _extremal_scan(value_at, n, minimize):
    if n < 256:
        raise ParameterDomainError(f"theta_samples must be >= 256 (got {n})")
    th = 2.0 * np.pi * np.arange(n) / n
    vals = value_at(th)
    delta = 2.0 * np.pi / n
    # Values within rounding noise of the extreme count as ties and resolve
    # to the smallest angle; refinement must beat the coarse sample beyond
    # noise to move the reported angle.
    if minimize:
        vbest = float(vals.min())
        noise = 1e-12 * max(1.0, abs(vbest))
        i = int(np.argmax(vals <= vbest + noise))
        x, v = golden_min(lambda t: float(value_at(t)), th[i] - delta, th[i] + delta)
        if vals[i] - v <= noise:
            x, v = float(th[i]), float(vals[i])
    else:
        vbest = float(vals.max())
        noise = 1e-12 * max(1.0, abs(vbest))
        i = int(np.argmax(vals >= vbest - noise))
        x, v = golden_max(lambda t: float(value_at(t)), th[i] - delta, th[i] + delta)
        if v - vals[i] <= noise:
            x, v = float(th[i]), float(vals[i])
    return float(x % (2.0 * np.pi)), float(v)


def proof_extremal_t1(beta: float, theta_samples: int) -> BoundaryScan:
    """Minimum over theta of the theorem-1 boundary value at k = 1; equals
    t1_bound(beta) up to the refinement tolerance (sharpness of the bound)."""
    theta_star, val = _extremal_scan(
        lambda t: proof_boundary_value_t1(beta, t, 1.0), theta_samples, minimize=True
    )
    return BoundaryScan(theta_samples, 1.0, val, theta_star)


def proof_extremal_t2(beta: float, theta_samples: int) -> BoundaryScan:
    """Maximum over theta of the theorem-2 boundary value at k = 1; equals
    t2_bound(beta) up to the refinement tolerance."""
    theta_star, val = _extremal_scan(
        lambda t: proof_boundary_value_t2(beta, t, 1.0), theta_samples, minimize=False
    )
    return BoundaryScan(theta_samples, 1.0, val, theta_star)
