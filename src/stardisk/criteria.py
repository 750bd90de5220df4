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
    SMALL_Z,
    FunctionHandle,
    SamplingGrid,
    _p_from_jet,
    _power_jet,
    _q_from_jet,
    convexity_p,
    functionals,
    log_one_minus,
    mobius_invert_t1,
    mobius_invert_t2,
    starlike_q,
)
from .errors import CriticalPointError, FunctionZeroError, ParameterDomainError, PoleError
from .search import golden_max, golden_min

# Theorem 2's bound and boundary value multiply beta^2 by small constants,
# which overflows to inf (and then NaN) from |beta| ~ 1e154 on.
T2_BETA_MAX = 1e150
# Grid points (betas x radii x angles) of one array pass of sweep.  Blocks
# of 2**16 points were no faster and raised the peak RSS by 11 MB.
SWEEP_BLOCK_POINTS = 2**13


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


def _map(fn, items, threads):
    """[fn(x) for x in items], on a thread pool when threads > 1.  The
    results keep the order of items whatever the worker count, so reports
    do not depend on it."""
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def _reduce(theorem, beta, z, q, p, w):
    """Reductions over the last (angle) axis of z, q = z f'/f, p = 1 + z f''/f'
    and w: the extreme of Re p (max for theorem 1, min for theorem 2) and
    its grid point, max|w|, min Re q and, for theorem 1, the slack of the
    target disk (None for theorem 2).  beta broadcasts against q."""
    re_p = p.real
    i = (np.argmax if theorem == 1 else np.argmin)(re_p, axis=-1, keepdims=True)
    extreme = np.take_along_axis(re_p, i, axis=-1)[..., 0]
    witness = np.take_along_axis(np.broadcast_to(z, p.shape), i, axis=-1)[..., 0]
    slack = None
    if theorem == 1:
        c = beta / (beta + 1.0)
        slack = (c - np.abs(q - c).max(axis=-1, keepdims=True))[..., 0]
    return extreme, witness, np.abs(w).max(axis=-1), q.real.min(axis=-1), slack


def _reports(theorem, radii, bound, w0, extreme, witness, max_abs_w, min_re_q, slack):
    """The (HypothesisReport, ConclusionReport) of one beta from the
    per-radius reductions of _reduce."""
    extreme = [float(e) for e in extreme]
    if theorem == 1:
        satisfied = all(e < bound for e in extreme)
        margin = bound - extreme[-1]
    else:
        satisfied = all(e > bound for e in extreme)
        margin = extreme[-1] - bound
    hyp = HypothesisReport(
        bound=bound,
        per_radius=tuple(
            RadiusHypothesis(r, e, complex(x)) for r, e, x in zip(radii, extreme, witness)
        ),
        satisfied=satisfied,
        margin_at_rmax=margin,
    )
    rows = []
    for k, r in enumerate(radii):
        m = float(max_abs_w[k])
        rows.append(RadiusConclusion(
            r=r,
            max_abs_w=m,
            schwarz_ratio=m / r,
            min_re_q=float(min_re_q[k]),
            disk_slack=float(slack[k]) if theorem == 1 else None,
        ))
    con = ConclusionReport(
        per_radius=tuple(rows), order_estimate=rows[-1].min_re_q, w_origin=w0
    )
    return hyp, con


def _scan_radius(fh, beta, theorem, r, unit):
    z = r * unit
    q, p = functionals(fh, z)
    invert = mobius_invert_t1 if theorem == 1 else mobius_invert_t2
    return _reduce(theorem, beta, z, q, p, invert(beta, q))


def _run(fh, beta, grid, theorem, bound, threads):
    unit = np.exp(1j * grid.angles())
    rows = _map(lambda r: _scan_radius(fh, beta, theorem, r, unit), grid.radii, threads)
    invert = mobius_invert_t1 if theorem == 1 else mobius_invert_t2
    w0 = invert(beta, starlike_q(fh, 0j))
    return _reports(theorem, grid.radii, bound, w0, *zip(*rows))


def _sweep_block(theorem, mu, betas, bounds, radii, z, lg):
    """The report pairs of a block of power handles (exponents mu) in one
    (betas x radii x angles) array pass over the shared z and lg = Log(1-z),
    through the formulas and guards of the per-beta path.  z must keep
    |z| > SMALL_Z, so the small-z patch (the only use of a handle) is never
    needed."""
    b = np.asarray(betas)[:, None, None]
    f, df, d2f = _power_jet(np.asarray(mu)[:, None, None], lg)
    p = _p_from_jet(z, df, d2f)
    del d2f
    q = _q_from_jet(None, z, f, df)
    del f, df
    invert = mobius_invert_t1 if theorem == 1 else mobius_invert_t2
    extreme, witness, max_abs_w, min_re_q, slack = _reduce(theorem, b, z, q, p, invert(b, q))
    # q(0) = 1 for every normalized f; for a power handle the small-z patch
    # 1 + a_2 * 0 of the per-beta path gives exactly 1 (a_2 = (1 - mu)/2 is finite).
    w0 = invert(b[:, 0, 0], np.ones(len(betas), dtype=complex))
    return [
        _reports(theorem, radii, bounds[j], complex(w0[j]), extreme[j], witness[j],
                 max_abs_w[j], min_re_q[j], None if slack is None else slack[j])
        for j in range(len(betas))
    ]


def sweep(handles, betas, grid: SamplingGrid, theorem: int, threads: int = 1):
    """[run_t1 or run_t2 (by theorem) at (handle, beta)] for each pair of
    handles and betas, equal to the per-beta calls.

    Every bound is checked before any work.  Consecutive power handles are
    evaluated in blocks of at most SWEEP_BLOCK_POINTS grid points as one
    array pass over Log(1 - z), computed once per sweep; threads > 1 maps
    the blocks over a thread pool.  Other handles, a grid reaching |z| <=
    SMALL_Z or |z| >= 1, and a block in which a guard fires go through the
    per-beta path.  Nothing is returned before every beta is done, so
    replaying a failed block beta by beta raises exactly the first error of
    the per-beta loop.
    """
    bound_of = t1_bound if theorem == 1 else t2_bound
    bounds = [bound_of(b) for b in betas]
    unit = np.exp(1j * grid.angles())
    z = np.asarray(grid.radii)[:, None] * unit
    rho = np.abs(z)
    batched = SMALL_Z < rho.min() and rho.max() < 1.0
    lg = log_one_minus(z) if batched else None
    per_block = max(1, SWEEP_BLOCK_POINTS // z.size)
    tasks = []  # (batchable, indices of consecutive betas)
    for k, fh in enumerate(handles):
        batchable = batched and fh.kind == "power"
        if batchable and tasks and tasks[-1][0] and len(tasks[-1][1]) < per_block:
            tasks[-1][1].append(k)
        else:
            tasks.append((batchable, [k]))

    def run(task):
        batchable, ks = task
        if batchable:
            try:
                return _sweep_block(theorem, [handles[k].mu for k in ks],
                                    [betas[k] for k in ks], [bounds[k] for k in ks],
                                    grid.radii, z, lg)
            except (CriticalPointError, FunctionZeroError, PoleError):
                pass  # the per-beta replay below raises the first error in order
        return [_run(handles[k], betas[k], grid, theorem, bounds[k], 1) for k in ks]

    return [pair for part in _map(run, tasks, threads) for pair in part]


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
