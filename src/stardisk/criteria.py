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
    _require_in_disk,
    convexity_p,
    functionals,
    log_one_minus,
    mobius_invert_t1,
    mobius_invert_t2,
    starlike_q,
)
from .errors import CriticalPointError, FunctionZeroError, ParameterDomainError, PoleError
from .search import golden_max, golden_min, refine_extremum

# Theorem 2's bound and boundary value multiply beta^2 by small constants,
# which overflows to inf (and then NaN) from |beta| ~ 1e154 on.
T2_BETA_MAX = 1e150
# Grid points (betas x angles) of one array pass over one circle when _run
# scans a run of power handles together.  Passes of 2**16 points were no
# faster and raised the peak RSS by 11 MB.
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


def _scan(theorem, handles, betas, z, lg):
    """The _reduce results of the handles at their betas on one circle z:
    one handle through functionals, or a run of power handles as one
    (betas x angles) array pass over lg = Log(1 - z) through the same
    formulas and guards.  The power pass has no small-z patch, so z must
    keep |z| > SMALL_Z."""
    if len(handles) == 1:
        q, p = functionals(handles[0], z[None])
    else:
        _require_in_disk(z)
        f, df, d2f = _power_jet(np.array([fh.mu for fh in handles])[:, None], lg)
        p = _p_from_jet(z, df, d2f)
        del d2f
        q = _q_from_jet(None, z, f, df)
        del f, df
    b = np.asarray(betas)[:, None]
    invert = mobius_invert_t1 if theorem == 1 else mobius_invert_t2
    return _reduce(theorem, b, z, q, p, invert(b, q))


def _run(handles, betas, grid, theorem, bounds, threads=1):
    """The report pairs of the handles at their betas and bounds, equal to
    one run per beta.

    The betas are split into groups: a run of consecutive power handles,
    at most SWEEP_BLOCK_POINTS // angular_count of them, when every grid
    point has |z| > SMALL_Z, or else a single beta.  Each group is scanned
    circle by circle, on a thread pool over the radii when threads > 1;
    pool.map keeps their order, so the reports do not depend on the worker
    count.  Log(1 - z) is computed once, and only when a group holds
    several betas.  Such a group is replayed beta by beta when a guard
    fires, so the first error is that of the per-beta loop.
    """
    unit = np.exp(1j * grid.angles())
    per_group = SWEEP_BLOCK_POINTS // grid.angular_count
    # |r e^{i theta}| can round below r, so the test is on the points
    if len(handles) < 2 or np.abs(grid.radii[0] * unit).min() <= SMALL_Z:
        per_group = 1
    groups = []
    for k, fh in enumerate(handles):
        if (fh.kind == "power" and groups and len(groups[-1]) < per_group
                and handles[groups[-1][-1]].kind == "power"):
            groups[-1].append(k)
        else:
            groups.append([k])
    several = any(len(ks) > 1 for ks in groups)
    lg = log_one_minus(np.asarray(grid.radii)[:, None] * unit) if several else None
    invert = mobius_invert_t1 if theorem == 1 else mobius_invert_t2
    out = []
    for ks in groups:
        hs, bs = [handles[k] for k in ks], [betas[k] for k in ks]

        def scan(i):
            return _scan(theorem, hs, bs, grid.radii[i] * unit, None if lg is None else lg[i])

        try:
            if threads > 1:
                with ThreadPoolExecutor(max_workers=threads) as pool:
                    rows = list(pool.map(scan, range(len(grid.radii))))
            else:
                rows = [scan(i) for i in range(len(grid.radii))]
            # q(0) = 1 + a_2 * 0 has real part exactly 1 for every handle, so
            # w(0) needs no jet; the check still raises the pole of beta -> 1.
            w0 = invert(np.asarray(bs), np.ones(len(bs), dtype=complex))
        except (CriticalPointError, FunctionZeroError, PoleError):
            if len(ks) == 1:
                raise
            for k in ks:
                out += _run(handles[k:k + 1], betas[k:k + 1], grid, theorem,
                            bounds[k:k + 1], threads)
            continue
        for j, k in enumerate(ks):
            # the per-radius reductions of beta j (a slack of None stays None)
            cols = [[None if a is None else a[j] for a in col] for col in zip(*rows)]
            out.append(_reports(theorem, grid.radii, bounds[k], complex(w0[j]), *cols))
    return out


def sweep(handles, betas, grid: SamplingGrid, theorem: int):
    """[run_t1 or run_t2 (by theorem) at (handle, beta)] for each pair of
    handles and betas, equal to the per-beta calls, on one thread.

    Every bound is checked before any work.  _run scans runs of consecutive
    power handles together, one array pass per circle, and nothing is
    returned before every beta is done.
    """
    bound_of = t1_bound if theorem == 1 else t2_bound
    return _run(handles, betas, grid, theorem, [bound_of(b) for b in betas])


def run_t1(fh: FunctionHandle, beta: float, grid: SamplingGrid, threads: int = 1):
    """Check the theorem-1 hypothesis (Re p below t1_bound) and conclusion
    (w = mobius_invert_t1(beta, z f'/f) a Schwarz function; q inside the
    target disk) on the grid.  Returns (HypothesisReport, ConclusionReport).
    """
    return _run([fh], [beta], grid, 1, [t1_bound(beta)], threads)[0]


def run_t2(fh: FunctionHandle, beta: float, grid: SamplingGrid, threads: int = 1):
    """Check the theorem-2 hypothesis (Re p above t2_bound) and conclusion
    (w = mobius_invert_t2(beta, z f'/f) a Schwarz function; starlikeness
    order target (beta+1)/(2 beta))."""
    return _run([fh], [beta], grid, 2, [t2_bound(beta)], threads)[0]


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


def _extremal_scan(value_at, n, sense):
    if n < 256:
        raise ParameterDomainError(f"theta_samples must be >= 256 (got {n})")
    th = 2.0 * np.pi * np.arange(n) / n
    golden = golden_max if sense == 1 else golden_min
    return refine_extremum(
        th, value_at(th), lambda a, b: golden(lambda t: float(value_at(t)), a, b), sense
    )


def proof_extremal_t1(beta: float, theta_samples: int) -> BoundaryScan:
    """Minimum over theta of the theorem-1 boundary value at k = 1; equals
    t1_bound(beta) up to the refinement tolerance (sharpness of the bound)."""
    theta_star, val = _extremal_scan(
        lambda t: proof_boundary_value_t1(beta, t, 1.0), theta_samples, -1
    )
    return BoundaryScan(theta_samples, 1.0, val, theta_star)


def proof_extremal_t2(beta: float, theta_samples: int) -> BoundaryScan:
    """Maximum over theta of the theorem-2 boundary value at k = 1; equals
    t2_bound(beta) up to the refinement tolerance."""
    theta_star, val = _extremal_scan(
        lambda t: proof_boundary_value_t2(beta, t, 1.0), theta_samples, 1
    )
    return BoundaryScan(theta_samples, 1.0, val, theta_star)
