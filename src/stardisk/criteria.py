"""Verification of the two sufficient-condition theorems on sampling grids.

``run_t1`` / ``run_t2`` compare the grid supremum/infimum of
Re(1 + z f''/f') against the theorem bound and evaluate the conclusion
through the induced Schwarz candidate w.  The ``proof_*`` operations
re-derive the sharp constants numerically by scanning the boundary-value
formulas over theta at k = 1 (k = 1 is extremal by monotonicity in k).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import analytic_core
from .analytic_core import (
    FunctionHandle,
    SamplingGrid,
    _beta_text,
    _integer,
    _p_from_jet,
    _q_from_jet,
    convexity_p,
    mobius_invert_t1,
    mobius_invert_t2,
    starlike_q,
)
from .errors import (CriticalPointError, FunctionZeroError, ParameterDomainError, PoleError,
                     StardiskError)
from .search import golden_max, golden_min, refine_extremum

# Theorem 2's bound and boundary value multiply beta^2 by small constants,
# which overflows to inf (and then NaN) from |beta| ~ 1e154 on.
T2_BETA_MAX = 1e150
# A sweep scans max(SWEEP_BLOCK_POINTS // angular_count, 1) betas in one array
# pass over its circle, of block x (angular_count // 2 + 1) points for real
# coefficients, about half of this.  Full-circle passes of 2**16 points were
# no faster and raised the peak RSS by 11 MB.
SWEEP_BLOCK_POINTS = 2**13
# verify scans each circle in the fewest slices of at most SCAN_CHUNK_POINTS
# angles, sizes within one of each other, so no temporary of a scan is a
# fresh mmap whatever the angle count.  A run_t1 at 2**18 angles x 4 radii on
# 2 threads (2-core Xeon) took 126-133 ms in slices of 2**11, 68-80 ms in
# 2**13 and 54-56 ms in 2**14 (each slice is one Python-level _scan, and the
# workers share the GIL); 2**15 was no faster and its tracemalloc peak was
# 8.5 MB against 5.3.
SCAN_CHUNK_POINTS = 2**14
# A zero count reads the phase step between neighbouring samples; an arc
# whose step exceeds STEP_MAX is halved, at most HALVINGS times.
STEP_MAX = np.pi / 2
HALVINGS = 10


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
    extremal_value: float
    theta_star: float


def _require_t1_beta(beta: float) -> None:
    if not 1.0 < beta < 3.0:
        raise ParameterDomainError(f"theorem 1 needs 1 < beta < 3 (got {_beta_text(beta)})")


def _require_t2_beta(beta: float) -> None:
    if not (abs(beta) <= T2_BETA_MAX and (beta <= -1.0 or beta > 1.0)):
        raise ParameterDomainError(
            f"theorem 2 needs -{T2_BETA_MAX:g} <= beta <= -1 or "
            f"1 < beta <= {T2_BETA_MAX:g} (got {_beta_text(beta)})"
        )


def _require_k(k: float) -> None:
    if k < 1.0:
        raise ParameterDomainError(f"k must be >= 1 (got {_beta_text(k)})")


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
    and w, against whose rows beta, z, q and p broadcast: the extreme of Re p
    (max for theorem 1, min for theorem 2) and its grid point, max|w|, min Re q
    and, for theorem 1, the slack of the target disk (None for theorem 2)."""
    z, q, p = np.broadcast_arrays(z, q, p, w)[:3]
    re_p = p.real
    i = (np.argmax if theorem == 1 else np.argmin)(re_p, axis=-1, keepdims=True)
    extreme = np.take_along_axis(re_p, i, axis=-1)[..., 0]
    witness = np.take_along_axis(z, i, axis=-1)[..., 0]
    if theorem == 1:
        c = beta / (beta + 1.0)
        slack = (c - np.abs(q - c).max(axis=-1, keepdims=True))[..., 0]
    else:
        slack = np.full(extreme.shape, None)
    return extreme, witness, np.abs(w).max(axis=-1), q.real.min(axis=-1), slack


def _reports(theorem, radii, bound, w0, extreme, witness, max_abs_w, min_re_q, slack):
    """The (HypothesisReport, ConclusionReport) of one beta from its
    per-radius reductions of _reduce, as sequences of Python scalars."""
    if theorem == 1:
        satisfied = all(e < bound for e in extreme)
        margin = bound - extreme[-1]
    else:
        satisfied = all(e > bound for e in extreme)
        margin = extreme[-1] - bound
    hyp = HypothesisReport(bound, tuple(map(RadiusHypothesis, radii, extreme, witness)),
                           satisfied, margin)
    rows = tuple(
        RadiusConclusion(r, m, m / r, q, s)
        for r, m, q, s in zip(radii, max_abs_w, min_re_q, slack)
    )
    con = ConclusionReport(per_radius=rows, order_estimate=rows[-1].min_re_q, w_origin=w0)
    return hyp, con


def _zero_count(v, value_at, r, n, what):
    """The zeros inside |z| < r of an analytic function, one count per row
    of v, its values at the scanned angles theta_j = 2 pi j / n of |z| = r:
    the winding number of the closed circle about 0, the sum of the phase
    steps angle(v[j+1] conj v[j]) over 2 pi (the argument principle).

    v holds all n angles, or the n//2 + 1 of theta in [0, pi] for a
    function with real coefficients, whose steps on [pi, 2 pi] mirror
    those on [0, pi]: these are counted twice, plus, for odd n, the step
    from theta_{n//2} to its mirror image.  Each row is first closed by
    v[0] or, at that mirror image, by conj v[n//2], so every arc, the
    closing one too, runs between two stored samples.
    A step above STEP_MAX is refined by halving its arc, the midpoints of
    every such (row, arc) pair at once through value_at(rows, z); an arc
    still unresolved after HALVINGS halvings raises ParameterDomainError.
    """
    m = v.shape[-1]
    if m == n:
        v = np.concatenate([v, v[:, :1]], axis=1)
    elif n % 2:
        v = np.concatenate([v, v[:, -1:].conj()], axis=1)
    # arc j runs from theta_j to theta_{j+1}
    step = np.angle(v[:, 1:] * v[:, :-1].conj())
    weight = np.full(step.shape[1], 1.0 if m == n else 2.0)
    weight[m - 1:] = 1.0  # the closing or mirror step, taken once
    coarse = np.abs(step) > STEP_MAX
    step[coarse] = 0.0
    turn = step @ weight
    rows, arcs = np.nonzero(coarse)
    theta, wt = 2.0 * np.pi * arcs / n, weight[arcs]
    va, vb = v[rows, arcs], v[rows, arcs + 1]
    h = 2.0 * np.pi / n
    for _ in range(HALVINGS):
        if not rows.size:
            break
        h /= 2.0
        vm = value_at(rows, r * np.exp(1j * (theta + h)))
        rows, wt, theta = np.tile(rows, 2), np.tile(wt, 2), np.concatenate([theta, theta + h])
        va, vb = np.concatenate([va, vm]), np.concatenate([vm, vb])
        d = np.angle(vb * va.conj())
        fine = np.abs(d) <= STEP_MAX
        np.add.at(turn, rows[fine], wt[fine] * d[fine])
        rows, wt, theta, va, vb = (x[~fine] for x in (rows, wt, theta, va, vb))
    if rows.size:
        raise ParameterDomainError(
            f"the phase of {what} on |z| = {r} turns by more than pi/2 between "
            f"points 1/{2**HALVINGS} of a step apart at {n} angles; use more angles"
        )
    return np.rint(turn / (2.0 * np.pi)).astype(int)


def _scan(theorem, handles, betas, z, lg, certify=None):
    """The _reduce results of one block (analytic_core._blocks) on one circle
    z, the handles at their betas, from analytic_core._block_jet over lg.  The
    guard of p runs first, so a circle holding zeros of both f' and f
    raises CriticalPointError, and each jet array is dropped once used.

    certify = (r, n) counts, after each guard, the zeros inside z = r e^{i
    theta} (see _zero_count) of f' and f/z, where analytic_core._may_vanish
    cannot rule them out, and of the Mobius denominator; a positive count
    raises the error of that guard, naming the count and r.  A negative
    count, which only an aliased count gives, raises ParameterDomainError.
    """
    b = np.asarray(betas)
    (f, df, d2f), jet = analytic_core._block_jet(handles, z, lg)
    if theorem == 1:
        def denominator(beta, q):
            return q - beta
        invert, pole = mobius_invert_t1, "q - beta"
    else:
        def denominator(beta, q):
            return 1.0 - beta * q
        invert, pole = mobius_invert_t2, "1 - beta q"

    def certify_zero_free(needed, values, value_at, what, error, reason):
        # values() on z, value_at(rows, x) at refinement points x
        if certify is None or not needed:
            return
        k = _zero_count(values(), value_at, *certify, what)
        if k.min() < 0:
            # no analytic function winds negatively about 0: this count,
            # or an earlier one that let it run, aliased
            raise ParameterDomainError(
                f"{what} counts {k.min()} zeros in |z| < {certify[0]} at {certify[1]} "
                "angles, but an analytic function has no negative count: a phase "
                "aliased between samples; use more angles")
        bad = np.flatnonzero(k)
        if bad.size:
            i = bad[0]
            raise error(f"{what} has {k[i]} zero{'' if k[i] == 1 else 's'} in "
                        f"|z| < {certify[0]}{reason.format(_beta_text(b[i]))}")

    def den_at(rows, x):
        fx, dfx = jet(rows, x)[:2]
        return denominator(b[rows], x * dfx / fx)

    df_may, fz_may = analytic_core._may_vanish(handles)
    p = _p_from_jet(z, df, d2f)
    del d2f
    certify_zero_free(df_may, lambda: df, lambda rows, x: jet(rows, x)[1], "f'",
                      CriticalPointError, "; 1 + z f''/f' is singular there")
    q = _q_from_jet(handles[0], z, f, df)
    certify_zero_free(fz_may, lambda: f / z, lambda rows, x: jet(rows, x)[0] / x, "f/z",
                      FunctionZeroError, "; z f'/f is singular there and f cannot be starlike")
    del f, df
    w = invert(b[:, None], q)
    certify_zero_free(True, lambda: denominator(b[:, None], q), den_at, pole, PoleError,
                      " (beta = {}); the inverse map has a pole there")
    return _reduce(theorem, b[:, None], z, q, p, w)


def _unit(handles, grid):
    """e^{i theta_j} at the angles a scan of the handles covers, and at
    those alone: j = 0..angular_count // 2 (theta in [0, pi], one angle of
    each mirror pair) when analytic_core._real(handles), else the full circle."""
    n = grid.angular_count
    half = analytic_core._real(handles)
    # the bits of grid.angles() at those angles
    return np.exp(1j * (2.0 * np.pi * np.arange(n // 2 + 1 if half else n) / n))


def _circle(theorem, parts):
    """One circle's _reduce results, as Python scalars, from those of its
    slices in angle order: the first extreme of Re p over the slices' own
    first extremes is that of the whole row, as np.argmax picks it, and
    the witness is its slice's; max|w|, min Re q and the disk slack are a
    max, min and min over the slices (c - x rounds monotonically in x, so
    min_k (c - m_k) is c - max_k m_k bit for bit)."""
    extreme, witness, max_abs_w, min_re_q, slack = (np.concatenate(c) for c in zip(*parts))
    i = (np.argmax if theorem == 1 else np.argmin)(extreme)
    return (extreme[i].item(), witness[i].item(), max_abs_w.max().item(),
            min_re_q.min().item(), slack.min().item() if theorem == 1 else None)


def _run(fh, beta, grid, theorem, threads):
    """The (HypothesisReport, ConclusionReport) of fh at beta on every
    circle of the grid, at the angles of _unit.  The thread count and the
    bound are checked before any work.  Each circle is scanned in the fewest
    even slices of at most SCAN_CHUNK_POINTS angles, one _scan per (radius,
    slice) job, and its slices' reductions are combined exactly (_circle).  With
    threads > 1 every job of every radius goes on one thread pool, whose
    map keeps their order, so the reports do not depend on the worker
    count or the slice size.  A job that raises any StardiskError has the
    circles scanned whole, radius by radius, so the error raised is that
    of the first circle, with _scan's guard order over the whole of it.
    """
    threads = _integer(threads, "threads", 1)
    bound = (t1_bound if theorem == 1 else t2_bound)(beta)
    unit = _unit([fh], grid)
    slices = np.array_split(unit, -(-unit.size // SCAN_CHUNK_POINTS))
    jobs = [(r, u) for r in grid.radii for u in slices]

    def scan(job):
        r, u = job
        return _scan(theorem, [fh], [beta], r * u, None)

    try:
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                parts = list(pool.map(scan, jobs))
        else:  # a pool of one raised 36 verifies' peak RSS from 36.0 to 39.6-39.9 MB (2-core Xeon)
            parts = [scan(job) for job in jobs]
    except StardiskError:
        for r in grid.radii:
            scan((r, unit))
        raise
    k = len(slices)
    rows = [_circle(theorem, parts[i:i + k]) for i in range(0, len(parts), k)]
    # q(0) = 1 + a_2 * 0 has real part exactly 1 for every handle, so
    # w(0) needs no jet; the check still raises the pole of beta -> 1.
    invert = mobius_invert_t1 if theorem == 1 else mobius_invert_t2
    w0 = invert(np.asarray([beta]), np.ones(1, dtype=complex)).item()
    return _reports(theorem, grid.radii, bound, w0, *zip(*rows))


def sweep(handles, betas, grid: SamplingGrid, theorem: int):
    """[run_t1 or run_t2 (by theorem) at (handle, beta)] for each pair of
    handles and betas on the largest circle of the grid alone, r_max =
    grid.radii[-1]: each report has that one row.

    The disk inside it is certified first, by the argument principle: on
    |z| = r_max, the zeros inside of the Mobius denominator (q - beta for
    theorem 1, 1 - beta q for theorem 2) are counted, and of f' and f/z where
    analytic_core._may_vanish does not rule them out (a series; f/z of a
    power form with |mu| > 6).  A nonzero count raises CriticalPointError,
    FunctionZeroError or PoleError, in that order, naming the count and r_max.
    So f is locally univalent and zero-free on 0 < |z| < r_max, w has no pole
    there, and the maximum principle puts the extremes of Re p, |w| and Re q
    over the disk on that circle.  An unresolved phase step raises
    ParameterDomainError.  Where no count fires, the result equals the
    per-beta run_t1/run_t2 calls on SamplingGrid((r_max,), grid.angular_count).

    The theorem, the list lengths and every bound are checked before any
    work.  The betas are scanned on one thread in the blocks of
    analytic_core._blocks: runs of consecutive betas whose handles share one
    jet, cut every max(SWEEP_BLOCK_POINTS // angular_count, 1) betas.  A block
    is one jet (analytic_core._block_jet) and one (betas x angles) array pass.
    A block that raises any StardiskError is replayed beta by beta, so the
    error raised is that of the first beta that fails alone.  Nothing is
    returned before every beta is done.
    """
    if theorem not in (1, 2):
        raise ParameterDomainError(f"theorem must be 1 or 2 (got {theorem})")
    if len(handles) != len(betas):
        raise ParameterDomainError(f"sweep needs one beta per handle (got {len(handles)} "
                                   f"handles, {len(betas)} betas)")
    bounds = [(t1_bound if theorem == 1 else t2_bound)(b) for b in betas]
    r, n = grid.radii[-1], grid.angular_count
    z = r * _unit(handles, grid)
    invert = mobius_invert_t1 if theorem == 1 else mobius_invert_t2
    out = []
    for lo, hi, lg in analytic_core._blocks(handles, z, max(SWEEP_BLOCK_POINTS // n, 1)):
        hs, bs = handles[lo:hi], betas[lo:hi]
        try:
            reduced = _scan(theorem, hs, bs, z, lg, (r, n))
            w0 = invert(np.asarray(bs), np.ones(len(bs), dtype=complex))
        except StardiskError:
            # the first beta that fails alone raises its own error, else the
            # block's is raised; a block of one is not replayed, or this recurses
            if len(hs) > 1:
                for fh, b in zip(hs, bs):
                    sweep([fh], [b], grid, theorem)
            raise
        # per beta: its bound, w(0) and one-row lists of its reductions, as scalars
        rows = zip(bounds[lo:hi], w0.tolist(), *(c[:, None].tolist() for c in reduced))
        out += (_reports(theorem, (r,), *row) for row in rows)
    return out


def run_t1(fh: FunctionHandle, beta: float, grid: SamplingGrid, threads: int = 1):
    """Check the theorem-1 hypothesis (Re p below t1_bound) and conclusion
    (w = mobius_invert_t1(beta, z f'/f) a Schwarz function; q inside the
    target disk) on the grid.  Returns (HypothesisReport, ConclusionReport).
    A handle with real coefficients is scanned on theta in [0, pi], one
    with a complex coefficient on the full circle; threads is an integer
    >= 1.
    """
    return _run(fh, beta, grid, 1, threads)


def run_t2(fh: FunctionHandle, beta: float, grid: SamplingGrid, threads: int = 1):
    """Check the theorem-2 hypothesis (Re p above t2_bound) and conclusion
    (w = mobius_invert_t2(beta, z f'/f) a Schwarz function; starlikeness
    order target (beta+1)/(2 beta)).  Scanned on theta in [0, pi] or the
    full circle as run_t1 is."""
    return _run(fh, beta, grid, 2, threads)


def order_of_starlikeness(fh: FunctionHandle, grid: SamplingGrid) -> float:
    """min Re(z f'/f) over the largest sampled circle; by the harmonic
    minimum principle the largest circle controls all smaller radii."""
    z = grid.circle(grid.radii[-1])
    return float(starlike_q(fh, z).real.min())


def order_of_convexity(fh: FunctionHandle, grid: SamplingGrid) -> float:
    """min Re(1 + z f''/f') over the largest sampled circle."""
    z = grid.circle(grid.radii[-1])
    return float(convexity_p(fh, z).real.min())


def _boundary_value(beta, theta, lead, num):
    """lead + num / (2 den) with den = 1 + beta^2 - 2 beta cos theta, in
    this operation order.

    A finite float theta goes through math.cos and float arithmetic, as
    the golden refinement calls it; anything else is evaluated into one
    new array (0-d for a scalar) by in-place ufuncs.  A zero scalar den
    takes the array path too, for numpy's signed inf.  Both paths give
    the bits of the numpy expression; a float is returned for a scalar
    theta, an array otherwise.
    """
    if isinstance(theta, float) and math.isfinite(theta):
        den = 1.0 + beta * beta - 2.0 * beta * math.cos(theta)
        if den:
            q = num / (2.0 * den)
            return float(lead + q)
    th = np.asarray(theta, dtype=float)
    val = np.cos(th, out=np.empty_like(th))
    val *= 2.0 * beta
    np.subtract(1.0 + beta * beta, val, out=val)
    val *= 2.0
    np.divide(num, val, out=val)
    np.add(lead, val, out=val)
    return float(val) if val.ndim == 0 else val


def proof_boundary_value_t1(beta: float, theta, k: float):
    """Re(1 + z0 f''/f') on the |w| = 1 boundary parameterization w = e^{i theta}:

        (1+beta)/2 + (beta^2-1)(1-beta+k) / (2 (1+beta^2-2 beta cos theta)).
    """
    _require_t1_beta(beta)
    _require_k(k)
    return _boundary_value(beta, theta, 0.5 * (1.0 + beta),
                           (beta * beta - 1.0) * (1.0 - beta + k))


def proof_boundary_value_t2(beta: float, theta, k: float):
    """Boundary value for theorem 2:

        1/2 + 1/(2 beta) - k (beta^2-1) / (2 (1+beta^2-2 beta cos theta)).

    At beta = -1 the k-term has an identically zero numerator and is
    dropped, which also removes the 0/0 at theta = pi.
    """
    _require_t2_beta(beta)
    _require_k(k)
    base = 0.5 + 0.5 / beta
    if beta * beta == 1.0:
        shape = np.shape(theta)
        return np.full(shape, base) if shape else float(base)
    # lead + (-x) is lead - x bit for bit
    return _boundary_value(beta, theta, base, -(k * (beta * beta - 1.0)))


def _extremal_scan(value_at, n, sense):
    n = _integer(n, "theta_samples", 256)
    # 2 pi * i / n, built in place
    th = np.arange(n, dtype=float)
    th *= 2.0 * np.pi
    th /= n
    golden = golden_max if sense == 1 else golden_min
    # near |beta| = 1, 1 + beta^2 - 2 beta cos(theta) can round to 0 at a
    # sample; the +inf (theorem 1) or -inf (theorem 2) there is never the extreme
    with np.errstate(divide="ignore"):
        coarse = value_at(th)
    return refine_extremum(th, coarse, lambda a, b: golden(value_at, a, b), sense)


def proof_extremal_t1(beta: float, theta_samples: int) -> BoundaryScan:
    """Minimum over theta of the theorem-1 boundary value at k = 1; equals
    t1_bound(beta) up to the refinement tolerance (sharpness of the bound)."""
    theta_star, val = _extremal_scan(
        lambda t: proof_boundary_value_t1(beta, t, 1.0), theta_samples, -1
    )
    return BoundaryScan(val, theta_star)


def proof_extremal_t2(beta: float, theta_samples: int) -> BoundaryScan:
    """Maximum over theta of the theorem-2 boundary value at k = 1; equals
    t2_bound(beta) up to the refinement tolerance."""
    theta_star, val = _extremal_scan(
        lambda t: proof_boundary_value_t2(beta, t, 1.0), theta_samples, 1
    )
    return BoundaryScan(val, theta_star)
