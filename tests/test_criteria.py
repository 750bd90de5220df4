import math
import tracemalloc

import numpy as np
import pytest

import stardisk as sd
from stardisk import analytic_core, criteria
from stardisk.errors import (
    CriticalPointError,
    FunctionZeroError,
    ParameterDomainError,
    PoleError,
)

from conftest import circ_dist

TWO_PI = 2.0 * math.pi


# -------------------------------------------------------------------- bounds

def test_t1_bound_values():
    assert sd.t1_bound(2.0) == 1.5
    assert abs(sd.t1_bound(2.5) - 3.5 / 3.0) <= 1e-15
    assert abs(sd.t1_bound(1.5) - 1.3) <= 1e-15
    for bad in (1.0, 3.0, 0.0, -2.0):
        with pytest.raises(ParameterDomainError):
            sd.t1_bound(bad)


def test_t2_beta_range_keeps_bound_and_boundary_finite():
    edge = sd.criteria.T2_BETA_MAX
    for beta in (edge, -edge):
        assert math.isfinite(sd.t2_bound(beta))
        scan = sd.proof_extremal_t2(beta, 256)
        assert math.isfinite(scan.extremal_value)
    for bad in (math.inf, -math.inf, math.nan, 10.0 * edge, -10.0 * edge):
        with pytest.raises(ParameterDomainError, match="1e\\+150"):
            sd.t2_bound(bad)
        with pytest.raises(ParameterDomainError):
            sd.proof_boundary_value_t2(bad, 0.0, 1.0)


def test_t1_bound_branch_continuity():
    eps = 1e-8
    assert abs(sd.t1_bound(2.0 - eps) - sd.t1_bound(2.0 + eps)) <= 1e-6


def test_t2_bound_values():
    assert sd.t2_bound(-1.0) == 0.0
    assert abs(sd.t2_bound(-2.0) - 1.0 / 12.0) <= 1e-15
    assert abs(sd.t2_bound(3.0) - 10.0 / 24.0) <= 1e-15
    for bad in (0.0, 1.0, -0.5, 0.99):
        with pytest.raises(ParameterDomainError):
            sd.t2_bound(bad)


# ------------------------------------------------------------------ theorem 1

def test_run_t1_identity_case(grid):
    fh = sd.quadratic()
    hyp, con = sd.run_t1(fh, 2.0, grid)
    assert hyp.satisfied
    assert abs(con.w_origin) <= 1e-10
    for r, row in zip(grid.radii, con.per_radius):
        z = grid.circle(r)
        w = sd.mobius_invert_t1(2.0, sd.starlike_q(fh, z))
        assert np.abs(w - z).max() <= 1e-9
        assert row.disk_slack > 0.0
        assert abs(row.max_abs_w - r) <= 1e-9  # identity w


def test_run_t1_extremal_family(grid):
    fh = sd.make_family(sd.FamilySpec("ex1_high", 2.5))
    hyp, con = sd.run_t1(fh, 2.5, grid)
    assert hyp.satisfied
    assert hyp.margin_at_rmax > 0.0
    for row in con.per_radius:
        assert row.max_abs_w < 1.0
        assert row.schwarz_ratio <= 1.0 + 1e-6
        assert row.disk_slack > 0.0


def test_run_t1_koebe_fails(grid):
    hyp, con = sd.run_t1(sd.koebe(), 2.0, grid)
    assert not hyp.satisfied
    assert hyp.margin_at_rmax < 0.0
    # Re p of the Koebe function explodes near z = r on the positive axis
    assert hyp.per_radius[-1].extreme > hyp.bound


def test_run_t1_witness_reproduces_extreme(grid):
    fh = sd.make_family(sd.FamilySpec("ex1_low", 1.5))
    hyp, _ = sd.run_t1(fh, 1.5, grid)
    for row in hyp.per_radius:
        again = sd.convexity_p(fh, row.witness).real
        assert abs(again - row.extreme) <= 1e-12


def test_run_t1_threads_deterministic(grid):
    fh = sd.make_family(sd.FamilySpec("ex1_high", 2.2))
    a = sd.run_t1(fh, 2.2, grid, threads=1)
    b = sd.run_t1(fh, 2.2, grid, threads=4)
    assert a == b


@pytest.mark.parametrize("family, beta", [
    ("ex1_high", 2.5), ("ex1_low", 1.5), ("ex2_pos", 3.0), ("ex2_neg", -2.0),
])
def test_runs_equal_for_one_and_two_threads(small_grid, family, beta):
    fh = sd.make_family(sd.FamilySpec(family, beta))
    run = sd.run_t1 if family.startswith("ex1") else sd.run_t2
    assert run(fh, beta, small_grid, threads=1) == run(fh, beta, small_grid, threads=2)


# ------------------------------------------------------------------ theorem 2

def test_run_t2_halfplane_case(grid):
    fh = sd.halfplane()
    hyp, con = sd.run_t2(fh, -1.0, grid)
    assert hyp.satisfied
    assert abs(con.w_origin) <= 1e-10
    for r in grid.radii:
        z = grid.circle(r)
        w = sd.mobius_invert_t2(-1.0, sd.starlike_q(fh, z))
        assert np.abs(w - z / (2.0 - z)).max() <= 1e-9
    assert con.per_radius[0].disk_slack is None


def test_run_t2_ex2_pos_order(grid):
    fh = sd.make_family(sd.FamilySpec("ex2_pos", 3.0))
    hyp, con = sd.run_t2(fh, 3.0, grid)
    assert hyp.satisfied
    assert con.order_estimate >= (3.0 + 1.0) / (2.0 * 3.0) - 1e-2


def test_run_t2_total_on_valid_inputs(grid):
    # the quadratic is not an example for theorem 2 at beta = -1 but the
    # operation still returns a report
    hyp, con = sd.run_t2(sd.quadratic(), -1.0, grid)
    assert isinstance(hyp.satisfied, bool)
    assert len(con.per_radius) == len(grid.radii)


def test_run_t2_pole_propagates():
    # Koebe's q hits 1/beta at z = -1/2, the pole of the t2 inversion
    grid = sd.SamplingGrid((0.5,), 4096)
    with pytest.raises(PoleError):
        sd.run_t2(sd.koebe(), 3.0, grid)


# -------------------------------------------------------------------- orders

def test_order_of_starlikeness_values():
    grid = sd.default_grid()
    assert abs(sd.order_of_starlikeness(sd.halfplane(), grid) - 1.0 / 1.99) <= 1e-9
    assert abs(sd.order_of_starlikeness(sd.koebe(), grid) - 0.01 / 1.99) <= 1e-9
    assert abs(sd.order_of_starlikeness(sd.monomial(1), grid) - 1.0) <= 1e-12


def test_order_of_convexity_values():
    grid = sd.default_grid()
    assert abs(sd.order_of_convexity(sd.halfplane(), grid) - 0.01 / 1.99) <= 1e-9
    assert abs(sd.order_of_convexity(sd.monomial(1), grid) - 1.0) <= 1e-12


def test_order_of_convexity_against_dense_scan():
    # independent oracle: direct formula for p of z - z^2/2 on a 10^6 grid
    grid = sd.default_grid()
    got = sd.order_of_convexity(sd.quadratic(), grid)
    th = TWO_PI * np.arange(1_000_000) / 1_000_000
    z = 0.99 * np.exp(1j * th)
    dense = ((1.0 - 2.0 * z) / (1.0 - z)).real.min()
    assert abs(got - dense) <= 1e-6
    assert abs(got - (2.0 - 1.0 / 0.01)) <= 1e-9  # analytic minimum at z = r


# ------------------------------------------------------------ proof formulas

def test_proof_boundary_value_t1_hand_values():
    assert abs(sd.proof_boundary_value_t1(2.0, 0.0, 1.0) - 1.5) <= 1e-15
    assert abs(sd.proof_boundary_value_t1(2.5, 0.0, 1.0) - 7.0 / 6.0) <= 1e-15
    assert abs(sd.proof_boundary_value_t1(1.5, math.pi, 1.0) - 1.3) <= 1e-15
    with pytest.raises(ParameterDomainError):
        sd.proof_boundary_value_t1(2.0, 0.0, 0.5)


def test_proof_boundary_value_t2_hand_values():
    for th in (0.0, 1.0, math.pi):
        assert abs(sd.proof_boundary_value_t2(-1.0, th, 1.0)) <= 1e-15
    # at beta = 3 the theta = pi value is the sharp one, 5/12
    assert abs(sd.proof_boundary_value_t2(3.0, math.pi, 1.0) - 5.0 / 12.0) <= 1e-15
    assert abs(sd.proof_boundary_value_t2(-2.0, 0.0, 1.0) - 1.0 / 12.0) <= 1e-15


def test_proof_extremal_t1_cases():
    s = sd.proof_extremal_t1(2.5, 4096)
    assert abs(s.extremal_value - 7.0 / 6.0) <= 1e-9
    assert circ_dist(s.theta_star, 0.0) <= 1e-6
    s = sd.proof_extremal_t1(1.5, 4096)
    assert abs(s.extremal_value - 1.3) <= 1e-9
    assert circ_dist(s.theta_star, math.pi) <= 1e-6
    s = sd.proof_extremal_t1(2.0, 4096)
    assert abs(s.extremal_value - 1.5) <= 1e-9  # theta-independent at beta = 2


def test_proof_extremal_t2_cases():
    s = sd.proof_extremal_t2(-1.0, 4096)
    assert abs(s.extremal_value - 0.0) <= 1e-9
    s = sd.proof_extremal_t2(3.0, 4096)
    assert abs(s.extremal_value - 5.0 / 12.0) <= 1e-9
    assert circ_dist(s.theta_star, math.pi) <= 1e-6
    s = sd.proof_extremal_t2(-2.0, 4096)
    assert abs(s.extremal_value - 1.0 / 12.0) <= 1e-9
    assert circ_dist(s.theta_star, 0.0) <= 1e-6


def test_proof_extremal_sample_count_validation():
    with pytest.raises(ParameterDomainError):
        sd.proof_extremal_t1(2.5, 128)


def test_extremal_equality_on_beta_grids():
    for beta in np.linspace(2.0, 2.98, 50):
        s = sd.proof_extremal_t1(float(beta), 1024)
        assert abs(s.extremal_value - sd.t1_bound(float(beta))) <= 1e-9
    for beta in np.linspace(1.02, 2.0, 50):
        s = sd.proof_extremal_t1(float(beta), 1024)
        assert abs(s.extremal_value - sd.t1_bound(float(beta))) <= 1e-9
    for beta in np.linspace(-8.0, -1.0, 50):
        s = sd.proof_extremal_t2(float(beta), 1024)
        assert abs(s.extremal_value - sd.t2_bound(float(beta))) <= 1e-9
    for beta in np.linspace(1.02, 8.0, 50):
        s = sd.proof_extremal_t2(float(beta), 1024)
        assert abs(s.extremal_value - sd.t2_bound(float(beta))) <= 1e-9


def test_monotone_in_k():
    # d/dk has the sign of beta^2 - 1 for t1 and the opposite sign for t2
    for beta, theta in ((1.5, 0.7), (2.5, 2.0)):
        vals = [sd.proof_boundary_value_t1(beta, theta, k) for k in (1.0, 2.0, 5.0)]
        assert vals[0] < vals[1] < vals[2]
    for beta, theta in ((3.0, 0.7), (-2.0, 2.0)):
        vals = [sd.proof_boundary_value_t2(beta, theta, k) for k in (1.0, 2.0, 5.0)]
        assert vals[0] > vals[1] > vals[2]
    vals = [sd.proof_boundary_value_t2(-1.0, 0.7, k) for k in (1.0, 2.0, 5.0)]
    assert vals[0] == vals[1] == vals[2] == 0.0


def test_hypothesis_sharpness_margins_shrink():
    cases = [
        ("ex1_high", 2.5, sd.run_t1),
        ("ex1_low", 1.5, sd.run_t1),
        ("ex2_pos", 3.0, sd.run_t2),
        ("ex2_neg", -2.0, sd.run_t2),
    ]
    for fam, beta, runner in cases:
        fh = sd.make_family(sd.FamilySpec(fam, beta))
        margins = []
        for rmax in (0.9, 0.99, 0.999):
            hyp, _ = runner(fh, beta, sd.SamplingGrid((rmax,), 4096))
            assert hyp.satisfied, (fam, rmax)
            margins.append(hyp.margin_at_rmax)
        assert margins[0] > margins[1] > margins[2] > 0.0


# --------------------------------------------------------------------- sweep

def _handles(family, betas):
    if family.startswith("builtin"):
        return [sd.make_family(sd.FamilySpec(family)) for _ in betas]
    return [sd.make_family(sd.FamilySpec(family, b)) for b in betas]


def _per_beta(handles, betas, grid, theorem, threads=1):
    run = sd.run_t1 if theorem == 1 else sd.run_t2
    return [run(fh, b, grid, threads) for fh, b in zip(handles, betas)]


def _steps(lo, hi, n):
    return [lo + i * (hi - lo) / (n - 1) for i in range(n)]


LOG_POINT = 1.0 + math.sqrt(2.0)

# small_grid holds 512 points a circle, so 23 betas make groups of 16 and 7
SWEEP_CASES = {
    "ex1_high": (1, _steps(2.0, 2.95, 23)),
    "ex1_low": (1, _steps(1.05, 2.0, 23)),
    "ex2_pos": (2, _steps(1.2, 6.0, 23)),
    "ex2_neg": (2, _steps(-6.0, -1.0, 23)),
    "builtin_quadratic": (1, _steps(1.5, 2.5, 4)),
    # power, log (mu ~ 0), power, power: the log point splits the blocks
    "ex2_pos_mixed": (2, [2.3, LOG_POINT, 2.5, 2.6]),
}


# threads: the worker count of the per-beta runs the sweep is compared with
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_sweep_equals_the_per_beta_runs(small_grid, case, threads):
    theorem, betas = SWEEP_CASES[case]
    handles = _handles(case.removesuffix("_mixed"), betas)
    got = sd.sweep(handles, betas, small_grid, theorem)
    assert got == _per_beta(handles, betas, small_grid, theorem, threads)


def _block_sizes(monkeypatch, handles, betas, grid, theorem):
    """Sizes of the groups a sweep scans, checking its result on the way."""
    expected = _per_beta(handles, betas, grid, theorem)
    sizes = []
    real = criteria._scan

    def spy(theorem, handles, *args):
        sizes.append(len(handles))
        return real(theorem, handles, *args)

    monkeypatch.setattr(criteria, "_scan", spy)
    assert sd.sweep(handles, betas, grid, theorem) == expected
    # one pass per circle, circle by circle within a group
    assert sizes == [n for n in sizes[::len(grid.radii)] for _ in grid.radii]
    return sizes[::len(grid.radii)]


# SMALL_Z < r, but |r e^{i theta}| rounds to SMALL_Z or below at some angles
ROUNDS_TO_SMALL_Z = float(np.nextafter(analytic_core.SMALL_Z, 1.0))


@pytest.mark.parametrize("radii, angles, betas, sizes", [
    ((0.3, 0.6, 0.9), 512, [2.5], [1]),  # steps = 1
    ((0.3, 0.6, 0.9), 512, _steps(2.0, 2.95, 23), [16, 7]),
    ((0.5, 0.9, 0.99), 4096, [2.1, 2.5, 2.9], [2, 1]),
    ((1e-7, 0.5), 256, [2.1, 2.5], [1, 1]),  # |z| <= SMALL_Z: one beta at a time
    ((0.5, 0.9, 0.99), 8192, [2.1, 2.5, 2.9], [1, 1, 1]),  # one beta fills a pass
    ((0.5, 0.9, 0.99), 16384, [2.1, 2.5, 2.9], [1, 1, 1]),  # one beta > the budget
    ((ROUNDS_TO_SMALL_Z, 0.5), 256, [2.1, 2.5], [1, 1]),
])
def test_sweep_block_edges(monkeypatch, radii, angles, betas, sizes):
    grid = sd.SamplingGrid(radii, angles)
    handles = _handles("ex1_high", betas)
    assert _block_sizes(monkeypatch, handles, betas, grid, 1) == sizes


def test_sweep_splits_blocks_at_other_kinds(monkeypatch, small_grid):
    betas = [2.3, 2.35, LOG_POINT, 2.5, 2.6]
    handles = _handles("ex2_pos", betas)
    assert [fh.kind for fh in handles] == ["power", "power", "log", "power", "power"]
    assert _block_sizes(monkeypatch, handles, betas, small_grid, 2) == [2, 1, 2]


def _outcome(call):
    try:
        return call()
    except (CriticalPointError, FunctionZeroError, PoleError) as exc:
        return type(exc), str(exc)


# Guard margins of ex1_high on small_grid, per circle r = 0.3 / 0.6 / 0.9:
# min|f'| is 0.81 / 0.58 / 0.25 at beta = 2.25 and falls with beta to
# 0.77 / 0.51 / 0.18 at 2.15; min|f| on r = 0.3 falls from 0.297 (2.9) to
# 0.266 (2.15); min|q - beta| is 1.17 / 1.12 / 1.07 at 2.25, 1.11 / 1.05 /
# 1.00 at 2.2 and 1.06 / 0.98 / 0.93 at 2.15.  So raised tolerances make
# the guards fire part way along a descending sweep.  The per-beta scan
# checks the circles in order, p guard, q guard, then pole on each; a group
# of 16 betas (2.9 down to 2.15) checks each circle for all of them first.
DESCENDING = [2.9 - 0.05 * k for k in range(18)]  # groups 2.9-2.15, 2.1-2.05
# The guard fires at the beta in the comment.  Bar the fifth case, a group
# pass meets the per-beta error first here as well.
GUARD_CASES = [
    # (ZERO_TOL, POLE_TOL, betas, error the per-beta loop raises)
    (0.24, None, DESCENDING, CriticalPointError),  # 2.2
    (0.2925, None, DESCENDING, FunctionZeroError),  # 2.7
    (None, 1.05, DESCENDING, PoleError),  # 2.2
    (0.28, None, DESCENDING, FunctionZeroError),  # q guard 2.4, p guard 2.25
    # pole of 2.25 on r = 0.9; the pole of 2.15 on r = 0.3 comes first in
    # the group, as would the p guard of 2.2 on r = 0.9
    (0.24, 1.1, DESCENDING, PoleError),
    # one beta: q guard on r = 0.3 before p guard on r = 0.9 ...
    (0.27, None, DESCENDING[::-1], FunctionZeroError),
    # ... and both on r = 0.3 (min|f'| = 0.72 there at 2.05): p guard first
    (0.75, None, DESCENDING[::-1], CriticalPointError),
    (0.3, 1.9, DESCENDING, FunctionZeroError),  # q guard and pole at 2.9
]
# Each of these raises another error unless the group is replayed.
REPLAY_CASES = [
    # 2.2 has its pole on r = 0.9 only; the later 2.15 has one on r = 0.6
    (None, 1.0, DESCENDING, PoleError),
    # p guard of 2.25 on r = 0.9; pole of 2.15 on r = 0.6
    (0.26, 1.0, DESCENDING, CriticalPointError),
    # q guard of 2.9 on r = 0.3; the p guard of 2.15 on the same circle
    # comes first in the group
    (0.775, None, DESCENDING, FunctionZeroError),
]


@pytest.mark.parametrize("zero_tol, pole_tol, betas, error", GUARD_CASES + REPLAY_CASES)
def test_sweep_replays_a_failed_block_with_the_per_beta_error(
        monkeypatch, small_grid, zero_tol, pole_tol, betas, error):
    if zero_tol is not None:
        monkeypatch.setattr(analytic_core, "ZERO_TOL", zero_tol)
    if pole_tol is not None:
        monkeypatch.setattr(analytic_core, "POLE_TOL", pole_tol)
    handles = _handles("ex1_high", betas)
    expected = _outcome(lambda: _per_beta(handles, betas, small_grid, 1))
    assert expected[0] is error
    assert _outcome(lambda: sd.sweep(handles, betas, small_grid, 1)) == expected


@pytest.mark.parametrize("theorem", [1, 2])
def test_sweep_peak_memory_stays_small(theorem):
    # 2**13-point blocks peak near 1 MB here; 2**16-point blocks took 5.6 MB
    # (and 11 MB more RSS in a benchmark run) without being faster.
    betas = _steps(2.0, 2.9, 128)
    handles = _handles("ex1_high" if theorem == 1 else "ex2_pos", betas)
    grid = sd.SamplingGrid((0.5, 0.9, 0.99), 1024)
    tracemalloc.start()
    try:
        sd.sweep(handles, betas, grid, theorem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6
