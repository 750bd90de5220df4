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
    StardiskError,
)

from conftest import ROUNDS_TO_SMALL_Z, circ_dist, handle_zoo

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


def _bits(x):
    return np.asarray(x).tobytes()


@pytest.mark.parametrize("theorem", [1, 2])
def test_run_reductions_equal_those_of_q_and_p_bit_for_bit(theorem):
    # every handle kind, and circles inside and at the edge of the small-z
    # patch; a real-coefficient handle is scanned on theta in [0, pi], a
    # complex one on the full circle
    grid = sd.SamplingGrid((5e-7, analytic_core.SMALL_Z, 0.5, 0.99), 256)
    run, pick = (sd.run_t1, np.argmax) if theorem == 1 else (sd.run_t2, np.argmin)
    kinds = set()
    for fh in handle_zoo() + [sd.series((0.3j,))]:
        kinds.add(fh.kind)
        hyp, con = run(fh, 2.5, grid)
        for r, h, c in zip(grid.radii, hyp.per_radius, con.per_radius):
            z = grid.circle(r)
            if all(c.imag == 0.0 for c in fh.coeffs):
                z = z[:grid.angular_count // 2 + 1]
            re_p = sd.convexity_p(fh, z).real
            i = pick(re_p)
            assert _bits(h.extreme) == _bits(re_p[i])
            assert _bits(h.witness) == _bits(z[i])
            assert _bits(c.min_re_q) == _bits(sd.starlike_q(fh, z).real.min())
    assert kinds == {"power", "log", "series", "koebe", "halfplane"}


def test_complex_coefficients_keep_the_full_circle():
    # Re p of z + 0.3i z^2 peaks where 0.6i z is real and positive, at
    # theta = 3 pi / 2; a scan of theta in [0, pi] would miss it
    grid = sd.SamplingGrid((0.5, 0.9), 256)
    hyp, _ = sd.run_t1(sd.series((0.3j,)), 2.5, grid)
    for r, h in zip(grid.radii, hyp.per_radius):
        assert h.witness == grid.circle(r)[3 * grid.angular_count // 4]
        assert h.witness.imag < 0.0


@pytest.mark.parametrize("threads", [1, 2])
def test_a_circle_raises_its_p_guard_before_an_earlier_zero_of_f(threads):
    # f = z + a2 z^2 + a3 z^3 with f/z = 0 at angle 100 and f' = 0 at angle
    # 40000 of the full circle: the p guard runs over the whole circle
    # first, so the critical point is named, not the zero met first
    grid = sd.SamplingGrid((0.9,), 2**16)
    z = 0.9 * np.exp(1j * grid.angles())
    z1, z2 = z[100], z[40000]
    a2, a3 = np.linalg.solve([[z1, z1 * z1], [2.0 * z2, 3.0 * z2 * z2]], [-1.0, -1.0])
    fh = sd.series((complex(a2), complex(a3)))
    with pytest.raises(FunctionZeroError):
        sd.starlike_q(fh, z[100:101])
    with pytest.raises(CriticalPointError, match=r"z = \(-0\.6921930038810218-0\.5752120003773982j\)"):
        sd.run_t1(fh, 2.5, grid, threads)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("family, points", [
    ("ex1_high", 257),  # real coefficients: theta in [0, pi]
    ("complex", 512),  # z + 0.3i z^2: the full circle
])
def test_run_evaluates_one_jet_per_circle(monkeypatch, family, points, threads):
    # 3 x 257 jet points for the 3 x 512 grid points of ex1_high: 0.502 each
    fh = (sd.series((0.3j,)) if family == "complex"
          else sd.make_family(sd.FamilySpec(family, 2.5)))
    sizes = []
    real = analytic_core.eval_jet

    def spy(handle, z):
        sizes.append(np.size(z))
        return real(handle, z)

    monkeypatch.setattr(analytic_core, "eval_jet", spy)
    sd.run_t1(fh, 2.5, sd.SamplingGrid((0.5, 0.9, 0.99), 512), threads)
    assert sizes == [points] * 3


# (handle, theorem, beta, angles): the paper families, the log-limit point,
# the identity (Re p = 1 at every angle: the first tie wins), a complex
# coefficient (the full circle) and an odd angle count
CHUNK_CASES = [
    ("ex1_high", 1, 2.5, 4096),
    ("ex1_low", 1, 1.5, 4096),
    ("ex2_pos", 2, 3.0, 4096),
    ("ex2_neg", 2, -2.0, 4096),
    ("ex2_pos", 2, 1.0 + math.sqrt(2.0), 4096),
    ("identity", 1, 2.0, 4096),
    ("complex", 1, 2.5, 4096),
    ("complex", 2, 3.0, 4096),
    ("ex1_high", 1, 2.9, 4095),
]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("family, theorem, beta, angles", CHUNK_CASES)
def test_scan_chunks_change_no_report(monkeypatch, family, theorem, beta, angles, threads):
    fh = {"identity": sd.monomial(1), "complex": sd.series((0.3j, -0.1))}.get(family)
    fh = fh or sd.make_family(sd.FamilySpec(family, beta))
    run = sd.run_t1 if theorem == 1 else sd.run_t2
    grid = sd.SamplingGrid((0.5, 0.9, 0.99, 0.999), angles)
    reports = []
    for chunk in (8, 1000, angles):
        monkeypatch.setattr(criteria, "SCAN_CHUNK_POINTS", chunk)
        reports.append(run(fh, beta, grid, threads))
    assert reports[0] == reports[1] == reports[2]
    # and bit for bit, -0.0 and the witness included
    assert len({repr(r) for r in reports}) == 1


def test_a_verify_scan_takes_chunks_of_the_half_circle(monkeypatch):
    # 2**16 angles scan 2**15 + 1 points a circle, in the fewest slices of
    # 2**14 at most, of equal size: 3 x 10923, not 16384 + 16384 + 1
    fh = sd.make_family(sd.FamilySpec("ex1_high", 2.5))
    sizes = []
    real = analytic_core.eval_jet

    def spy(handle, z):
        sizes.append(np.size(z))
        return real(handle, z)

    monkeypatch.setattr(analytic_core, "eval_jet", spy)
    sd.run_t1(fh, 2.5, sd.SamplingGrid((0.5, 0.9, 0.99), 2**16), 2)
    assert sizes == [10923] * 9


def test_a_slice_error_no_whole_circle_repeats_is_raised(monkeypatch):
    # a failed slice has every circle rescanned whole, to raise the first
    # circle's own error; where each circle passes whole, the slice's error
    # is raised all the same, and no report is returned
    grid = sd.SamplingGrid((0.5, 0.9), 64)  # 33 angles, theta in [0, pi]
    sizes = []
    real = criteria._scan

    def scan(theorem, handles, betas, z, *args):
        sizes.append(z.size)
        if z.size < 33:
            raise CriticalPointError("a slice")
        return real(theorem, handles, betas, z, *args)

    monkeypatch.setattr(criteria, "SCAN_CHUNK_POINTS", 8)
    monkeypatch.setattr(criteria, "_scan", scan)
    with pytest.raises(CriticalPointError, match="^a slice$"):
        sd.run_t1(sd.make_family(sd.FamilySpec("ex1_high", 2.5)), 2.5, grid)
    assert sizes == [7, 33, 33]


def test_verify_peak_memory_does_not_grow_with_the_angles():
    # slices of 2**14 points peak near 5 MB here, the 2 MB half circle
    # included; whole circles of 2**17 + 1 points took 28 MB
    fh = sd.make_family(sd.FamilySpec("ex1_high", 2.5))
    grid = sd.SamplingGrid((0.5, 0.9, 0.99, 0.999), 2**18)
    tracemalloc.start()
    try:
        sd.run_t1(fh, 2.5, grid, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


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


# ------------------------------------------------- closed-form circle extreme

EPS = np.finfo(float).eps


@pytest.mark.parametrize("angles", [256, 4096])
@pytest.mark.parametrize("r", [0.5, 0.9, 0.999, 0.999999])
@pytest.mark.parametrize("family, beta", [
    (family, beta)
    for family, betas in (("ex1_high", (2.0, 2.5, 2.99)), ("ex1_low", (1.01, 1.5, 2.0)),
                          ("ex2_pos", (1.2, 3.0, 7.5)), ("ex2_neg", (-1.0, -2.0, -7.5)))
    for beta in betas
])
def test_power_handle_extreme_is_the_closed_form_at_theta_pi(family, beta, r, angles):
    # p = 1 - (mu - 1) z/(1 - z), and z/(1 - z) maps |z| = r onto a circle
    # symmetric about the real axis, so Re p is extreme at z = -r, where
    # bound - p(-r) = +-(mu - 1)(1 - r)/(2(1 + r)): no grid, jet or Log(1 - z)
    fh = sd.make_family(sd.FamilySpec(family, beta))
    runner = sd.run_t1 if family.startswith("ex1") else sd.run_t2
    hyp, _ = runner(fh, beta, sd.SamplingGrid((r,), angles))
    assert abs(hyp.per_radius[-1].witness + r) <= 2.0 * EPS
    want = abs(fh.mu - 1.0) * (1.0 - r) / (2.0 * (1.0 + r))
    assert abs(hyp.margin_at_rmax - want) <= 4.0 * EPS * max(1.0, abs(hyp.bound)), \
        (hyp.margin_at_rmax, want)


@pytest.mark.parametrize("angles", [256, 4096])
@pytest.mark.parametrize("r", [0.3, 0.6, 0.9, 0.99])
@pytest.mark.parametrize("handle, t1_beta, sup, inf", [
    # Koebe: p = (1 + 4z + z^2)/(1 - z^2); half plane: p = (1 + z)/(1 - z)
    (sd.koebe(), 2.5, lambda r: (1 + 4 * r + r * r) / (1 - r * r),
     lambda r: (1 - 4 * r + r * r) / (1 - r * r)),
    (sd.halfplane(), 1.5, lambda r: (1 + r) / (1 - r), lambda r: (1 - r) / (1 + r)),
], ids=["koebe", "halfplane"])
def test_builtin_extreme_is_the_closed_form_at_plus_or_minus_r(handle, t1_beta, sup, inf, r,
                                                              angles):
    # Re p of either is extreme on |z| = r where the circle crosses the real
    # axis: sup at z = r (theorem 1), inf at z = -r (theorem 2).  The betas
    # keep the Mobius poles q = beta and q = 1/3 off these circles.
    for (hyp, _), want, at in ((sd.run_t1(handle, t1_beta, sd.SamplingGrid((r,), angles)),
                                sup(r), r),
                               (sd.run_t2(handle, 3.0, sd.SamplingGrid((r,), angles)),
                                inf(r), -r)):
        row = hyp.per_radius[-1]
        assert abs(row.extreme - want) <= 8.0 * EPS * max(1.0, abs(want - 1.0)), (row, want)
        assert abs(row.witness - at) <= 2.0 * EPS


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


def _reference_t1(beta, theta, k):
    """The theorem-1 boundary value as first written: numpy throughout,
    0-d arrays for a scalar theta."""
    th = np.asarray(theta, dtype=float)
    den = 1.0 + beta * beta - 2.0 * beta * np.cos(th)
    val = 0.5 * (1.0 + beta) + (beta * beta - 1.0) * (1.0 - beta + k) / (2.0 * den)
    return float(val) if np.ndim(theta) == 0 else val


def _reference_t2(beta, theta, k):
    th = np.asarray(theta, dtype=float)
    base = 0.5 + 0.5 / beta
    if beta * beta == 1.0:
        val = np.full(th.shape, base)
    else:
        den = 1.0 + beta * beta - 2.0 * beta * np.cos(th)
        val = base - k * (beta * beta - 1.0) / (2.0 * den)
    return float(val) if np.ndim(theta) == 0 else val


# seeded angles, the scan's grid angles, a few exact ones (where cos is +-1
# or 0, and where the denominator of beta just above 1 rounds to zero), and
# the non-finite ones (cos gives nan)
_THETAS = np.concatenate([
    np.random.default_rng(2013).uniform(-TWO_PI, 2.0 * TWO_PI, 300),
    TWO_PI * np.arange(257) / 257,
    [0.0, -0.0, math.pi, -math.pi, 0.5 * math.pi, TWO_PI, 1e-9, 1e-300, 1e6,
     3.0 * math.pi, math.inf, -math.inf, math.nan],
])
_BOUNDARY_CASES = [
    (sd.proof_boundary_value_t1, _reference_t1, beta)
    for beta in (math.nextafter(1.0, 2.0), 1.0000001, 1.5, 2.0, 2.2, 2.5, np.float64(2.5),
                 2.9999999, math.nextafter(3.0, 0.0))
] + [
    (sd.proof_boundary_value_t2, _reference_t2, beta)
    for beta in (-1.0, np.float64(-1.0), math.nextafter(-1.0, -2.0), -1.0000001, -2.0,
                 np.float64(-2.0), -1e150, math.nextafter(1.0, 2.0), 1.0000001, 3.0, 1e150)
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("value, reference, beta", _BOUNDARY_CASES)
@pytest.mark.parametrize("k", [1.0, 2.5])
def test_boundary_values_equal_the_reference_bit_for_bit(value, reference, beta, k):
    for theta in _THETAS:
        for scalar in (float(theta), theta, np.array(theta)):  # float, float64, 0-d
            got, want = value(beta, scalar, k), reference(beta, scalar, k)
            assert type(got) is float, (beta, theta)
            assert got == want or (math.isnan(got) and math.isnan(want)), (beta, theta)
    for thetas in (_THETAS, _THETAS.reshape(3, -1), _THETAS.tolist(), _THETAS[:0]):
        got, want = value(beta, thetas, k), reference(beta, thetas, k)
        assert type(got) is np.ndarray and got.dtype == np.float64
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)


def test_boundary_values_check_beta_and_k_on_every_call():
    for value, beta in ((sd.proof_boundary_value_t1, 2.5), (sd.proof_boundary_value_t2, 3.0)):
        value(beta, 0.5, 1.0)
        for theta in (0.5, _THETAS):
            with pytest.raises(ParameterDomainError, match="k must be >= 1"):
                value(beta, theta, 0.5)
    for theta in (0.5, _THETAS):
        with pytest.raises(ParameterDomainError, match="1 < beta < 3"):
            sd.proof_boundary_value_t1(3.0, theta, 1.0)
        with pytest.raises(ParameterDomainError, match="beta <= -1 or 1 < beta"):
            sd.proof_boundary_value_t2(1.0, theta, 1.0)


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
    """The per-beta runs a sweep on grid equals: on its largest circle."""
    run = sd.run_t1 if theorem == 1 else sd.run_t2
    outer = sd.SamplingGrid(grid.radii[-1:], grid.angular_count)
    return [run(fh, b, outer, threads) for fh, b in zip(handles, betas)]


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
    "builtin_koebe": (2, [-4.0, -3.0, -2.0, -1.0]),
    "builtin_halfplane": (2, [-4.0, -2.0, 2.0, 3.0]),
    "builtin_monomial:3": (1, [1.5, 2.0, 2.5]),
    # power, log (mu ~ 0), power, power: the log point cuts the blocks
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


@pytest.mark.parametrize("theorem, betas", [
    (1, [1.01, 1.2, 1.5, 1.8, 2.0, 2.2, 2.5, 2.8, 2.95, 2.999]),
    (2, [-1e6, -10.0, -3.0, -1.5, -1.0, 1.001, 1.5, 3.0, 10.0, 1e6]),
])
def test_w_at_the_origin_is_exactly_zero(theorem, betas):
    # w(0) = beta (1 - 1) / den is +-0 wherever a run or a sweep returns (a
    # pole raises), so verify's verdict compares it with 0, with no allowance
    run = sd.run_t1 if theorem == 1 else sd.run_t2
    grid = sd.SamplingGrid((0.5, 0.9), 64)
    origins = []
    for fh in handle_zoo():
        calls = [lambda b=b: [run(fh, b, grid)] for b in betas]
        for call in calls + [lambda: sd.sweep([fh] * len(betas), betas, grid, theorem)]:
            try:
                origins += [con.w_origin for _, con in call()]
            except StardiskError:
                pass
    assert len(origins) >= 100  # 118 (theorem 1) and 117 of 220 returned
    assert all(w == 0 for w in origins)


def test_sweep_builds_no_thread_pool(monkeypatch, small_grid):
    built = []

    class Pool(criteria.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(criteria, "ThreadPoolExecutor", Pool)
    # blocks of power handles, and one beta at a time
    for case in ("ex1_high", "ex2_pos_mixed"):
        theorem, betas = SWEEP_CASES[case]
        sd.sweep(_handles(case.removesuffix("_mixed"), betas), betas, small_grid, theorem)
    assert built == []
    # whereas a run on two threads builds one
    sd.run_t1(sd.make_family(sd.FamilySpec("ex1_high", 2.5)), 2.5, small_grid, 2)
    assert built == [{"max_workers": 2}]


def _block_sizes(monkeypatch, handles, betas, grid, theorem):
    """Sizes of the groups a sweep scans, checking its result on the way."""
    expected = _per_beta(handles, betas, grid, theorem)
    sizes = []
    real = criteria._scan

    def spy(theorem, handles, betas, z, *args):
        # one pass per group, on the largest circle alone
        assert np.allclose(np.abs(z), grid.radii[-1], rtol=1e-15, atol=0.0)
        sizes.append(len(handles))
        return real(theorem, handles, betas, z, *args)

    monkeypatch.setattr(criteria, "_scan", spy)
    assert sd.sweep(handles, betas, grid, theorem) == expected
    return sizes


@pytest.mark.parametrize("radii, angles, betas, sizes", [
    ((0.3, 0.6, 0.9), 512, [2.5], [1]),  # steps = 1
    ((0.3, 0.6, 0.9), 512, _steps(2.0, 2.95, 23), [16, 7]),
    ((0.5, 0.9, 0.99), 4096, [2.1, 2.5, 2.9], [2, 1]),
    ((1e-7,), 256, [2.1, 2.5], [1, 1]),  # |z| <= SMALL_Z: one beta at a time
    ((1e-7,), 256, [2.5, 2.5], [2]),  # but one repeated handle shares its eval_jet
    ((0.5, 0.9, 0.99), 8192, [2.1, 2.5, 2.9], [1, 1, 1]),  # one beta fills a pass
    ((0.5, 0.9, 0.99), 16384, [2.1, 2.5, 2.9], [1, 1, 1]),  # one beta > the budget
    ((ROUNDS_TO_SMALL_Z,), 256, [2.1, 2.5], [1, 1]),
])
def test_sweep_block_edges(monkeypatch, radii, angles, betas, sizes):
    grid = sd.SamplingGrid(radii, angles)
    handles = _handles("ex1_high", betas)
    assert _block_sizes(monkeypatch, handles, betas, grid, 1) == sizes


# 256 angles scan 129 points, so a block holds 8192 // 256 = 32 betas
@pytest.mark.parametrize("steps, sizes", [(16, [16]), (40, [32, 8])])
def test_sweep_blocks_a_repeated_handle(monkeypatch, steps, sizes):
    betas = _steps(1.5, 2.5, steps)
    handles = _handles("builtin_quadratic", betas)
    grid = sd.SamplingGrid((0.5, 0.9), 256)
    assert _block_sizes(monkeypatch, handles, betas, grid, 1) == sizes


def test_a_repeated_handle_takes_one_jet_a_block(monkeypatch):
    betas = _steps(1.5, 2.5, 16)
    handles = _handles("builtin_quadratic", betas)
    grid = sd.SamplingGrid((0.5, 0.9), 256)
    expected = _per_beta(handles, betas, grid, 1)
    sizes = []
    real = analytic_core.eval_jet

    def eval_jet(fh, z):
        sizes.append(np.size(z))
        return real(fh, z)

    monkeypatch.setattr(analytic_core, "eval_jet", eval_jet)
    assert sd.sweep(handles, betas, grid, 1) == expected
    assert sizes == [129]


def test_sweep_splits_blocks_at_other_kinds(monkeypatch, small_grid):
    # a block is a run of handles with one jet: the log point cuts the power
    # betas around it, and is a block of its own
    betas = [2.3, 2.35, LOG_POINT, 2.5, 2.6]
    handles = _handles("ex2_pos", betas)
    assert [fh.kind for fh in handles] == ["power", "power", "log", "power", "power"]
    assert _block_sizes(monkeypatch, handles, betas, small_grid, 2) == [2, 1, 2]


def test_a_sweep_from_the_log_point_keeps_its_power_blocks(monkeypatch, small_grid):
    betas = _steps(LOG_POINT, 6.0, 40)
    handles = _handles("ex2_pos", betas)
    assert [fh.kind for fh in handles[:2]] == ["log", "power"]
    assert _block_sizes(monkeypatch, handles, betas, small_grid, 2) == [1, 16, 16, 7]


def _outcome(call):
    try:
        return call()
    except (CriticalPointError, FunctionZeroError, PoleError, ParameterDomainError) as exc:
        return type(exc), str(exc)


# Guard margins of ex1_high on the r = 0.9 circle of small_grid, the only
# one a sweep scans: min|f'| is 0.25 at beta = 2.25 and falls with beta to
# 0.18 at 2.15; min|f| falls from 0.866 (2.9) to 0.52 (2.05); min|q - beta|
# is 1.88 at 2.9, 1.07 at 2.25 and 1.00 at 2.2.  Only above beta ~ 2.87 is
# min|f| below min|f'|: on HIGH, min|f| falls from 0.8966 (2.99) through
# 0.8950 (2.985) and 0.8797 (2.94) to 0.8676 (2.905), min|f'| from 0.99 to
# 0.9028 (2.915) and 0.8915 (2.905), min|q - beta| from 1.989 through 1.948
# (2.955).  So raised tolerances make the guards fire part way along a
# descending sweep.  The per-beta scan checks the p guard, the q guard,
# then the pole of each beta in turn; a group of 16 betas checks each
# guard for all of them first.
DESCENDING = [2.9 - 0.05 * k for k in range(18)]  # groups 2.9-2.15, 2.1-2.05
HIGH = [2.99 - 0.005 * k for k in range(18)]  # groups 2.99-2.915, 2.91-2.905
# The guard fires at the beta in the comment.  Bar the fifth case, a group
# pass meets the per-beta error first here as well.
GUARD_CASES = [
    # (ZERO_TOL, POLE_TOL, betas, error the per-beta loop raises)
    (0.24, None, DESCENDING, CriticalPointError),  # 2.2
    (0.8805, None, HIGH, FunctionZeroError),  # 2.94
    (None, 1.05, DESCENDING, PoleError),  # 2.2
    # q guard 2.985; the p guard of 2.905 is in the next group
    (0.8958, None, HIGH, FunctionZeroError),
    # pole of 2.25; the p guard of 2.2 comes first in the group
    (0.24, 1.1, DESCENDING, PoleError),
    # one beta: its q guard fires, its p guard does not ...
    (0.88, None, HIGH[::-1], FunctionZeroError),
    # ... and both fire (min|f'| = 0.12, min|f| = 0.52 at 2.05): p guard first
    (0.75, None, DESCENDING[::-1], CriticalPointError),
    (0.9, 2.0, HIGH, FunctionZeroError),  # q guard and pole at 2.99
]
# Each of these raises another error unless the group is replayed.
REPLAY_CASES = [
    # pole of 2.955; the q guard of 2.94 comes first in the group
    (0.8805, 1.951, HIGH, PoleError),
    # pole of 2.9; the p guard of 2.15 comes first in the group
    (0.2, 1.9, DESCENDING, PoleError),
    # q guard of 2.9; the p guard of 2.85 comes first in the group
    (0.87, None, DESCENDING, FunctionZeroError),
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


# (mu of each power handle, r, angles, theorem, betas, the start of the
# first failing beta's message, whether the block's zero counts refine
# arcs): |mu| > 6, so f/z is counted as well
POWER_BLOCK_CASES = [
    ((-7.0, -7.5), 0.99, 1024, 1, [2.0, 2.5], "f/z has 2 zeros", True),
    # at 256 angles the counts alias, as in the sweep-negative-count refusal
    ((-7.0, -7.5), 0.99, 256, 1, [2.0, 2.5], "q - beta counts -1 zeros", True),
    ((7.0, 6.5), 0.99, 1024, 2, [3.0, 2.0], "f/z has 2 zeros", False),
    ((-6.5, -7.0), 0.88, 4096, 2, [3.0, 4.0], "1 - beta q has 1 zero", False),
    # the half plane as a power form: the pole of beta = 2, not the
    # unresolved arc of 2.9 (a ParameterDomainError) that the block meets
    ((-1.0, -1.0), 0.999999, 8, 1, [2.0, 2.9], "q - beta has 1 zero", True),
]


@pytest.mark.parametrize("mus, r, angles, theorem, betas, start, refines", POWER_BLOCK_CASES)
def test_a_power_block_fails_as_its_first_failing_beta(
        monkeypatch, mus, r, angles, theorem, betas, start, refines):
    handles = [sd.FunctionHandle("power", f"mu={m}", mu=m) for m in mus]
    grid = sd.SamplingGrid((r,), angles)
    alone = [_outcome(lambda: sd.sweep([fh], [b], grid, theorem))
             for fh, b in zip(handles, betas)]
    expected = next(o for o in alone if isinstance(o, tuple))
    assert expected[1].startswith(start)
    # the block sizes of the scans that took Log(1 - x) off the circle: at
    # the refinement points of a zero count, for the power jet of its rows
    inside, refined = [], []
    real_scan, real_log = criteria._scan, analytic_core.log_one_minus

    def scan(thm, hs, *args):
        inside.append(len(hs))
        try:
            return real_scan(thm, hs, *args)
        finally:
            inside.pop()

    def log_one_minus(x):
        refined.extend(inside)
        return real_log(x)

    monkeypatch.setattr(criteria, "_scan", scan)
    monkeypatch.setattr(analytic_core, "log_one_minus", log_one_minus)
    assert _outcome(lambda: sd.sweep(handles, betas, grid, theorem)) == expected
    assert (len(handles) in refined) == refines


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
