import cmath
import math
import re
import sys

import numpy as np
import pytest

import stardisk as sd
from stardisk import analytic_core
from stardisk.errors import (
    CriticalPointError,
    DiskDomainError,
    FunctionZeroError,
    ParameterDomainError,
    PoleError,
)

from conftest import ROUNDS_TO_SMALL_Z, handle_zoo, sample_points
from difference_oracle import derivative_check


# ---------------------------------------------------------------- eval_jet

def test_jet_series_normalization_and_a2():
    fh = sd.series((-0.5,))
    jet = sd.eval_jet(fh, 0j)
    assert jet.f == 0
    assert jet.df == 1
    assert jet.d2f == -1  # f''(0) = 2 a_2


def test_jet_family_matches_quadratic():
    h = sd.make_family(sd.FamilySpec("ex1_high", 2.0))
    q = sd.quadratic()
    for z in (0.1, -0.5, 0.3 + 0.4j, 0.9j, -0.7 - 0.2j):
        a = sd.eval_jet(h, z)
        b = sd.eval_jet(q, z)
        assert abs(a.f - b.f) <= 1e-12
        assert abs(a.df - b.df) <= 1e-12
        assert abs(a.d2f - b.d2f) <= 1e-12


def test_jet_halfplane_value():
    h = sd.make_family(sd.FamilySpec("ex2_neg", -1.0))
    assert abs(sd.eval_jet(h, 0.5).f - 1.0) <= 1e-12


def test_jet_outside_disk_rejected():
    with pytest.raises(DiskDomainError):
        sd.eval_jet(sd.koebe(), 1.0)
    with pytest.raises(DiskDomainError):
        sd.eval_jet(sd.koebe(), np.array([0.1, 1.2j]))


def test_jet_array_shape():
    z = sample_points(17)
    jet = sd.eval_jet(sd.koebe(), z)
    assert jet.f.shape == z.shape
    assert jet.d2f.shape == z.shape


def test_series_cap():
    sd.series((0.01,) * 63)  # a_2 .. a_64 is fine
    with pytest.raises(ParameterDomainError):
        sd.series((0.01,) * 64)


# ---------------------------------------------------- starlike_q / convexity_p

def test_q_at_origin_is_one():
    for fh in handle_zoo():
        assert abs(sd.starlike_q(fh, 0j) - 1.0) <= 1e-12


def test_q_halfplane_hand_value():
    # z f'/f = 1/(1-z) for z/(1-z)
    assert abs(sd.starlike_q(sd.halfplane(), 0.5) - 2.0) <= 1e-12


def test_q_quadratic_hand_value():
    # z f'/f = 2(1-z)/(2-z) for z - z^2/2
    h = sd.make_family(sd.FamilySpec("ex1_high", 2.0))
    assert abs(sd.starlike_q(h, 0.5) - 2.0 / 3.0) <= 1e-12


def test_q_small_z_series_patch():
    fh = sd.series((0.25,))
    for z in (1e-9, 1e-7 * (1 + 1j) / math.sqrt(2)):
        expect = 1.0 + 0.25 * z  # 1 + (f''(0)/2) z with f''(0)/2 = a_2
        assert abs(sd.starlike_q(fh, z) - expect) <= 1e-12


def test_q_zero_of_f_error():
    fh = sd.series((2.0,))  # z + 2 z^2 vanishes at z = -1/2
    with pytest.raises(FunctionZeroError):
        sd.starlike_q(fh, -0.5)


def test_p_at_origin_is_one():
    for fh in handle_zoo():
        assert abs(sd.convexity_p(fh, 0j) - 1.0) <= 1e-12


def test_p_halfplane_hand_value():
    # 1 + z f''/f' = (1+z)/(1-z) for z/(1-z)
    assert abs(sd.convexity_p(sd.halfplane(), 0.5) - 3.0) <= 1e-12


def test_p_family_matches_closed_form():
    spec = sd.FamilySpec("ex1_high", 2.5)
    h = sd.make_family(spec)
    for z in sample_points(25):
        b = 2.5
        expected = (b - 1 - 2 * z) / ((b - 1) * (1 - z))
        assert abs(sd.convexity_p(h, z) - expected) <= 1e-12


def test_p_critical_point_error():
    fh = sd.series((1.0,))  # f' = 1 + 2z vanishes at z = -1/2
    with pytest.raises(CriticalPointError):
        sd.convexity_p(fh, -0.5)


# ------------------------------------------------------------- Mobius maps

def test_mobius_target_values():
    assert abs(sd.mobius_target(2.0, 0j) - 1.0) <= 1e-15
    assert abs(sd.mobius_target(2.0, 1.0)) <= 1e-15
    assert abs(sd.mobius_target(2.0, -1.0) - 4.0 / 3.0) <= 1e-15


def test_mobius_target_pole():
    with pytest.raises(PoleError, match="^z = beta = 0.5 is the pole of the target map$"):
        sd.mobius_target(0.5, 0.5)
    with pytest.raises(ParameterDomainError):
        sd.mobius_target(0.0, 0.3)


def test_mobius_invert_t1_values():
    assert abs(sd.mobius_invert_t1(2.0, 1.0)) <= 1e-15
    assert abs(sd.mobius_invert_t1(2.5, 1.0)) <= 1e-15
    # for f = z - z^2/2 the induced w is the identity
    assert abs(sd.mobius_invert_t1(2.0, 2.0 / 3.0) - 0.5) <= 1e-15
    with pytest.raises(PoleError, match="^q = beta = 2 is the pole of the inverse map$"):
        sd.mobius_invert_t1(2.0, 2.0)


def test_mobius_invert_t2_values():
    assert abs(sd.mobius_invert_t2(-1.0, 1.0)) <= 1e-15
    assert abs(sd.mobius_invert_t2(3.0, 1.0)) <= 1e-15
    assert abs(sd.mobius_invert_t2(-1.0, 2.0) - 1.0 / 3.0) <= 1e-15
    with pytest.raises(PoleError, match=re.escape(
            "beta * q = 1 (beta = 2) is the pole of the inverse map")):
        sd.mobius_invert_t2(2.0, 0.5)


def test_mobius_pole_names_the_beta_of_the_first_pole():
    with pytest.raises(PoleError, match="^z = beta = 2.5 is the pole"):
        sd.mobius_target(2.5, np.array([0.1, 2.5]))
    with pytest.raises(PoleError, match="^q = beta = 1.5 is the pole"):
        sd.mobius_invert_t1(1.5, np.array([0.3, 1.5 + 1e-14]))
    # rows are betas; row-major order meets the pole of beta = 2 (q = 0.5)
    # before that of beta = 4 (q = 0.25) and that of beta = 5 (q = 0.2)
    beta = np.array([3.0, 2.0, 4.0, 5.0])[:, None]
    q = np.array([[0.1, 0.2], [0.3, 0.5], [0.25, 0.1], [0.2, 0.2]])
    with pytest.raises(PoleError, match=re.escape("(beta = 2) is the pole")):
        sd.mobius_invert_t2(beta, q)
    with pytest.raises(PoleError, match=re.escape("(beta = 4) is the pole")):
        sd.mobius_invert_t2(beta[2:], q[2:])
    # with no pole the array beta broadcasts and matches the scalar calls
    w = sd.mobius_invert_t2(beta, q * 0.5)
    for k in range(4):
        assert np.array_equal(w[k], sd.mobius_invert_t2(float(beta[k, 0]), q[k] * 0.5))


def test_mobius_maps_return_scalars_for_scalars():
    for value in (sd.mobius_target(2.0, 0.3), sd.mobius_invert_t1(2.0, 0.3),
                  sd.mobius_invert_t2(2.0, 0.3)):
        assert type(value) is complex
    assert sd.mobius_invert_t1(2.0, np.array([0.3])).shape == (1,)


def test_an_inverse_map_with_an_array_beta_and_a_scalar_q_gives_each_betas_value():
    # q = 0.3 keeps clear of theorem 2's pole at beta q = 1
    for invert, q in ((sd.mobius_invert_t1, 0.5), (sd.mobius_invert_t2, 0.3)):
        w = invert(np.array([2.0, 2.5]), q)
        assert w.shape == (2,)
        assert np.array_equal(w, [invert(2.0, q), invert(2.5, q)])


def test_mobius_roundtrip():
    pts = sample_points(100, rmax=0.99, seed=7)
    for beta in (1.5, 2.0, 2.5, 2.9):
        q = sd.mobius_target(beta, pts)
        back = sd.mobius_invert_t1(beta, q)
        assert np.abs(back - pts).max() <= 1e-12


def test_image_disk_identity():
    th = 2.0 * np.pi * np.arange(1024) / 1024
    boundary = np.exp(1j * th)
    for beta in (1.5, 2.0, 3.0, 10.0):
        c = beta / (beta + 1.0)
        image = sd.mobius_target(beta, boundary)
        assert np.abs(np.abs(image - c) - c).max() <= 1e-12


def test_target_disk():
    disk = sd.target_disk(2.0)
    assert disk.center == 2.0 / 3.0
    assert disk.radius == 2.0 / 3.0
    disk3 = sd.target_disk(3.0)
    assert disk3.radius == 0.75
    # half-plane limit
    big = sd.target_disk(1e6)
    assert abs(big.center - 1.0) <= 1e-5
    assert abs(big.radius - 1.0) <= 1e-5
    with pytest.raises(ParameterDomainError):
        sd.target_disk(1.0)


# --------------------------------------------------------------- alexander

def test_alexander_at_origin():
    for fh in handle_zoo():
        a2 = sd.eval_jet(fh, 0j).d2f / 2.0
        jet = sd.alexander_jet(fh, 0j)
        assert abs(jet.f) <= 1e-15
        assert abs(jet.df - 1.0) <= 1e-15
        assert abs(jet.d2f - a2) <= 1e-15


def test_alexander_quadratic_value():
    # integral of 1 - t/2 is z - z^2/4
    jet = sd.alexander_jet(sd.quadratic(), 0.5)
    assert abs(jet.f - 0.4375) <= 1e-12


def test_alexander_halfplane_is_log():
    jet = sd.alexander_jet(sd.halfplane(), 0.5)
    assert abs(jet.f - math.log(2.0)) <= 1e-12
    z = 0.3 + 0.4j
    jet2 = sd.alexander_jet(sd.halfplane(), z)
    assert abs(jet2.f - (-np.log(1 - z))) <= 1e-12


def test_alexander_identity_on_grid():
    # 1 + z g''/g' == z f'/f when g' = f/z
    radii = (0.3, 0.6, 0.9)
    th = 2.0 * np.pi * np.arange(256) / 256
    for fh in handle_zoo():
        for r in radii:
            z = r * np.exp(1j * th)
            jet = sd.alexander_jet(fh, z)
            p_of_g = 1.0 + z * jet.d2f / jet.df
            q_of_f = sd.starlike_q(fh, z)
            assert np.abs(p_of_g - q_of_f).max() <= 1e-9


# ------------------------------------------------------------- derivatives

def test_derivative_check_examples():
    assert derivative_check(sd.quadratic(), 0.3 + 0.2j, 1e-5) <= 1e-6
    h = sd.make_family(sd.FamilySpec("ex1_high", 2.5))
    assert derivative_check(h, 0.5j, 1e-5) <= 1e-6
    assert derivative_check(sd.halfplane(), 0j, 1e-5) <= 1e-6


def test_derivative_check_property():
    # 100 scattered points per handle; h = 1e-4 keeps the second-difference
    # rounding noise well under the tolerance while the direction-averaged
    # truncation term is O(h^4).
    pts = sample_points(100, rmax=0.9, seed=2024)
    for fh in handle_zoo():
        for z in pts:
            if abs(z) + 1e-4 >= 1.0:
                continue
            assert derivative_check(fh, z, 1e-4) <= 1e-6


def test_derivative_check_domain():
    with pytest.raises(DiskDomainError):
        derivative_check(sd.koebe(), 0.9999, 1e-3)
    with pytest.raises(ParameterDomainError):
        derivative_check(sd.koebe(), 0.5, 0.0)


# ---------------------------------------------------------------- invariants

def test_normalization_everywhere():
    for fh in handle_zoo():
        jet = sd.eval_jet(fh, 0j)
        assert abs(jet.f) <= 1e-12
        assert abs(jet.df - 1.0) <= 1e-12


def test_conjugate_symmetry_of_family_handles():
    # real parameters: f(conj z) = conj f(z) (principal branch respects
    # Schwarz reflection on the disk)
    for spec in (
        sd.FamilySpec("ex1_high", 2.7),
        sd.FamilySpec("ex1_low", 1.2),
        sd.FamilySpec("ex2_pos", 4.0),
        sd.FamilySpec("ex2_neg", -3.0),
    ):
        fh = sd.make_family(spec)
        for z in sample_points(20, seed=5):
            a = sd.eval_jet(fh, z)
            b = sd.eval_jet(fh, np.conj(z))
            assert abs(np.conj(a.f) - b.f) <= 1e-13
            assert abs(np.conj(a.df) - b.df) <= 1e-13


# ------------------------------------------------------ sweep blocks and jets


def _half_circle(r, n=256):
    # the points of a real-coefficient scan of |z| = r at n angles
    return r * np.exp(1j * (2.0 * np.pi * np.arange(n // 2 + 1) / n))


def test_power_handles_share_one_log_and_any_other_is_a_block_of_its_own():
    log_point = sd.make_family(sd.FamilySpec("ex2_pos", 1.0 + math.sqrt(2.0)))
    a, b = (sd.make_family(sd.FamilySpec("ex2_pos", beta)) for beta in (3.0, 4.0))
    assert [fh.kind for fh in (a, log_point, b)] == ["power", "log", "power"]
    z = _half_circle(0.9)
    [(lo0, hi0, lg), mid, (lo2, hi2, lg2)] = analytic_core._blocks([a, log_point, b], z, 8)
    assert [(lo0, hi0), mid, (lo2, hi2)] == [(0, 1), (1, 2, None), (2, 3)]
    assert lg2 is lg and np.array_equal(lg, analytic_core.log_one_minus(z))


def test_a_circle_with_a_point_at_small_z_shares_no_log():
    # Log(1 - z) has no small-z patch, so each power handle is a block of its own
    fh, other = (sd.make_family(sd.FamilySpec("ex1_high", beta)) for beta in (2.5, 2.6))
    z = _half_circle(ROUNDS_TO_SMALL_Z)
    assert np.abs(z).min() <= analytic_core.SMALL_Z < ROUNDS_TO_SMALL_Z
    assert list(analytic_core._blocks([fh, other], z, 8)) == [(0, 1, None), (1, 2, None)]


def test_a_repeated_builtin_is_one_block_and_takes_one_row_of_its_jet():
    fh = sd.quadratic()
    z = _half_circle(0.9)
    assert list(analytic_core._blocks([fh] * 3, z, 8)) == [(0, 3, None)]
    rows, jet = analytic_core._block_jet([fh] * 3, z, None)
    x = 0.5 * z[:7]
    for got, own, at_x, own_x in zip(rows, sd.eval_jet(fh, z), jet(np.arange(7) % 3, x),
                                     sd.eval_jet(fh, x)):
        assert got.shape == (1, z.size)
        assert np.array_equal(got[0], own)
        assert np.array_equal(at_x, own_x)


@pytest.mark.parametrize("power", [True, False])
def test_a_run_longer_than_size_is_cut_into_size_long_blocks(power):
    betas = [2.1, 2.2, 2.3, 2.4, 2.5, 2.6, 2.7]
    handles = ([sd.make_family(sd.FamilySpec("ex1_high", b)) for b in betas] if power
               else [sd.quadratic()] * len(betas))
    z = _half_circle(0.9)
    blocks = list(analytic_core._blocks(handles, z, 3))
    assert [(lo, hi) for lo, hi, _ in blocks] == [(0, 3), (3, 6), (6, 7)]
    assert all((lg is not None) == power for _, _, lg in blocks)


def test_the_power_block_rows_are_each_handles_own_jet_bit_for_bit():
    handles = [sd.make_family(sd.FamilySpec(family, beta))
               for family, beta in (("ex1_high", 2.5), ("ex1_low", 1.5), ("ex2_pos", 3.0),
                                    ("ex2_neg", -2.0))]
    for r in (0.5, 0.99, 0.999999):
        z = _half_circle(r, 4096)
        [(lo, hi, lg)] = analytic_core._blocks(handles, z, len(handles))
        assert (lo, hi) == (0, len(handles))
        rows, jet = analytic_core._block_jet(handles, z, lg)
        x = 0.5 * z[::97]  # points off the circle, as a zero count refines at
        for i, fh in enumerate(handles):
            at_x = jet(np.full(x.size, i), x)
            for got, own, got_x, own_x in zip(rows, sd.eval_jet(fh, z), at_x,
                                              sd.eval_jet(fh, x)):
                assert np.array_equal(got[i], own), (fh.label, r)
                assert np.array_equal(got_x, own_x), (fh.label, r)


def test_a_series_with_a_complex_coefficient_is_not_real():
    real = [sd.quadratic(), sd.koebe(), sd.halfplane(), sd.monomial(5),
            sd.series((0.25, -0.125 + 0j)), sd.make_family(sd.FamilySpec("ex1_high", 2.5))]
    assert analytic_core._real(real)
    assert not analytic_core._real(real + [sd.series((0.25, 0.1j))])
    assert not analytic_core._real([sd.series((0.3j,))])


# ------------------------------------------- one point alone and in an array


def test_a_point_alone_gives_the_bits_it_gives_inside_an_array():
    # the log-limit, Koebe and half-plane kinds are left out: at AVX2 and
    # above their lone points differ from the array's in the last bits,
    # likely as numpy's scalar arithmetic skips its SIMD loops (ROADMAP item 7)
    small = analytic_core.SMALL_Z
    z = np.concatenate([sample_points(300, rmax=0.99, seed=29),
                        [0j, small, -0.5j * small, small * (0.6 - 0.8j), 1e-9 + 0j]])
    assert np.abs(z).max() < 0.99
    families = [sd.make_family(sd.FamilySpec(family, beta))
                for family, beta in (("ex1_high", 2.5), ("ex1_low", 1.5), ("ex2_pos", 3.0),
                                     ("ex2_neg", -2.0))]
    handles = families + [sd.series((0.25, -0.125)), sd.series((0.25, -0.125, 0.05j))]
    assert [fh.kind for fh in handles] == ["power"] * 4 + ["series"] * 2
    maps = {}
    for fh in handles:
        for part in range(3):
            maps[f"{fh.label} jet[{part}]"] = lambda x, fh=fh, part=part: sd.eval_jet(fh, x)[part]
        maps[f"{fh.label} q"] = lambda x, fh=fh: sd.starlike_q(fh, x)
        maps[f"{fh.label} p"] = lambda x, fh=fh: sd.convexity_p(fh, x)
    maps["target"] = lambda x: sd.mobius_target(2.5, x)
    maps["invert_t1"] = lambda x: sd.mobius_invert_t1(2.5, x)
    maps["invert_t2"] = lambda x: sd.mobius_invert_t2(0.5, x)
    for w in (sd.induced(1, families[0], 2.5), sd.induced(2, families[2], 3.0)):
        maps[w.label] = w
    for name, fn in maps.items():
        alone = np.array([fn(complex(x)) for x in z])
        # compared as bit patterns, so that the sign of a zero counts
        assert np.array_equal(alone.view(np.uint64), np.asarray(fn(z)).view(np.uint64)), name


def test_a_one_point_call_enters_no_numpy_python_wrapper():
    # np.any, np.all, np.ndim and the rest of numpy._core.fromnumeric are
    # Python functions, each costing more than the arithmetic of one point
    fh = sd.make_family(sd.FamilySpec("ex1_high", 2.5))
    w = sd.induced(1, fh, 2.5)
    entered = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_globals.get("__name__") == "numpy._core.fromnumeric":
            entered.append(frame.f_code.co_name)

    z = 0.7 * cmath.exp(0.3j)
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        values = sd.starlike_q(fh, z), sd.convexity_p(fh, z), w(z)
    finally:
        sys.setprofile(previous)
    assert [type(v) for v in values] == [complex] * 3
    assert entered == []


def test_grid_validation():
    with pytest.raises(ParameterDomainError):
        sd.SamplingGrid((0.9, 0.5), 512)
    with pytest.raises(ParameterDomainError):
        sd.SamplingGrid((0.5, 1.0), 512)
    with pytest.raises(ParameterDomainError):
        sd.SamplingGrid((0.5,), 4)
    g = sd.SamplingGrid((0.5,), 8)
    assert g.angles().shape == (8,)
    assert abs(g.circle(0.5)[0] - 0.5) == 0.0
