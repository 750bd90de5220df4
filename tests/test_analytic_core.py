import math
import re

import numpy as np
import pytest

import stardisk as sd
from stardisk.errors import (
    CriticalPointError,
    DiskDomainError,
    FunctionZeroError,
    ParameterDomainError,
    PoleError,
)

from conftest import handle_zoo, sample_points


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


def _bits(x):
    return np.asarray(x, dtype=complex).tobytes()


def test_functionals_bitwise_equal_to_q_and_p():
    # every handle kind, the origin, and points inside the small-z patch
    z = np.concatenate([
        sample_points(256, rmax=0.99),
        [0j, 1e-7, -sd.analytic_core.SMALL_Z, 5e-7j, 2e-6 - 1e-6j],
    ])
    kinds = set()
    for fh in handle_zoo():
        kinds.add(fh.kind)
        q, p = sd.functionals(fh, z)
        assert _bits(q) == _bits(sd.starlike_q(fh, z))
        assert _bits(p) == _bits(sd.convexity_p(fh, z))
        q0, p0 = sd.functionals(fh, 0j)
        assert type(q0) is complex and type(p0) is complex
        assert _bits(q0) == _bits(sd.starlike_q(fh, 0j))
        assert _bits(p0) == _bits(sd.convexity_p(fh, 0j))
    assert kinds == {"power", "log", "series", "koebe", "halfplane"}


def test_functionals_raise_p_guard_first():
    # f = z - 2 z^2: f' vanishes at z = 1/4, f at z = 1/2
    fh = sd.series((-2.0,))
    z = np.array([0.1, 0.25, 0.5])
    with pytest.raises(FunctionZeroError):
        sd.starlike_q(fh, z)
    with pytest.raises(CriticalPointError):
        sd.convexity_p(fh, z)
    with pytest.raises(CriticalPointError):
        sd.functionals(fh, z)
    with pytest.raises(FunctionZeroError):
        sd.functionals(fh, np.array([0.1, 0.5]))


def test_functionals_outside_disk_rejected():
    with pytest.raises(DiskDomainError):
        sd.functionals(sd.koebe(), np.array([0.5, 1.0]))


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


def test_alexander_quad_nodes_validation():
    with pytest.raises(ParameterDomainError):
        sd.alexander_jet(sd.koebe(), 0.5, quad_nodes=4)


# ------------------------------------------------------------- derivatives

def test_derivative_check_examples():
    assert sd.derivative_check(sd.quadratic(), 0.3 + 0.2j, 1e-5) <= 1e-6
    h = sd.make_family(sd.FamilySpec("ex1_high", 2.5))
    assert sd.derivative_check(h, 0.5j, 1e-5) <= 1e-6
    assert sd.derivative_check(sd.halfplane(), 0j, 1e-5) <= 1e-6


def test_derivative_check_property():
    # 100 scattered points per handle; h = 1e-4 keeps the second-difference
    # rounding noise well under the tolerance while the direction-averaged
    # truncation term is O(h^4).
    pts = sample_points(100, rmax=0.9, seed=2024)
    for fh in handle_zoo():
        for z in pts:
            if abs(z) + 1e-4 >= 1.0:
                continue
            assert sd.derivative_check(fh, z, 1e-4) <= 1e-6


def test_derivative_check_domain():
    with pytest.raises(DiskDomainError):
        sd.derivative_check(sd.koebe(), 0.9999, 1e-3)
    with pytest.raises(ParameterDomainError):
        sd.derivative_check(sd.koebe(), 0.5, 0.0)


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
