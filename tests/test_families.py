import math

import numpy as np
import pytest

import stardisk as sd
from stardisk.errors import ParameterDomainError

from conftest import sample_points

BETA_GRIDS = {
    "ex1_high": np.linspace(2.0, 2.95, 20),
    "ex1_low": np.linspace(1.05, 2.0, 20),
    "ex2_pos": np.linspace(1.05, 6.0, 20),
    "ex2_neg": np.linspace(-6.0, -1.0, 20),
}

BETA_SINGULAR = 1.0 + math.sqrt(2.0)


def grid_points(radii=(0.3, 0.6, 0.9), n=256):
    th = 2.0 * np.pi * np.arange(n) / n
    return np.concatenate([r * np.exp(1j * th) for r in radii])


# ------------------------------------------------------------- construction

def test_make_family_quadratic_special_case():
    h = sd.make_family(sd.FamilySpec("ex1_high", 2.0))
    q = sd.quadratic()
    for z in sample_points(50):
        assert abs(sd.eval_jet(h, z).f - sd.eval_jet(q, z).f) <= 1e-12


def test_make_family_halfplane_special_case():
    h = sd.make_family(sd.FamilySpec("ex2_neg", -1.0))
    hp = sd.halfplane()
    for z in sample_points(50):
        assert abs(sd.eval_jet(h, z).f - sd.eval_jet(hp, z).f) <= 1e-12


def test_make_family_log_limit():
    h = sd.make_family(sd.FamilySpec("ex2_pos", BETA_SINGULAR))
    assert h.kind == "log"
    assert abs(sd.eval_jet(h, 0.5).f - math.log(2.0)) <= 1e-12


def test_interval_validation_messages():
    cases = [
        ("ex1_high", 3.0, "2 <= beta < 3"),
        ("ex1_high", 1.9, "2 <= beta < 3"),
        ("ex1_low", 1.0, "1 < beta <= 2"),
        ("ex1_low", 2.5, "1 < beta <= 2"),
        ("ex2_pos", 1.0, "beta > 1"),
        ("ex2_neg", -0.5, "beta <= -1"),
    ]
    for fam, beta, interval in cases:
        with pytest.raises(ParameterDomainError) as err:
            sd.make_family(sd.FamilySpec(fam, beta))
        assert interval in str(err.value)


def test_non_finite_beta_and_exponent_rejected():
    cases = [
        ("ex2_pos", math.inf, "beta > 1"),
        ("ex2_pos", math.nan, "beta > 1"),
        ("ex2_neg", -math.inf, "beta <= -1"),
        ("ex2_pos", 1e300, "finite exponent mu"),  # beta^2 overflows mu
        ("ex2_neg", -1e300, "finite exponent mu"),
    ]
    for fam, beta, text in cases:
        with pytest.raises(ParameterDomainError) as err:
            sd.make_family(sd.FamilySpec(fam, beta))
        assert text in str(err.value)
        with pytest.raises(ParameterDomainError):
            sd.closed_form_q(sd.FamilySpec(fam, beta), 0.5)


def test_interval_endpoints_included():
    # both ex1 ids are valid at beta = 2 and must give the same function
    a = sd.make_family(sd.FamilySpec("ex1_high", 2.0))
    b = sd.make_family(sd.FamilySpec("ex1_low", 2.0))
    for z in sample_points(30, seed=3):
        assert abs(sd.eval_jet(a, z).f - sd.eval_jet(b, z).f) <= 1e-12
    sd.make_family(sd.FamilySpec("ex2_neg", -1.0))


def test_builtin_spec_roundtrip():
    for name in ("builtin_koebe", "builtin_halfplane", "builtin_quadratic"):
        h = sd.make_family(sd.FamilySpec(name))
        assert h.label == name
    h = sd.make_family(sd.FamilySpec("builtin_monomial:3"))
    assert h.coeffs == (0.0, 1.0 / 3.0)
    with pytest.raises(ParameterDomainError):
        sd.make_family(sd.FamilySpec("builtin_koebe", 2.0))
    with pytest.raises(ParameterDomainError):
        sd.make_family(sd.FamilySpec("no_such_family", 2.0))


def test_builtin_ids_keep_their_order_and_build_their_handles():
    assert sd.BUILTIN_FAMILIES == (
        "builtin_koebe", "builtin_halfplane", "builtin_quadratic", "builtin_monomial")
    labels = [sd.make_family(sd.FamilySpec(name)).label for name in sd.BUILTIN_FAMILIES]
    assert labels == list(sd.BUILTIN_FAMILIES[:3]) + ["builtin_monomial:1"]


@pytest.mark.parametrize("family, beta, text", [
    ("ex1_high", 2.5, "2.5"),
    ("ex1_high", 2.0, "2"),
    ("ex1_low", 1.0000001, "1.0000001"),
    ("ex2_pos", 2.414213562373095, "2.414213562373095"),
    ("ex2_pos", 1e150, "1e+150"),
    ("ex2_neg", -1.0, "-1"),
])
def test_a_family_label_names_beta_exactly(family, beta, text):
    assert sd.make_family(sd.FamilySpec(family, beta)).label == f"{family}(beta={text})"


def test_monomial_handles():
    ident = sd.monomial(1)
    assert sd.eval_jet(ident, 0.5).f == 0.5
    m3 = sd.monomial(3)
    z = 0.4 + 0.1j
    assert abs(sd.eval_jet(m3, z).f - (z + z**3 / 3.0)) <= 1e-15
    with pytest.raises(ParameterDomainError):
        sd.monomial(0)


def test_power_exponent_values():
    assert sd.power_exponent("ex1_high", 2.0) == 2.0
    assert sd.power_exponent("ex1_low", 2.0) == 2.0
    assert abs(sd.power_exponent("ex2_pos", BETA_SINGULAR)) <= 1e-14
    assert sd.power_exponent("ex2_neg", -1.0) == -1.0


# -------------------------------------------------------------- closed forms

def test_closed_form_q_hand_values():
    assert abs(sd.closed_form_q(sd.FamilySpec("ex1_high", 2.0), 0.5) - 2.0 / 3.0) <= 1e-12
    assert abs(sd.closed_form_q(sd.FamilySpec("ex2_neg", -1.0), 0.5) - 2.0) <= 1e-12
    # limit 1 at the origin for every family
    for fam, betas in BETA_GRIDS.items():
        assert sd.closed_form_q(sd.FamilySpec(fam, float(betas[3])), 0j) == 1.0


def test_closed_form_p_hand_values():
    assert abs(sd.closed_form_p(sd.FamilySpec("ex1_high", 2.0), 0j) - 1.0) <= 1e-15
    assert abs(sd.closed_form_p(sd.FamilySpec("ex1_high", 2.0), 0.5) - 0.0) <= 1e-15
    assert abs(sd.closed_form_p(sd.FamilySpec("ex2_neg", -1.0), 0.5) - 3.0) <= 1e-15


def test_closed_forms_reject_builtins():
    with pytest.raises(ParameterDomainError):
        sd.closed_form_q(sd.FamilySpec("builtin_koebe"), 0.5)
    with pytest.raises(ParameterDomainError):
        sd.closed_form_p(sd.FamilySpec("builtin_quadratic"), 0.5)


def test_oracle_agreement_over_beta_grids():
    pts = grid_points()
    for fam, betas in BETA_GRIDS.items():
        for beta in betas:
            spec = sd.FamilySpec(fam, float(beta))
            fh = sd.make_family(spec)
            dq = np.abs(sd.closed_form_q(spec, pts) - sd.starlike_q(fh, pts)).max()
            dp = np.abs(sd.closed_form_p(spec, pts) - sd.convexity_p(fh, pts)).max()
            assert dq <= 1e-9, (fam, beta, dq)
            assert dp <= 1e-9, (fam, beta, dp)


def test_log_limit_continuity():
    pts = sample_points(50, rmax=0.9, seed=11)
    h0 = sd.make_family(sd.FamilySpec("ex2_pos", BETA_SINGULAR))
    for beta in (BETA_SINGULAR - 1e-5, BETA_SINGULAR + 1e-5):
        h = sd.make_family(sd.FamilySpec("ex2_pos", beta))
        assert h.kind == "power"
        for z in pts:
            assert abs(sd.eval_jet(h, z).f - sd.eval_jet(h0, z).f) <= 1e-4


@pytest.mark.parametrize("offset", [1e-10, -1e-10, 1e-12, -1e-12])
def test_power_form_near_the_log_limit_matches_mpmath(offset):
    # 0 < |mu| < 4e-10 here; the log limit would be off by up to |mu| log(1000) / 2
    mpmath = pytest.importorskip("mpmath")
    beta = BETA_SINGULAR + offset
    spec = sd.FamilySpec("ex2_pos", beta)
    fh = sd.make_family(spec)
    assert fh.kind == "power"
    for z in 0.999 * np.exp(2j * np.pi * np.arange(16) / 16):
        with mpmath.workdps(50):
            b, u = mpmath.mpf(beta), 1 - mpmath.mpc(z)
            mu = (-b * b + 2 * b + 1) / (b * (b + 1))
            f = (1 - u**mu) / mu
            q = (1 - u) * u ** (mu - 1) / f
            p = 1 + (1 - u) * (1 - mu) / u
        for got, ref in ((sd.eval_jet(fh, z).f, f), (sd.starlike_q(fh, z), q),
                         (sd.convexity_p(fh, z), p), (sd.closed_form_q(spec, z), q),
                         (sd.closed_form_p(spec, z), p)):
            assert abs(got - complex(ref)) <= 1e-14 * abs(complex(ref)), (z, got, ref)


def test_closed_form_q_limit_at_singular_beta():
    spec = sd.FamilySpec("ex2_pos", BETA_SINGULAR)
    fh = sd.make_family(spec)
    pts = grid_points(n=128)
    assert np.abs(sd.closed_form_q(spec, pts) - sd.starlike_q(fh, pts)).max() <= 1e-9


# ------------------------------------------------------------------ builtins

def test_builtin_identities_on_grid():
    pts = grid_points()
    q_koebe = sd.starlike_q(sd.koebe(), pts)
    assert np.abs(q_koebe - (1.0 + pts) / (1.0 - pts)).max() <= 1e-12
    q_hp = sd.starlike_q(sd.halfplane(), pts)
    assert np.abs(q_hp - 1.0 / (1.0 - pts)).max() <= 1e-12


def test_family_normalization():
    for fam, betas in BETA_GRIDS.items():
        for beta in betas[::5]:
            fh = sd.make_family(sd.FamilySpec(fam, float(beta)))
            jet = sd.eval_jet(fh, 0j)
            assert abs(jet.f) <= 1e-12
            assert abs(jet.df - 1.0) <= 1e-12
