"""The sweep's disk certificate: zero counts of f', f/z and the Mobius
denominator on the largest circle, each equal to the roots inside it that
polyroots finds (tests/zero_count_oracle.py) or to a closed form."""

import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as npp

import stardisk as sd
from stardisk import analytic_core, criteria
from stardisk.cli import main as run_cli
from stardisk.errors import CriticalPointError, FunctionZeroError, PoleError

from zero_count_oracle import expected, polynomials, series_from_critical_points, swept

# f = z - 5 z^2: f' vanishes at 0.1 and f at 0.2, both inside r_max = 0.99,
# yet no grid point comes within 1e-14 of either
Z_MINUS_5Z2 = sd.series((-5.0,))
# f' = (1 - z/0.9i)(1 - z/(0.05 + 0.85i)): two critical points near the top
# of the disk.  Twice the phase turn of f' over theta in [0, pi] reads about
# 2 x 1.45 turns, so a half-circle count would name 3 zeros.
TWO_NEAR_THE_TOP = series_from_critical_points(
    [[1.0, -1.0 / 0.9j], [1.0, -1.0 / (0.05 + 0.85j)]])
# f' = (1 + z/0.98)^2: a double critical point next to z = -0.99, where the
# phase of f' turns by about 3.5 across theta = pi, in the one step from
# theta_128 to its mirror image at 257 angles
DOUBLE_NEAR_MINUS_ONE = series_from_critical_points([[1.0, 1.0 / 0.98]] * 2)
# (e^{8z} - 1)/8 to degree 40: f' has no zero near the disk, but f/z
# vanishes at z = +-pi i/4, inside |z| < 0.9
EXP_8Z = sd.series(tuple(8.0**(n - 1) / math.factorial(n) for n in range(2, 41)))

SERIES_ROWS = [
    # (handle, theorem, beta, radii, angles, error and count)
    (Z_MINUS_5Z2, 1, 2.0, (0.5, 0.9, 0.99), 4096, (CriticalPointError, 1)),
    (Z_MINUS_5Z2, 2, 2.0, (0.5, 0.9, 0.99), 4096, (CriticalPointError, 1)),
    (Z_MINUS_5Z2, 2, -3.0, (0.5, 0.9, 0.99), 257, (CriticalPointError, 1)),
    # a complex coefficient: counted on the full circle, and nothing inside
    (sd.series((0.3j,)), 1, 2.0, (0.99,), 256, None),
    (sd.series((0.3j,)), 2, 2.0, (0.99,), 257, None),
    (TWO_NEAR_THE_TOP, 1, 2.0, (0.95,), 256, (CriticalPointError, 2)),
    (TWO_NEAR_THE_TOP, 2, -2.0, (0.95,), 257, (CriticalPointError, 2)),
    (DOUBLE_NEAR_MINUS_ONE, 1, 2.0, (0.99,), 257, (CriticalPointError, 2)),
    (DOUBLE_NEAR_MINUS_ONE, 1, 2.0, (0.99,), 256, (CriticalPointError, 2)),
    (EXP_8Z, 1, 2.0, (0.9,), 256, (FunctionZeroError, 2)),
    (EXP_8Z, 2, -2.0, (0.9,), 257, (FunctionZeroError, 2)),
    # z - z^2/2: f' vanishes at 1 only, and q = 1/2 at z = 2/3
    (sd.quadratic(), 1, 2.0, (0.99,), 256, None),
    (sd.quadratic(), 2, 2.0, (0.99,), 256, (PoleError, 1)),
    (sd.quadratic(), 2, 2.0, (0.6,), 257, None),
]


@pytest.mark.parametrize("fh, theorem, beta, radii, angles, outcome", SERIES_ROWS)
def test_series_counts_equal_the_roots_inside(fh, theorem, beta, radii, angles, outcome):
    assert expected(fh, beta, theorem, radii[-1]) == outcome
    assert swept(fh, beta, theorem, sd.SamplingGrid(radii, angles)) == outcome


def test_the_certificate_names_the_count_and_r_max():
    for theorem in (1, 2):
        with pytest.raises(CriticalPointError) as err:
            sd.sweep([Z_MINUS_5Z2], [2.0], sd.default_grid(), theorem)
        assert str(err.value) == (
            "f' has 1 zero in |z| < 0.99; 1 + z f''/f' is singular there")
    # whereas run_t2 scans for the hypothesis and finds it satisfied
    assert sd.run_t2(Z_MINUS_5Z2, 2.0, sd.default_grid())[0].satisfied


@pytest.mark.parametrize("angles", [256, 257])
def test_koebe_has_its_theorem_1_pole_inside(angles):
    # q = (1 + z)/(1 - z) = beta at z = (beta - 1)/(beta + 1) = 1/3
    grid = sd.SamplingGrid((0.5, 0.9, 0.99), angles)
    with pytest.raises(PoleError) as err:
        sd.sweep([sd.koebe()], [2.0], grid, 1)
    assert str(err.value) == (
        "q - beta has 1 zero in |z| < 0.99 (beta = 2); the inverse map has a pole there")


@pytest.mark.parametrize("angles", [256, 257])
def test_koebe_f_prime_counts_no_zero_where_the_phase_races(monkeypatch, angles):
    # f' = (1 + z)/(1 - z)^3 turns by about 3.5 between the samples next to
    # z = 0.99, which the sampled step reads as -2.8: unrefined, the count
    # of f' is -2
    z = 0.99 * np.exp(1j * sd.SamplingGrid((0.99,), angles).angles())
    df = sd.eval_jet(sd.koebe(), z).df

    def df_at(rows, x):
        return sd.eval_jet(sd.koebe(), x).df

    for v in (df[None, :angles // 2 + 1], df[None]):
        assert criteria._zero_count(v, df_at, 0.99, angles, "f'").tolist() == [0]
        with monkeypatch.context() as m:
            m.setattr(criteria, "STEP_MAX", np.pi)  # no step is refined
            assert criteria._zero_count(v, df_at, 0.99, angles, "f'").tolist() == [-2]
    # 1 + q = 2/(1 - z) has no zero: theorem 2 at beta = -1 certifies
    assert swept(sd.koebe(), -1.0, 2, sd.SamplingGrid((0.99,), angles)) is None


def test_ex2_neg_near_the_unit_circle_resolves_its_arcs(capsys):
    argv = ["sweep", "--theorem", "2", "--family", "ex2_neg", "--beta-min=-3",
            "--beta-max=-1", "--steps", "3", "--radii", "0.5,0.999", "--angles", "64"]
    assert run_cli(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4


@pytest.mark.parametrize("family, theorem, beta", [
    ("builtin_koebe", 1, "2"), ("builtin_halfplane", 1, "2"), ("builtin_quadratic", 2, "2"),
])
def test_cli_sweep_exits_1_on_a_pole_inside(capsys, family, theorem, beta):
    argv = ["sweep", "--theorem", str(theorem), "--family", family, "--beta-min", beta,
            "--beta-max", "2.5", "--steps", "2"]
    assert run_cli(argv) == 1
    assert "has 1 zero in |z| < 0.99 (beta = 2)" in capsys.readouterr().err


@pytest.mark.parametrize("rho, angles, outcome", [
    (1.005, 130, None),
    (0.985, 258, (PoleError, 2)),
])
def test_the_denominator_count_refines_its_arcs(monkeypatch, rho, angles, outcome):
    # f = z + a z^3 has q = (1 + 3a z^2)/(1 + a z^2), so q - 1.2 vanishes at
    # z^2 = 0.2/(1.8 a) = -rho^2: at +-i rho, just outside or inside r = 0.99,
    # where the phase of q - beta races past the samples
    fh = sd.series((0.0, -0.2 / (1.8 * rho**2)))
    refined = []
    real = criteria._zero_count

    def spy(v, value_at, r, n, what):
        def at(rows, x):
            refined.append(what)
            return value_at(rows, x)
        return real(v, at, r, n, what)

    monkeypatch.setattr(criteria, "_zero_count", spy)
    assert expected(fh, 1.2, 1, 0.99) == outcome
    assert swept(fh, 1.2, 1, sd.SamplingGrid((0.99,), angles)) == outcome
    # one halving of the coarse arcs of the denominator, and of nothing else
    assert refined == ["q - beta"]
    if outcome:
        with pytest.raises(PoleError) as err:
            sd.sweep([fh], [1.2], sd.SamplingGrid((0.99,), angles), 1)
        assert str(err.value) == (
            "q - beta has 2 zeros in |z| < 0.99 (beta = 1.2); the inverse map has a pole there")


# f' = (1 + z/0.985)^2: a double critical point 0.005 inside r = 0.99, where
# the phase of f' turns by 3 pi / 2 or more between two samples at 257 angles
# and aliases to a step below STEP_MAX, which no halving revisits
DOUBLE_AT_MINUS_0985 = series_from_critical_points([[1.0, 1.0 / 0.985]] * 2)


@pytest.mark.parametrize("angles", [
    256,
    pytest.param(257, marks=pytest.mark.xfail(strict=True, reason=(
        "a sampled phase step that aliases below pi/2 is never refined: counts 1, "
        "not 2, until the zero counts run on certified arcs (ROADMAP item 3)"))),
    1024,
])
def test_a_double_critical_point_next_to_the_circle_counts_2(angles):
    assert expected(DOUBLE_AT_MINUS_0985, 2.0, 1, 0.99) == (CriticalPointError, 2)
    grid = sd.SamplingGrid((0.99,), angles)
    assert swept(DOUBLE_AT_MINUS_0985, 2.0, 1, grid) == (CriticalPointError, 2)


# (1 - z/z0)(1 - z/conj z0) with z0 = 0.985 e^{i(pi - 0.005)}, as [1, c1, c2]:
# a conjugate pair inside r = 0.99 next to z = -0.99.  At 257 angles the arc
# from theta_128 across pi to its mirror image turns the phase of a function
# vanishing there by more than pi, so a half-circle count that drops that
# step, or ends it at v instead of conj v, is off by 1.
PAIR = npp.polyfromroots(0.985 * np.exp([1j * (np.pi - 0.005), -1j * (np.pi - 0.005)])).real
PAIR = PAIR / PAIR[0]
MIRROR_BETA = 1.5


@pytest.mark.parametrize("fh, counts", [
    # f' = PAIR
    (series_from_critical_points([PAIR]), [2, 0, 1]),
    # f/z = PAIR; q has poles at its two zeros
    (sd.series(tuple(PAIR[1:])), [2, 2, 0]),
    # (z f' - beta f)/z = (1 - beta) PAIR
    (sd.series(tuple((1.0 - MIRROR_BETA) * PAIR[1:] / (np.arange(2, 4) - MIRROR_BETA))),
     [1, 1, 1]),
], ids=["f'", "f/z", "q - beta"])
@pytest.mark.parametrize("angles", [256, 257])
def test_the_half_circle_counts_what_the_full_circle_counts(fh, counts, angles):
    # counts of f', f/z and q - beta, the last being the zeros of
    # z f' - beta f inside minus those of f, as polyroots finds them
    roots = [int(np.sum(np.abs(npp.polyroots(p)) < 0.99))
             for p in polynomials(fh, MIRROR_BETA, 1)]
    assert counts == [roots[0], roots[1], roots[2] - roots[1]]

    def values(x):
        f, df, _ = sd.eval_jet(fh, x)
        return np.stack([df, f / x, x * df / f - MIRROR_BETA])

    def value_at(rows, x):
        return values(x)[rows, np.arange(len(x))]

    v = values(0.99 * np.exp(1j * sd.SamplingGrid((0.99,), angles).angles()))
    assert criteria._zero_count(v, value_at, 0.99, angles, "v").tolist() == counts
    half = v[:, :angles // 2 + 1]
    assert criteria._zero_count(half, value_at, 0.99, angles, "v").tolist() == counts


# ------------------------------------------- counts that algebra fixes at 0

@pytest.mark.parametrize("argv", [
    ["--family", "ex2_neg", "--beta-min=-8", "--beta-max=-2", "--steps", "4",
     "--radii", "0.999999", "--angles", "4096"],
    ["--family", "ex2_pos", "--beta-min=2", "--beta-max=8", "--steps", "4",
     "--radii", "0.99999", "--angles", "256"],
    ["--family", "builtin_koebe", "--beta-min=-1", "--beta-max=-1", "--steps", "1",
     "--radii", "0.999999", "--angles", "4096"],
], ids=["ex2_neg", "ex2_pos", "koebe"])
def test_closed_forms_sweep_next_to_the_unit_circle(capsys, argv):
    # the phases of f' and f/z outrun the halvings near z = 1, yet neither
    # has a zero in the disk, so neither is counted
    assert run_cli(["sweep", "--theorem", "2"] + argv) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("r", [0.9, 0.99])
@pytest.mark.parametrize("mu", [s * k / 2 for k in range(1, 13) for s in (1, -1)])
def test_power_f_prime_and_f_over_z_count_no_zero_up_to_mu_6(mu, r):
    # what the sweep no longer counts reads 0 on a dense circle
    fh = sd.FunctionHandle("power", f"mu={mu}", mu=mu)
    assert analytic_core._may_vanish([fh]) == (False, False)

    def values(x):
        f, df, _ = sd.eval_jet(fh, x)
        return np.stack([df, f / x])

    def value_at(rows, x):
        return values(x)[rows, np.arange(len(x))]

    n = 2**14
    v = values(r * np.exp(1j * sd.SamplingGrid((r,), n).angles()))
    assert criteria._zero_count(v, value_at, r, n, "v").tolist() == [0, 0]


@pytest.mark.parametrize("mu, r, outcome", [
    # f/z vanishes at z = 1 - e^{+-2 pi i/mu}, |z| = 2 sin(pi/|mu|): 0.868
    # for |mu| = 7, 0.971 for 6.5; at r = 0.85 the count reads 0 and the
    # Mobius denominator's, counted next, fires
    (7.0, 0.85, (PoleError, 1)), (7.0, 0.88, (FunctionZeroError, 2)),
    (7.0, 0.99, (FunctionZeroError, 2)), (-7.0, 0.85, (PoleError, 1)),
    (-7.0, 0.88, (FunctionZeroError, 2)), (-7.0, 0.99, (FunctionZeroError, 2)),
    (6.5, 0.99, (FunctionZeroError, 2)), (-6.5, 0.99, (FunctionZeroError, 2)),
])
def test_a_power_form_past_mu_6_still_counts_f_over_z(mu, r, outcome):
    fh = sd.FunctionHandle("power", f"mu={mu}", mu=mu)
    assert analytic_core._may_vanish([fh]) == (False, True)
    assert swept(fh, 2.0, 1, sd.SamplingGrid((r,), 4096)) == outcome


def test_only_a_series_or_a_power_form_past_mu_6_may_vanish():
    closed = [sd.koebe(), sd.halfplane(), sd.FunctionHandle("log", "log"),
              sd.FunctionHandle("power", "p", mu=6.0), sd.FunctionHandle("power", "p", mu=-6.0)]
    assert analytic_core._may_vanish(closed) == (False, False)
    assert analytic_core._may_vanish(closed + [sd.FunctionHandle("power", "p", mu=6.01)]) \
        == (False, True)
    assert analytic_core._may_vanish(closed + [sd.quadratic()]) == (True, True)
