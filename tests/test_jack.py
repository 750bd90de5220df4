import cmath
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

import stardisk as sd
from stardisk import cli, jack
from stardisk.errors import (
    DegenerateSchwarzError,
    DiskDomainError,
    ParameterDomainError,
)

from conftest import circ_dist


def test_monomial_argmax_constant_modulus():
    theta, val = sd.boundary_argmax(sd.schwarz_monomial(3), 0.9, 1024)
    assert abs(val - 0.9**3) <= 1e-12
    # every angle ties; smallest coarse index wins
    assert theta <= 2.0 * math.pi / 1024 + 1e-9


def test_blaschke_argmax_hand_value():
    w = sd.blaschke(0.5)
    theta, val = sd.boundary_argmax(w, 0.9, 1024)
    assert circ_dist(theta, math.pi) <= 1e-6
    assert abs(val - 0.9 * 1.4 / 1.45) <= 1e-9


def test_induced_identity_argmax():
    fh = sd.make_family(sd.FamilySpec("ex1_high", 2.0))
    w = sd.induced(1, fh, 2.0)
    _, val = sd.boundary_argmax(w, 0.9, 1024)
    assert abs(val - 0.9) <= 1e-9


def test_argmax_validation():
    with pytest.raises(DiskDomainError):
        sd.boundary_argmax(sd.schwarz_monomial(2), 1.0, 1024)
    with pytest.raises(ParameterDomainError):
        sd.boundary_argmax(sd.schwarz_monomial(2), 0.9, 100)


def test_degenerate_schwarz_rejected():
    with pytest.raises(DegenerateSchwarzError):
        sd.boundary_argmax(lambda z: 0.0 * z, 0.9, 1024)
    # deep monomial underflows below the degeneracy threshold at small r
    with pytest.raises(DegenerateSchwarzError):
        sd.boundary_argmax(sd.schwarz_monomial(30), 0.3, 1024)


def test_probe_rejects_a_w_that_vanishes_at_its_argmax():
    # w(z) = z on the grid, but a scalar point gives 0: the argmax is found,
    # then w(z0) vanishes there
    w = sd.SchwarzFunction("scalar-zero", lambda z: z if np.ndim(z) else 0j)
    with pytest.raises(DegenerateSchwarzError, match="^w vanishes at the boundary argmax$"):
        sd.jack_probe(w, 0.5, 256)


def test_probe_monomials_exact():
    for n in (1, 2, 5):
        for r in (0.5, 0.9, 0.99):
            probe = sd.jack_probe(sd.schwarz_monomial(n), r)
            assert abs(probe.k_estimate - n) <= 1e-6
            assert abs(probe.ratio.imag) <= 1e-6


def test_probe_monomial_ratio_is_its_order():
    # Cauchy's formula leaves only rounding, of order eps / h, h = (1 - r)/10
    for n in range(1, 9):
        for r in (0.5, 0.9, 0.99, 0.999999):
            probe = sd.jack_probe(sd.schwarz_monomial(n), r)
            assert abs(probe.ratio - n) <= 1e-8, (n, r, probe.ratio)


def test_probe_blaschke_ratio_matches_the_analytic_one():
    rng = np.random.default_rng(0)
    for a in rng.uniform(-0.6, 0.6, (40, 2)) @ np.array([1.0, 1j]):
        for r in (0.5, 0.9, 0.99):
            probe = sd.jack_probe(sd.blaschke(a), r)
            z0 = r * cmath.exp(1j * probe.theta_star)
            want = 1.0 + z0 / (z0 - a) + a.conjugate() * z0 / (1.0 - a.conjugate() * z0)
            assert abs(probe.ratio - want) <= 1e-11, (a, r, probe.ratio, want)


def test_probe_blaschke():
    for r in (0.5, 0.9, 0.99):
        probe = sd.jack_probe(sd.blaschke(0.5), r)
        assert abs(probe.ratio.imag) <= 1e-3
        assert probe.k_estimate >= 1.0 - 1e-3


def test_probe_uses_argmax_not_argmin():
    # for w = z/(2-z) the ratio at theta = pi is 2/2.9 < 1; the probe must
    # sit at theta = 0 where the ratio is 2/1.1
    w = sd.induced(2, sd.halfplane(), -1.0)
    probe = sd.jack_probe(w, 0.9)
    assert circ_dist(probe.theta_star, 0.0) <= 1e-6
    assert abs(probe.k_estimate - 2.0 / 1.1) <= 1e-6
    assert probe.k_estimate >= 1.0
    # the value the probe would see at the antipode really is below 1
    z_pi = -0.9 + 0j
    bad_ratio = (2.0 / (2.0 - z_pi)).real
    assert bad_ratio < 1.0


def test_probe_induced_from_satisfied_runs():
    cases = [
        (1, sd.make_family(sd.FamilySpec("ex1_high", 2.5)), 2.5),
        (1, sd.make_family(sd.FamilySpec("ex1_low", 1.5)), 1.5),
        (2, sd.make_family(sd.FamilySpec("ex2_pos", 3.0)), 3.0),
        (2, sd.make_family(sd.FamilySpec("ex2_neg", -2.0)), -2.0),
    ]
    for theorem, fh, beta in cases:
        w = sd.induced(theorem, fh, beta)
        assert abs(complex(w(0j))) <= 1e-10
        for r in (0.5, 0.9, 0.99):
            probe = sd.jack_probe(w, r)
            assert abs(probe.ratio.imag) <= 1e-3, (theorem, beta, r)
            assert probe.k_estimate >= 1.0 - 1e-3, (theorem, beta, r)


def test_schwarz_bound():
    fns = [
        sd.schwarz_monomial(1),
        sd.schwarz_monomial(2),
        sd.schwarz_monomial(5),
        sd.blaschke(0.5),
        sd.blaschke(0.3 - 0.4j),
        sd.induced(1, sd.make_family(sd.FamilySpec("ex1_high", 2.5)), 2.5),
        sd.induced(2, sd.make_family(sd.FamilySpec("ex2_neg", -2.0)), -2.0),
    ]
    for w in fns:
        for r in (0.5, 0.9, 0.99):
            _, val = sd.boundary_argmax(w, r, 1024)
            assert val <= r + 1e-9, (w.label, r, val)


def test_rotation_equivariance():
    base = sd.blaschke(0.5)
    phase = cmath.exp(1j * math.pi / 3.0)
    rotated = lambda z: phase * base(z)  # noqa: E731
    for r in (0.5, 0.9):
        t0, v0 = sd.boundary_argmax(base, r, 1024)
        t1, v1 = sd.boundary_argmax(rotated, r, 1024)
        assert circ_dist(t0, t1) <= 1e-9
        assert abs(v0 - v1) <= 1e-9
        k0 = sd.jack_probe(base, r).k_estimate
        k1 = sd.jack_probe(rotated, r).k_estimate
        assert abs(k0 - k1) <= 1e-9


def test_w_vanishes_at_origin():
    fns = [
        sd.schwarz_monomial(2),
        sd.blaschke(0.25),
        sd.induced(1, sd.quadratic(), 2.0),
        sd.induced(2, sd.halfplane(), -1.0),
    ]
    for w in fns:
        assert abs(complex(w(0j))) <= 1e-10


def test_constructor_validation():
    with pytest.raises(ParameterDomainError):
        sd.schwarz_monomial(0)
    with pytest.raises(ParameterDomainError):
        sd.blaschke(1.0)
    with pytest.raises(ParameterDomainError):
        sd.induced(3, sd.quadratic(), 2.0)


def test_induced_checks_its_theorem_beta_interval():
    with pytest.raises(ParameterDomainError, match=r"^theorem 1 needs 1 < beta < 3 \(got 7\)$"):
        sd.induced(1, sd.koebe(), 7.0)
    with pytest.raises(ParameterDomainError, match=r"1 < beta <= 1e\+150 \(got 0.5\)$"):
        sd.induced(2, sd.halfplane(), 0.5)
    # a non-finite beta lies outside both intervals, and the theorem names its own
    with pytest.raises(ParameterDomainError, match=r"^theorem 1 needs 1 < beta < 3 \(got inf\)$"):
        sd.induced(1, sd.koebe(), float("inf"))


ORACLES_PATH = Path(__file__).resolve().parents[1] / "bench" / "oracles.py"


def test_probe_near_the_small_w_end_passes_the_benchmark_oracle(capsys):
    # a benchmark jack probe that a central difference of w' measured 1e-4 off
    beta, r = 2.999995197158482, 0.5492871672021317
    rc = cli.main(["jack", "--w", f"induced:t1:ex1_high:{beta!r}", f"--r={r!r}"])
    spec = importlib.util.spec_from_file_location("bench_oracles", ORACLES_PATH)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    params = dict(w="induced", theorem=1, family="ex1_high", beta=beta, r=r, n=1024)
    oracles.check_jack(params, rc, capsys.readouterr().out)


def _power_induced_k(mpmath, theorem, mu, beta, z0):
    """Re z0 w'(z0)/w(z0) to 40 digits, for the w a theorem induces from the
    power form f = (1 - (1-z)^mu)/mu."""
    with mpmath.workdps(40):
        b, m = mpmath.mpf(beta), mpmath.mpf(mu)

        def w(z):
            u = 1 - z
            q = m * z * u ** (m - 1) / (1 - u**m)
            return b * (q - 1) / (q - b) if theorem == 1 else b * (1 - q) / (1 - b * q)

        z = mpmath.mpc(z0)
        return float((z * mpmath.diff(w, z) / w(z)).real)


@pytest.mark.parametrize("theorem, family, beta, r", [
    (1, "ex1_high", 2.999995197158482, 0.5492871672021317),
    (1, "ex1_low", 1.0 + 1e-7, 0.9),
])
def test_probe_ratio_near_the_small_w_end_matches_mpmath(theorem, family, beta, r):
    # near the end where w -> 0 the central difference was off by up to 4e-2 here
    mpmath = pytest.importorskip("mpmath")
    fh = sd.make_family(sd.FamilySpec(family, beta))
    probe = sd.jack_probe(sd.induced(theorem, fh, beta), r)
    want = _power_induced_k(mpmath, theorem, fh.mu, beta, r * cmath.exp(1j * probe.theta_star))
    assert abs(probe.k_estimate - want) <= 1e-6, (probe.k_estimate, want)


def _ex1_high_induced():
    return sd.induced(1, sd.make_family(sd.FamilySpec("ex1_high", 2.5)), 2.5)


@pytest.mark.parametrize("make_a, make_b, equal", [
    (_ex1_high_induced, _ex1_high_induced, True),
    (lambda: sd.schwarz_monomial(2), lambda: sd.schwarz_monomial(2), True),
    (lambda: sd.blaschke(0.3 - 0.4j), lambda: sd.blaschke(complex(0.3, -0.4)), True),
    (lambda: sd.blaschke(0.12345678), lambda: sd.blaschke(0.12345679), False),
    (lambda: sd.blaschke(0.25), lambda: sd.blaschke(0.25j), False),
    (lambda: sd.schwarz_monomial(2), lambda: sd.schwarz_monomial(3), False),
    (lambda: sd.induced(2, sd.make_family(sd.FamilySpec("ex2_pos", 3.0)), 3.0),
     lambda: sd.induced(2, sd.make_family(sd.FamilySpec("ex2_pos", 3.0000001)), 3.0000001),
     False),
    # the label's limit: a series handle is named by its length alone
    (lambda: sd.induced(1, sd.series((0.1,)), 2.5),
     lambda: sd.induced(1, sd.series((0.2,)), 2.5), True),
], ids=["induced", "monomial", "blaschke", "blaschke-digits", "blaschke-real-imag",
        "monomial-order", "induced-beta", "series-limit"])
def test_schwarz_functions_are_equal_exactly_when_their_labels_are(make_a, make_b, equal):
    a, b = make_a(), make_b()
    assert a is not b
    assert (a.label == b.label) is equal
    assert (a == b) is equal
    if equal:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("label, w", [
    ("blaschke:0.12345678+0j", sd.blaschke(0.12345678)),
    ("blaschke:0.3-0.4j", sd.blaschke(0.3 - 0.4j)),
    ("blaschke:-0.25-0j", sd.blaschke(complex("-0.25-0j"))),
    ("blaschke:1e-05+0.1j", sd.blaschke(1e-05 + 0.1j)),
    ("blaschke:0.5+0j", sd.blaschke(0.5)),
])
def test_blaschke_labels_name_the_exact_zero(label, w):
    assert w.label == label


def test_a_patched_call_sees_the_evaluations_of_each_kind(monkeypatch):
    # the benchmark's tracer counts evaluations of w this way
    seen = []
    call = jack.SchwarzFunction.__call__

    def counting(self, z):
        seen.append(self.label)
        return call(self, z)

    monkeypatch.setattr(jack.SchwarzFunction, "__call__", counting)
    for w in (sd.schwarz_monomial(3), sd.blaschke(0.5),
              sd.induced(2, sd.make_family(sd.FamilySpec("ex2_pos", 3.0)), 3.0)):
        del seen[:]
        sd.jack_probe(w, 0.9, 256)
        # the coarse scan, the golden refinement and the two Cauchy evaluations
        assert len(seen) > 3 and set(seen) == {w.label}
