"""Every library refusal, pinned by exception type and exact message.

The family-spec table runs each spec through make_family and through both
closed forms; the guard table covers the off-disk, zero, critical-point and
Mobius-pole checks on scalar, 0-d and array input and in the grid scan of
one handle, where the message names the first offending entry in row-major
order; the parameter table covers sample counts, handle kinds and
parameters, an empty radius list, a non-parametric family's exponent, a
sweep's theorem and list lengths, a sweep's zero count whose arcs stay
unresolved or that reads negative, and a run's thread count.
"""

import math

import numpy as np
import pytest

import stardisk as sd
from stardisk import criteria
from stardisk.errors import (
    CriticalPointError,
    DiskDomainError,
    FunctionZeroError,
    ParameterDomainError,
    PoleError,
)

UNKNOWN = (
    "unknown family '{}'; expected one of ('ex1_high', 'ex1_low', 'ex2_pos', "
    "'ex2_neg', 'builtin_koebe', 'builtin_halfplane', 'builtin_quadratic', "
    "'builtin_monomial')"
)
PARAMETRIC_ONLY = "closed forms exist for the parametric families only (got '{}')"
NO_BETA = "builtin {} takes no beta"

# (family id, beta, make_family's message or None if it builds, the closed
# forms' message); every refusal is a ParameterDomainError
SPEC_REFUSALS = [
    ("no_such_family", None, UNKNOWN, UNKNOWN),
    ("no_such_family", 2.0, UNKNOWN, UNKNOWN),
    ("builtin", None, UNKNOWN, UNKNOWN),
    ("ex1_high:2", None, UNKNOWN, UNKNOWN),
    ("builtin_koebe:3", None, "unknown builtin '{}'", PARAMETRIC_ONLY),
    ("builtin_halfplane:1", None, "unknown builtin '{}'", PARAMETRIC_ONLY),
    ("builtin_monomial:x", None, "bad monomial order in '{}'", PARAMETRIC_ONLY),
    ("builtin_monomial:0", None, "monomial order must be in 1..64 (got 0)", PARAMETRIC_ONLY),
    ("builtin_monomial:65", None, "monomial order must be in 1..64 (got 65)", PARAMETRIC_ONLY),
    ("builtin_monomial:-1", None, "monomial order must be in 1..64 (got -1)", PARAMETRIC_ONLY),
] + [
    # an order is read only in the form str(int) gives back, so the label is the id
    (f"builtin_monomial:{order}", None, "bad monomial order in '{}'", PARAMETRIC_ONLY)
    for order in ("3_0", " +2", "+2", "02", "\u0663", "", "-0", "3 ")
] + [
    ("builtin_koebe", None, None, PARAMETRIC_ONLY),
    ("builtin_monomial", None, None, PARAMETRIC_ONLY),
    ("builtin_monomial:3", None, None, PARAMETRIC_ONLY),
    ("builtin_koebe", 2.0, NO_BETA, NO_BETA),
    ("builtin_quadratic", math.nan, NO_BETA, NO_BETA),
    ("builtin_koebe:3", 2.0, NO_BETA, NO_BETA),
    ("builtin_monomial:x", 1.0, NO_BETA, NO_BETA),
    ("builtin_monomial:3", 2.0, NO_BETA, NO_BETA),
    ("ex1_high", None, "family ex1_high needs beta in 2 <= beta < 3", None),
    ("ex1_low", None, "family ex1_low needs beta in 1 < beta <= 2", None),
    ("ex2_pos", None, "family ex2_pos needs beta in beta > 1", None),
    ("ex2_neg", None, "family ex2_neg needs beta in beta <= -1", None),
    ("ex1_high", 3.0, "family ex1_high needs 2 <= beta < 3 (got beta = 3)", None),
    ("ex1_high", 1.999, "family ex1_high needs 2 <= beta < 3 (got beta = 1.999)", None),
    ("ex1_low", 1.0, "family ex1_low needs 1 < beta <= 2 (got beta = 1)", None),
    ("ex1_low", 2.5, "family ex1_low needs 1 < beta <= 2 (got beta = 2.5)", None),
    ("ex2_pos", 1.0, "family ex2_pos needs beta > 1 (got beta = 1)", None),
    ("ex2_pos", -2.0, "family ex2_pos needs beta > 1 (got beta = -2)", None),
    ("ex2_neg", -0.5, "family ex2_neg needs beta <= -1 (got beta = -0.5)", None),
    ("ex2_neg", 2.0, "family ex2_neg needs beta <= -1 (got beta = 2)", None),
    ("ex2_pos", 1e300, "family ex2_pos needs beta > 1 with a finite exponent mu "
     "(got beta = 1e+300, mu = nan)", None),
    ("ex2_pos", 1e155, "family ex2_pos needs beta > 1 with a finite exponent mu "
     "(got beta = 1e+155, mu = nan)", None),
    ("ex2_neg", -1e300, "family ex2_neg needs beta <= -1 with a finite exponent mu "
     "(got beta = -1e+300, mu = nan)", None),
] + [
    (family, beta, f"family {family} needs {interval} (got beta = {beta:g})", None)
    for family, interval in (("ex1_high", "2 <= beta < 3"), ("ex1_low", "1 < beta <= 2"),
                             ("ex2_pos", "beta > 1"), ("ex2_neg", "beta <= -1"))
    for beta in (math.nan, math.inf, -math.inf)
]


def _spec_cases():
    for family, beta, made, closed in SPEC_REFUSALS:
        # a parametric refusal reads the same through every entry point
        closed = made if closed is None else closed
        for op, message in (("make_family", made), ("closed_form_q", closed),
                            ("closed_form_p", closed)):
            if message is not None:
                yield pytest.param(op, family, beta, message.format(family),
                                   id=f"{op}-{family}-{beta}")


@pytest.mark.parametrize("op, family, beta, message", list(_spec_cases()))
def test_family_spec_refusal(op, family, beta, message):
    spec = sd.FamilySpec(family, beta)
    args = (spec,) if op == "make_family" else (spec, 0.5)
    with pytest.raises(ParameterDomainError) as err:
        getattr(sd, op)(*args)
    assert str(err.value) == message


OFF_DISK = "|z| >= 1 at z = {}; handles live on the open disk"
ZERO = "f has a zero inside the disk at z = (0.2+0j); z f'/f is singular there and f cannot be starlike"
CRITICAL = "f has a critical point at z = (0.1+0j); 1 + z f''/f' is singular there"
# f = z - 5 z^2: f' vanishes at z = 0.1, f at z = 0.2
ZERO_AT_02 = sd.series((-5.0,))



def _one_handle_scan(fh, z):
    """The grid scan of one handle on the points z (theorem 1, beta = 2)."""
    return criteria._scan(1, [fh], [2.0], z, None)


GUARD_REFUSALS = [
    ("eval_jet", sd.koebe(), 1.5, DiskDomainError, OFF_DISK.format("(1.5+0j)")),
    ("eval_jet", sd.koebe(), -1.0, DiskDomainError, OFF_DISK.format("(-1+0j)")),
    ("eval_jet", sd.koebe(), 0.6 + 0.8j, DiskDomainError, OFF_DISK.format("(0.6+0.8j)")),
    ("eval_jet", sd.koebe(), np.asarray(1.2 + 0.1j), DiskDomainError,
     OFF_DISK.format("(1.2+0.1j)")),
    ("eval_jet", sd.koebe(), np.array([0.1, 1.0, 2.0]), DiskDomainError,
     OFF_DISK.format("(1+0j)")),
    ("eval_jet", sd.koebe(), np.array([[0.1, 0.2], [0.3j, -1.5], [2.0, 0.0]]),
     DiskDomainError, OFF_DISK.format("(-1.5+0j)")),
    ("eval_jet", sd.koebe(), np.array([0.1, np.nan]), DiskDomainError,
     "evaluation points must be finite"),
    ("eval_jet", sd.koebe(), complex("inf"), DiskDomainError,
     "evaluation points must be finite"),
    ("starlike_q", sd.koebe(), np.array([0.5, 1.0]), DiskDomainError,
     OFF_DISK.format("(1+0j)")),
    ("scan", sd.koebe(), np.array([0.5, 1.0]), DiskDomainError, OFF_DISK.format("(1+0j)")),
    ("starlike_q", ZERO_AT_02, 0.2, FunctionZeroError, ZERO),
    ("starlike_q", ZERO_AT_02, np.asarray(0.2), FunctionZeroError, ZERO),
    ("starlike_q", ZERO_AT_02, np.array([0.05, 0.2, 0.1]), FunctionZeroError, ZERO),
    ("starlike_q", ZERO_AT_02, np.array([[0.0, 0.3], [0.2, 0.1]]), FunctionZeroError, ZERO),
    ("convexity_p", ZERO_AT_02, 0.1, CriticalPointError, CRITICAL),
    ("convexity_p", ZERO_AT_02, np.array([0.05, 0.2, 0.1]), CriticalPointError, CRITICAL),
    ("convexity_p", ZERO_AT_02, np.array([[0.0, 0.3], [0.2, 0.1]]), CriticalPointError,
     CRITICAL),
    # a grid scan raises the guard of p first, wherever the zero of f lies
    ("scan", ZERO_AT_02, np.array([0.1]), CriticalPointError, CRITICAL),
    ("scan", ZERO_AT_02, np.array([0.2]), FunctionZeroError, ZERO),
    ("scan", ZERO_AT_02, np.array([0.05, 0.2, 0.3]), FunctionZeroError, ZERO),
    ("scan", ZERO_AT_02, np.array([0.05, 0.2, 0.1]), CriticalPointError, CRITICAL),
    ("scan", ZERO_AT_02, np.array([0.2, 0.3, 0.1]), CriticalPointError, CRITICAL),
    ("mobius_target", 0.5, 0.5, PoleError, "z = beta = 0.5 is the pole of the target map"),
    ("mobius_target", 0.0, 0.3, ParameterDomainError, "the target map needs beta != 0"),
    ("mobius_target", 2.5, np.array([0.1, 2.5]), PoleError,
     "z = beta = 2.5 is the pole of the target map"),
    ("mobius_invert_t1", 2.0, 2.0, PoleError, "q = beta = 2 is the pole of the inverse map"),
    ("mobius_invert_t1", 1.5, np.array([0.3, 1.5 + 1e-14]), PoleError,
     "q = beta = 1.5 is the pole of the inverse map"),
    ("mobius_invert_t1", np.array([[1.5], [2.5]]), np.array([2.5, 1.5]), PoleError,
     "q = beta = 1.5 is the pole of the inverse map"),
    ("mobius_invert_t1", np.float64(2.0), np.asarray(2.0), PoleError,
     "q = beta = 2 is the pole of the inverse map"),
    ("mobius_invert_t2", 2.0, 0.5, PoleError,
     "beta * q = 1 (beta = 2) is the pole of the inverse map"),
    ("mobius_invert_t2", np.array([3.0, 2.0, 4.0])[:, None],
     np.array([[0.1, 0.2], [0.3, 0.5], [0.25, 0.1]]), PoleError,
     "beta * q = 1 (beta = 2) is the pole of the inverse map"),
    ("mobius_invert_t2", np.array([2.0, 4.0]), np.array([0.3, 0.25]), PoleError,
     "beta * q = 1 (beta = 4) is the pole of the inverse map"),
    # f = z - 2 z^2: f' vanishes at z = 1/4, f at z = 1/2
    ("scan", sd.series((-2.0,)), np.array([0.1, 0.25, 0.5]), CriticalPointError,
     "f has a critical point at z = (0.25+0j); 1 + z f''/f' is singular there"),
    ("scan", sd.series((-2.0,)), np.array([0.1, 0.5]), FunctionZeroError,
     "f has a zero inside the disk at z = (0.5+0j); "
     "z f'/f is singular there and f cannot be starlike"),
]


def _short(arg):
    """A guard argument in a test id: a handle by its series coefficients or
    label, an array by its nested list, anything else by its repr."""
    if isinstance(arg, sd.FunctionHandle):
        return f"series{list(arg.coeffs)}" if arg.coeffs else arg.label
    if isinstance(arg, np.ndarray):
        return f"array({arg.tolist()})".replace(" ", "")
    return repr(arg)


# each id is built from the row's own content, so adding a row renames no other
@pytest.mark.parametrize("op, first, second, error, message", GUARD_REFUSALS,
                         ids=[f"{op}-{error.__name__}-{_short(first)}-{_short(second)}"
                              for op, first, second, error, _ in GUARD_REFUSALS])
def test_guard_refusal(op, first, second, error, message):
    call = _one_handle_scan if op == "scan" else getattr(sd, op)
    with pytest.raises(error) as err:
        call(first, second)
    assert type(err.value) is error
    assert str(err.value) == message


TINY_GRID = sd.SamplingGrid((0.5,), 16)

# (id, call, message): refusals of a call's own parameters, each a
# ParameterDomainError.  A sample count or an order must be an integer: a
# float, even an integral one, would sample a circle that does not close or
# build a function that is not analytic on the disk.
PARAMETER_REFUSALS = [
    ("grid-fractional-count", lambda: sd.SamplingGrid((0.5,), 8.5),
     "angular_count must be an integer (got 8.5)"),
    ("grid-float-count", lambda: sd.SamplingGrid((0.5,), 16.0),
     "angular_count must be an integer (got 16.0)"),
    ("proof-t1-fractional-samples", lambda: sd.proof_extremal_t1(2.5, 256.5),
     "theta_samples must be an integer (got 256.5)"),
    ("proof-t2-float-samples", lambda: sd.proof_extremal_t2(2.0, 256.0),
     "theta_samples must be an integer (got 256.0)"),
    ("argmax-fractional-samples",
     lambda: sd.boundary_argmax(sd.schwarz_monomial(2), 0.5, 256.5),
     "angular sample count must be an integer (got 256.5)"),
    ("schwarz-monomial-fractional-order", lambda: sd.schwarz_monomial(2.5),
     "monomial order must be an integer (got 2.5)"),
    ("monomial-fractional-order", lambda: sd.monomial(2.5),
     "monomial order must be an integer (got 2.5)"),
    # ... and at least the floor of its use
    ("grid-count-below-8", lambda: sd.SamplingGrid((0.5,), 7),
     "angular_count must be >= 8 (got 7)"),
    ("proof-t1-samples-below-256", lambda: sd.proof_extremal_t1(2.5, 255),
     "theta_samples must be >= 256 (got 255)"),
    ("proof-t2-samples-below-256", lambda: sd.proof_extremal_t2(3.0, 255),
     "theta_samples must be >= 256 (got 255)"),
    ("argmax-samples-below-256",
     lambda: sd.boundary_argmax(sd.schwarz_monomial(2), 0.5, 255),
     "angular sample count must be >= 256 (got 255)"),
    ("schwarz-monomial-order-0", lambda: sd.schwarz_monomial(0),
     "monomial order must be >= 1 (got 0)"),
    # NaN never reaches a report: a handle refuses non-finite parameters
    ("series-nan", lambda: sd.series([math.nan]),
     "series coefficients must be finite (got a_2 = (nan+0j))"),
    ("series-inf", lambda: sd.series([0.5, complex(0.0, math.inf)]),
     "series coefficients must be finite (got a_3 = infj)"),
    ("handle-unknown-kind", lambda: sd.FunctionHandle("bogus", "x"),
     "unknown handle kind 'bogus'"),
    ("power-zero-mu", lambda: sd.FunctionHandle("power", "x", mu=0.0),
     "power handles need mu != 0; use kind='log'"),
    ("grid-no-radius", lambda: sd.SamplingGrid(()), "at least one radius is required"),
    ("power-exponent-builtin", lambda: sd.power_exponent("builtin_koebe", 2.0),
     "'builtin_koebe' is not a parametric family id"),
    ("power-nan-mu", lambda: sd.FunctionHandle("power", "x", mu=math.nan),
     "handles need a finite mu (got nan)"),
    ("power-inf-mu", lambda: sd.FunctionHandle("power", "x", mu=-math.inf),
     "handles need a finite mu (got -inf)"),
    ("sweep-more-betas", lambda: sd.sweep([sd.koebe()], [2.0, 2.5], TINY_GRID, 1),
     "sweep needs one beta per handle (got 1 handles, 2 betas)"),
    ("sweep-more-handles", lambda: sd.sweep([sd.koebe()] * 2, [2.0], TINY_GRID, 1),
     "sweep needs one beta per handle (got 2 handles, 1 betas)"),
    ("sweep-theorem-3", lambda: sd.sweep([sd.koebe()], [2.0], TINY_GRID, 3),
     "theorem must be 1 or 2 (got 3)"),
    # a zero count whose phase still turns by more than pi/2 on an arc
    # 1/1024 of a step long: f' = (1 - z/1.00001)^2 has its double zero
    # 1e-5 past z = 0.999999, nearer than that arc's length
    ("sweep-unresolved-phase",
     lambda: sd.sweep([sd.series((-1 / 1.00001, 1 / (3 * 1.00001**2)))], [-2.0],
                      sd.SamplingGrid((0.999999,), 8), 2),
     "the phase of f' on |z| = 0.999999 turns by more than pi/2 between points "
     "1/1024 of a step apart at 8 angles; use more angles"),
    # a negative count is an aliased one: at 256 angles the two zeros of
    # f/z at |z| = 0.868 go uncounted (1024 angles count them), and q - beta,
    # which has poles there, is counted next and reads -1
    ("sweep-negative-count",
     lambda: sd.sweep([sd.FunctionHandle("power", "p", mu=-7.0)], [2.0],
                      sd.SamplingGrid((0.99,), 256), 1),
     "q - beta counts -1 zeros in |z| < 0.99 at 256 angles, but an analytic function "
     "has no negative count: a phase aliased between samples; use more angles"),
    # a worker count is an integer >= 1, checked before any work
    ("run-t1-fractional-threads", lambda: sd.run_t1(sd.koebe(), 2.0, TINY_GRID, 2.5),
     "threads must be an integer (got 2.5)"),
    ("run-t2-nan-threads", lambda: sd.run_t2(sd.koebe(), 2.0, TINY_GRID, math.nan),
     "threads must be an integer (got nan)"),
    ("run-t1-zero-threads", lambda: sd.run_t1(sd.koebe(), 2.0, TINY_GRID, 0),
     "threads must be >= 1 (got 0)"),
    ("run-t2-negative-threads", lambda: sd.run_t2(sd.koebe(), 2.0, TINY_GRID, -3),
     "threads must be >= 1 (got -3)"),
]


@pytest.mark.parametrize("call, message", [c[1:] for c in PARAMETER_REFUSALS],
                         ids=[c[0] for c in PARAMETER_REFUSALS])
def test_parameter_refusal(call, message):
    with pytest.raises(ParameterDomainError) as err:
        call()
    assert str(err.value) == message


def test_numpy_integer_counts_are_accepted():
    grid = sd.SamplingGrid((0.5,), np.int64(16))
    assert type(grid.angular_count) is int and grid == TINY_GRID
    assert sd.proof_extremal_t1(2.5, np.int32(256)) == sd.proof_extremal_t1(2.5, 256)
    assert sd.schwarz_monomial(np.int64(2)) == sd.schwarz_monomial(2)
    assert sd.monomial(np.int64(3)) == sd.monomial(3)


# each number :g rounds to 6 digits, which would name a value other than
# the one refused (0.9999999 as 1, inside k >= 1)
@pytest.mark.parametrize("call, error, message", [
    (lambda: sd.proof_boundary_value_t1(2.5, 0.0, 0.9999999), ParameterDomainError,
     "k must be >= 1 (got 0.9999999)"),
    (lambda: sd.t1_bound(3.0000000001), ParameterDomainError,
     "theorem 1 needs 1 < beta < 3 (got 3.0000000001)"),
    (lambda: sd.t2_bound(-0.9999999), ParameterDomainError,
     "theorem 2 needs -1e+150 <= beta <= -1 or 1 < beta <= 1e+150 (got -0.9999999)"),
    (lambda: sd.target_disk(0.99999999), ParameterDomainError,
     "the target disk needs 1 < beta < inf (got 0.99999999)"),
    (lambda: sd.make_family(sd.FamilySpec("ex1_low", 2.0000000000000004)),
     ParameterDomainError, "family ex1_low needs 1 < beta <= 2 (got beta = 2.0000000000000004)"),
    (lambda: sd.mobius_target(1.0000001, 1.0000001), PoleError,
     "z = beta = 1.0000001 is the pole of the target map"),
    (lambda: sd.mobius_invert_t1(1.0000001, 1.0000001), PoleError,
     "q = beta = 1.0000001 is the pole of the inverse map"),
    (lambda: sd.mobius_invert_t2(2.0000001, 1.0 / 2.0000001), PoleError,
     "beta * q = 1 (beta = 2.0000001) is the pole of the inverse map"),
    (lambda: sd.sweep([sd.halfplane()], [2.0000001], sd.SamplingGrid((0.9,), 64), 1),
     PoleError, "q - beta has 1 zero in |z| < 0.9 (beta = 2.0000001); "
     "the inverse map has a pole there"),
    (lambda: sd.blaschke(1.0000001), ParameterDomainError,
     "Blaschke zero needs |a| < 1 (got |a| = 1.0000001)"),
    (lambda: sd.boundary_argmax(sd.schwarz_monomial(2), 1.0000001), DiskDomainError,
     "probe radius must be in (0, 1) (got 1.0000001)"),
], ids=["k", "t1-beta", "t2-beta", "target-disk", "family", "target-pole", "t1-pole",
        "t2-pole", "scan-pole", "blaschke-zero", "probe-radius"])
def test_refusals_name_the_exact_number(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message
