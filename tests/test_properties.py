"""Property tests: the sweep equals its per-beta runs on any thread count,
the Mobius maps of both theorems invert the target map, and z f'/f and
1 + z f''/f' of a function with real coefficients are conjugate symmetric."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import stardisk as sd  # noqa: E402
from stardisk.errors import CriticalPointError, FunctionZeroError, PoleError  # noqa: E402

# derandomized: a run draws the same examples every time
PROPERTY = settings(derandomize=True, deadline=None, database=None)

LOG_POINT = 1.0 + math.sqrt(2.0)  # ex2_pos has mu = 0 there, the log kind
ADMITS_LOG_POINT = ("ex1_high", "ex2_pos")

# theorem and admissible betas of each parametric family
FAMILIES = {
    "ex1_high": (1, st.floats(2.0, 3.0, exclude_max=True)),
    "ex1_low": (1, st.floats(1.0, 2.0, exclude_min=True)),
    "ex2_pos": (2, st.floats(1.0, 50.0, exclude_min=True)),
    "ex2_neg": (2, st.floats(-50.0, -1.0)),
}


def _outcome(call):
    try:
        return call()
    except (CriticalPointError, FunctionZeroError, PoleError) as exc:
        return type(exc), str(exc)


def admissible_betas(family):
    betas = FAMILIES[family][1]
    return st.one_of(betas, st.just(LOG_POINT)) if family in ADMITS_LOG_POINT else betas


@st.composite
def beta_lists(draw, family):
    """1-40 admissible betas, drawn from a pool of at most 8 so that they
    repeat, 1 + sqrt 2 among them where it is admissible."""
    pool = draw(st.lists(admissible_betas(family), min_size=1, max_size=8))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))


grids = st.builds(
    sd.SamplingGrid,
    st.lists(st.floats(1e-9, 0.999), min_size=1, max_size=4, unique=True).map(
        lambda radii: tuple(sorted(radii))),
    st.integers(8, 2048),
)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(PROPERTY, max_examples=20)
@given(data=st.data(), grid=grids, threads=st.integers(1, 3))
def test_sweep_equals_the_per_beta_runs_whatever_the_blocks(family, data, grid, threads):
    theorem, _ = FAMILIES[family]
    run = sd.run_t1 if theorem == 1 else sd.run_t2
    betas = data.draw(beta_lists(family))
    handles = [sd.make_family(sd.FamilySpec(family, b)) for b in betas]
    got = _outcome(lambda: sd.sweep(handles, betas, grid, theorem))
    assert got == _outcome(
        lambda: [run(h, b, grid, threads) for h, b in zip(handles, betas)])


@PROPERTY
@given(
    beta=st.one_of(st.floats(-10.0, -1.0), st.floats(1.1, 10.0)),
    r=st.floats(0.0, 0.95),
    theta=st.floats(0.0, 2.0 * math.pi),
)
def test_mobius_inverses_undo_the_target_map(beta, r, theta):
    w = r * complex(math.cos(theta), math.sin(theta))
    q = sd.mobius_target(beta, w)
    assert abs(sd.mobius_invert_t1(beta, q) - w) <= 1e-14
    assert abs(sd.mobius_invert_t2(beta, 1.0 / q) - w) <= 1e-14


@st.composite
def real_handles(draw):
    """A handle of a parametric family at an admissible beta, or a builtin."""
    name = draw(st.sampled_from(sorted(FAMILIES) + list(sd.BUILTIN_FAMILIES)))
    if name in FAMILIES:
        return sd.make_family(sd.FamilySpec(name, draw(admissible_betas(name))))
    if name == "builtin_monomial":
        name += f":{draw(st.integers(1, 9))}"
    return sd.make_family(sd.FamilySpec(name))


@PROPERTY
@given(
    fh=real_handles(),
    r=st.lists(st.floats(0.0, 0.99), min_size=1, max_size=16),
    theta=st.floats(0.0, math.pi),
)
def test_functionals_are_conjugate_symmetric(fh, r, theta):
    z = np.array(r) * np.exp(1j * theta * np.arange(1, len(r) + 1))
    for functional in (sd.starlike_q, sd.convexity_p):
        a, b = functional(fh, z), functional(fh, np.conj(z))
        assert (np.abs(b - np.conj(a)) <= 4.0 * np.spacing(np.abs(a))).all()
