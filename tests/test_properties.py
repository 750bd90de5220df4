"""Property tests: the sweep equals the per-beta runs, on any thread count,
on its largest circle; the Mobius maps of both theorems invert the target
map; z f'/f and 1 + z f''/f' of a function with real coefficients are
conjugate symmetric; a run over theta in [0, pi] gives the full
circle's reductions; and the sweep's zero counts equal the roots inside
its largest circle."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

import stardisk as sd  # noqa: E402
from stardisk.errors import CriticalPointError, FunctionZeroError, PoleError  # noqa: E402
from zero_count_oracle import (  # noqa: E402
    closest_root,
    expected,
    series_from_critical_points,
    swept,
)

GUARD_ERRORS = (CriticalPointError, FunctionZeroError, PoleError)

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
    except GUARD_ERRORS as exc:
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
    # the sweep scans the largest circle alone
    outer = sd.SamplingGrid(grid.radii[-1:], grid.angular_count)
    assert got == _outcome(
        lambda: [run(h, b, outer, threads) for h, b in zip(handles, betas)])


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


def _mirrored_circle(grid, r):
    """The grid's angles 0..n//2 on |z| = r, followed by the exact conjugates
    of the rest of their mirror pairs: a full circle of n points made of
    exact mirror pairs, unlike grid.circle, whose e^{i theta} and
    e^{-i theta} differ in the last bits."""
    n = grid.angular_count
    half = grid.circle(r)[:n // 2 + 1]
    return np.concatenate([half, np.conj(half[1:(n + 1) // 2])[::-1]])


def _full_circle_rows(fh, beta, grid, theorem):
    """Per circle: the extreme of Re p, max|w|, min Re q and, for theorem 1,
    max|q - c|, from convexity_p and starlike_q on the mirrored full circle,
    each paired with the largest magnitude it was reduced from; the guards
    run in the order of a run."""
    invert = sd.mobius_invert_t1 if theorem == 1 else sd.mobius_invert_t2
    rows = []
    for r in grid.radii:
        z = _mirrored_circle(grid, r)
        p = sd.convexity_p(fh, z)
        q = sd.starlike_q(fh, z)
        w = np.abs(invert(beta, q))
        extreme = p.real.max() if theorem == 1 else p.real.min()
        row = [(extreme, np.abs(p).max()), (w.max(), w.max()), (q.real.min(), np.abs(q).max())]
        if theorem == 1:
            c = beta / (beta + 1.0)
            dist = np.abs(q - c).max()
            row.append((dist, dist))
        rows.append(row)
    invert(beta, 1.0 + 0j)  # w(0): the pole of beta -> 1
    return rows


T1_BETAS = st.floats(1.0, 3.0, exclude_min=True, exclude_max=True)
T2_BETAS = st.one_of(st.floats(-50.0, -1.0), st.floats(1.0, 50.0, exclude_min=True))


@PROPERTY
@given(fh=real_handles(), grid=grids, theorem=st.sampled_from([1, 2]), data=st.data())
def test_half_circle_runs_give_the_full_circle_reductions(fh, grid, theorem, data):
    beta = data.draw(T1_BETAS if theorem == 1 else T2_BETAS)
    run = sd.run_t1 if theorem == 1 else sd.run_t2
    try:
        hyp, con = run(fh, beta, grid)
    except GUARD_ERRORS as exc:
        with pytest.raises(type(exc)):
            _full_circle_rows(fh, beta, grid, theorem)
        return
    for h, c, want in zip(hyp.per_radius, con.per_radius,
                          _full_circle_rows(fh, beta, grid, theorem)):
        got = [h.extreme, c.max_abs_w, c.min_re_q]
        if theorem == 1:
            got.append(beta / (beta + 1.0) - c.disk_slack)
        for value, (reference, scale) in zip(got, want):
            assert abs(value - reference) <= 4.0 * np.spacing(scale), (value, reference)


@st.composite
def critical_factors(draw):
    """1-3 factors of f' for series_from_critical_points, each a real root,
    a conjugate pair (both keep the coefficients real) or one complex root
    rho = m e^{i phi} (a complex coefficient: the full circle is scanned)."""
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        m, phi = draw(st.floats(0.1, 3.0)), draw(st.floats(0.0, 2.0 * math.pi))
        kind = draw(st.sampled_from(("real", "pair", "complex")))
        if kind == "real":
            factors.append([1.0, -math.copysign(1.0, math.cos(phi)) / m])
        elif kind == "pair":
            factors.append([1.0, -2.0 * math.cos(phi) / m, 1.0 / m**2])
        else:
            factors.append([1.0, -complex(math.cos(phi), -math.sin(phi)) / m])
    return factors


@PROPERTY
@given(factors=critical_factors(), theorem=st.sampled_from([1, 2]), data=st.data(),
       r=st.floats(0.3, 0.99), angles=st.integers(128, 1024))
def test_sweep_zero_counts_equal_the_roots_inside(factors, theorem, data, r, angles):
    beta = data.draw(T1_BETAS if theorem == 1 else T2_BETAS)
    fh = series_from_critical_points(factors)
    # a root this far from the circle turns the phase of its polynomial by
    # under 3 pi / 2 on any arc of 2 pi / 128, so no step aliases
    assume(closest_root(fh, beta, theorem, r) > 0.05)
    grid = sd.SamplingGrid((0.5 * r, r), angles)
    assert swept(fh, beta, theorem, grid) == expected(fh, beta, theorem, r)
