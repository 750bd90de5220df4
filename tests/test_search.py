import math

import numpy as np
import pytest

from stardisk.search import golden_max, golden_min, refine_extremum

TWO_PI = 2.0 * math.pi


def _angles(n):
    return TWO_PI * np.arange(n) / n


def _coarse(th, vals):
    """A refinement that finds nothing better than the bracket's midpoint."""
    def refine(a, b):
        i = int(round(0.5 * (a + b) / (th[1] - th[0]))) % len(th)
        return th[i], vals[i]
    return refine


def test_ties_resolve_to_the_smallest_angle():
    th = _angles(256)
    vals = np.zeros(256)
    vals[[40, 9, 200]] = 3.0
    vals[120] = 3.0 * (1.0 + 1e-13)  # above the others, but within the noise
    brackets = []

    def refine(a, b):
        brackets.append((a, b))
        return _coarse(th, vals)(a, b)

    assert refine_extremum(th, vals, refine, 1) == (float(th[9]), 3.0)
    delta = TWO_PI / 256
    assert brackets == [(th[9] - delta, th[9] + delta)]
    # constant samples: the first angle, 0
    flat = np.full(256, 0.25)
    assert refine_extremum(th, flat, _coarse(th, flat), -1) == (0.0, 0.25)


def test_refinement_within_the_noise_keeps_the_coarse_sample():
    th = _angles(256)
    vals = np.cos(th - 1.0)
    i = int(np.argmax(vals))
    noise = 1e-12 * max(1.0, float(vals[i]))
    for gain, moved in ((0.5 * noise, False), (4.0 * noise, True)):
        x = th[i] + 0.3 * (th[1] - th[0])
        got = refine_extremum(th, vals, lambda a, b: (x, vals[i] + gain), 1)
        assert got == ((float(x), float(vals[i] + gain)) if moved
                       else (float(th[i]), float(vals[i])))
    # the same for a minimum, whose refinement must come out lower
    got = refine_extremum(th, -vals, lambda a, b: (x, -vals[i] - 0.5 * noise), -1)
    assert got == (float(th[i]), float(-vals[i]))


def test_refined_angle_is_reduced_mod_two_pi():
    th = _angles(256)
    vals = np.cos(th)  # maximum at theta = 0, refined to just below it
    x, v = refine_extremum(th, vals, lambda a, b: (-1e-3, 2.0), 1)
    assert x == (-1e-3) % TWO_PI and v == 2.0


def test_golden_refinement_finds_the_continuous_extreme():
    th = _angles(256)
    peak = 1.0 + 0.4 * (th[1] - th[0])  # between two samples
    fun = lambda t: float(np.cos(t - peak))  # noqa: E731
    x, v = refine_extremum(th, np.cos(th - peak),
                           lambda a, b: golden_max(fun, a, b), 1)
    assert abs(x - peak) <= 1e-6 and abs(v - 1.0) <= 1e-15


def test_minimum_is_the_negated_maximum_of_the_negated_samples():
    # sense = -1 on vals is bit-for-bit sense = 1 on -vals, value negated:
    # float negation is exact.  Rounded samples give many exact ties.
    rng = np.random.default_rng(20261018)
    for case in range(300):
        n = int(rng.integers(256, 1024))
        th = _angles(n)
        vals = rng.normal(size=n) * 10.0 ** rng.integers(-14, 14)
        if case % 3 == 0:
            vals = np.round(vals, int(rng.integers(0, 3)))
        shift = float(rng.normal()) * 10.0 ** float(rng.integers(-14, 1))
        offset = float(rng.uniform(-1.0, 1.0))

        def refine_min(a, b):
            x = a + (b - a) * 0.5 * (1.0 + offset)
            return x, float(vals.min()) - shift

        def refine_max(a, b):
            x, v = refine_min(a, b)
            return x, -v

        x_min, v_min = refine_extremum(th, vals, refine_min, -1)
        x_max, v_max = refine_extremum(th, -vals, refine_max, 1)
        assert x_min == x_max and v_min == -v_max


def test_golden_min_and_golden_max_mirror_each_other():
    fun = lambda t: (t - 0.3) ** 2  # noqa: E731
    x_min, v_min = golden_min(fun, 0.0, 1.0)
    x_max, v_max = golden_max(lambda t: -fun(t), 0.0, 1.0)
    assert (x_min, v_min) == (x_max, -v_max)
    assert abs(x_min - 0.3) <= 1e-6


def test_golden_min_needs_a_bracket_of_positive_length():
    with pytest.raises(ValueError) as err:
        golden_min(math.cos, 1.0, 1.0)
    assert str(err.value) == "golden_min needs b > a"
