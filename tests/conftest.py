import math

import numpy as np
import pytest

import stardisk as sd

TWO_PI = 2.0 * math.pi
# SMALL_Z < r, but |r e^{i theta}| rounds to SMALL_Z or below at some angles
ROUNDS_TO_SMALL_Z = float(np.nextafter(sd.analytic_core.SMALL_Z, 1.0))


def circ_dist(a: float, b: float) -> float:
    """Distance between two angles on the circle."""
    d = (a - b) % TWO_PI
    return min(d, TWO_PI - d)


def sample_points(count: int, rmax: float = 0.9, seed: int = 12345) -> np.ndarray:
    """Scattered complex points with |z| <= rmax (area-uniform, seeded)."""
    rng = np.random.default_rng(seed)
    r = rmax * np.sqrt(rng.uniform(0.0, 1.0, count))
    th = rng.uniform(0.0, TWO_PI, count)
    return r * np.exp(1j * th)


def handle_zoo():
    """One handle of every kind, all normalized class members."""
    return [
        sd.quadratic(),
        sd.koebe(),
        sd.halfplane(),
        sd.monomial(1),
        sd.monomial(5),
        sd.series((0.25, -0.125, 0.1j)),
        sd.make_family(sd.FamilySpec("ex1_high", 2.5)),
        sd.make_family(sd.FamilySpec("ex1_low", 1.5)),
        sd.make_family(sd.FamilySpec("ex2_pos", 3.0)),
        sd.make_family(sd.FamilySpec("ex2_pos", 1.0 + math.sqrt(2.0))),
        sd.make_family(sd.FamilySpec("ex2_neg", -2.0)),
    ]


@pytest.fixture
def grid():
    return sd.default_grid()


@pytest.fixture
def small_grid():
    return sd.SamplingGrid((0.3, 0.6, 0.9), 512)
