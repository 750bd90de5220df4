"""The array-wide polyline formatter of svgplot against a per-vertex reference."""

import math
import re

import numpy as np
import pytest

from stardisk.errors import ParameterDomainError
from stardisk.svgplot import DEFAULT_WINDOW, SIZE, render_curves

WINDOWS = [DEFAULT_WINDOW, (0.0, 1.0, -0.5, 0.5), (-1e3, 2e3, 1e-3, 2e-3)]
# one pixel per unit: the x pixel of a point is its real part, bit for bit
IDENTITY = (0.0, float(SIZE), 0.0, float(SIZE))


def reference_points(pts, window):
    """The points attribute written one vertex at a time, closed on the first."""
    x0, x1, y0, y1 = (float(v) for v in window)
    sx, sy = SIZE / (x1 - x0), SIZE / (y1 - y0)
    closed = [complex(p) for p in pts] + [complex(pts[0])]
    return " ".join(
        f"{(p.real - x0) * sx:.3f},{SIZE - (p.imag - y0) * sy:.3f}" for p in closed
    )


def polyline_points(svg):
    return re.findall(r'<polyline [^>]* points="([^"]*)"/>', svg)


def seeded_curves(seed, n=5000):
    rng = np.random.default_rng(seed)

    def signed_magnitudes():
        return rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-6.0, 6.0, n)

    return [signed_magnitudes() + 1j * signed_magnitudes() for _ in range(3)]


@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("seed", range(4))
def test_seeded_points_match_reference(seed, window):
    curves = seeded_curves(seed)
    svg = render_curves("t", [(f"c{i}", pts) for i, pts in enumerate(curves)],
                        window=window)
    got = polyline_points(svg)
    assert got == [reference_points(pts, window) for pts in curves]


def test_signed_zeros_and_non_finite_values_match_reference():
    window = (0.0, 1.0, -0.5, 0.5)
    pts = np.array([
        complex(-0.0, 0.0),      # x pixel -0.0
        complex(-1e-7, 0.0),     # x pixel rounds to -0.000
        complex(0.5, 0.5000001),  # y pixel rounds to -0.000
        complex(1e6, -1e-6),
    ])
    got = polyline_points(render_curves("t", [("c", pts)], window=window))
    assert got == [reference_points(pts, window)]
    assert got[0].split()[:3] == ["-0.000,400.000", "-0.000,400.000", "400.000,-0.000"]
    for bad in (complex(np.nan, 0.25), complex(0.25, np.nan),
                complex(np.inf, -np.inf), complex(-np.inf, np.inf)):
        with pytest.raises(ParameterDomainError, match="every pixel coordinate must be finite"):
            render_curves("t", [("c", np.append(pts, bad))], window=window)


def test_any_finite_coordinates_match_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # the kernel's range, where it formats a whole curve, and every finite
    # double, which sends most curves to the %-format
    coords = st.one_of(st.floats(-2.0**52, 2.0**52, exclude_min=True, exclude_max=True),
                       st.floats(allow_nan=False, allow_infinity=False))

    @hypothesis.settings(derandomize=True, deadline=None, database=None, max_examples=500)
    @hypothesis.given(st.lists(st.builds(complex, coords, coords), min_size=1, max_size=40))
    def check(pts):
        got = polyline_points(render_curves("t", [("c", pts)], window=IDENTITY))
        assert got == [reference_points(pts, IDENTITY)]

    check()


@pytest.mark.parametrize("x, text", [
    # exact ties of 1000 x round half to even, as '%.3f' does
    (0.0625, "0.062"), (0.1875, "0.188"), (1.0625, "1.062"), (-1.0625, "-1.062"),
    (2.0**40 + 0.0625, "1099511627776.062"), (np.nextafter(1.0625, 2.0), "1.063"),
    (np.nextafter(0.1875, 0.0), "0.187"),
    (0.0005, "0.001"), (2.0**-11, "0.000"), (-0.0004, "-0.000"), (-0.0, "-0.000"),
    (5e-324, "0.000"), (-5e-324, "-0.000"), (999.9994999, "999.999"), (999.9995, "1000.000"),
    (2.0**52 - 0.5, "4503599627370495.500"),
    # from 2**52 on, the curve is %-formatted
    (2.0**52, "4503599627370496.000"), (-1e300, "-" + "%.3f" % 1e300),
])
def test_fixed_coordinates(x, text):
    pts = [complex(x, float(SIZE))]
    got = polyline_points(render_curves("t", [("c", pts)], window=IDENTITY))
    assert got == [f"{text},0.000 {text},0.000"] == [reference_points(pts, IDENTITY)]


def test_curve_shapes_and_single_point():
    # 2-D input is flattened, and a one-point curve closes on itself
    grid = np.arange(12.0).reshape(3, 4) * (0.1 + 0.05j)
    got = polyline_points(render_curves("t", [("g", grid), ("p", [0.5 + 0.5j])]))
    assert got == [reference_points(grid.ravel(), DEFAULT_WINDOW),
                   reference_points([0.5 + 0.5j], DEFAULT_WINDOW)]


def test_overflowing_window_raises_instead_of_writing_inf():
    for window in ((0.0, 1e-320, 0.0, 1.0), (0.0, 1.0, 0.0, 1e-320)):
        with pytest.raises(ParameterDomainError, match="finite pixel scales"):
            render_curves("t", [("c", [0.5 + 0.25j])], window=window)
    narrow = (0.0, 1e-10, 0.0, 1.0)  # 8e12 pixels per unit
    good = [("c", [1e-11 + 0.25j])]
    got = polyline_points(render_curves("t", good, window=narrow))
    assert got == ["80.000,600.000 80.000,600.000"]
    for bad in (
        dict(curves=[("c", [1e300 + 0j])]),
        dict(curves=good, circle=(0.5, 1e300)),
        dict(curves=good, vline=1e300),
    ):
        with pytest.raises(ParameterDomainError, match="every pixel coordinate must be finite"):
            render_curves("t", window=narrow, **bad)


def test_a_curve_past_2_52_pixels_is_percent_formatted():
    # at 8e12 pixels per unit, x = 1e3 is 8e15 pixels, past the exact range
    # of the array kernel: the first curve is %-formatted, the second not
    narrow = (0.0, 1e-10, 0.0, 1.0)
    far = [("far", [1e-11 + 0.25j, 1e3 + 0.5j]), ("near", [1e-11 + 0.75j])]
    got = polyline_points(render_curves("t", far, window=narrow))
    assert got == [reference_points(pts, narrow) for _, pts in far]
    assert got[0].split()[1] == "8000000000000000.000,400.000"


@pytest.mark.parametrize("window", [
    (1.0, 0.0, 0.0, 1.0), (0.0, 1.0, 0.5, 0.5), (0.0, math.nan, 0.0, 1.0),
    (-math.inf, 1.0, 0.0, 1.0), (0.0, math.inf, 0.0, 1.0),
], ids=["x0>x1", "y0=y1", "nan", "-inf", "inf"])
def test_empty_or_non_finite_window_raises(window):
    with pytest.raises(ParameterDomainError,
                       match="four finite numbers with x0 < x1 and y0 < y1"):
        render_curves("t", [("c", [0.5 + 0.25j])], window=window)
