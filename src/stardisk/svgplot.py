"""Self-contained SVG rendering of image curves in the complex plane.

Output bytes are a pure function of the arguments: fixed 800x800 viewBox,
inline styles, no external resources, coordinates formatted to a fixed
number of decimals.

A polyline is rendered array-wide: the pixel coordinates of the whole
closed curve come from one numpy pass of the ``_Frame`` arithmetic, and
its ``points`` attribute from ``_points``, an integer array kernel that
rounds every coordinate as CPython's correctly rounded ``"%.3f"`` does.
The bytes equal those of formatting each vertex with ``_fmt``, including
``-0.000``.  The kernel is exact for pixel coordinates below 2**52 in
magnitude; a curve with a larger one, which only a very narrow window
gives, is written with one ``%``-format instead.
No nan or inf is ever written: a window that is empty or not finite, one
whose pixel scale is not finite, or a pixel coordinate that is not, raises
``ParameterDomainError``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterDomainError

SIZE = 800
DEFAULT_WINDOW = (-0.5, 2.5, -1.5, 1.5)
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _points(xy) -> str:
    """The points attribute of a polyline through the flat pixel coordinates
    xy = x0, y0, x1, y1, ...: the bytes of ``"%.3f,%.3f"`` per vertex, space
    separated, from integer array arithmetic.

    |x| = M 2**-s with M = m 2**53 < 2**53 from np.frexp and s = 53 - e, so
    1000 |x| is 1000 M / 2**s, rounded half to even, as CPython's correctly
    rounded ``%.3f`` does (``'%.3f' % 1.0625`` is ``1.062``).  This is exact
    for |x| < 2**52, where 1000 M < 2**63 and s >= 1; a curve with a larger
    coordinate, which only a very narrow window gives, is %-formatted.  The
    sign comes from np.signbit, so -0.0 and -0.0004 give ``-0.000``.
    """
    mag = np.abs(xy)
    if not (mag < 2.0**52).all():
        return " ".join(["%.3f,%.3f"] * (xy.size // 2)) % tuple(xy.tolist())
    m, e = np.frexp(mag)
    shift = (53 - e).astype(np.uint64)
    big = (m * 2.0**53).astype(np.uint64) * 1000
    # below 2**-11, 1000 |x| < 1/2 rounds to 0; this keeps every shift < 64
    big[shift > 63] = 0
    np.minimum(shift, 63, out=shift)
    # adding half - 1, plus 1 when the quotient is odd, rounds half to even;
    # the sum stays below 1000 * 2**53 + 2**62 < 2**64
    half = np.uint64(1) << (shift - 1)
    n = (big + (half - 1) + ((big >> shift) & 1)) >> shift
    # a row per number: sign, integer digits, ".", three decimals and a
    # separator, with zero bytes, dropped at the end, where a number has no
    # sign or fewer integer digits than the longest
    digits = max(len(str(int(n.max(initial=0)))), 4)
    out = np.zeros((xy.size, digits + 3), np.uint8)
    out[:, 0] = np.signbit(xy) * ord("-")
    out[:, digits - 2] = ord(".")
    for k in range(digits):
        # the digit of 10**k in n, left of the "." from k = 3 on, and blank
        # from k = 4 on where n < 10**k
        rest = n // 10
        digit = n - 10 * rest + ord("0")
        if k > 3:
            digit *= n > 0
        out[:, digits + 1 - k - (k > 2)] = digit
        n = rest
    out[0::2, -1] = ord(",")
    out[1::2, -1] = ord(" ")
    out[-1:, -1] = 0
    return out.tobytes().translate(None, b"\0").decode("ascii")


class _Frame:
    def __init__(self, window):
        self.x0, self.x1, self.y0, self.y1 = x0, x1, y0, y1 = tuple(map(float, window))
        if not (all(map(math.isfinite, (x0, x1, y0, y1))) and x0 < x1 and y0 < y1):
            raise ParameterDomainError(
                "window needs four finite numbers with x0 < x1 and y0 < y1 "
                f"(got '{x0!r}:{x1!r}:{y0!r}:{y1!r}')"
            )
        self.sx = SIZE / (self.x1 - self.x0)
        self.sy = SIZE / (self.y1 - self.y0)
        if not (math.isfinite(self.sx) and math.isfinite(self.sy)):
            raise ParameterDomainError(
                f"window needs finite pixel scales {SIZE}/(x1-x0) and {SIZE}/(y1-y0), "
                f"got {self.sx!r} and {self.sy!r}"
            )

    def px(self, x: float) -> float:
        return (x - self.x0) * self.sx

    def py(self, y: float) -> float:
        return SIZE - (y - self.y0) * self.sy


def render_curves(title, curves, circle=None, vline=None, window=DEFAULT_WINDOW) -> str:
    """Build the SVG document.

    curves: sequence of (label, points) with points an array of complex
    values; each curve is drawn as a closed polyline.  circle: optional
    (center, radius) of a target disk boundary.  vline: optional real part
    of a vertical boundary line.  Raises ParameterDomainError rather than
    write a pixel coordinate that is nan or inf; with a large pixel scale,
    finite points overflow too.
    """
    fr = _Frame(window)

    def checked(coords):
        if not np.isfinite(coords).all():
            raise ParameterDomainError(
                "every pixel coordinate must be finite, but the window "
                f"{fr.x0!r}:{fr.x1!r}:{fr.y0!r}:{fr.y1!r} maps a point of the plot "
                "to nan or inf"
            )
        return coords

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {SIZE} {SIZE}" '
        f'width="{SIZE}" height="{SIZE}">',
        f'<rect x="0" y="0" width="{SIZE}" height="{SIZE}" fill="#ffffff"/>',
    ]
    if fr.x0 < 0.0 < fr.x1:
        x = _fmt(fr.px(0.0))
        parts.append(
            f'<line x1="{x}" y1="0" x2="{x}" y2="{SIZE}" stroke="#cccccc" stroke-width="1"/>'
        )
    if fr.y0 < 0.0 < fr.y1:
        y = _fmt(fr.py(0.0))
        parts.append(
            f'<line x1="0" y1="{y}" x2="{SIZE}" y2="{y}" stroke="#cccccc" stroke-width="1"/>'
        )
    if circle is not None:
        center, radius = circle
        center = complex(center)
        cx, cy, rx, ry = checked(np.array([
            fr.px(center.real), fr.py(center.imag), radius * fr.sx, radius * fr.sy
        ])).tolist()
        parts.append(
            f'<ellipse cx="{_fmt(cx)}" cy="{_fmt(cy)}" rx="{_fmt(rx)}" ry="{_fmt(ry)}" '
            'fill="none" stroke="#333333" stroke-width="1.5" stroke-dasharray="6,4"/>'
        )
    if vline is not None:
        x = _fmt(checked(fr.px(float(vline))))
        parts.append(
            f'<line x1="{x}" y1="0" x2="{x}" y2="{SIZE}" '
            'stroke="#333333" stroke-width="1.5" stroke-dasharray="6,4"/>'
        )
    for idx, (label, pts) in enumerate(curves):
        pts = np.asarray(pts, dtype=complex).ravel()
        closed = np.concatenate([pts, pts[:1]])
        xy = np.empty(2 * closed.size)
        # overflow and nan are rejected by checked() below
        with np.errstate(over="ignore", invalid="ignore"):
            xy[0::2] = fr.px(closed.real)
            xy[1::2] = fr.py(closed.imag)
        coords = _points(checked(xy))
        color = PALETTE[idx % len(PALETTE)]
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{coords}"/>'
        )
    parts.append(
        f'<text x="{SIZE // 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16" fill="#000000">{title}</text>'
    )
    for idx, (label, _) in enumerate(curves):
        color = PALETTE[idx % len(PALETTE)]
        y = 48 + 20 * idx
        parts.append(
            f'<rect x="16" y="{y - 10}" width="12" height="12" fill="{color}"/>'
        )
        parts.append(
            f'<text x="34" y="{y}" font-family="sans-serif" font-size="13" '
            f'fill="#000000">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
