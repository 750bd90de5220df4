"""Output oracles of the stardisk benchmark.

Each check recomputes what a command should have reported without the
main evaluation path: Re p and z f'/f come from the families' direct closed
forms (``closed_form_p`` / ``closed_form_q``) on the identical grid, the
theorem bounds, the boundary-value formulas, the Mobius inversions and the
Blaschke derivative are written out here from the paper's formulas, and
never taken from ``criteria`` or ``analytic_core``.

A check raises ``Mismatch`` naming the first disagreement, and otherwise
returns the relative deviations of the reported Re p extremes from the
closed-form extremes (empty for commands that report none).
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET

import numpy as np

from stardisk.families import FamilySpec, closed_form_p, closed_form_q

# Reported values against closed forms evaluated in the same precision:
# both sides round differently, so agreement is asked to 1e-9 relative
# (scale at least 1), far above double rounding and far below any margin
# a verdict depends on.
RTOL = 1e-9
# The CLI's own acceptance tolerances, at their defaults.
PROOF_TOL = 1e-9
SCHWARZ_TOL = 1e-6
JACK_K_TOL = 1e-3
JACK_IMAG_TOL = 1e-3
# The probe's central-difference ratio against an exact one: k = N for z^N
# (Jack's lemma), the analytic z w'/w for a Blaschke product.
EXACT_RATIO_TOL = 1e-6
# ... and against a central difference of the closed-form w with a 10x
# larger step: both carry O(h^2) truncation error.
DIFF_RATIO_TOL = 1e-4
# Chunk of grid points per closed-form evaluation, so that the oracle's own
# arrays stay far below the program's and do not set peak_rss_mb.
CHUNK = 1 << 14
SVG = "{http://www.w3.org/2000/svg}"
PLOT_SIZE, PLOT_WINDOW = 800.0, (-0.5, 2.5, -1.5, 1.5)


class Mismatch(Exception):
    """A command's exit code or output disagrees with an oracle."""


def _close(got, want, rtol=RTOL) -> bool:
    return abs(got - want) <= rtol * max(1.0, abs(want))


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def _same(name, got, want, rtol=RTOL) -> None:
    _expect(_close(got, want, rtol), f"{name}: reported {got!r}, oracle {want!r}")


def t1_bound(beta: float) -> float:
    """Theorem-1 bound on Re p: (beta+1)/(2(beta-1)) on [2, 3),
    (5 beta - 1)/(2(beta+1)) on (1, 2]."""
    if beta >= 2.0:
        return (beta + 1.0) / (2.0 * (beta - 1.0))
    return (5.0 * beta - 1.0) / (2.0 * (beta + 1.0))


def t2_bound(beta: float) -> float:
    """Theorem-2 bound on Re p: -(beta+1)/(2 beta (beta-1)) for beta <= -1,
    (3 beta + 1)/(2 beta (beta+1)) for beta > 1."""
    if beta <= -1.0:
        return -(beta + 1.0) / (2.0 * beta * (beta - 1.0))
    return (3.0 * beta + 1.0) / (2.0 * beta * (beta + 1.0))


def bound(theorem: int, beta: float) -> float:
    return t1_bound(beta) if theorem == 1 else t2_bound(beta)


def boundary_value(theorem: int, beta: float, theta: float, k: float = 1.0) -> float:
    """Re p at the boundary point where |w| = 1, w = e^{i theta}."""
    den = 1.0 + beta * beta - 2.0 * beta * math.cos(theta)
    if theorem == 1:
        return (1.0 + beta) / 2.0 + (beta * beta - 1.0) * (1.0 - beta + k) / (2.0 * den)
    return 0.5 + 0.5 / beta - k * (beta * beta - 1.0) / (2.0 * den)


def schwarz_w(theorem: int, beta: float, q):
    """The Schwarz candidate the theorem induces from q = z f'/f:
    q = beta(1-w)/(beta-w) (theorem 1), 1/q = beta(1-w)/(beta-w) (theorem 2)."""
    if theorem == 1:
        return beta * (q - 1.0) / (q - beta)
    return beta * (1.0 - q) / (1.0 - beta * q)


def _circle(r: float, n: int):
    """The grid circle r e^{2 pi i j / n}, j = 0..n-1, in chunks, computed
    with the same expression as the program's sampling grid."""
    for start in range(0, n, CHUNK):
        j = np.arange(start, min(n, start + CHUNK))
        yield r * np.exp(1j * (2.0 * np.pi * j / n))


def circle_stats(spec: FamilySpec, theorem: int, beta: float, r: float, n: int) -> dict:
    """Closed-form extremes on one grid circle: sup (theorem 1) or inf
    (theorem 2) of Re p, max |w|, min Re q and max |q - c|, c = beta/(beta+1)."""
    sign = 1.0 if theorem == 1 else -1.0
    ext, max_w, min_re_q, max_dev = -math.inf, 0.0, math.inf, 0.0
    c = beta / (beta + 1.0)
    for z in _circle(r, n):
        ext = max(ext, float((sign * closed_form_p(spec, z).real).max()))
        q = closed_form_q(spec, z)
        max_w = max(max_w, float(np.abs(schwarz_w(theorem, beta, q)).max()))
        min_re_q = min(min_re_q, float(q.real.min()))
        max_dev = max(max_dev, float(np.abs(q - c).max()))
    return dict(extreme=sign * ext, max_abs_w=max_w, min_re_q=min_re_q,
                disk_slack=c - max_dev)


def _rel(got: float, want: float) -> float:
    return abs(got - want) / abs(want) if want else abs(got - want)


def check_verify(p: dict, rc: int, out: str) -> list:
    report = json.loads(out)
    theorem, beta, spec = p["theorem"], p["beta"], FamilySpec(p["family"], p["beta"])
    cfg = report["config"]
    _expect(
        (cfg["theorem"], cfg["family"], cfg["beta"], tuple(cfg["radii"]), cfg["angles"])
        == (theorem, p["family"], beta, p["radii"], p["angles"]),
        f"config echo {cfg} differs from the command",
    )
    hyp, con = report["hypothesis"], report["conclusion"]
    b = bound(theorem, beta)
    _same("bound", hyp["bound"], b)
    _expect(len(hyp["per_radius"]) == len(p["radii"]) == len(con["per_radius"]),
            "one row per radius")
    rel, satisfied, con_ok = [], True, True
    for r, hrow, crow in zip(p["radii"], hyp["per_radius"], con["per_radius"]):
        want = circle_stats(spec, theorem, beta, r, p["angles"])
        _expect(hrow["r"] == r == crow["r"], f"row radius {hrow['r']} != {r}")
        _same(f"extreme at r={r}", hrow["extreme"], want["extreme"])
        rel.append(_rel(hrow["extreme"], want["extreme"]))
        witness = complex(hrow["witness_re"], hrow["witness_im"])
        _expect(abs(abs(witness) - r) <= 1e-12, f"witness {witness} is off the circle {r}")
        _same(f"Re p at witness r={r}", float(closed_form_p(spec, witness).real),
              want["extreme"])
        _same(f"max_abs_w at r={r}", crow["max_abs_w"], want["max_abs_w"])
        _same(f"schwarz_ratio at r={r}", crow["schwarz_ratio"], want["max_abs_w"] / r)
        _same(f"min_re_q at r={r}", crow["min_re_q"], want["min_re_q"])
        if theorem == 1:
            _same(f"disk_slack at r={r}", crow["disk_slack"], want["disk_slack"])
            con_ok = con_ok and want["disk_slack"] > 0.0
        else:
            _expect("disk_slack" not in crow, "theorem 2 rows carry no disk_slack")
        satisfied = satisfied and (want["extreme"] < b if theorem == 1 else want["extreme"] > b)
        con_ok = con_ok and want["max_abs_w"] < 1.0
        con_ok = con_ok and want["max_abs_w"] / r <= 1.0 + SCHWARZ_TOL
    last = hyp["per_radius"][-1]["extreme"]
    margin = b - last if theorem == 1 else last - b
    _same("margin_at_rmax", hyp["margin_at_rmax"], margin)
    _expect(hyp["satisfied"] is satisfied, f"satisfied {hyp['satisfied']}, oracle {satisfied}")
    _same("order_estimate", con["order_estimate"], con["per_radius"][-1]["min_re_q"], 0.0)
    # q(0) = 1 exactly, so w(0) = 0
    _expect(con["w_origin_abs"] <= 1e-12, f"w_origin_abs {con['w_origin_abs']}")
    passed = satisfied and con_ok
    _expect(report["pass"] is passed, f"pass {report['pass']}, oracle {passed}")
    _expect(rc == (0 if passed else 1), f"exit code {rc}, oracle {0 if passed else 1}")
    return rel


def check_sweep(p: dict, rc: int, out: str) -> list:
    _expect(rc == 0, f"exit code {rc}")
    lines = out.splitlines()
    _expect(lines[0] == "beta,bound,extreme_re_p,margin,max_abs_w,order_estimate",
            f"header {lines[0]!r}")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    steps, theorem, rmax = p["steps"], p["theorem"], p["radii"][-1]
    _expect(len(rows) == steps, f"{len(rows)} rows for {steps} steps")
    rel = []
    for i, (beta, b, ext, margin, max_w, order) in enumerate(rows):
        want_beta = p["beta_min"] + (p["beta_max"] - p["beta_min"]) * i / (steps - 1)
        _same(f"beta of row {i}", beta, want_beta, 1e-12)
        # the oracle is evaluated at the reported beta, exactly
        want = circle_stats(FamilySpec(p["family"], beta), theorem, beta, rmax, p["angles"])
        _same(f"bound at beta={beta}", b, bound(theorem, beta))
        _same(f"extreme_re_p at beta={beta}", ext, want["extreme"])
        rel.append(_rel(ext, want["extreme"]))
        want_margin = b - ext if theorem == 1 else ext - b
        _same(f"margin at beta={beta}", margin, want_margin)
        _same(f"max_abs_w at beta={beta}", max_w, want["max_abs_w"])
        _same(f"order_estimate at beta={beta}", order, want["min_re_q"])
    return rel


def _fields(out: str) -> dict:
    return dict(line.split(" ", 1) for line in out.splitlines())


def check_proof_scan(p: dict, rc: int, out: str) -> list:
    f = _fields(out)
    theorem, beta = p["theorem"], p["beta"]
    b = bound(theorem, beta)
    _expect(rc == 0, f"exit code {rc} (abs_difference {f.get('abs_difference')})")
    _same("bound", float(f["bound"]), b, 1e-12)
    value = float(f["extremal_value"])
    _expect(abs(value - b) <= PROOF_TOL, f"extremal_value {value!r} vs bound {b!r}")
    _expect(float(f["abs_difference"]) <= PROOF_TOL, f"abs_difference {f['abs_difference']}")
    theta = float(f["theta_star"])
    _expect(0.0 <= theta < 2.0 * math.pi, f"theta_star {theta} outside [0, 2 pi)")
    _same("boundary value at theta_star", value, boundary_value(theorem, beta, theta), 1e-12)
    return []


def _blaschke(a: complex, z):
    return z * (z - a) / (1.0 - a.conjugate() * z)


def _induced(p: dict):
    spec = FamilySpec(p["family"], p["beta"])
    return lambda z: schwarz_w(p["theorem"], p["beta"], closed_form_q(spec, z))


def check_jack(p: dict, rc: int, out: str) -> list:
    f = _fields(out)
    _expect(rc == 0 and f["pass"] == "true", f"exit code {rc}, pass {f['pass']}")
    r, kind = p["r"], p["w"]
    theta, max_w = float(f["theta_star"]), float(f["max_abs_w"])
    ratio = complex(float(f["ratio_re"]), float(f["ratio_im"]))
    _expect(float(f["k_estimate"]) == ratio.real, "k_estimate is Re ratio")
    _expect(abs(ratio.imag) <= JACK_IMAG_TOL and ratio.real >= 1.0 - JACK_K_TOL,
            f"Jack ratio {ratio} is not real >= 1")
    z0 = r * complex(math.cos(theta), math.sin(theta))
    if kind == "monomial":
        n = p["order"]
        _same("max_abs_w", max_w, r**n, 1e-12)
        _expect(abs(ratio.real - n) <= EXACT_RATIO_TOL, f"k_estimate {ratio.real!r} != {n}")
        return []
    w = (lambda z: _blaschke(p["a"], z)) if kind == "blaschke" else _induced(p)
    _same("|w| at theta_star", max_w, abs(complex(w(z0))))
    coarse = float(np.abs(w(np.concatenate(list(_circle(r, p["n"]))))).max())
    _expect(max_w >= coarse * (1.0 - RTOL), f"max_abs_w {max_w!r} below grid max {coarse!r}")
    if kind == "blaschke":
        a = p["a"]
        want = 1.0 + z0 / (z0 - a) + a.conjugate() * z0 / (1.0 - a.conjugate() * z0)
        _expect(abs(ratio - want) <= EXACT_RATIO_TOL, f"ratio {ratio} vs analytic {want}")
    else:
        h = 1e-5 * (1.0 - r)
        want = z0 * (w(z0 + h) - w(z0 - h)) / (2.0 * h) / w(z0)
        _expect(abs(ratio - want) <= DIFF_RATIO_TOL, f"ratio {ratio} vs difference {want}")
    return []


def check_plot(p: dict, rc: int, out: str) -> list:
    _expect(rc == 0, f"exit code {rc}")
    with open(p["out"], encoding="utf-8") as fp:
        root = ET.fromstring(fp.read())
    lines = root.findall(f"{SVG}polyline")
    _expect(len(lines) == len(p["radii"]), f"{len(lines)} polylines")
    x0, x1, y0, y1 = PLOT_WINDOW
    sx, sy = PLOT_SIZE / (x1 - x0), PLOT_SIZE / (y1 - y0)
    spec, beta = FamilySpec(p["family"], p["beta"]), p["beta"]
    for r, line in zip(p["radii"], lines):
        pts = line.get("points").split()
        _expect(len(pts) == p["angles"] + 1, f"{len(pts)} points at r={r}")
        _expect(pts[0] == pts[-1], f"polyline at r={r} is not closed")
        q = complex(closed_form_q(spec, complex(r)))
        px, py = (float(v) for v in pts[0].split(","))
        _expect(abs(px - (q.real - x0) * sx) <= 1e-3
                and abs(py - (PLOT_SIZE - (q.imag - y0) * sy)) <= 1e-3,
                f"first point {pts[0]} at r={r} is not q(r) = {q}")
    if p["theorem"] == 1:
        c = beta / (beta + 1.0)
        disks = [e for e in root.findall(f"{SVG}ellipse")
                 if abs(float(e.get("rx")) - c * sx) <= 1e-3
                 and abs(float(e.get("cx")) - (c - x0) * sx) <= 1e-3]
        _expect(len(disks) == 1, f"no target disk of radius {c}")
    else:
        x = ((beta + 1.0) / (2.0 * beta) - x0) * sx
        edges = [e for e in root.findall(f"{SVG}line")
                 if e.get("stroke-dasharray") and abs(float(e.get("x1")) - x) <= 1e-3]
        _expect(len(edges) == 1, f"no half-plane edge at Re = {(beta + 1) / (2 * beta)}")
    return []


CHECKS = {
    "verify": check_verify,
    "sweep": check_sweep,
    "proof-scan": check_proof_scan,
    "jack": check_jack,
    "plot": check_plot,
}


def check(cmd, rc: int, out: str) -> list:
    """Check one command's exit code and output; see the module docstring."""
    return CHECKS[cmd.kind](cmd.params, rc, out)
