"""Command-line front end: verification runs, beta sweeps, boundary proof
scans, Jack probes, and SVG phase plots.

Exit codes: 0 all checks passed, 1 a check failed, 2 usage or domain error.
Reports serialize deterministically: fixed field order and shortest
round-trip float formatting, so identical flags give byte-identical output
(duration_ms stays 0.0 unless --timing is passed).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time
from pathlib import Path

from . import __version__
from .analytic_core import (
    DEFAULT_ANGULAR_COUNT,
    DEFAULT_RADII,
    FunctionHandle,
    SamplingGrid,
    starlike_q,
    target_disk,
)
from .criteria import (
    proof_extremal_t1,
    proof_extremal_t2,
    run_t1,
    run_t2,
    sweep as run_sweep,
    t1_bound,
    t2_bound,
)
from .errors import (
    CriticalPointError,
    DegenerateSchwarzError,
    DiskDomainError,
    FunctionZeroError,
    ParameterDomainError,
    PoleError,
)
from .families import (
    PARAMETRIC_FAMILIES,
    FamilySpec,
    make_family,
)
from . import jack as jack_mod
from .svgplot import DEFAULT_WINDOW, render_curves

CSV_HEADER = "beta,bound,extreme_re_p,margin,max_abs_w,order_estimate"

FAMILY_HELP = (
    "ex1_high (2<=beta<3), ex1_low (1<beta<=2), ex2_pos (beta>1), "
    "ex2_neg (beta<=-1), builtin_koebe, builtin_halfplane, "
    "builtin_quadratic, builtin_monomial:N"
)

# argparse reads "-1e6" after a space as an option, not as a number
NEGATIVE_HELP = "write a negative value in exponent notation with '=', e.g. {}=-1e6"


def _f(x) -> str:
    # shortest round-trip decimal form of a float
    return repr(float(x))


def _radii_arg(text: str):
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad radii list '{text}'") from None


def _threads_arg(text: str) -> int:
    try:
        threads = int(text)
    except ValueError:
        threads = 0
    if threads < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1 (got '{text}')")
    return threads


def _tol_arg(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not 0.0 <= tol < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number in [0, inf) (got '{text}')")
    return tol


def _window_arg(text: str):
    parts = text.split(":")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(f"window must be x0:x1:y0:y1, got '{text}'")
    try:
        return tuple(float(tok) for tok in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad window '{text}'") from None


def handle_from_name(name: str, beta: float | None) -> FunctionHandle:
    """Resolve a --family value (parametric id with beta, or builtin name)."""
    if name in PARAMETRIC_FAMILIES:
        return make_family(FamilySpec(name, beta))
    return make_family(FamilySpec(name))


def schwarz_from_spec(spec: str):
    """Parse --w values: monomial:N | blaschke:A | induced:tT:FAMILY:BETA."""
    parts = spec.split(":")
    kind = parts[0]
    try:
        if kind == "monomial" and len(parts) == 2:
            return jack_mod.monomial(int(parts[1]))
        if kind == "blaschke" and len(parts) == 2:
            return jack_mod.blaschke(complex(parts[1]))
        if kind == "induced" and len(parts) >= 4 and parts[1] in ("t1", "t2"):
            theorem = int(parts[1][1])
            family = ":".join(parts[2:-1])
            beta = float(parts[-1])
            handle = handle_from_name(family, beta if family in PARAMETRIC_FAMILIES else None)
            return jack_mod.induced(theorem, handle, beta)
    except ParameterDomainError:
        raise
    except (ValueError, TypeError):
        pass
    raise ParameterDomainError(
        f"cannot parse Schwarz function '{spec}'; expected monomial:N, "
        "blaschke:A, or induced:tT:FAMILY:BETA"
    )


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    path = Path(out)
    parent = str(path.parent) or "."
    fd, tmp = tempfile.mkstemp(dir=parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fp:
            fp.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _hypothesis_json(hyp):
    return {
        "bound": float(hyp.bound),
        "per_radius": [
            {
                "r": row.r,
                "extreme": row.extreme,
                "witness_re": row.witness.real,
                "witness_im": row.witness.imag,
            }
            for row in hyp.per_radius
        ],
        "satisfied": hyp.satisfied,
        "margin_at_rmax": float(hyp.margin_at_rmax),
    }


def _conclusion_json(con, theorem: int):
    per = []
    for row in con.per_radius:
        entry = {
            "r": row.r,
            "max_abs_w": row.max_abs_w,
            "schwarz_ratio": row.schwarz_ratio,
        }
        if theorem == 1:
            entry["disk_slack"] = row.disk_slack
        entry["min_re_q"] = row.min_re_q
        per.append(entry)
    return {
        "per_radius": per,
        "order_estimate": float(con.order_estimate),
        "w_origin_abs": abs(con.w_origin),
    }


def _conclusion_ok(con, theorem: int, schwarz_tol: float) -> bool:
    ok = abs(con.w_origin) <= 1e-10
    for row in con.per_radius:
        ok = ok and row.max_abs_w < 1.0
        ok = ok and row.schwarz_ratio <= 1.0 + schwarz_tol
        if theorem == 1:
            ok = ok and row.disk_slack > 0.0
    return ok


def cmd_verify(args) -> int:
    handle = handle_from_name(args.family, args.beta)
    grid = SamplingGrid(args.radii, args.angles)
    start = time.perf_counter()
    runner = run_t1 if args.theorem == 1 else run_t2
    hyp, con = runner(handle, args.beta, grid, threads=args.threads)
    elapsed_ms = 1000.0 * (time.perf_counter() - start)
    passed = hyp.satisfied and _conclusion_ok(con, args.theorem, args.schwarz_tol)
    envelope = {
        "version": __version__,
        # threads is an execution knob that must not influence the report,
        # so it is deliberately absent from the echo
        "config": {
            "command": "verify",
            "theorem": args.theorem,
            "family": args.family,
            "beta": args.beta,
            "radii": list(grid.radii),
            "angles": grid.angular_count,
            "schwarz_tol": args.schwarz_tol,
        },
        "hypothesis": _hypothesis_json(hyp),
        "conclusion": _conclusion_json(con, args.theorem),
        "pass": passed,
        "duration_ms": elapsed_ms if args.timing else 0.0,
    }
    # allow_nan=False: a NaN or inf raises here instead of writing invalid JSON
    _emit(json.dumps(envelope, indent=2, allow_nan=False) + "\n", args.out)
    verdict = "pass" if passed else "FAIL"
    print(
        f"verify theorem {args.theorem} {handle.label}: {verdict} "
        f"(hypothesis {'holds' if hyp.satisfied else 'violated'}, "
        f"margin_at_rmax={hyp.margin_at_rmax:.6g})",
        file=sys.stderr,
    )
    return 0 if passed else 1


def cmd_sweep(args) -> int:
    if args.steps < 1:
        raise ParameterDomainError(f"--steps must be >= 1 (got {args.steps})")
    for flag, value in (("--beta-min", args.beta_min), ("--beta-max", args.beta_max)):
        if not math.isfinite(value):
            raise ParameterDomainError(f"{flag} must be finite (got {value:g})")
    if args.steps == 1:
        betas = [args.beta_min]
    else:
        step = (args.beta_max - args.beta_min) / (args.steps - 1)
        betas = [args.beta_min + i * step for i in range(args.steps)]
    grid = SamplingGrid(args.radii, args.angles)
    # Validate the whole range first (the families here, the bounds in
    # run_sweep) so a straddling range fails before any output is produced.
    handles = [handle_from_name(args.family, b) for b in betas]
    lines = [CSV_HEADER]
    for b, (hyp, con) in zip(betas, run_sweep(handles, betas, grid, args.theorem)):
        last = con.per_radius[-1]
        lines.append(
            ",".join(
                (
                    _f(b),
                    _f(hyp.bound),
                    _f(hyp.per_radius[-1].extreme),
                    _f(hyp.margin_at_rmax),
                    _f(last.max_abs_w),
                    _f(con.order_estimate),
                )
            )
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_proof_scan(args) -> int:
    if args.theorem == 1:
        scan = proof_extremal_t1(args.beta, args.theta_steps)
        bound = t1_bound(args.beta)
    else:
        scan = proof_extremal_t2(args.beta, args.theta_steps)
        bound = t2_bound(args.beta)
    diff = abs(scan.extremal_value - bound)
    lines = [
        f"theorem {args.theorem} beta {_f(args.beta)} theta_steps {args.theta_steps}",
        f"extremal_value {_f(scan.extremal_value)}",
        f"theta_star {_f(scan.theta_star)}",
        f"bound {_f(bound)}",
        f"abs_difference {_f(diff)}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if diff <= args.tol else 1


def cmd_jack(args) -> int:
    w = schwarz_from_spec(args.w)
    probe = jack_mod.jack_probe(w, args.r, args.n)
    ok = (
        abs(probe.ratio.imag) <= args.imag_tol
        and probe.k_estimate >= 1.0 - args.k_tol
    )
    lines = [
        f"w {w.label} r {_f(args.r)} n {args.n}",
        f"theta_star {_f(probe.theta_star)}",
        f"max_abs_w {_f(abs(probe.w_at_max))}",
        f"ratio_re {_f(probe.ratio.real)}",
        f"ratio_im {_f(probe.ratio.imag)}",
        f"k_estimate {_f(probe.k_estimate)}",
        f"pass {str(ok).lower()}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 1


def cmd_plot(args) -> int:
    handle = handle_from_name(args.family, args.beta)
    grid = SamplingGrid(args.radii, args.angles)
    curves = [(f"r={r:g}", starlike_q(handle, grid.circle(r))) for r in grid.radii]
    title = f"zf'/f image of {handle.label}, theorem {args.theorem}, beta={args.beta:g}"
    if args.theorem == 1:
        disk = target_disk(args.beta)
        svg = render_curves(
            title, curves, circle=(disk.center, disk.radius), window=args.window
        )
    else:
        t2_bound(args.beta)  # beta domain check
        svg = render_curves(
            title, curves, vline=(args.beta + 1.0) / (2.0 * args.beta), window=args.window
        )
    _emit(svg, args.out)
    return 0


def _add_grid_args(sp) -> None:
    sp.add_argument(
        "--radii",
        type=_radii_arg,
        default=DEFAULT_RADII,
        help="comma-separated radii in (0,1), strictly increasing (default 0.5,0.9,0.99)",
    )
    sp.add_argument(
        "--angles",
        type=int,
        default=DEFAULT_ANGULAR_COUNT,
        help=f"angular samples per circle, >= 8 (default {DEFAULT_ANGULAR_COUNT})",
    )
    sp.add_argument(
        "--threads",
        type=_threads_arg,
        default=1,
        help="worker threads, >= 1, splitting the radii of verify; sweep and plot "
        "accept the flag and ignore it; reports do not depend on the count",
    )


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="stardisk",
        description=(
            "Numerical verification of starlikeness/convexity sufficient "
            "conditions on the unit disk. Exit codes: 0 pass, 1 check failed, "
            "2 usage/domain error."
        ),
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    verify = sub.add_parser(
        "verify", help="check a theorem's hypothesis and conclusion for one function"
    )
    verify.add_argument("--theorem", type=int, choices=(1, 2), required=True)
    verify.add_argument("--family", required=True, help=FAMILY_HELP)
    verify.add_argument("--beta", type=float, required=True,
                        help=NEGATIVE_HELP.format("--beta"))
    _add_grid_args(verify)
    verify.add_argument(
        "--schwarz-tol",
        type=_tol_arg,
        default=1e-6,
        help="tolerance on max|w|/r <= 1 (default 1e-6)",
    )
    verify.add_argument(
        "--timing",
        action="store_true",
        help="record measured duration_ms (breaks byte-determinism of the report)",
    )
    verify.add_argument("--out", default=None, help="report path (default stdout)")
    verify.set_defaults(func=cmd_verify)

    sweep = sub.add_parser("sweep", help="tabulate bounds and margins over a beta range")
    sweep.add_argument("--theorem", type=int, choices=(1, 2), required=True)
    sweep.add_argument("--family", required=True, help=FAMILY_HELP)
    sweep.add_argument("--beta-min", type=float, required=True,
                       help=NEGATIVE_HELP.format("--beta-min"))
    sweep.add_argument("--beta-max", type=float, required=True,
                       help=NEGATIVE_HELP.format("--beta-max"))
    sweep.add_argument("--steps", type=int, required=True)
    _add_grid_args(sweep)
    sweep.add_argument("--out", default=None, help="CSV path (default stdout)")
    sweep.set_defaults(func=cmd_sweep)

    scan = sub.add_parser(
        "proof-scan", help="re-derive a theorem's sharp constant by boundary scan"
    )
    scan.add_argument("--theorem", type=int, choices=(1, 2), required=True)
    scan.add_argument("--beta", type=float, required=True,
                      help=NEGATIVE_HELP.format("--beta"))
    scan.add_argument("--theta-steps", type=int, default=4096, help=">= 256")
    scan.add_argument("--tol", type=_tol_arg, default=1e-9)
    scan.add_argument("--out", default=None)
    scan.set_defaults(func=cmd_proof_scan)

    jackp = sub.add_parser("jack", help="probe the boundary-maximum ratio z w'/w")
    jackp.add_argument(
        "--w",
        required=True,
        help="monomial:N | blaschke:A | induced:tT:FAMILY:BETA",
    )
    jackp.add_argument("--r", type=float, required=True, help="circle radius in (0,1)")
    jackp.add_argument("--n", type=int, default=1024, help="angular samples, >= 256")
    jackp.add_argument("--imag-tol", type=_tol_arg, default=1e-3)
    jackp.add_argument("--k-tol", type=_tol_arg, default=1e-3)
    jackp.add_argument("--out", default=None)
    jackp.set_defaults(func=cmd_jack)

    plot = sub.add_parser("plot", help="SVG of the zf'/f image curves and target region")
    plot.add_argument("--theorem", type=int, choices=(1, 2), required=True)
    plot.add_argument("--family", required=True, help=FAMILY_HELP)
    plot.add_argument("--beta", type=float, required=True,
                      help=NEGATIVE_HELP.format("--beta"))
    _add_grid_args(plot)
    plot.add_argument(
        "--window",
        type=_window_arg,
        default=DEFAULT_WINDOW,
        help="plot window x0:x1:y0:y1; use --window=-0.5:2.5:-1.5:1.5 "
        "when the first bound is negative",
    )
    plot.add_argument("--out", required=True, help="SVG path")
    plot.set_defaults(func=cmd_plot)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParameterDomainError, DiskDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FunctionZeroError, CriticalPointError, PoleError, DegenerateSchwarzError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
