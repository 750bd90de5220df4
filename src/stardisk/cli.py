"""Command-line front end: verification runs, beta sweeps, boundary proof
scans, Jack probes, and SVG phase plots.

Exit codes: 0 all checks passed, 1 a check failed, 2 usage or domain error.
The parser checks only that a value parses; the library function that
takes it refuses a value outside its range, and the type of the error it
raises picks the exit code: 2 for a domain error, 1 for a failed check.
Reports serialize deterministically: fixed field order and shortest
round-trip float formatting, so identical flags give byte-identical output
(duration_ms stays 0.0 unless --timing is passed).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import stat
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .analytic_core import (
    DEFAULT_ANGULAR_COUNT,
    DEFAULT_RADII,
    FunctionHandle,
    SamplingGrid,
    _beta_text,
    _integer,
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
from .errors import ParameterDomainError, StardiskError
from .families import _PARAMETRIC, BUILTIN_FAMILIES, FamilySpec, _canonical_int, make_family
from . import jack as jack_mod
from .svgplot import DEFAULT_WINDOW, render_curves

CSV_HEADER = "beta,bound,extreme_re_p,margin,max_abs_w,order_estimate"

FAMILY_HELP = ", ".join(
    [f"{name} ({row[1]})" for name, row in _PARAMETRIC.items()]
    + [name + ":N" if name == "builtin_monomial" else name for name in BUILTIN_FAMILIES])

# argparse reads "-1e6" after a space as an option, not as a number
NEGATIVE_HELP = "write a negative value in exponent notation with '=', e.g. {}=-1e6"

# The verdicts' fixed allowances for rounding: the paper's inequalities
# have no slack, so no flag widens them.
_SCHWARZ_TOL = 1e-6  # verify: max|w|/r <= 1 + _SCHWARZ_TOL
_PROOF_TOL = 1e-9  # proof-scan: |extremal_value - bound| <= _PROOF_TOL
_JACK_TOL = 1e-3  # jack: |Im ratio| <= _JACK_TOL and k >= 1 - _JACK_TOL


def _f(x) -> str:
    # shortest round-trip decimal form of a float
    return repr(float(x))


def _radii_arg(text: str):
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad radii list '{text}'") from None


def _window_arg(text: str):
    # four floats; svgplot checks that they make a window
    try:
        x0, x1, y0, y1 = map(float, text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"window must be x0:x1:y0:y1, got '{text}'") from None
    return x0, x1, y0, y1


def handle_from_name(name: str, beta: float | None) -> FunctionHandle:
    """Resolve a --family value (parametric id with beta, or builtin name)."""
    return make_family(FamilySpec(name, beta if name in _PARAMETRIC else None))


def schwarz_from_spec(spec: str):
    """Parse --w values: monomial:N | blaschke:A | induced:tT:FAMILY:BETA."""
    parts = spec.split(":")
    kind = parts[0]
    try:
        if kind == "monomial" and len(parts) == 2:
            return jack_mod.monomial(_canonical_int(parts[1]))
        if kind == "blaschke" and len(parts) == 2:
            return jack_mod.blaschke(complex(parts[1]))
        if kind == "induced" and len(parts) >= 4 and parts[1] in ("t1", "t2"):
            theorem = int(parts[1][1])
            family = ":".join(parts[2:-1])
            beta = float(parts[-1])
            return jack_mod.induced(theorem, handle_from_name(family, beta), beta)
    except ParameterDomainError:
        raise
    except (ValueError, TypeError):
        pass
    raise ParameterDomainError(
        f"cannot parse Schwarz function '{spec}'; expected monomial:N, "
        "blaschke:A, or induced:tT:FAMILY:BETA"
    )


def _emit(text: str, out: str | None) -> None:
    """Write text to stdout, or to the path out; a path that cannot be
    written (a directory, a missing parent) raises ParameterDomainError
    naming it, and leaves no temporary file behind."""
    if out is None:
        sys.stdout.write(text)
        return
    try:
        _write(text, Path(out))
    except OSError as exc:
        raise ParameterDomainError(f"cannot write {out}: {exc.strerror or exc}") from None


def _write(text: str, path: Path) -> None:
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        path.write_text(text)  # a FIFO or a device: write through it, never rename over it
        return
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    # "x" never opens a file it did not create; the kernel applies the umask,
    # so a new report gets the mode open(path, "w") would give it
    fp = open(tmp, "x")
    try:
        with fp:
            if mode is not None:  # a replaced report keeps its mode
                os.fchmod(fp.fileno(), stat.S_IMODE(mode))
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


def _conclusion_json(con):
    per = []
    for row in con.per_radius:
        entry = {
            "r": row.r,
            "max_abs_w": row.max_abs_w,
            "schwarz_ratio": row.schwarz_ratio,
        }
        if row.disk_slack is not None:
            entry["disk_slack"] = row.disk_slack
        entry["min_re_q"] = row.min_re_q
        per.append(entry)
    return {
        "per_radius": per,
        "order_estimate": float(con.order_estimate),
        "w_origin_abs": abs(con.w_origin),
    }


def _conclusion_ok(con) -> bool:
    ok = con.w_origin == 0
    for row in con.per_radius:
        ok = ok and row.max_abs_w < 1.0
        ok = ok and row.schwarz_ratio <= 1.0 + _SCHWARZ_TOL
        if row.disk_slack is not None:
            ok = ok and row.disk_slack > 0.0
    return ok


def cmd_verify(args) -> int:
    handle = handle_from_name(args.family, args.beta)
    grid = SamplingGrid(args.radii, args.angles)
    start = time.perf_counter()
    runner = run_t1 if args.theorem == 1 else run_t2
    hyp, con = runner(handle, args.beta, grid, threads=args.threads)
    elapsed_ms = 1000.0 * (time.perf_counter() - start)
    passed = hyp.satisfied and _conclusion_ok(con)
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
            "schwarz_tol": _SCHWARZ_TOL,
        },
        "hypothesis": _hypothesis_json(hyp),
        "conclusion": _conclusion_json(con),
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
    _integer(args.steps, "--steps", 1)
    for flag, value in (("--beta-min", args.beta_min), ("--beta-max", args.beta_max)):
        if not math.isfinite(value):
            raise ParameterDomainError(f"{flag} must be finite (got {value:g})")
    with np.errstate(over="ignore", invalid="ignore"):  # NaNs past the float range
        betas = np.linspace(args.beta_min, args.beta_max, args.steps).tolist()
    grid = SamplingGrid(args.radii, args.angles)
    # Validate the whole range first (the families here, a NaN beta too, the bounds
    # in run_sweep) so a straddling range fails before any output is produced.
    handles = [handle_from_name(args.family, b) for b in betas]
    if args.steps == 1:
        # linspace samples --beta-min alone; --beta-max is checked as a sampled beta
        # is: by the family, then by the theorem after --beta-min, as at two steps
        handle_from_name(args.family, args.beta_max)
        for b in (args.beta_min, args.beta_max):
            (t1_bound if args.theorem == 1 else t2_bound)(b)
    lines = [CSV_HEADER]
    for b, (hyp, con) in zip(betas, run_sweep(handles, betas, grid, args.theorem)):
        lines.append(",".join(map(_f, (
            b, hyp.bound, hyp.per_radius[-1].extreme, hyp.margin_at_rmax,
            con.per_radius[-1].max_abs_w, con.order_estimate,
        ))))
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
    return 0 if diff <= _PROOF_TOL else 1


def cmd_jack(args) -> int:
    w = schwarz_from_spec(args.w)
    probe = jack_mod.jack_probe(w, args.r, args.n)
    ok = abs(probe.ratio.imag) <= _JACK_TOL and probe.k_estimate >= 1.0 - _JACK_TOL
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
    # the theorem's beta interval first: theorem 1's lies inside the target disk's
    if args.theorem == 1:
        t1_bound(args.beta)
        disk = target_disk(args.beta)
        region = {"circle": (disk.center, disk.radius)}
    else:
        t2_bound(args.beta)
        region = {"vline": (args.beta + 1.0) / (2.0 * args.beta)}
    unit = np.exp(1j * grid.angles())
    q = starlike_q(handle, np.array(grid.radii)[:, None] * unit)
    curves = [(f"r={_beta_text(r)}", row) for r, row in zip(grid.radii, q)]
    title = (f"zf'/f image of {handle.label}, theorem {args.theorem}, "
             f"beta={_beta_text(args.beta)}")
    _emit(render_curves(title, curves, window=args.window, **region), args.out)
    return 0


def _add_grid_args(sp, radii_note="") -> None:
    sp.add_argument(
        "--radii",
        type=_radii_arg,
        default=DEFAULT_RADII,
        help="comma-separated radii in (0,1), strictly increasing "
        f"(default {','.join(map(str, DEFAULT_RADII))})" + radii_note,
    )
    sp.add_argument(
        "--angles",
        type=int,
        default=DEFAULT_ANGULAR_COUNT,
        help=f"angular samples per circle, >= 8 (default {DEFAULT_ANGULAR_COUNT})",
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
    verify.add_argument("--threads", type=int, default=1,
                        help="worker threads, >= 1, sharing the (radius, slice) jobs; "
                        "reports do not depend on the count")
    verify.add_argument(
        "--timing",
        action="store_true",
        help="record measured duration_ms (breaks byte-determinism of the report)",
    )
    verify.add_argument("--out", default=None, help="report path (default stdout)")

    sweep = sub.add_parser("sweep", help="tabulate bounds and margins over a beta range")
    sweep.add_argument("--theorem", type=int, choices=(1, 2), required=True)
    sweep.add_argument("--family", required=True, help=FAMILY_HELP)
    sweep.add_argument("--beta-min", type=float, required=True,
                       help=NEGATIVE_HELP.format("--beta-min"))
    sweep.add_argument("--beta-max", type=float, required=True,
                       help=NEGATIVE_HELP.format("--beta-max"))
    sweep.add_argument("--steps", type=int, required=True)
    _add_grid_args(sweep, "; sweep scans only the largest, r_max: it counts the zeros "
                   "of f', f/z and the Mobius denominator inside it, exits 1 on any, "
                   "and so certifies the disk |z| < r_max")
    sweep.add_argument("--out", default=None, help="CSV path (default stdout)")

    scan = sub.add_parser(
        "proof-scan", help="re-derive a theorem's sharp constant by boundary scan"
    )
    scan.add_argument("--theorem", type=int, choices=(1, 2), required=True)
    scan.add_argument("--beta", type=float, required=True,
                      help=NEGATIVE_HELP.format("--beta"))
    scan.add_argument("--theta-steps", type=int, default=4096, help=">= 256")
    scan.add_argument("--out", default=None)

    jackp = sub.add_parser("jack", help="probe the boundary-maximum ratio z w'/w")
    jackp.add_argument(
        "--w",
        required=True,
        help="monomial:N | blaschke:A | induced:tT:FAMILY:BETA",
    )
    jackp.add_argument("--r", type=float, required=True, help="circle radius in (0,1)")
    jackp.add_argument("--n", type=int, default=1024, help="angular samples, >= 256")
    jackp.add_argument("--out", default=None)

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

    return p


_parser = None


def main(argv=None) -> int:
    """Run one command.  The parser is built on the first call and reused:
    parsing leaves no state in it.  The command function is looked up by
    name on every call, so a cmd_* replaced after the first call runs."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except StardiskError as exc:
        # errors.py makes every domain error a ValueError and no failed check one
        domain = isinstance(exc, ValueError)
        print(f"{'error' if domain else 'check failed'}: {exc}", file=sys.stderr)
        return 2 if domain else 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
