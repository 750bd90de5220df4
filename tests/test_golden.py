"""Golden-output guard: a fixed list of CLI invocations whose exit code,
stdout, stderr and report bytes must stay exactly as stored.

Every refactor is measured against these files; a change that alters any
byte of a report has to say so by regenerating them.  The stored files in
``tests/golden/`` were generated with numpy 2.4.6 (Python 3.11) from the
commit before the fused q/p scan; floating-point results may differ in
the last digit under another numpy build.  Four files were regenerated
when verify and sweep began scanning theta in [0, pi] for real
coefficients: verify_t1_quadratic, sweep_t1_builtin_quadratic,
sweep_t1_ex1_high and sweep_t1_ex1_low_multiblock.  Only max_abs_w and
schwarz_ratio changed, on circles where w = z exactly, each closer to r.
sweep_t1_halfplane_pole was regenerated when sweep began to certify the
disk inside its largest circle: its stderr names the count of the pole.
verify_t2_ex2_pos_log_limit was regenerated when labels began to name beta
in its shortest round-trip digits: its stderr reads beta=2.414213562373095.

At the X86_V2 dispatch level (every SIMD feature above numpy's X86_V2
baseline disabled, or absent), four reports differ in last bits
(ROADMAP item 7): those of X86_V2_DIFFER are strict xfails there, and
there alone.

Regenerate (only when a report change is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from stardisk import cli

from dispatch_features import at_x86_v2

GOLDEN = Path(__file__).parent / "golden"

# name -> argv; "{out}" is replaced by a report path in a temporary directory
CASES = {
    "verify_t1_ex1_high_threads1": [
        "verify", "--theorem", "1", "--family", "ex1_high", "--beta", "2.5",
        "--radii", "0.5,0.9,0.99", "--angles", "1024", "--threads", "1",
        "--out", "{out}"],
    "verify_t1_ex1_high_threads2": [
        "verify", "--theorem", "1", "--family", "ex1_high", "--beta", "2.5",
        "--radii", "0.5,0.9,0.99", "--angles", "1024", "--threads", "2",
        "--out", "{out}"],
    "verify_t1_ex1_low": [
        "verify", "--theorem", "1", "--family", "ex1_low", "--beta", "1.5",
        "--radii", "0.5,0.9,0.999", "--angles", "1024", "--threads", "2"],
    "verify_t1_quadratic": [
        "verify", "--theorem", "1", "--family", "builtin_quadratic", "--beta", "2",
        "--angles", "512"],
    "verify_t1_koebe_fails": [
        "verify", "--theorem", "1", "--family", "builtin_koebe", "--beta", "2",
        "--angles", "512", "--out", "{out}"],
    "verify_t2_ex2_pos_threads1": [
        "verify", "--theorem", "2", "--family", "ex2_pos", "--beta", "3",
        "--radii", "0.5,0.9,0.99", "--angles", "1024", "--threads", "1"],
    "verify_t2_ex2_pos_threads2": [
        "verify", "--theorem", "2", "--family", "ex2_pos", "--beta", "3",
        "--radii", "0.5,0.9,0.99", "--angles", "1024", "--threads", "2"],
    "verify_t2_ex2_pos_log_limit": [
        "verify", "--theorem", "2", "--family", "ex2_pos",
        "--beta", "2.414213562373095", "--angles", "1024", "--out", "{out}"],
    "verify_t2_ex2_neg": [
        "verify", "--theorem", "2", "--family", "ex2_neg", "--beta=-2",
        "--radii", "0.3,0.6,0.9,0.999", "--angles", "1024", "--threads", "2",
        "--out", "{out}"],
    "sweep_t1_ex1_high": [
        "sweep", "--theorem", "1", "--family", "ex1_high", "--beta-min", "2.0",
        "--beta-max", "2.9", "--steps", "4", "--angles", "256"],
    # 3 x 1024 points a beta: the batched sweep splits these 40 into many blocks
    "sweep_t1_ex1_low_multiblock": [
        "sweep", "--theorem", "1", "--family", "ex1_low", "--beta-min", "1.05",
        "--beta-max", "2.0", "--steps", "40", "--angles", "1024"],
    "sweep_t2_ex2_neg": [
        "sweep", "--theorem", "2", "--family", "ex2_neg", "--beta-min=-6",
        "--beta-max=-1", "--steps", "33", "--angles", "256"],
    # the first beta is the log-limit point (kind log), the others are powers
    "sweep_t2_ex2_pos_mixed_kind": [
        "sweep", "--theorem", "2", "--family", "ex2_pos",
        "--beta-min", "2.414213562373095", "--beta-max", "2.6", "--steps", "3",
        "--angles", "512"],
    "sweep_t1_builtin_quadratic": [
        "sweep", "--theorem", "1", "--family", "builtin_quadratic", "--beta-min", "1.5",
        "--beta-max", "2.5", "--steps", "5", "--angles", "256"],
    # q = 1/(1 - z) = 2 at z = 1/2, inside |z| < 0.9: one pole of w
    "sweep_t1_halfplane_pole": [
        "sweep", "--theorem", "1", "--family", "builtin_halfplane", "--beta-min", "2",
        "--beta-max", "2.5", "--steps", "2", "--radii", "0.5,0.9", "--angles", "64"],
    # 0.9999999999999999 * e^{i theta} rounds onto |z| = 1 at some angles
    "sweep_t1_ex1_high_unit_radius": [
        "sweep", "--theorem", "1", "--family", "ex1_high", "--beta-min", "2.1",
        "--beta-max", "2.9", "--steps", "4", "--radii", "0.5,0.9999999999999999",
        "--angles", "256"],
    "proof_scan_t1": [
        "proof-scan", "--theorem", "1", "--beta", "2.5", "--theta-steps", "1024"],
    "proof_scan_t2": [
        "proof-scan", "--theorem", "2", "--beta=-2", "--theta-steps", "1024"],
    "proof_scan_t1_65536_steps": [
        "proof-scan", "--theorem", "1", "--beta", "2.2", "--theta-steps", "65536"],
    # beta * beta == 1: the boundary value is the constant 1/2 + 1/(2 beta)
    "proof_scan_t2_beta_minus_one": [
        "proof-scan", "--theorem", "2", "--beta=-1"],
    # the k-term cancels 1/2 + 1/(2 beta) to 0.0 (ROADMAP item 10); pinned as is
    "proof_scan_t2_beta_1e150": [
        "proof-scan", "--theorem", "2", "--beta", "1e150"],
    # just inside theorem 1's interval, on an odd step count
    "proof_scan_t1_beta_near_one_257_steps": [
        "proof-scan", "--theorem", "1", "--beta", "1.0000001", "--theta-steps", "257"],
    "jack_monomial": ["jack", "--w", "monomial:3", "--r", "0.9", "--n", "512"],
    "jack_blaschke": ["jack", "--w", "blaschke:0.5", "--r", "0.99", "--n", "1024"],
    "jack_induced": [
        "jack", "--w", "induced:t1:ex1_high:2.0", "--r", "0.9", "--n", "1024"],
    "plot_t1_ex1_high": [
        "plot", "--theorem", "1", "--family", "ex1_high", "--beta", "2",
        "--radii", "0.5,0.99", "--angles", "256", "--out", "{out}"],
    # theorem 2: four curves against the half-plane line
    "plot_t2_ex2_neg": [
        "plot", "--theorem", "2", "--family", "ex2_neg", "--beta=-3",
        "--radii", "0.3,0.7,0.95,0.999", "--angles", "1000", "--out", "{out}"],
    # part of the curve leaves the window, so negative pixel coordinates are written
    "plot_t1_koebe_window": [
        "plot", "--theorem", "1", "--family", "builtin_koebe", "--beta", "2",
        "--window=0.5:1.5:-0.5:0.5", "--out", "{out}"],
    "plot_t1_ex1_low_odd_angles": [
        "plot", "--theorem", "1", "--family", "ex1_low", "--beta", "1.5",
        "--angles", "77", "--out", "{out}"],
    # argparse's usage and option text, which exits through SystemExit(0)
    "help": ["--help"],
    "help_verify": ["verify", "--help"],
    "help_sweep": ["sweep", "--help"],
    "help_proof_scan": ["proof-scan", "--help"],
    "help_jack": ["jack", "--help"],
    "help_plot": ["plot", "--help"],
}


def transcript(argv, workdir: Path) -> str:
    """Exit code, stdout, stderr and the --out report of one CLI call; an
    argparse exit is recorded by its SystemExit code."""
    out = workdir / "report"
    argv = [str(out) if a == "{out}" else a for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    report = out.read_text() if out.exists() else ""
    return (f"exit {code}\n--- stdout\n{stdout.getvalue()}"
            f"--- stderr\n{stderr.getvalue()}--- report\n{report}")


X86_V2_DIFFER = {"jack_blaschke", "jack_monomial", "sweep_t1_builtin_quadratic",
                 "verify_t1_quadratic"}
_XFAIL = X86_V2_DIFFER if at_x86_v2() else set()


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 7"))
    if name in _XFAIL else name for name in sorted(CASES)])
def test_golden_output(name, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    expected = (GOLDEN / f"{name}.txt").read_bytes().decode()
    assert transcript(CASES[name], tmp_path) == expected


def regenerate() -> None:
    import tempfile

    os.environ["COLUMNS"] = "80"
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            text = transcript(argv, Path(tmp))
        (GOLDEN / f"{name}.txt").write_bytes(text.encode())
        print(f"wrote {name}.txt", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
