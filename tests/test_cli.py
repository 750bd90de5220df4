import argparse
import dataclasses
import errno
import json
import math
import os
import stat
import subprocess
import sys
import threading
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import stardisk as sd
from stardisk import cli


def run_cli(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        return int(exc.code)


FAST = ["--angles", "512"]


# ----------------------------------------------------------------- exit codes

def test_verify_pass_exit_code(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(
        ["verify", "--theorem", "1", "--family", "ex1_high", "--beta", "2.5",
         "--radii", "0.5,0.9,0.99", "--angles", "4096", "--out", str(out)]
    )
    assert code == 0
    assert out.exists()


def test_verify_hypothesis_failure_exit_code(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(
        ["verify", "--theorem", "1", "--family", "builtin_koebe", "--beta", "2",
         "--out", str(out)] + FAST
    )
    assert code == 1
    report = json.loads(out.read_text())
    assert report["hypothesis"]["satisfied"] is False
    assert report["hypothesis"]["margin_at_rmax"] < 0.0
    assert report["pass"] is False


def test_verify_domain_error_exit_code(tmp_path):
    code = run_cli(
        ["verify", "--theorem", "1", "--family", "ex1_high", "--beta", "3.0",
         "--out", str(tmp_path / "r.json")] + FAST
    )
    assert code == 2


def test_verify_unknown_family_exit_code(tmp_path):
    code = run_cli(
        ["verify", "--theorem", "1", "--family", "nope", "--beta", "2.0",
         "--out", str(tmp_path / "r.json")] + FAST
    )
    assert code == 2


def test_usage_error_exit_code():
    assert run_cli(["verify", "--theorem", "5", "--family", "ex1_high", "--beta", "2"]) == 2
    assert run_cli(["no-such-command"]) == 2


def test_proof_scan_exit_codes():
    assert run_cli(["proof-scan", "--theorem", "1", "--beta", "2.5",
                    "--theta-steps", "4096"]) == 0
    assert run_cli(["proof-scan", "--theorem", "2", "--beta", "-1"]) == 0
    assert run_cli(["proof-scan", "--theorem", "1", "--beta", "1.0"]) == 2


def test_jack_exit_codes():
    assert run_cli(["jack", "--w", "monomial:3", "--r", "0.9"]) == 0
    assert run_cli(["jack", "--w", "induced:t1:ex1_high:2.0", "--r", "0.9"]) == 0
    assert run_cli(["jack", "--w", "blaschke:0.5", "--r", "0.99"]) == 0
    # deep monomial underflows on a small circle: degenerate, not usage
    assert run_cli(["jack", "--w", "monomial:30", "--r", "0.3"]) == 1
    assert run_cli(["jack", "--w", "gibberish", "--r", "0.9"]) == 2
    assert run_cli(["jack", "--w", "monomial:3", "--r", "1.5"]) == 2


def test_jack_and_plot_name_beta_exactly(tmp_path, capsys):
    # six significant digits would print beta = 1, outside ex1_low's 1 < beta <= 2
    assert run_cli(["jack", "--w", "induced:t1:ex1_low:1.0000001", "--r", "0.9"]) == 0
    assert capsys.readouterr().out.startswith(
        "w induced:t1:ex1_low(beta=1.0000001):1.0000001 r 0.9 n 1024\n")
    out = tmp_path / "p.svg"
    assert run_cli(["plot", "--theorem", "1", "--family", "ex1_low", "--beta", "1.0000001",
                    "--angles", "64", "--out", str(out)]) == 0
    assert "image of ex1_low(beta=1.0000001), theorem 1, beta=1.0000001</text>" in \
        out.read_text()


def test_jack_and_plot_name_blaschke_zeros_and_radii_exactly(tmp_path, capsys):
    # six significant digits would name the zero 0.123457 and the radius 1
    assert run_cli(["jack", "--w", "blaschke:0.12345678", "--r", "0.9", "--n", "256"]) == 0
    assert capsys.readouterr().out.startswith("w blaschke:0.12345678+0j r 0.9 n 256\n")
    out = tmp_path / "p.svg"
    assert run_cli(["plot", "--theorem", "1", "--family", "ex1_high", "--beta", "2.5",
                    "--radii", "0.5,0.9999999", "--angles", "64", "--out", str(out)]) == 0
    assert ">r=0.9999999</text>" in out.read_text()


@pytest.mark.parametrize("argv, code, message", [
    # :g would print -1, a beta inside the interval refused
    (["verify", "--theorem", "2", "--family", "ex2_neg", "--beta=-0.9999999999999998",
      "--angles", "64"], 2,
     "error: family ex2_neg needs beta <= -1 (got beta = -0.9999999999999998)\n"),
    (["proof-scan", "--theorem", "1", "--beta", "3.0000000001"], 2,
     "error: theorem 1 needs 1 < beta < 3 (got 3.0000000001)\n"),
    (["verify", "--theorem", "1", "--family", "builtin_quadratic",
      "--beta", "1.00000000000001", "--angles", "64"], 1,
     "check failed: q = beta = 1.00000000000001 is the pole of the inverse map\n"),
], ids=["family-interval", "theorem-interval", "pole"])
def test_refusals_name_beta_exactly(capsys, argv, code, message):
    assert run_cli(argv) == code
    assert capsys.readouterr() == ("", message)


def test_family_help_names_every_family_with_the_interval_it_is_refused_with():
    for family in sd.PARAMETRIC_FAMILIES:
        with pytest.raises(sd.ParameterDomainError) as err:
            sd.make_family(sd.FamilySpec(family))
        interval = str(err.value).removeprefix(f"family {family} needs beta in ")
        assert f"{family} ({interval})" in cli.FAMILY_HELP
    for builtin in sd.BUILTIN_FAMILIES:
        assert builtin in cli.FAMILY_HELP
    assert "builtin_monomial:N" in cli.FAMILY_HELP


# orders int() reads but str() does not give back: each would make a label
# that differs from the text given
BAD_ORDERS = ["3_0", " +2", "+2", "02", "\u0663", "", "-0", "3 "]


@pytest.mark.parametrize("order", BAD_ORDERS)
def test_family_monomial_order_not_in_canonical_form_exit_code(tmp_path, capsys, order):
    family = f"builtin_monomial:{order}"
    code = run_cli(["verify", "--theorem", "1", "--family", family, "--beta", "2",
                    "--out", str(tmp_path / "r.json")] + FAST)
    assert code == 2
    assert capsys.readouterr().err == f"error: bad monomial order in '{family}'\n"
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("order", BAD_ORDERS)
def test_jack_monomial_order_not_in_canonical_form_exit_code(tmp_path, capsys, order):
    w = f"monomial:{order}"
    code = run_cli(["jack", "--w", w, "--r", "0.9", "--n", "256",
                    "--out", str(tmp_path / "j.txt")])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: cannot parse Schwarz function '{w}'; expected monomial:N, "
        "blaschke:A, or induced:tT:FAMILY:BETA\n")
    assert not (tmp_path / "j.txt").exists()


def test_sweep_straddle_exit_code(tmp_path):
    code = run_cli(
        ["sweep", "--theorem", "1", "--family", "ex1_high",
         "--beta-min", "1.5", "--beta-max", "2.5", "--steps", "5",
         "--out", str(tmp_path / "s.csv")] + FAST
    )
    assert code == 2
    assert not (tmp_path / "s.csv").exists()  # no partial output


# --------------------------------------------------------------------- schema

def test_verify_json_schema(tmp_path):
    out = tmp_path / "report.json"
    run_cli(["verify", "--theorem", "1", "--family", "ex1_high", "--beta", "2.5",
             "--out", str(out)] + FAST)
    report = json.loads(out.read_text())
    assert list(report) == ["version", "config", "hypothesis", "conclusion",
                            "pass", "duration_ms"]
    hyp = report["hypothesis"]
    assert list(hyp) == ["bound", "per_radius", "satisfied", "margin_at_rmax"]
    assert list(hyp["per_radius"][0]) == ["r", "extreme", "witness_re", "witness_im"]
    con = report["conclusion"]
    assert list(con) == ["per_radius", "order_estimate", "w_origin_abs"]
    assert list(con["per_radius"][0]) == ["r", "max_abs_w", "schwarz_ratio",
                                          "disk_slack", "min_re_q"]
    assert report["duration_ms"] == 0.0
    assert con["w_origin_abs"] <= 1e-10


def test_the_verdict_takes_w_at_the_origin_exactly():
    hyp, con = sd.run_t1(sd.quadratic(), 2.0, sd.SamplingGrid((0.5,), 64))
    assert con.w_origin == 0 and cli._conclusion_ok(con)
    # no allowance: w(0) at the least subnormal fails the conclusion
    assert not cli._conclusion_ok(dataclasses.replace(con, w_origin=5e-324j))


def test_verify_timing_records_only_the_duration(tmp_path):
    argv = ["verify", "--theorem", "1", "--family", "ex1_high", "--beta", "2.5"] + FAST
    reports = []
    for extra in ([], ["--timing"]):
        out = tmp_path / f"report{len(extra)}.json"
        assert run_cli(argv + extra + ["--out", str(out)]) == 0
        reports.append(json.loads(out.read_text()))
    plain, timed = reports
    assert plain["duration_ms"] == 0.0
    assert timed.pop("duration_ms") > 0.0
    plain.pop("duration_ms")
    assert timed == plain


def test_verify_theorem2_schema_has_no_disk_slack(tmp_path):
    out = tmp_path / "report.json"
    run_cli(["verify", "--theorem", "2", "--family", "ex2_neg", "--beta", "-2",
             "--out", str(out)] + FAST)
    report = json.loads(out.read_text())
    assert list(report["conclusion"]["per_radius"][0]) == [
        "r", "max_abs_w", "schwarz_ratio", "min_re_q"]
    assert report["pass"] is True


def test_sweep_csv_schema(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli(
        ["sweep", "--theorem", "2", "--family", "ex2_neg",
         "--beta-min", "-3", "--beta-max", "-1", "--steps", "9",
         "--out", str(out)] + FAST
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "beta,bound,extreme_re_p,margin,max_abs_w,order_estimate"
    assert len(lines) == 10
    last = lines[-1].split(",")
    assert float(last[0]) == -1.0
    assert float(last[1]) == 0.0  # t2 bound vanishes at beta = -1


def test_sweep_single_step(tmp_path):
    out = tmp_path / "one.csv"
    code = run_cli(
        ["sweep", "--theorem", "1", "--family", "ex1_high",
         "--beta-min", "2.0", "--beta-max", "2.9", "--steps", "1",
         "--out", str(out)] + FAST
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert float(lines[1].split(",")[0]) == 2.0


# np.linspace(lo, hi, 1) is [lo]; hi is checked as a sampled beta is,
# by the family first and then by the theorem
@pytest.mark.parametrize("argv, message", [
    (["--theorem", "2", "--family", "ex2_neg", "--beta-min=-3", "--beta-max=-0.5"],
     "family ex2_neg needs beta <= -1 (got beta = -0.5)"),
    (["--theorem", "1", "--family", "ex1_high", "--beta-min", "2", "--beta-max", "99"],
     "family ex1_high needs 2 <= beta < 3 (got beta = 99)"),
    (["--theorem", "1", "--family", "builtin_koebe", "--beta-min", "2", "--beta-max", "5"],
     "theorem 1 needs 1 < beta < 3 (got 5)"),
    # both out of the theorem's interval: --beta-min is named, as at two steps
    (["--theorem", "1", "--family", "builtin_koebe", "--beta-min", "0.5", "--beta-max", "5"],
     "theorem 1 needs 1 < beta < 3 (got 0.5)"),
])
@pytest.mark.parametrize("steps", ["1", "2"])
def test_sweep_checks_beta_max_at_any_step_count(tmp_path, capsys, argv, message, steps):
    out = tmp_path / "s.csv"
    assert run_cli(["sweep", *argv, "--steps", steps, "--angles", "64",
                    "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def test_sweep_fails_at_the_first_beta_that_fails_alone(capsys):
    # beta = 2 has a pole inside the circle; at 8 angles the phase of
    # q - 2.9 turns too fast to count, a domain error (exit 2) if it came first
    argv = ["sweep", "--theorem", "1", "--family", "builtin_halfplane", "--beta-min", "2",
            "--beta-max", "2.9", "--steps", "2", "--radii", "0.999999", "--angles", "8"]
    assert run_cli(argv) == 1
    assert capsys.readouterr() == ("", (
        "check failed: q - beta has 1 zero in |z| < 0.999999 (beta = 2); "
        "the inverse map has a pole there\n"))


def test_sweep_ends_at_beta_max_exactly(tmp_path):
    # -2.5 + 187 * (1.5 / 187) rounds to -0.9999999999999998, outside ex2_neg
    out = tmp_path / "sweep.csv"
    assert run_cli(["sweep", "--theorem", "2", "--family", "ex2_neg", "--beta-min=-2.5",
                    "--beta-max=-1", "--steps", "188", "--angles", "64",
                    "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 188
    assert rows[-1].split(",")[0] == "-1.0"


@pytest.mark.parametrize("family, message", [
    ("ex2_neg", "family ex2_neg needs beta <= -1 (got beta = nan)"),
    ("builtin_halfplane",
     "theorem 2 needs -1e+150 <= beta <= -1 or 1 < beta <= 1e+150 (got nan)"),
])
def test_sweep_wider_than_the_float_range_exits_2_without_a_numpy_warning(capsys, family,
                                                                         message):
    # 1e308 - (-1e308) overflows, so the betas are NaN; every warning is an
    # error here, so a numpy warning would fail this test
    argv = ["sweep", "--theorem", "2", "--family", family, "--beta-min=-1e308",
            "--beta-max=1e308", "--steps", "3"]
    assert run_cli(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_sweep_margins_positive(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli(
        ["sweep", "--theorem", "1", "--family", "ex1_high",
         "--beta-min", "2.0", "--beta-max", "2.9", "--steps", "10",
         "--out", str(out)] + FAST
    )
    assert code == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 10
    for row in rows:
        margin = float(row.split(",")[3])
        assert margin > 0.0


# --------------------------------------------------------- determinism, I/O

def test_verify_byte_determinism(tmp_path):
    args = ["verify", "--theorem", "1", "--family", "ex1_low", "--beta", "1.5"] + FAST
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_thread_count_invariance(tmp_path):
    base = ["verify", "--theorem", "2", "--family", "ex2_pos", "--beta", "3"] + FAST
    a, b = tmp_path / "t1.json", tmp_path / "t4.json"
    run_cli(base + ["--threads", "1", "--out", str(a)])
    run_cli(base + ["--threads", "4", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


# z - z^2 / 2, as a series and as ex1_high at beta = 2 (mu = 2)
@pytest.mark.parametrize("family", ["builtin_quadratic", "ex1_high"])
@pytest.mark.parametrize("angles", [256, 512, 777])
def test_verify_identity_w_is_no_further_from_r_than_on_the_full_circle(
        tmp_path, family, angles):
    # at beta = 2 the theorem-1 w of z - z^2 / 2 is exactly z, so max|w| = r;
    # the scan of theta in [0, pi] is no further off than the full circle
    out = tmp_path / "report.json"
    assert run_cli(["verify", "--theorem", "1", "--family", family, "--beta", "2",
                    "--radii", "0.5,0.9,0.99", "--angles", str(angles),
                    "--out", str(out)]) == 0
    fh = sd.make_family(sd.FamilySpec(family, None if family.startswith("builtin") else 2.0))
    for row in json.loads(out.read_text())["conclusion"]["per_radius"]:
        r = row["r"]
        z = sd.SamplingGrid((r,), angles).circle(r)
        full = np.abs(sd.mobius_invert_t1(2.0, sd.starlike_q(fh, z))).max()
        assert abs(row["max_abs_w"] - r) <= abs(full - r)


def test_report_roundtrip_exact_floats(tmp_path):
    out = tmp_path / "report.json"
    run_cli(["verify", "--theorem", "1", "--family", "ex1_high", "--beta", "2.5",
             "--out", str(out)] + FAST)
    report = json.loads(out.read_text())
    assert json.loads(json.dumps(report, indent=2)) == report
    # rewriting the parsed report reproduces the file byte for byte
    assert json.dumps(report, indent=2) + "\n" == out.read_text()


def test_stdout_output(capsys):
    code = run_cli(["proof-scan", "--theorem", "2", "--beta", "-2"])
    captured = capsys.readouterr()
    assert code == 0
    assert "extremal_value" in captured.out
    assert "abs_difference" in captured.out


# ------------------------------------------------------------------------ svg

def test_plot_disk_case(tmp_path):
    out = tmp_path / "plot.svg"
    code = run_cli(["plot", "--theorem", "1", "--family", "ex1_high", "--beta", "2",
                    "--radii", "0.5,0.99", "--angles", "256", "--out", str(out)])
    assert code == 0
    svg = out.read_text()
    assert svg.startswith("<svg ")
    assert svg.count("<polyline") == 2
    assert "<ellipse" in svg  # the target circle
    assert "</svg>" in svg


def test_plot_halfplane_case(tmp_path):
    out = tmp_path / "plot2.svg"
    code = run_cli(["plot", "--theorem", "2", "--family", "ex2_neg", "--beta", "-1",
                    "--radii", "0.99", "--angles", "256", "--out", str(out)])
    assert code == 0
    svg = out.read_text()
    assert "<ellipse" not in svg
    assert 'stroke-dasharray="6,4"' in svg  # the boundary line Re = 0


def test_plot_identity_degenerates_to_point(tmp_path):
    out = tmp_path / "point.svg"
    code = run_cli(["plot", "--theorem", "1", "--family", "builtin_monomial:1",
                    "--beta", "2", "--radii", "0.9", "--angles", "256",
                    "--out", str(out)])
    assert code == 0
    svg = out.read_text()
    line = next(ln for ln in svg.splitlines() if "<polyline" in ln)
    pts = line.split('points="')[1].split('"')[0].split()
    assert len(set(pts)) == 1  # q == 1 everywhere


def test_plot_determinism(tmp_path):
    args = ["plot", "--theorem", "1", "--family", "ex1_high", "--beta", "2.5",
            "--radii", "0.5,0.9", "--angles", "512"]
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    run_cli(args + ["--out", str(a)])
    run_cli(args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_plot_window_flag(tmp_path):
    out = tmp_path / "w.svg"
    code = run_cli(["plot", "--theorem", "1", "--family", "ex1_high", "--beta", "2",
                    "--radii", "0.5", "--angles", "256",
                    "--window=-1:3:-2:2", "--out", str(out)])
    assert code == 0
    assert run_cli(["plot", "--theorem", "1", "--family", "ex1_high", "--beta", "2",
                    "--radii", "0.5", "--angles", "256",
                    "--window", "bad", "--out", str(out)]) == 2


# ------------------------------------------------------ out-of-domain inputs

def _rejected(argv, capsys, interval):
    assert run_cli(argv) == 2
    assert interval in capsys.readouterr().err


@pytest.mark.parametrize("beta, interval", [
    ("inf", "beta > 1"), ("1e300", "finite exponent mu"), ("nan", "beta > 1"),
])
def test_verify_non_finite_beta_exit_code(tmp_path, capsys, beta, interval):
    out = tmp_path / "r.json"
    _rejected(["verify", "--theorem", "2", "--family", "ex2_pos", "--beta", beta,
               "--out", str(out)] + FAST, capsys, interval)
    assert not out.exists()
    _rejected(["verify", "--theorem", "2", "--family", "builtin_halfplane",
               "--beta", beta] + FAST, capsys, "1 < beta <= 1e+150")


def test_proof_scan_non_finite_beta_exit_code(capsys):
    for beta in ("inf", "1e300", "--beta=-inf"):
        argv = ["proof-scan", "--theorem", "2"]
        argv += [beta] if beta.startswith("--") else ["--beta", beta]
        _rejected(argv, capsys, "-1e+150 <= beta <= -1 or 1 < beta <= 1e+150")


def test_plot_non_finite_beta_exit_code(tmp_path, capsys):
    out = tmp_path / "p.svg"
    base = ["--radii", "0.9", "--angles", "256", "--out", str(out)]
    _rejected(["plot", "--theorem", "1", "--family", "builtin_koebe", "--beta", "inf"]
              + base, capsys, "theorem 1 needs 1 < beta < 3 (got inf)")
    _rejected(["plot", "--theorem", "1", "--family", "ex2_pos", "--beta", "1e300"]
              + base, capsys, "finite exponent mu")
    _rejected(["plot", "--theorem", "2", "--family", "builtin_halfplane",
               "--beta", "inf"] + base, capsys, "1 < beta <= 1e+150")
    assert not out.exists()


def test_plot_theorem_1_refuses_beta_below_its_interval_by_the_theorem(tmp_path, capsys):
    # theorem 1's interval, not the wider one of the target disk, names the refusal
    out = tmp_path / "p.svg"
    assert run_cli(["plot", "--theorem", "1", "--family", "builtin_koebe", "--beta", "0.5",
                    "--radii", "0.9", "--angles", "64", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: theorem 1 needs 1 < beta < 3 (got 0.5)\n"
    assert not out.exists()


@pytest.mark.parametrize("beta", ["3", "5"])
def test_plot_theorem_1_beta_outside_its_interval_exit_code(tmp_path, capsys, beta):
    out = tmp_path / "p.svg"
    _rejected(["plot", "--theorem", "1", "--family", "ex2_pos", "--beta", beta,
               "--radii", "0.9", "--angles", "64", "--out", str(out)], capsys, "1 < beta < 3")
    assert not out.exists()


def test_jack_non_finite_beta_exit_code(capsys):
    _rejected(["jack", "--w", "induced:t2:ex2_pos:inf", "--r", "0.9"], capsys,
              "beta > 1")
    _rejected(["jack", "--w", "induced:t2:builtin_halfplane:inf", "--r", "0.9"],
              capsys, "theorem 2 needs -1e+150 <= beta <= -1 or 1 < beta <= 1e+150 (got inf)")


@pytest.mark.parametrize("w, interval", [
    ("induced:t1:ex2_pos:5", "theorem 1 needs 1 < beta < 3 (got 5)"),
    ("induced:t1:builtin_koebe:7", "theorem 1 needs 1 < beta < 3 (got 7)"),
    ("induced:t2:builtin_halfplane:0.5", "1 < beta <= 1e+150 (got 0.5)"),
])
def test_jack_induced_beta_outside_its_theorem_interval_exit_code(tmp_path, capsys, w,
                                                                   interval):
    out = tmp_path / "j.txt"
    _rejected(["jack", "--w", w, "--r", "0.9", "--out", str(out)], capsys, interval)
    assert not out.exists()


@pytest.mark.parametrize("theorem, beta, report", [
    (1, "1.0000000000000002", ["extremal_value 1.0000000000009437",
                               "theta_star 0.015339807878856412",
                               "bound 1.0000000000000002",
                               "abs_difference 9.43467526326458e-13"]),
    (2, "1.0000000000000002", ["extremal_value 0.9999999999990562",
                               "theta_star 0.015339807878856412", "bound 1.0",
                               "abs_difference 9.438005932338456e-13"]),
    (2, "-1.0000000000000002", ["extremal_value 5.551115123125784e-17", "theta_star 0.0",
                                "bound 5.5511151231257815e-17",
                                "abs_difference 2.465190328815662e-32"]),
])
def test_proof_scan_near_unit_beta_warns_nothing(capsys, theorem, beta, report):
    # 1 + beta^2 - 2 beta cos(theta) rounds to 0 at theta = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["proof-scan", "--theorem", str(theorem), f"--beta={beta}"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines() == [f"theorem {theorem} beta {beta} theta_steps 4096"] + report


def test_jack_nan_blaschke_zero_exit_code(tmp_path, capsys):
    out = tmp_path / "j.txt"
    _rejected(["jack", "--w", "blaschke:nan", "--r", "0.5", "--n", "256",
               "--out", str(out)], capsys, "|a| < 1")
    assert not out.exists()


@pytest.mark.parametrize("window", [
    "1:0:0:1",     # x0 > x1
    "0:nan:0:1",   # not a number
    "-inf:1:0:1",  # would write nan coordinates
    "0:inf:0:1",   # would give a degenerate plot
])
def test_plot_bad_window_exit_code(tmp_path, capsys, window):
    out = tmp_path / "p.svg"
    _rejected(["plot", "--theorem", "1", "--family", "ex1_high", "--beta", "2",
               "--radii", "0.9", "--angles", "64", f"--window={window}",
               "--out", str(out)], capsys, "finite numbers with x0 < x1 and y0 < y1")
    assert not out.exists()


@pytest.mark.parametrize("window, rule", [
    ("0:1e-320:0:1", "finite pixel scales 800/(x1-x0) and 800/(y1-y0)"),
    ("0:1e-306:0:1", "finite pixel scales 800/(x1-x0) and 800/(y1-y0)"),
    ("0:1:0:1e-320", "finite pixel scales 800/(x1-x0) and 800/(y1-y0)"),
    # the scales are finite (1.6e308), but q reaches 1.33, so the curve overflows
    ("0:5e-306:0:1", "every pixel coordinate must be finite"),
], ids=["x-subnormal", "x-tiny", "y-subnormal", "coordinates"])
def test_plot_window_that_overflows_exit_code(tmp_path, capsys, window, rule):
    out = tmp_path / "p.svg"
    _rejected(["plot", "--theorem", "1", "--family", "ex1_high", "--beta", "2",
               "--radii", "0.9", "--angles", "64", f"--window={window}",
               "--out", str(out)], capsys, rule)
    assert not out.exists()


def test_sweep_non_finite_beta_exit_code(tmp_path, capsys):
    out = tmp_path / "s.csv"
    _rejected(["sweep", "--theorem", "2", "--family", "ex2_pos", "--beta-min", "2",
               "--beta-max", "1e300", "--steps", "3", "--out", str(out)] + FAST,
              capsys, "finite exponent mu")
    assert not out.exists()


@pytest.mark.parametrize("endpoints, message", [
    (["--beta-min", "2", "--beta-max", "inf"], "--beta-max must be finite (got inf)"),
    (["--beta-min=-inf", "--beta-max", "2.5"], "--beta-min must be finite (got -inf)"),
    (["--beta-min", "nan", "--beta-max", "2.5"], "--beta-min must be finite (got nan)"),
])
def test_sweep_non_finite_endpoint_is_named(tmp_path, capsys, endpoints, message):
    out = tmp_path / "s.csv"
    _rejected(["sweep", "--theorem", "2", "--family", "builtin_halfplane", *endpoints,
               "--steps", "3", "--out", str(out)] + FAST, capsys, message)
    assert not out.exists()


def test_sweep_negative_exponent_notation(capsys):
    argv = ["sweep", "--theorem", "2", "--family", "ex2_neg", "--steps", "2",
            "--angles", "64"]
    assert run_cli(argv + ["--beta-min=-1e6", "--beta-max=-1e3"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [float(row.split(",")[0]) for row in rows] == [-1e6, -1e3]
    # the form the help warns about: argparse takes -1e6 for an option
    assert run_cli(argv + ["--beta-min", "-1e6", "--beta-max=-1e3"]) == 2
    capsys.readouterr()
    assert run_cli(["sweep", "--help"]) == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert "--beta-min=-1e6" in help_text and "--beta-max=-1e6" in help_text


def test_verify_report_is_strict_json(tmp_path, monkeypatch):
    # a NaN that slipped past the domain checks must not become bare NaN
    real = cli.run_t2

    def nan_run(handle, beta, grid, threads=1):
        hyp, con = real(handle, beta, grid, threads)
        return dataclasses.replace(hyp, bound=math.nan), con

    monkeypatch.setattr(cli, "run_t2", nan_run)
    with pytest.raises(ValueError, match="JSON compliant"):
        cli.main(["verify", "--theorem", "2", "--family", "ex2_neg", "--beta=-2",
                  "--out", str(tmp_path / "r.json")] + FAST)
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_exit_code(capsys, threads):
    code = run_cli(["verify", "--theorem", "1", "--family", "ex1_high", "--beta", "2.5",
                    "--threads", threads] + FAST)
    assert code == 2
    # argparse reads the integer; run_t1 refuses it, before any work
    assert capsys.readouterr().err == f"error: threads must be >= 1 (got {threads})\n"


@pytest.mark.parametrize("argv", [
    ["verify", "--theorem", "1", "--family", "ex1_high", "--beta", "2.5",
     "--schwarz-tol"],
    ["proof-scan", "--theorem", "1", "--beta", "2.5", "--theta-steps", "256", "--tol"],
    ["jack", "--w", "monomial:3", "--r", "0.9", "--n", "256", "--imag-tol"],
    ["jack", "--w", "monomial:3", "--r", "0.9", "--n", "256", "--k-tol"],
], ids=["schwarz-tol", "tol", "imag-tol", "k-tol"])
def test_a_verdict_tolerance_is_no_flag(tmp_path, capsys, argv):
    # the paper's inequalities have no slack: the allowances are constants
    out = tmp_path / "report"
    assert run_cli(argv + ["1", "--out", str(out)]) == 2
    assert f"unrecognized arguments: {argv[-1]} 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--theorem", "1", "--family", "ex1_high", "--beta-min", "2", "--beta-max", "2.5",
      "--steps", "0"], "error: --steps must be >= 1 (got 0)"),
    (["verify", "--theorem", "1", "--family", "ex1_high", "--beta", "2.5", "--radii", "0.5,x"],
     "stardisk verify: error: argument --radii: bad radii list '0.5,x'"),
    (["verify", "--theorem", "1", "--family", "ex1_high", "--beta", "2.5", "--threads", "x"],
     "stardisk verify: error: argument --threads: invalid int value: 'x'"),
], ids=["steps-0", "radii-not-a-number", "threads-not-a-number"])
def test_malformed_steps_radii_or_threads_exit_code(capsys, argv, message):
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    # argparse prints its usage lines first; the sweep's own check prints one line
    lines = captured.err.splitlines()
    assert lines[-1] == message
    assert len(lines) == 1 or lines[0].startswith("usage: stardisk verify")
    assert captured.out == ""


# ---------------------------------------------------------------- --out targets

JACK = ["jack", "--w", "monomial:3", "--r", "0.9", "--n", "256"]


def test_out_onto_a_fifo_writes_through_it(tmp_path, capsys):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    # a daemon, so that a writer that never opens the FIFO fails the test
    # instead of hanging it
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert run_cli(JACK + ["--out", str(fifo)]) == 0
    reader.join(timeout=30)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["pipe"]
    assert run_cli(JACK) == 0
    assert got == [capsys.readouterr().out.encode()]


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
def test_a_new_report_gets_the_mode_that_open_gives(tmp_path, umask):
    old = os.umask(umask)
    try:
        with open(tmp_path / "sibling", "w"):
            pass
        assert run_cli(JACK + ["--out", str(tmp_path / "j.txt")]) == 0
    finally:
        os.umask(old)
    modes = [stat.S_IMODE(os.stat(tmp_path / n).st_mode) for n in ("sibling", "j.txt")]
    assert modes == [0o666 & ~umask] * 2


def test_a_report_never_touches_the_process_umask(tmp_path, monkeypatch):
    # a umask set to 0 and back, even briefly, would give a file that another
    # thread creates in between the mode 0666
    def umask(mask):
        raise AssertionError("os.umask called")

    monkeypatch.setattr(os, "umask", umask)
    out = tmp_path / "new.json"
    assert run_cli(["verify", "--theorem", "1", "--family", "ex1_high", "--beta", "2.5",
                    "--out", str(out)] + FAST) == 0
    assert json.loads(out.read_text())["pass"] is True
    assert os.listdir(tmp_path) == ["new.json"]


def test_an_overwritten_report_keeps_its_mode_and_is_renamed_into_place(tmp_path):
    out = tmp_path / "j.txt"
    out.write_text("old")
    out.chmod(0o640)
    inode = out.stat().st_ino
    assert run_cli(JACK + ["--out", str(out)]) == 0
    assert stat.S_IMODE(out.stat().st_mode) == 0o640
    assert out.stat().st_ino != inode  # a new file, renamed over the old one
    assert out.read_text().startswith("w monomial")
    assert os.listdir(tmp_path) == ["j.txt"]


@pytest.mark.parametrize("argv", [
    ["verify", "--theorem", "1", "--family", "ex1_high", "--beta", "2.5"] + FAST,
    ["proof-scan", "--theorem", "1", "--beta", "2.5", "--theta-steps", "256"],
], ids=["verify", "proof-scan"])
@pytest.mark.parametrize("target, code", [
    ("dir", errno.EISDIR), ("missing/r.json", errno.ENOENT),
], ids=["directory", "missing-parent"])
def test_out_that_cannot_be_written_exit_code(tmp_path, capsys, argv, target, code):
    (tmp_path / "dir").mkdir()
    out = tmp_path / target
    assert run_cli(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write {out}: {os.strerror(code)}\n"
    assert captured.out == ""
    # no temporary file is left behind, in the directory or next to it
    assert os.listdir(tmp_path) == ["dir"]
    assert os.listdir(tmp_path / "dir") == []


def test_a_failed_rename_leaves_no_temporary_file_and_the_old_report(tmp_path, capsys,
                                                                     monkeypatch):
    out = tmp_path / "j.txt"
    out.write_text("old report")

    def replace(src, dst):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))

    monkeypatch.setattr(os, "replace", replace)
    assert run_cli(JACK + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {out}: Permission denied\n"
    assert os.listdir(tmp_path) == ["j.txt"]
    assert out.read_bytes() == b"old report"


# ------------------------------------------------------ python -m entry points

@pytest.mark.parametrize("module", ["stardisk", "stardisk.cli"])
def test_module_entry_point_runs_the_cli(module):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", module, "verify", "--theorem", "1",
         "--family", "builtin_koebe", "--beta", "2", "--angles", "256"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["pass"] is False
    assert "FAIL" in proc.stderr


def test_star_import_binds_api_names_only():
    names = {}
    exec("from stardisk import *", names)
    del names["__builtins__"]
    assert set(names) == set(sd.__all__)
    # the submodules (analytic_core, criteria, ...) would bind over a caller's names
    assert [n for n, v in names.items() if isinstance(v, types.ModuleType)] == []
    assert len(names) == 57
    assert {"make_family", "run_t1", "jack_probe", "schwarz_monomial"} <= set(names)


# ------------------------------------------------------- one parser a process

def _recording(monkeypatch, name):
    """Replace cli.<name> by a wrapper that records the parsed arguments."""
    real, seen = getattr(cli, name), []

    def record(args):
        seen.append(vars(args).copy())
        return real(args)

    monkeypatch.setattr(cli, name, record)
    return seen


def test_the_reused_parser_gives_the_defaults_back(tmp_path, monkeypatch, capsys):
    seen = _recording(monkeypatch, "cmd_verify")
    base = ["verify", "--theorem", "1", "--family", "ex1_high", "--beta", "2.5"]
    out = str(tmp_path / "r.json")
    assert cli.main(base + ["--radii", "0.3,0.6", "--angles", "64", "--threads", "2",
                            "--out", out]) == 0
    assert cli.main(base) == 0
    keys = ("radii", "angles", "threads", "out")
    assert [seen[0][k] for k in keys] == [(0.3, 0.6), 64, 2, out]
    assert [seen[1][k] for k in keys] == [cli.DEFAULT_RADII, cli.DEFAULT_ANGULAR_COUNT,
                                          1, None]
    config = json.loads(capsys.readouterr().out)["config"]
    assert (config["radii"], config["angles"]) == ([0.5, 0.9, 0.99], 4096)


def test_a_command_replaced_after_the_first_call_is_the_one_that_runs(tmp_path,
                                                                     monkeypatch):
    argv = ["jack", "--w", "monomial:3", "--r", "0.9", "--n", "256",
            "--out", str(tmp_path / "j.txt")]
    assert cli.main(argv) == 0
    calls = []
    monkeypatch.setattr(cli, "cmd_jack", lambda args: calls.append(args.w) or 7)
    assert cli.main(argv) == 7
    assert calls == ["monomial:3"]


@pytest.mark.parametrize("argv, code", [
    (["--version"], 0),
    (["proof-scan", "--theorem", "7", "--beta", "2.5"], 2),
    (["proof-scan", "--beta", "2.5"], 2),
    (["no-such-command"], 2),
], ids=["version", "bad-choice", "missing-required", "unknown-command"])
def test_system_exit_leaves_the_parser_working(capsys, argv, code):
    scan = ["proof-scan", "--theorem", "1", "--beta", "2.5", "--theta-steps", "256"]
    assert cli.main(scan) == 0
    expected = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == code
    capsys.readouterr()
    assert cli.main(scan) == 0
    assert capsys.readouterr().out == expected


def test_the_parser_is_built_once_per_process(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_parser", None)
    real, built = cli.build_parser, []

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    svg = str(tmp_path / "p.svg")
    for argv in (
        ["verify", "--theorem", "2", "--family", "ex2_neg", "--beta=-2"] + FAST,
        ["sweep", "--theorem", "1", "--family", "ex1_high", "--beta-min", "2",
         "--beta-max", "2.5", "--steps", "3", "--angles", "64"],
        ["proof-scan", "--theorem", "2", "--beta", "3", "--theta-steps", "256"],
        ["jack", "--w", "blaschke:0.5", "--r", "0.9", "--n", "256"],
        ["plot", "--theorem", "1", "--family", "ex1_low", "--beta", "1.5",
         "--angles", "64", "--out", svg],
        ["verify", "--theorem", "1", "--family", "ex1_high", "--beta", "3.5"] + FAST,
        ["proof-scan", "--theorem", "9", "--beta", "3"],
    ) * 3:
        run_cli(argv)
    assert len(built) == 1
    # the public builder still returns a parser of its own on every call
    assert real() is not real()


# ------------------------------------------------------- every flag is read

class _RecordingNamespace(argparse.Namespace):
    """A namespace that records the name of every attribute read from it."""

    def __init__(self):
        super().__init__()
        self._read = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_read").add(name)
        return object.__getattribute__(self, name)


@pytest.mark.parametrize("argv", [
    ["verify", "--theorem", "1", "--family", "ex1_high", "--beta", "2.5",
     "--radii", "0.5,0.9", "--angles", "64", "--threads", "2", "--timing"],
    ["sweep", "--theorem", "2", "--family", "ex2_neg", "--beta-min=-3",
     "--beta-max=-1", "--steps", "3", "--radii", "0.5,0.9", "--angles", "64"],
    ["proof-scan", "--theorem", "1", "--beta", "2.5", "--theta-steps", "256"],
    ["jack", "--w", "monomial:3", "--r", "0.9", "--n", "256"],
    ["plot", "--theorem", "1", "--family", "ex1_low", "--beta", "1.5",
     "--radii", "0.5,0.9", "--angles", "64", "--window=-0.5:2.5:-1.5:1.5"],
], ids=lambda argv: argv[0])
def test_every_flag_a_command_parses_is_read(tmp_path, argv):
    args = _RecordingNamespace()
    cli.build_parser().parse_args(argv + ["--out", str(tmp_path / "report")],
                                  namespace=args)
    set_by_parser = set(vars(args)) - {"_read", "command"}
    args._read.clear()  # the parser reads its own defaults back
    assert getattr(cli, "cmd_" + argv[0].replace("-", "_"))(args) in (0, 1)
    assert set_by_parser - args._read == set()


@pytest.mark.parametrize("command", [
    ["sweep", "--theorem", "1", "--family", "ex1_high", "--beta-min", "2",
     "--beta-max", "2.5", "--steps", "3", "--angles", "64"],
    ["plot", "--theorem", "1", "--family", "ex1_high", "--beta", "2", "--angles", "64"],
], ids=lambda argv: argv[0])
def test_threads_is_a_verify_flag_only(tmp_path, capsys, command):
    out = tmp_path / "report"
    assert run_cli(command + ["--threads", "2", "--out", str(out)]) == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
    assert not out.exists()
