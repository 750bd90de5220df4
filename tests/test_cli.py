import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
              + base, capsys, "1 < beta < inf")
    _rejected(["plot", "--theorem", "1", "--family", "ex2_pos", "--beta", "1e300"]
              + base, capsys, "finite exponent mu")
    _rejected(["plot", "--theorem", "2", "--family", "builtin_halfplane",
               "--beta", "inf"] + base, capsys, "1 < beta <= 1e+150")
    assert not out.exists()


def test_jack_non_finite_beta_exit_code(capsys):
    _rejected(["jack", "--w", "induced:t2:ex2_pos:inf", "--r", "0.9"], capsys,
              "beta > 1")
    _rejected(["jack", "--w", "induced:t2:builtin_halfplane:inf", "--r", "0.9"],
              capsys, "-inf < beta < inf")


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
    assert "--threads: must be an integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "x"])
@pytest.mark.parametrize("argv", [
    ["verify", "--theorem", "1", "--family", "ex1_high", "--beta", "2.5",
     "--schwarz-tol"],
    ["proof-scan", "--theorem", "1", "--beta", "2.5", "--theta-steps", "256", "--tol"],
    ["jack", "--w", "monomial:3", "--r", "0.9", "--n", "256", "--imag-tol"],
    ["jack", "--w", "monomial:3", "--r", "0.9", "--n", "256", "--k-tol"],
], ids=["schwarz-tol", "tol", "imag-tol", "k-tol"])
def test_tolerance_outside_its_interval_exit_code(capsys, argv, tol):
    assert run_cli(argv[:-1] + [f"{argv[-1]}={tol}"]) == 2
    assert f"{argv[-1]}: must be a finite number in [0, inf) (got '{tol}')" in \
        capsys.readouterr().err


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
