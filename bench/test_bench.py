"""Tests of the benchmark itself: seeded generation, oracles that can fail,
percentile and self-time arithmetic, and traced counts that repeat.

    python3 -m pytest bench -q
"""

import json
import random

import numpy as np
import pytest

import run
import spans
import workloads
from workloads import Command

cli = run.import_cli()
import oracles  # noqa: E402  (needs the src/ path that import_cli adds)


def first_blocks(name, seed, count=3):
    stream = workloads.blocks(name, seed, "unused.svg")
    return [[c.argv for c in next(stream)] for _ in range(count)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_seeded(name):
    assert first_blocks(name, 7) == first_blocks(name, 7)
    assert first_blocks(name, 7) != first_blocks(name, 8)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_block_has_the_same_size_mix(name):
    def mix(seed):
        stream = workloads.blocks(name, seed, "unused.svg")
        return [sorted((c.kind, c.points) for c in next(stream)) for _ in range(4)]

    a, b = mix(1), mix(2)
    assert all(block == a[0] for block in a + b)


@pytest.mark.parametrize("name", ["verify_fine", "sweep_coarse"])
def test_families_rotate_over_the_size_classes(name):
    # any four consecutive blocks give each size class each family once
    stream = workloads.blocks(name, 5, "unused.svg")
    next(stream)
    seen = sorted((c.points, c.params["angles"], c.params["family"])
                  for _ in range(4) for c in next(stream))
    classes = sorted({(p, a) for p, a, _ in seen})
    per_pair = 2 if name == "verify_fine" else 1
    assert seen == sorted((p, a, f) for p, a in classes
                          for f in workloads.FAMILIES for _ in range(per_pair))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_negative_numbers_are_attached_to_their_option(name):
    for block in first_blocks(name, 3, 20):
        for argv in block:
            assert not any(tok[:2] in ("-0", "-1", "-2", "-3", "-4", "-5", "-6", "-7",
                                       "-8", "-9", "-.") for tok in argv), argv


@pytest.mark.parametrize("bits", [0, 2**52 - 1])
def test_draws_stay_inside_open_intervals_at_the_extreme_bits(bits):
    class Extreme:
        def getrandbits(self, k):
            return bits

    for lo, hi in [(1.0, 3.0), (-8.0, -1.0), (1.0, 8.0), (0.3, 0.95)]:
        assert lo < workloads._inside(Extreme(), lo, hi) < hi


def run_one(cmd):
    """Run one command through a fresh Client; return it and (rc, stdout)."""
    client, seen = run.Client(cli), []
    check = client._check
    client._check = lambda c, rc, text: (seen.append((rc, text)), check(c, rc, text))
    client.run(cmd)
    return client, seen[0]


def small_verify(theorem=1, family="ex1_high", beta=2.5):
    radii = (0.5, 0.9, 0.999)
    argv = ("verify", "--theorem", str(theorem), "--family", family, f"--beta={beta!r}",
            "--radii", "0.5,0.9,0.999", "--angles", "512")
    return Command("verify", argv, 3 * 512, 3 * 512, dict(
        theorem=theorem, family=family, beta=beta, radii=radii, angles=512))


@pytest.mark.parametrize("theorem,family,beta", [
    (1, "ex1_high", 2.5), (1, "ex1_low", 1.5), (2, "ex2_pos", 4.0), (2, "ex2_neg", -3.0)])
def test_verify_oracle_accepts_the_program_and_rejects_a_perturbed_report(
        theorem, family, beta):
    cmd = small_verify(theorem, family, beta)
    client, (rc, text) = run_one(cmd)
    assert client.failures == [] and rc == 0
    assert max(client.rel_errors) < 1e-12
    report = json.loads(text)
    report["hypothesis"]["per_radius"][1]["extreme"] *= 1.0 + 1e-6
    with pytest.raises(oracles.Mismatch, match="extreme at r=0.9"):
        oracles.check(cmd, rc, json.dumps(report))
    with pytest.raises(oracles.Mismatch, match="exit code"):
        oracles.check(cmd, 1, text)


def test_threads_pair_must_be_byte_identical():
    cmd = small_verify()
    client, (rc, text) = run_one(cmd)
    pair = dict(cmd.params, pair=1)
    client._check(Command("verify", cmd.argv, 0, 0, pair), rc, text)
    client._check(Command("verify", cmd.argv, 0, 0, pair), rc, text)
    with pytest.raises(oracles.Mismatch, match="reports differ"):
        client._check(Command("verify", cmd.argv, 0, 0, pair), rc, text.replace(" ", "  "))


def test_sweep_oracle_rejects_a_perturbed_row():
    argv = ("sweep", "--theorem", "2", "--family", "ex2_neg", "--beta-min=-5.0",
            "--beta-max=-1.5", "--steps", "4", "--angles", "256")
    cmd = Command("sweep", argv, 0, 0, dict(
        theorem=2, family="ex2_neg", beta_min=-5.0, beta_max=-1.5, steps=4,
        radii=workloads.DEFAULT_RADII, angles=256))
    client, (rc, text) = run_one(cmd)
    assert client.failures == []
    lines = text.splitlines()
    cells = lines[2].split(",")
    cells[4] = repr(float(cells[4]) * (1.0 + 1e-6))
    lines[2] = ",".join(cells)
    with pytest.raises(oracles.Mismatch, match="max_abs_w"):
        oracles.check(cmd, rc, "\n".join(lines) + "\n")


def test_proof_scan_oracle_rejects_a_wrong_bound():
    beta = 1.7
    argv = ("proof-scan", "--theorem", "1", f"--beta={beta!r}", "--theta-steps", "4096")
    cmd = Command("proof-scan", argv, 4096, 0, dict(theorem=1, beta=beta, steps=4096))
    client, (rc, text) = run_one(cmd)
    assert client.failures == []
    wrong = text.replace("bound ", "bound 1", 1)
    with pytest.raises(oracles.Mismatch, match="bound"):
        oracles.check(cmd, rc, wrong)


@pytest.mark.parametrize("spec,params", [
    ("monomial:3", dict(w="monomial", order=3)),
    ("blaschke:(0.3-0.2j)", dict(w="blaschke", a=0.3 - 0.2j)),
    ("induced:t2:ex2_pos:3.5", dict(w="induced", theorem=2, family="ex2_pos", beta=3.5)),
])
def test_jack_oracle_rejects_a_perturbed_ratio(spec, params):
    cmd = Command("jack", ("jack", "--w", spec, "--r=0.8"), 1024, 0,
                  dict(params, r=0.8, n=1024))
    client, (rc, text) = run_one(cmd)
    assert client.failures == []
    fields = dict(line.split(" ", 1) for line in text.splitlines())
    k = float(fields["k_estimate"]) + 1e-3
    wrong = text.replace(fields["ratio_re"], repr(k)).replace(fields["k_estimate"], repr(k))
    with pytest.raises(oracles.Mismatch):
        oracles.check(cmd, rc, wrong)


def test_plot_oracle_rejects_a_missing_point(tmp_path):
    out = tmp_path / "p.svg"
    beta = 2.5
    argv = ("plot", "--theorem", "1", "--family", "ex1_high", f"--beta={beta!r}",
            "--angles", "64", "--out", str(out))
    params = dict(theorem=1, family="ex1_high", beta=beta,
                  radii=workloads.DEFAULT_RADII, angles=64, out=str(out))
    cmd = Command("plot", argv, 0, 0, params)
    client, (rc, _) = run_one(cmd)
    assert client.failures == []
    svg = out.read_text()
    start = svg.index('points="') + len('points="')
    out.write_text(svg[:start] + svg[svg.index(" ", start) + 1:])
    with pytest.raises(oracles.Mismatch, match="points at r=0.5"):
        oracles.check(cmd, rc, "")


def test_a_crash_or_usage_error_counts_as_failed():
    client = run.Client(cli)
    client.run(Command("verify", ("verify", "--theorem", "1"), 0, 0, {}))
    assert client.attempted == 1 and len(client.failures) == 1


def test_tail_percentile_arithmetic():
    lat = [float(v) for v in range(1, 101)]
    random.Random(0).shuffle(lat)
    assert run.percentile(lat, 50) == pytest.approx(50.5)
    assert run.percentile(lat, 90) == pytest.approx(90.1)
    assert sum(v > run.percentile(lat, 90) for v in lat) == 10
    for name, q in workloads.TAIL_PERCENTILE.items():
        assert q in (50.0, 75.0, 90.0, 95.0, 99.0), name


def test_self_time_subtracts_the_union_of_children():
    # (id, parent, name, start, end, n1, n2); children 2 and 3 overlap as
    # two worker threads would, 4 is nested in 2
    spans_ = [
        (1, 0, "criteria.run_t1", 0, 100, 0, 0),
        (2, 1, "analytic_core.convexity_p", 10, 30, 0, 0),
        (3, 1, "analytic_core.starlike_q", 20, 50, 0, 0),
        (4, 2, "analytic_core.eval_jet", 12, 18, 0, 0),
        (5, 1, "analytic_core.mobius_invert_t1", 90, 120, 0, 0),
    ]
    assert spans.self_times(spans_) == {1: 100 - 40 - 10, 2: 14, 3: 30, 4: 6, 5: 30}


def traced(cmds):
    client, tracer = run.Client(cli), spans.Tracer()
    tracer.install()
    try:
        for cmd in cmds:
            client.run(cmd)
    finally:
        tracer.uninstall()
    assert client.failures == []
    return spans.layer_metrics(tracer.spans, sum(c.grid_points for c in cmds))


def mixed_commands():
    return [
        small_verify(),
        Command("verify", small_verify().argv + ("--threads", "2"), 0, 3 * 512,
                small_verify().params),
        Command("proof-scan", ("proof-scan", "--theorem", "2", "--beta=-2.0",
                               "--theta-steps", "4096"), 4096, 0,
                dict(theorem=2, beta=-2.0, steps=4096)),
        Command("jack", ("jack", "--w", "induced:t1:ex1_low:1.5", "--r=0.9"), 1024, 0,
                dict(w="induced", theorem=1, family="ex1_low", beta=1.5, r=0.9, n=1024)),
    ]


def test_traced_counts_repeat_exactly_and_tracing_is_removed():
    original = cli.main
    a, b = traced(mixed_commands()), traced(mixed_commands())
    assert cli.main is original
    for name in ("analytic_core.jet_points", "analytic_core.calls", "criteria.runs",
                 "search.golden_calls", "search.golden_evals", "jack.w_evals",
                 "jack.probes", "cli.ops", "cli.bytes_out"):
        assert a[name] == b[name], name
    assert a["cli.ops"][0] == 4 and a["criteria.runs"][0] == 2
    assert a["search.golden_calls"][0] == 2 and a["search.golden_evals"][0] > 40


def test_verify_evaluates_the_jet_twice_per_grid_point():
    # starlike_q and convexity_p each evaluate the jet; the origin adds two
    ratio = traced([small_verify()])["analytic_core.jet_points_per_grid_point"][0]
    assert ratio == (2 * 3 * 512 + 2) / (3 * 512)


def test_computed_bytes_count_each_array_once():
    # starlike_q computes q and hands z on to eval_jet, which computes the
    # three jet arrays: four arrays of z's size, z itself not counted again
    from stardisk.families import FamilySpec, make_family

    fh = make_family(FamilySpec("ex1_low", 1.5))
    z = 0.5 * np.exp(2j * np.pi * np.arange(256) / 256)
    tracer = spans.Tracer()
    tracer.install()
    try:
        cli.starlike_q(fh, z)
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer.spans, z.size)
    assert metrics["analytic_core.mb_computed"][0] == 4 * z.nbytes / 1e6
