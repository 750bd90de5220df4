"""The benchmark's span tracer (bench/spans.py) patches module globals of
stardisk by name.  A refactor that drops or renames one of them, or binds
it where the tracer cannot reach it, must fail here and not only in the
benchmark's own tests."""

import importlib.util
from pathlib import Path

from stardisk import cli

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_install_patches_every_name_and_uninstall_restores_it():
    tracer = _tracer()
    tracer.install()  # an AttributeError here names a global the tracer lost
    patched = list(tracer._saved)
    try:
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, (owner, attr)
    finally:
        tracer.uninstall()
    assert patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, (owner, attr)


def _traced_spans(argvs, out):
    """The spans of the CLI commands argvs, each run under the tracer."""
    tracer = _tracer()
    tracer.install()
    try:
        for argv in argvs:
            assert cli.main(argv + ["--out", out]) == 0, argv
    finally:
        tracer.uninstall()
    return tracer.spans


def _under(spans, name, parent):
    """Whether a span called name has an ancestor called parent."""
    by_id = {s[0]: s for s in spans}
    for span in spans:
        if span[2] != name:
            continue
        up = span
        while up[1]:
            up = by_id[up[1]]
            if up[2] == parent:
                return True
    return False


def test_traced_commands_reach_the_patched_names(tmp_path):
    spans = _traced_spans([
        ["verify", "--theorem", "1", "--family", "ex1_high", "--beta", "2.5",
         "--angles", "256", "--threads", "2"],
        ["proof-scan", "--theorem", "1", "--beta", "2.5", "--theta-steps", "256"],
        ["proof-scan", "--theorem", "2", "--beta", "3", "--theta-steps", "256"],
        ["jack", "--w", "induced:t2:ex2_pos:3", "--r", "0.9", "--n", "256"],
    ], str(tmp_path / "out.txt"))
    # span names are those of the modules defining the patched functions
    for name, parent in (
        ("analytic_core.eval_jet", "criteria.run_t1"),  # in the pool's workers
        ("analytic_core.mobius_invert_t1", "criteria.run_t1"),
        ("search.golden_min", "criteria.proof_extremal_t1"),
        ("search.golden_max", "criteria.proof_extremal_t2"),
        ("criteria.proof_boundary_value_t2", "search.golden_max"),
        ("jack.boundary_argmax", "jack.jack_probe"),
        ("search.golden_max", "jack.boundary_argmax"),
        ("analytic_core.mobius_invert_t2", "jack.w"),
        ("jack.w", "search.golden_max"),
    ):
        assert _under(spans, name, parent), (name, parent)


def test_a_traced_sweep_reaches_the_patched_names(tmp_path):
    spans = _traced_spans([
        ["sweep", "--theorem", "1", "--family", "ex1_high", "--beta-min", "2.1",
         "--beta-max", "2.9", "--steps", "8", "--angles", "256"],
    ], str(tmp_path / "out.txt"))
    for name in ("criteria.t1_bound", "analytic_core.mobius_invert_t1",
                 "families.make_family", "cli._emit"):
        assert _under(spans, name, "cli.cmd_sweep"), name
    # a builtin sweep is one handle repeated, whose blocks take its eval_jet
    spans = _traced_spans([
        ["sweep", "--theorem", "1", "--family", "builtin_quadratic", "--beta-min", "1.5",
         "--beta-max", "2.5", "--steps", "16", "--angles", "256"],
    ], str(tmp_path / "out.txt"))
    assert _under(spans, "analytic_core.eval_jet", "cli.cmd_sweep")
