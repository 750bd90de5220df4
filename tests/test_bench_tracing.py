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


def test_traced_commands_reach_the_patched_names(tmp_path):
    out = str(tmp_path / "out.txt")
    tracer = _tracer()
    tracer.install()
    try:
        for argv in (
            ["verify", "--theorem", "1", "--family", "ex1_high", "--beta", "2.5",
             "--angles", "256", "--threads", "2"],
            ["proof-scan", "--theorem", "1", "--beta", "2.5", "--theta-steps", "256"],
            ["proof-scan", "--theorem", "2", "--beta", "3", "--theta-steps", "256"],
            ["jack", "--w", "induced:t2:ex2_pos:3", "--r", "0.9", "--n", "256"],
        ):
            assert cli.main(argv + ["--out", out]) == 0, argv
    finally:
        tracer.uninstall()
    by_id = {s[0]: s for s in tracer.spans}

    def under(name, parent):
        """Whether a span called name has an ancestor called parent."""
        for span in tracer.spans:
            if span[2] != name:
                continue
            up = span
            while up[1]:
                up = by_id[up[1]]
                if up[2] == parent:
                    return True
        return False

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
        assert under(name, parent), (name, parent)
