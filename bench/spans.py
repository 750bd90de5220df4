"""Span tracing of the stardisk layers from outside the program.

``Tracer.install`` replaces each public function of a layer with a wrapper
that records a span, in every namespace a caller looks it up (the CLI calls
``cli.run_t1``, the criteria code calls ``criteria.convexity_p``), and
``uninstall`` puts the originals back.  A span is (id, parent id, name,
start ns, end ns, n1, n2); the counts n1/n2 are read from the call's
arguments and result (points, bytes, evaluations).  Parents follow a
context variable, which the thread pool of ``criteria`` is made to carry
into its workers, so spans of worker threads nest under the run that
started them.  Spans stay in memory until ``layer_metrics`` reads them.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter_ns

import numpy as np


def _nbytes(*values) -> int:
    total = 0
    for v in values:
        if isinstance(v, np.ndarray):
            total += v.nbytes
        elif isinstance(v, tuple):
            total += _nbytes(*v)
    return total


def _result_bytes(args, kwargs, result):
    """Bytes of the arrays a call returns, unless it was handed them: each
    array is counted once, by the call that computed it, and not again as
    the input of the calls it is passed on to."""
    handed = {id(v) for v in (*args, *kwargs.values())}
    parts = result if isinstance(result, tuple) else (result,)
    return 0, _nbytes(*(v for v in parts if id(v) not in handed))


def _jet_points(args, kwargs, result):
    return int(np.size(args[1])), _result_bytes(args, kwargs, result)[1]


def _grid_points(args, kwargs, result):
    grid = args[2]
    return len(grid.radii) * grid.angular_count, 0


def _theta_samples(args, kwargs, result):
    return int(args[1]), 0


def _text_bytes(args, kwargs, result):
    return len(args[0].encode()), 0


def _svg_size(args, kwargs, result):
    curves = args[1]
    return sum(np.size(pts) + 1 for _, pts in curves), len(result.encode())


def self_times(spans) -> dict:
    """Self time (ns) of each span id: its duration minus the part of its
    interval that its child spans cover (children of different threads may
    overlap; their union counts once)."""
    children = {}
    for s in spans:
        children.setdefault(s[1], []).append((s[3], s[4]))
    out = {}
    for sid, _, _, start, end, _, _ in spans:
        covered, reach = 0, start
        for a, b in sorted(children.get(sid, ())):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out[sid] = end - start - covered
    return out


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("bench_span", default=0)
        self._saved = []

    def call(self, name, fn, args, kwargs, count=None):
        sid = next(self._ids)
        parent = self._current.get()
        token = self._current.set(sid)
        n1 = n2 = 0
        start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            if count is not None:
                n1, n2 = count(args, kwargs, result)
            return result
        finally:
            end = perf_counter_ns()
            self._current.reset(token)
            # list.append is atomic, so worker threads may record too
            self.spans.append((sid, parent, name, start, end, n1, n2))

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)

        return traced

    def wrap_golden(self, name, fn):
        """Golden-section search: counts the evaluations of the ``fun`` it
        is handed, in the span's n1."""

        @functools.wraps(fn)
        def traced(fun, *args, **kwargs):
            evals = [0]

            def counted(t):
                evals[0] += 1
                return fun(t)

            return self.call(name, fn, (counted,) + args, kwargs,
                             lambda *_: (evals[0], 0))

        return traced

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        from stardisk import analytic_core, cli, criteria, jack

        class ContextPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                ctx = contextvars.copy_context()
                return super().submit(ctx.run, fn, *args, **kwargs)

        def traced(owner, attr, count=None):
            fn = getattr(owner, attr)
            # the span is named after the defining module, i.e. the layer
            name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
            if name.startswith("search."):
                self._patch(owner, attr, self.wrap_golden(name, fn))
                return
            if count is None and name.startswith("analytic_core."):
                count = _jet_points if attr == "eval_jet" else _result_bytes
            self._patch(owner, attr, self.wrap(name, fn, count))

        for attr in ("main", "build_parser", "cmd_verify", "cmd_sweep", "cmd_proof_scan",
                     "cmd_jack", "cmd_plot", "handle_from_name", "schwarz_from_spec",
                     "make_family", "t1_bound", "t2_bound", "starlike_q", "target_disk"):
            traced(cli, attr)
        traced(cli, "_emit", _text_bytes)
        traced(cli, "render_curves", _svg_size)
        for attr in ("run_t1", "run_t2"):
            traced(cli, attr, _grid_points)
        for attr in ("proof_extremal_t1", "proof_extremal_t2"):
            traced(cli, attr, _theta_samples)
        for attr in ("t1_bound", "t2_bound", "convexity_p", "starlike_q", "mobius_invert_t1",
                     "mobius_invert_t2", "golden_min", "golden_max",
                     "proof_boundary_value_t1", "proof_boundary_value_t2"):
            traced(criteria, attr)
        self._patch(criteria, "ThreadPoolExecutor", ContextPool)
        for attr in ("jack_probe", "boundary_argmax", "monomial", "blaschke", "induced",
                     "starlike_q", "mobius_invert_t1", "mobius_invert_t2", "golden_max"):
            traced(jack, attr)
        call = jack.SchwarzFunction.__call__
        self._patch(jack.SchwarzFunction, "__call__", self.wrap("jack.w", call))
        traced(analytic_core, "eval_jet")

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def layer_metrics(spans, grid_points: int) -> dict:
    """Per-layer metrics of a traced command list; see BENCHMARK.json.
    Times are per command (ms/op); counts are totals over the list."""
    selfs = self_times(spans)
    by_name, self_ns = {}, {}
    for s in spans:
        by_name.setdefault(s[2], []).append(s)
        layer = s[2].split(".", 1)[0]
        self_ns[layer] = self_ns.get(layer, 0) + selfs[s[0]]

    def count(*names):
        return sum(len(by_name.get(n, ())) for n in names)

    def total(index, *names):
        return sum(s[index] for n in names for s in by_name.get(n, ()))

    ops = count("cli.main")

    def per_op_ms(ns):
        return ns / 1e6 / ops if ops else 0.0

    core = [s for s in spans if s[2].startswith("analytic_core.")]
    jet_points = total(5, "analytic_core.eval_jet")
    search = [n for n in by_name if n.startswith("search.")]
    metrics = {
        "analytic_core.jet_points": (jet_points, "count"),
        "analytic_core.jet_points_per_grid_point": (
            jet_points / grid_points if grid_points else 0.0, "ratio"),
        "analytic_core.self_ms": (per_op_ms(self_ns.get("analytic_core", 0)), "ms/op"),
        "analytic_core.ns_per_point": (
            self_ns.get("analytic_core", 0) / jet_points if jet_points else 0.0, "ns"),
        "analytic_core.mb_computed": (sum(s[6] for s in core) / 1e6, "MB"),
        "analytic_core.calls": (len(core), "count"),
        "criteria.runs": (count("criteria.run_t1", "criteria.run_t2"), "count"),
        "criteria.grid_points": (total(5, "criteria.run_t1", "criteria.run_t2"), "count"),
        "criteria.self_ms": (per_op_ms(self_ns.get("criteria", 0)), "ms/op"),
        "criteria.proof_scans": (
            count("criteria.proof_extremal_t1", "criteria.proof_extremal_t2"), "count"),
        "criteria.theta_samples": (
            total(5, "criteria.proof_extremal_t1", "criteria.proof_extremal_t2"), "count"),
        "families.make_family_calls": (count("families.make_family"), "count"),
        "families.self_ms": (per_op_ms(self_ns.get("families", 0)), "ms/op"),
        "search.golden_calls": (count(*search), "count"),
        "search.golden_evals": (total(5, *search), "count"),
        "search.self_ms": (per_op_ms(self_ns.get("search", 0)), "ms/op"),
        "jack.probes": (count("jack.jack_probe"), "count"),
        "jack.w_evals": (count("jack.w"), "count"),
        "jack.self_ms": (per_op_ms(self_ns.get("jack", 0)), "ms/op"),
        "svgplot.renders": (count("svgplot.render_curves"), "count"),
        "svgplot.points": (total(5, "svgplot.render_curves"), "count"),
        "svgplot.bytes_out": (total(6, "svgplot.render_curves"), "bytes"),
        "svgplot.self_ms": (per_op_ms(self_ns.get("svgplot", 0)), "ms/op"),
        "cli.ops": (ops, "count"),
        "cli.build_parser_ms": (
            per_op_ms(sum(s[4] - s[3] for s in by_name.get("cli.build_parser", ()))),
            "ms/op"),
        "cli.self_ms": (per_op_ms(self_ns.get("cli", 0)), "ms/op"),
        "cli.bytes_out": (total(5, "cli._emit"), "bytes"),
    }
    return metrics
