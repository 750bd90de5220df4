"""Closed-loop benchmark of the stardisk command line.

    python3 bench/run.py --workload verify_fine --seed 1 --seconds 20 --trace 0

One simulated user issues one CLI command at a time by calling
``stardisk.cli.main(argv)`` in this process, and sends the next only when
the previous one has returned; threads are used only through the CLI's own
``--threads``.  The commands come from ``workloads.py``, generated from the
seed, and every output is checked by ``oracles.py``.  The program is
imported from ``src/`` of the checkout this file lives in.

``--trace 0`` runs whole blocks of commands until ``--seconds`` have passed
and reports the end-to-end metrics.  ``--trace 1`` runs each command of a
fixed list of blocks (``workloads.TRACE_BLOCKS``) once untraced and once
with the spans of ``spans.py`` installed, and reports the per-layer
metrics; the list does not depend on ``--seconds``, so that the counts
repeat exactly for a seed.  Human-readable lines (machine record, percentile and sample counts,
failing commands) come first; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 24  # setup_s samples per run, spread evenly over it
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import stardisk.cli\n"
    "stardisk.cli.build_parser()\n"
    "print(time.perf_counter() - t)\n"
)


def import_cli():
    """Import the CLI from this checkout's src/, and no other copy."""
    sys.path.insert(0, str(SRC))
    try:
        import stardisk
        import stardisk.cli
    except ImportError as exc:
        sys.exit(f"bench: cannot import stardisk from {SRC}: {exc}")
    if SRC.resolve() not in Path(stardisk.__file__).resolve().parents:
        sys.exit(f"bench: imported stardisk from {stardisk.__file__}, not from {SRC}")
    return stardisk.cli


def percentile(values, q: float) -> float:
    """Percentile with linear interpolation between order statistics."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def setup_sample() -> float:
    """Seconds a fresh interpreter takes to import stardisk.cli and build
    its parser."""
    done = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout)


def reference_rate() -> float:
    """Million points per second of a fixed numpy kernel (complex exp of
    2^16 points), sampled for about 0.2 s: a machine-drift diagnostic."""
    x = np.linspace(0.0, 2.0 * np.pi, 1 << 16)
    n, start = 0, time.perf_counter()
    while time.perf_counter() - start < 0.2:
        np.exp(1j * x)
        n += x.size
    return n / (time.perf_counter() - start) / 1e6


def machine() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fp
                        if ln.startswith("model name")), cpu)
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        with contextlib.suppress(OSError):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{kind[0].lower() if level == '1' else ''}"] = (
                (index / "size").read_text().strip())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


class Client:
    """Runs commands through ``cli.main`` and checks each output at once."""

    def __init__(self, cli):
        import oracles  # imports stardisk, so only after import_cli()

        self.cli, self.oracles = cli, oracles
        self.attempted, self.failures, self.rel_errors = 0, [], []
        self._pairs = {}

    def run(self, cmd) -> float:
        """Run one command; return its wall time in ms."""
        out, err = io.StringIO(), io.StringIO()
        rc, crash = None, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = self.cli.main(list(cmd.argv))
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # a crash is a failed command, not a stop
                crash = f"raised {exc!r}"
            ms = 1000.0 * (time.perf_counter() - start)
        self.attempted += 1
        try:
            if crash:
                raise self.oracles.Mismatch(crash)
            self._check(cmd, rc, out.getvalue())
        except Exception as exc:
            self.failures.append((cmd.argv, f"{exc}; stderr: {err.getvalue().strip()}"))
        return ms

    def _check(self, cmd, rc, text):
        pair = cmd.params.get("pair")
        if pair in self._pairs:
            # the same flags under another --threads (or run again): the
            # report bytes must match exactly
            if (rc, text) != self._pairs[pair]:
                raise self.oracles.Mismatch("reports differ between --threads 1 and 2")
            return
        if pair is not None:
            self._pairs[pair] = (rc, text)
        self.rel_errors += self.oracles.check(cmd, rc, text)


def run_untraced(client, stream, seconds: float):
    """Warm up with one block, then run whole blocks until ``seconds``
    have passed.  Between two commands, once every ``seconds /
    SETUP_SAMPLES``, a fresh interpreter is timed for setup_s, so that its
    samples spread over the whole run rather than catch one moment of it.
    Returns the blocks, as lists of (Command, ms), and the setup_s samples."""
    for cmd in next(stream):
        client.run(cmd)
    setup_sample()  # warms the bytecode cache
    done, setup = [], []
    start = due = time.perf_counter()
    interval = seconds / SETUP_SAMPLES
    while time.perf_counter() < start + seconds:
        block = []
        for cmd in next(stream):
            if time.perf_counter() >= due:
                setup.append(setup_sample())
                due += interval
            block.append((cmd, client.run(cmd)))
        done.append(block)
    return done, setup


def end_to_end(workload: str, done, setup: list) -> dict:
    lat = [ms for block in done for _, ms in block]
    tail_q = workloads.TAIL_PERCENTILE[workload]
    tail = percentile(lat, tail_q)
    beyond = sum(ms > tail for ms in lat)
    # rates over the whole run: a shared machine's speed can change in
    # spells of some seconds, and a total follows the share of the run
    # spent in each spell, where a median over blocks jumps from one
    # spell's rate to the other's
    seconds = sum(lat) / 1000.0
    points = sum(c.points for block in done for c, _ in block)
    print(f"latency_ms.p50 {percentile(lat, 50):.4f} ms (n={len(lat)})")
    print(f"latency_ms.tail {tail:.4f} ms (p{tail_q:g}, n={len(lat)}, {beyond} beyond)")
    if beyond < 10:
        print(f"warning: only {beyond} samples beyond p{tail_q:g}")
    print(f"ops_per_s, points_per_s: {len(lat)} commands, {points} points in "
          f"{seconds:.3f} s spent in commands ({len(done)} blocks)")
    print(f"setup_s median of {len(setup)} samples: {' '.join(f'{s:.4f}' for s in setup)}")
    return {
        "setup_s": (statistics.median(setup), "s"),
        "latency_ms.p50": (percentile(lat, 50), "ms"),
        "latency_ms.tail": (tail, "ms"),
        "ops_per_s": (len(lat) / seconds, "1/s"),
        "points_per_s": (points / seconds, "points/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(workload: str, client, stream) -> dict:
    for cmd in next(stream):
        client.run(cmd)
    fixed = [cmd for _ in range(workloads.TRACE_BLOCKS[workload]) for cmd in next(stream)]
    # each command runs untraced and then traced, so that machine drift
    # falls on both sides of trace.overhead_pct alike
    tracer = spans.Tracer()
    untraced_ms = traced_ms = 0.0
    for cmd in fixed:
        untraced_ms += client.run(cmd)
        tracer.install()
        try:
            traced_ms += client.run(cmd)
        finally:
            tracer.uninstall()
    print(f"traced {len(fixed)} commands: {untraced_ms:.1f} ms untraced, "
          f"{traced_ms:.1f} ms traced, {len(tracer.spans)} spans")
    metrics = spans.layer_metrics(tracer.spans, sum(c.grid_points for c in fixed))
    metrics["trace.overhead_pct"] = (100.0 * (traced_ms / untraced_ms - 1.0), "%")
    metrics["oracle_rel_err.max"] = (max(client.rel_errors, default=0.0), "ratio")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli = import_cli()
    OUT_DIR.mkdir(exist_ok=True)
    print("machine " + json.dumps(machine()))
    ref_start = reference_rate()
    stream = workloads.blocks(args.workload, args.seed, str(OUT_DIR / "plot.svg"))
    client = Client(cli)
    if args.trace:
        metrics = per_layer(args.workload, client, stream)
    else:
        metrics = end_to_end(args.workload, *run_untraced(client, stream, args.seconds))
    shutil.rmtree(OUT_DIR)
    ref_end = reference_rate()
    print(f"reference kernel {ref_start:.1f} -> {ref_end:.1f} Mpoints/s "
          f"({100.0 * (ref_end / ref_start - 1.0):+.1f}% drift)")
    rel = client.rel_errors
    print(f"oracle_rel_err.max {max(rel, default=0.0):.3g} over {len(rel)} Re p extremes")
    failed = len(client.failures)
    print(f"error_rate {failed}/{client.attempted} = {failed / client.attempted:.4g}")
    for cmd_argv, why in client.failures:
        print(f"FAILED stardisk {' '.join(cmd_argv)}\n  {why}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": client.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
