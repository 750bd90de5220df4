"""Run bench/run.py over several seeds and summarise each metric.

    python3 bench/collect.py --workload verify_fine --seeds 1-10 --seconds 20 \
        [--trace 1] [--out summary.json]

Runs one seed at a time (never in parallel, so runs do not compete for the
cores) and prints, per workload and metric, the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread: the
distance between the quartiles as a share of the median.  The reference
kernel rates each run prints at its start and end are kept with the
summary, to tell a slower machine from a slower program.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds_arg(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    summary = {}
    for workload in args.workload:
        runs, reference = [], []
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, check=True, timeout=900,
            )
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            runs.append(result)
            # "reference kernel A -> B Mpoints/s ...": the machine's speed
            # at the start and end of the run
            ref = next(ln.split()[2:5:2] for ln in lines if ln.startswith("reference kernel"))
            reference.append([float(x) for x in ref])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"reference kernel {ref[0]} -> {ref[1]} Mpoints/s", flush=True)
        metrics = {}
        for name, m in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = dict(summarise(values), unit=m["unit"])
            s = metrics[name]
            print(f"  {name:42s} median {s['median']:.6g} {m['unit']:9s} "
                  f"spread {100 * s['spread']:.1f}%")
        summary[workload] = {
            "seeds": args.seeds,
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "reference_kernel_mpoints_per_s": reference,
            "metrics": metrics,
        }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
