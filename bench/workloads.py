"""Seeded workload generators for the stardisk benchmark.

Every workload is an endless stream of *blocks*.  A block holds one command
of every size class of the workload, in a seeded random order, so that any
run made of whole blocks has the same mix of command sizes whatever the
seed.  The families (whose costs differ by up to 1.5x) rotate over the
size classes from one block to the next, so that every run of a few blocks
or more gives each size class each family about equally often.  The seed
varies beta, the radii, the radius of a probe, the Blaschke zero and the
order.  The program only ever sees the argv lists; the ``Command`` records
keep the parameters the oracles need.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

# family -> (theorem, admissible beta interval); the draw stays strictly
# inside the interval, the CLI accepts both ends where the paper does.
FAMILIES = {
    "ex1_high": (1, 2.0, 3.0),
    "ex1_low": (1, 1.0, 2.0),
    "ex2_pos": (2, 1.0, 8.0),
    "ex2_neg": (2, -8.0, -1.0),
}
DEFAULT_RADII = (0.5, 0.9, 0.99)
DEFAULT_ANGLES = 4096
JACK_SAMPLES = 1024


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what the oracles need to check its output.

    ``points`` is the evaluation work the command asks for, fixed by its
    arguments: radii x angles x betas for verify/sweep, theta samples for
    proof-scan and jack, polyline points for plot.  ``grid_points`` is the
    part of it that lies on a (radii x angles) grid of the function under
    test, the base of ``analytic_core.jet_points_per_grid_point``.
    """

    kind: str
    argv: tuple
    points: int
    grid_points: int = 0
    params: dict = field(default_factory=dict)


def _inside(rng: random.Random, lo: float, hi: float) -> float:
    """Uniform draw from the open interval (lo, hi)."""
    x = lo + (hi - lo) * (rng.getrandbits(52) + 0.5) / 2.0**52
    # the extreme draws can round onto an end point
    return min(max(x, math.nextafter(lo, hi)), math.nextafter(hi, lo))


def _beta(rng: random.Random, family: str) -> float:
    _, lo, hi = FAMILIES[family]
    return _inside(rng, lo, hi)


def _opt(name: str, value: float) -> str:
    # "--beta=-2.5" form: argparse reads a separate "-2.5" as an option.
    return f"--{name}={value!r}"


def _rotate(choices, index: int, block: int):
    """The choice for size class ``index`` in block number ``block``: over
    len(choices) consecutive blocks each class gets each choice once."""
    return choices[(index + block) % len(choices)]


def _verify(rng, family, angles, n_radii, threads_first):
    theorem = FAMILIES[family][0]
    beta = _beta(rng, family)
    inner = sorted(rng.sample(range(200, 990), n_radii - 1))
    radii = tuple(k / 1000.0 for k in inner) + (0.999,)
    base = (
        "verify", "--theorem", str(theorem), "--family", family, _opt("beta", beta),
        "--radii", ",".join(repr(r) for r in radii), "--angles", str(angles),
    )
    params = dict(theorem=theorem, family=family, beta=beta, radii=radii,
                  angles=angles, pair=rng.getrandbits(64))
    points = len(radii) * angles
    return [
        Command("verify", base + ("--threads", str(t)), points, points,
                dict(params, threads=t))
        for t in (threads_first, 3 - threads_first)
    ]


def verify_fine(rng: random.Random, block: int):
    """12 commands: 2^16..2^18 angles x 3..4 radii, each as a --threads 1 /
    --threads 2 pair with identical flags otherwise."""
    fams = sorted(FAMILIES)
    classes = [(_rotate(fams, i, block), a, n)
               for i, (a, n) in enumerate((a, n) for a in (2**16, 2**17, 2**18)
                                          for n in (3, 4))]
    rng.shuffle(classes)
    out = []
    for family, angles, n_radii in classes:
        out += _verify(rng, family, angles, n_radii, rng.choice((1, 2)))
    return out


def sweep_coarse(rng: random.Random, block: int):
    """9 commands: 32/64/128 beta steps x 256/512/1024 angles."""
    fams = sorted(FAMILIES)
    classes = [(_rotate(fams, i, block), s, a)
               for i, (s, a) in enumerate((s, a) for s in (32, 64, 128)
                                          for a in (256, 512, 1024))]
    rng.shuffle(classes)
    out = []
    for family, steps, angles in classes:
        theorem = FAMILIES[family][0]
        lo, hi = sorted((_beta(rng, family), _beta(rng, family)))
        argv = (
            "sweep", "--theorem", str(theorem), "--family", family,
            _opt("beta-min", lo), _opt("beta-max", hi), "--steps", str(steps),
            "--angles", str(angles),
        )
        points = len(DEFAULT_RADII) * angles * steps
        out.append(Command("sweep", argv, points, points, dict(
            theorem=theorem, family=family, beta_min=lo, beta_max=hi,
            steps=steps, radii=DEFAULT_RADII, angles=angles)))
    return out


def _t2_beta(rng):
    return _beta(rng, rng.choice(("ex2_pos", "ex2_neg")))


def interactive_mix(rng: random.Random, block: int, out_path: str):
    """11 commands, all other sizes at the CLI defaults: 5 proof-scans (both
    theorems at 4096 theta, both and one more at 65536), 4 jack probes
    (monomial, Blaschke, induced by a theorem-1 and a theorem-2 family)
    and 2 plots (both theorems).  By cost the block sorts into 4 cheap
    commands, the 3 large proof-scans and 4 dearer ones, so the median
    latency falls in the middle of one class instead of on a gap between
    two."""
    out = []
    for theorem, steps in ((1, 4096), (2, 4096), (1, 65536), (2, 65536),
                           (_rotate((1, 2), 0, block), 65536)):
        beta = _inside(rng, 1.0, 3.0) if theorem == 1 else _t2_beta(rng)
        argv = ("proof-scan", "--theorem", str(theorem), _opt("beta", beta),
                "--theta-steps", str(steps))
        out.append(Command("proof-scan", argv, steps, 0,
                             dict(theorem=theorem, beta=beta, steps=steps)))

    def probe(spec, **params):
        r = _inside(rng, 0.3, 0.95)
        argv = ("jack", "--w", spec, _opt("r", r))
        return Command("jack", argv, JACK_SAMPLES, 0,
                       dict(params, r=r, n=JACK_SAMPLES))

    order = rng.randint(1, 8)
    out.append(probe(f"monomial:{order}", w="monomial", order=order))
    a = complex(_inside(rng, -0.6, 0.6), _inside(rng, -0.6, 0.6))
    out.append(probe(f"blaschke:{a!r}", w="blaschke", a=a))
    for families in (("ex1_high", "ex1_low"), ("ex2_pos", "ex2_neg")):
        family = _rotate(families, 0, block)
        theorem, beta = FAMILIES[family][0], _beta(rng, family)
        out.append(probe(f"induced:t{theorem}:{family}:{beta!r}", w="induced",
                           theorem=theorem, family=family, beta=beta))

    for theorem, families in ((1, ("ex1_high", "ex1_low")), (2, ("ex2_pos", "ex2_neg"))):
        family = _rotate(families, 1, block)
        beta = _beta(rng, family)
        argv = ("plot", "--theorem", str(theorem), "--family", family,
                _opt("beta", beta), "--out", out_path)
        grid = len(DEFAULT_RADII) * DEFAULT_ANGLES
        out.append(Command(
            "plot", argv, len(DEFAULT_RADII) * (DEFAULT_ANGLES + 1), grid,
            dict(theorem=theorem, family=family, beta=beta, radii=DEFAULT_RADII,
                 angles=DEFAULT_ANGLES, out=out_path)))
    rng.shuffle(out)
    return out


WORKLOADS = {
    "verify_fine": verify_fine,
    "sweep_coarse": sweep_coarse,
    "interactive_mix": interactive_mix,
}

# The tail percentile of each workload: the highest of 50/75/90/95/99 that
# leaves at least ten latency samples beyond it in every run at the seed
# commit (its runs time 70-100, 180-260 and 2200-3400 commands).  It is
# fixed here so that every commit is compared at the same percentile.
TAIL_PERCENTILE = {"verify_fine": 75.0, "sweep_coarse": 90.0, "interactive_mix": 99.0}

# Whole blocks run by a traced run: a fixed command list, so that the
# traced counts repeat exactly for a seed.
TRACE_BLOCKS = {"verify_fine": 2, "sweep_coarse": 4, "interactive_mix": 40}


def blocks(workload: str, seed: int, out_path: str):
    """Endless stream of blocks (lists of Command) of a workload; plots
    write their SVG to ``out_path``."""
    rng = random.Random(f"{workload}:{seed}")
    extra = (out_path,) if workload == "interactive_mix" else ()
    for block in itertools.count():
        yield WORKLOADS[workload](rng, block, *extra)
