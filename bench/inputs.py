"""Seeded inputs for the three workloads.

A run repeats one seeded, shuffled op sequence.  Every sequence has the
same number of ops of each kind, so timings compare across seeds; the seed
draws the parameters and the order.  The n ops of a kind draw their main
parameter stratified, one from each n-th of its range, so every seed spreads
them over the range alike and the latency distribution moves little with
the seed.  Each repetition moves every input by a
small seeded jitter that leaves the op's cost unchanged, so no repetition can
be answered from a memo of an earlier result.  Ops are `[kind, params]`
pairs that the workload process maps onto library calls (see worker.py).
"""
from __future__ import annotations

import math
import random

# ops per sequence, by kind.  exact: the enumeration kernel and the order
# searches on warm systems; analytic: Perron and Mellin quadrature.  The
# counts put each tail percentile inside one kind's cluster of latencies
# (exact: zeta_dirichlet; analytic: perron_T1e4), not on the edge between
# two kinds, where the seed's draws would decide which side it reads.
EXACT_MIX = {
    "count_N_rational": 18,
    "count_N_gaussian": 18,
    "count_pi": 18,
    "psi": 18,
    "gap_window": 6,
    "stream_rational": 6,
    "stream_gaussian": 6,
    "zeta_dirichlet": 8,
    "counting_report": 1,
    "reconstruct": 10,
    "coincide": 2,
}
ANALYTIC_MIX = {
    "zeta_euler": 24,
    "phi_continued": 24,
    "perron_T1e3": 10,
    "perron_T1e4": 16,
    "continue_Gzeta": 10,
    "fe_residual": 24,
    "check_fe_mellin": 6,
    "mellin_G": 8,
}


def _stratum(rng: random.Random, i: int, n: int, lo: float, hi: float) -> float:
    """A uniform draw from the i-th of n equal parts of (lo, hi)."""
    return lo + (hi - lo) * (i + rng.random()) / n


def _s(rng: random.Random, i: int, n: int, re_lo: float, re_hi: float, im: float, avoid=(1.0,)) -> list[float]:
    """A point s = [re, im], re in the i-th of n parts of (re_lo, re_hi), |im| <= im,
    0.05 away from `avoid`."""
    while True:
        s = complex(_stratum(rng, i, n, re_lo, re_hi), rng.uniform(-im, im))
        if all(abs(s - a) >= 0.05 for a in avoid):
            return [s.real, s.imag]


def exact_op(rng: random.Random, kind: str, i: int, n: int) -> list:
    """Op i of the n ops of `kind` in an `exact` sequence."""
    system = ("rational", "gaussian")[i % 2]  # each kind splits evenly over both systems
    if kind in ("count_N_rational", "count_N_gaussian"):
        return [kind, {"x": _stratum(rng, i, n, 5e5, 1e6)}]
    if kind in ("count_pi", "psi"):
        return [kind, {"system": system, "x": _stratum(rng, i, n, 5e5, 1e6)}]
    if kind == "gap_window":
        return [kind, {"system": system, "x": _stratum(rng, i, n, 1.5e5, 2e5)}]
    if kind in ("stream_rational", "stream_gaussian"):
        return [kind, {"bound": _stratum(rng, i, n, 1e4, 1.2e4), "k": 2000}]
    if kind == "zeta_dirichlet":
        return [kind, {"system": system, "s": _s(rng, i, n, 2.0, 3.0, 10.0)}]
    if kind == "counting_report":
        # grid points n + offset, 1 <= n < grid_max, below the 1e4 horizon
        return [kind, {"grid_max": 10**4, "offset": 0.0}]
    if kind == "reconstruct":
        return [kind, {"p1": 2.0, "K": 20, "n": 10**4}]
    if kind == "coincide":
        return [kind, {"lam": _stratum(rng, i, n, 0.5, 3.0), "prefix": 3000}]
    raise ValueError(kind)


def analytic_op(rng: random.Random, kind: str, i: int, n: int) -> list:
    """Op i of the n ops of `kind` in an `analytic` sequence."""
    if kind == "zeta_euler":
        return [kind, {"s": _s(rng, i, n, 1.1, 3.0, 10.0)}]
    if kind == "phi_continued":
        return [kind, {"s": _s(rng, i, n, 0.85, 3.0, 10.0)}]
    if kind in ("perron_T1e3", "perron_T1e4"):
        # half-integers are gap-sited for the rationals: every g-integer is
        # an integer, so (x - 1/x^2, x + 1/x^2) holds none
        x = math.floor(_stratum(rng, i, n, 300.0, 4000.0)) + 0.5
        return [kind, {"x": x, "T": 1e3 if kind == "perron_T1e3" else 1e4}]
    if kind == "continue_Gzeta":
        return [kind, {"s": _s(rng, i, n, 0.25, 2.5, 2.0)}]
    if kind == "fe_residual":
        return [kind, {"x": math.exp(_stratum(rng, i, n, math.log(0.5), math.log(2.0)))}]
    if kind == "check_fe_mellin":
        return [kind, {"s": _s(rng, i, n, -1.5, 3.0, 2.0, avoid=(0.0, 1.0))}]
    if kind == "mellin_G":
        return [kind, {"kernel": ("exp", "gauss")[i % 2], "s": _s(rng, i, n, 0.2, 4.0, 5.0, avoid=())}]
    raise ValueError(kind)


WORKLOADS = {"exact": (EXACT_MIX, exact_op), "analytic": (ANALYTIC_MIX, analytic_op)}


def jitter(rng: random.Random, op: list) -> list:
    """The op at a nearby input of the same cost."""
    kind, p = op
    p = dict(p)
    if "s" in p:
        p["s"] = [p["s"][0] + rng.uniform(-1e-3, 1e-3), p["s"][1] + rng.uniform(-1e-3, 1e-3)]
    elif kind.startswith("perron"):
        p["x"] += rng.choice([-1.0, 1.0])  # stays a half-integer
    elif kind == "fe_residual":
        p["x"] *= math.exp(rng.uniform(-1e-3, 1e-3))
    elif "x" in p:
        p["x"] += rng.uniform(-0.5, 0.5)
    elif "bound" in p:
        p["bound"] += rng.uniform(0.0, 1.0)
    elif kind == "counting_report":
        p["offset"] = rng.uniform(0.0, 0.5)
    elif kind == "reconstruct":
        p["p1"] = 2.0 + rng.uniform(0.0, 0.01)
    elif kind == "coincide":
        p["lam"] += rng.uniform(-1e-3, 1e-3)
    return [kind, p]


class OpSource:
    """One op of each kind for warm-up, then a seeded sequence and its repetitions."""

    def __init__(self, workload: str, seed: int, scale: float = 1.0):
        mix, make = WORKLOADS[workload]
        self.rng = random.Random(f"{workload}:{seed}")
        self.warm = [make(self.rng, kind, 0, 1) for kind in mix]
        counts = {kind: max(1, round(n * scale)) for kind, n in mix.items()}
        self.sequence = [make(self.rng, kind, i, n) for kind, n in counts.items() for i in range(n)]
        self.rng.shuffle(self.sequence)
        self.reps = 0

    def next_repetition(self) -> list:
        self.reps += 1
        if self.reps == 1:
            return self.sequence
        return [jitter(self.rng, op) for op in self.sequence]


# cli-cold: the README example of every subcommand, plus the two 1e6 runs
CLI_COMMANDS = [
    "count --system builtin:rationals --limit 1000 --grid 10:1000:10",
    "gen --system list:2,3 --limit 100 --bound 50",
    "zeta --system builtin:rationals --limit 100000 --s 2 --s 2+10i --method euler --json",
    "zeta --system builtin:rationals --limit 10000 --s 3 --method mellin",
    "perron --system builtin:rationals --limit 10000 --x 1000.5 --T 10000",
    "perron --system builtin:rationals --limit 10000 --x 500.5 --scan 100,1000,10000",
    "mellin --kernel exp --s 0.5 --op transform",
    "mellin --kernel exp --op continue --expansion exp --system builtin:rationals --limit 20000 --s 0.5",
    "fe-check --pair theta --json",
    "order reconstruct --oracle builtin:rationals --limit 72 --p1 2 --K 20 --n 10000",
    "order coincide --system builtin:rationals --limit 1000 --system2 builtin:rationals --prefix 1000",
    "axioms --oracle builtin:rationals --limit 1000 --window 5,5",
    "count --system builtin:rationals --limit 1e6 --grid 10000:1000000:10000",
    "zeta --system builtin:rationals --limit 1e6 --s 2 --method dirichlet",
]
CLI_SUBCOMMANDS = ("count", "gen", "zeta", "perron", "mellin", "fe-check", "order", "axioms")


def cli_sequence(rng: random.Random) -> list[str]:
    """The invocation list in a seeded order."""
    cmds = list(CLI_COMMANDS)
    rng.shuffle(cmds)
    return cmds
