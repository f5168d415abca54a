"""One in-process workload: import, build the systems, then run ops.

Talks to run.py in JSON lines: it reads `{"warm": ops}` and answers with its
set-up time, then answers each `{"ops": ops}` with per-op latencies and
outputs, until `{"stop": true}`.  Only the library call sits inside the timed
region; converting outputs for the checks happens after it.  Both replies
also carry times of the machine-speed reference (see speed.py), taken after
set-up and after each op, outside the timed region.  With
`--trace FILE` the layer wrappers are installed before the systems are
built, and the spans are written to FILE at the end.

Run as `PYTHONPATH=src python3 bench/worker.py --workload exact`.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import speed  # noqa: E402
from tracer import Tracer, install  # noqa: E402

t = time.perf_counter()
import beurling.cli  # noqa: E402,F401  (imports every layer)

IMPORT_S = time.perf_counter() - t
SETUP_REFS = 40  # speed reference times taken right after set-up

from beurling import counting, mellin, orders, perron, systems, zeta  # noqa: E402


def setup(workload: str) -> dict:
    if workload == "exact":
        return {
            "rational": systems.rational_primes(10**6),
            "gaussian": systems.gaussian_system(10**6),
            "gaussian4": systems.gaussian_system(10**4),
            "first20": systems.rational_primes(72),
        }
    return {
        "rational": systems.rational_primes(10**6),
        "rational4": systems.rational_primes(10**4),
        "rational2e4": systems.rational_primes(2 * 10**4),
        "theta": mellin.theta_pair(),
    }


def _c(s) -> complex:
    return complex(s[0], s[1])


# kind -> (call, export): call runs inside the timed region, export after it
OPS = {
    "count_N_rational": (lambda e, x: counting.count_N(e["rational"], x), int),
    "count_N_gaussian": (lambda e, x: counting.count_N(e["gaussian"], x), int),
    "count_pi": (lambda e, system, x: counting.count_pi(e[system], x), int),
    "psi": (lambda e, system, x: counting.psi(e[system], x), float),
    "gap_window": (
        lambda e, system, x: counting.gap_window(e[system], x),
        lambda w: [w.center, w.radius, w.found, w.below, w.above],
    ),
    "stream_rational": (
        lambda e, bound, k: list(itertools.islice(counting.stream_gintegers(e["rational"], bound), k)),
        lambda items: [[g.log_value, g.exponents] for g in items],
    ),
    "stream_gaussian": (
        lambda e, bound, k: list(itertools.islice(counting.stream_gintegers(e["gaussian"], bound), k)),
        lambda items: [[g.log_value, g.exponents] for g in items],
    ),
    "zeta_dirichlet": (
        lambda e, system, s: zeta.zeta_dirichlet(e[system], _c(s)),
        lambda r: [r.value.real, r.value.imag, r.tail_bound],
    ),
    "counting_report": (
        lambda e, grid_max, offset: counting.counting_report(
            e["gaussian4"], [n + offset for n in range(1, grid_max)]
        ),
        lambda r: [r.N.tolist(), r.pi.tolist(), r.psi.tolist()],
    ),
    "reconstruct": (
        lambda e, p1, K, n: orders.reconstruct(orders.induced_oracle(e["first20"]), p1, K, n),
        lambda r: [[a.low, a.high] for a in r.alpha],
    ),
    "coincide": (
        lambda e, lam, prefix: orders.orderings_coincide(
            e["first20"], systems.power_system(e["first20"], lam), prefix
        ),
        lambda r: [r.coincide, r.lam, r.checked, r.scaling_verified, r.max_scaling_deviation],
    ),
    "zeta_euler": (
        lambda e, s: zeta.zeta_euler(e["rational"], _c(s)),
        lambda r: [r.value.real, r.value.imag, r.tail_bound],
    ),
    "phi_continued": (
        lambda e, s: zeta.phi_continued(e["rational"], _c(s)),
        lambda r: [r.value.real, r.value.imag, r.tail_bound],
    ),
    "perron_T1e3": (
        lambda e, x, T: perron.perron_psi(e["rational4"], perron.PerronParams(x=x, T=T)),
        lambda r: [r.value, r.budget.total, r.nodes],
    ),
    "continue_Gzeta": (
        lambda e, s: mellin.continue_Gzeta(
            e["rational2e4"], mellin.KERNELS["exp"], mellin.EXPANSIONS["exp"], _c(s)
        ),
        lambda r: [r.value.real, r.value.imag, r.tail_bound],
    ),
    "fe_residual": (
        lambda e, x: mellin.fe_residual(*e["theta"], x),
        lambda r: [r.value.real, r.value.imag, r.tail_budget],
    ),
    "check_fe_mellin": (
        lambda e, s: mellin.check_fe_mellin(e["theta"][0], e["theta"][1], [_c(s)]),
        lambda r: [r.max_residual, len(r.rows), len(r.skipped)],
    ),
    "mellin_G": (
        lambda e, kernel, s: mellin.mellin_G(mellin.KERNELS[kernel], _c(s)),
        lambda r: [r.value.real, r.value.imag, r.tail_bound],
    ),
}
OPS["perron_T1e4"] = OPS["perron_T1e3"]


def run_ops(env: dict, ops: list, tracer, first_id: int) -> tuple[list, list]:
    """[latency_s, output, error] per op, and a speed reference time after each op;
    an op that raises is recorded, not fatal."""
    out, refs = [], []
    for i, (kind, params) in enumerate(ops):
        call, export = OPS[kind]
        if tracer is not None:
            tracer.op = first_id + i
        t0 = time.perf_counter()
        try:
            raw = call(env, **params)
            dt = time.perf_counter() - t0
            out.append([dt, export(raw), None])
        except Exception as exc:  # the harness counts it as a failed op
            dt = time.perf_counter() - t0
            out.append([dt, None, f"{type(exc).__name__}: {exc}"])
        refs.append(speed.reference())
    return out, refs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=["exact", "analytic"], required=True)
    parser.add_argument("--trace", default=None, help="write spans to this file")
    args = parser.parse_args()

    # the protocol owns the real stdout; stray prints go to stderr
    proto = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    sys.stdout = sys.stderr

    def send(msg) -> None:
        proto.write(json.dumps(msg) + "\n")
        proto.flush()

    def receive() -> dict:
        return json.loads(sys.stdin.readline())

    tracer = modules = None
    if args.trace:
        tracer = Tracer()
        modules = install(tracer)
    env = setup(args.workload)
    warm = receive()["warm"]
    results, _ = run_ops(env, warm, tracer, 0)
    setup_s = time.perf_counter() - T_START
    send({"setup_s": setup_s, "setup_refs": speed.samples(SETUP_REFS), "import_s": IMPORT_S,
          "results": results})
    next_id = len(warm)
    while True:
        msg = receive()
        if msg.get("stop"):
            break
        results, refs = run_ops(env, msg["ops"], tracer, next_id)
        send({"results": results, "refs": refs})
        next_id += len(msg["ops"])
    final = {"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        final["trace"] = tracer.summary(modules)
        tracer.write_spans(args.trace)
    send(final)
    return 0


if __name__ == "__main__":
    sys.exit(main())
