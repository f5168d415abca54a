"""Benchmark harness for beurling.

    python3 bench/run.py --workload exact|analytic|cli-cold --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from `src/`.
Workloads (see BENCHMARK.json for why each was chosen):

  exact     one process: build two 1e6 systems, then passes of ~230 exact
            queries (counting kernel, sorted streams, order searches);
  analytic  one process: passes of ~90 zeta/phi, Perron and Mellin evaluations;
  cli-cold  the README invocation list, one fresh `beurling` process each.

Each is a closed loop with one caller and `BEURLING_THREADS` cleared.  Every
op is checked outside the timed region by checker.py, a process of its own
that holds the oracle tables; a failed check counts in `failed`, it does not
stop the run.  End-to-end times are scaled to a fixed machine speed by a
reference timed next to them (speed.py); per-layer times are not.
This file imports only the standard library, so the workload
processes it starts do not inherit a large peak RSS from it.  With --trace 0 the last
stdout line carries the end-to-end metrics; with --trace 1 it carries the
per-layer metrics of a traced run (fixed work, so counters repeat exactly
for a seed) next to an untraced run of the same ops.  The line before it is
a record with the environment, seeds and details; both also go to bench/out/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import tempfile
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
DEADLINE_S = 170.0  # every run ends, children included, well inside 180 s

SETUP_REPEATS = 7  # set-ups per run (processes); setup_s is their median
CLI_SETUP_REPEATS = 15  # cli-cold set-ups (`--version` processes) per run
MIN_REPS = 3  # repetitions of the op sequence in an untraced run, at least
TRACE_REPS = 2  # repetitions in each of the two runs behind --trace 1
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
COUNTERS = (
    "counting.gintegers_counted",
    "counting.gintegers_materialised",
    "counting.stream_items",
    "systems.primes_built",
    "perron.nodes",
    "perron.prime_powers",
    "mellin.partition_calls",
    "orders.compares",
)
CACHE_RATIOS = ("mellin.values_cache_hit_ratio", "zeta.psi_profile_cache_hit_ratio")
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

sys.path.insert(0, str(BENCH))
import speed  # noqa: E402
from inputs import ANALYTIC_MIX, CLI_SUBCOMMANDS, EXACT_MIX, OpSource, cli_sequence  # noqa: E402
from tracer import LAYERS  # noqa: E402


def per_layer_metrics() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    names = {}
    for layer in LAYERS:
        names[f"{layer}.calls"] = "count"
        names[f"{layer}.busy_s"] = "s"
        names[f"{layer}.self_s"] = "s"
    names.update(dict.fromkeys(COUNTERS, "count"))
    names.update(dict.fromkeys(CACHE_RATIOS, "ratio"))
    names["cli.import_s"] = "s"
    for kind in (*EXACT_MIX, *ANALYTIC_MIX):
        names[f"op.{kind}.p50_ms"] = "ms"
    for sub in CLI_SUBCOMMANDS:
        names[f"cli.{sub}.p50_ms"] = "ms"
    names["trace.overhead_ratio"] = "ratio"
    return names


# ------------------------------------------------------------ processes

_live: list[subprocess.Popen] = []


def _kill_all(wait: bool = False) -> None:
    for proc in list(_live):
        if proc.poll() is None:
            proc.kill()
        if wait:
            proc.wait()


def child_env() -> dict:
    """The environment of every child: one library thread, one BLAS thread."""
    env = dict(os.environ)
    env.pop("BEURLING_THREADS", None)
    # perron's phase product is a BLAS matmul; threaded BLAS would take both
    # cores of a small shared host and make the workloads multi-threaded
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def spawn(cmd: list[str], **kw) -> subprocess.Popen:
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, **kw)
    _live.append(proc)
    return proc


def reap(proc: subprocess.Popen, timeout: float = 30.0) -> None:
    """Wait for proc (killing it after `timeout`) and forget it."""
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    _live.remove(proc)


class Peer:
    """A child process that answers one JSON line with one JSON line."""

    def __init__(self, script: str, *args: str):
        cmd = [sys.executable, str(BENCH / script), *args]
        self.proc = spawn(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def send(self, msg: dict) -> None:
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()

    def receive(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"{self.proc.args[1]} exited with code {self.proc.wait()}")
        return json.loads(line)

    def ask(self, msg: dict) -> dict:
        self.send(msg)
        return self.receive()

    def stop(self) -> dict:
        """Ask the child to stop; return its last reply once it has exited."""
        final = self.ask({"stop": True})
        self.proc.stdin.close()
        reap(self.proc)
        return final


class Worker(Peer):
    """A worker.py process: set up, warm, then run passes of ops on request."""

    def __init__(self, workload: str, warm: list, trace_path: Path | None = None):
        args = ["--workload", workload]
        if trace_path is not None:
            args += ["--trace", str(trace_path)]
        super().__init__("worker.py", *args)
        self.hello = self.ask({"warm": warm})

    def run(self, ops: list) -> dict:
        """{"results": [latency_s, output, error] per op, "refs": speed reference times}"""
        return self.ask({"ops": ops})


class Checker(Peer):
    """The checker.py process; `hello` holds its numpy, mpmath and BLAS facts."""

    def __init__(self):
        super().__init__("checker.py")
        self.hello = self.receive()

    def ops(self, ops: list, outs: list) -> list:
        return self.ask({"ops": ops, "outs": outs})["reasons"]

    def cli(self, cmd: str, stdout: str) -> str | None:
        return self.ask({"cli": cmd, "stdout": stdout})["reason"]


# ------------------------------------------------------------ results


class Tally:
    """Ops attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0

    def add(self, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(reason)


def check_results(checker: Checker, tally: Tally, ops: list, results: list) -> list[float]:
    """Check one repetition of the sequence; return its per-op latencies."""
    done = [(op, out) for op, (_, out, err) in zip(ops, results) if err is None]
    for reason in checker.ops([op for op, _ in done], [out for _, out in done]):
        tally.add(reason)
    for (kind, _), (_, _, err) in zip(ops, results):
        if err is not None:
            tally.add(f"{kind}: raised {err}")
    return [dt for dt, _, _ in results]


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it): the highest ladder step with >= 10 beyond."""
    xs = sorted(samples)
    n = len(xs)
    for p in TAIL_LADDER:
        idx = max(0, math.ceil(p / 100.0 * n) - 1)
        if n - 1 - idx >= 10 or p == TAIL_LADDER[-1]:
            return p, xs[idx], n - 1 - idx


def end_to_end(setups: list, slots: list[list[float]], rss_kb: int, tail_raw: bool = False) -> tuple[dict, dict]:
    """Metrics from per-slot latencies: each slot is one op of the sequence, timed once
    per repetition, and counts at its median repetition.  tail_raw takes the tail
    over every timing instead (for sequences too short to have ten ops beyond it)."""
    typical = [statistics.median(ts) for ts in slots]
    p, value, beyond = tail([t for ts in slots for t in ts] if tail_raw else typical)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(typical),
        "latency_p50_ms": statistics.median(typical) * 1e3,
        "latency_tail_ms": value * 1e3,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    detail = {
        "setup_samples_s": setups,
        "repetitions": len(slots[0]),
        "repetition_walls_s": [sum(rep) for rep in zip(*slots)],
        "latency_samples": len(slots) * (len(slots[0]) if tail_raw else 1),
        "latency_tail_percentile": p,
        "latency_tail_samples_beyond": beyond,
        "latency_tail_over": "every timing" if tail_raw else "median repetition of each op",
    }
    return metrics, detail


def layer_values(trace: dict, import_s: float, op_lat: dict, overhead: float) -> dict:
    values = {}
    for layer in LAYERS:
        values[f"{layer}.calls"] = trace["calls"].get(layer, 0)
        values[f"{layer}.busy_s"] = trace["busy_s"].get(layer, 0.0)
        values[f"{layer}.self_s"] = trace["self_s"].get(layer, 0.0)
    for key in COUNTERS:
        values[key] = trace["counts"].get(key, 0)
    for key in CACHE_RATIOS:
        if key in trace["caches"]:
            hits, misses = trace["caches"][key]
            values[key] = hits / (hits + misses) if hits + misses else 0.0
    values["cli.import_s"] = import_s
    for name in per_layer_metrics():
        if name.endswith(".p50_ms"):
            kind = name[name.index(".") + 1 : -len(".p50_ms")]
            samples = op_lat.get(kind)
            values[name] = statistics.median(samples) * 1e3 if samples else 0.0
    values["trace.overhead_ratio"] = overhead
    return values


def merge_traces(summaries: list[dict]) -> dict:
    merged = {"calls": defaultdict(int), "busy_s": defaultdict(float), "self_s": defaultdict(float),
              "counts": defaultdict(int), "caches": {}}
    for s in summaries:
        for field in ("calls", "busy_s", "self_s", "counts"):
            for key, v in s[field].items():
                merged[field][key] += v
        for key, (h, m) in s["caches"].items():
            h0, m0 = merged["caches"].get(key, (0, 0))
            merged["caches"][key] = (h0 + h, m0 + m)
    return merged


# ------------------------------------------------------------ workloads


def repeat(one_round, n_slots: int, seconds: float = 0.0, reps: int | None = None) -> list[list[float]]:
    """Per-slot latencies of `reps` rounds, or else of rounds until `seconds` of timed
    work and MIN_REPS; one_round(r) runs round r and returns its latency per slot."""
    slots = [[] for _ in range(n_slots)]
    timed = 0.0
    while len(slots[0]) < (reps or MIN_REPS) or (reps is None and timed < seconds):
        for slot, dt in zip(slots, one_round(len(slots[0]))):
            slot.append(dt)
            timed += dt
    return slots


def by_kind(kinds: list[str], slots: list[list[float]]) -> dict:
    lat = defaultdict(list)
    for kind, ts in zip(kinds, slots):
        lat[kind].append(statistics.median(ts))
    return lat


def start_worker(workload: str, source: OpSource, checker: Checker, tally: Tally,
                 trace_path: Path | None = None) -> Worker:
    worker = Worker(workload, source.warm, trace_path)
    check_results(checker, tally, source.warm, worker.hello["results"])
    return worker


def run_inprocess(workload: str, seed: int, seconds: float, trace: bool, scale: float, tally: Tally,
                  checker: Checker, stem: str) -> tuple[dict, dict]:
    def sequence(worker: Worker, source: OpSource, factors: list | None = None):
        """One round per call; with `factors`, latencies are scaled to nominal speed."""
        def one_round(_r: int) -> list[float]:
            ops = source.next_repetition()
            reply = worker.run(ops)
            latencies = check_results(checker, tally, ops, reply["results"])
            if factors is None:
                return latencies
            factors.append(speed.factor(reply["refs"]))
            return [dt * factors[-1] for dt in latencies]
        return one_round

    if trace:
        runs = {}
        for label, path in (("untraced", None), ("traced", OUT / f"{stem}.spans.jsonl")):
            source = OpSource(workload, seed, scale)  # the same ops in both runs
            worker = start_worker(workload, source, checker, tally, path)
            slots = repeat(sequence(worker, source), len(source.sequence), reps=TRACE_REPS)
            runs[label] = (worker.hello, slots, worker.stop())
        hello, slots, _ = runs["untraced"]
        _, traced_slots, final = runs["traced"]
        overhead = sum(map(statistics.median, traced_slots)) / sum(map(statistics.median, slots))
        kinds = [kind for kind, _ in source.sequence]
        values = layer_values(final["trace"], hello["import_s"], by_kind(kinds, slots), overhead)
        return values, {"repetitions": TRACE_REPS, "spans": final["trace"]["spans"]}

    source = OpSource(workload, seed, scale)
    setups, factors = [], []
    for i in range(SETUP_REPEATS):  # the last worker is kept for the timed run
        if i:
            worker.stop()
        worker = start_worker(workload, source, checker, tally)
        setups.append(worker.hello["setup_s"] * speed.factor(worker.hello["setup_refs"]))
    slots = repeat(sequence(worker, source, factors), len(source.sequence), seconds=seconds)
    final = worker.stop()
    metrics, detail = end_to_end(setups, slots, final["maxrss_kb"])
    detail["speed_factor_by_round"] = factors
    return metrics, detail


def cli_invoke(args: list[str], traced_files: tuple[Path, Path] | None = None) -> tuple[float, int, str, int]:
    """(seconds, exit code, stdout, ru_maxrss in KiB) of one CLI process."""
    if traced_files is None:
        cmd = [sys.executable, "-m", "beurling.cli", *args]
    else:
        summary, spans = traced_files
        cmd = [sys.executable, str(BENCH / "traced_cli.py"), "--summary", str(summary),
               "--spans", str(spans), "--", *args]
    with tempfile.TemporaryFile("w+", dir=OUT) as err:
        t0 = time.perf_counter()
        proc = spawn(cmd, stdout=subprocess.PIPE, stderr=err, text=True)
        out = proc.stdout.read()
        # wait4 gives this child's own rusage; RUSAGE_CHILDREN would mix in the checker
        _, status, usage = os.wait4(proc.pid, 0)
        dt = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        reap(proc)
        if proc.returncode != 0:
            err.seek(0)
            sys.stderr.write(err.read())
    return dt, proc.returncode, out, usage.ru_maxrss


def run_cli(seed: int, seconds: float, trace: bool, scale: float, tally: Tally, checker: Checker, stem: str):
    commands = cli_sequence(random.Random(f"cli-cold:{seed}"))
    commands = commands[: max(1, round(len(commands) * scale))]
    digests: dict[str, str] = {}
    rss_kb: dict[str, int] = {}
    pairs: list[list[float]] = []  # [latency, process reference] of each scaled invocation

    def invoke(cmd: str, traced_files=None, scaled: bool = False) -> float:
        """Run one invocation, check it and return its latency; if `scaled`, time a
        process reference right after it and return the latency at nominal speed."""
        dt, code, out, maxrss = cli_invoke(cmd.split(), traced_files)
        if scaled:
            ref = speed.process_reference(child_env())
            pairs.append([dt, ref])
            dt *= speed.PROCESS_NOMINAL_S / ref
        rss_kb[cmd] = max(rss_kb.get(cmd, 0), maxrss)
        digest = hashlib.sha256(out.encode()).hexdigest()
        if code != 0:
            tally.add(f"`{cmd}` exited {code}")
        elif cmd == "--version":
            tally.add(None if out.strip() else "--version printed nothing")
        elif digests.setdefault(cmd, digest) != digest:
            tally.add(f"`{cmd}` stdout differs between runs")
        else:
            tally.add(checker.cli(cmd, out))
        return dt

    def rounds(reps=None, traced_dir=None, scaled=False) -> list[list[float]]:
        def one_round(r: int) -> list[float]:
            files = [None] * len(commands)
            if traced_dir is not None:
                files = [(traced_dir / f"{r}-{i}.json", traced_dir / f"{r}-{i}.jsonl")
                         for i in range(len(commands))]
            return [invoke(cmd, f, scaled) for cmd, f in zip(commands, files)]
        return repeat(one_round, len(commands), seconds=seconds, reps=reps)

    if trace:
        slots = rounds(TRACE_REPS)
        tmp = OUT / f"{stem}.children"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        try:
            traced_slots = rounds(TRACE_REPS, tmp)
            summaries = [json.loads(p.read_text()) for p in sorted(tmp.glob("*.json"))]
            with open(OUT / f"{stem}.spans.jsonl", "w") as fh:
                for p in sorted(tmp.glob("*.jsonl")):
                    for line in p.read_text().splitlines():
                        fh.write(json.dumps({"invocation": p.stem, **json.loads(line)}) + "\n")
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        import_s = statistics.median(s["import_s"] for s in summaries)
        overhead = sum(map(statistics.median, traced_slots)) / sum(map(statistics.median, slots))
        kinds = [cmd.split()[0] for cmd in commands]
        values = layer_values(merge_traces([s["trace"] for s in summaries]), import_s,
                              by_kind(kinds, slots), overhead)
        return values, {"repetitions": TRACE_REPS, "stdout_sha256": digests}

    setups = [invoke("--version", scaled=True) for _ in range(CLI_SETUP_REPEATS)]
    slots = rounds(scaled=True)
    metrics, detail = end_to_end(setups, slots, max(rss_kb.values()), tail_raw=True)
    detail["median_ms_by_invocation"] = {cmd: statistics.median(ts) * 1e3 for cmd, ts in zip(commands, slots)}
    detail["latency_and_reference_s"] = pairs
    detail["stdout_sha256"] = digests
    detail["peak_rss_mb_by_invocation"] = {cmd: kb / 1024.0 for cmd, kb in rss_kb.items()}
    return metrics, detail


# ------------------------------------------------------------ environment


def environment(args, checker: Checker) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = res.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "beurling").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": checker.hello["numpy"],
        "mpmath": checker.hello["mpmath"],
        "blas_threads": checker.hello["blas_threads"],
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "BEURLING_THREADS": "cleared in every child",
        "OPENBLAS_NUM_THREADS": "1 in every child",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=["exact", "analytic", "cli-cold"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the ops per pass (smoke tests); 1 is the benchmark")
    args = parser.parse_args()
    if not (ROOT / "src" / "beurling" / "__init__.py").is_file():
        print(f"error: no beurling sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    watchdog = threading.Timer(DEADLINE_S, _kill_all)
    watchdog.daemon = True
    watchdog.start()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tally = Tally()
    try:
        checker = Checker()
        if args.workload == "cli-cold":
            values, detail = run_cli(args.seed, args.seconds, bool(args.trace), args.scale, tally, checker, stem)
        else:
            values, detail = run_inprocess(args.workload, args.seed, args.seconds, bool(args.trace),
                                           args.scale, tally, checker, stem)
        env = environment(args, checker)
        checker.stop()
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        watchdog.cancel()
        _kill_all(wait=True)
    units = per_layer_metrics() if args.trace else END_TO_END
    detail["harness_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record = {
        "environment": env,
        "detail": detail,
        "error_rate": tally.failed / tally.attempted,
        "failures": tally.failures,
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items() if name in values},
    }
    (OUT / f"{stem}.json").write_text(json.dumps({"record": record, "result": result}, indent=1))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
