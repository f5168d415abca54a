"""The machine-speed references that every reported time is scaled by.

A small shared host runs at a speed that drifts by 30-60% over minutes, so
whole runs read slow or fast.  Each run therefore also times a reference
that never touches the library next to the work it measures, and a reported
time is the measured one times `nominal / median(reference times around it)`:
seconds at a fixed machine speed.  The reference cannot see a change to the
library, so a library that gets faster or slower by some share moves the
scaled times by that share.

Two references, each matched to the work it scales:

- `reference()`, a fixed pure-Python loop, for ops inside a warm process.
  The drift is alike for the library's Python, numpy and mpmath code; each
  repetition of the op sequence is scaled by the loop times taken during it.
- `process_reference()`, an interpreter that imports numpy and mpmath and
  exits, for the CLI invocations: the part of each invocation that is not
  the library.  Process start-up and imports (exec, loading, page faults)
  drift more than the loop does, and they move from second to second, so
  each invocation is scaled by the reference timed right after it.

Standard library only: run.py and worker.py both import it.
"""
from __future__ import annotations

import statistics
import subprocess
import sys
from time import perf_counter

# reference times at the speed every report is scaled to (about a quiet
# phase of a 2-vCPU shared host); any fixed values would do
NOMINAL_S = 1.0e-3
PROCESS_NOMINAL_S = 0.25
LOOP = 5000


def reference() -> float:
    """Seconds taken by the fixed loop just now."""
    t0 = perf_counter()
    acc = 0
    table = {}
    for i in range(LOOP):
        acc = (acc * 31 + i) % 1000003
        table[i & 1023] = acc
    return perf_counter() - t0


def samples(n: int) -> list[float]:
    return [reference() for _ in range(n)]


def process_reference(env: dict) -> float:
    """Seconds to start an interpreter that imports numpy and mpmath, and wait for it."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", "import numpy, mpmath"], env=env)
    # a blocking wait: wait(timeout=...) polls in steps of up to 50 ms
    if proc.wait() != 0:
        raise RuntimeError(f"the process reference exited with code {proc.returncode}")
    return perf_counter() - t0


def factor(refs: list[float]) -> float:
    """The scale from measured to nominal-speed seconds for times taken among loop refs."""
    return NOMINAL_S / statistics.median(refs)
