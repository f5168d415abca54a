"""The oracle process: builds the tables of oracles.py and checks outputs.

Talks to run.py in JSON lines.  It first answers with the numpy, mpmath and
BLAS facts of the environment, then answers `{"ops": ops, "outs": outs}`
with one failure reason (or null) per op and `{"cli": cmd, "stdout": text}`
with one reason, until `{"stop": true}`, which it answers with `{}`.

It runs in a process of its own so that the workload processes are never
started from one that holds the tables: a child started by fork/exec
inherits its parent's peak RSS in `ru_maxrss`.

Run as `python3 bench/checker.py`.
"""
import ctypes
import json
import os
import sys

import mpmath
import numpy

from oracles import Tables, check_cli, check_op


def blas_threads():
    """OpenBLAS thread count as numpy loaded it, or the env setting, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var):
            return int(os.environ[var])
    return None


def main() -> int:
    tab = Tables()

    def send(msg) -> None:
        sys.stdout.write(json.dumps(msg) + "\n")
        sys.stdout.flush()

    send({"numpy": numpy.__version__, "mpmath": mpmath.__version__, "blas_threads": blas_threads()})
    for line in sys.stdin:
        msg = json.loads(line)
        if msg.get("stop"):
            send({})
            break
        if "cli" in msg:
            send({"reason": check_cli(tab, msg["cli"], msg["stdout"])})
        else:
            send({"reasons": [check_op(tab, kind, params, out)
                              for (kind, params), out in zip(msg["ops"], msg["outs"])]})
    return 0


if __name__ == "__main__":
    sys.exit(main())
