"""Run one `beurling` CLI invocation with the layer wrappers installed.

    PYTHONPATH=src python3 bench/traced_cli.py --summary S.json --spans S.jsonl -- count ...

The CLI's stdout is untouched; the import time, the layer summary and the
spans go to the two files.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

from tracer import Tracer, install  # noqa: E402

t = time.perf_counter()
import beurling.cli  # noqa: E402

IMPORT_S = time.perf_counter() - t


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--summary", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    tracer = Tracer()
    modules = install(tracer)
    code = beurling.cli.main(argv)
    sys.stdout.flush()
    with open(args.summary, "w") as fh:
        json.dump({"import_s": IMPORT_S, "trace": tracer.summary(modules)}, fh)
    tracer.write_spans(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
