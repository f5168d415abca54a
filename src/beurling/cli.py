"""Command-line interface: every experiment as a reproducible subcommand.

Output is deterministic given the configuration: CSV rows carry `#`-prefixed
manifest lines echoing the resolved config and library version; JSON output
carries the same manifest as a top-level object.  Exit codes: 0 success, 1 domain
error or unreadable file, 2 malformed, missing or NaN option (one stderr line each).

No plotting here; the emitted columns are plot-ready for external tools.
Renormalisation is explicit: `--power LAMBDA` applies the power transform
at load time, never implicitly.
"""
from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Iterable

import numpy as np

from . import __version__
from .counting import counting_report, stream_gintegers
from .errors import BeurlingError, IncompleteSystemError, ParameterError
from .mellin import (
    EXPANSIONS,
    KERNELS,
    PartitionSpec,
    check_fe_mellin,
    continue_Gzeta,
    expansion_from_json,
    fe_residual,
    mellin_G,
    partition_F,
    residual_series_from_json,
    theta_pair,
)
from .orders import InducedOracle, OrderOracle, ProcessOracle, check_axioms, orderings_coincide, reconstruct
from .perron import PerronParams, perron_convergence_scan, perron_psi
from .counting import psi as psi_exact
from .systems import GPrimeSystem, from_file, from_list, gaussian_system, power_system, rational_primes
from .zeta import TailedValue, phi_continued, phi_dirichlet, zeta_dirichlet, zeta_euler, zeta_mellin_identity_check


MAX_GRID_POINTS = 10**6


def _parse_real(text: str) -> float:
    value = float(text)
    if math.isnan(value):
        raise ValueError(f"NaN is not a value: {text!r}")
    return value


def _parse_complex(text: str) -> complex:
    cleaned = text.strip().replace(" ", "").replace("i", "j")
    value = complex(cleaned) if "j" in cleaned else complex(float(cleaned), 0.0)
    if not cmath.isfinite(value):
        raise ValueError(f"not a finite complex point: {text!r}")
    return value


def _parse_list(parse):
    """A parser of comma lists whose items `parse` reads."""
    return lambda text: [parse(tok) for tok in text.split(",")]


def _parse_window(text: str) -> tuple[int, int]:
    M, N = (int(tok) for tok in text.split(","))
    return M, N


def _grid_points(text: str) -> tuple[float, int, Iterable[float]]:
    """Top, size and points of `a:b:step` (points as a generator: nothing built yet) or `x1,x2,...`."""
    if ":" not in text:
        points = [_parse_real(tok) for tok in text.split(",") if tok.strip()]
        return max(points, default=-math.inf), len(points), points
    a, b, step = map(_parse_real, text.split(":"))  # ValueError unless three parts
    if not (step > 0 and a <= b and (b - a) / step < math.inf):
        raise ValueError(f"bad grid spec {text!r}")
    n = int(math.floor((b - a) / step + 1e-9)) + 1
    return a + (n - 1) * step, n, (a + i * step for i in range(n))


def _parse_grid(text: str, limit: float) -> list[float]:
    top, n, points = _grid_points(text)
    if top > limit:
        raise IncompleteSystemError(f"grid maximum {top} exceeds the system's completeness horizon {limit}")
    if n > MAX_GRID_POINTS:
        raise ParameterError(f"grid has {n} points, more than {MAX_GRID_POINTS}")
    return list(points)


def _checked(parse):
    """argparse type: check the text with `parse`, but keep the text (the manifest echoes it)."""
    def check(text: str) -> str:
        try:
            parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid value {text!r}") from None
        return text
    return check


def _real(text: str) -> float:
    """argparse type of the float options: a float, but not NaN."""
    return float(_checked(_parse_real)(text))


def _parse_system(spec: str) -> list[float]:
    """The primes of a `list:` spec; other specs are checked when they load."""
    return [float(v) for v in spec[5:].split(",")] if spec.startswith("list:") else []


def _load_system(args, spec: str | None) -> GPrimeSystem:
    if spec is None:
        raise ParameterError("this command needs --system")
    if spec.startswith("builtin:"):
        name = spec.split(":", 1)[1]
        if args.limit is None:
            raise ParameterError("builtin systems need --limit")
        if name in ("rationals", "rational"):
            system = rational_primes(args.limit)
        elif name in ("gaussian", "qi"):
            system = gaussian_system(args.limit)
        else:
            raise ParameterError(f"unknown builtin system {name!r}")
    elif spec.startswith("file:"):
        system = from_file(spec.split(":", 1)[1])
        if args.limit is not None:
            system = from_list(list(system.primes), args.limit, label=system.label)
    elif spec.startswith("list:"):
        values = _parse_system(spec)
        system = from_list(values, args.limit if args.limit is not None else max(values))
    else:
        raise ParameterError(f"unknown system spec {spec!r}")
    if getattr(args, "power", None):
        system = power_system(system, args.power)
    return system


def _manifest(args, command: str) -> dict:
    skip = {"func", "out", "config"}
    resolved = {
        k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None
    }
    return {"tool": "beurling", "version": __version__, "command": command, **{
        k: (v if isinstance(v, (int, float, str, bool)) else str(v)) for k, v in resolved.items()
    }}


def _emit(args, manifest: dict, header: list[str], rows: list[list], extra: dict | None = None):
    if args.format == "json":
        payload = {
            "manifest": manifest,
            "rows": [dict(zip(header, row)) for row in rows],
        }
        if extra:
            payload.update(extra)
        text = json.dumps(payload, sort_keys=True, default=str) + "\n"
    else:
        buf = io.StringIO()
        for key in sorted(manifest):
            buf.write(f"# {key}={manifest[key]}\n")
        if extra:
            for key in sorted(extra):
                buf.write(f"# {key}={extra[key]}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


def cmd_gen(args) -> int:
    system = _load_system(args, args.system)
    rows = []
    for g in stream_gintegers(system, args.bound):
        exps = " ".join(f"{i}^{a}" for i, a in g.exponents) or "1"
        rows.append([_fmt(g.value), _fmt(g.log_value), exps])
    _emit(args, _manifest(args, "gen"), ["value", "log_value", "exponents"], rows)
    return 0


def cmd_count(args) -> int:
    system = _load_system(args, args.system)
    report = counting_report(system, _parse_grid(args.grid, system.limit))
    rows = [
        [_fmt(float(x)), int(n), int(p), _fmt(float(ps))]
        for x, n, p, ps in zip(report.grid, report.N, report.pi, report.psi)
    ]
    extra = {"rho_hat": _fmt(report.rho_hat)}
    _emit(args, _manifest(args, "count"), ["x", "N", "pi", "psi"], rows, extra)
    return 0


def _mellin_identity(system, s: complex, cutoff: float | None) -> TailedValue:
    """The Mellin-identity residual as a value with no tail."""
    x_max = cutoff if cutoff else system.limit
    return TailedValue(complex(zeta_mellin_identity_check(system, s, x_max)), 0.0, "mellin", x_max)


# --method name -> evaluator(system, s, cutoff); the keys are the choices.  The
# lambdas look the library functions up by name when called, so a rebinding of
# this module's names (bench/tracer.py wraps every layer that way) reaches them.
ZETA_METHODS = {
    "euler": lambda system, s, cutoff: zeta_euler(system, s, cutoff),
    "dirichlet": lambda system, s, cutoff: zeta_dirichlet(system, s, cutoff),
    "mellin": _mellin_identity,
    "continued": lambda system, s, cutoff: phi_continued(system, s, cutoff),
    "phi": lambda system, s, cutoff: phi_dirichlet(system, s, cutoff),
}
S_HEADER = ["s_re", "s_im", "value_re", "value_im"]


def _s_rows(texts: list[str], evaluate, threads: int = 1) -> list[list[str]]:
    """One row per s-point: s, then the value and the tail `evaluate(s)` gives."""
    def row(text: str) -> list[str]:
        s = _parse_complex(text)
        r = evaluate(s)
        return [_fmt(s.real), _fmt(s.imag), _fmt(r.value.real), _fmt(r.value.imag), _fmt(r.tail_bound)]

    # evaluations are pure; shard across threads, assemble in input order
    if threads > 1 and len(texts) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(row, texts))
    return [row(text) for text in texts]


def cmd_zeta(args) -> int:
    system = _load_system(args, args.system)
    rows = _s_rows(args.s, lambda s: ZETA_METHODS[args.method](system, s, args.cutoff), args.threads)
    _emit(args, _manifest(args, "zeta"), S_HEADER + ["tail_bound"], rows)
    return 0


def cmd_perron(args) -> int:
    system = _load_system(args, args.system)
    rows = []
    header = ["T", "value", "oracle", "error", "budget", "imag_residual"]
    if args.scan:
        ts = _parse_list(_parse_real)(args.scan)
        scan = perron_convergence_scan(system, args.x, ts, threads=args.threads)
        for (T, value, err, budget) in scan.rows:
            rows.append([_fmt(T), _fmt(value), _fmt(scan.oracle), _fmt(err), _fmt(budget), ""])
        extra = {"monotone_trend": str(scan.monotone_trend).lower()}
    else:
        params = PerronParams(x=args.x, T=args.T, c=args.c)
        res = perron_psi(system, params, threads=args.threads)
        oracle = psi_exact(system, args.x)
        rows.append(
            [
                _fmt(args.T),
                _fmt(res.value),
                _fmt(oracle),
                _fmt(abs(res.value - oracle)),
                _fmt(res.budget.total),
                _fmt(res.imag_residual),
            ]
        )
        extra = {
            "budget_far": _fmt(res.budget.far_term),
            "budget_near": _fmt(res.budget.near_term),
            "budget_quadrature": _fmt(res.budget.quadrature),
        }
    _emit(args, _manifest(args, "perron"), header, rows, extra)
    return 0


def _load_expansion(spec: str):
    if spec in EXPANSIONS:
        return EXPANSIONS[spec]
    with open(spec) as fh:
        return expansion_from_json(fh.read())


def cmd_mellin(args) -> int:
    kernel = KERNELS.get(args.kernel)
    if kernel is None:
        raise ParameterError(f"unknown kernel {args.kernel!r}; have {sorted(KERNELS)}")
    if args.op == "transform":
        rows = _s_rows(args.s, lambda s: mellin_G(kernel, s))
        header = S_HEADER + ["quad_error"]
    elif args.op == "continue":
        system = _load_system(args, args.system)
        expansion = _load_expansion(args.expansion or args.kernel)
        rows = _s_rows(args.s, lambda s: continue_Gzeta(system, kernel, expansion, s))
        header = S_HEADER + ["tail_bound"]
    else:  # partition
        system = _load_system(args, args.system)
        rows = []
        for x in map(float, args.x):
            r = partition_F(system, kernel, x)
            rows.append([_fmt(x), _fmt(r.value.real), _fmt(r.value.imag), _fmt(r.tail_bound)])
        header = ["x", "F_re", "F_im", "tail_bound"]
    _emit(args, _manifest(args, "mellin"), header, rows)
    return 0


def cmd_fe_check(args) -> int:
    if not (0 < args.x_min < math.inf and 0 < args.x_max < math.inf and args.x_points >= 0):
        raise ParameterError("fe-check needs finite --x-min, --x-max > 0 and --x-points >= 0")
    if args.pair == "theta":
        spec1, spec2, H = theta_pair(args.limit or 10**4)
    else:
        system = _load_system(args, args.system)
        kernel = KERNELS.get(args.kernel)
        if kernel is None:
            raise ParameterError(f"unknown kernel {args.kernel!r}")
        expansion = _load_expansion(args.expansion or args.kernel)
        spec1 = spec2 = PartitionSpec(system, kernel, expansion, "custom")
        with open(args.h_file) as fh:
            H = residual_series_from_json(fh.read())
    xs = np.geomspace(args.x_min, args.x_max, args.x_points)
    rows = []
    worst = 0.0
    for x in xs:
        res = fe_residual(spec1, spec2, H, float(x))
        worst = max(worst, abs(res.value))
        rows.append(
            [
                _fmt(float(x)),
                _fmt(res.value.real),
                _fmt(res.value.imag),
                _fmt(res.tail_budget),
                str(res.inconclusive).lower(),
            ]
        )
    extra = {"max_abs_residual": _fmt(worst)}
    if args.s_grid:
        rep = check_fe_mellin(spec1, spec2, _parse_list(_parse_complex)(args.s_grid))
        extra["mellin_max_residual"] = _fmt(rep.max_residual)
        extra["mellin_skipped"] = ";".join(str(s) for s, _ in rep.skipped) or "none"
    _emit(
        args,
        _manifest(args, "fe-check"),
        ["x", "residual_re", "residual_im", "tail_budget", "inconclusive"],
        rows,
        extra,
    )
    return 0


def _load_oracle(args) -> OrderOracle:
    kind, _, rest = args.oracle.partition(":")
    if kind == "cmd":
        return ProcessOracle(rest)
    if kind == "system":
        return InducedOracle(from_file(rest))
    if kind == "builtin":
        return InducedOracle(_load_system(args, args.oracle))
    raise ParameterError(f"unknown oracle spec {args.oracle!r}")


def cmd_order(args) -> int:
    if args.action == "reconstruct":
        with _load_oracle(args) as oracle:
            rec = reconstruct(oracle, args.p1, args.K, args.n)
        rows = [
            [k + 1, _fmt(a.value), _fmt(a.radius), a.f, _fmt(p)]
            for k, (a, p) in enumerate(zip(rec.alpha, rec.system.primes))
        ]
        extra = {"limit": _fmt(rec.system.limit), "p1": _fmt(rec.p1)}
        _emit(
            args,
            _manifest(args, "order"),
            ["k", "alpha", "radius", "f", "prime"],
            rows,
            extra,
        )
        return 0
    # coincide
    s1 = _load_system(args, args.system)
    s2 = _load_system(args, args.system2)
    res = orderings_coincide(s1, s2, args.prefix)
    rows = [
        [
            str(res.coincide).lower(),
            _fmt(res.lam) if res.lam is not None else "",
            str(res.witness) if res.witness else "",
            res.checked,
        ]
    ]
    _emit(args, _manifest(args, "order"), ["coincide", "lambda", "witness", "checked"], rows)
    return 0


def cmd_axioms(args) -> int:
    with _load_oracle(args) as oracle:
        rep = check_axioms(oracle, _parse_window(args.window))
    a3 = "undetermined" if rep.a3_ok is None else str(rep.a3_ok).lower()
    rows = [
        ["A1", str(rep.a1_ok).lower(), str(rep.a1_counterexample or "")],
        ["A2", str(rep.a2_ok).lower(), str(rep.a2_counterexample or "")],
        ["A3", a3, str(rep.a3_counterexample or "")],
    ]
    extra = {"all_pass": str(rep.all_pass).lower()}
    _emit(args, _manifest(args, "axioms"), ["axiom", "ok", "counterexample"], rows, extra)
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors print one diagnostic line, without the usage block."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _usage_problem(args) -> str | None:
    """What this option combination lacks, if anything."""
    if args.command == "perron" and args.T is None and not args.scan:
        return "perron needs --T or --scan"
    if args.command == "mellin":
        name, values = ("--x", args.x) if args.op == "partition" else ("--s", args.s)
        if values is None:
            return f"mellin --op {args.op} needs {name}"
    if args.command == "order" and args.action == "reconstruct" and args.oracle is None:
        return "order reconstruct needs --oracle"
    if args.command == "fe-check" and args.pair != "theta" and args.h_file is None:
        return "fe-check needs --h-file unless --pair theta"
    return None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="beurling",
        description="Computable Beurling generalised prime systems",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, system=True):
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--json", dest="format", action="store_const", const="json",
                       help="shorthand for --format json")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--threads", type=int,
                       default=int(os.environ.get("BEURLING_THREADS", "1")))
        p.add_argument("--config", default=None,
                       help="key=value file merged under the flags (flags win)")
        if system:
            p.add_argument("--system", default=None, type=_checked(_parse_system),
                           help="builtin:rationals | builtin:gaussian | list:v1,v2 | file:PATH")
            p.add_argument("--limit", type=_real, default=None)
            p.add_argument("--power", type=_real, default=None,
                           help="renormalise by the power transform at load time")

    p = sub.add_parser("gen", help="emit sorted g-integers up to a bound")
    add_common(p)
    p.add_argument("--bound", type=_real, required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("count", help="counting report N, pi, psi over a grid")
    add_common(p)
    p.add_argument("--grid", required=True, type=_checked(_grid_points), help="a:b:step or x1,x2,...")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("zeta", help="zeta/phi evaluators with tail bounds")
    add_common(p)
    p.add_argument("--s", action="append", required=True, type=_checked(_parse_complex),
                   help="complex point, e.g. 2+10i")
    p.add_argument("--method", choices=ZETA_METHODS, default="euler")
    p.add_argument("--cutoff", type=_real, default=None)
    p.set_defaults(func=cmd_zeta)

    p = sub.add_parser("perron", help="Perron recovery of psi(x)")
    add_common(p)
    p.add_argument("--x", type=_real, required=True)
    p.add_argument("--T", type=_real, default=None)
    p.add_argument("--c", type=_real, default=None)
    p.add_argument("--scan", type=_checked(_parse_list(_parse_real)), help="comma list of T values")
    p.set_defaults(func=cmd_perron)

    p = sub.add_parser("mellin", help="Mellin transforms and continuations")
    add_common(p)
    p.add_argument("--kernel", default="exp")
    p.add_argument("--op", choices=["transform", "continue", "partition"],
                   default="transform")
    p.add_argument("--s", action="append", default=None, type=_checked(_parse_complex))
    p.add_argument("--x", action="append", default=None, type=_checked(_parse_real))
    p.add_argument("--expansion", default=None,
                   help="builtin name or JSON file of expansion terms")
    p.set_defaults(func=cmd_mellin)

    p = sub.add_parser("fe-check", help="functional-equation residuals")
    add_common(p)
    p.add_argument("--pair", default=None, help="builtin pair name (theta)")
    p.add_argument("--kernel", default=None)
    p.add_argument("--expansion", default=None)
    p.add_argument("--h-file", default=None, help="residual series JSON")
    p.add_argument("--x-min", type=_real, default=0.5)
    p.add_argument("--x-max", type=_real, default=2.0)
    p.add_argument("--x-points", type=int, default=50)
    p.add_argument("--s-grid", type=_checked(_parse_list(_parse_complex)), help="comma list of complex points")
    p.set_defaults(func=cmd_fe_check)

    p = sub.add_parser("order", help="order reconstruction and comparison")
    add_common(p)
    p.add_argument("action", choices=["reconstruct", "coincide"])
    p.add_argument("--oracle", default=None,
                   help="cmd:... | system:FILE | builtin:name (with --limit)")
    p.add_argument("--p1", type=_real, default=2.0)
    p.add_argument("--K", type=int, default=20)
    p.add_argument("--n", type=int, default=10**4)
    p.add_argument("--system2", default=None, type=_checked(_parse_system))
    p.add_argument("--prefix", type=int, default=10**4)
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("axioms", help="windowed order-axiom verification")
    add_common(p)
    p.add_argument("--oracle", required=True)
    p.add_argument("--window", default="5,5", type=_checked(_parse_window), help="M,N")
    p.set_defaults(func=cmd_axioms)

    return parser


def _merge_config(argv: list[str]) -> list[str]:
    if "--config" not in argv[:-1]:  # absent, or last with no path after it
        return argv
    pairs = []
    with open(argv[argv.index("--config") + 1]) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#") or "=" not in line:
                continue
            key, val = line.split("=", 1)
            pairs.extend([f"--{key.strip()}", val.strip()])
    # insert right after the subcommand so explicit flags (later) win
    return argv[:1] + pairs + argv[1:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_merge_config(argv))
        problem = _usage_problem(args)
        if problem:
            parser.error(problem)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (BeurlingError, OSError, UnicodeDecodeError) as exc:  # domain errors, unreadable files
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
