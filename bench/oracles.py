"""Independent oracles for every benchmark op and CLI invocation.

Nothing here imports `beurling`.  Counting oracles come from a numpy sieve
and a lattice-point count; analytic ones from mpmath.  Each check returns
None when the output passes and a one-line reason when it does not, so the
harness counts failures instead of raising.

Bounds are checked as bounds: |value - truth| <= reported bound, plus
ROUNDING relative slack for double-precision rounding, which the library's
reported quadrature and tail figures do not include.  Estimates (the
Dirichlet tail, and mpmath's quadrature error that `mellin_G` returns as
`tail_bound`) are checked within ESTIMATE_FACTOR times the estimate, and are
labelled as estimates in the failure text.
"""
from __future__ import annotations

import csv
import io
import json
import math

import mpmath as mp
import numpy as np

ROUNDING = 1e-12
ESTIMATE_FACTOR = 2.0
THETA_X_TOL = 1e-10  # acceptance criterion 08, x side
THETA_MELLIN_TOL = 1e-8  # acceptance criterion 08, Mellin side
CONTINUATION_TOL = 1e-4  # acceptance criterion 07 at s = 1/2
PSI_REL = 1e-9
SCALING_TOL = 1e-9  # orderings_coincide's own tolerance on p_k = q_k**lam


def _close(value: complex, truth: complex, bound: float) -> bool:
    return abs(value - truth) <= bound + ROUNDING * max(1.0, abs(truth))


class Tables:
    """Exact counting tables up to `limit` for the rationals and Q(i) norms."""

    def __init__(self, limit: int = 10**6):
        self.limit = limit
        sieve = np.ones(limit + 1, dtype=bool)
        sieve[:2] = False
        for p in range(2, math.isqrt(limit) + 1):
            if sieve[p]:
                sieve[p * p :: p] = False
        primes = np.flatnonzero(sieve)
        self.primes = primes
        # g-primes of Q(i): 2, p = 1 mod 4 twice, q^2 for q = 3 mod 4
        gp = np.concatenate(
            [[2], np.repeat(primes[primes % 4 == 1], 2), primes[primes % 4 == 3] ** 2]
        )
        gp = np.sort(gp[gp <= limit])
        self.gprimes = {"rational": primes, "gaussian": gp}
        self.pi = {k: np.cumsum(np.bincount(v, minlength=limit + 1)) for k, v in self.gprimes.items()}
        self.psi = {k: np.cumsum(self._mangoldt(v)) for k, v in self.gprimes.items()}
        # r2(n)/4 summed: the number of Gaussian g-integers of norm <= n
        amax = math.isqrt(limit)
        norms = [
            a * a + np.arange(-math.isqrt(limit - a * a), math.isqrt(limit - a * a) + 1) ** 2
            for a in range(-amax, amax + 1)
        ]
        r2 = np.bincount(np.concatenate(norms), minlength=limit + 1)
        r2[0] = 0
        self.norm_mult = r2 // 4
        self.N_gaussian = np.cumsum(self.norm_mult)

    def _mangoldt(self, gprimes: np.ndarray) -> np.ndarray:
        """Lambda(n) on 0..limit: log v at every power v^k of every g-prime copy."""
        lam = np.zeros(self.limit + 1)
        np.add.at(lam, gprimes, np.log(gprimes.astype(float)))
        for v in gprimes[gprimes <= math.isqrt(self.limit)]:
            pk = int(v) ** 2
            while pk <= self.limit:
                lam[pk] += math.log(v)
                pk *= int(v)
        return lam

    def N(self, system: str, x: float) -> int:
        n = int(math.floor(x))
        return n if system == "rational" else int(self.N_gaussian[n])

    def is_gint(self, system: str, n: int) -> bool:
        return n >= 1 and (system == "rational" or self.norm_mult[n] > 0)


def zeta_ref(system: str, s: complex) -> complex:
    if system == "rational":
        return complex(mp.zeta(s))
    return complex(mp.zeta(s) * mp.dirichlet(s, [0, 1, 0, -1]))


def mellin_ref(kernel: str, s: complex) -> complex:
    if kernel == "exp":
        return complex(mp.gamma(s))
    return complex(0.5 * mp.pi ** (-s / 2) * mp.gamma(s / 2))


# ---------------------------------------------------------------- ops


def check_op(tab, kind: str, p: dict, out) -> str | None:
    system = p.get("system", "rational")
    if kind in ("count_N_rational", "count_N_gaussian"):
        want = tab.N(kind.rsplit("_", 1)[1], p["x"])
        return None if out == want else f"N({p['x']}) = {out}, lattice/floor says {want}"
    if kind == "count_pi":
        want = int(tab.pi[system][int(p["x"])])
        return None if out == want else f"pi({p['x']}) = {out}, sieve says {want}"
    if kind == "psi":
        want = float(tab.psi[system][int(p["x"])])
        ok = abs(out - want) <= PSI_REL * max(1.0, want)
        return None if ok else f"psi({p['x']}) = {out}, sieve says {want}"
    if kind == "gap_window":
        return _check_gap(tab, system, p["x"], *out)
    if kind in ("stream_rational", "stream_gaussian"):
        return _check_stream(tab, kind.rsplit("_", 1)[1], p["bound"], p["k"], out)
    if kind == "zeta_dirichlet":
        s = complex(*p["s"])
        value, tail = complex(out[0], out[1]), out[2]
        ok = _close(value, zeta_ref(system, s), ESTIMATE_FACTOR * tail)
        return None if ok else f"zeta_dirichlet({s}) outside {ESTIMATE_FACTOR}x its tail estimate"
    if kind == "counting_report":
        N, pi, psi = (np.asarray(a) for a in out)
        grid = np.arange(1, p["grid_max"])
        bad = np.count_nonzero(N != tab.N_gaussian[grid])
        bad += np.count_nonzero(pi != tab.pi["gaussian"][grid])
        bad += np.count_nonzero(np.abs(psi - tab.psi["gaussian"][grid]) > PSI_REL * np.maximum(1, psi))
        return None if bad == 0 else f"counting_report: {bad} rows disagree with the lattice/sieve"
    if kind == "reconstruct":
        for k, (lo, hi) in enumerate(out, start=1):
            truth = math.log(tab.primes[k - 1]) / math.log(2.0)
            if not lo - 1e-15 <= truth <= hi + 1e-15:
                return f"alpha_{k} enclosure [{lo}, {hi}] misses {truth}"
        return None if len(out) == p["K"] else f"reconstruct returned {len(out)} primes"
    if kind == "coincide":
        coincide, lam, checked, scaling_verified, deviation = out
        ok = coincide and lam and abs(1.0 / lam - p["lam"]) <= 1e-12 and checked == p["prefix"]
        # p_k = q_k**lam holds exactly for a power copy, up to double rounding
        ok = ok and scaling_verified and deviation <= SCALING_TOL
        return None if ok else (f"power copy lam={p['lam']}: coincide={coincide}, lam={lam}, "
                                f"scaling_verified={scaling_verified}, deviation={deviation}")
    if kind == "zeta_euler":
        s = complex(*p["s"])
        ok = _close(complex(out[0], out[1]), zeta_ref("rational", s), out[2])
        return None if ok else f"zeta_euler({s}) outside its tail bound"
    if kind == "phi_continued":
        s = complex(*p["s"])
        truth = complex(-mp.zeta(s, derivative=1) / mp.zeta(s))
        ok = _close(complex(out[0], out[1]), truth, out[2])
        return None if ok else f"phi_continued({s}) outside its tail bound"
    if kind in ("perron_T1e3", "perron_T1e4"):
        value, budget, _ = out
        truth = float(tab.psi["rational"][int(p["x"])])
        return None if abs(value - truth) <= budget else f"perron_psi({p['x']}, T={p['T']}) outside budget"
    if kind == "continue_Gzeta":
        s = complex(*p["s"])
        truth = complex(mp.gamma(s) * mp.zeta(s))
        ok = abs(complex(out[0], out[1]) - truth) <= CONTINUATION_TOL
        return None if ok else f"continue_Gzeta({s}) off Gamma*zeta by more than {CONTINUATION_TOL}"
    if kind == "fe_residual":
        ok = abs(complex(out[0], out[1])) <= THETA_X_TOL
        return None if ok else f"theta x-residual at {p['x']} above {THETA_X_TOL}"
    if kind == "check_fe_mellin":
        max_res, rows, _ = out
        ok = rows == 1 and max_res <= THETA_MELLIN_TOL
        return None if ok else f"theta Mellin residual at {p['s']} above {THETA_MELLIN_TOL}"
    if kind == "mellin_G":
        s = complex(*p["s"])
        ok = _close(complex(out[0], out[1]), mellin_ref(p["kernel"], s), ESTIMATE_FACTOR * out[2])
        return None if ok else f"mellin_G({p['kernel']}, {s}) outside {ESTIMATE_FACTOR}x its quadrature error estimate"
    return f"no oracle for {kind}"


def _check_gap(tab, system, x, center, radius, found, below, above) -> str | None:
    if not found or abs(center - x) >= 3:
        return f"gap_window({x}) found={found} at {center}"
    lo, hi = center - radius, center + radius
    for n in range(math.ceil(lo), math.floor(hi) + 1):
        if tab.is_gint(system, n) and lo < n < hi:
            return f"gap_window({x}) window holds g-integer {n}"
    # neighbours are reported only inside the scan range [x - 4, 2x + 4]
    b = round(below) if below is not None else math.ceil(x - 4) - 1
    a = round(above) if above is not None else math.floor(min(tab.limit, 2 * x + 4)) + 1
    if not b <= center <= a:
        return f"gap_window({x}) neighbours {below}, {above} do not surround {center}"
    for n, reported in ((b, below), (a, above)):
        if reported is not None and not tab.is_gint(system, n):
            return f"gap_window({x}) neighbour {reported} is not a g-integer"
    if tab.N(system, a - 1) != tab.N(system, b):
        return f"gap_window({x}) neighbours {below}, {above} are not adjacent"
    return None


def _check_stream(tab, system, bound, k, items) -> str | None:
    gp = tab.gprimes[system]
    want_len = min(k, tab.N(system, bound))
    if len(items) != want_len:
        return f"stream gave {len(items)} items, expected {want_len}"
    values = []
    prev = None
    for logv, exps in items:
        n = 1
        for i, a in exps:
            n *= int(gp[i]) ** a
        if abs(math.exp(logv) - n) > 1e-9 * n:
            return f"stream item {exps} has log value {logv}, not log {n}"
        key = (n, [list(e) for e in exps])
        if prev is not None and key <= prev:
            return f"stream order broken at {n} {exps}"
        prev = key
        values.append(n)
    if system == "rational":
        return None if values == list(range(1, len(values) + 1)) else "stream skipped an integer"
    # every norm below the last (possibly cut) tie cluster appears r2(n)/4 times
    counts = np.bincount(values, minlength=values[-1] + 1)[: values[-1]]
    ok = np.array_equal(counts, tab.norm_mult[: values[-1]])
    return None if ok else "stream multiplicities differ from r2(n)/4"


# ---------------------------------------------------------------- CLI


def _parse(text: str):
    if text.startswith("{"):
        payload = json.loads(text)
        return payload["rows"], {k: v for k, v in payload.items() if k not in ("rows", "manifest")}
    extra = {}
    body = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, val = line[2:].partition("=")
            extra[key] = val
        else:
            body.append(line)
    return list(csv.DictReader(io.StringIO("\n".join(body)))), extra


def check_cli(tab, cmd: str, stdout: str) -> str | None:
    rows, extra = _parse(stdout)
    words = cmd.split()
    sub = words[0]
    if not rows:
        return "no rows"
    if sub == "count":
        for r in rows:
            x = float(r["x"])
            n = int(x)
            if int(r["N"]) != n or int(r["pi"]) != int(tab.pi["rational"][n]):
                return f"count row {x}: N={r['N']} pi={r['pi']}"
            if abs(float(r["psi"]) - tab.psi["rational"][n]) > PSI_REL * max(1.0, n):
                return f"count row {x}: psi={r['psi']}"
        return None
    if sub == "gen":
        smooth = sorted(2**a * 3**b for a in range(6) for b in range(4) if 2**a * 3**b <= 50)
        got = [round(float(r["value"])) for r in rows]
        return None if got == smooth else f"gen gave {got}"
    if sub == "zeta":
        for r in rows:
            s = complex(float(r["s_re"]), float(r["s_im"]))
            value = complex(float(r["value_re"]), float(r["value_im"]))
            tail = float(r["tail_bound"])
            if "mellin" in words:
                ok = abs(value) <= 1e-9
            elif "dirichlet" in words:
                ok = _close(value, zeta_ref("rational", s), ESTIMATE_FACTOR * tail)
            else:
                ok = _close(value, zeta_ref("rational", s), tail)
            if not ok:
                return f"zeta row {s}: {value} (tail {tail})"
        return None
    if sub == "perron":
        x = float(words[words.index("--x") + 1])
        truth = float(tab.psi["rational"][int(x)])
        for r in rows:
            if abs(float(r["oracle"]) - truth) > PSI_REL * truth:
                return f"perron oracle {r['oracle']} != sieve psi {truth}"
            if abs(float(r["value"]) - truth) > float(r["budget"]):
                return f"perron T={r['T']} outside budget"
        return None
    if sub == "mellin":
        s = complex(float(rows[0]["s_re"]), float(rows[0]["s_im"]))
        value = complex(float(rows[0]["value_re"]), float(rows[0]["value_im"]))
        if "continue" in words:
            ok = abs(value - complex(mp.gamma(s) * mp.zeta(s))) <= CONTINUATION_TOL
        else:
            ok = _close(value, mellin_ref("exp", s), ESTIMATE_FACTOR * float(rows[0]["quad_error"]))
        return None if ok else f"mellin {s}: {value}"
    if sub == "fe-check":
        worst = max(abs(complex(float(r["residual_re"]), float(r["residual_im"]))) for r in rows)
        ok = worst <= THETA_X_TOL and len(rows) == 50
        return None if ok else f"fe-check worst residual {worst}"
    if sub == "order" and words[1] == "reconstruct":
        for r in rows:
            k = int(r["k"])
            truth = math.log(tab.primes[k - 1]) / math.log(2.0)
            a, rad = float(r["alpha"]), float(r["radius"])
            if not a - rad - 1e-15 <= truth <= a + rad + 1e-15:
                return f"alpha_{k} enclosure misses {truth}"
        return None if len(rows) == 20 else f"reconstruct gave {len(rows)} rows"
    if sub == "order":
        r = rows[0]
        ok = r["coincide"] == "true" and float(r["lambda"]) == 1.0
        return None if ok else f"coincide row {r}"
    if sub == "axioms":
        ok = extra.get("all_pass") == "true" and all(r["ok"] == "true" for r in rows)
        return None if ok else f"axioms {rows}"
    return f"no oracle for {sub}"
