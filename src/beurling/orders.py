"""Orders on N^2, their axioms, and reconstruction of prime systems.

The powers of g-primes map to N^2 via p_m^n <-> (m, n); every system induces
a total (pre)order there.  Conversely, an order satisfying the finiteness
and monotonicity axioms is induced by some system, recovered constructively:
f_k(n) is the unique integer with (1, f_k(n)) <= (k, n) < (1, f_k(n)+1), the
ratios f_k(n)/n converge with certified speed 1/n, and p_k = p1^{alpha_k}
for an arbitrary base p1 > 1.

External oracles are black boxes; axiom checks are windowed and reported as
verified-on-window only.  Exactly coincident prime-power values surface as
EQ results (logged); the f searches treat EQ as <=.  Two induced orders need
no search: orderings_coincide brackets f_k(n) in closed form from the logs,
with compare's own predicate, so EQ keeps its meaning there too.
"""
from __future__ import annotations

import contextlib
import math
import os
import select
import shlex
import subprocess
import time
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AxiomSearchError,
    IncompleteSystemError,
    ParameterError,
    PreconditionError,
)
from .systems import GPrimeSystem, LOG_TIE_TOL, from_list

LT, EQ, GT = -1, 0, 1
MAX_DOUBLINGS = 64
A2_MULTIPLIERS = (2, 3, 5, 8)  # the k that A2 scales each compared pair by
A3_CAP = 2**16  # the largest t an A3 witness search tries before it reports undetermined
REPLY_TIMEOUT_S = 10.0  # how long a ProcessOracle waits for one reply
PIECE = 4096  # traversal points orderings_coincide brackets at once, at most


class OrderOracle:
    """Total-order comparator on N^2 points (m, n), 1-based indices."""

    def compare(self, a: tuple[int, int], b: tuple[int, int]) -> int:
        raise NotImplementedError

    def close(self) -> None:
        """Release what the oracle holds; a no-op unless it owns a process."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class InducedOracle(OrderOracle):
    """Order induced by a system: (m, n) compares as n * log p_m.

    Ties within the float tolerance are declared EQ and counted.  Indices
    beyond the stored primes are resolved through the completeness horizon
    when that decides the comparison (any unlisted prime exceeds `limit`),
    and raise IncompleteSystemError otherwise.
    """

    def __init__(self, system: GPrimeSystem):
        if system.nprimes < 1:
            raise ParameterError("induced order needs at least one prime")
        self.system = system
        self.eq_count = 0
        self._log_limit = math.log(system.limit)

    def _key(self, point: tuple[int, int]):
        m, n = point
        if m < 1 or n < 1:
            raise ParameterError(f"N^2 indices are 1-based, got {point}")
        if m <= self.system.nprimes:
            return n * float(self.system._logs[m - 1]), True
        return n * self._log_limit, False  # a strict lower bound

    def compare(self, a, b) -> int:
        ka, exact_a = self._key(a)
        kb, exact_b = self._key(b)
        if exact_a and exact_b:
            if abs(ka - kb) <= LOG_TIE_TOL:
                self.eq_count += 1
                return EQ
            return LT if ka < kb else GT
        if not exact_a and not exact_b:
            raise IncompleteSystemError(
                f"both {a} and {b} lie beyond the stored primes; order unknown"
            )
        if not exact_a:
            if ka >= kb:  # true key exceeds ka
                return GT
            raise IncompleteSystemError(f"{a} is beyond the horizon and may flip")
        if kb >= ka:
            return LT
        raise IncompleteSystemError(f"{b} is beyond the horizon and may flip")


class FunctionOracle(OrderOracle):
    """Wrap a plain comparator function as an oracle."""

    def __init__(self, fn):
        self._fn = fn

    def compare(self, a, b) -> int:
        return int(self._fn(a, b))


class ProcessOracle(OrderOracle):
    """Line-oriented external oracle: send `m n m' n'`, read `<`, `=` or `>`.

    A reply that takes longer than REPLY_TIMEOUT_S, and a child that has
    exited, raise ParameterError instead of blocking the caller.
    """

    def __init__(self, cmd: str):
        argv = shlex.split(cmd)
        if not argv:
            raise ParameterError("the oracle command is empty")
        self._proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def compare(self, a, b) -> int:
        try:
            self._proc.stdin.write(f"{a[0]} {a[1]} {b[0]} {b[1]}\n".encode())
            self._proc.stdin.flush()
        except BrokenPipeError:
            raise ParameterError("the oracle process has exited") from None
        # read byte by byte, so no input waits in a buffer that select cannot see
        fd, reply = self._proc.stdout.fileno(), b""
        deadline = time.monotonic() + REPLY_TIMEOUT_S
        while not reply.endswith(b"\n"):
            if not select.select([fd], [], [], max(0.0, deadline - time.monotonic()))[0]:
                raise ParameterError(f"the oracle gave no reply within {REPLY_TIMEOUT_S} s")
            byte = os.read(fd, 1)
            if not byte:
                break  # the child has exited; the check below reports the short reply
            reply += byte
        mapping = {"<": LT, "=": EQ, ">": GT}
        text = reply.decode(errors="replace").strip()
        if text not in mapping:
            raise ParameterError(f"oracle protocol violation: reply {text!r}")
        return mapping[text]

    def close(self):
        with contextlib.suppress(BrokenPipeError):
            self._proc.stdin.close()
        self._proc.stdout.close()
        try:
            self._proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()


def induced_oracle(system: GPrimeSystem) -> InducedOracle:
    return InducedOracle(system)


@dataclass
class AxiomReport:
    """Windowed verification of the order axioms; never a global claim.

    a3_ok is None when a search hit its cap: undetermined, not failed.
    """

    window: tuple[int, int]
    a1_ok: bool = True
    a2_ok: bool = True
    a3_ok: bool | None = True
    a1_counterexample: tuple | None = None
    a2_counterexample: tuple | None = None
    a3_counterexample: tuple | None = None
    a3_k_witness: dict = field(default_factory=dict)
    a3_l_witness: dict = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return self.a1_ok and self.a2_ok and self.a3_ok is True


def check_axioms(oracle: OrderOracle, window: tuple[int, int]) -> AxiomReport:
    """Check A1 exhaustively, A2 on the multipliers A2_MULTIPLIERS, A3 by a
    search capped at A3_CAP.

    A1: (m,n) <= (m',n') when m <= m' and n <= n', strict when n < n'.
    A2: (m,n) <= (m',n') implies (m,kn) <= (m',kn'), strict preserved.
    A3: for each n a k with (1,n) < (k,1); for each m an l with (m,1) < (1,l).
    """
    M, N = window
    if M < 2 or N < 2:
        raise ParameterError("axiom window needs M, N >= 2")
    if isinstance(oracle, InducedOracle) and M > oracle.system.nprimes:
        raise ParameterError(
            f"window M = {M} exceeds the {oracle.system.nprimes} stored primes"
        )
    report = AxiomReport(window=(M, N))

    points = [(m, n) for m in range(1, M + 1) for n in range(1, N + 1)]
    for a in points:
        for b in points:
            if a[0] <= b[0] and a[1] <= b[1]:
                c = oracle.compare(a, b)
                if c == GT or (a[1] < b[1] and c != LT):
                    report.a1_ok = False
                    report.a1_counterexample = (a, b, c)
                    break
        if not report.a1_ok:
            break

    if report.a1_ok:
        for a in points:
            for b in points:
                base = oracle.compare(a, b)
                if base == GT:
                    continue
                for k in A2_MULTIPLIERS:
                    scaled = oracle.compare((a[0], k * a[1]), (b[0], k * b[1]))
                    bad = scaled == GT or (base == LT and scaled != LT)
                    if bad:
                        report.a2_ok = False
                        report.a2_counterexample = (a, b, k, base, scaled)
                        break
                if not report.a2_ok:
                    break
            if not report.a2_ok:
                break

    for label, witnesses, size, lhs, rhs in (
        ("A3(i)", report.a3_k_witness, N, lambda n: (1, n), lambda k: (k, 1)),
        ("A3(ii)", report.a3_l_witness, M, lambda m: (m, 1), lambda l: (1, l)),
    ):
        for n in range(1, size + 1):
            witness = _a3_witness(oracle, lhs(n), rhs)
            if witness is None:
                report.a3_ok = None
                report.a3_counterexample = (label, n)
                return report
            witnesses[n] = witness
    return report


def _a3_witness(oracle: OrderOracle, a: tuple[int, int], b) -> int | None:
    """The first t = 1, 2, 4, ... <= A3_CAP with a < b(t), or None: at the cap, or
    once a compare leaves the system's horizon."""
    t = 1
    while t <= A3_CAP:
        try:
            if oracle.compare(a, b(t)) == LT:
                return t
        except IncompleteSystemError:
            return None
        t *= 2
    return None


def f_k(oracle: OrderOracle, k: int, n: int) -> int:
    """The unique f with (1, f) <= (k, n) < (1, f+1), by doubling + bisection.

    EQ answers count as <=; a doubling search that does not escape within
    MAX_DOUBLINGS suggests an A3 violation and raises.
    """
    if k < 1 or n < 1:
        raise ParameterError("f_k needs k, n >= 1")
    hi = 1
    doublings = 0
    while oracle.compare((1, hi), (k, n)) <= EQ:
        hi *= 2
        doublings += 1
        if doublings > MAX_DOUBLINGS:
            raise AxiomSearchError(
                f"(1, f) never exceeded ({k}, {n}) after {MAX_DOUBLINGS} doublings; "
                "axiom A3 is suspect"
            )
    lo = hi // 2
    if lo == 0:
        raise AxiomSearchError(f"(1,1) already exceeds ({k}, {n}); axiom A1 is suspect")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if oracle.compare((1, mid), (k, n)) <= EQ:
            lo = mid
        else:
            hi = mid
    return lo


@dataclass(frozen=True)
class AlphaInterval:
    """Certified enclosure of alpha_k = log p_k / log p_1.

    The sandwich f_k(n) <= n*alpha_k <= f_k(n)+1 gives the one-sided interval
    [f/n, f/n + 1/n], reported centred with radius 1/(2n).
    """

    value: float
    radius: float
    f: int
    n: int

    @property
    def low(self) -> float:
        return self.value - self.radius

    @property
    def high(self) -> float:
        return self.value + self.radius


def alpha_k(oracle: OrderOracle, k: int, n: int) -> AlphaInterval:
    if k == 1:
        return AlphaInterval(1.0, 0.0, n, n)
    f = f_k(oracle, k, n)
    return AlphaInterval(f / n + 0.5 / n, 0.5 / n, f, n)


@dataclass(frozen=True)
class ReconstructionResult:
    alpha: tuple[AlphaInterval, ...]
    system: GPrimeSystem
    p1: float

    @property
    def enclosures(self) -> tuple[tuple[float, float], ...]:
        """[p1^low, p1^high] per alpha: where each reconstructed prime's true value lies."""
        return tuple((self.p1**a.low, self.p1**a.high) for a in self.alpha)


def reconstruct(oracle: OrderOracle, p1: float, K: int, n: int) -> ReconstructionResult:
    """Build the system p_k = p1^{alpha_k} from the order alone.

    p1 > 1 is the caller's arbitrary base; the horizon is set just above the
    largest reconstructed prime so induced comparisons stay within it.
    """
    if not (p1 > 1):
        raise ParameterError(f"base prime must exceed 1, got {p1}")
    if K < 1 or n < 1:
        raise ParameterError("reconstruct needs K, n >= 1")
    alphas = [alpha_k(oracle, k, n) for k in range(1, K + 1)]
    try:
        primes = [p1**a.value for a in alphas]
        limit = p1 ** (alphas[-1].value + 1.0 / n)
    except OverflowError:
        raise ParameterError(f"base prime {p1} overflows the reconstructed primes") from None
    system = from_list(primes, limit, label=f"reconstructed(p1={p1:g}, n={n})")
    return ReconstructionResult(tuple(alphas), system, p1)


@dataclass(frozen=True)
class CoincidenceResult:
    """Outcome of comparing two induced orderings on a traversal prefix.

    lam satisfies P1 = P2**lam when the orderings coincide (coinciding
    orders only ever differ by a power); witness carries the first
    discordant N^2 pair otherwise.
    """

    coincide: bool
    lam: float | None
    witness: tuple | None
    checked: int
    scaling_verified: bool = False
    max_scaling_deviation: float = 0.0


def _diagonal_piece(start: int, stop: int, kmax: int):
    """Points start..stop-1 (from 0) of the diagonal traversal (1, 1), (1, 2),
    (2, 1), (1, 3), ... with k <= kmax, as arrays (ks, ns)."""
    i = np.arange(start, stop)
    tri = kmax * (kmax + 1) // 2  # diagonals t < kmax hold t + 1 points, later ones kmax
    t = np.floor((np.sqrt(8.0 * i + 1) - 1) / 2).astype(np.int64)
    t -= t * (t + 1) // 2 > i  # a rounded sqrt is off by one at most
    t += (t + 1) * (t + 2) // 2 <= i
    late = i >= tri
    t = np.where(late, kmax + (i - tri) // kmax, t)
    ks = np.where(late, (i - tri) % kmax, i - t * (t + 1) // 2) + 1
    return ks, t + 2 - ks


def _brackets(system: GPrimeSystem, ks: np.ndarray, ns: np.ndarray) -> np.ndarray:
    """f_k(n) of the order `system` induces, at each point: the largest f with
    fl(f * log p_1) - fl(n * log p_k) <= LOG_TIE_TOL, which is InducedOracle's
    compare((1, f), (k, n)) <= EQ bit for bit.  Steps of one settle each f from
    its estimate.  0 marks a point that (1, 1) already exceeds, 2**52 one whose
    bracket reaches where f * log p_1 stops being exact: f_k must search those."""
    l1, kb = system._logs[0], ns * system._logs[ks - 1]
    f = np.clip(np.floor((kb + LOG_TIE_TOL) / l1), 1, 2**52).astype(np.int64)
    while True:
        down = f * l1 - kb > LOG_TIE_TOL  # false at f = 0, as kb > 0
        up = ((f + 1) * l1 - kb <= LOG_TIE_TOL) & (f < 2**52)
        if not (down.any() or up.any()):
            return f
        f += up
        f -= down


def orderings_coincide(
    system1: GPrimeSystem,
    system2: GPrimeSystem,
    prefix: int,
    certified_radii=None,
) -> CoincidenceResult:
    """Compare the induced orderings on the first `prefix` points of N^2.

    Points are traversed diagonally; at each (k, n) the bracketing integers
    f_k(n) of both systems must agree.  They are taken in closed form, PIECE
    points at a time (see _brackets); a bracket of 2**52 or more goes through
    the search f_k.  When system2 is a reconstruction, pass its certified alpha
    radii: a point then agrees whenever system1's bracket lies inside the
    integer range the certificate allows, which is all a radius-limited
    reconstruction can promise.  On full agreement the scaling exponent
    lam = log p_1 / log q_1 is returned and p_k = q_k**lam is verified on
    every index checked.
    """
    if prefix < 1:
        raise ParameterError("prefix must be >= 1")
    kmax = min(system1.nprimes, system2.nprimes)
    o1, o2 = InducedOracle(system1), InducedOracle(system2)
    radii = rates = None
    log_q1 = math.log(system2.primes[0])
    if certified_radii is not None:
        radii = [float(r) for r in certified_radii]
        if len(radii) < kmax:
            raise ParameterError("need one certified radius per compared prime")
        a_hat = [math.log(q) / log_q1 for q in system2.primes[:kmax]]
        rates = np.array([[a - r, a + r] for a, r in zip(a_hat, radii)]).T  # f's window over n
    for start in range(0, prefix, PIECE):
        ks, ns = _diagonal_piece(start, min(start + PIECE, prefix), kmax)
        f1, f2 = _brackets(system1, ks, ns), _brackets(system2, ks, ns)
        if rates is None:
            agree = f1 == f2
        else:
            window = np.floor(ns * rates[:, ks - 1] + 1e-9)  # NaN, inf: raised below
            agree = (window[0] <= f1) & (f1 <= window[1]) & np.isfinite(window).all(axis=0)
        exact = (np.minimum(f1, f2) > 0) & (np.maximum(f1, f2) < 2**52)
        # the points that disagree or need the search, one at a time in traversal
        # order: a search that raises does so only if no disagreement comes first
        for i in np.flatnonzero(~(agree & exact)).tolist():
            k, n = int(ks[i]), int(ns[i])
            b1, b2 = (int(f[i]) if 0 < f[i] < 2**52 else f_k(o, k, n) for f, o in ((f1, o1), (f2, o2)))
            if rates is None:
                ok = b1 == b2
            else:
                lo, hi = (math.floor(n * r + 1e-9) for r in rates[:, k - 1].tolist())
                ok = lo <= b1 <= hi
            if not ok:
                return CoincidenceResult(False, None, ((k, n), (1, min(b1, b2) + 1), b1, b2), start + i + 1)
    lam = math.log(system1.primes[0]) / log_q1
    dev = 0.0
    tol = 1e-9
    for i, (p, q) in enumerate(zip(system1.primes[:kmax], system2.primes[:kmax])):
        dev = max(dev, abs(math.log(p) - lam * math.log(q)) / (1 + abs(math.log(p))))
        if radii is not None:
            tol = max(tol, radii[i] * abs(log_q1) * abs(lam) + 1e-9)
    return CoincidenceResult(True, lam, None, prefix, dev <= tol, dev)


@dataclass(frozen=True)
class LimitEstimate:
    value: float
    radius: float


def cauchy_limit(f, n: int) -> LimitEstimate:
    """Certified limit of f(n)/n for f with |f(mn)/mn - f(n)/n| <= 1/n.

    The contraction property is spot-checked on the pairs (m, q) with m in
    2, 3, 7, 10, 17 and q in 1, 2, 3, 5, 8, 13, n // 7, n; a violation raises
    with the witness.  On the checked samples the lemma gives
    |f(n)/n - lim| <= 1/n, returned as (estimate, radius).
    """
    if n < 1:
        raise ParameterError("n must be >= 1")
    for q in (1, 2, 3, 5, 8, 13, max(1, n // 7), n):
        for m in (2, 3, 7, 10, 17):
            lhs = abs(f(m * q) / (m * q) - f(q) / q)
            if lhs > 1.0 / q + 1e-12:
                raise PreconditionError(
                    f"|f({m}*{q})/{m * q} - f({q})/{q}| = {lhs:.6g} > 1/{q}",
                    witness=(m, q),
                )
    return LimitEstimate(f(n) / n, 1.0 / n)
