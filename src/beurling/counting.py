"""Enumeration of the multiplicative semigroup and its counting functions.

A vector extends by primes at indices >= its highest used one, so each
g-integer is generated once.  N(x), the sorted value arrays and the sorted
stream's table (each counted under one pair of caps, built, then sorted) come
from one numpy walk, `_batches`, that sums whole same-prime chains at once and
forms the same floats as a depth-first walk.  The Dirichlet sum keeps a
depth-first walk of its own: the order in which it adds terms sets its last bits.

All comparisons against a query x happen in the log domain with tolerance
LOG_TIE_TOL * max(1, log x); values inside the tolerance band count as <= x
and grid reports flag the boundary hit.
"""
from __future__ import annotations

import cmath
import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    IncompleteSystemError,
    MaterialisationError,
    ParameterError,
)
from .systems import GInteger, GPrimeSystem, LOG_TIE_TOL, log_tolerance, per_system

MATERIALISE_WARN_CAP = 10**7
MATERIALISE_REFUSE_CAP = 10**8
PIECE = 2**16  # elements a walk expands at once, at most: bounds its working memory


def _check_bound(system: GPrimeSystem, bound: float, what: str = "bound") -> None:
    if bound > system.limit:
        raise IncompleteSystemError(
            f"{what} {bound} exceeds the system's completeness horizon {system.limit}"
        )
    if not math.isfinite(bound):  # NaN, or infinity under an infinite horizon
        raise ParameterError(f"{what} must be a finite number, got {bound}")


class GIntegerStream:
    """Single-consumer sorted stream of g-integers <= bound, with multiplicity.

    Emission order is nondecreasing in log value; numerically tied values are
    emitted in lexicographic order of their exponent vectors.  The whole
    table is counted (under the caps), built and sorted on construction.
    """

    def __init__(self, source: GPrimeSystem, bound: float):
        lb, tol = _capped_bound(source, bound, MATERIALISE_WARN_CAP, MATERIALISE_REFUSE_CAP)
        self.source, self.bound = source, bound
        table, *links = _table(source, lb, tol, links=True)
        order = np.argsort(table, kind="stable")
        self._items = _sorted_items(*map(memoryview, (table[order], order, *links)))

    def __iter__(self):
        return self

    def __next__(self) -> GInteger:
        return next(self._items)


def _sorted_items(
    logs: memoryview, rows: memoryview, back: memoryview, run: memoryview, prime: memoryview
):
    """The stream's GIntegers from its sorted rows: row r extends row back[r] by
    run[r] factors of the prime at index prime[r]; row 0 is the g-integer 1.  This
    holds no reference to the stream, so a dropped stream is freed at once, not by
    the cycle collector."""

    def exponents(row: int) -> tuple[tuple[int, int], ...]:
        exps: list[tuple[int, int]] = []  # highest prime index first
        while row:
            j, a, row = prime[row], run[row], back[row]
            if exps and exps[-1][0] == j:  # a leaf of its node's prime, or a chain cut short
                exps[-1] = (j, exps[-1][1] + a)
            else:
                exps.append((j, a))
        return tuple(reversed(exps))

    k = 0
    while k < len(logs):
        end = k + 1  # a tie cluster: items within LOG_TIE_TOL of its first
        while end < len(logs) and logs[end] - logs[k] <= LOG_TIE_TOL:
            end += 1
        if end == k + 1:
            yield GInteger(exponents(rows[k]), logs[k])
        else:  # in lexicographic order of exponent vectors
            tied = [GInteger(exponents(r), v) for r, v in zip(rows[k:end], logs[k:end])]
            yield from sorted(tied, key=lambda g: g.exponents)
        k = end


def stream_gintegers(system: GPrimeSystem, bound: float) -> GIntegerStream:
    """Sorted stream of every g-integer <= bound (each exponent vector once)."""
    return GIntegerStream(system, bound)


def _spans(first: np.ndarray, stop: np.ndarray, piece: int):
    """(k, j) for every j in first[k]..stop[k]-1, in order, at most `piece` pairs at a time."""
    size = np.maximum(stop - first, 0)
    ends = np.cumsum(size)
    starts = ends - size
    for start in range(0, int(ends[-1]), piece):
        end = min(start + piece, int(ends[-1]))
        a, b = np.searchsorted(ends, [start, end - 1], "right")  # the k this piece meets
        cut = np.minimum(ends[a : b + 1], end) - np.maximum(starts[a : b + 1], start)
        k = np.repeat(np.arange(a, b + 1), cut)
        yield k, np.arange(start, end) - (starts - first)[k]


def _batches(system: GPrimeSystem, log_bound: float, tol: float):
    """The walk over the exponent vectors with log value <= log_bound + tol.

    A node (log value v, index i) is a g-integer the walk extends: its children
    extend it by the primes at indices i..hi-1, and those from mid on (the
    leaves) extend no further.  Child i continues the node's chain (the node
    times powers of prime i) while logs[i] <= (log_bound + tol - v) / 2;
    children i+1..mid-1 head chains of later batches.  A batch sums its chains
    with one cumsum down a (chain step x head) array of at most PIECE elements,
    so each value is the sequential sum a depth-first walk forms.  Yields per
    batch the nodes' (v, i, mid, hi), chain by chain, each chain's length and
    each head's parent's row.
    """
    if not math.isfinite(log_bound):  # NaN passes every comparison; inf never ends
        raise ParameterError(f"cannot walk to the log bound {log_bound}")
    logs, top = system._logs, log_bound + tol
    pending, row = [(np.zeros(1), np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.intp))], 0
    while pending:
        v, i, src = pending.pop()
        step, rows = logs[i], min(int(np.max((top - v) / logs[i])) + 2, PIECE // len(v))
        chain = np.cumsum(np.vstack([v, np.broadcast_to(step, (rows - 1, len(v)))]), axis=0)
        length = np.minimum(1 + (step <= (top - chain) / 2).sum(axis=0), rows)
        v, i = chain.T[np.arange(rows) < length[:, None]], np.repeat(i, length)
        hi = np.maximum(np.searchsorted(logs, top - v, "right"), i)
        mid = np.maximum(np.searchsorted(logs, (top - v) / 2, "right"), i)
        yield v, i, mid, hi, length, src
        first = i + 1
        first[np.cumsum(length) - 1] -= 1  # a chain cut short at `rows` goes on as a head
        for k, j in _spans(first, mid, PIECE):
            pending.append((v[k] + logs[j], j, row + k))
        row += len(v)


def _count_leq(system: GPrimeSystem, log_bound: float, tol: float) -> int:
    """Number of exponent vectors with log value <= log_bound + tol."""
    batches = _batches(system, log_bound, tol)
    return sum(len(v) + int((hi - mid).sum()) for v, _, mid, hi, *_ in batches)


def _table(system: GPrimeSystem, log_bound: float, tol: float, links: bool = False):
    """Log values of all exponent vectors <= the bound: the nodes in walk order, then
    the leaves.  With `links`, also how each row extends an earlier one: the row
    before its run of one prime, the run's length and the prime's index."""
    walk = zip(*_batches(system, log_bound, tol))
    v, i, mid, hi, length, src = (np.concatenate(c) for c in walk)
    row = len(v)
    out = np.concatenate([v, np.empty(int((hi - mid).sum()))])
    if links:  # a chain's node at step s extends its head's parent by s + 1 factors
        back, run, prime = (np.ones(len(out), np.intp) for _ in range(3))
        back[:row], prime[:row] = np.repeat(src, length), i
        run[:row] = np.arange(row) - np.repeat(np.cumsum(length) - length, length) + 1
        run[: length[0]] -= 1  # the root chain heads at 1 itself, not at 1 times a prime
    for k, j in _spans(mid, hi, PIECE):
        out[row : row + len(k)] = v[k] + system._logs[j]
        if links:  # a leaf extends its node by one factor
            back[row : row + len(k)], prime[row : row + len(k)] = k, j
        row += len(k)
    return (out, back, run, prime) if links else out


def _collect_logs_leq(system: GPrimeSystem, log_bound: float, tol: float) -> np.ndarray:
    """Unsorted log values of all exponent vectors <= the bound."""
    return _table(system, log_bound, tol)


def _power_sum_leq(system: GPrimeSystem, log_bound: float, tol: float, s: complex):
    """(sum of n^{-s}, count) over all g-integers with log n <= log_bound + tol, by
    a depth-first walk: its order of terms sets the sum's last bits."""
    if not math.isfinite(log_bound):  # NaN passes every bisect; inf never ends
        raise ParameterError(f"cannot walk to the log bound {log_bound}")
    logs = system._log_list()
    prefix = np.concatenate([[0.0 + 0.0j], np.cumsum(np.exp(-s * system._logs))])
    total = 0.0 + 0.0j
    count = 0
    stack = [(0, 0.0)]
    while stack:
        i, lv = stack.pop()
        bt = log_bound + tol - lv
        hi = bisect_right(logs, bt, i)
        mid = bisect_right(logs, bt / 2, i)
        nv = cmath.exp(-s * lv)
        total += nv
        count += 1
        total += nv * (prefix[hi] - prefix[mid])
        count += hi - mid
        for j in range(i, mid):
            stack.append((j, lv + logs[j]))
    return total, count


def _capped_bound(system: GPrimeSystem, bound: float, warn_cap: int, refuse_cap: int):
    """(log bound, tol) to walk to `bound`, once the bound and its count pass the caps."""
    if bound < 1:
        raise ParameterError(f"bound must be >= 1, got {bound}")
    _check_bound(system, bound)
    lb, tol = math.log(bound), log_tolerance(bound)
    n = _count_leq(system, lb, tol)
    if n > refuse_cap:
        raise MaterialisationError(f"{n} g-integers exceed the cap {refuse_cap}")
    if n > warn_cap:
        warnings.warn(f"materialising {n} g-integers (warn cap {warn_cap})")
    return lb, tol


def _sorted_logs_leq(
    system: GPrimeSystem,
    bound: float,
    warn_cap: int = MATERIALISE_WARN_CAP,
    refuse_cap: int = MATERIALISE_REFUSE_CAP,
) -> np.ndarray:
    """Sorted log values of the g-integers <= bound, with multiplicity, capped."""
    return np.sort(_collect_logs_leq(system, *_capped_bound(system, bound, warn_cap, refuse_cap)))


def g_integer_values(
    system: GPrimeSystem,
    bound: float,
    warn_cap: int = MATERIALISE_WARN_CAP,
    refuse_cap: int = MATERIALISE_REFUSE_CAP,
) -> np.ndarray:
    """Sorted array of g-integer values <= bound, with multiplicity; a count
    above refuse_cap raises, above warn_cap warns (counting materialises nothing)."""
    return np.exp(_sorted_logs_leq(system, bound, warn_cap, refuse_cap))


def count_N(system: GPrimeSystem, x: float) -> int:
    """N(x): number of g-integers <= x, with multiplicity (streaming count)."""
    if x < 1:
        raise ParameterError(f"x must be >= 1, got {x}")
    _check_bound(system, x, "x")
    return _count_leq(system, math.log(x), log_tolerance(x))


def count_pi(system: GPrimeSystem, x: float) -> int:
    """pi(x): number of g-primes <= x, with multiplicity."""
    _check_bound(system, x, "x")
    if x <= 1:
        return 0
    return int(np.searchsorted(system._logs, math.log(x) + log_tolerance(x), side="right"))


def _build_prime_powers(system: GPrimeSystem, bound: float):
    """(L, W, cumsum W) over the prime powers <= bound, by log value, ties by prime
    index and then exponent: the order a stable sort of a prime-by-prime loop gives.

    Each prime's powers are one sequential cumsum of its log, the floats of the
    loop's repeated `v += log p`.
    """
    lb = math.log(bound) + log_tolerance(bound)
    logs = system._logs
    n = int(np.searchsorted(logs, lb, side="right"))
    L, i, k = [logs[:n]], [np.arange(n)], [np.ones(n, dtype=np.intp)]
    for j in range(int(np.searchsorted(logs, lb / 2, side="right"))):  # lp + lp <= lb
        lp = logs[j]
        # the sum of m terms is within a relative m * 2**-53 of m * lp, far inside
        # the 1e-6 margin, so the last sum passes lb
        powers = np.cumsum(np.full(int(lb / lp * (1 + 1e-6)) + 2, lp))
        m = int(np.searchsorted(powers, lb, side="right"))
        L.append(powers[1:m])
        i.append(np.full(m - 1, j))
        k.append(np.arange(2, m + 1))
    L, i, k = (np.concatenate(c) for c in (L, i, k))
    order = np.lexsort((k, i, L))
    W = logs[i[order]]
    return L[order], W, np.cumsum(W)


@per_system
def _psi_profile(system: GPrimeSystem) -> list:
    """A cell holding the prime-power table built so far: (top, L, W, cumsum W), the
    table up to the value `top`.  `_prime_powers` grows it; threads that grow it
    together each build and slice their own table, and one of them is kept."""
    return [(0.0, np.zeros(0), np.zeros(0), np.zeros(0))]


def _prime_powers(system: GPrimeSystem, bound: float):
    """(L, W, cumsum W) over the prime powers <= bound, sliced from `_psi_profile`.

    A bound past the table's top rebuilds it up to min(horizon, bound**2), which at
    least doubles the top's log: from a first bound b > 1, reaching a top B takes
    at most 1 + log2(log B / log b) builds, and a first bound at or above the
    horizon's square root takes one.  The slice equals the table built to the
    bound: the same floats in the same order.
    """
    _check_bound(system, bound)
    if bound <= 0:
        raise ParameterError(f"bound must be positive, got {bound}")
    if math.isinf(system.limit):  # no horizon to cap the table at
        return _build_prime_powers(system, bound)
    cell = _psi_profile(system)
    top, L, W, cum = cell[0]
    if bound > top:
        top = min(system.limit, max(bound, bound * bound))
        L, W, cum = _build_prime_powers(system, top)
        cell[0] = (top, L, W, cum)
    k = np.searchsorted(L, math.log(bound) + log_tolerance(bound), side="right")
    return L[:k], W[:k], cum[:k]


def prime_power_table(system: GPrimeSystem, bound: float) -> tuple[np.ndarray, np.ndarray]:
    """(L, W): sorted log values of prime powers <= bound and their log-p weights."""
    return _prime_powers(system, bound)[:2]


def psi(system: GPrimeSystem, x: float) -> float:
    """Chebyshev-type weighted count: sum of log p over prime powers <= x."""
    if x < 1:
        raise ParameterError(f"x must be >= 1, got {x}")
    _check_bound(system, x, "x")
    lx = math.log(x) + log_tolerance(x)
    lp = system._logs[: np.searchsorted(system._logs, lx, side="right")]
    # cumsum adds in index order, as a loop does; np.sum adds pairwise and changes bits
    return float(np.cumsum(np.floor(lx / lp) * lp)[-1]) if len(lp) else 0.0


def von_mangoldt(system: GPrimeSystem, n: GInteger) -> float:
    """Generalised von Mangoldt weight: log p if n = p**k, else 0."""
    if n.is_prime_power():
        i, _ = n.exponents[0]
        return float(system._logs[i])
    return 0.0


@dataclass(frozen=True)
class GapWindow:
    """Result of the g-integer-gap scan around a requested point."""

    center: float
    radius: float
    found: bool
    below: float | None  # nearest g-integer below the window, if any in range
    above: float | None
    shifted: bool
    obstruction: str = ""

    @property
    def interval(self) -> tuple[float, float]:
        return (self.center - self.radius, self.center + self.radius)


def nearest_gintegers(system: GPrimeSystem, x: float, halfwidth: float = 4.0) -> np.ndarray:
    """Sorted g-integer values from x - halfwidth up to min(limit, 2x + halfwidth).

    The extra headroom above x + halfwidth lets callers report the nearest
    neighbour above even when it sits outside the scan window proper.
    """
    _check_bound(system, x + halfwidth, "scan upper edge")
    hi = min(system.limit, 2 * x + halfwidth)
    vals = g_integer_values(system, hi)
    lo = x - halfwidth
    return vals[vals >= lo]


def gap_window(system: GPrimeSystem, x: float, radius_rule=None) -> GapWindow:
    """Nearest x' in (x-3, x+3) with (x' - r(x'), x' + r(x')) free of g-integers.

    The default radius rule is r(x) = 1/x**2, following the gap argument that
    guarantees such points exist for all large x.  If no candidate in the
    scan range qualifies, the densest obstruction is reported in the result
    (found=False) rather than guessed around.
    """
    if x < 2:
        raise ParameterError(f"gap scan needs x >= 2, got {x}")
    radius = radius_rule if radius_rule is not None else (lambda t: 1.0 / (t * t))
    vals = nearest_gintegers(system, x, 4.0)

    def qualifies(c: float) -> bool:
        r = radius(c)
        i = np.searchsorted(vals, c)
        left_ok = i == 0 or (c - vals[i - 1]) >= r
        right_ok = i == len(vals) or (vals[i] - c) >= r
        return left_ok and right_ok

    def neighbours(c: float):
        i = np.searchsorted(vals, c)
        below = float(vals[i - 1]) if i > 0 else None
        above = float(vals[i]) if i < len(vals) else None
        return below, above

    candidates = [x]
    inside = vals[(vals > x - 3) & (vals < x + 3)]
    # midpoints of consecutive gaps maximise the distance locally; ball edges
    # just outside each g-integer are the nearest possible escapes
    for v, w in zip(inside[:-1], inside[1:]):
        candidates.append(0.5 * (v + w))
    for v in inside:
        rv = radius(v)
        candidates.append(v - rv * 1.0000001)
        candidates.append(v + rv * 1.0000001)
    candidates = [c for c in candidates if x - 3 < c < x + 3 and c >= 2]
    candidates.sort(key=lambda c: abs(c - x))
    for c in candidates:
        if qualifies(c):
            below, above = neighbours(c)
            return GapWindow(c, radius(c), True, below, above, shifted=(c != x))
    # densest obstruction: the tightest pair of g-integers in range
    gaps = np.diff(inside)
    if len(gaps):
        k = int(np.argmin(gaps))
        obstruction = (
            f"tightest gap {gaps[k]:.3e} between {inside[k]:.6f} and {inside[k+1]:.6f}"
        )
    else:
        obstruction = "scan range contained no interior g-integers"
    below, above = neighbours(x)
    return GapWindow(x, radius(x), False, below, above, shifted=False, obstruction=obstruction)


@dataclass
class CountingReport:
    """Tabulated N(x), pi(x), psi(x) over a grid, with boundary-hit flags.

    rho_hat is the least-squares slope of N(x) against x over the top half of
    the grid (the empirical g-integer density).
    """

    grid: np.ndarray
    N: np.ndarray
    pi: np.ndarray
    psi: np.ndarray
    rho_hat: float
    boundary_hits: list[float] = field(default_factory=list)
    label: str = ""


def counting_report(system: GPrimeSystem, grid) -> CountingReport:
    """One-pass counting report over a sorted grid of query points."""
    grid = np.asarray(sorted(float(g) for g in grid), dtype=float)
    if not np.isfinite(grid).all():  # NaN has no place in an order and passes every range check
        raise ParameterError("grid points must be finite numbers")
    if len(grid) == 0:
        raise ParameterError("empty grid")
    if grid[0] < 1:
        raise ParameterError("grid points must be >= 1")
    top = float(grid[-1])
    _check_bound(system, top, "grid maximum")

    vals_log = _sorted_logs_leq(system, top)
    tols = np.array([log_tolerance(x) for x in grid])
    grid_log = np.log(grid) + tols
    N = np.searchsorted(vals_log, grid_log, side="right")

    pi_counts = np.searchsorted(system._logs, grid_log, side="right")

    L, _, cum = _prime_powers(system, top)
    cumW = np.concatenate([[0.0], cum])
    psi_vals = cumW[np.searchsorted(L, grid_log, side="right")]

    # a g-integer within 2 tol of x's log value sits on the boundary
    centre = grid_log - tols
    lo = np.searchsorted(vals_log, centre - 2 * tols, side="left")
    hi = np.searchsorted(vals_log, centre + 2 * tols, side="right")
    boundary = grid[hi > lo].tolist()

    half = len(grid) // 2
    xs = grid[half:]
    ns = N[half:]
    rho_hat = float(np.dot(ns, xs) / np.dot(xs, xs)) if np.dot(xs, xs) > 0 else 0.0
    return CountingReport(grid, N, pi_counts, psi_vals, rho_hat, boundary, system.label)
