"""Enumeration of the multiplicative semigroup and its counting functions.

The sorted stream uses a min-heap over (log value, exponent vector): popping
a vector pushes its extensions by primes at indices >= its highest used
index, so every exponent vector is generated exactly once.  Everything that
does not need the sorted order (N(x), the Dirichlet power sums, and the
materialised value arrays, sorted afterwards) consumes one depth-first walk,
`_walk`, which hands each node's childless branches to its consumer as one
index range found by binary search.  Sorted arrays are materialised through
one capped path that counts before it collects.

All comparisons against a query x happen in the log domain with tolerance
LOG_TIE_TOL * max(1, log x); values inside the tolerance band count as <= x
and grid reports flag the boundary hit.
"""
from __future__ import annotations

import cmath
import heapq
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
from .systems import GInteger, GPrimeSystem, LOG_TIE_TOL, log_tolerance

MATERIALISE_WARN_CAP = 10**7
MATERIALISE_REFUSE_CAP = 10**8


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
    emitted in lexicographic order of their exponent vectors.
    """

    def __init__(self, source: GPrimeSystem, bound: float):
        if bound < 1:
            raise ParameterError(f"bound must be >= 1, got {bound}")
        _check_bound(source, bound)
        self.source = source
        self.bound = bound
        self._log_bound = math.log(bound) + log_tolerance(bound)
        self._heap: list[tuple[float, tuple[tuple[int, int], ...]]] = [(0.0, ())]
        self._cluster: list[tuple[float, tuple[tuple[int, int], ...]]] = []

    def __iter__(self):
        return self

    def _push_children(self, logv: float, exps: tuple[tuple[int, int], ...]) -> None:
        logs = self.source._logs
        start = exps[-1][0] if exps else 0
        for j in range(start, self.source.nprimes):
            child_log = logv + logs[j]
            if child_log > self._log_bound:
                # logs are sorted, so no later index fits either
                break
            if exps and j == start:
                child_exps = exps[:-1] + ((j, exps[-1][1] + 1),)
            else:
                child_exps = exps + ((j, 1),)
            heapq.heappush(self._heap, (child_log, child_exps))

    def __next__(self) -> GInteger:
        if not self._cluster:
            if not self._heap:
                raise StopIteration
            # drain the tie cluster around the minimum so ties can be
            # re-ordered lexicographically by exponent vector
            logv0, exps0 = heapq.heappop(self._heap)
            cluster = [(logv0, exps0)]
            self._push_children(logv0, exps0)
            while self._heap and self._heap[0][0] - logv0 <= LOG_TIE_TOL:
                logv, exps = heapq.heappop(self._heap)
                cluster.append((logv, exps))
                self._push_children(logv, exps)
            cluster.sort(key=lambda item: item[1], reverse=True)
            self._cluster = cluster
        logv, exps = self._cluster.pop()
        return GInteger(exps, logv)


def stream_gintegers(system: GPrimeSystem, bound: float) -> GIntegerStream:
    """Sorted stream of every g-integer <= bound (each exponent vector once)."""
    return GIntegerStream(system, bound)


def _walk(system: GPrimeSystem, log_bound: float, tol: float):
    """Depth-first walk over the exponent vectors with log value <= log_bound + tol.

    Yields (log value, i, mid, hi) per node.  The node's children extend it
    by the primes at indices i..hi-1; those from mid on cannot extend any
    further, so consumers account for them in bulk and only the children
    below mid are walked as nodes themselves.
    """
    if not math.isfinite(log_bound):  # NaN passes every bisect; inf never ends
        raise ParameterError(f"cannot walk to the log bound {log_bound}")
    logs = system._log_list
    stack = [(0, 0.0)]
    while stack:
        i, lv = stack.pop()
        bt = log_bound + tol - lv
        hi = bisect_right(logs, bt, i)
        mid = bisect_right(logs, bt / 2, i)
        yield lv, i, mid, hi
        for j in range(i, mid):
            stack.append((j, lv + logs[j]))


def _count_leq(system: GPrimeSystem, log_bound: float, tol: float) -> int:
    """Number of exponent vectors with log value <= log_bound + tol."""
    return sum(1 + hi - mid for _, _, mid, hi in _walk(system, log_bound, tol))


def _collect_logs_leq(system: GPrimeSystem, log_bound: float, tol: float) -> np.ndarray:
    """Unsorted log values of all exponent vectors <= the bound."""
    logs = system._logs
    out = [lv + logs[i:hi] for lv, i, _, hi in _walk(system, log_bound, tol)]
    return np.concatenate([np.array([0.0])] + out)


def _power_sum_leq(system: GPrimeSystem, log_bound: float, tol: float, s: complex):
    """(sum of n^{-s}, count) over all g-integers with log n <= log_bound + tol."""
    prefix = np.concatenate([[0.0 + 0.0j], np.cumsum(np.exp(-s * system._logs))])
    total = 0.0 + 0.0j
    count = 0
    for lv, _, mid, hi in _walk(system, log_bound, tol):
        nv = cmath.exp(-s * lv)
        total += nv
        count += 1
        total += nv * (prefix[hi] - prefix[mid])
        count += hi - mid
    return total, count


def _sorted_logs_leq(
    system: GPrimeSystem,
    bound: float,
    warn_cap: int = MATERIALISE_WARN_CAP,
    refuse_cap: int = MATERIALISE_REFUSE_CAP,
) -> np.ndarray:
    """Sorted log values of the g-integers <= bound, with multiplicity.

    Counts above refuse_cap raise, above warn_cap warn; the count runs
    before anything is materialised.
    """
    lb = math.log(bound)
    tol = log_tolerance(bound)
    n = _count_leq(system, lb, tol)
    if n > refuse_cap:
        raise MaterialisationError(f"{n} g-integers exceed the cap {refuse_cap}")
    if n > warn_cap:
        warnings.warn(f"materialising {n} g-integers (warn cap {warn_cap})")
    return np.sort(_collect_logs_leq(system, lb, tol))


def g_integer_values(
    system: GPrimeSystem,
    bound: float,
    warn_cap: int = MATERIALISE_WARN_CAP,
    refuse_cap: int = MATERIALISE_REFUSE_CAP,
) -> np.ndarray:
    """Sorted array of g-integer values <= bound, with multiplicity.

    Materialisation is capped: counts above refuse_cap raise, above warn_cap
    warn.  The count check itself is cheap (no materialisation).
    """
    if bound < 1:
        raise ParameterError(f"bound must be >= 1, got {bound}")
    _check_bound(system, bound)
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


def prime_power_table(system: GPrimeSystem, bound: float) -> tuple[np.ndarray, np.ndarray]:
    """(L, W): sorted log values of prime powers <= bound and their log-p weights."""
    _check_bound(system, bound)
    if bound <= 0:
        raise ParameterError(f"bound must be positive, got {bound}")
    lb = math.log(bound) + log_tolerance(bound)
    L: list[float] = []
    W: list[float] = []
    for lp in system._logs:
        v = lp
        while v <= lb:
            L.append(v)
            W.append(lp)
            v += lp
    order = np.argsort(np.asarray(L), kind="stable")
    return np.asarray(L)[order], np.asarray(W)[order]


def psi(system: GPrimeSystem, x: float) -> float:
    """Chebyshev-type weighted count: sum of log p over prime powers <= x."""
    if x < 1:
        raise ParameterError(f"x must be >= 1, got {x}")
    _check_bound(system, x, "x")
    lx = math.log(x) + log_tolerance(x)
    total = 0.0
    for lp in system._logs:
        if lp > lx:
            break
        total += math.floor(lx / lp) * lp
    return float(total)


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

    L, W = prime_power_table(system, top)
    cumW = np.concatenate([[0.0], np.cumsum(W)])
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
