"""Enumeration of the multiplicative semigroup and its counting functions.

A vector extends by primes at indices >= its highest used one, so each
g-integer is generated once.  One numpy walk, `_batches`, sums whole same-prime
chains at once and forms the same floats as a depth-first walk.  The g-integers
it extends, its nodes, are far fewer than the g-integers (9,108 of the 1e6
g-integers up to 1e6 on the rationals), so each system keeps the nodes of one
walk (`_nodes`), and N(x), the Dirichlet sum, the gap scan's window, the sorted
value arrays and the sorted stream read the nodes of any lower bound from them
with a few `searchsorted` passes; above NODE_CAP nodes they walk per call.  The
value arrays and the stream are counted under one pair of caps first; the
stream then builds its items from the nodes' leaves one log segment at a time,
as it is read.  The Dirichlet sum adds one term per node in the nodes' (v, i)
order: a term depends only on v, i and the top, so the summed sequence, and
its bits, are the same however the nodes were walked.

All comparisons against a query x happen in the log domain with tolerance
LOG_TIE_TOL * max(1, log x): the kernel takes one log top, `log_top(x)`, and
values inside the tolerance band count as <= x; grid reports flag the
boundary hit.
"""
from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    IncompleteSystemError,
    MaterialisationError,
    ParameterError,
)
from .systems import GInteger, GPrimeSystem, LOG_TIE_TOL, log_top, log_tops, per_system

MATERIALISE_WARN_CAP = 10**7
MATERIALISE_REFUSE_CAP = 10**8
PIECE = 2**16  # elements a walk expands at once, at most: bounds its working memory
NODE_CAP = 2**18  # nodes a system keeps, at most: above it, each call walks
STREAM_PIECE = 512  # items a stream aims to build per log segment


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
    emitted in lexicographic order of their exponent vectors.  The count is
    checked against the caps on construction; the items are then built as they
    are read, one log segment of about STREAM_PIECE items at a time, from the
    leaves of the system's kept nodes (`_segments`).
    """

    def __init__(self, system: GPrimeSystem, bound: float):
        top = _capped_bound(system, bound)
        self._items = itertools.chain.from_iterable(_segments(top, _nodes_or_walk(system, top)))

    def __iter__(self):
        return self

    def __next__(self) -> GInteger:
        return next(self._items)


def _segments(top: float, nodes: _Nodes):
    """The GIntegers of the walk to `top`, sorted, as one list per log segment (lo, b].

    A segment holds the nodes with lo < v <= b and the leaves whose computed float
    v + logs[j], the table's own expression, lies in (lo, b]; the last one holds
    the rest, even a leaf past `top` by rounding.  Only the nodes of the segment
    and the earlier ones with leaves left are searched.  A tie cluster (the items
    within LOG_TIE_TOL of its first) is anchored by the items before it, so the
    greedy clusters of a segment are those of the whole sorted table; a cluster
    whose anchor is within LOG_TIE_TOL of b may still take items above b, and it
    and those after it wait for the next segment, whose edge closes them.  Each
    edge is set from how N grew over the segment before; a segment past
    4 * STREAM_PIECE items shrinks by its own density, at most twice, and never
    below the least item left, so a large tie cluster is one segment.  The nodes
    are read in the kept (v, i) order, `_Nodes.order`, so each comes after its
    parent and no read sorts them again.  This holds no reference to the stream,
    so a dropped stream is freed at once, not by the cycle collector.
    """
    logs, keep = nodes.logs, nodes.keep(top)
    rows = nodes.order[keep[nodes.order]]
    v, i = nodes.v[rows], nodes.i[rows]
    mid, hi = _leaf_range(logs, top, v, i)
    where = np.empty(len(nodes.v), np.intp)
    where[rows] = np.arange(len(rows))
    parent, prime = where[nodes.parent[rows]].tolist(), i.tolist()
    prime[0] = -1  # the root, 1, has no last prime
    exps, raised = [()], [()]  # per node built so far: its exponents, and it times its prime's
    done = mid.copy()  # each node's first leaf not yet in a segment
    live = np.empty(0, np.intp)  # the nodes at or below lo with leaves left
    held, held_v = [], np.empty(0)  # the last segment's open tie clusters
    # the first edge: log2(STREAM_PIECE) factors of the least prime, 2**9 = 512 on the rationals
    lo, width = -math.inf, float(logs[0]) * max(1.0, math.log2(STREAM_PIECE))
    total = 0  # the items up to lo
    while True:
        a = int(np.searchsorted(v, lo, "right"))  # the nodes before a are in earlier segments
        least = min(  # the least item above lo: every segment takes it
            v[a] if a < len(v) else math.inf,
            np.min(v[live] + logs[done[live]], initial=math.inf),
        )
        if len(held_v):  # and the edge closes every held cluster
            least = max(least, held_v[0] + 3 * LOG_TIE_TOL)
        for shrink in range(3):  # a segment past 4 * STREAM_PIECE items shrinks, at most twice
            b = max(max(lo, 0.0) + width, least)
            last = b >= top
            n = int(np.searchsorted(v, math.inf if last else b, "right"))
            near = np.concatenate([live, np.arange(a, n)])  # the nodes with items in (lo, b]
            stop = hi[near]
            if not last:  # chosen by log with a margin, then cut exactly on the float
                stop = np.clip(np.searchsorted(logs, b - v[near] + 1e-9, "right"), done[near], stop)
            size = int((stop - done[near]).sum())
            if n - a + size <= 4 * STREAM_PIECE or b == least or shrink == 2:
                break
            width *= STREAM_PIECE / (n - a + size)
        k, j = next(_spans(done[near], stop, size)) if size else (np.empty(0, np.intp),) * 2
        leaves = v[near[k]] + logs[j]
        if not last:
            keep = leaves <= b
            k, j, leaves = k[keep], j[keep], leaves[keep]
            done[near] += np.bincount(k, minlength=len(near))
            live = near[done[near] < hi[near]]
        k = near[k]
        for r, q in zip(parent[len(exps) : n], prime[len(exps) : n]):
            t = raised[r] if prime[r] == q else exps[r] + ((q, 1),)
            exps.append(t)
            raised.append((*t[:-1], (q, t[-1][1] + 1)))
        found = held + exps[a:n]
        found += [
            raised[r] if prime[r] == q else exps[r] + ((q, 1),) for r, q in zip(k.tolist(), j.tolist())
        ]
        values = np.concatenate([held_v, v[a:n], leaves])
        order = np.argsort(values, kind="stable")
        values = values[order]
        first = _anchors(values)
        anchors = np.flatnonzero(first)
        # an item above b joins a cluster anchored at a only if b - a <= LOG_TIE_TOL
        reach = anchors[b - values[anchors] <= LOG_TIE_TOL]
        cut = int(reach[0]) if len(reach) and not last else len(values)
        order = order.tolist()
        held, held_v = [found[r] for r in order[cut:]], values[cut:]
        if cut:
            yield _tie_ordered([found[r] for r in order[:cut]], values[:cut], first[:cut])
        if last:
            return
        count = n - a + len(leaves)  # the items in (lo, b]; the root is the one at or below 0
        growth = math.log((total + count) / max(total, 1)) / (b - max(lo, 0.0))
        lo, total = b, total + count
        # the next width holds STREAM_PIECE items if log N(e^t) grows as it did over the last
        width = min(4 * width, math.log1p(STREAM_PIECE / total) / growth) if growth > 0 else 4 * width


def _anchors(values: np.ndarray) -> np.ndarray:
    """Which of the sorted values start a tie cluster, greedily: the first, then each
    first value more than LOG_TIE_TOL above the last start."""
    starts, anchor = [], -math.inf
    for k, x in enumerate(values.tolist()):
        if x - anchor > LOG_TIE_TOL:
            starts.append(k)
            anchor = x
    first = np.zeros(len(values), bool)
    first[starts] = True
    return first


def _tie_ordered(exps: list, values: np.ndarray, first: np.ndarray):
    """GIntegers from sorted values and their exponents, each tie cluster (from one
    `first` item to the next) in lexicographic order of exponent vectors, each
    built as it is read."""
    tied = np.flatnonzero(~first | ~np.append(first[1:], True))  # the items in clusters of 2 or more
    if len(tied):
        order, rows = np.arange(len(values)), tied.tolist()
        key = zip(np.cumsum(first)[tied].tolist(), [exps[q] for q in rows], rows)
        order[tied] = [q for *_, q in sorted(key)]  # the exponents differ within a cluster
        exps, values = [exps[q] for q in order.tolist()], values[order]
    return map(GInteger, exps, values.tolist())


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


def _check_top(top: float) -> None:
    if not math.isfinite(top):  # NaN passes every comparison; inf never ends
        raise ParameterError(f"cannot walk to the log bound {top}")


def _leaf_range(logs: np.ndarray, top: float, v: np.ndarray, i: np.ndarray):
    """(mid, hi) of the nodes (v, i) in the walk to `top`: their children extend them
    by the primes at indices i..hi-1, and those from mid on are leaves.  The walk
    and the kept nodes both take these expressions, so their counts and the
    Dirichlet sum's bits agree."""
    hi = np.maximum(np.searchsorted(logs, top - v, "right"), i)
    mid = np.maximum(np.searchsorted(logs, (top - v) / 2, "right"), i)
    return mid, hi


def _batches(system: GPrimeSystem, top: float):
    """The walk over the exponent vectors with log value <= top.

    A node (log value v, index i) is a g-integer the walk extends: its children
    extend it by the primes at indices i..hi-1, and those from mid on (the
    leaves) extend no further.  Child i continues the node's chain (the node
    times powers of prime i) while logs[i] <= (top - v) / 2;
    children i+1..mid-1 head chains of later batches.  A batch sums its chains
    with one cumsum down a (chain step x head) array of at most PIECE elements,
    so each value is the sequential sum a depth-first walk forms.  Yields per
    batch the nodes' (v, i, mid, hi), chain by chain, each chain's length and
    each head's parent's row.
    """
    _check_top(top)
    logs = system._logs
    pending, row = [(np.zeros(1), np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.intp))], 0
    while pending:
        v, i, src = pending.pop()
        step, rows = logs[i], min(int(np.max((top - v) / logs[i])) + 2, PIECE // len(v))
        chain = np.cumsum(np.vstack([v, np.broadcast_to(step, (rows - 1, len(v)))]), axis=0)
        length = np.minimum(1 + (step <= (top - chain) / 2).sum(axis=0), rows)
        v, i = chain.T[np.arange(rows) < length[:, None]], np.repeat(i, length)
        mid, hi = _leaf_range(logs, top, v, i)
        yield v, i, mid, hi, length, src
        first = i + 1
        first[np.cumsum(length) - 1] -= 1  # a chain cut short at `rows` goes on as a head
        for k, j in _spans(first, mid, PIECE):
            pending.append((v[k] + logs[j], j, row + k))
        row += len(v)


class _Nodes:
    """The nodes of the walk to the log value `top`, in walk order: each one's log
    value v, prime index i, parent row (the node before it on its chain, or for a
    chain's head the node it extends) and the parent's v, vpar (-inf at the root).

    A node is in the walk to a lower top t exactly when logs[i] <= (t - vpar) / 2,
    `_batches`' own test for a chain's next node and for a head.  So the nodes at t
    are closed under parents: a node's index is at least its parent's, and the
    parent has v_p = fl(v_pp + logs[i_p]) >= v_pp; rounding is monotone and halving
    exact, so logs[i_p] <= logs[i] <= (t - v_p) / 2 <= (t - v_pp) / 2.  Every node
    at t has the same v as in the walk to t, and its children there are a prefix,
    by index, of its children here.

    Sorted by (v, i), `order`, the nodes at t read the same whatever walk built
    them: a node's mid, hi and Dirichlet term depend only on v, i and t, so nodes
    tied in (v, i) give the same values in either order.
    """

    def __init__(self, top: float, batches: list, logs: np.ndarray):
        self.top, self.logs = top, logs
        cols = list(zip(*batches))  # v, i, mid, hi, length, src per batch
        self.v, self.i, length, src = (np.concatenate(cols[k]) for k in (0, 1, 4, 5))
        self.parent = np.arange(len(self.v)) - 1
        self.parent[np.cumsum(length) - length] = src
        self.vpar = self.v[self.parent]
        self.vpar[0] = -np.inf  # the root is in every walk
        self.step = logs[self.i]

    @functools.cached_property
    def order(self) -> np.ndarray:
        """The rows by (v, i).  The sort is stable, so a parent, walked before its
        children, sorts before a child tied with it."""
        return np.lexsort((self.i, self.v))

    @functools.cached_property
    def ordered_at_top(self) -> tuple:
        """`at(self.top, ordered=True)`, read-only: the Dirichlet sum to the
        horizon reads it at every s."""
        out = self.at(self.top, ordered=True)
        for a in out:
            a.flags.writeable = False
        return out

    def keep(self, top: float) -> np.ndarray:
        """Which nodes are in the walk to top <= self.top."""
        return self.step <= (top - self.vpar) / 2

    def at(self, top: float, ordered: bool = False):
        """(v, i, mid, hi) of the nodes in the walk to top <= self.top, in walk order
        or by (v, i)."""
        keep = self.keep(top)
        rows = self.order[keep[self.order]] if ordered else keep
        v, i = self.v[rows], self.i[rows]
        return v, i, *_leaf_range(self.logs, top, v, i)


@per_system
def _node_cell(system: GPrimeSystem) -> list:
    """A cell holding (nodes, over): the `_Nodes` walked so far, if any, and the
    least top walked that has more than NODE_CAP nodes.  `_nodes` grows it; threads
    that grow it together each walk their own, and one of them is kept."""
    return [(None, math.inf)]


def _grown_top(system: GPrimeSystem, top: float) -> float:
    """The log top a kept table is rebuilt to when a query passes it at `top`: twice
    it, up to the horizon's.  From a first top t > 0, reaching a top T takes at most
    1 + log2(T / t) builds; an infinite horizon grows by the same rule."""
    return max(top, min(log_top(system.limit), 2 * top))


def _nodes(system: GPrimeSystem, top: float) -> _Nodes | None:
    """The system's kept nodes for a walk to `top`, or None above NODE_CAP.

    A top past the kept one is walked to `_grown_top`, as `_prime_powers` grows its
    table.  A walk stops once it passes NODE_CAP, and no top at or above one that
    passed it is walked again.
    """
    _check_top(top)
    cell = _node_cell(system)
    nodes, over = cell[0]
    if nodes is not None and top <= nodes.top:
        return nodes
    top = _grown_top(system, top)
    if top >= over:
        return None
    batches, n = [], 0
    for batch in _batches(system, top):
        n += len(batch[0])
        if n > NODE_CAP:
            cell[0] = (nodes, top)
            return None
        batches.append(batch)
    cell[0] = (_Nodes(top, batches, system._logs), over)
    return cell[0][0]


def _nodes_or_walk(system: GPrimeSystem, top: float) -> _Nodes:
    """The kept nodes, or above NODE_CAP the nodes of a walk to this top alone."""
    return _nodes(system, top) or _Nodes(top, list(_batches(system, top)), system._logs)


def _count_leq(system: GPrimeSystem, top: float, stop: int | None = None) -> int:
    """Number of exponent vectors with log value <= top.

    Above NODE_CAP the count walks, and with `stop` it ends once it passes `stop`:
    a count above `stop` may then be a lower bound.
    """
    nodes = _nodes(system, top)
    if nodes is not None:
        v, _, mid, hi = nodes.at(top)
        return len(v) + int((hi - mid).sum())
    n = 0
    for v, _, mid, hi, *_ in _batches(system, top):
        n += len(v) + int((hi - mid).sum())
        if stop is not None and n > stop:
            break
    return n


def _collect_logs_leq(system: GPrimeSystem, top: float) -> np.ndarray:
    """Unsorted log values of all exponent vectors <= top: the nodes in walk order,
    then their leaves."""
    v, _, mid, hi = _nodes_or_walk(system, top).at(top)
    out, row = np.concatenate([v, np.empty(int((hi - mid).sum()))]), len(v)
    for k, j in _spans(mid, hi, PIECE):
        out[row : row + len(k)] = v[k] + system._logs[j]
        row += len(k)
    return out


def _power_sum_leq(system: GPrimeSystem, top: float, s: complex):
    """(sum of n^{-s}, count) over all g-integers with log n <= top.

    Each node n adds one term, n^{-s} (1 + the sum of p^{-s} over the primes of its
    leaves), and the terms are summed by numpy from +0.0 in the nodes' (v, i)
    order, so the bits do not depend on the piece size, the node cap or how the
    kept nodes grew.  The products take the real formula of Python's complex
    product: numpy's complex multiply fuses on FMA hosts, which would make the
    bits depend on the CPU.
    """
    nodes = _nodes_or_walk(system, top)
    v, _, mid, hi = nodes.ordered_at_top if top == nodes.top else nodes.at(top, ordered=True)
    logs = system._logs[: np.searchsorted(system._logs, top, "right")]
    prefix = np.concatenate([[0j], np.cumsum(np.exp(-s * logs))])
    nv, leaves = np.exp(-s * v), 1 + (prefix[hi] - prefix[mid])
    terms = np.empty_like(nv)
    terms.real = nv.real * leaves.real - nv.imag * leaves.imag
    terms.imag = nv.real * leaves.imag + nv.imag * leaves.real
    return complex(np.sum(terms, initial=0j)), len(v) + int((hi - mid).sum())


def _capped_bound(system: GPrimeSystem, bound: float) -> float:
    """The log top to walk to `bound`, once the bound and its count pass the caps.

    The count stops once it passes MATERIALISE_REFUSE_CAP, so a refusal takes time
    that grows with the cap, not with the set, and the count it reports is a lower
    bound.
    """
    if bound < 1:
        raise ParameterError(f"bound must be >= 1, got {bound}")
    _check_bound(system, bound)
    top = log_top(bound)
    _check_caps(_count_leq(system, top, MATERIALISE_REFUSE_CAP), "g-integers")
    return top


def _check_caps(n: int, what: str) -> None:
    """Refuse n items above MATERIALISE_REFUSE_CAP, warn above MATERIALISE_WARN_CAP;
    the caps are read here, at each call."""
    if n > MATERIALISE_REFUSE_CAP:
        raise MaterialisationError(f"{n} {what} exceed the cap {MATERIALISE_REFUSE_CAP}")
    if n > MATERIALISE_WARN_CAP:
        warnings.warn(f"materialising {n} {what} (warn cap {MATERIALISE_WARN_CAP})")


def _sorted_logs_leq(system: GPrimeSystem, bound: float) -> np.ndarray:
    """Sorted log values of the g-integers <= bound, with multiplicity, capped."""
    return np.sort(_collect_logs_leq(system, _capped_bound(system, bound)))


def g_integer_values(system: GPrimeSystem, bound: float) -> np.ndarray:
    """Sorted array of g-integer values <= bound, with multiplicity; a count above
    MATERIALISE_REFUSE_CAP raises, above MATERIALISE_WARN_CAP warns (counting
    materialises nothing)."""
    return np.exp(_sorted_logs_leq(system, bound))


def count_N(system: GPrimeSystem, x: float) -> int:
    """N(x): number of g-integers <= x, with multiplicity (streaming count)."""
    if x < 1:
        raise ParameterError(f"x must be >= 1, got {x}")
    _check_bound(system, x, "x")
    return _count_leq(system, log_top(x))


def count_pi(system: GPrimeSystem, x: float) -> int:
    """pi(x): number of g-primes <= x, with multiplicity."""
    _check_bound(system, x, "x")
    if x <= 1:
        return 0
    return int(np.searchsorted(system._logs, log_top(x), side="right"))


def _build_prime_powers(system: GPrimeSystem, top: float):
    """(L, W, psi) over the prime powers with log value <= top, by log value, ties
    by prime index: the order a stable sort of a prime-by-prime loop gives.

    Each prime's powers are one sequential cumsum of its log, the floats of the
    loop's repeated `v += log p`; a stable sort keeps a prime's tied powers in
    exponent order.  psi is the running sum of W compensated by Sum2 (Ogita, Rump
    and Oishi, SIAM J. Sci. Comput. 26 (2005)): TwoSum gives each addition's
    rounding error exactly, and their running sum is added back, so each entry is
    within about an ulp of the exact sum of its prefix.  The entries the build
    allocates are counted first, under the materialisation caps.
    """
    logs = system._logs
    n = int(np.searchsorted(logs, top, side="right"))
    # the primes with lp + lp <= top have powers past their first; a sum of m terms
    # is within a relative m * 2**-53 of m * lp, far inside the 1e-6 margin, so each
    # prime's last sum passes top
    powered = logs[: np.searchsorted(logs, top / 2, side="right")]
    sizes = [int(top / lp * (1 + 1e-6)) + 2 for lp in powered.tolist()]
    _check_caps(n + sum(sizes), "prime-power entries")
    L, i = [logs[:n]], [np.arange(n)]
    for j, size in enumerate(sizes):
        powers = np.cumsum(np.full(size, logs[j]))
        m = int(np.searchsorted(powers, top, side="right"))
        L.append(powers[1:m])
        i.append(np.full(m - 1, j))
    L, i = np.concatenate(L), np.concatenate(i)
    order = np.lexsort((i, L))
    L = L[order]
    W = logs[i[order]]
    del i, order
    # Sum2, in place to bound the build's peak: s = cumsum W, and the TwoSum error
    # of s[k] = fl(a + b), a = s[k-1], b = W[k], is (a - (s[k] - z)) + (b - z) with
    # z = s[k] - a
    s = np.cumsum(W)
    z = s[1:] - s[:-1]
    err = W[1:] - z
    np.subtract(s[1:], z, out=z)
    np.subtract(s[:-1], z, out=z)
    z += err
    s[1:] += np.cumsum(z, out=z)
    return L, W, s


@per_system
def _psi_profile(system: GPrimeSystem) -> list:
    """A cell holding the prime-power table built so far: (top, L, W, psi), the
    table up to the log top `top`.  `_prime_powers` grows it; threads that grow it
    together each build and slice their own table, and one of them is kept."""
    return [(-math.inf, np.zeros(0), np.zeros(0), np.zeros(0))]


def _prime_powers(system: GPrimeSystem, bound: float):
    """(L, W, psi) over the prime powers <= bound, sliced from `_psi_profile`.

    A bound past the table's top rebuilds it to `_grown_top`, as `_nodes` grows the
    kept nodes, so a first bound at or above the horizon's square root takes one
    build.  The slice equals the table built to the bound: the same floats in the
    same order.
    """
    _check_bound(system, bound)
    if bound <= 0:
        raise ParameterError(f"bound must be positive, got {bound}")
    cell = _psi_profile(system)
    top, L, W, cum = cell[0]
    t = log_top(bound)
    if t > top:
        top = _grown_top(system, t)
        L, W, cum = _build_prime_powers(system, top)
        cell[0] = (top, L, W, cum)
    k = np.searchsorted(L, t, side="right")
    return L[:k], W[:k], cum[:k]


def prime_power_table(system: GPrimeSystem, bound: float) -> tuple[np.ndarray, np.ndarray]:
    """(L, W): sorted log values of prime powers <= bound and their log-p weights."""
    return _prime_powers(system, bound)[:2]


def psi(system: GPrimeSystem, x: float) -> float:
    """Chebyshev-type weighted count: sum of log p over prime powers <= x, the last
    entry of the prime-power table's compensated running sum."""
    if x < 1:
        raise ParameterError(f"x must be >= 1, got {x}")
    _check_bound(system, x, "x")
    cum = _prime_powers(system, x)[2]
    return float(cum[-1]) if len(cum) else 0.0


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
    """Sorted g-integer values in [x - halfwidth, x + halfwidth], then the least one
    above x + halfwidth, if there is one up to min(limit, 2x + halfwidth).

    The values up to min(limit, 2x + halfwidth) are counted under the
    materialisation caps.  Each node gives its own value and its leaves from the
    window's lower edge through its first leaf past the upper edge, chosen by log
    with a margin far above exp's rounding; the window is cut exactly after exp, so
    it holds the floats that every value up to that range, sorted, holds there.
    """
    _check_bound(system, x + halfwidth, "scan upper edge")
    far = min(system.limit, 2 * x + halfwidth)
    top = _capped_bound(system, far)
    logs = system._logs
    v, _, mid, hi = _nodes_or_walk(system, top).at(top)
    lo, up = x - halfwidth, x + halfwidth
    a = math.log(lo) - 1e-9 if lo > 0 else -math.inf
    b = math.log(up) + 1e-9
    first = np.clip(np.searchsorted(logs, a - v), mid, hi)
    stop = np.clip(np.searchsorted(logs, b - v, "right") + 1, first, hi)
    leaves = [v[k] + logs[j] for k, j in _spans(first, stop, PIECE)]
    vals = np.exp(np.sort(np.concatenate([v[v >= a], *leaves])))
    vals = vals[vals >= lo]
    return vals[: np.searchsorted(vals, up, "right") + 1]


def gap_window(system: GPrimeSystem, x: float) -> GapWindow:
    """Nearest x' in (x-3, x+3) with (x' - r(x'), x' + r(x')) free of g-integers.

    The radius rule is r(x) = 1/x**2, following the gap argument that
    guarantees such points exist for all large x.  If no candidate in the
    scan range qualifies, the densest obstruction is reported in the result
    (found=False) rather than guessed around.
    """
    if x < 2:
        raise ParameterError(f"gap scan needs x >= 2, got {x}")

    def radius(t: float) -> float:
        return 1.0 / (t * t)

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
        # two ulps of v beyond the ball edge: the rounded candidate still clears
        # r, and above 2e5, where r(v) is below half an ulp, it still leaves v
        step = radius(v) * 1.0000001 + 2 * np.spacing(v)
        candidates.append(v - step)
        candidates.append(v + step)
    candidates = [c for c in candidates if x - 3 < c < x + 3 and c >= 2]
    candidates.sort(key=lambda c: abs(c - x))
    for c in candidates:
        if qualifies(c):
            below, above = neighbours(c)
            return GapWindow(c, radius(c), True, below, above, shifted=(c != x))
    # densest obstruction: the tightest pair of g-integers in range.  There are at
    # least two: with none in range x is 3 or more from every g-integer and
    # qualifies; with one, v, x qualifies unless it lies within r(x) <= 1/4 of v,
    # and then v's upper candidate, in (2, x + 1) and at least r from v, qualifies
    gaps = np.diff(inside)
    k = int(np.argmin(gaps))
    obstruction = f"tightest gap {gaps[k]:.3e} between {inside[k]:.6f} and {inside[k+1]:.6f}"
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
    """One-pass counting report over a sorted grid of query points; N at each
    point is count_N's."""
    grid = np.sort(np.fromiter(map(float, grid), float))
    if not np.isfinite(grid).all():  # NaN has no place in an order and passes every range check
        raise ParameterError("grid points must be finite numbers")
    if len(grid) == 0:
        raise ParameterError("empty grid")
    if grid[0] < 1:
        raise ParameterError("grid points must be >= 1")
    top = float(grid[-1])
    _check_bound(system, top, "grid maximum")

    vals_log = _sorted_logs_leq(system, top)
    grid_log, tols = log_tops(grid)  # count_N's, count_pi's and psi's tops
    N = np.searchsorted(vals_log, grid_log, side="right")
    # The kernel counts a leaf v + logs[j] at t when logs[j] <= fl(t - v), the sort
    # when fl(v + logs[j]) <= t.  They agree unless that float is within 2 ulps of t,
    # so at a point with a sorted value within 4 ulps N is count_N's own count.
    ulps = 4 * np.spacing(grid_log)
    edge = np.searchsorted(vals_log, grid_log + ulps, "right") > np.searchsorted(vals_log, grid_log - ulps)
    for k in np.flatnonzero(edge).tolist():
        N[k] = _count_leq(system, float(grid_log[k]))

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
