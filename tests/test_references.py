"""The walk, the Dirichlet sum, the sorted stream, psi and the system builds
against the code they replaced, kept here as references.

The g-integer walk was depth-first; it is now batched over whole same-prime
chains.  N(x), the Dirichlet sum and the gap scan walked per call; they now
read the nodes a system keeps from one walk, and walk per call only above a
node cap.  The Dirichlet sum had a depth-first walk of its own; it now adds
one term per node in the nodes' (v, i) order.  The stream was a min-heap over
(log value, exponent vector); it is now built from the kept nodes' leaves,
one sorted log segment at a time, and holds the walk's table: near its top
the walk and the heap can differ by a rounding, so there the reference is a
sorted view of the depth-first walk's table.  The gap scan's values were cut
from all g-integer values up to twice its point; it now takes the values near
its window from the nodes, and the least one above it.  orderings_coincide
searched each bracket f_k(n) of two induced orders by doubling and bisection;
it now takes them in closed form.  psi was a loop over the primes; it is now
the last entry of the prime-power table's running sum, compensated by Sum2,
and the table's loop keeps the same compensation.  counting_report sorted its
grid with `sorted` and took `log_tolerance` point by point; it now does both
over arrays.  The sieve, the
Gaussian system, the validation of a system's primes and the prime-power
table were loops; they are now array operations.  All must give the same
floats, and the same errors.
"""
import cmath
import heapq
import itertools
import math
import warnings
from bisect import bisect_right
from fractions import Fraction
from unittest import mock

import numpy as np

import pytest
from hypothesis import given
from hypothesis import strategies as st

from beurling import (
    count_N,
    counting_report,
    from_list,
    g_integer_values,
    gaussian_system,
    power_system,
    psi,
    rational_primes,
    stream_gintegers,
)
from beurling import counting, orders, perron, systems
from beurling.counting import prime_power_table
from beurling.errors import (
    InvalidPrimeError,
    MaterialisationError,
    ParameterError,
    UnstablePointError,
)
from beurling.orders import CoincidenceResult, InducedOracle, f_k
from beurling.systems import GInteger, GPrimeSystem, LOG_TIE_TOL, log_tolerance


def dfs_walk(system, log_bound, tol):
    """The depth-first walk: yields (log value, i, mid, hi) per node, whose children
    extend it by the primes at indices i..hi-1; those below mid are walked as nodes."""
    logs = system.log_primes.tolist()
    stack = [(0, 0.0)]
    while stack:
        i, lv = stack.pop()
        bt = log_bound + tol - lv
        hi = bisect_right(logs, bt, i)
        mid = bisect_right(logs, bt / 2, i)
        yield lv, i, mid, hi
        for j in range(i, mid):
            stack.append((j, lv + logs[j]))


def dfs_count(system, log_bound, tol):
    return sum(1 + hi - mid for _, _, mid, hi in dfs_walk(system, log_bound, tol))


def dfs_collect(system, log_bound, tol):
    logs = system.log_primes
    out = [lv + logs[i:hi] for lv, i, _, hi in dfs_walk(system, log_bound, tol)]
    return np.concatenate([np.array([0.0])] + out)


def dfs_power_sum(system, log_bound, tol, s):
    """The Dirichlet sum over the depth-first walk's nodes: (sum of n^{-s}, count).
    Each node gives n^{-s} (1 + the sum of p^{-s} over its leaves' primes), by
    Python's complex product, and the terms are summed by numpy from +0j in the
    nodes' (log value, i) order."""
    if not math.isfinite(log_bound):  # NaN passes every bisect; inf never ends
        raise ParameterError(f"cannot walk to the log bound {log_bound}")
    logs = system.log_primes.tolist()
    prefix = np.concatenate([[0.0 + 0.0j], np.cumsum(np.exp(-s * system.log_primes))]).tolist()
    nodes = []
    stack = [(0, 0.0)]
    while stack:
        i, lv = stack.pop()
        bt = log_bound + tol - lv
        hi = bisect_right(logs, bt, i)
        mid = bisect_right(logs, bt / 2, i)
        nodes.append((lv, i, mid, hi))
        for j in range(i, mid):
            stack.append((j, lv + logs[j]))
    nodes.sort()
    terms = [cmath.exp(-s * lv) * (1 + (prefix[hi] - prefix[mid])) for lv, _, mid, hi in nodes]
    return complex(np.sum(np.array(terms, dtype=complex), initial=0j)), sum(1 + hi - mid for *_, mid, hi in nodes)


def heap_stream(system, bound):
    """The heap stream: pop the minimum, push its extensions by primes at
    indices >= its highest used one, drain each tie cluster around the
    minimum and emit it in lexicographic order of exponent vectors."""
    logs = system.log_primes
    log_bound = math.log(bound) + log_tolerance(bound)
    heap = [(0.0, ())]

    def push_children(logv, exps):
        start = exps[-1][0] if exps else 0
        for j in range(start, system.nprimes):
            child_log = logv + logs[j]
            if child_log > log_bound:
                break
            if exps and j == start:
                child = exps[:-1] + ((j, exps[-1][1] + 1),)
            else:
                child = exps + ((j, 1),)
            heapq.heappush(heap, (child_log, child))

    while heap:
        logv0, exps0 = heapq.heappop(heap)
        cluster = [(logv0, exps0)]
        push_children(logv0, exps0)
        while heap and heap[0][0] - logv0 <= LOG_TIE_TOL:
            logv, exps = heapq.heappop(heap)
            cluster.append((logv, exps))
            push_children(logv, exps)
        cluster.sort(key=lambda item: item[1])
        for logv, exps in cluster:
            yield GInteger(exps, logv)


def reference_psi(system, x):
    """The last entry of the prime-by-prime loop's compensated running sum."""
    cum = reference_prime_powers(system, x)[2]
    return float(cum[-1]) if len(cum) else 0.0


def items(stream):
    return [(g.exponents, g.log_value) for g in stream]


def assert_same_stream(system, bound):
    got = items(stream_gintegers(system, bound))
    assert got == items(heap_stream(system, bound))
    assert len(got) == count_N(system, bound)


@st.composite
def prime_lists(draw):
    """Seeded prime lists with repeats, exact ties (a prime equal to a product
    of two others) and near-ties (a prime 1e-13 or 6e-13 above another, so
    that two near-ties can chain past LOG_TIE_TOL)."""
    base = draw(st.lists(st.floats(1.5, 12.0), min_size=1, max_size=4))
    primes = base + draw(st.lists(st.sampled_from(base), max_size=2))
    pairs = draw(st.lists(st.tuples(st.sampled_from(base), st.sampled_from(base)), max_size=1))
    primes += [p * q for p, q in pairs if p * q <= 12.0]
    near = st.tuples(st.sampled_from(base), st.sampled_from([1e-13, 6e-13]))
    primes += [p * (1 + eps) for p, eps in draw(st.lists(near, max_size=2))]
    return primes


@st.composite
def systems_and_bounds(draw, near_one=False, most=2000):
    """A system whose horizon holds at most about `most` g-integers, and a bound:
    the horizon, a g-integer value, or a point 1e-13 below one.  With `near_one`,
    perhaps one more prime in [1.0005, 1.05], whose chain runs to thousands of steps."""
    primes = draw(prime_lists())
    if near_one:
        primes += draw(st.lists(st.floats(1.0005, 1.05), max_size=1))
    horizon = draw(st.floats(max(primes), 300.0))
    while horizon / 2 >= max(primes) and count_N(from_list(primes, horizon), horizon) > most:
        horizon /= 2
    system = from_list(primes, horizon)
    # exp(log v) may land one ulp above the horizon
    value = min(horizon, draw(st.sampled_from(g_integer_values(system, horizon).tolist())))
    bound = draw(st.sampled_from([horizon, value, max(1.0, value - 1e-13)]))
    return system, bound


def fresh(system):
    """The same system with no derived data: no nodes walked yet."""
    return GPrimeSystem(system.primes, system.limit, system.label)


@given(systems_and_bounds())
def test_stream_is_the_heap_stream(case):
    assert_same_stream(*case)


@given(systems_and_bounds(near_one=True, most=20000))
def test_walk_is_the_depth_first_walk(case):
    system, bound = case
    first, last = system.log_primes[[0, -1]].tolist()
    # and with no tolerance, log bounds that the largest prime and the smallest
    # prime's square meet exactly: a child on the bound, a chain on its edge
    for lb, tol in [(math.log(bound), log_tolerance(bound)), (last, 0.0), (2 * first, 0.0)]:
        assert counting._count_leq(system, lb + tol) == dfs_count(system, lb, tol)
        got = np.sort(counting._collect_logs_leq(system, lb + tol))
        assert got.tobytes() == np.sort(dfs_collect(system, lb, tol)).tobytes()


def test_walk_batches_whole_chains():
    """A batch sums whole chains: 1.001 has 6911 powers below 1e3, which a walk
    taking one round per unit of exponent would take 6911 rounds over."""
    system = from_list([1.001, 2.0], 1e300)
    assert len(list(counting._batches(system, math.log(1e3) + log_tolerance(1e3)))) <= 3


@pytest.mark.parametrize("piece", [1, 7])
def test_piece_size_changes_no_result(monkeypatch, piece):
    def results():  # on new systems, which walk their nodes in the current pieces
        for system, bound in [
            (rational_primes(1000), 1000.0),
            (from_list([2.0, 3.0, 4.0, 6.0, 9.0], 3000.0), 3000.0),
            (from_list([1.01, 1.5, 2.0], 1e300), 60.0),
        ]:
            lb, tol = math.log(bound), log_tolerance(bound)
            logs = np.sort(counting._collect_logs_leq(system, lb + tol)).tobytes()
            yield counting._count_leq(system, lb + tol), logs, items(stream_gintegers(system, bound))
            for s in (2.0 + 0j, 1.5 - 300.0j):
                value, count = counting._power_sum_leq(system, lb + tol, s)
                yield value.real.hex(), value.imag.hex(), count

    expected = list(results())
    monkeypatch.setattr(counting, "PIECE", piece)
    assert list(results()) == expected


def assert_same_power_sum(system, log_bound, tol, s):
    value, count = counting._power_sum_leq(system, log_bound + tol, s)
    want, want_count = dfs_power_sum(system, log_bound, tol, s)
    assert value.real == want.real and value.imag == want.imag and count == want_count
    assert (value.real.hex(), value.imag.hex()) == (want.real.hex(), want.imag.hex())


S_POINTS = st.builds(complex, st.floats(1.0, 4.0, exclude_min=True), st.floats(-1e3, 1e3))


@given(systems_and_bounds(near_one=True), S_POINTS, st.floats(0.0, 1.0))
def test_power_sum_is_the_depth_first_sum(case, s, u):
    system, bound = case
    first, last = system.log_primes[[0, -1]].tolist()
    cutoff = 1 + (bound - 1) * u
    for lb, tol in [
        (math.log(bound), log_tolerance(bound)),
        (math.log(cutoff), log_tolerance(cutoff)),
        (last, 0.0),  # a child on the bound
        (2 * first, 0.0),  # a chain on its edge
    ]:
        assert_same_power_sum(system, lb, tol, s)


@given(systems_and_bounds(), S_POINTS)
def test_power_sum_piece_size_changes_no_bit(case, s):
    """Pieces of 1 and 7 cut chains and split a node's heads over several batches."""
    system, bound = case
    for piece in (1, 7):
        with mock.patch.object(counting, "PIECE", piece):
            assert_same_power_sum(fresh(system), math.log(bound), log_tolerance(bound), s)


@pytest.mark.parametrize("make", [rational_primes, gaussian_system])
def test_power_sum_is_the_depth_first_sum_on_builtin_systems(make):
    system = make(10**6)
    for s in [2.0, 1.5 + 14.134725j, 3.0 - 1000.0j, 1.0001 + 0.5j, 4.0 + 1e-300j]:
        for bound in (1e6, 31622.5):
            assert_same_power_sum(system, math.log(bound), log_tolerance(bound), complex(s))


def test_power_sum_starts_from_positive_zero():
    """Below 4 the root is the only node.  At a real s each of its terms has the
    imaginary part -0.0, and a sum that starts from 0j ends at +0.0."""
    system = rational_primes(100)
    assert_same_power_sum(system, math.log(3.5), log_tolerance(3.5), 2.0 + 0j)
    assert math.copysign(1.0, dfs_power_sum(system, math.log(3.5), 0.0, 2.0 + 0j)[0].imag) == 1.0


def test_power_sum_under_an_infinite_horizon():
    system = from_list([2.0, 3.0], math.inf)
    with pytest.raises(ParameterError, match=r"^cannot walk to the log bound inf$"):
        counting._power_sum_leq(system, math.inf, 2 + 1j)
    with pytest.raises(ParameterError, match=r"^cannot walk to the log bound inf$"):
        dfs_power_sum(system, math.inf, 0.0, 2 + 1j)


def reference_nearest(system, x, halfwidth=4.0):
    """The gap scan's values as they were: every sorted g-integer value from
    x - halfwidth up to min(limit, 2x + halfwidth), cut from one walk's table."""
    counting._check_bound(system, x + halfwidth, "scan upper edge")
    hi = min(system.limit, 2 * x + halfwidth)
    logs = counting._collect_logs_leq(system, counting._capped_bound(system, hi))
    lo = x - halfwidth
    if lo > 0:  # sort and exponentiate only the window; the margin is far above exp's rounding
        logs = logs[logs >= math.log(lo) - 1e-9]
    vals = np.exp(np.sort(logs))
    return vals[vals >= lo]


def window_of_all_values(system, x, halfwidth):
    """The gap scan's window, cut from every sorted g-integer value up to 2x + halfwidth:
    the values in [x - halfwidth, x + halfwidth], then the next one."""
    vals = g_integer_values(system, min(system.limit, 2 * x + halfwidth))
    vals = vals[vals >= x - halfwidth]
    return vals[: np.searchsorted(vals, x + halfwidth, "right") + 1]


@given(systems_and_bounds(), st.floats(0.0, 1.0), st.sampled_from([3.0, 4.0]))
def test_scan_window_is_the_cut_of_all_values(case, u, halfwidth):
    system, bound = case
    top = system.limit - halfwidth
    if top < 1:
        return
    # x anywhere up to the scan's edge, or x - halfwidth on a g-integer value
    for x in {1 + (top - 1) * u, min(top, bound + halfwidth)}:
        got = counting.nearest_gintegers(system, x, halfwidth)
        assert got.tobytes() == window_of_all_values(system, x, halfwidth).tobytes()


@pytest.mark.parametrize("make", [rational_primes, gaussian_system])
def test_scan_window_is_the_cut_of_all_values_on_builtin_systems(make):
    system = make(10**6)
    for x in (2.0, 4.5, 1000.5, 1.7e5, 4.99e5):
        got = counting.nearest_gintegers(system, x)
        assert got.tobytes() == window_of_all_values(system, x, 4.0).tobytes()


def test_scan_window_at_its_edges():
    """x - halfwidth and x + halfwidth on each g-integer value.  Two equal leaves sit
    on the upper edge (1.303 * 1.477 twice), where fl(log(x + halfwidth) - v) may
    round below the prime's log, and log(exp(L)) may round above L on the lower
    edge: the margins keep them in the window."""
    system = from_list([1.303, 1.477, 1.477, 1.612, 1.612], 40.0)
    for edge in g_integer_values(system, 3.0):
        for x in (edge - 0.5, edge + 0.5):
            if x > 1.0:
                got = counting.nearest_gintegers(system, x, 0.5)
                assert got.tobytes() == window_of_all_values(system, x, 0.5).tobytes()


def gap_fields(system, x, nearest=None):
    """gap_window's fields, by repr (so by bit), with the scan of its own or, if
    given, over `nearest`."""
    if nearest is None:
        return repr(counting.gap_window(system, x))
    with mock.patch.object(counting, "nearest_gintegers", nearest):
        return repr(counting.gap_window(system, x))


@given(systems_and_bounds(), st.floats(0.0, 1.0))
def test_gap_window_is_the_scan_over_all_values(case, u):
    system, bound = case
    top = system.limit - 4.0
    if top < 2:
        return
    for x in {2 + (top - 2) * u, min(top, max(2.0, bound))}:
        assert gap_fields(system, x) == gap_fields(system, x, reference_nearest)


@pytest.mark.parametrize("make", [rational_primes, gaussian_system])
def test_gap_window_is_the_scan_over_all_values_on_builtin_systems(make):
    system = make(10**6)
    for x in (2.0, 4.5, 1000.5, 1.7e5, 4.99e5):
        assert gap_fields(system, x) == gap_fields(system, x, reference_nearest)


def perron_outcome(system, x):
    try:
        return repr(perron.perron_psi(system, perron.PerronParams(x=x, T=5.0)))
    except UnstablePointError as exc:
        return repr(exc)


def test_perron_gap_check_is_the_scan_over_all_values():
    """On a g-integer, within its 1/x^2 and just outside it: the same error, or the
    same result."""
    system = rational_primes(10**4)
    for x in (100.0, 100.0 + 1e-5, 100.0 + 2e-4, 1000.5, 4999.0 - 1e-8, 2.5, 3.0):
        got = perron_outcome(system, x)
        with mock.patch.object(perron, "nearest_gintegers", reference_nearest):
            assert got == perron_outcome(system, x)


def node_answers(system, bounds, s):
    """What a system answers at each bound: the count, the power sum (by hex) and its
    count, the sorted table, the stream, and the scan window of halfwidth 3 at the
    bound, or as near it as the horizon lets."""
    out = []
    for bound in bounds:
        lb, tol = math.log(bound), log_tolerance(bound)
        value, count = counting._power_sum_leq(system, lb + tol, s)
        out.append((counting._count_leq(system, lb + tol), value.real.hex(), value.imag.hex(), count))
        out.append(np.sort(counting._collect_logs_leq(system, lb + tol)).tobytes())
        out.append(items(stream_gintegers(system, bound)))
        x = min(bound, system.limit - 3.0)
        if x > 0:
            out.append(counting.nearest_gintegers(system, x, 3.0).tobytes())
    return out


def walked_answers(system, bounds, s):
    """The same from the per-call walks: the depth-first count, sum, table and stream,
    and the scan over one walk's table."""
    out = []
    for bound in bounds:
        lb, tol = math.log(bound), log_tolerance(bound)
        value, count = dfs_power_sum(system, lb, tol, s)
        out.append((dfs_count(system, lb, tol), value.real.hex(), value.imag.hex(), count))
        out.append(np.sort(dfs_collect(system, lb, tol)).tobytes())
        out.append(table_stream(system, bound))
        x = min(bound, system.limit - 3.0)
        if x > 0:
            vals = reference_nearest(system, x, 3.0)
            out.append(vals[: np.searchsorted(vals, x + 3.0, "right") + 1].tobytes())
    return out


def horizon_nodes(system):
    return counting._nodes(system, math.log(system.limit) + log_tolerance(system.limit))


@given(systems_and_bounds(near_one=True, most=500), st.lists(st.floats(0.0, 1.0), max_size=2), S_POINTS)
def test_kept_nodes_give_the_walks_answers(case, us, s):
    """Nodes walked to the horizon in pieces of 1 and 7, which cut chains and split
    a node's heads over several batches, read at the horizon and below it."""
    system, bound = case
    bounds = [system.limit, bound] + [1 + (system.limit - 1) * u for u in us]
    want = walked_answers(system, bounds, s)
    top = math.log(system.limit) + log_tolerance(system.limit)
    for piece in (1, 7):
        kept = fresh(system)
        with mock.patch.object(counting, "PIECE", piece):
            assert horizon_nodes(kept).top == top
        assert node_answers(kept, bounds, s) == want


@given(systems_and_bounds(near_one=True), st.floats(0.0, 1.0))
def test_nodes_at_a_lower_bound_are_the_depth_first_walks(case, u):
    """Cut from the horizon's nodes, the nodes at x are closed under parents, and by
    (v, i) they are the depth-first walk's nodes, sorted, bit for bit."""
    system, bound = case
    nodes = horizon_nodes(system)
    for x in (bound, 1 + (system.limit - 1) * u, system.limit):
        top = math.log(x) + log_tolerance(x)
        keep = nodes.step <= (top - nodes.vpar) / 2
        assert keep[0] and keep[nodes.parent[keep]].all()
        got = np.array(nodes.at(top, ordered=True)).T
        want = np.array(sorted(dfs_walk(system, math.log(x), log_tolerance(x))))
        assert got.tobytes() == want.tobytes()


@given(systems_and_bounds(near_one=True), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4), S_POINTS)
def test_grown_nodes_answer_as_nodes_walked_to_the_horizon(case, us, s):
    system, _ = case
    bounds = sorted(1 + (system.limit - 1) * u for u in us) + [system.limit]
    grown = fresh(system)  # each bound may grow its nodes, from the first one up
    got = [node_answers(grown, [b], s) for b in bounds]
    at_horizon = fresh(system)
    horizon_nodes(at_horizon)
    assert got == [node_answers(at_horizon, [b], s) for b in bounds]


@given(systems_and_bounds(near_one=True), st.lists(st.floats(0.0, 1.0), max_size=2), S_POINTS)
def test_a_tiny_node_cap_gives_the_same_answers(case, us, s):
    """Under a cap of 4 nodes, low bounds keep their nodes and higher ones walk."""
    system, bound = case
    bounds = sorted([bound] + [1 + (system.limit - 1) * u for u in us]) + [system.limit]
    want = node_answers(fresh(system), bounds, s)
    for cap in (0, 4):
        with mock.patch.object(counting, "NODE_CAP", cap):
            assert node_answers(fresh(system), bounds, s) == want


def test_nodes_on_the_edge_of_their_test():
    """At the top t = fl(vpar + 2 logs[i]) a node may or may not be in the walk:
    fl(t - vpar) / 2 falls below logs[i] when the sum rounded down.  The kept
    nodes take the walk's own test, so each count is the depth-first walk's."""
    system = rational_primes(100)
    nodes = horizon_nodes(system)
    tops = (nodes.vpar + 2 * nodes.step)[1:]
    out = nodes.step[1:] > (tops - nodes.vpar[1:]) / 2
    assert out.any() and not out.all()
    for top in tops:
        assert counting._count_leq(system, top) == dfs_count(system, top, 0.0)


def test_nodes_grow_to_the_square_of_the_bound():
    """A bound past the kept nodes walks them to min(horizon, bound**2), as the
    prime-power table grows; a bound below them walks nothing, and a walk past
    NODE_CAP keeps what was kept."""
    system = from_list([2.0, 3.0], 1e300)
    kept = []
    for bound in (10.0, 50.0, 1e5, 1e300):
        count_N(system, bound)
        kept.append(counting._node_cell(system)[0][0].top)
    top = [math.log(b) + log_tolerance(b) for b in (10.0, 1e5)]
    assert kept == [2 * top[0], 2 * top[0], 2 * top[1], 2 * top[1]]
    horizon = rational_primes(1000)
    count_N(horizon, 100.0)
    assert counting._node_cell(horizon)[0][0].top == math.log(1000) + log_tolerance(1000)


@pytest.mark.parametrize("make", [rational_primes, gaussian_system])
def test_the_horizon_read_is_kept_on_its_nodes(make):
    """The Dirichlet sum at the nodes' own top reads the (v, i, mid, hi) by (v, i)
    that each `_Nodes` keeps, read-only.  First used at a low bound, the system reads it
    at the top of its first nodes, then grows new nodes to the horizon, which keep
    their own; a lower top is still cut from the nodes by `keep`."""
    system = make(10**4)
    for s in (2.0 + 0j, 1.5 + 14.134725j, 3.0 - 1000.0j):
        assert_same_power_sum(system, math.log(50.0), log_tolerance(50.0), s)
        first = counting._node_cell(system)[0][0]
        assert first.top < math.log(system.limit)
        assert_same_power_sum(system, first.top, 0.0, s)
    assert "ordered_at_top" in vars(first)
    for s in (2.0 + 0j, 1.5 + 14.134725j, 3.0 - 1000.0j):
        assert_same_power_sum(system, math.log(system.limit), log_tolerance(system.limit), s)
    grown = counting._node_cell(system)[0][0]
    assert grown is not first and grown.top == math.log(system.limit) + log_tolerance(system.limit)
    kept = grown.ordered_at_top
    assert len(kept[0]) == len(grown.v) > len(first.ordered_at_top[0])
    for a in kept:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[0]
    for top in (first.top, math.nextafter(grown.top, 0.0)):
        v, i, mid, hi = grown.at(top, ordered=True)
        rows = grown.order[grown.keep(top)[grown.order]]
        assert v.tobytes() == grown.v[rows].tobytes() and i.tobytes() == grown.i[rows].tobytes()
        want = np.array(sorted(dfs_walk(system, top, 0.0))).T
        assert np.array([v, i, mid, hi]).tobytes() == want.tobytes()


def test_a_system_over_the_node_cap_keeps_none():
    system = from_list([1.001, 1.5, 2.0, 3.1], 3e4)
    assert horizon_nodes(system) is None
    assert count_N(system, 50.0) == dfs_count(system, math.log(50.0), log_tolerance(50.0))


def test_a_refusal_walks_in_time_that_grows_with_the_cap(monkeypatch):
    """1 + 2**-52 has about 4.5e6 and 4.5e7 g-integers up to these bounds.  Refused
    at a cap of 100, each walks at most the nodes a system may keep, and one batch."""
    walked = []
    batches = counting._batches

    def counted(*args):
        for batch in batches(*args):
            walked.append(len(batch[0]) + int((batch[3] - batch[2]).sum()))
            yield batch

    monkeypatch.setattr(counting, "_batches", counted)
    monkeypatch.setattr(counting, "MATERIALISE_WARN_CAP", 10)
    monkeypatch.setattr(counting, "MATERIALISE_REFUSE_CAP", 100)
    system = from_list([1 + 2**-52], 1e10)
    for bound in (1.000000001, 1.00000001):
        walked.clear()
        with pytest.raises(MaterialisationError, match=r"^\d+ g-integers exceed the cap 100$"):
            g_integer_values(fresh(system), bound)
        assert sum(walked) <= 2 * (counting.NODE_CAP + counting.PIECE)


FIXED = [
    ([2.0, 4.0], 1000.0),
    ([2.0, 4.0, 8.0], 1000.0),
    ([2.0, 2.0, 3.0], 500.0),
    ([1.5] * 3 + [2.0], 300.0),
    ([2.0, 3.0, 4.0, 6.0, 9.0], 3000.0),
    ([2.0, 2.0 * (1 + 1e-13), 3.0], 2000.0),
    # 6, 6(1 + 6e-13), 2 * 3(1 + 1.2e-12): a chain of near-ties longer than
    # LOG_TIE_TOL, whose clusters anchor at their first item
    ([2.0, 3.0, 3.0 * (1 + 1.2e-12), 6.0 * (1 + 6e-13)], 100.0),
    ([1 + 1e-13, 2.0], 2.0),  # a prime so close to 1 that its powers all tie
    ([1.001, 2.0], 20.0),  # primes near 1: chains of hundreds or thousands of steps
    ([1.01, 1.5, 2.0], 60.0),
]


@pytest.mark.parametrize("primes,limit", FIXED, ids=[str(p[:4]) for p, _ in FIXED])
def test_stream_is_the_heap_stream_on_tie_heavy_lists(primes, limit):
    system = from_list(primes, limit)
    bound = 1 + 1e-12 if primes[0] < 1 + 1e-12 else limit
    values = g_integer_values(system, bound).tolist()
    for b in {bound, values[len(values) // 2], max(1.0, values[len(values) // 2] - 1e-13)}:
        assert_same_stream(system, b)


@pytest.mark.parametrize("piece", [1, 7])
def test_stream_piece_size_changes_no_item(monkeypatch, piece):
    """Pieces of 1 and 7 sorted rows end between most neighbours, never inside a
    tie cluster."""
    monkeypatch.setattr(counting, "STREAM_PIECE", piece)
    for primes, limit in FIXED:
        assert_same_stream(from_list(primes, limit), 1 + 1e-12 if primes[0] < 1 + 1e-12 else limit)


@pytest.mark.parametrize(
    "make,bound",
    [
        (lambda: gaussian_system(3000), 3000.0),
        (lambda: gaussian_system(3000), 2005.0),
        (lambda: rational_primes(5000), 5000.0),
        (lambda: power_system(rational_primes(2000), 0.5), 2000**0.5),
        (lambda: power_system(rational_primes(100), 2.0), 2500.0 - 1e-13),
        (lambda: power_system(gaussian_system(1000), 1.3), 1000**1.3),
    ],
    ids=["gaussian", "gaussian-value", "rationals", "rationals^0.5", "rationals^2", "gaussian^1.3"],
)
def test_stream_is_the_heap_stream_on_builtin_systems(make, bound):
    assert_same_stream(make(), bound)


@st.composite
def systems_and_edge_bounds(draw):
    """A system and a bound on a g-integer value, one ulp either side of it, or
    log_tolerance either side of it in the log domain, where the stream's top
    falls on that value; and a stream piece small enough that segment edges fall
    between most items."""
    system, _ = draw(systems_and_bounds())
    value = draw(st.sampled_from(g_integer_values(system, system.limit).tolist()))
    tol = log_tolerance(value)
    bound = draw(st.sampled_from([
        value,
        math.nextafter(value, 0.0),
        math.nextafter(value, math.inf),
        value * math.exp(tol),
        value * math.exp(-tol),
    ]))
    return system, min(system.limit, max(1.0, bound)), draw(st.sampled_from([1, 3, 512]))


def table_stream(system, bound):
    """The stream as a sorted view of the depth-first walk's table: every node, and
    every leaf j in mid..hi-1 of each, whatever its float; by log value, and each tie
    cluster (the items within LOG_TIE_TOL of its first) by exponent vector.  Near the
    top the walk's test logs[j] <= fl(t - v) and the heap's fl(v + logs[j]) <= t can
    differ by a rounding, either way; the stream and N(x) take the walk's."""
    logs = system.log_primes.tolist()
    top = math.log(bound) + log_tolerance(bound)
    table, stack = [], [(0, 0.0, ())]
    while stack:
        i, lv, exps = stack.pop()
        hi, mid = bisect_right(logs, top - lv, i), bisect_right(logs, (top - lv) / 2, i)
        table.append((lv, exps))
        for j in range(i, hi):
            raised = exps and exps[-1][0] == j
            child = exps[:-1] + ((j, exps[-1][1] + 1),) if raised else exps + ((j, 1),)
            if j < mid:
                stack.append((j, lv + logs[j], child))
            else:
                table.append((lv + logs[j], child))
    table.sort(key=lambda item: item[0])
    out, k = [], 0
    while k < len(table):
        end = k + 1
        while end < len(table) and table[end][0] - table[k][0] <= LOG_TIE_TOL:
            end += 1
        out += sorted((exps, lv) for lv, exps in table[k:end])
        k = end
    return out


@given(systems_and_edge_bounds())
def test_stream_at_bounds_on_and_beside_values(case):
    system, bound, piece = case
    with mock.patch.object(counting, "STREAM_PIECE", piece):
        got = items(stream_gintegers(system, bound))
    assert got == table_stream(system, bound)
    assert len(got) == count_N(system, bound)


def test_walk_and_heap_differ_at_the_top_by_a_rounding():
    """Here the top t is the float of 12 g-integers, fl(v + logs[j]) = t, while
    logs[j] > fl(t - v): the heap stream holds them and the walk does not."""
    system = from_list([1.5, 1.5, 1.5000000000001499, 1.5000000000001499], 12.0)
    bound = 11.390624999973427
    top = math.log(bound) + log_tolerance(bound)
    got, heap = items(stream_gintegers(system, bound)), items(heap_stream(system, bound))
    assert got == table_stream(system, bound) == [item for item in heap if item[1] < top]
    assert len(heap) - len(got) == 12 and len(got) == count_N(system, bound)


def test_stream_takes_a_leaf_that_rounds_past_its_top():
    """At this bound, with t = log b + log_tolerance(b), the node 8 has the leaf 83
    at j < hi, so logs[j] <= fl(t - log 8), and fl(log 8 + logs[j]) is one ulp above
    t.  The walk's table and N(x) hold that leaf, and so does the stream's last
    segment, which has no float cut at the top; the heap stream drops it."""
    system, bound = rational_primes(1000), 663.9999999956849
    top = math.log(bound) + log_tolerance(bound)
    got = items(stream_gintegers(system, bound))
    assert got[-1] == (((0, 3), (22, 1)), math.nextafter(top, math.inf))
    assert got[:-1] == items(heap_stream(system, bound))
    assert got == table_stream(system, bound)
    assert len(got) == count_N(system, bound) == 664
    for piece in (1, 7):
        with mock.patch.object(counting, "STREAM_PIECE", piece):
            assert items(stream_gintegers(system, bound)) == got


@pytest.mark.parametrize("make", [rational_primes, gaussian_system])
def test_first_item_builds_one_segment(monkeypatch, make):
    """Read one item deep at bound 1e6, a stream forms the leaf values and builds the
    items of one segment of about STREAM_PIECE, not of its 1e6 g-integers."""
    system = make(10**6)
    count_N(system, 1e6)  # the nodes, walked once per system
    made, leaves = [], []
    spans = counting._spans

    def counted_spans(*args):
        for k, j in spans(*args):
            leaves.append(len(k))
            yield k, j

    def counted(*args):
        made.append(1)
        return GInteger(*args)

    monkeypatch.setattr(counting, "_spans", counted_spans)
    monkeypatch.setattr(counting, "GInteger", counted)
    assert next(stream_gintegers(system, 1e6)) == GInteger((), 0.0)
    assert 0 < len(made) <= 2 * counting.STREAM_PIECE
    assert sum(leaves) <= 2 * counting.STREAM_PIECE


def test_one_long_tie_run_is_sorted_in_segments(monkeypatch):
    """Here the gaps between items are about log(1 + 1e-13) < LOG_TIE_TOL, so the
    whole stream of 1e5 items is one run of items linked by tie-sized gaps, cut by
    the greedy rule into clusters of about ten.  Each segment sorts about
    STREAM_PIECE new items and the open clusters held from the one before, not the
    whole run so far; and almost every item here is a node with no leaves, so each
    segment searches its own nodes and the earlier ones with leaves left, not
    every node up to its edge."""
    system = from_list([1 + 1e-13, 2.0], 2.0)
    bound = math.exp(1e5 * math.log1p(1e-13))
    count_N(system, bound)  # the nodes, walked once per system
    sorted_sizes, searched = [], []
    anchors, searchsorted = counting._anchors, np.searchsorted

    def counted_anchors(values):
        sorted_sizes.append(len(values))
        return anchors(values)

    def counted_searchsorted(a, v, *args):
        searched.append(np.size(v))
        return searchsorted(a, v, *args)

    monkeypatch.setattr(counting, "_anchors", counted_anchors)
    monkeypatch.setattr(counting.np, "searchsorted", counted_searchsorted)
    got = items(stream_gintegers(system, bound))
    monkeypatch.undo()
    assert got == table_stream(system, bound)
    assert len(got) > 10**5 and len(sorted_sizes) > 100
    assert max(sorted_sizes) <= 8 * counting.STREAM_PIECE
    assert sum(sorted_sizes) <= 2 * len(got)
    # the count and the leaf ranges search every node: 4 * len(got) values here
    assert sum(searched) <= 6 * len(got)


def test_stream_caps(monkeypatch):
    system = rational_primes(100)
    monkeypatch.setattr(counting, "MATERIALISE_WARN_CAP", 50)
    with pytest.warns(UserWarning, match="materialising 100 g-integers"):
        stream_gintegers(system, 100)
    monkeypatch.setattr(counting, "MATERIALISE_REFUSE_CAP", 99)
    with pytest.raises(MaterialisationError):
        stream_gintegers(system, 100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert len(list(stream_gintegers(system, 50))) == 50


@st.composite
def systems_and_points(draw):
    primes = draw(prime_lists())
    horizon = draw(st.floats(max(primes), 1e6))
    system = from_list(primes, horizon)
    x = draw(st.one_of(
        st.floats(1.0, horizon),
        st.sampled_from([horizon, *primes, *(p**2 for p in primes if p**2 <= horizon)]),
    ))
    return system, x


@given(systems_and_points())
def test_psi_is_the_prime_loop(case):
    """psi is the last entry of the prime-by-prime loop's compensated running sum."""
    system, x = case
    assert psi(system, x) == reference_psi(system, x)


@pytest.mark.parametrize(
    "system",
    [
        rational_primes(10**5),
        gaussian_system(10**5),
        power_system(rational_primes(10**4), 1.7),
        from_list([1.001, 1.5, 1.5, 2.0], 10**4),
    ],
    ids=["rationals", "gaussian", "power", "near-one"],
)
def test_psi_is_the_prime_loop_on_fixed_systems(system):
    """psi is the last entry of the prime-by-prime loop's compensated running sum
    at the edges, the horizon and 97 points between."""
    limit = system.limit
    points = [1.0, 1.5, 2.0, 2.0 - 1e-13, limit] + [1 + (limit - 1) * k / 97 for k in range(97)]
    for x in points:
        assert psi(system, x) == reference_psi(system, x), x


def reference_report(system, grid):
    """counting_report per point: the grid sorted by Python, N from count_N and
    log_tolerance at each point."""
    grid = np.asarray(sorted(float(g) for g in grid), dtype=float)
    if not np.isfinite(grid).all():
        raise ParameterError("grid points must be finite numbers")
    if len(grid) == 0:
        raise ParameterError("empty grid")
    if grid[0] < 1:
        raise ParameterError("grid points must be >= 1")
    top = float(grid[-1])
    counting._check_bound(system, top, "grid maximum")
    vals_log = counting._sorted_logs_leq(system, top)
    tols = np.array([log_tolerance(x) for x in grid])
    grid_log = np.array([math.log(x) for x in grid]) + tols
    N = np.array([count_N(system, x) for x in grid], dtype=np.intp)
    pi_counts = np.searchsorted(system.log_primes, grid_log, side="right")
    L, _, cum = counting._prime_powers(system, top)
    psi_vals = np.concatenate([[0.0], cum])[np.searchsorted(L, grid_log, side="right")]
    centre = grid_log - tols
    lo = np.searchsorted(vals_log, centre - 2 * tols, side="left")
    hi = np.searchsorted(vals_log, centre + 2 * tols, side="right")
    xs, ns = grid[len(grid) // 2 :], N[len(grid) // 2 :]
    rho_hat = float(np.dot(ns, xs) / np.dot(xs, xs)) if np.dot(xs, xs) > 0 else 0.0
    hits = grid[hi > lo].tolist()
    return counting.CountingReport(grid, N, pi_counts, psi_vals, rho_hat, hits, system.label)


def report_fields(report):
    """A report's fields, by bytes."""
    arrays = [(a.dtype.str, a.tobytes()) for a in (report.grid, report.N, report.pi, report.psi)]
    return arrays, report.rho_hat.hex(), [x.hex() for x in report.boundary_hits], report.label


def refusal(report, system, grid):
    """The error a report raises, by type and message."""
    with pytest.raises(Exception) as info:
        report(system, grid)
    return info.type, str(info.value)


def ulps(x, k):
    """x moved k ulps."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.inf if k > 0 else 0.0)
    return x


E_POINTS = [math.e, math.nextafter(math.e, 0.0), math.nextafter(math.e, math.inf)]


@st.composite
def systems_and_grids(draw):
    """A system and grid points up to its horizon: integers, g-integer values, points
    a few ulps either side of them and points up to twice log_tolerance either side
    of them in the log domain (the edges of the count and of the boundary band),
    points a few ulps either side of a g-integer's top (where log x + log_tolerance(x)
    meets its log), points in [1, e], and e and its float neighbours, where log x
    crosses 1 in log_tolerance's max."""
    system, _ = draw(systems_and_bounds())
    values = g_integer_values(system, system.limit).tolist()
    point = st.one_of(
        st.integers(1, int(system.limit)).map(float),
        st.builds(ulps, st.sampled_from(values), st.integers(-3, 3)),
        st.builds(
            lambda v, f: v * math.exp(f * log_tolerance(v)),
            st.sampled_from(values),
            st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]),
        ),
        st.builds(lambda v, k: ulps(v * math.exp(-log_tolerance(v)), k), st.sampled_from(values), st.integers(-16, 16)),
        st.floats(1.0, math.e),
        st.sampled_from(E_POINTS),
    )
    grid = draw(st.lists(point, min_size=1, max_size=40))
    return system, [min(system.limit, max(1.0, x)) for x in grid]


@given(systems_and_grids())
def test_counting_report_is_the_per_point_report(case):
    system, grid = case
    want = report_fields(reference_report(system, grid))
    for given_as in (list, tuple, iter, np.array):
        assert report_fields(counting.counting_report(system, given_as(grid))) == want


REFUSED_GRIDS = [[5.0, math.nan, 10.0], [5.0, math.inf], [-math.inf, 5.0], [], [0.5, 3.0], [2.0, 2000.0],
                 ["abc", 2.0], [None]]


def test_counting_report_refuses_as_the_per_point_report():
    """NaN, infinities, an empty grid, a point below 1 or past the horizon, entries
    that are not numbers and a grid that is not iterable: the same error and message."""
    system = rational_primes(1000)
    for grid in REFUSED_GRIDS:
        for given_as in (list, tuple, iter):
            want = refusal(reference_report, system, given_as(grid))
            assert refusal(counting.counting_report, system, given_as(grid)) == want
    assert refusal(counting.counting_report, system, 5.0) == refusal(reference_report, system, 5.0)


def reference_sieve(n):
    """The bytearray sieve: the rational primes <= n."""
    if n < 2:
        return []
    mask = bytearray([1]) * (n + 1)
    mask[0:2] = b"\x00\x00"
    for p in range(2, int(n**0.5) + 1):
        if mask[p]:
            mask[p * p :: p] = b"\x00" * len(mask[p * p :: p])
    return [i for i, m in enumerate(mask) if m]


def reference_gaussian(limit):
    """The Gaussian loop: 2, each p = 1 (mod 4) twice, q**2 for q = 3 (mod 4) while q**2 <= limit."""
    vals = [2.0]
    for p in reference_sieve(int(math.floor(limit))):
        if p % 4 == 1:
            vals.extend([float(p), float(p)])
        elif p % 4 == 3 and p * p <= limit:
            vals.append(float(p * p))
    vals.sort()
    return tuple(vals)


def reference_validation(primes):
    """The validation loop of a system's primes: raises at the first offending entry."""
    prev = 1.0
    for p in primes:
        if not (p > 1.0) or not math.isfinite(p):
            raise InvalidPrimeError(f"g-prime {p!r} is not a real > 1")
        if p < prev:
            raise InvalidPrimeError("primes must be nondecreasing")
        prev = p


def reference_prime_powers(system, bound):
    """The prime-by-prime loop: each prime's powers by repeated addition of its
    log, then a stable sort by log value.  The running sum of the weights is
    Sum2's, in Python floats: each addition's error by Knuth's TwoSum, their
    running sum added back."""
    lb = math.log(bound) + log_tolerance(bound)
    L, W = [], []
    for lp in system.log_primes:
        v = lp
        while v <= lb:
            L.append(v)
            W.append(lp)
            v += lp
    order = np.argsort(np.asarray(L), kind="stable")
    W = np.asarray(W)[order]
    cum, total, error = [], 0.0, 0.0
    for w in W.tolist():
        new = total + w
        z = new - total
        error += (total - (new - z)) + (w - z)
        total = new
        cum.append(total + error)
    return np.asarray(L)[order], W, np.asarray(cum, dtype=float)


# small limits, the squares of 3 and 7 (primes = 3 mod 4), points just below
# squares, and a limit past the sieve's first 1000 primes
SIEVE_LIMITS = [0, 1, 2, 2.5, 3, 4, 9, 9 - 1e-9, 49, 49 - 1e-12, 121 - 1e-9, 361, 1e4 + 0.5]


@given(st.one_of(st.sampled_from(SIEVE_LIMITS), st.integers(0, 5000), st.floats(0.0, 5000.0)))
def test_sieved_systems_are_the_loops(limit):
    n = int(math.floor(limit))
    assert systems._sieve(n).tolist() == reference_sieve(n)
    if limit < 2:
        return
    got = rational_primes(limit).primes
    assert got == tuple(float(p) for p in reference_sieve(n))
    assert all(type(p) is float for p in got)
    got = gaussian_system(limit).primes
    assert got == reference_gaussian(limit)
    assert all(type(p) is float for p in got)


@st.composite
def systems_near_one(draw):
    """Generated prime lists (repeats, ties, near-ties), perhaps with primes in
    [1.0005, 1.05], and a bound up to the horizon."""
    primes = draw(prime_lists()) + draw(st.lists(st.floats(1.0005, 1.05), max_size=2))
    horizon = draw(st.floats(max(primes), 1e6))
    bound = draw(st.one_of(st.floats(1.0, horizon), st.sampled_from([horizon, *primes])))
    return from_list(primes, horizon), bound


@given(systems_near_one())
def test_prime_power_table_is_the_prime_loop(case):
    """The table's L, W and compensated running sum are the prime-by-prime loop's."""
    system, bound = case
    got = counting._build_prime_powers(system, math.log(bound) + log_tolerance(bound))
    for a, b in zip(got, reference_prime_powers(system, bound)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), bound


def _outcome(check, primes):
    try:
        check(primes)
    except InvalidPrimeError as exc:
        return type(exc), str(exc)
    return None


def _placed(primes, bad, at):
    """`primes` with entry `at` replaced by `bad`."""
    return primes[:at] + [bad] + primes[at + 1 :]


def _descent(primes, at):
    """`primes` with entries at and at + 1 swapped."""
    return primes[:at] + [primes[at + 1], primes[at]] + primes[at + 2 :]


BAD_PRIMES = [math.nan, math.inf, -math.inf, 1.0, 0.5, 0.0, -3.0, 1 - 1e-16]


@given(
    st.lists(st.floats(1.0001, 1e6), min_size=2, max_size=6, unique=True).map(sorted),
    st.sampled_from(BAD_PRIMES),
)
def test_validation_is_the_loop(primes, bad):
    """NaN, infinities and values <= 1, and a descent, at the first, a middle and the last position."""
    last = len(primes) - 1
    cases = [primes, [int(p) + 2 for p in primes], [Fraction(3, 2), 2]]
    cases += [_placed(primes, bad, at) for at in (0, last // 2, last)]
    cases += [_descent(primes, at) for at in (0, (last - 1) // 2, last - 1)]
    for case in cases:
        expected = _outcome(reference_validation, case)
        assert _outcome(lambda ps: GPrimeSystem(tuple(ps), math.inf), case) == expected, case


def _first_bound_reaching(target):
    """The least float bound b whose log bound, log b + log_tolerance(b), is >= target."""
    b = math.exp(target - log_tolerance(math.exp(target)))
    while math.log(b) + log_tolerance(b) < target:
        b = float(np.nextafter(b, math.inf))
    while math.log(c := float(np.nextafter(b, 0.0))) + log_tolerance(c) >= target:
        b = c
    return b


def test_prime_power_table_at_the_log_bound_of_a_power():
    """Bounds whose log bound is the first float at or above a power's sum: a
    search on the wrong side of a tie, or a sum array cut at lb / lp terms
    (the sum of k terms can sit below k * lp), drops that power.  The table,
    its compensated running sum too, is the prime-by-prime loop's."""
    ties = under = 0
    for primes in ([2.0, 3.0, 5.0], [1.001, 1.003, 2.0]):
        system = from_list(primes, 100.0)
        for lp in system.log_primes.tolist():
            for k, s in enumerate(np.cumsum(np.full(300, lp)).tolist(), 1):
                if s > math.log(100.0):
                    break
                bound = _first_bound_reaching(s)
                lb = math.log(bound) + log_tolerance(bound)
                ties += lb == s
                under += int(lb / lp) < k
                got = counting._build_prime_powers(system, lb)
                for a, b in zip(got, reference_prime_powers(system, bound)):
                    assert a.tobytes() == b.tobytes(), (primes, k, bound)
    assert ties and under  # both edges were met


def test_psi_is_the_count_column_at_the_log_bound_of_a_power():
    """psi and counting_report's psi column read one table: bit for bit at the
    bounds where a power's sum is first reached, on primes near one, where the
    prime loop's floor(lb / lp) powers can be one short of the sums that fit."""
    system = from_list([1.001, 1.003, 2.0], 100.0)
    bounds = []
    for lp in system.log_primes[:2].tolist():
        for s in np.cumsum(np.full(300, lp)).tolist():
            bounds.append(_first_bound_reaching(s))
    report = counting_report(system, bounds)
    assert report.grid.tolist() == sorted(bounds)
    assert report.psi.tolist() == [psi(system, b) for b in report.grid.tolist()]
    # the README's example: psi counts 1.001**44 here, where N's leaf rule does not
    b = 1.0449593808430555
    assert b in bounds and psi(system, b) == counting_report(system, [b]).psi[0]
    assert np.count_nonzero(prime_power_table(system, b)[1] == system.log_primes[0]) == 44


def diagonal_points(kmax):
    d = 2
    while True:
        for k in range(1, min(d - 1, kmax) + 1):
            yield (k, d - k)
        d += 1


def search_coincide(system1, system2, prefix, certified_radii=None):
    """The search loop: each point's brackets by f_k on the two induced oracles
    (bound at import, so that a test may count the library's own f_k calls)."""
    if prefix < 1:
        raise ParameterError("prefix must be >= 1")
    kmax = min(system1.nprimes, system2.nprimes)
    o1, o2 = InducedOracle(system1), InducedOracle(system2)
    radii = None
    if certified_radii is not None:
        radii = [float(r) for r in certified_radii]
        if len(radii) < kmax:
            raise ParameterError("need one certified radius per compared prime")
    log_q1 = math.log(system2.primes[0])
    checked = 0
    for point in diagonal_points(kmax):
        if checked >= prefix:
            break
        k, n = point
        f1 = f_k(o1, k, n)
        checked += 1
        if radii is None:
            f2 = f_k(o2, k, n)
            agree = f1 == f2
        else:
            a_hat = math.log(system2.primes[k - 1]) / log_q1
            f_lo = math.floor(n * (a_hat - radii[k - 1]) + 1e-9)
            f_hi = math.floor(n * (a_hat + radii[k - 1]) + 1e-9)
            f2 = f_k(o2, k, n)
            agree = f_lo <= f1 <= f_hi
        if not agree:
            witness = (point, (1, min(f1, f2) + 1), f1, f2)
            return CoincidenceResult(False, None, witness, checked)
    lam = math.log(system1.primes[0]) / log_q1
    dev = 0.0
    tol = 1e-9
    for i, (p, q) in enumerate(zip(system1.primes[:kmax], system2.primes[:kmax])):
        dev = max(dev, abs(math.log(p) - lam * math.log(q)) / (1 + abs(math.log(p))))
        if radii is not None:
            tol = max(tol, radii[i] * abs(log_q1) * abs(lam) + 1e-9)
    return CoincidenceResult(True, lam, None, checked, dev <= tol, dev)


def coincide_outcome(coincide, *args, **kwargs):
    """The result, with the types of its witness's entries, or the error raised."""
    try:
        res = coincide(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)
    return res, [type(x) for x in res.witness[0] + res.witness[1] + res.witness[2:]] if res.witness else None


def assert_same_coincidence(*args, **kwargs):
    expected = coincide_outcome(search_coincide, *args, **kwargs)
    assert coincide_outcome(orders.orderings_coincide, *args, **kwargs) == expected
    return expected


@st.composite
def system_pairs(draw):
    """Two systems: generated prime lists (repeats, exact ties, near-ties 1e-13
    above or below another prime), perhaps with a prime in [1.0005, 1.05],
    paired with a power copy, a copy with one prime moved, or another list."""
    primes = draw(prime_lists())
    primes += [p * (1 - 1e-13) for p in draw(st.lists(st.sampled_from(primes), max_size=1))]
    primes += draw(st.lists(st.floats(1.0005, 1.05), max_size=1))
    system = from_list(primes, 1e6)
    kind = draw(st.sampled_from(["power", "moved", "other"]))
    if kind == "power":
        other = power_system(system, draw(st.floats(0.3, 3.0)))
    elif kind == "moved":
        at = draw(st.integers(0, len(primes) - 1))
        eps = draw(st.sampled_from([1e-13, -1e-13, 1e-9, 1e-4]))
        other = from_list(primes[:at] + [primes[at] * (1 + eps)] + primes[at + 1 :], 1e6)
    else:
        other = from_list(draw(prime_lists()), 1e6)
    return system, other, draw(st.sampled_from([400, 60, 9, 2, 1]))


@given(system_pairs())
def test_coincide_is_the_search(case):
    assert_same_coincidence(*case)


@given(system_pairs(), st.lists(st.sampled_from([0.0, 1e-6, 1e-3, 0.1]), min_size=8, max_size=8))
def test_coincide_with_certified_radii_is_the_search(case, radii):
    assert_same_coincidence(*case, certified_radii=radii)


@pytest.mark.parametrize("radius", [math.nan, math.inf])
def test_coincide_with_a_nonfinite_radius_is_the_search(radius):
    system = from_list([2.0, 3.0, 5.0], 1e6)
    expected = assert_same_coincidence(system, system, 100, certified_radii=[0.1, radius, 0.1])
    assert expected[0] in (ValueError, OverflowError)


def test_brackets_at_2_to_the_52_are_searched(monkeypatch):
    """f_2(40) = 24973259072662349 > 2**52 for 1 + 1e-15: those brackets go through f_k."""
    system = from_list([1 + 1e-15, 2.0], 10)
    assert f_k(InducedOracle(system), 2, 40) == 24973259072662349
    searches = []
    monkeypatch.setattr(orders, "f_k", lambda *a: searches.append(a) or f_k(*a))
    for other in (system, power_system(system, 1.5)):
        assert_same_coincidence(system, other, 200)
    assert searches
    # brackets past 2**52 that differ by about 900: (2, 1) is the first discordant point
    moved = from_list([1 + 1e-15, 1e3 * (1 + 1e-12)], 1e4)
    res, _ = assert_same_coincidence(from_list([1 + 1e-15, 1e3], 1e4), moved, 200)
    assert res.witness[0] == (2, 1) and min(res.witness[2:]) > 2**52


@pytest.mark.parametrize("kmax", [1, 2, 3, 20, 72])
def test_diagonal_pieces_are_the_traversal(kmax):
    points = list(itertools.islice(diagonal_points(kmax), 3000))
    for piece in (1, 7, 4096):
        ks, ns = map(np.concatenate, zip(*(
            orders._diagonal_piece(start, min(start + piece, 3000), kmax) for start in range(0, 3000, piece)
        )))
        assert list(zip(ks.tolist(), ns.tolist())) == points


@pytest.mark.parametrize("t", [2**20, 3 * 10**8])
def test_diagonal_piece_far_out(t):
    """Across the end of diagonal t, where from t = 3e8 on sqrt(8 i + 1) rounds
    up: each point still follows the one before it."""
    start = t * (t + 1) // 2 - 1000
    ks, ns = (a.tolist() for a in orders._diagonal_piece(start, start + 2000, 10**9))
    d = ks[0] + ns[0]
    assert (d - 2) * (d - 1) // 2 + ks[0] - 1 == start
    for (k, n), (k2, n2) in zip(zip(ks, ns), zip(ks[1:], ns[1:])):
        assert (k2, n2) == ((k + 1, n - 1) if n > 1 else (1, k + n))


COINCIDE_CASES = [
    (rational_primes(72), power_system(rational_primes(72), 1.9), 3000, None),
    (from_list([2.0, 3.0], 1e19), from_list([2.0, 3.0001], 1e19), 10**4, None),
    (from_list([2.0, 3.0, 5.0], 2**40), from_list([2.0, 3.0, 5.0 * (1 + 1e-6)], 2**40), 500, [1e-3] * 3),
    (from_list([2.0, 4.0, 8.0, 9.0, 27.0], 1e6), from_list([2.0, 4.0, 8.0, 9.0, 27.0], 1e6), 1000, None),
    (from_list([1 + 1e-15, 2.0], 10), from_list([1 + 1e-15, 2.0], 10), 100, None),
]


@pytest.mark.parametrize("piece", [1, 7])
def test_coincide_piece_size_changes_no_result(monkeypatch, piece):
    def results():
        for s1, s2, prefix, radii in COINCIDE_CASES:
            yield coincide_outcome(orders.orderings_coincide, s1, s2, prefix, certified_radii=radii)

    expected = list(results())
    assert expected == [coincide_outcome(search_coincide, *c[:3], certified_radii=c[3]) for c in COINCIDE_CASES]
    monkeypatch.setattr(orders, "PIECE", piece)
    assert list(results()) == expected
