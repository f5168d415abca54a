"""The walk, the Dirichlet sum, the sorted stream, psi and the system builds
against the code they replaced, kept here as references.

The g-integer walk was depth-first; it is now batched over whole same-prime
chains.  The Dirichlet sum had a depth-first walk of its own; it now reads the
batched walk and adds its terms in the depth-first walk's order.  The stream
was a min-heap over (log value, exponent vector); it is now a sorted view of
one walk's table.  The gap scan's window was cut from all sorted g-integer
values; it now sorts only the logs near the window.  orderings_coincide
searched each bracket f_k(n) of two induced orders by doubling and bisection;
it now takes them in closed form.  psi was a loop over the primes; it is now
one array expression.  The sieve, the Gaussian system, the validation of a
system's primes and the prime-power table were loops; they are now array
operations.  All must give the same floats, and the same errors.
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
    from_list,
    g_integer_values,
    gaussian_system,
    power_system,
    psi,
    rational_primes,
    stream_gintegers,
)
from beurling import counting, orders, systems
from beurling.errors import InvalidPrimeError, MaterialisationError, ParameterError
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
    """The depth-first Dirichlet sum: (sum of n^{-s}, count), adding at each node
    n^{-s}, then n^{-s} times the sum of p^{-s} over its leaves' primes."""
    if not math.isfinite(log_bound):  # NaN passes every bisect; inf never ends
        raise ParameterError(f"cannot walk to the log bound {log_bound}")
    logs = system.log_primes.tolist()
    prefix = np.concatenate([[0.0 + 0.0j], np.cumsum(np.exp(-s * system.log_primes))])
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
    """The per-prime loop: floor(log x / log p) powers of each p, added in prime order."""
    lx = math.log(x) + log_tolerance(x)
    total = 0.0
    for lp in system.log_primes:
        if lp > lx:
            break
        total += math.floor(lx / lp) * lp
    return float(total)


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
        assert counting._count_leq(system, lb, tol) == dfs_count(system, lb, tol)
        got = np.sort(counting._collect_logs_leq(system, lb, tol))
        assert got.tobytes() == np.sort(dfs_collect(system, lb, tol)).tobytes()


def test_walk_batches_whole_chains():
    """A batch sums whole chains: 1.001 has 6911 powers below 1e3, which a walk
    taking one round per unit of exponent would take 6911 rounds over."""
    system = from_list([1.001, 2.0], 1e300)
    assert len(list(counting._batches(system, math.log(1e3), log_tolerance(1e3)))) <= 3


@pytest.mark.parametrize("piece", [1, 7])
def test_piece_size_changes_no_result(monkeypatch, piece):
    cases = [
        (rational_primes(1000), 1000.0),
        (from_list([2.0, 3.0, 4.0, 6.0, 9.0], 3000.0), 3000.0),
        (from_list([1.01, 1.5, 2.0], 1e300), 60.0),
    ]

    def results():
        for system, bound in cases:
            lb, tol = math.log(bound), log_tolerance(bound)
            logs = np.sort(counting._collect_logs_leq(system, lb, tol)).tobytes()
            yield counting._count_leq(system, lb, tol), logs, items(stream_gintegers(system, bound))
            for s in (2.0 + 0j, 1.5 - 300.0j):
                value, count = counting._power_sum_leq(system, lb, tol, s)
                yield value.real.hex(), value.imag.hex(), count

    expected = list(results())
    monkeypatch.setattr(counting, "PIECE", piece)
    assert list(results()) == expected


def assert_same_power_sum(system, log_bound, tol, s):
    value, count = counting._power_sum_leq(system, log_bound, tol, s)
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
            assert_same_power_sum(system, math.log(bound), log_tolerance(bound), s)


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
    for walk in (counting._power_sum_leq, dfs_power_sum):
        with pytest.raises(ParameterError, match=r"^cannot walk to the log bound inf$"):
            walk(system, math.inf, 0.0, 2 + 1j)


def window_of_all_values(system, x, halfwidth):
    """The gap scan's window, cut from every sorted g-integer value up to 2x + halfwidth."""
    vals = g_integer_values(system, min(system.limit, 2 * x + halfwidth))
    return vals[vals >= x - halfwidth]


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
    limit = system.limit
    points = [1.0, 1.5, 2.0, 2.0 - 1e-13, limit] + [1 + (limit - 1) * k / 97 for k in range(97)]
    for x in points:
        assert psi(system, x) == reference_psi(system, x), x


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
    log, then a stable sort by log value."""
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
    return np.asarray(L)[order], W, np.cumsum(W)


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
    system, bound = case
    got = counting._build_prime_powers(system, bound)
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
    (the sum of k terms can sit below k * lp), drops that power."""
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
                got = counting._build_prime_powers(system, bound)
                for a, b in zip(got, reference_prime_powers(system, bound)):
                    assert a.tobytes() == b.tobytes(), (primes, k, bound)
    assert ties and under  # both edges were met


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
