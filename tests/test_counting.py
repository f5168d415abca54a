import gc
import itertools
import math
import random
import weakref

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from beurling import (
    count_N,
    count_pi,
    counting_report,
    from_list,
    g_integer_values,
    gap_window,
    gaussian_system,
    power_system,
    psi,
    rational_primes,
    stream_gintegers,
    von_mangoldt,
)
from beurling import counting
from beurling.cli import main
from beurling.counting import (
    _collect_logs_leq,
    _count_leq,
    _power_sum_leq,
    nearest_gintegers,
    prime_power_table,
)
from beurling.errors import IncompleteSystemError, MaterialisationError, ParameterError
from beurling.systems import log_tolerance
from beurling.zeta import phi_dirichlet


def brute_force_values(primes, bound):
    """Oracle: enumerate all exponent vectors over `primes` with value <= bound."""
    out = []

    def rec(i, v):
        out.append(v)
        for j in range(i, len(primes)):
            w = v * primes[j]
            if w <= bound * (1 + 1e-12):
                rec(j, w)
    rec(0, 1.0)
    return sorted(out)


def two_squares_counts(xmax):
    """Oracle: r(n) = #{(a,b) in Z^2 : a^2 + b^2 = n} by direct lattice count."""
    r = np.zeros(xmax + 1, dtype=np.int64)
    amax = int(math.isqrt(xmax))
    for a in range(-amax, amax + 1):
        for b in range(-amax, amax + 1):
            n = a * a + b * b
            if 1 <= n <= xmax:
                r[n] += 1
    return r


def test_stream_single_prime():
    s = from_list([2.0], limit=100)
    vals = [g.value for g in stream_gintegers(s, 10)]
    assert np.allclose(vals, [1, 2, 4, 8])


def test_stream_two_primes():
    s = from_list([2, 3], limit=100)
    vals = [round(g.value) for g in stream_gintegers(s, 10)]
    assert vals == [1, 2, 3, 4, 6, 8, 9]


def test_stream_gaussian_bound_5():
    s = gaussian_system(30)
    vals = [round(g.value) for g in stream_gintegers(s, 5)]
    assert vals == [1, 2, 4, 5, 5]


def test_stream_matches_brute_force():
    random.seed(3)
    for _ in range(8):
        k = random.randint(1, 4)
        primes = sorted(1.3 + 8 * random.random() for _ in range(k))
        bound = random.uniform(5, 1000)
        s = from_list(primes, limit=max(bound, primes[-1]) + 1)
        got = [g.value for g in stream_gintegers(s, bound)]
        want = brute_force_values(primes, bound)
        assert len(got) == len(want)
        assert np.allclose(got, want, rtol=1e-9)


def test_stream_each_vector_once():
    s = from_list([2, 3, 5], limit=3000)
    seen = set()
    for g in stream_gintegers(s, 2500):
        assert g.exponents not in seen
        seen.add(g.exponents)
    # full brute force over exponent boxes
    count = 0
    for a in range(12):
        for b in range(8):
            for c in range(6):
                if 2**a * 3**b * 5**c <= 2500:
                    count += 1
    assert len(seen) == count


def test_stream_tie_order_lexicographic():
    # forced collision: 4 = 2^2 = p2; ties ordered by the (index, exponent) tuples
    s = from_list([2, 4], limit=100)
    got = [(round(g.value), g.exponents) for g in stream_gintegers(s, 8)]
    assert got == [
        (1, ()),
        (2, ((0, 1),)),
        (4, ((0, 2),)),
        (4, ((1, 1),)),
        (8, ((0, 1), (1, 1))),
        (8, ((0, 3),)),
    ]


def test_stream_bound_beyond_limit():
    s = from_list([2, 3], limit=10)
    with pytest.raises(IncompleteSystemError):
        stream_gintegers(s, 20)


def test_stream_bound_below_one():
    s = from_list([2, 3], limit=10)
    with pytest.raises(ParameterError):
        stream_gintegers(s, 0.5)


def test_dropped_stream_is_freed_without_the_cycle_collector():
    # a stream whose items referred back to it would wait for the cycle
    # collector, and a loop of partly read streams would pile up their tables
    s = rational_primes(1000)
    gc.disable()
    try:
        stream = stream_gintegers(s, 1000)
        next(stream)
        ref = weakref.ref(stream)
        del stream
        assert ref() is None
    finally:
        gc.enable()


def test_count_N_below_one():
    s = from_list([2, 3], limit=10)
    with pytest.raises(ParameterError):
        count_N(s, 0.5)


def test_count_N_naturals():
    s = rational_primes(100)
    assert count_N(s, 10.5) == 10
    for x in [1, 2, 2.5, 17, 99.9, 100]:
        assert count_N(s, x) == math.floor(x)


def test_count_N_single_prime_at_one():
    s = from_list([2.0], limit=10)
    assert count_N(s, 1) == 1


def test_count_N_gaussian_lattice_oracle():
    s = gaussian_system(200)
    r = two_squares_counts(200)
    quarter = np.cumsum(r) // 4
    for x in range(1, 201):
        assert count_N(s, x) == quarter[x], f"x={x}"


def test_count_N_matches_stream_count():
    random.seed(5)
    for _ in range(6):
        k = random.randint(1, 4)
        primes = sorted(1.4 + 6 * random.random() for _ in range(k))
        bound = random.uniform(10, 800)
        s = from_list(primes, limit=bound + 1)
        assert count_N(s, bound) == sum(1 for _ in stream_gintegers(s, bound))


def test_count_pi():
    assert count_pi(rational_primes(100), 10) == 4
    assert count_pi(gaussian_system(30), 10) == 4  # 2, 5, 5, 9
    assert count_pi(from_list([3, 5], limit=10), 2.5) == 0


def test_psi_naturals():
    s = rational_primes(100)
    # brute force over prime powers 2,3,4,5,7,8,9: log 2520
    assert abs(psi(s, 10) - math.log(2520)) <= 1e-12
    assert abs(psi(s, 10) - 7.8320) <= 5e-5


def test_psi_single_prime():
    s = from_list([2.0], limit=100)
    assert abs(psi(s, 10) - 3 * math.log(2)) <= 1e-12
    assert psi(s, 1.5) == 0.0


def test_psi_brute_force_random_systems():
    random.seed(9)
    for _ in range(6):
        primes = sorted(1.5 + 5 * random.random() for _ in range(random.randint(1, 4)))
        s = from_list(primes, limit=2000)
        x = random.uniform(2, 1500)
        want = 0.0
        for p in primes:
            k = 1
            while p**k <= x * (1 + 1e-12):
                want += math.log(p)
                k += 1
        assert abs(psi(s, x) - want) <= 1e-9


@pytest.mark.parametrize(
    "system,points",
    [
        (rational_primes(10**5), 60),
        (gaussian_system(10**5), 60),
        (power_system(rational_primes(10**4), 1.7), 40),
        (from_list([1.001, 1.5, 1.5, 2.0], 10**4), 40),
        (rational_primes(10**4), [1000.5, 500.5]),  # the Perron oracle's points
        (gaussian_system(10**4), [2000.5]),
    ],
    ids=["rationals", "gaussian", "power", "near-one", "perron-rationals", "perron-gaussian"],
)
def test_psi_is_within_an_ulp_of_the_exact_sum(system, points):
    """psi and counting_report's psi column, bit for bit the same, against the
    exact sum, at 30 digits, of the table's own float weights: Sum2 is within
    u|s| + gamma**2 sum|w|, under an ulp here.  A plain cumsum of the weights is
    6 to 367 ulps off at these points."""
    if isinstance(points, int):
        rng = random.Random(points)
        points = [rng.uniform(1.0, system.limit) for _ in range(points)] + [system.limit]
    L, W = prime_power_table(system, system.limit)
    with mp.workdps(30):
        exact, total = [mp.mpf(0)], mp.mpf(0)
        for w in W.tolist():
            total += w
            exact.append(total)
        report = counting_report(system, points)
        for x, column in zip(report.grid.tolist(), report.psi.tolist()):
            assert psi(system, x) == column, x
            want = exact[len(prime_power_table(system, x)[0])]
            assert abs(column - want) <= np.spacing(column), (x, column)


def test_von_mangoldt():
    from beurling import g_integer

    s = from_list([2, 3], limit=100)
    assert von_mangoldt(s, g_integer(s, {0: 3})) == pytest.approx(math.log(2))
    assert von_mangoldt(s, g_integer(s, {0: 1, 1: 1})) == 0.0
    assert von_mangoldt(s, g_integer(s, {})) == 0.0


def test_monotonicity_of_counts():
    s = gaussian_system(300)
    rep = counting_report(s, np.linspace(1, 300, 90))
    assert np.all(np.diff(rep.N) >= 0)
    assert np.all(np.diff(rep.pi) >= 0)
    assert np.all(np.diff(rep.psi) >= -1e-12)
    # N(2x) >= N(x)
    for x in [2, 10, 50, 149]:
        assert count_N(s, 2 * x) >= count_N(s, x)


def test_report_consistency_with_pointwise():
    s = rational_primes(400)
    grid = [3, 10.5, 77, 250, 399]
    rep = counting_report(s, grid)
    assert list(rep.N) == [count_N(s, x) for x in grid]
    assert list(rep.pi) == [count_pi(s, x) for x in grid]
    assert np.allclose(rep.psi, [psi(s, x) for x in grid])
    assert abs(rep.rho_hat - 1.0) < 0.01


# two near-equal primes, each repeated: g-integers an ulp or so apart
NEAR_REPEATS = from_list([1.5, 1.5, 1.5 * (1 + 1e-13), 1.5 * (1 + 1e-13)], 12.0)


@pytest.mark.parametrize(
    "system,spec,x,n",
    [
        (rational_primes(1000), "builtin:rationals", 663.9999999956849, 664),
        (NEAR_REPEATS, "list:1.5,1.5,1.5000000000001499,1.5000000000001499", 11.390624999973427, 133),
    ],
    ids=["rationals", "near-repeats"],
)
def test_report_N_at_a_band_edge_is_count_N(system, spec, x, n, capsys):
    """Points whose top, log x + log_tolerance(x), is a g-integer's float: the
    report and the `count` command count as count_N does."""
    assert count_N(system, x) == n
    assert counting_report(system, [x, system.limit]).N[0] == n
    argv = ["count", "--system", spec, "--limit", repr(system.limit), "--grid", f"{x!r},{system.limit!r}"]
    assert main(argv) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
    assert rows[1][:2] == [repr(x), str(n)]


@given(st.sampled_from([rational_primes(1000), gaussian_system(1000), NEAR_REPEATS]), st.data())
def test_report_N_is_count_N_a_few_ulps_about_g_integer_tops(system, data):
    values = g_integer_values(system, system.limit).tolist()
    top = st.sampled_from(values).map(lambda v: v * math.exp(-log_tolerance(v)))
    point = st.builds(lambda t, k: min(system.limit, max(1.0, t + k * math.ulp(t))), top, st.integers(-16, 16))
    report = counting_report(system, data.draw(st.lists(point, min_size=1, max_size=30)) + [system.limit])
    assert report.N.tolist() == [count_N(system, x) for x in report.grid.tolist()]


def test_gap_window_single_prime():
    s = from_list([2.0], limit=100)
    w = gap_window(s, 10)
    assert w.found and not w.shifted
    assert w.center == 10
    assert w.below == pytest.approx(8, rel=1e-12)
    assert w.above == pytest.approx(16, rel=1e-12)


def test_gap_window_naturals_halfway():
    s = rational_primes(10**4)
    w = gap_window(s, 100.5)
    assert w.found and w.center == 100.5
    assert w.below == pytest.approx(100, rel=1e-12)
    assert w.above == pytest.approx(101, rel=1e-12)


def test_gap_window_shifts_near_integer():
    s = rational_primes(10**4)
    w = gap_window(s, 100.000001)
    assert w.found and w.shifted
    assert w.center != 100.000001
    # the returned window is genuinely free of g-integers
    lo, hi = w.interval
    vals = g_integer_values(s, 110)
    inside = vals[(vals > lo) & (vals < hi)]
    assert len(inside) == 0


def test_gap_window_with_no_free_point():
    """Near 2 the powers of 1.01 lie closer than r = 1/x**2: no candidate is free,
    and the result names the tightest pair in range."""
    w = gap_window(from_list([1.01], 100), 2.0)
    assert not w.found and not w.shifted and w.center == 2.0 and w.radius == 0.25
    assert w.obstruction == "tightest gap 1.000e-02 between 1.000000 and 1.010000"
    assert w.below < 2.0 < w.above


@pytest.mark.parametrize("p", [2.0, 3.0, 13.0])
def test_gap_window_at_a_lone_g_integer(p):
    """At x a lone g-integer's own float the scan steps off it, also above 2e5,
    where r(x) is below half an ulp of x and x +- r(x) rounds back to x."""
    s = from_list([p], 1e7)
    for v in g_integer_values(s, 1e7)[1:].tolist():
        w = gap_window(s, v)
        assert w.found and w.shifted and v in (w.below, w.above)
        lo, hi = w.interval
        vals = nearest_gintegers(s, v, 4.0)
        assert not ((vals > lo) & (vals < hi)).any()


def test_gap_window_x_too_small():
    with pytest.raises(ParameterError):
        gap_window(rational_primes(100), 1.0)


def test_prime_power_table():
    s = rational_primes(100)
    L, W = prime_power_table(s, 10)
    vals = sorted(np.exp(L))
    assert np.allclose(vals, [2, 3, 4, 5, 7, 8, 9])
    assert abs(np.sum(W) - psi(s, 10)) <= 1e-12


def test_materialise_caps(monkeypatch):
    s = rational_primes(10**4)
    with monkeypatch.context() as patch, pytest.warns(UserWarning):
        patch.setattr(counting, "MATERIALISE_WARN_CAP", 100)
        g_integer_values(s, 10**4 - 0.5)
    from beurling.errors import MaterialisationError

    with monkeypatch.context() as patch, pytest.raises(MaterialisationError):
        patch.setattr(counting, "MATERIALISE_REFUSE_CAP", 100)
        g_integer_values(s, 10**4 - 0.5)


def test_prime_power_table_caps(monkeypatch):
    """The table's entries are counted before they are allocated: the n first
    powers plus each prime's int(top / lp * (1 + 1e-6)) + 2 summed powers, here
    25 + 8 + 6 + 4 + 4 = 47 for the primes up to 100."""
    system = rational_primes(100)
    with monkeypatch.context() as patch, pytest.warns(UserWarning, match="materialising 47 prime-power entries"):
        patch.setattr(counting, "MATERIALISE_WARN_CAP", 46)
        psi(system, 100)
    system = rational_primes(100)
    with monkeypatch.context() as patch, pytest.raises(MaterialisationError, match="47 prime-power entries"):
        patch.setattr(counting, "MATERIALISE_REFUSE_CAP", 46)
        psi(system, 100)
    assert psi(system, 100) == psi(rational_primes(100), 100)
    # a prime one ulp above 1 has 3e16 powers below 1000: refused, not allocated
    with pytest.raises(MaterialisationError):
        psi(from_list([1.0000000000000002, 3.0], 1000), 1000)


def _walk_systems():
    rng = random.Random(17)
    systems = [from_list([2.0], limit=200), from_list([1.5, 1.5, 1.5, 2.0], limit=200)]
    for _ in range(6):
        k = rng.randint(1, 8)
        primes = [round(1.1 + rng.random() * 9, 3) for _ in range(k)]
        primes += primes[: rng.randint(0, k)]  # repeated primes
        systems.append(from_list(primes, limit=200))
    return systems


@pytest.mark.parametrize("system", _walk_systems(), ids=lambda s: str(s.primes))
def test_walk_consumers_agree_with_stream(system):
    rng = random.Random(len(system.primes))
    for bound in (1.0, 7.5, rng.uniform(1, 200), 200.0):
        lb, tol = math.log(bound), log_tolerance(bound)
        stream = list(stream_gintegers(system, bound))
        s = complex(rng.uniform(1.1, 3.0), rng.uniform(-20.0, 20.0))
        value, count = _power_sum_leq(system, lb + tol, s)
        n = _count_leq(system, lb + tol)
        assert n == len(_collect_logs_leq(system, lb + tol)) == count == len(stream)
        brute = sum(np.exp(-s * g.log_value) for g in stream)
        assert abs(value - brute) <= 1e-12 * sum(np.exp(-s.real * g.log_value) for g in stream)


def test_log_primes_read_only():
    s = from_list([2, 3, 5], limit=100)
    with pytest.raises(ValueError):
        s.log_primes[0] = 0.0
    with pytest.raises(ValueError):
        s.log_primes[:] += 1.0


def test_walked_system_equal_and_hash_equal():
    a = from_list([2, 2, 3.5], limit=100)
    b = from_list([2, 2, 3.5], limit=100)
    assert a == b and hash(a) == hash(b)
    phi_dirichlet(a, 2.0)  # fills a's derived data (its prime-power table); b's stays empty
    assert a._derived and not b._derived
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b)


def _boundary_brute_force(system, grid):
    """The boundary-hit definition, one full scan per grid point."""
    grid = np.asarray(sorted(grid))
    top = grid[-1]
    vals_log = np.sort(_collect_logs_leq(system, math.log(top) + log_tolerance(top)))
    grid_log = np.log(grid) + np.array([log_tolerance(x) for x in grid])
    return [
        float(x)
        for x, gl in zip(grid, grid_log)
        if np.any(np.abs(vals_log - (gl - log_tolerance(x))) <= 2 * log_tolerance(x))
    ]


@pytest.mark.parametrize(
    "system,grid,expect",
    [
        (rational_primes(1000), [float(n) for n in range(1, 1001)], "all"),
        (rational_primes(1000), [n + 0.5 for n in range(1, 1000)], "none"),
        (gaussian_system(2000), [float(n) for n in range(1, 2001, 3)], None),
    ],
    ids=["rational-integers", "rational-half-integers", "gaussian"],
)
def test_boundary_hits_match_brute_force(system, grid, expect):
    hits = counting_report(system, grid).boundary_hits
    assert hits == _boundary_brute_force(system, grid)
    if expect == "all":
        assert hits == grid
    elif expect == "none":
        assert hits == []
    else:
        assert 0 < len(hits) < len(grid)


def test_counts_below_one():
    """No g-prime is <= 1, so pi vanishes there; N and psi start at x = 1."""
    system = from_list([2.0, 3.0], limit=100)
    assert count_pi(system, 1.0) == count_pi(system, 0.5) == 0
    assert psi(system, 1.0) == 0.0
    with pytest.raises(ParameterError, match="x must be >= 1"):
        psi(system, 0.5)
