import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beurling import from_list, gap_window, gaussian_system, power_system, psi, rational_primes
from beurling.counting import PIECE, prime_power_table
from beurling.errors import IncompleteSystemError, ParameterError, UnstablePointError
from beurling.perron import (
    KERNEL_WIDTH,
    PerronParams,
    _half_grid,
    _line_sums,
    _two_product,
    perron_convergence_scan,
    perron_psi,
)


def test_single_prime_recovery():
    system = from_list([2.0], limit=200)
    res = perron_psi(system, PerronParams(x=10.0, T=1e3))
    want = 3 * math.log(2)
    assert abs(res.value - want) <= res.budget.total
    assert abs(res.value - want) <= 1e-2


def test_rationals_recovery_within_budget(rp1e4):
    w = gap_window(rp1e4, 1000.5)
    assert w.found
    res = perron_psi(rp1e4, PerronParams(x=w.center, T=1e4))
    oracle = psi(rp1e4, w.center)
    err = abs(res.value - oracle)
    assert err <= res.budget.total
    assert err / oracle <= 0.02


def test_budget_holds_across_systems():
    systems = [
        from_list([2.0, 3.0], limit=500),
        from_list([2.0, 2.5, 7.7], limit=500),
        rational_primes(500),
    ]
    for system in systems:
        w = gap_window(system, 30.3)
        res = perron_psi(system, PerronParams(x=w.center, T=2e3))
        oracle = psi(system, w.center)
        assert abs(res.value - oracle) <= res.budget.total, system.label


def test_c_robustness(rp1e4):
    x = 500.5
    base = PerronParams(x=x, T=2e3)
    shifted = PerronParams(x=x, T=2e3, c=base.c + 0.1)
    r1 = perron_psi(rp1e4, base)
    r2 = perron_psi(rp1e4, shifted)
    assert abs(r1.value - r2.value) <= r1.budget.total + r2.budget.total


def test_exact_ginteger_unstable(rp1e4):
    with pytest.raises(UnstablePointError):
        perron_psi(rp1e4, PerronParams(x=100.0, T=1e3))


def test_near_ginteger_unstable(rp1e4):
    with pytest.raises(UnstablePointError):
        perron_psi(rp1e4, PerronParams(x=100.0 + 1e-7, T=1e3))


def test_param_validation():
    with pytest.raises(ParameterError):
        PerronParams(x=1.5, T=100)
    with pytest.raises(ParameterError):
        PerronParams(x=10, T=-1)
    with pytest.raises(ParameterError):
        PerronParams(x=10, T=100, c=0.9)
    for c in (None, 1.5):  # x = inf is named, not reached through c or the step
        with pytest.raises(ParameterError, match=r"^perron needs 2 < x < inf, got inf$"):
            PerronParams(x=math.inf, T=10, c=c)


def test_scan_errors_decrease(rp1e4):
    scan = perron_convergence_scan(rp1e4, 500.5, [1e2, 1e3, 1e4])
    assert scan.monotone_trend
    errs = scan.errors()
    assert errs[-1] < errs[0]
    for _, _, err, budget in scan.rows:
        assert err <= budget


def test_scan_single_entry_rejected(rp1e4):
    with pytest.raises(ParameterError):
        perron_convergence_scan(rp1e4, 500.5, [1e3])


def test_scan_single_prime():
    system = from_list([2.0], limit=200)
    scan = perron_convergence_scan(system, 10.0, [1e2, 5e2, 1e3])
    assert scan.errors()[-1] <= 1e-2


def _line_inputs(system, x, T):
    """perron_psi's L, wc and t, the prime powers' logs and weights w e^{-cL} and the
    half grid t_j = j h, and the x^s/s at s = c + i t that its line sums weigh."""
    params = PerronParams(x=x, T=T)
    L, W = prime_power_table(system, min(x * x, system.limit))
    t = _half_grid(T, params.step)
    s = params.c + 1j * t
    return L, W * np.exp(-params.c * L), t, np.exp(s * math.log(x)) / s


@pytest.mark.parametrize("x, T", [(150.5, 1.0), (1000.5, 1e3), (1000.5, 1e4), (2500.5, 1e4)])
def test_the_half_grid_steps_by_T_over_m_exactly(rp1e4, x, T):
    """The line sums take node j at j t[1]: on the half grid that is linspace's own
    step T/m, so their nodes do not drift from the grid's."""
    params = PerronParams(x=x, T=T)
    t = _half_grid(T, params.step)
    m = len(t) - 1
    assert m % 2 == 0 and m >= T / params.step
    assert t[0] == 0.0 and t[-1] == T and t[::2][-1] == T
    assert t[1] - t[0] == T / m
    assert perron_psi(rp1e4, params).nodes == m + 1


def _direct_line_sums(L, wc, g, h):
    """_line_sums term by term: sum_k wc_k sum_j w_j Re(g_j e^{-i j h L_k}) / pi, w the fine
    and the step-doubled trapezoid weights.  Each h L_k / 2pi is taken from mpmath at 40
    digits as hi + lo, and hi split at 2^-26, so j times its top part is exact and the
    phase j h L_k / 2pi reaches its fraction of a turn good to about 2^-53."""
    with mpmath.workdps(40):
        u = [mpmath.mpf(h) * mpmath.mpf(v) / (2 * mpmath.pi) for v in L.tolist()]
        hi = np.array([float(v) for v in u])
        lo = np.array([float(v - mpmath.mpf(float(v))) for v in u])
    top = np.floor(hi * 2.0**26) / 2.0**26
    m = len(g) - 1
    j = np.arange(m + 1, dtype=float)[:, None]
    fine = np.full(m + 1, h)
    fine[[0, m]] = h / 2
    coarse = np.where(np.arange(m + 1) % 2 == 0, 2 * h, 0.0)
    coarse[[0, m]] = h
    weights = np.array([fine, coarse])
    sums = np.zeros(2)
    step = max(1, 2**20 // (m + 1))  # terms a block of phases holds
    for a in range(0, len(L), step):
        turns = j * top[a : a + step]
        turns -= np.floor(turns)
        turns += j * (hi[a : a + step] - top[a : a + step]) + j * lo[a : a + step]
        line = weights * g.real @ np.cos(2 * math.pi * turns) + weights * g.imag @ np.sin(2 * math.pi * turns)
        sums += line @ wc[a : a + step]
    return tuple(sums / math.pi)


LINE_CASES = {  # x, T, and perron_psi's value and budget.quadrature, bit for bit
    "3 nodes": (150.5, 1e-300, "0x1.0b1ab4de865b7p-988", "0x0.00032aaaaaaabp-1022"),
    "1279 nodes": (150.5, 100.0, "0x1.270e795777b7bp+7", "0x1.5e7f913880000p-11"),
    "17593 nodes": (1000.5, 1e3, "0x1.f2d6ab789201fp+9", "0x1.2ce5ee6000000p-14"),
    "ten pieces of terms": (400.5, 100.0, "0x1.8effa5e060014p+8", "0x1.f74fd8e22aaabp-9"),
    "repeated primes": (150.5, 300.0, "0x1.b4d57b071267dp+4", "0x1.ce0e86a7d5555p-12"),
    "power system": (150.5, 300.0, "0x1.2d0b827aaf48cp+5", "0x1.7c544885d5555p-13"),
}


@pytest.mark.parametrize("case", LINE_CASES)
def test_line_sums_are_the_direct_trapezoid(rp1e4, rp1e5, case):
    system = {
        "3 nodes": rp1e4,
        "1279 nodes": rp1e4,
        "17593 nodes": rp1e4,
        "ten pieces of terms": rp1e5,  # 9,700 terms, 1,024 to a piece
        "repeated primes": from_list([2.0, 2.0, 3.0, 3.0, 5.0, 7.5], limit=2000),
        "power system": power_system(rp1e4, 1.5),
    }[case]
    x, T, value, quadrature = LINE_CASES[case]
    L, wc, t, g = _line_inputs(system, x, T)
    if case == "3 nodes":
        assert len(t) == 3
    if case == "ten pieces of terms":
        assert 9 * PIECE // (4 * KERNEL_WIDTH) < len(L) <= 10 * PIECE // (4 * KERNEL_WIDTH)
    got = _line_sums(L, wc, x, PerronParams(x=x, T=T).c, t)
    want = _direct_line_sums(L, wc, g, t[1])
    assert all(abs(a - b) <= 1e-13 * abs(b) for a, b in zip(got, want)), (got, want)
    res = perron_psi(system, PerronParams(x=x, T=T))
    assert (res.value.hex(), res.budget.quadrature.hex()) == (value, quadrature)


@pytest.mark.parametrize(
    "x, T, power", [(1000.5, 1e3, None), (150.5, 300.0, 1.5)], ids=["17593 nodes", "power system"]
)
def test_the_step_doubled_sum_is_the_fine_sum_of_every_other_node(rp1e4, x, T, power):
    """The coarse sum, read at theta and theta + pi off the fine grid's FFT, is the fine sum
    of the grid t[::2] (m divisible by 4, so that grid's own m is even)."""
    system = rp1e4 if power is None else power_system(rp1e4, power)
    L, wc, t, _ = _line_inputs(system, x, T)
    assert (len(t) - 1) % 4 == 0
    c = PerronParams(x=x, T=T).c
    _, coarse = _line_sums(L, wc, x, c, t)
    fine_of_every_other, _ = _line_sums(L, wc, x, c, t[::2])
    assert abs(coarse - fine_of_every_other) <= 1e-13 * abs(coarse), (coarse, fine_of_every_other)


def test_two_product_is_exact():
    """p + e is a * b exactly, at the phase's own h / 2pi and at random pairs over many binades."""
    rng = np.random.default_rng(22)
    a, b = rng.uniform(-1, 1, (2, 200)) * 2.0 ** rng.integers(-30, 30, (2, 200))
    a = np.concatenate([[0.1 / (2 * math.pi), 2 * math.pi], a])
    b = np.concatenate([[math.log(9973.0), 1.0], b])
    p, e = _two_product(a, b)
    for ai, bi, pi, ei in zip(a.tolist(), b.tolist(), p.tolist(), e.tolist()):
        assert Fraction(pi) + Fraction(ei) == Fraction(ai) * Fraction(bi), (ai, bi)
        assert pi == ai * bi


def _traced_peak(system, params):
    perron_psi(system, params)  # the prime-power table and the gap scan's nodes are kept
    tracemalloc.start()
    try:
        perron_psi(system, params)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_peak_follows_the_nodes_not_the_terms(rp1e4, rp1e5):
    """At the same x and T (so the same nodes), 1,280 terms and 9,700 terms peak alike:
    the FFT's grid and the line's arrays, under eight complex numbers a node, are the
    peak, not a nodes x terms table."""
    params = PerronParams(x=1000.5, T=1e4)
    nodes = len(_half_grid(params.T, params.step))
    small, large = _traced_peak(rp1e4, params), _traced_peak(rp1e5, params)
    assert large < 1.1 * small
    assert large < 8 * nodes * 16


def test_a_run_the_table_guard_refused_completes(rp1e6):
    """The phase tables' 2 GiB guard refused x = 1000.5, T = 5e4 on the 1e6 rationals
    (2.2 GiB of tables for 78,734 terms); the line sums need O(nodes) and run it."""
    params = PerronParams(x=1000.5, T=5e4)
    nodes = len(_half_grid(params.T, params.step))
    peak = _traced_peak(rp1e6, params)
    res = perron_psi(rp1e6, params)
    assert abs(res.value - psi(rp1e6, 1000.5)) <= res.budget.total
    assert peak < 8 * nodes * 16


@pytest.mark.parametrize("x", [100.5, np.float64(100.5)], ids=["float", "numpy-float"])
def test_overflowing_x_to_the_c_is_refused(x):
    """x^c = inf would make the value, error and budget nan; numpy's ** gives inf
    with a warning where Python's raises, so the check must not rest on it."""
    with pytest.raises(ParameterError, match="x\\^c overflows"):
        PerronParams(x=x, T=10, c=1e300)


def test_a_grid_past_the_node_cap_is_refused():
    with pytest.raises(ParameterError, match="quadrature nodes"):
        PerronParams(x=100.5, T=1e300)


def test_near_range_past_the_horizon_is_refused():
    with pytest.raises(IncompleteSystemError, match="near range"):
        perron_psi(from_list([2.0, 3.0], limit=100), PerronParams(x=60.5, T=10))


def test_gap_check_reads_x_plus_one_only():
    """Perron needs 2x <= limit, and its gap check only the g-integers within 1/x^2 < 1/4
    of x, so a point with x + 3 past the horizon still runs."""
    system = from_list([2.0, 3.0], limit=5.2)
    res = perron_psi(system, PerronParams(x=2.5, T=10))
    assert abs(res.value - psi(system, 2.5)) <= res.budget.total
    with pytest.raises(UnstablePointError, match=r"of the g-integer 3\.0000000000000004;"):
        perron_psi(from_list([2.0, 3.0], limit=5.8), PerronParams(x=2.9, T=10))


def _perron_term(u, c, T):
    """(1/2 pi i) int_{c-iT}^{c+iT} e^{us}/s ds = (Ei(u(c+iT)) - Ei(u(c-iT))) / (2 pi i) + [u < 0]."""
    return (mpmath.ei(u * mpmath.mpc(c, T)) - mpmath.ei(u * mpmath.mpc(c, -T))) / (2j * mpmath.pi) + (u < 0)


def truncated_perron(system, x, T, c):
    """The exact truncated integral I_T = (1/2 pi i) int_{c-iT}^{c+iT} phi(s) x^s / s ds:
    the sum of Lambda(n) * _perron_term(log(x/n), c, T) over the prime-power table, in
    mpmath at 30 digits."""
    L, W = prime_power_table(system, min(x * x, system.limit))
    with mpmath.workdps(30):
        lx = mpmath.log(x)
        return float(sum(w * _perron_term(lx - logn, c, T).real for logn, w in zip(L.tolist(), W.tolist())))


def test_the_closed_form_term_is_the_integral():
    """_perron_term against quadrature, both at 30 digits; u < 0 crosses Ei's cut."""
    with mpmath.workdps(30):
        c, T = mpmath.mpf(1.2), mpmath.mpf(20)
        for u in (0.7, -0.4, 2.0, -1.3):
            quad = mpmath.quad(
                lambda t: mpmath.exp(u * (c + 1j * t)) / (c + 1j * t), mpmath.linspace(-T, T, 8)
            ) / (2 * mpmath.pi)
            closed = _perron_term(u, c, T)
            assert abs(quad - closed) <= 1e-25 * abs(closed), u


@pytest.mark.parametrize(
    "system, x, T",
    [
        ("rationals", 1000.5, 1e4),
        ("rationals", 500.5, 1e4),
        ("rationals", 2500.5, 1e4),
        ("rationals", 1000.5, 1e3),
        ("gaussian", 2000.5, 1e3),
    ],
)
def test_each_budget_term_bounds_its_own_error(rp1e4, system, x, T):
    """The trapezoid is within budget.quadrature of the exact truncated integral, and
    that integral within the lemma's far + near of psi(x)."""
    system = rp1e4 if system == "rationals" else gaussian_system(10**4)
    params = PerronParams(x=x, T=T)
    res = perron_psi(system, params)
    exact = truncated_perron(system, x, T, params.c)
    assert abs(res.value - exact) <= res.budget.quadrature
    assert abs(exact - psi(system, x)) <= res.budget.far_term + res.budget.near_term


@settings(max_examples=6)
@given(n=st.integers(150, 3999), log_T=st.floats(2.0, 4.0))
def test_each_budget_term_bounds_its_own_error_at_random_points(rp1e4, n, log_T):
    """The two inequalities above at gap-sited half-integers x in [150, 4000] and
    T = 10^log_T in [1e2, 1e4]."""
    w = gap_window(rp1e4, n + 0.5)
    assert w.found
    params = PerronParams(x=w.center, T=10.0**log_T)
    res = perron_psi(rp1e4, params)
    exact = truncated_perron(rp1e4, params.x, params.T, params.c)
    assert abs(res.value - exact) <= res.budget.quadrature
    assert abs(exact - psi(rp1e4, params.x)) <= res.budget.far_term + res.budget.near_term
