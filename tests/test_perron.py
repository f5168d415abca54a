import math
import tracemalloc
from dataclasses import astuple

import mpmath
import numpy as np
import pytest

from beurling import from_list, gap_window, gaussian_system, power_system, psi, rational_primes
from beurling.counting import PIECE, prime_power_table
from beurling.errors import IncompleteSystemError, ParameterError, UnstablePointError
from beurling.perron import (
    PerronParams,
    _half_grid,
    _phi_on_line,
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


def _hex(value):
    if isinstance(value, tuple):
        return tuple(_hex(v) for v in value)
    return value.hex() if isinstance(value, float) else value


def test_threads_do_not_change_result(rp1e4):
    params = PerronParams(x=500.5, T=2e3)
    one = _hex(astuple(perron_psi(rp1e4, params, threads=1)))
    for threads in (2, 4):
        assert _hex(astuple(perron_psi(rp1e4, params, threads=threads))) == one, threads


def _line_inputs(system, x, T):
    """perron_psi's L, wc and half grid t, and the K of its phase-factorised product."""
    params = PerronParams(x=x, T=T)
    L, W = prime_power_table(system, min(x * x, system.limit))
    wc = (W * np.exp(-params.c * L)).astype(complex)
    t = _half_grid(T, params.step)
    return L, wc, t, min(4096, max(64, int(math.sqrt(len(t)))))


@pytest.mark.parametrize("x, T", [(150.5, 1.0), (1000.5, 1e3), (1000.5, 1e4), (2500.5, 1e4)])
def test_the_half_grid_steps_by_T_over_m_exactly(rp1e4, x, T):
    """The factorised product steps by t[1]: on the half grid that is linspace's own
    step T/m, so the product's nodes do not drift from the grid's."""
    params = PerronParams(x=x, T=T)
    t = _half_grid(T, params.step)
    m = len(t) - 1
    assert m % 2 == 0 and m >= T / params.step
    assert t[0] == 0.0 and t[-1] == T and t[::2][-1] == T
    assert t[1] - t[0] == T / m
    assert perron_psi(rp1e4, params).nodes == m + 1


def _whole_table_line(L, wc, t, K):
    """_phi_on_line as whole-table expressions: each phase table at once, one product."""
    h = t[1]
    rows = (len(t) + K - 1) // K
    B = np.exp(-1j * np.outer(np.arange(K) * h, L))
    A = np.exp(-1j * np.outer(np.arange(rows) * (K * h), L)) * wc
    return (A @ B.T).ravel()[: len(t)]


@pytest.mark.parametrize("threads", [1, 2, 4])
@pytest.mark.parametrize(
    "case, x, T",
    [
        ("one row", 150.5, 1.0),  # a one-row product, which numpy sends through gemv
        ("K = 64", 150.5, 100.0),
        ("6 rows per block", 400.5, 100.0),  # 9,700 terms: PIECE // 9700 = 6
        ("repeated primes", 150.5, 300.0),
        ("power system", 150.5, 300.0),
    ],
)
def test_phase_tables_built_in_place_are_the_whole_tables(rp1e4, rp1e5, case, x, T, threads):
    system = {
        "one row": rp1e4,
        "K = 64": rp1e4,
        "6 rows per block": rp1e5,
        "repeated primes": from_list([2.0, 2.0, 3.0, 3.0, 5.0, 7.5], limit=2000),
        "power system": power_system(rp1e4, 1.5),
    }[case]
    L, wc, t, K = _line_inputs(system, x, T)
    if case == "one row":
        assert len(t) <= K
    if case == "6 rows per block":
        assert PIECE // len(L) == 6
    want = _whole_table_line(L, wc, t, K)
    got = _phi_on_line(L, wc, t, threads=threads)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_the_phase_tables_are_the_peak(rp1e5):
    """Two K x terms phase tables, the output and one block: no table-sized temporaries."""
    params = PerronParams(x=1000.5, T=1e3)
    L, _, _, K = _line_inputs(rp1e5, params.x, params.T)
    perron_psi(rp1e5, params)  # the prime-power table and the gap scan's nodes are kept
    tracemalloc.start()
    try:
        perron_psi(rp1e5, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * K * len(L) * 16


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


def test_phase_tables_past_the_limit_are_refused_before_they_exist(rp1e4, monkeypatch):
    import beurling.perron as perron

    def built(*args):
        raise AssertionError("a phase table was built")

    monkeypatch.setattr(perron, "_phases", built)
    monkeypatch.setattr(perron, "MAX_TABLE_BYTES", 2**20)
    with pytest.raises(ParameterError, match=r"^x = 500\.5 and T = 1000\.0 need \d+\.\d\d GiB of phase tables"):
        perron_psi(rp1e4, PerronParams(x=500.5, T=1e3))


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
