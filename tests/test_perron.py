import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beurling import from_list, gap_window, gaussian_system, perron, power_system, psi, rational_primes
from beurling.counting import prime_power_table
from beurling.errors import DivergenceError, IncompleteSystemError, ParameterError, UnstablePointError
from beurling.perron import PerronParams, ein, perron_convergence_scan, perron_psi


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
    for c in (None, 1.5):  # x = inf is named, not reached through c
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


CLOSED_FORM_CASES = {  # x, T, and perron_psi's value and budget.quadrature, bit for bit
    "T = 1e-300": (150.5, 1e-300, "0x1.0b1ab4de865c7p-988", "0x1.a22228cbd0e65p-34"),
    "T = 100": (150.5, 100.0, "0x1.270e4da2cc9b8p+7", "0x1.6c55fb290318fp-35"),
    "T = 1000": (1000.5, 1e3, "0x1.f2d6aca364120p+9", "0x1.7eaa0d24713d4p-33"),
    "9,700 terms": (400.5, 100.0, "0x1.8f00231e4b528p+8", "0x1.5d70c1029a602p-31"),
    "repeated primes": (150.5, 300.0, "0x1.b4d495301be06p+4", "0x1.f6012392c1118p-42"),
    "power system": (150.5, 300.0, "0x1.2d0b53129287dp+5", "0x1.e7ea68dd4c5e8p-39"),
}


def first_order_perron(system, x, T, c):
    """(T/pi) sum_n Lambda(n) (x/n)^c / c, in mpmath at 30 digits: I_T to relative
    O(T^2), which at T = 1e-300 is exact where the 30-digit closed form cancels."""
    L, W = prime_power_table(system, min(x * x, system.limit))
    with mpmath.workdps(30):
        lx, c = mpmath.log(x), mpmath.mpf(c)
        total = sum(w * mpmath.exp(c * (lx - logn)) / c for logn, w in zip(L.tolist(), W.tolist()))
        return float(mpmath.mpf(T) / mpmath.pi * total)


@pytest.mark.parametrize("case", CLOSED_FORM_CASES)
def test_the_closed_form_is_within_its_rounding_bound_of_I_T(rp1e4, rp1e5, case):
    system = {
        "T = 1e-300": rp1e4,
        "T = 100": rp1e4,
        "T = 1000": rp1e4,
        "9,700 terms": rp1e5,
        "repeated primes": from_list([2.0, 2.0, 3.0, 3.0, 5.0, 7.5], limit=2000),
        "power system": power_system(rp1e4, 1.5),
    }[case]
    x, T, value, quadrature = CLOSED_FORM_CASES[case]
    params = PerronParams(x=x, T=T)
    res = perron_psi(system, params)
    assert (res.value.hex(), res.budget.quadrature.hex()) == (value, quadrature)
    assert res.nodes == len(prime_power_table(system, min(x * x, system.limit))[0])
    if T < 1e-100:
        exact = first_order_perron(system, x, T, params.c)
        assert abs(res.value - exact) <= 1e-15 * exact  # no cancellation as T -> 0
    else:
        exact = truncated_perron(system, x, T, params.c)
    assert abs(res.value - exact) <= res.budget.quadrature


def _traced_peak(system, params):
    perron_psi(system, params)  # the prime-power table and the gap scan's nodes are kept
    tracemalloc.start()
    try:
        perron_psi(system, params)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_peak_follows_the_terms(rp1e4, rp1e5):
    """At the same x and T, 1,280 terms and 9,700 terms each peak under 40 floats a
    term: the closed form holds a few arrays of one entry per prime power, and T
    sets no grid."""
    params = PerronParams(x=1000.5, T=1e4)
    for system in (rp1e4, rp1e5):
        terms = perron_psi(system, params).nodes
        assert _traced_peak(system, params) < 40 * 8 * terms


def test_a_run_the_table_guard_refused_completes(rp1e6):
    """The phase tables' 2 GiB guard refused x = 1000.5, T = 5e4 on the 1e6 rationals
    (2.2 GiB of tables for 78,734 terms); the closed form needs under 40 floats a term."""
    params = PerronParams(x=1000.5, T=5e4)
    peak = _traced_peak(rp1e6, params)
    res = perron_psi(rp1e6, params)
    assert res.nodes == 78734
    assert abs(res.value - psi(rp1e6, 1000.5)) <= res.budget.total
    assert peak < 40 * 8 * res.nodes


@pytest.mark.parametrize("x", [100.5, np.float64(100.5)], ids=["float", "numpy-float"])
def test_overflowing_x_to_the_c_is_refused(x):
    """x^c = inf would make the value, error and budget nan; numpy's ** gives inf
    with a warning where Python's raises, so the check must not rest on it."""
    with pytest.raises(ParameterError, match="x\\^c overflows"):
        PerronParams(x=x, T=10, c=1e300)


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
        ("list:2,3", 3.5, 1e-3),
        ("rationals", 100.5, 0.01),
        ("rationals", 4000.5, 1.3),
        ("rationals", 100.5, 1e14),
        ("rationals", 1000.5, 1e14),
    ],
)
def test_each_budget_term_bounds_its_own_error(rp1e4, system, x, T):
    """The closed form's sum is within budget.quadrature of the exact truncated
    integral, and that integral within the lemma's far + near of psi(x)."""
    system = {
        "rationals": rp1e4,
        "gaussian": gaussian_system(10**4),
        "list:2,3": from_list([2.0, 3.0], limit=100),
    }[system]
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


@pytest.mark.parametrize("T", [425906.34085718304, 1e300], ids=["past the old node cap", "T = 1e300"])
def test_a_height_the_grid_refused_runs_within_its_budget(rp1e4, T):
    """A trapezoid of 2T/step nodes refused these heights at x = 100.5; the closed
    form sums the same 1,280 terms at any T.  At T = 1e300 the lemma's terms are
    about 1e-300, below psi's own rounding, so only the rounding bound is checked
    against I_T there."""
    params = PerronParams(x=100.5, T=T)
    res = perron_psi(rp1e4, params)
    exact = truncated_perron(rp1e4, 100.5, T, params.c)
    assert abs(res.value - exact) <= res.budget.quadrature
    assert abs(res.value - psi(rp1e4, 100.5)) <= res.budget.total
    if T < 1e100:
        assert abs(exact - psi(rp1e4, 100.5)) <= res.budget.far_term + res.budget.near_term


def _ein_40(w):
    """Ein(w) = E1(w) + log w + gamma from mpmath.e1 at 40 digits, where the sum
    loses at most a digit for the |w| >= 1/2 below."""
    with mpmath.workdps(40):
        w = mpmath.mpc(w)
        return complex(mpmath.e1(w) + mpmath.log(w) + mpmath.euler)


def _polar(r, theta):
    return complex(r * math.cos(theta), r * math.sin(theta))


EIN_POINTS = {
    # the series' circle, on it and just either side, all the way round
    "|w| = 4": [_polar(4 * f, k * math.pi / 12) for f in (1 - 1e-12, 1, 1 + 1e-12) for k in range(-11, 13)],
    # the series' 45 degree wedge about the negative real axis, on and either side of its edge
    "45 degrees": [
        _polar(r, sign * (3 * math.pi / 4 + d))
        for r in (4.5, 8, 15, 26)
        for d in (-1e-9, 0, 1e-9)
        for sign in (1, -1)
    ],
    # next to the cut, where the continued fraction would not settle
    "next to the cut": [_polar(r, sign * (math.pi - 1e-12)) for r in (0.5, 2, 4, 8, 15) for sign in (1, -1)],
    # Perron's directions: |Re w| <= 2c log x for x up to 2e5, |Im w| to 1e14 and 1e300
    "large |w|": [
        complex(re, sign * im)
        for re in (-26, -5, -0.01, 0.01, 5, 26)
        for im in (10, 1e4, 1e14, 1e300)
        for sign in (1, -1)
    ],
    "random": list(np.random.default_rng(31).uniform(-30, 30, (40, 2)) @ [1, 1j]),
}


@pytest.mark.parametrize("region", EIN_POINTS)
def test_ein_is_within_its_error_bound_of_mpmath(region):
    """Each element of ein is within the error it reports, the one budget.quadrature
    adds, of mpmath's E1(w) + log w + gamma."""
    w = np.array(EIN_POINTS[region])
    values, errors = ein(w)
    for wk, value, error in zip(w.tolist(), values.tolist(), errors.tolist()):
        assert abs(value - _ein_40(wk)) <= error, wk
        assert error <= 1e-10 * max(1.0, abs(value)), wk


@pytest.mark.parametrize("w", [4.0, 3 + 3j, -6 - 1j], ids=["series", "fraction", "wedge"])
def test_an_element_that_has_not_settled_raises(monkeypatch, w):
    """Under a cap of 5 steps, the series at |w| = 4 (it runs to k >= 2|w|) and the
    fraction at 3 + 3i have not settled: ein raises rather than return them."""
    assert np.isfinite(ein([w])[0]).all()
    monkeypatch.setattr(perron, "MAX_ITERATIONS", 5)
    with pytest.raises(DivergenceError, match="did not settle in 5 steps"):
        ein([1e14j, w])


def test_the_series_past_its_reach_raises_without_a_warning():
    """Past |w| = MAX_ITERATIONS / 2 in the wedge the series cannot settle, and its
    terms overflow first: ein raises, and numpy's overflow warnings stay silent."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError, match="series did not settle in 1000 steps"):
            ein([-576 - 575j])
