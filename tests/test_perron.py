import math

import numpy as np
import pytest

from beurling import from_list, gap_window, psi, rational_primes
from beurling.errors import ParameterError, UnstablePointError
from beurling.perron import PerronParams, perron_convergence_scan, perron_psi


def test_single_prime_recovery():
    system = from_list([2.0], limit=200)
    res = perron_psi(system, PerronParams(x=10.0, T=1e3))
    want = 3 * math.log(2)
    assert abs(res.value - want) <= res.budget.total
    assert abs(res.value - want) <= 1e-2
    assert res.imag_residual <= 1e-6


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
        # conjugate symmetry of the integrand keeps the imaginary part at
        # rounding level
        assert res.imag_residual <= 1e-6 * (1 + abs(res.value))


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


def test_threads_do_not_change_result(rp1e4):
    params = PerronParams(x=500.5, T=2e3)
    r1 = perron_psi(rp1e4, params, threads=1)
    r4 = perron_psi(rp1e4, params, threads=4)
    assert r1.value == r4.value
    assert r1.imag_residual == r4.imag_residual


@pytest.mark.parametrize("x", [100.5, np.float64(100.5)], ids=["float", "numpy-float"])
def test_overflowing_x_to_the_c_is_refused(x):
    """x^c = inf would make the value, error and budget nan; numpy's ** gives inf
    with a warning where Python's raises, so the check must not rest on it."""
    with pytest.raises(ParameterError, match="x\\^c overflows"):
        PerronParams(x=x, T=10, c=1e300)


def test_a_grid_past_the_node_cap_is_refused():
    with pytest.raises(ParameterError, match="quadrature nodes"):
        PerronParams(x=100.5, T=1e300)
