import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from beurling import from_list, gaussian_system, rational_primes
from beurling.errors import DivergenceError, FitError, ParameterError, PoleError
from beurling.zeta import (
    classify_ab,
    estimate_order,
    phi_continued,
    phi_dirichlet,
    zeta_dirichlet,
    zeta_euler,
    zeta_mellin_identity_check,
)


def riemann_zeta_oracle(s, terms=200_000):
    """Partial sum plus Euler-Maclaurin tail: independent of the library."""
    n = np.arange(1, terms + 1)
    head = np.sum(n ** (-float(s)))
    m = float(terms)
    return head + m ** (1 - s) / (s - 1) - 0.5 * m ** (-s) + s / 12 * m ** (-s - 1)


def von_mangoldt_sum_oracle(s, cutoff):
    """Brute force sum of Lambda(n)/n^s over rational prime powers <= cutoff."""
    sieve = np.ones(cutoff + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(cutoff**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    total = 0.0
    for p in np.nonzero(sieve)[0]:
        pk = p
        while pk <= cutoff:
            total += math.log(p) / pk**s
            pk *= p
    return total


def test_zeta_euler_single_prime_closed_form():
    s = from_list([2.0], limit=100)
    got = zeta_euler(s, 2.0)
    assert abs(got.value - 4.0 / 3.0) <= 1e-14


def test_zeta_euler_basel(rp1e6):
    got = zeta_euler(rp1e6, 2.0)
    assert abs(got.value - math.pi**2 / 6) <= got.tail_bound
    assert got.tail_bound < 1e-4


def test_zeta_euler_apery(rp1e6):
    oracle = riemann_zeta_oracle(3.0)
    got = zeta_euler(rp1e6, 3.0)
    assert abs(got.value - oracle) <= got.tail_bound
    assert abs(got.value - 1.2020569) <= 1e-6


def test_zeta_euler_divergence_error():
    s = from_list([2.0], limit=100)
    with pytest.raises(DivergenceError):
        zeta_euler(s, 1.0)
    with pytest.raises(DivergenceError):
        zeta_euler(s, complex(0.5, 3.0))


def test_zeta_dirichlet_single_prime_geometric():
    s = from_list([2.0], limit=2**11)
    got = zeta_dirichlet(s, 2.0, integer_cutoff=2**10)
    # sum over powers of 4 up to (2^10)^2... oracle: geometric series
    want = sum(4.0**-k for k in range(11))
    assert abs(got.value - want) <= 1e-14
    assert abs(got.value - 4.0 / 3.0) <= got.tail_bound + 1e-6


def test_zeta_dirichlet_cross_check_euler(rp1e4):
    for s in [2.0, 3.0, complex(2, 10)]:
        d = zeta_dirichlet(rp1e4, s, 10**4)
        e = zeta_euler(rp1e4, s)
        assert abs(d.value - e.value) <= d.tail_bound + e.tail_bound


def test_zeta_dirichlet_basel_partial(rp1e6):
    got = zeta_dirichlet(rp1e6, 2.0, 10**6)
    assert abs(got.value - math.pi**2 / 6) <= got.tail_bound * 1.01
    assert abs(got.value - math.pi**2 / 6) <= 1e-4


def hurwitz_zeta_em(s, a):
    """zeta(s, a) by Euler-Maclaurin at mpmath's precision, for a far above |s|:
    a^(1-s)/(s-1) + a^-s/2 + sum_{k <= 8} B_2k/(2k)! s(s+1)...(s+2k-2) a^(1-s-2k)."""
    total = a ** (1 - s) / (s - 1) + a**-s / 2
    rising = s
    for k in range(1, 9):
        total += mp.bernoulli(2 * k) / mp.factorial(2 * k) * rising * a ** (1 - s - 2 * k)
        rising *= (s + 2 * k - 1) * (s + 2 * k)
    return total


def test_zeta_dirichlet_is_accurate_on_the_rationals(rp1e6):
    """Against sum_{n <= X} n^{-s} = zeta(s) - zeta(s, floor(X) + 1) at 30 digits.  The
    Hurwitz tail is taken by Euler-Maclaurin, checked against mpmath's own at
    a = 31623; mpmath's takes about 0.6 s a call at a = 1e6 + 1.  The largest
    error measured is 9.8e-14, at s = 3 + 4i and X = 1e6."""
    points = [2.0, 1.5 + 14.134725j, 3.0 - 1000.0j, 1.0001 + 0.5j, 4.0 + 1e-300j, 1.1 + 20j, 1.5 + 3j, 3 + 4j]
    with mp.workdps(30):
        for s in points:
            z = mp.mpc(s.real, s.imag)
            assert abs(hurwitz_zeta_em(z, mp.mpf(31623)) - mp.zeta(z, 31623)) <= mp.mpf(10) ** -28
            for X in (1e6, 31622.5):
                truth = mp.zeta(z) - hurwitz_zeta_em(z, mp.mpf(math.floor(X) + 1))
                got = zeta_dirichlet(rp1e6, s, X).value
                assert abs(mp.mpc(got.real, got.imag) - truth) <= 1e-12, (s, X)


def test_zeta_dirichlet_gaussian_lattice_oracle():
    s = gaussian_system(3000)
    xmax = 3000
    r = np.zeros(xmax + 1)
    amax = int(math.isqrt(xmax))
    for a in range(-amax, amax + 1):
        for b in range(-amax, amax + 1):
            n = a * a + b * b
            if 1 <= n <= xmax:
                r[n] += 1
    ns = np.arange(1, xmax + 1, dtype=float)
    oracle = np.sum(r[1:] / ns**2) / 4
    got = zeta_dirichlet(s, 2.0, xmax)
    assert abs(got.value - oracle) <= 1e-9


def test_euler_dirichlet_agreement_grid(rp1e4):
    small = from_list([2, 3, 5.5], limit=10**4)
    for system in (small, rp1e4):
        for sr in [1.5, 2.0, 3.0]:
            for si in [-10, -2, 0, 1, 10]:
                s = complex(sr, si)
                d = zeta_dirichlet(system, s)
                e = zeta_euler(system, s)
                assert abs(d.value - e.value) <= d.tail_bound + e.tail_bound + 1e-12


def test_conjugate_symmetry(rp1e4):
    for s in [complex(2, 3), complex(1.5, -7), complex(3, 11)]:
        for fn in (zeta_euler, zeta_dirichlet, phi_dirichlet, phi_continued):
            a = fn(rp1e4, s).value
            b = fn(rp1e4, s.conjugate()).value
            assert abs(b - a.conjugate()) <= 1e-12 * max(1.0, abs(a))


def test_log_derivative_consistency():
    system = from_list([2, 3, 5], limit=10**4)
    h = 1e-4
    lz = lambda s: cmath.log(zeta_euler(system, s).value)
    numeric = -(lz(2 + h) - lz(2 - h)) / (2 * h)
    phi = phi_dirichlet(system, 2.0)
    assert abs(numeric - phi.value) <= 1e-4


def test_phi_dirichlet_single_prime_closed_form():
    s = from_list([2.0], limit=10**6)
    got = phi_dirichlet(s, 2.0)
    want = math.log(2) * 0.25 / 0.75
    assert abs(got.value - want) <= 1e-10
    assert abs(want - (math.log(2) / 3)) <= 1e-15


def test_phi_dirichlet_rationals_brute_force(rp1e4):
    oracle = von_mangoldt_sum_oracle(2.0, 10**4)
    got = phi_dirichlet(rp1e4, 2.0, 10**4)
    assert abs(got.value - oracle) <= 1e-10
    assert abs(got.value - 0.5696) <= 5e-4


def test_phi_decreases_to_zero():
    system = from_list([2, 3, 7.5], limit=10**4)
    vals = [abs(phi_dirichlet(system, sigma).value) for sigma in (2, 4, 8, 16, 32)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-8


def test_phi_continued_matches_dirichlet_on_overlap():
    s = from_list([2.0], limit=10**7)
    got = phi_continued(s, 2.0)
    want = math.log(2) / 3
    assert abs(got.value - want) <= 1e-6
    assert abs(got.value - want) <= got.tail_bound


def test_phi_continued_pole_error():
    s = from_list([2.0], limit=100)
    with pytest.raises(PoleError):
        phi_continued(s, 1.0)


def test_phi_continued_residue_property(rp1e5):
    two_prime = from_list([2, 3], limit=10**4)
    for system in (rp1e5, two_prime):
        for eps in (1e-3, -1e-3):
            s = 1 + eps
            val = phi_continued(system, s).value
            assert abs((s - 1) * val - 1) <= 1e-2, (system.label, eps)


def test_phi_continued_untrusted_region_warning():
    two_prime = from_list([2, 3], limit=10**4)
    res = phi_continued(two_prime, 0.5)
    assert res.warnings  # sigma below the fitted remainder exponent (~1)


def test_phi_continued_left_of_one(rp1e5):
    # finite value left of the pole, inside the trusted region
    res = phi_continued(rp1e5, 0.9)
    assert not res.warnings
    assert math.isfinite(res.value.real) and math.isfinite(res.tail_bound)


def test_mellin_identity_single_prime():
    s = from_list([2.0], limit=2**11)
    assert zeta_mellin_identity_check(s, 2.0, 2.0**10) <= 1e-6


def test_mellin_identity_rationals(rp1e4):
    assert zeta_mellin_identity_check(rp1e4, 3.0, 10**4) <= 1e-6
    assert zeta_mellin_identity_check(rp1e4, complex(2, 5), 10**3) <= 1e-6


def test_mellin_identity_degenerate_xmax():
    # at x_max = 1 both routes see only the g-integer 1; exact agreement
    s = from_list([2.0], limit=100)
    assert zeta_mellin_identity_check(s, 2.0, 1.0) <= 1e-12


def test_estimate_order_bounded_cases(rp1e4):
    t_grid = np.linspace(2, 40, 14)
    single = from_list([2.0], limit=10**4)
    fit = estimate_order(single, 2.0, t_grid)
    assert abs(fit.mu_hat) <= 0.05
    fit = estimate_order(rp1e4, 2.0, t_grid)
    assert abs(fit.mu_hat) <= 0.05
    # |zeta(2+it)| stays inside [zeta(4)/zeta(2), zeta(2)]
    hi = math.log(math.pi**2 / 6) + 1e-6
    lo = math.log((math.pi**4 / 90) / (math.pi**2 / 6)) - 1e-6
    assert all(lo <= v <= hi for v in fit.log_abs_zeta)


def test_estimate_order_needs_ten_points():
    s = from_list([2.0], limit=100)
    with pytest.raises(FitError):
        estimate_order(s, 2.0, [1, 2, 3])


def test_classify_ab_rationals(rp1e5):
    grid = np.geomspace(100, 10**5, 40)
    est = classify_ab(rp1e5, grid)
    assert abs(est.rho_hat - 1.0) <= 1e-3
    assert not est.beta_degenerate
    assert est.beta_hat <= 0.15  # N(x) - x bounded by 1


def test_classify_ab_gaussian():
    g = gaussian_system(10**4)
    est = classify_ab(g, np.geomspace(100, 10**4, 40))
    assert abs(est.rho_hat - math.pi / 4) <= 0.01


def test_classify_ab_single_prime_degenerate():
    s = from_list([2.0], limit=10**4)
    est = classify_ab(s, np.geomspace(100, 10**4, 30))
    assert est.beta_degenerate
    assert math.isnan(est.beta_hat)
    assert est.rho_hat <= 0.01


def test_classify_ab_grid_validation(rp1e4):
    with pytest.raises(ParameterError):
        classify_ab(rp1e4, [100, 200, 300, 400])


def test_power_transform_rescales_zeta_argument():
    # primes p -> p^lam turns n^{-s} into n^{-lam*s}: zeta_{P^lam}(s) = zeta_P(lam*s)
    from beurling import power_system

    base = from_list([2, 3, 5.5], limit=10**4)
    for lam in (0.5, 2.0):
        scaled = power_system(base, lam)
        for s in (3.0, complex(2.5, 1.0)):
            a = zeta_dirichlet(scaled, s, scaled.limit).value
            b = zeta_dirichlet(base, lam * s, base.limit).value
            assert abs(a - b) <= 1e-10 * max(1.0, abs(b))


def test_power_transform_counting_invariance(rp1e4):
    # the semigroup order is preserved: N_{P^lam}(x^lam) = N_P(x), and psi
    # scales linearly in the log domain
    from beurling import count_N, power_system, psi

    scaled = power_system(rational_primes(100), 1.7)
    base = rational_primes(100)
    for x in (2.5, 10.0, 57.3, 99.0):
        assert count_N(scaled, x**1.7) == count_N(base, x)
        assert abs(psi(scaled, x**1.7) - 1.7 * psi(base, x)) <= 1e-9


def test_classify_ab_reports_the_psi_exponent(rp1e5):
    """alpha_hat is the log-slope of |psi(x) - x| and theta_hat the larger of the two
    exponents that are not degenerate."""
    est = classify_ab(rp1e5, np.geomspace(100, 10**5, 40))
    assert not est.alpha_degenerate
    assert 0.0 < est.alpha_hat < 1.0
    assert est.theta_hat == max(est.alpha_hat, est.beta_hat)
    single = classify_ab(from_list([2.0], limit=10**4), np.geomspace(100, 10**4, 30))
    assert not single.alpha_degenerate
    assert abs(single.alpha_hat - 1.0) <= 0.05  # psi stays O(log x), so |psi - x| ~ x
    assert single.theta_hat == single.alpha_hat  # beta is degenerate there


def test_estimate_order_fit_parts(rp1e4):
    t_grid = np.linspace(2, 40, 14)
    fit = estimate_order(rp1e4, 2.0, t_grid)
    xs = np.log(t_grid)
    assert len(fit.residuals) == len(t_grid)
    for x, y, r in zip(xs, fit.log_abs_zeta, fit.residuals):
        assert r == pytest.approx(y - (fit.mu_hat * x + fit.intercept), abs=1e-12)
    assert abs(sum(fit.residuals)) <= 1e-9  # least squares with an intercept


def test_estimate_order_left_of_one():
    """Left of 1, log |zeta(sigma + it)| is log |zeta(2 + it)| plus the integral of
    Re phi(y + it) over y in [sigma, 2], taken by a 24-point Gauss rule; mpmath's
    quadrature of the same integrand checks it."""
    import mpmath as mp

    system = from_list([2.0, 3.0, 5.0], limit=10**3)
    sigma, t_grid = 0.8, np.linspace(3, 12, 10)
    fit = estimate_order(system, sigma, t_grid)
    for t, got in zip(t_grid, fit.log_abs_zeta):
        base = math.log(abs(zeta_euler(system, complex(2.0, t)).value))
        integral = mp.quad(lambda y: phi_continued(system, complex(float(y), t)).value.real, [sigma, 2.0])
        assert got == pytest.approx(base + float(integral), rel=1e-9, abs=1e-9)
