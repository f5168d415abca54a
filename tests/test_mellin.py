import cmath
import math
import random

import mpmath as mp
import numpy as np
import pytest

from beurling import rational_primes
from beurling.errors import ParameterError, PoleError, StripError
from beurling.mellin import (
    EXPANSIONS,
    KERNELS,
    QUAD_TARGET,
    AsymptoticExpansion,
    PartitionSpec,
    ResidualSeries,
    check_fe_mellin,
    continue_Gzeta,
    expansion_from_json,
    fe_residual,
    h_transform,
    mellin_G,
    partition_F,
    residual_series_from_json,
    theta_pair,
    verify_expansion,
)
from beurling.zeta import TailedValue, zeta_dirichlet


def eta_zeta_oracle(s: float, n: int = 40) -> float:
    """zeta(s) from the alternating series, Borwein-accelerated (independent)."""
    d = [0] * (n + 1)
    acc = 0
    for i in range(n + 1):
        acc += (
            math.factorial(n + i - 1) * 4**i // (math.factorial(n - i) * math.factorial(2 * i))
            if i > 0
            else math.factorial(n - 1) // math.factorial(n)
        )
    # recompute cleanly: d_k = n * sum_{i<=k} (n+i-1)! 4^i / ((n-i)! (2i)!)
    for k in range(n + 1):
        tot = 0
        for i in range(k + 1):
            tot += math.factorial(n + i - 1) * 4**i // (math.factorial(n - i) * math.factorial(2 * i))
        d[k] = n * tot
    eta = 0.0
    for k in range(n):
        eta += (-1) ** k * (d[k] - d[n]) / (k + 1) ** s
    eta /= -d[n]
    return eta / (1 - 2 ** (1 - s))


def theta_sum_oracle(x: float, nmax: int = 60) -> float:
    return sum(math.exp(-math.pi * n * n * x * x) for n in range(1, nmax + 1))


@pytest.fixture(scope="module")
def naturals():
    return rational_primes(2 * 10**4)


def test_zeta_half_oracle_sanity():
    # the oracle itself, against a second route (eta partial sums, averaged)
    assert abs(eta_zeta_oracle(0.5) - (-1.4603545088095868)) < 1e-10
    assert abs(eta_zeta_oracle(2.0) - math.pi**2 / 6) < 1e-12


def test_partition_exp_closed_form(naturals):
    got = partition_F(naturals, KERNELS["exp"], 1.0)
    assert abs(got.value - 1.0 / (math.e - 1.0)) <= 1e-12
    assert abs(got.value - 0.58198) <= 5e-6


def test_partition_gauss_direct_sum(naturals):
    got = partition_F(naturals, KERNELS["gauss"], 1.0)
    want = theta_sum_oracle(1.0)
    assert abs(got.value - want) <= 1e-14
    # leading term e^{-pi}, then much smaller corrections
    assert abs(got.value - 0.0432139) <= 1e-5


def test_partition_decreases_to_zero(naturals):
    vals = [abs(partition_F(naturals, KERNELS["exp"], x).value) for x in (1, 4, 16, 64)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-20


def test_partition_explicit_cutoff_tail_reported(naturals):
    got = partition_F(naturals, KERNELS["exp"], 0.01, cutoff=100.0)
    # heavy truncation: tail envelope must dominate the missing mass
    missing = sum(math.exp(-n * 0.01) for n in range(101, 20001))
    assert got.tail_bound >= missing * 0.5


def test_mellin_G_gamma_values():
    g = KERNELS["exp"]
    assert abs(mellin_G(g, 2.0).value - 1.0) <= 1e-10
    assert abs(mellin_G(g, 0.5).value - math.sqrt(math.pi)) <= 1e-9
    # complex point: Gamma(2 + i) via mpmath as cross-check
    got = mellin_G(g, complex(2, 1)).value
    assert abs(got - complex(mp.gamma(2 + 1j))) <= 1e-9


def test_mellin_G_gauss_at_one():
    # int_0^inf e^{-pi x^2} dx = 1/2
    got = mellin_G(KERNELS["gauss"], 1.0)
    assert abs(got.value - 0.5) <= 1e-10


def test_mellin_G_strip_error():
    with pytest.raises(StripError):
        mellin_G(KERNELS["exp"], -0.5)


def test_finite_beta_kernel_strip():
    """u / (1 + u)^3 falls like u^-2 (beta = 2), and its transform is the beta
    function, G(s) = Gamma(s + 1) Gamma(2 - s) / 2, even next to the strip's
    right edge, where mpmath's quadrature at 30 digits is 4e-3 off at s = 1.9."""
    from beurling.mellin import Kernel

    heavy = Kernel("heavy", lambda u: u / (1.0 + u) ** 3, alpha=0.0, beta=2.0)
    for s in (1.5, 0.3, 1.9, 1 + 3j):
        with mp.workdps(30):
            truth = complex(mp.gamma(s + 1) * mp.gamma(2 - s) / 2)
        assert abs(mellin_G(heavy, s).value - truth) <= 1e-9, s
    with pytest.raises(StripError):
        mellin_G(heavy, 2.5)


def test_a_kernel_that_overflows_far_out_adds_nothing_there():
    """math.expm1 raises OverflowError past u = 709, where u / (e^u - 1) has long
    vanished: those nodes add nothing, and G(s) = Gamma(s + 1) zeta(s + 1)."""
    from beurling.mellin import Kernel

    kernel = Kernel("x", lambda u: u / math.expm1(u), 0.0, math.inf)
    for s in (1.5, 0.5 + 2j):
        with mp.workdps(30):
            truth = complex(mp.gamma(s + 1) * mp.zeta(s + 1))
        assert abs(mellin_G(kernel, s).value - truth) <= 1e-14, s


def test_a_scalar_kernel_that_overflows_gives_a_finite_partition_function():
    """The same kernel through `partition_F` and `Kernel.tail`, whose exp-sinh rule
    reaches u past expm1's range: those u add 0, and F(0.5) is the sum of u / expm1(u)
    over the g-integers n <= cutoff, u = n / 2, the rationals' n being the integers."""
    from beurling.mellin import Kernel

    def g(u):
        return u / math.expm1(u) if u < 709.0 else 0.0  # expm1 overflows past 709.78

    kernel = Kernel("x", lambda u: u / math.expm1(u), 0.0, math.inf)
    res = partition_F(rational_primes(1000), kernel, 0.5)
    want = math.fsum(g(n * 0.5) for n in range(1, int(res.cutoff) + 1))
    assert res.value.imag == 0.0 and abs(res.value.real - want) <= 1e-15 * want
    assert 0.0 <= res.tail_bound < 1e-15
    with mp.workdps(20):
        tail = float(mp.quad(lambda t: t * 0.5 / mp.expm1(t * 0.5), [4, mp.inf]))
    assert abs(kernel.tail(4.0, 0.5) - tail) <= 1e-9 * tail


def test_mellin_G_over_the_bench_strip_at_30_digits():
    """exp and gauss against Gamma(s) and pi^(-s/2) Gamma(s/2) / 2 on a grid over
    0.2 <= Re s <= 4, |Im s| <= 5, corners included, and at two points where
    mpmath's quadrature was off by 1e-5 and 1.5e-2."""
    grid = [complex(re, im) for re in np.linspace(0.2, 4.0, 8) for im in np.linspace(-5.0, 5.0, 11)]
    with mp.workdps(30):
        for s in grid + [0.672 + 4.790j, 0.3 + 4.9j]:
            z = mp.mpc(s)
            truths = {"exp": mp.gamma(z), "gauss": mp.pi ** (-z / 2) * mp.gamma(z / 2) / 2}
            for name, truth in truths.items():
                assert abs(mellin_G(KERNELS[name], s).value - complex(truth)) <= 1e-14, (name, s)


def test_the_strip_starts_at_the_0_exponent_alpha():
    """g(u) = u^(-1/2) e^-u is O(u^-alpha) at 0+ with alpha = 1/2, so its transform
    Gamma(s - 1/2) converges for Re s > 1/2 only."""
    from beurling.mellin import Kernel

    kernel = Kernel("half", lambda u: np.exp(-u) / np.sqrt(u), alpha=0.5, beta=math.inf)
    with pytest.raises(StripError):
        mellin_G(kernel, 0.3)
    for s in (1.5, 0.75 + 1j):
        with mp.workdps(30):
            truth = complex(mp.gamma(s - 0.5))
        assert abs(mellin_G(kernel, s).value - truth) <= 1e-14, s


def test_partition_x_validation(naturals):
    with pytest.raises(ParameterError):
        partition_F(naturals, KERNELS["exp"], 0.0)


def exp_kernel_samples(naturals, jmax=8):
    # j capped so the partition cutoff stays below the system horizon
    return [
        (2.0**-j, partition_F(naturals, KERNELS["exp"], 2.0**-j).value)
        for j in range(1, jmax + 1)
    ]


def test_verify_expansion_exp_kernel(naturals):
    rep = verify_expansion(exp_kernel_samples(naturals), EXPANSIONS["exp"])
    assert rep.accepted
    # after 1/x - 1/2 + x/12 the remainder behaves like x^3
    assert abs(rep.term_slopes[2] - 3.0) <= 0.35


def test_verify_expansion_rejects_wrong_constant(naturals):
    bad = AsymptoticExpansion(((1.0, (1.0,)), (0.0, (-1.0 / 3.0,))))
    rep = verify_expansion(exp_kernel_samples(naturals), bad)
    assert not rep.accepted


def test_verify_expansion_empty(naturals):
    samples = [
        (2.0**-j, partition_F(naturals, KERNELS["exp"], 2.0**-j).value)
        for j in range(1, 9)
    ]
    rep = verify_expansion(samples, AsymptoticExpansion(()))
    assert not rep.accepted  # F ~ 1/x is unbounded at 0+
    bounded = [(2.0**-j, theta_sum_oracle(2.0**-j) * 0 + 1.0) for j in range(1, 9)]
    assert verify_expansion(bounded, AsymptoticExpansion(())).accepted


def test_continue_Gzeta_basel(naturals):
    got = continue_Gzeta(naturals, KERNELS["exp"], EXPANSIONS["exp"], 2.0)
    assert abs(got.value - math.pi**2 / 6) <= 1e-8


def test_continue_Gzeta_at_half(naturals):
    want = math.gamma(0.5) * eta_zeta_oracle(0.5)
    got = continue_Gzeta(naturals, KERNELS["exp"], EXPANSIONS["exp"], 0.5)
    assert abs(got.value - want) <= 1e-6
    assert abs(want - (-2.58843)) <= 2e-5


def test_continue_Gzeta_pole():
    naturals = rational_primes(10**4)
    with pytest.raises(PoleError) as err:
        continue_Gzeta(naturals, KERNELS["exp"], EXPANSIONS["exp"], 1.0)
    assert err.value.order == 1


def test_continue_strip_identity(naturals):
    # for Re s in (1, beta): continuation == G(s) * Dirichlet zeta within
    # the combined reported tolerances
    for s in [1.5, 2.5, complex(2, 1.5)]:
        lhs = continue_Gzeta(naturals, KERNELS["exp"], EXPANSIONS["exp"], s)
        G = mellin_G(KERNELS["exp"], s)
        z = zeta_dirichlet(naturals, s)
        combined = (
            lhs.tail_bound
            + G.tail_bound * abs(z.value)
            + z.tail_bound * abs(G.value)
            + 1e-9
        )
        assert abs(lhs.value - G.value * z.value) <= combined, s


def test_pole_orders_match_degree():
    exp_with_log = AsymptoticExpansion(((2.0, (1.0, 0.5)), (0.5, (1.0,))))
    with pytest.raises(PoleError) as err:
        _ = continue_Gzeta(rational_primes(100), KERNELS["exp"], exp_with_log, 2.0)
    assert err.value.order == 2
    with pytest.raises(PoleError) as err:
        _ = continue_Gzeta(rational_primes(100), KERNELS["exp"], exp_with_log, 0.5)
    assert err.value.order == 1


def test_h_transform_log_term():
    H = ResidualSeries.from_terms([(1.0, 0.0, 1)])  # (log x)
    h1 = h_transform(H)
    assert abs(h1.evaluate(2.0) - (-0.25)) <= 1e-15
    # quadrature oracle
    got = complex(mp.quad(lambda x: x ** (2.0 - 1) * mp.log(x), [0, 1]))
    assert abs(h1.evaluate(2.0) - got) <= 1e-12


def test_h_transform_power_term():
    H = ResidualSeries.from_terms([(1.0, -1.0, 0)])  # x^{-1}
    h1 = h_transform(H)
    for s in (2.0, 3.5, complex(2, 2)):
        assert abs(h1.evaluate(s) - 1.0 / (s - 1.0)) <= 1e-14


def test_h_transform_empty():
    h1 = h_transform(ResidualSeries.from_terms([]))
    assert h1.evaluate(2.0) == 0


def test_h_transform_quadrature_random():
    random.seed(20)
    for _ in range(15):
        terms = [
            (
                complex(random.uniform(-2, 2), random.uniform(-1, 1)),
                complex(random.uniform(-1.5, 1.5), random.uniform(-1, 1)),
                random.randint(0, 3),
            )
            for _ in range(random.randint(1, 5))
        ]
        H = ResidualSeries.from_terms(terms)
        h1 = h_transform(H)
        h2 = h1.negated()
        # H1 + H2 = 0 exactly at the pole-data level
        assert all(
            (p1, k1) == (p2, k2) and c1 == -c2
            for (p1, k1, c1), (p2, k2, c2) in zip(h1.terms, h2.terms)
        )
        s = complex(3.0 + random.random(), random.uniform(-1, 1))
        quad = complex(
            mp.quad(
                lambda x: mp.mpf(float(x)) ** (mp.mpc(s) - 1)
                * complex(H.evaluate(float(x))),
                [0, 1],
            )
        )
        assert abs(h1.evaluate(s) - quad) <= 1e-8


def test_h_transform_antisymmetry_quadrature():
    # int_1^inf x^{s-1} H dx = -H1(s) on its own half-plane
    H = ResidualSeries.from_terms([(0.7, -2.0, 1), (1.3, -3.0, 0)])
    h1 = h_transform(H)
    for s in (0.5, 1.0, complex(0.8, 1.0)):
        quad = complex(
            mp.quad(
                lambda x: mp.mpf(float(x)) ** (mp.mpc(s) - 1)
                * complex(H.evaluate(float(x))),
                [1, mp.inf],
            )
        )
        assert abs(quad - (-h1.evaluate(s))) <= 1e-8


def test_fe_residual_theta_fixed_point():
    spec1, spec2, H = theta_pair()
    res = fe_residual(spec1, spec2, H, 1.0)
    assert abs(res.value) <= 1e-14
    assert not res.inconclusive


def test_fe_residual_theta_at_two():
    spec1, spec2, H = theta_pair()
    res = fe_residual(spec1, spec2, H, 2.0)
    assert abs(res.value) <= 1e-10
    # both partition values near e^{-4 pi} = 3.487e-6
    f = spec1.F(2.0).value
    assert abs(f - 3.487e-6) <= 2e-9


def test_fe_residual_missing_H():
    spec1, spec2, H = theta_pair()
    res = fe_residual(spec1, spec2, ResidualSeries.from_terms([]), 2.0)
    # the true relation has H(2) = 1/4 - 1/2, so the residual is exactly that
    assert abs(res.value - (-0.25)) <= 1e-9


def test_fe_residual_involution():
    spec1, spec2, H = theta_pair()
    for x in (0.7, 1.3, 2.0):
        rx = fe_residual(spec1, spec2, H, x).value
        rinv = fe_residual(spec1, spec2, H, 1.0 / x).value
        assert abs(x * rx + rinv) <= 1e-10


def test_check_fe_mellin_theta_points():
    spec1, spec2, _ = theta_pair()
    report = check_fe_mellin(spec1, spec2, [2.0, 0.5, complex(1.5, 0.7), -0.75])
    assert report.max_residual <= 1e-8
    assert not report.skipped


def test_check_fe_mellin_skips_poles():
    spec1, spec2, _ = theta_pair()
    report = check_fe_mellin(spec1, spec2, [1.0, 0.0, 2.0])
    skipped_points = [s for s, _ in report.skipped]
    assert 1.0 in skipped_points and 0.0 in skipped_points
    assert len(report.rows) == 1


def test_check_fe_mellin_detects_mismatch():
    spec1, spec2, _ = theta_pair()
    from beurling.mellin import Kernel

    scaled = Kernel(
        "gauss-1.01",
        lambda u: 1.01 * np.exp(-math.pi * u * u),
        0.0,
        math.inf,
        lambda lo, scale: 1.01 * math.erfc(math.sqrt(math.pi) * lo * scale) / (2 * scale),
    )
    exp_scaled = AsymptoticExpansion(((1.0, (0.505,)), (0.0, (-0.505,))), None)
    spec2b = PartitionSpec(spec2.system, scaled, exp_scaled)
    report = check_fe_mellin(spec1, spec2b, [2.0, complex(1.5, 1.0)])
    assert report.max_residual > 1e-3


def test_expansion_validation():
    with pytest.raises(ParameterError):
        AsymptoticExpansion(((1.0, (1.0,)), (2.0, (1.0,))))  # not decreasing
    with pytest.raises(ParameterError):
        AsymptoticExpansion(((1.0, (0.0,)),))  # zero polynomial


def test_expansion_json_round_trip():
    text = '[{"lambda": [1.0, 0.0], "coeffs": [[1.0, 0.0]]}, {"lambda": [0.0, 0.5], "coeffs": [[-0.5, 0.0], [0.25, 0.0]]}]'
    exp = expansion_from_json(text)
    assert exp.terms[0][0] == 1.0
    assert exp.terms[1][0] == complex(0, 0.5)
    assert exp.terms[1][1] == (complex(-0.5), complex(0.25))


def test_residual_series_json_and_merge():
    text = '[{"a": [1.0, 0.0], "mu": [0.0, 0.0], "nu": 1}, {"a": [2.0, 0.0], "mu": [0.0, 0.0], "nu": 1}]'
    H = residual_series_from_json(text)
    assert len(H.terms) == 1
    assert H.terms[0][0] == complex(3.0)


def test_partition_reports_its_cutoff(naturals):
    """The cutoff is doubled from max(2, 2/x) until the tail envelope passes tail_tol,
    and stops at the horizon; an explicit cutoff is kept."""
    exp = KERNELS["exp"]
    assert partition_F(naturals, exp, 1.0).cutoff == 64.0  # e^-32 > 1e-15 >= e^-64
    assert partition_F(naturals, exp, 1e-6).cutoff == naturals.limit
    assert partition_F(naturals, exp, 0.01, cutoff=100.0).cutoff == 100.0


def test_verify_expansion_reason_and_remainder_slope(naturals):
    samples = exp_kernel_samples(naturals)
    rep = verify_expansion(samples, EXPANSIONS["exp"])
    assert rep.reason == "" and rep.remainder_slope == rep.term_slopes[-1]
    bad = verify_expansion(samples, AsymptoticExpansion(((1.0, (1.0,)), (0.0, (-1.0 / 3.0,)))))
    assert bad.remainder_slope == bad.term_slopes[-1] < 0.25
    assert bad.reason == (
        f"after 2 terms the remainder falls like x^{bad.remainder_slope:.3g}, "
        "not faster than the last term x^0"
    )
    empty = verify_expansion(samples, AsymptoticExpansion(()))
    assert empty.reason == "F unbounded at 0+ but expansion empty"
    assert abs(empty.remainder_slope + 1.0) <= 0.1  # F ~ 1/x


def test_custom_kernel_fallbacks_match_the_builtin_exp(naturals):
    """A kernel without a closed-form tail integrates |g| numerically, and one whose
    evaluate takes only scalars (math.exp raises on a longer array, and gives a
    scalar for a one-element one) is applied value by value."""
    from beurling.mellin import Kernel

    exp = KERNELS["exp"]
    quad_tail = Kernel("exp-quad", lambda u: np.exp(-u), 0.0, math.inf)
    for lo, scale in ((2.0, 1.0), (64.0, 0.5), (1000.0, 0.01)):
        assert quad_tail.tail(lo, scale) == pytest.approx(exp.tail(lo, scale), rel=1e-9)
    scalar = Kernel("exp-scalar", lambda u: math.exp(-u), 0.0, math.inf, exp.tail_integral)
    for x, cutoff in ((1.0, None), (0.5, 2.0), (1.0, 1.0)):
        got = partition_F(naturals, scalar, x, cutoff=cutoff)
        want = partition_F(naturals, exp, x, cutoff=cutoff)
        assert got.value == pytest.approx(want.value, rel=1e-14)
        assert (got.tail_bound, got.cutoff) == (want.tail_bound, want.cutoff)


def _partition_bits(r):
    return (complex(r.value).real.hex(), complex(r.value).imag.hex(), float(r.tail_bound).hex(), float(r.cutoff).hex())


@pytest.mark.parametrize("kernel", ["exp", "gauss", "scalar"])
def test_an_array_of_x_is_the_scalar_calls_bit_for_bit(kernel):
    """partition_F on an array of x gives, entry by entry, the value, tail and cutoff
    of the call at that x alone, with the cutoff at the horizon (small x) or below it,
    and for a kernel that only takes scalars (math.exp), applied value by value."""
    from beurling.mellin import Kernel

    exp = KERNELS["exp"]
    if kernel == "scalar":  # value by value costs a Python call a pair: a smaller system
        system, n = rational_primes(2000), 60
        k = Kernel("exp-scalar", lambda u: math.exp(-u), 0.0, math.inf, exp.tail_integral)
    else:
        system, n = rational_primes(2 * 10**4), 400
        k = KERNELS[kernel]
    xs = np.exp(np.random.default_rng(28).uniform(math.log(1e-6), math.log(50.0), n))
    for tail_tol in (1e-13, 1e-15):
        got = partition_F(system, k, xs, tail_tol=tail_tol)
        cutoffs = set()
        for i, x in enumerate(xs.tolist()):
            want = partition_F(system, k, x, tail_tol=tail_tol)
            row = TailedValue(got.value[i], got.tail_bound[i], got.cutoff[i])
            assert _partition_bits(row) == _partition_bits(want), x
            cutoffs.add(want.cutoff == system.limit)
        assert cutoffs == {True, False}


def test_the_blocks_bound_the_memory_of_a_level():
    """With only 1/x - 1/2 given, xmin walks to 9.5e-7, where every cutoff is the horizon;
    in blocks of PAIRS_PER_BLOCK pairs a level holds a few blocks, not nodes x 2e4 pairs.
    Only the memory is pinned: the value is the known defect of an expansion read as
    exact past its last term."""
    import tracemalloc

    system = rational_primes(20000)
    two_terms = expansion_from_json(
        '[{"lambda": [1.0, 0.0], "coeffs": [[1.0, 0.0]]}, {"lambda": [0.0, 0.0], "coeffs": [[-0.5, 0.0]]}]'
    )
    partition_F(system, KERNELS["exp"], 1.0)  # the kept values are not the level's
    tracemalloc.start()
    try:
        got = continue_Gzeta(system, KERNELS["exp"], two_terms, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.cutoff < 1e-6
    assert peak <= 4 * 2**20


def _exp_remainder_integral(s, xmin):
    """int_0^xmin x^{s-1} (1/(e^x - 1) - F_N(x)) dx for the builtin exp expansion F_N,
    whose Laurent series goes on with B_2k x^{2k-1} / (2k)! for k >= 3."""
    z, a = mp.mpc(s), mp.mpf(xmin)
    return mp.nsum(lambda k: mp.bernoulli(2 * k) / mp.factorial(2 * k) * a ** (z + 2 * k - 1) / (z + 2 * k - 1), [3, mp.inf])


@pytest.mark.parametrize("s", [1.5, 2.5, complex(2, 1), complex(1.2, -0.5)])
def test_the_continuation_is_its_integral_at_30_digits(naturals, s):
    """Right of the pole the continuation integrates x^{s-1} (F - [x < 1] F_N) from xmin
    and adds the pole terms, so it is Gamma(s) zeta(s) less the expansion remainder's
    integral over (0, xmin]: the infinite system's, since F_N is.  It holds within the tail."""
    got = continue_Gzeta(naturals, KERNELS["exp"], EXPANSIONS["exp"], s)
    with mp.workdps(30):
        want = mp.gamma(s) * mp.zeta(s) - _exp_remainder_integral(s, got.cutoff)
        assert abs(mp.mpc(got.value) - want) <= got.tail_bound


@pytest.mark.parametrize("s", [2.0, 0.5, complex(1.5, 0.7), -0.75, complex(0.3, 1.0), complex(2.8, -1.9)])
def test_each_theta_side_is_its_closed_form_at_30_digits(s):
    """Both sides of the theta pair's functional equation are pi^{-s/2} Gamma(s/2) zeta(s) / 2,
    at 1 - s and at s, each within QUAD_TARGET."""
    spec1, spec2, _ = theta_pair()
    ((_, side1, side2, _),) = check_fe_mellin(spec1, spec2, [s]).rows
    with mp.workdps(30):
        xi = lambda z: mp.pi ** (-z / 2) * mp.gamma(z / 2) * mp.zeta(z) / 2
        assert abs(mp.mpc(side1) - xi(1 - mp.mpc(s))) <= QUAD_TARGET
        assert abs(mp.mpc(side2) - xi(mp.mpc(s))) <= QUAD_TARGET


def test_the_tail_fallback_on_an_algebraic_kernel_at_30_digits():
    """u / (1 + u)^3 falls like u^-2 (beta = 2), so exp-sinh's upper end is set by where
    the terms vanish, far out; mpmath's quadrature at 30 digits is the reference."""
    from beurling.mellin import Kernel

    heavy = Kernel("heavy", lambda u: u / (1.0 + u) ** 3, alpha=0.0, beta=2.0)
    for lo, scale in ((1.0, 1.0), (64.0, 0.5), (1000.0, 0.01), (20000.0, 1e-6), (2.0, 1e3)):
        with mp.workdps(30):
            want = mp.quad(lambda t: t * scale / (1 + t * scale) ** 3, [lo, mp.inf])
        assert heavy.tail(lo, scale) == pytest.approx(float(want), rel=1e-9), (lo, scale)
