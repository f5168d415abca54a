import math
import sys
import time

import pytest

from beurling import orders

from beurling import from_list, power_system, rational_primes
from beurling.errors import ParameterError, PreconditionError
from beurling.orders import (
    EQ,
    GT,
    LT,
    FunctionOracle,
    ProcessOracle,
    alpha_k,
    cauchy_limit,
    check_axioms,
    f_k,
    induced_oracle,
    orderings_coincide,
    reconstruct,
)


def test_induced_compare_basic():
    o = induced_oracle(from_list([2, 3], limit=100))
    assert o.compare((2, 1), (1, 1)) == GT  # 3 > 2
    assert o.compare((1, 2), (2, 1)) == GT  # 4 > 3
    assert o.compare((1, 1), (2, 1)) == LT


def test_induced_compare_forced_collision():
    o = induced_oracle(from_list([2, 4], limit=100))
    assert o.compare((1, 2), (2, 1)) == EQ  # both equal 4
    assert o.eq_count == 1


def test_induced_compare_index_validation():
    o = induced_oracle(from_list([2, 3], limit=100))
    with pytest.raises(ParameterError):
        o.compare((0, 1), (1, 1))


def test_induced_beyond_horizon():
    from beurling.errors import IncompleteSystemError

    o = induced_oracle(from_list([2, 3], limit=100))
    # p_3 is unknown but > 100 > 2^5, so the order is still decided
    assert o.compare((1, 5), (3, 1)) == LT
    with pytest.raises(IncompleteSystemError):
        o.compare((1, 12), (3, 1))  # 2^12 = 4096 > limit: could flip


def test_check_axioms_induced_all_pass():
    o = induced_oracle(from_list([2, 3], limit=40))
    rep = check_axioms(o, (2, 5))
    assert rep.all_pass
    assert rep.a3_k_witness and rep.a3_l_witness


def test_check_axioms_rationals_window():
    o = induced_oracle(rational_primes(10**4))
    rep = check_axioms(o, (5, 5))
    assert rep.all_pass


def test_check_axioms_lexicographic_undetermined():
    def lex(a, b):
        return -1 if a < b else (0 if a == b else 1)

    rep = check_axioms(FunctionOracle(lex), (4, 4))
    # A1/A2 hold for the lexicographic order; A3(ii) has no witness, and a
    # capped search can only report that as undetermined
    assert rep.a1_ok and rep.a2_ok
    assert rep.a3_ok is None
    assert rep.a3_counterexample[0] == "A3(ii)"
    assert not rep.all_pass


def test_check_axioms_violation_fixture():
    # reverse order in the second coordinate: A1 strictness fails
    def bad(a, b):
        ka, kb = (a[0], -a[1]), (b[0], -b[1])
        return -1 if ka < kb else (0 if ka == kb else 1)

    rep = check_axioms(FunctionOracle(bad), (3, 3))
    assert not rep.a1_ok
    assert rep.a1_counterexample is not None
    a, b, verdict = rep.a1_counterexample
    # re-checkable witness
    assert a[0] <= b[0] and a[1] <= b[1]
    assert verdict == GT or (a[1] < b[1] and verdict != LT)


def test_check_axioms_window_validation():
    o = induced_oracle(from_list([2, 3], limit=100))
    with pytest.raises(ParameterError):
        check_axioms(o, (1, 1))


def test_f_k_hand_computed():
    o = induced_oracle(from_list([2, 3], limit=1000))
    assert f_k(o, 2, 1) == 1  # 2 <= 3 < 4
    assert f_k(o, 2, 2) == 3  # 8 <= 9 < 16
    for n in (1, 2, 5, 17):
        assert f_k(o, 1, n) == n


def test_f_k_brute_force_random_system():
    primes = [2.0, 3.7, 6.1]
    o = induced_oracle(from_list(primes, limit=10**9))
    for k in (2, 3):
        for n in (1, 2, 3, 7, 20):
            # oracle: largest f with p1^f <= pk^n
            want = math.floor(n * math.log(primes[k - 1]) / math.log(2.0) * (1 + 1e-15))
            assert f_k(o, k, n) == want


def test_alpha_k_interval_contains_truth():
    o = induced_oracle(from_list([2, 3], limit=10**9))
    est = alpha_k(o, 2, 100)
    truth = math.log(3) / math.log(2)
    assert est.f == 158
    assert est.low <= truth <= est.high
    assert est.high - est.low == pytest.approx(1.0 / 100)


def test_alpha_k_trivial_cases():
    o = induced_oracle(from_list([2, 3], limit=10**6))
    a1 = alpha_k(o, 1, 50)
    assert a1.value == 1.0 and a1.radius == 0.0
    o24 = induced_oracle(from_list([2, 4], limit=10**9))
    est = alpha_k(o24, 2, 1000)
    assert est.f == 2000  # exact power relation, f_2(n) = 2n
    assert est.low <= 2.0 <= est.high


def test_alpha_monotone_in_k():
    o = induced_oracle(rational_primes(10**6))
    vals = [alpha_k(o, k, 500).value for k in range(1, 9)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_f_k_sandwich_property():
    o = induced_oracle(rational_primes(10**6))
    for k, n, m in [(2, 10, 3), (3, 7, 5), (4, 12, 2)]:
        fn = f_k(o, k, n)
        fmn = f_k(o, k, m * n)
        assert fn / n - 1.0 / (m * n) < fmn / (m * n) < fn / n + 1.0 / n


def test_certified_enclosure_exhaustive():
    primes = rational_primes(100)
    o = induced_oracle(from_list(list(primes.primes), limit=10**30))
    for k in range(1, primes.nprimes + 1):
        for n in (10, 57, 200):
            est = alpha_k(o, k, n)
            truth = math.log(primes.primes[k - 1]) / math.log(2.0)
            assert est.low - 1e-12 <= truth <= est.high + 1e-12


def test_reconstruct_round_trip_base_match():
    source = from_list([2, 3, 5], limit=10**9)
    o = induced_oracle(source)
    rec = reconstruct(o, 2.0, 3, 10**4)
    for got, want in zip(rec.system.primes, source.primes):
        assert abs(got / want - 1) <= 1e-4


def test_reconstruct_with_squared_base():
    source = from_list([2, 3, 5], limit=10**9)
    rec = reconstruct(induced_oracle(source), 4.0, 3, 10**4)
    squared = power_system(source, 2.0)
    for got, want in zip(rec.system.primes, squared.primes):
        assert abs(got / want - 1) <= 3e-4


def test_reconstruct_alpha_certificates():
    source = from_list([2, 3, 5], limit=10**9)
    rec = reconstruct(induced_oracle(source), 2.0, 3, 1000)
    for k, interval in enumerate(rec.alpha, start=1):
        truth = math.log(source.primes[k - 1]) / math.log(2.0)
        assert interval.low <= truth <= interval.high
        assert interval.radius <= 1.0 / 1000


def test_reconstruct_enclosures_hold_the_true_primes():
    source = rational_primes(72)  # 2 .. 71
    rec = reconstruct(induced_oracle(source), 2.0, 20, 10**4)
    assert len(rec.enclosures) == 20
    for (low, high), p, a in zip(rec.enclosures, source.primes, rec.alpha):
        assert low <= p <= high
        assert low <= 2.0**a.value <= high
    with pytest.raises(AttributeError):
        rec.enclosures = ()


def test_reconstruct_roundtrip_ordering():
    source = from_list([2, 3, 5], limit=2**40)
    rec = reconstruct(induced_oracle(source), 2.0, 3, 10**4)
    radii = [a.radius for a in rec.alpha]
    res = orderings_coincide(source, rec.system, 2000, certified_radii=radii)
    assert res.coincide
    assert res.scaling_verified


def test_orderings_coincide_identity_and_power():
    s = from_list([2, 3, 5], limit=2**40)
    res = orderings_coincide(s, s, 500)
    assert res.coincide and res.lam == 1.0 and res.scaling_verified
    p17 = power_system(s, 1.7)
    res = orderings_coincide(s, p17, 500)
    assert res.coincide
    assert abs(res.lam - 1.0 / 1.7) <= 1e-12
    assert res.scaling_verified


def test_orderings_differ_with_witness():
    s1 = from_list([2, 3], limit=2**64)
    s2 = from_list([2, 3.0001], limit=2**64)
    res = orderings_coincide(s1, s2, 10**4)
    assert not res.coincide
    assert res.witness is not None
    (k, n), boundary, f1, f2 = res.witness
    # the witness really is discordant: re-check with raw logs
    v1 = n * math.log(s1.primes[k - 1])
    w1 = boundary[1] * math.log(2.0)
    v2 = n * math.log(s2.primes[k - 1])
    assert (v1 < w1) != (v2 < w1)


def test_cauchy_limit_floor_sqrt2():
    f = lambda n: math.floor(n * math.sqrt(2))
    for n in (100, 1000):
        est = cauchy_limit(f, n)
        assert abs(est.value - math.sqrt(2)) <= est.radius
        assert est.radius == 1.0 / n


def test_cauchy_limit_linear_exact():
    est = cauchy_limit(lambda n: 3 * n, 7)
    assert est.value == 3.0


def test_cauchy_limit_rejects_quadratic():
    with pytest.raises(PreconditionError) as err:
        cauchy_limit(lambda n: n * n, 100)
    assert err.value.witness is not None


def test_parameter_validation():
    s = from_list([2, 3], limit=100)
    with pytest.raises(ParameterError):
        reconstruct(induced_oracle(s), 1.0, 2, 10)  # base must exceed 1
    with pytest.raises(ParameterError):
        orderings_coincide(s, s, 0)
    with pytest.raises(ParameterError):
        f_k(induced_oracle(s), 0, 1)


ORACLE_SCRIPT = r"""
import math, sys
logs = [math.log(2), math.log(3)]
for line in sys.stdin:
    m, n, m2, n2 = map(int, line.split())
    a = n * logs[m - 1]
    b = n2 * logs[m2 - 1]
    if abs(a - b) <= 1e-12:
        print("=", flush=True)
    elif a < b:
        print("<", flush=True)
    else:
        print(">", flush=True)
"""


def test_process_oracle_round_trip(tmp_path):
    script = tmp_path / "oracle.py"
    script.write_text(ORACLE_SCRIPT)
    with ProcessOracle(f"{sys.executable} {script}") as oracle:
        assert oracle.compare((2, 1), (1, 1)) == GT
        assert oracle.compare((1, 2), (2, 1)) == GT
        assert f_k(oracle, 2, 2) == 3
        est = alpha_k(oracle, 2, 200)
        assert est.low <= math.log(3) / math.log(2) <= est.high


@pytest.mark.parametrize(
    "script",
    [
        pytest.param("import sys\nfor line in sys.stdin:\n    pass\n", id="silent"),
        pytest.param("", id="exits-at-once"),
    ],
)
def test_process_oracle_fails_fast(script, tmp_path, monkeypatch):
    monkeypatch.setattr(orders, "REPLY_TIMEOUT_S", 0.2)
    path = tmp_path / "oracle.py"
    path.write_text(script)
    start = time.monotonic()
    with pytest.raises(ParameterError):
        with ProcessOracle(f"{sys.executable} {path}") as oracle:
            oracle.compare((1, 1), (2, 1))
    assert time.monotonic() - start < 1.0
    assert oracle._proc.poll() is not None  # reaped, not left running


@pytest.mark.parametrize("cmd", ["", "   "])
def test_process_oracle_empty_command(cmd):
    with pytest.raises(ParameterError):
        ProcessOracle(cmd)
