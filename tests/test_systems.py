import copy
import dataclasses
import math
import pickle
import random

import pytest

from beurling import (
    from_file,
    from_list,
    g_integer,
    g_multiply,
    gaussian_system,
    power_system,
    rational_primes,
)
from beurling import systems
from beurling.systems import G_ONE, GInteger
from beurling.errors import (
    EmptySystemError,
    InvalidExponentError,
    InvalidPrimeError,
    ParameterError,
)


def trial_division_primes(limit):
    """Independent oracle: trial division."""
    out = []
    for n in range(2, int(limit) + 1):
        if all(n % d for d in range(2, int(n**0.5) + 1)):
            out.append(n)
    return out


def test_from_list_singleton():
    sys2 = from_list([2.0], limit=100)
    assert sys2.primes == (2.0,)
    assert sys2.limit == 100


def test_from_list_explicit():
    s = from_list([2, 3, 5, 7], limit=10)
    assert s.primes == (2.0, 3.0, 5.0, 7.0)


def test_from_list_rejects_prime_leq_one():
    with pytest.raises(InvalidPrimeError):
        from_list([1.0, 2.0], limit=10)
    with pytest.raises(InvalidPrimeError):
        from_list([0.5], limit=10)


def test_from_list_sorts_instead_of_rejecting():
    s = from_list([5, 2, 3], limit=10)
    assert s.primes == (2.0, 3.0, 5.0)


def test_from_list_duplicates_kept():
    s = from_list([2, 2, 3], limit=10)
    assert s.primes == (2.0, 2.0, 3.0)


def test_limit_below_max_rejected():
    with pytest.raises(ParameterError):
        from_list([2, 3, 50], limit=10)


def test_rational_primes_small():
    assert rational_primes(10).primes == (2.0, 3.0, 5.0, 7.0)
    assert rational_primes(2).primes == (2.0,)


def test_rational_primes_against_trial_division():
    s = rational_primes(30)
    oracle = trial_division_primes(30)
    assert len(s.primes) == 10
    assert s.primes[-1] == 29.0
    assert list(s.primes) == [float(p) for p in oracle]


def test_rational_primes_below_two():
    with pytest.raises(EmptySystemError):
        rational_primes(1.5)


def test_gaussian_system_limit_10():
    # 2, then 5 twice (5 = 1 mod 4), then 3**2 = 9
    assert gaussian_system(10).primes == (2.0, 5.0, 5.0, 9.0)


def test_gaussian_system_limit_25():
    # direct congruence listing: p = 1 mod 4 up to 25 -> 5, 13, 17 (twice each);
    # q = 3 mod 4 with q*q <= 25 -> 3
    assert gaussian_system(25).primes == (2.0, 5.0, 5.0, 9.0, 13.0, 13.0, 17.0, 17.0)


def test_gaussian_system_limit_2():
    assert gaussian_system(2).primes == (2.0,)


def test_gaussian_pi_identity():
    # pi_P(x) = 1 + 2*pi_{1,4}(x) + pi_{3,4}(sqrt(x)), by direct congruence count
    from beurling import count_pi

    s = gaussian_system(500)
    rp = trial_division_primes(500)
    for x in [2, 5, 10, 30, 100, 250, 499]:
        pi14 = sum(1 for p in rp if p <= x and p % 4 == 1)
        pi34 = sum(1 for p in rp if p <= math.isqrt(x) and p % 4 == 3)
        assert count_pi(s, x) == 1 + 2 * pi14 + pi34


def test_power_system_identity_and_square():
    s = from_list([2, 3], limit=10)
    assert power_system(s, 1.0).primes == (2.0, 3.0)
    assert power_system(s, 2.0).primes == (4.0, 9.0)
    assert power_system(from_list([4, 9], limit=10), 0.5).primes == (2.0, 3.0)


def test_power_system_round_trip():
    random.seed(7)
    vals = sorted(1.0 + random.random() * 20 for _ in range(12))
    s = from_list(vals, limit=50)
    for lam in (0.3, 1.7, 2.5):
        back = power_system(power_system(s, lam), 1.0 / lam)
        for a, b in zip(back.primes, s.primes):
            assert abs(a - b) <= 1e-9 * b
        assert abs(back.limit - s.limit) <= 1e-9 * s.limit


def test_power_system_invalid_exponent():
    s = from_list([2, 3], limit=10)
    with pytest.raises(InvalidExponentError):
        power_system(s, 0.0)
    with pytest.raises(InvalidExponentError):
        power_system(s, -1.0)


def test_g_integer_identity_and_log():
    s = from_list([2, 3, 5], limit=100)
    one = g_integer(s, {})
    assert one.is_one and one.log_value == 0.0
    n = g_integer(s, {0: 2, 2: 1})  # 2^2 * 5 = 20
    assert abs(n.value - 20.0) < 1e-12
    assert abs(sum(a * s.log_primes[i] for i, a in n.exponents) - n.log_value) <= 1e-12


def test_g_integer_log_additivity():
    random.seed(11)
    s = from_list(sorted(1.5 + random.random() * 10 for _ in range(6)), limit=1e6)
    for _ in range(50):
        eu = {i: random.randint(0, 3) for i in range(6)}
        ev = {i: random.randint(0, 3) for i in range(6)}
        u, v = g_integer(s, eu), g_integer(s, ev)
        w = g_multiply(s, u, v)
        assert abs(w.log_value - (u.log_value + v.log_value)) <= 1e-12 * max(
            1.0, abs(w.log_value)
        )
        assert abs(sum(a * s.log_primes[i] for i, a in w.exponents) - w.log_value) <= 1e-9


def test_g_integer_compares_hashes_and_prints_as_a_frozen_dataclass():
    g = GInteger(((0, 2), (3, 1)), 1.5)
    assert g == GInteger(((0, 2), (3, 1)), 1.5) == GInteger(exponents=((0, 2), (3, 1)), log_value=1.5)
    assert g != GInteger(((0, 2), (3, 1)), 2.5) and g != GInteger(((0, 3),), 1.5)
    assert g != (g.exponents, g.log_value)
    assert hash(g) == hash((g.exponents, g.log_value))
    assert len({g, GInteger(((0, 2), (3, 1)), 1.5)}) == 1
    assert repr(g) == "GInteger(exponents=((0, 2), (3, 1)), log_value=1.5)"
    assert repr(G_ONE) == "GInteger(exponents=(), log_value=0.0)"


@pytest.mark.parametrize("name", ["exponents", "log_value", "other"])
def test_g_integer_refuses_every_assignment_and_deletion(name):
    g = GInteger(((1, 1),), 0.5)
    with pytest.raises(dataclasses.FrozenInstanceError, match=rf"^cannot assign to field '{name}'$"):
        setattr(g, name, 1)
    with pytest.raises(dataclasses.FrozenInstanceError, match=rf"^cannot delete field '{name}'$"):
        delattr(g, name)
    assert g == GInteger(((1, 1),), 0.5)


def test_g_integer_copies_and_pickles():
    g = GInteger(((0, 2), (3, 1)), 1.5)
    copies = [copy.copy(g), copy.deepcopy(g)]
    copies += [pickle.loads(pickle.dumps(g, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for h in copies:
        assert type(h) is GInteger and h == g
        assert (h.exponents, h.log_value.hex()) == (g.exponents, g.log_value.hex())
    assert pickle.loads(pickle.dumps(G_ONE)) == G_ONE


def test_g_integer_is_a_dataclass():
    g = GInteger(((0, 2), (3, 1)), 1.5)
    assert dataclasses.is_dataclass(g)
    assert [f.name for f in dataclasses.fields(g)] == ["exponents", "log_value"]
    assert dataclasses.asdict(g) == {"exponents": ((0, 2), (3, 1)), "log_value": 1.5}
    h = dataclasses.replace(g, log_value=2.5)
    assert h == GInteger(((0, 2), (3, 1)), 2.5) and g.log_value == 1.5


def test_g_integer_properties():
    assert G_ONE == GInteger((), 0.0)
    assert G_ONE.is_one and not G_ONE.is_prime_power() and G_ONE.value == 1.0
    p = GInteger(((2, 3),), 3 * math.log(5))
    assert not p.is_one and p.is_prime_power() and p.value == math.exp(3 * math.log(5))
    assert not GInteger(((0, 1), (2, 1)), math.log(10)).is_prime_power()


def test_prime_file_round_trip(tmp_path):
    p = tmp_path / "primes.txt"
    p.write_text("# test system\nlimit=50\n2.0\n3.0\n3.0\n7.5\n")
    s = from_file(p)
    assert s.primes == (2.0, 3.0, 3.0, 7.5)
    assert s.limit == 50.0


def test_prime_file_default_limit(tmp_path):
    p = tmp_path / "primes.txt"
    p.write_text("2.0\n5.0\n")
    s = from_file(p)
    assert s.limit == 5.0


@pytest.mark.parametrize(
    "text,line", [("2.0\nabc\n", 2), ("# c\nlimit=xyz\n2.0\n", 2), ("2.0\n3.0 5.0\n", 2)]
)
def test_prime_file_malformed_line_is_a_domain_error(tmp_path, text, line):
    p = tmp_path / "primes.txt"
    p.write_text(text)
    with pytest.raises(ParameterError, match=rf"primes.txt, line {line}: "):
        from_file(p)


def test_prime_file_empty_rejected(tmp_path):
    p = tmp_path / "primes.txt"
    p.write_text("# only comments\n")
    with pytest.raises(EmptySystemError):
        from_file(p)


@pytest.mark.parametrize("make", [rational_primes, gaussian_system])
def test_a_limit_past_the_sieve_cap_is_refused(make):
    """Refused before the mask (a byte per integer) is allocated."""
    for limit in (systems.SIEVE_CAP * 1.001, 1e12, 1e300):
        with pytest.raises(ParameterError, match="must be at most"):
            make(limit)


@pytest.mark.parametrize(
    "values, error",
    [
        ([], EmptySystemError),
        ([0.5, 2.0], InvalidPrimeError),
        ([2.0, math.nan], InvalidPrimeError),
        ([2.0, math.inf], InvalidPrimeError),
    ],
)
def test_from_list_refusals_keep_their_types(values, error):
    with pytest.raises(error):
        from_list(values, limit=10)


def test_prime_file_default_limit_is_the_largest_prime(tmp_path):
    p = tmp_path / "primes.txt"
    p.write_text("5.0\n2.0\n3.0\n")
    s = from_file(p)
    assert s.primes == (2.0, 3.0, 5.0) and s.limit == 5.0
