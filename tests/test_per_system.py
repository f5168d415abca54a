"""Derived tables cached on the system: prefix identity, lifetime, cache counters.

The partition-sum table is built once per system, up to its horizon; the
prime-power table grows from the first bound asked to twice its log top, up
to the horizon's, as bounds pass it, and so do the walk's nodes.  Every bound
reads a prefix of them; a prime-power prefix must equal the per-bound loop
kept in test_references.py.
"""
import gc
import math
import random
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from beurling import (
    count_N,
    counting_report,
    from_list,
    g_integer_values,
    gaussian_system,
    power_system,
    rational_primes,
)
from beurling import counting, mellin, zeta
from beurling.counting import _prime_powers, prime_power_table
from beurling.mellin import KERNELS, Kernel, partition_F
from beurling.perron import PerronParams, perron_psi
from beurling.systems import log_top
from beurling.zeta import phi_continued, phi_dirichlet, zeta_dirichlet, zeta_euler
from test_references import reference_prime_powers


def _systems():
    rng = random.Random(5)
    out = []
    for _ in range(4):
        k = rng.randint(1, 12)
        primes = [round(1.05 + rng.random() * 20, 4) for _ in range(k)]
        primes += primes[: rng.randint(1, k)]  # repeated primes
        out.append(from_list(primes, limit=rng.choice([300.0, 2000.0])))
    out.append(power_system(rational_primes(400), 1.3))
    out.append(gaussian_system(2000))
    return out


def _bounds(system, rng):
    """Random bounds, g-integer values and points just below them (inside the
    tolerance band, so they count as <= the bound), and the horizon."""
    values = g_integer_values(system, system.limit)
    picks = [float(values[rng.randrange(len(values))]) for _ in range(15)]
    edges = [v * (1 - 1e-13) for v in picks if v > 1]
    return picks + edges + [rng.uniform(1.0, system.limit) for _ in range(15)] + [system.limit]


@pytest.mark.parametrize("system", _systems(), ids=lambda s: s.label)
def test_prime_power_table_is_the_per_bound_loop(system):
    rng = random.Random(11)
    for bound in _bounds(system, rng):
        L, W = prime_power_table(system, bound)
        ref_L, ref_W, ref_cum = reference_prime_powers(system, bound)
        assert np.array_equal(L, ref_L) and np.array_equal(W, ref_W), bound
        assert np.array_equal(_prime_powers(system, bound)[2], ref_cum), bound


def _probe_kernel(seen):
    """A kernel that records the arguments partition_F hands it."""
    def evaluate(u):
        seen.append(np.array(u))
        return np.zeros_like(u)

    return Kernel("probe", evaluate, alpha=0.0, beta=math.inf, tail_integral=lambda lo, scale: 0.0)


@pytest.mark.parametrize("system", _systems(), ids=lambda s: s.label)
def test_partition_slice_is_the_materialised_prefix(system):
    rng = random.Random(13)
    seen = []
    kernel = _probe_kernel(seen)
    for cutoff in _bounds(system, rng):
        partition_F(system, kernel, 1.0, cutoff=cutoff)
        assert np.array_equal(seen[-1], g_integer_values(system, cutoff)), cutoff


def test_infinite_horizon_grows_its_table_by_the_same_rule():
    unbounded = from_list([2, 3], math.inf)
    bounded = from_list([2, 3], 1e4)
    for cutoff in (10.0, 97.5, 1e4):
        assert phi_dirichlet(unbounded, 2 + 3j, cutoff) == phi_dirichlet(bounded, 2 + 3j, cutoff)
    grid = np.linspace(1, 1e4, 200)
    rep_u, rep_b = counting_report(unbounded, grid), counting_report(bounded, grid)
    for field in ("N", "pi", "psi"):
        assert np.array_equal(getattr(rep_u, field), getattr(rep_b, field))
    params = PerronParams(x=50.5, T=100.0)
    assert perron_psi(unbounded, params) == perron_psi(bounded, params)


def test_derived_data_dies_with_the_system():
    system = from_list([2.0, 3.0, 5.0], 1e3)
    phi_continued(system, 0.5 + 2j)
    partition_F(system, KERNELS["exp"], 0.5)
    zeta_euler(system, 2.0)
    ref = weakref.ref(system)
    del system
    gc.collect()
    assert ref() is None


def test_derived_data_is_outside_eq_hash_repr():
    used, fresh = from_list([2.0, 3.0], 100), from_list([2.0, 3.0], 100)
    phi_continued(used, 2.0)
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)


def _count_calls(monkeypatch, module, name, calls):
    fn = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_tables_are_built_once_per_system(monkeypatch):
    """Every bound reads the one table: one build, one materialisation, when the
    first bound is at or above the horizon's square root (500.5**2 > 3000)."""
    builds = _count_calls(monkeypatch, counting, "_build_prime_powers", [])
    materialised = _count_calls(monkeypatch, mellin, "_sorted_logs_leq", [])
    system = rational_primes(3000)
    for bound in (500.5, 10.0, 3000.0):
        prime_power_table(system, bound)
        phi_dirichlet(system, 2.0, bound)
        phi_continued(system, 0.8, bound)
        counting_report(system, [1.0, bound])
    for x in (0.01, 0.3, 2.0):
        partition_F(system, KERNELS["exp"], x)
        partition_F(system, KERNELS["gauss"], x, cutoff=100.0)
    assert len(builds) == len(materialised) == 1


def test_prime_power_table_grows_from_the_bound(monkeypatch):
    """A bound past the table rebuilds it to twice its log top, up to the horizon's,
    not to the horizon."""
    builds = _count_calls(monkeypatch, counting, "_build_prime_powers", [])
    system = from_list([1.001, 2.0], 1e300)
    for bound in (10.0, 50.0, 100.0, 101.0, 1e5, 1e200):
        L, W = prime_power_table(system, bound)
        ref_L, ref_W, _ = reference_prime_powers(system, bound)
        assert np.array_equal(L, ref_L) and np.array_equal(W, ref_W), bound
    tops = [2 * log_top(10.0), 2 * log_top(101.0), 2 * log_top(1e5), log_top(1e300)]
    assert [top for _, top in builds] == tops


def test_cache_info_one_miss_then_hits():
    """bench/tracer.py reads these two counters for its cache hit ratios."""
    system = rational_primes(1000)
    caches = (mellin._cached_values, zeta._psi_profile)
    start = [cache.cache_info() for cache in caches]
    rounds = []
    for _ in range(3):
        partition_F(system, KERNELS["exp"], 0.5)
        phi_continued(system, 2.0)
        rounds.append([(c.cache_info().hits - s.hits, c.cache_info().misses - s.misses)
                       for c, s in zip(caches, start)])
    for before, after in zip(rounds, rounds[1:]):
        for (h0, m0), (h1, m1) in zip(before, after):
            assert m0 == m1 == 1 and h1 > h0


def test_threads_growing_the_nodes_together_answer_as_one_thread(alarm):
    """Threads that walk a new system's nodes together, from bounds in no order,
    each keep what they walked: every answer is the one a lone thread gives."""
    bounds = [10.0, 1e3, 50.0, 4e3, 300.0, 1e4, 2.0, 7e3]

    def answer(system, bound):
        return count_N(system, bound), zeta_dirichlet(system, 2.0, bound).value

    alone = rational_primes(10**4)
    want = [answer(alone, b) for b in bounds] * 6
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            system = rational_primes(10**4)
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(answer, system, b) for b in bounds * 6]
                assert [f.result(timeout=30) for f in futures] == want
    finally:
        sys.setswitchinterval(previous)
