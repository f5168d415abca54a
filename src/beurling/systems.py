"""Generalised prime systems and g-integers.

A system is a finite nondecreasing multiset of reals > 1 together with a
truncation horizon `limit`: the system is asserted complete below that
horizon, so any query at x <= limit sees every prime it needs.  Multiplicity
is represented by repetition in the prime sequence.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    EmptySystemError,
    InvalidExponentError,
    InvalidPrimeError,
    ParameterError,
)

# Two log-values closer than this are treated as numerically tied; tied
# g-integers are ordered lexicographically by exponent vector.
LOG_TIE_TOL = 1e-12


def log_tolerance(x: float) -> float:
    """Comparison tolerance against a query point x, in the log domain."""
    return LOG_TIE_TOL * max(1.0, math.log(x)) if x > 0 else LOG_TIE_TOL


def per_system(build):
    """Cache `build(system, *args)` in the system's `_derived` dict, which dies with it.

    `cache_info()` counts hits and misses over all systems.  Two threads that
    miss together both build; the value stored first is kept.
    """
    info = SimpleNamespace(hits=0, misses=0)

    @functools.wraps(build)
    def cached(system, *args):
        key = (build, *args)
        if key in system._derived:
            info.hits += 1
            return system._derived[key]
        info.misses += 1
        return system._derived.setdefault(key, build(system, *args))

    cached.cache_info = lambda: SimpleNamespace(**vars(info))
    return cached


@dataclass(frozen=True)
class GPrimeSystem:
    """A truncated g-prime system.

    primes: nondecreasing, each > 1, repetition encodes multiplicity.
    limit:  largest value up to which the listed primes are complete.
    label:  free-text provenance.
    """

    primes: tuple[float, ...]
    limit: float
    label: str = ""
    _logs: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _derived: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        if not self.primes:
            raise EmptySystemError("a g-prime system needs at least one prime")
        primes = np.array(self.primes)
        numeric = primes.dtype.kind in "fi"
        valid = numeric and np.isfinite(primes).all() and primes[0] > 1.0
        if not (valid and (primes[1:] >= primes[:-1]).all()):
            # find the first offending entry, for its message; entries of other
            # types (a Fraction, say) are checked here and may all pass
            prev = 1.0
            for p in self.primes:
                if not (p > 1.0) or not math.isfinite(p):
                    raise InvalidPrimeError(f"g-prime {p!r} is not a real > 1")
                if p < prev:
                    raise InvalidPrimeError("primes must be nondecreasing")
                prev = p
        if not (self.limit >= self.primes[-1]):
            raise ParameterError(
                f"limit {self.limit} is below the largest prime {self.primes[-1]}"
            )
        logs = np.log(primes if numeric else np.asarray(self.primes, dtype=float), dtype=float)
        logs.flags.writeable = False
        object.__setattr__(self, "_logs", logs)

    @property
    def nprimes(self) -> int:
        return len(self.primes)

    @property
    def log_primes(self) -> np.ndarray:
        """Natural logs of the primes, same order as `primes`. Read-only."""
        return self._logs


@dataclass(frozen=True)
class GInteger:
    """A g-integer: exponent vector over prime indices plus cached log value.

    The exponent vector is the canonical identity; `exponents` is a tuple of
    (prime_index, exponent) pairs with ascending indices and exponents >= 1.
    The empty tuple is the g-integer 1 (log value 0).
    """

    exponents: tuple[tuple[int, int], ...]
    log_value: float

    @property
    def value(self) -> float:
        return math.exp(self.log_value)

    @property
    def is_one(self) -> bool:
        return not self.exponents

    def is_prime_power(self) -> bool:
        return len(self.exponents) == 1


G_ONE = GInteger((), 0.0)


def g_integer(system: GPrimeSystem, exponents: Mapping[int, int]) -> GInteger:
    """Build a g-integer over `system` from an index -> exponent map."""
    items = []
    for i, a in sorted(exponents.items()):
        if a == 0:
            continue
        if a < 0:
            raise ParameterError("exponents must be nonnegative integers")
        if not (0 <= i < system.nprimes):
            raise ParameterError(f"prime index {i} out of range")
        items.append((i, int(a)))
    exps = tuple(items)
    logv = float(sum(a * system._logs[i] for i, a in exps))
    return GInteger(exps, logv)


def g_multiply(system: GPrimeSystem, u: GInteger, v: GInteger) -> GInteger:
    """Product of two g-integers (exponent-map merge; log values add)."""
    merged: dict[int, int] = dict(u.exponents)
    for i, a in v.exponents:
        merged[i] = merged.get(i, 0) + a
    exps = tuple(sorted(merged.items()))
    return GInteger(exps, u.log_value + v.log_value)


def from_list(values: Iterable[float], limit: float, label: str = "") -> GPrimeSystem:
    """Validated system from an explicit list; duplicates kept as multiplicity."""
    vals = sorted(float(v) for v in values)
    if not vals:
        raise EmptySystemError("empty prime list")
    for v in vals:
        if not (v > 1.0):
            raise InvalidPrimeError(f"prime {v!r} <= 1")
    return GPrimeSystem(tuple(vals), float(limit), label or "explicit list")


def _sieve(n: int) -> np.ndarray:
    """The rational primes <= n, ascending."""
    mask = np.ones(max(n + 1, 2), dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(max(n, 0)) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask)


def _check_sieve_limit(limit: float) -> None:
    if not math.isfinite(limit):
        raise ParameterError(f"a sieved system needs a finite limit, got {limit}")


def rational_primes(limit: float) -> GPrimeSystem:
    """The rational primes up to `limit` (the N = naturals reference system)."""
    _check_sieve_limit(limit)
    if limit < 2:
        raise EmptySystemError(f"no rational primes below {limit}")
    ps = _sieve(int(math.floor(limit)))
    return GPrimeSystem(tuple(ps.astype(float).tolist()), float(limit), "rational primes")


def gaussian_system(limit: float) -> GPrimeSystem:
    """The g-prime system of the Gaussian integers' Dedekind zeta function.

    2 once, rational primes p = 1 (mod 4) with multiplicity two, and q**2 for
    rational primes q = 3 (mod 4) (kept while q**2 <= limit).
    """
    _check_sieve_limit(limit)
    if limit < 2:
        raise EmptySystemError(f"gaussian system needs limit >= 2, got {limit}")
    n = int(math.floor(limit))
    ps = _sieve(n)
    split = ps[ps % 4 == 1]
    inert = ps[(ps % 4 == 3) & (ps <= math.isqrt(n))]  # q * q <= limit, for integer q
    vals = np.sort(np.concatenate([[2], np.repeat(split, 2), inert * inert]).astype(float))
    return GPrimeSystem(tuple(vals.tolist()), float(limit), "Q(i) norms")


def power_system(system: GPrimeSystem, lam: float) -> GPrimeSystem:
    """The renormalised system {p**lam}; ordering of g-integers is preserved."""
    if not (lam > 0) or not math.isfinite(lam):
        raise InvalidExponentError(f"power exponent must be > 0, got {lam!r}")
    vals = tuple(p**lam for p in system.primes)
    return GPrimeSystem(vals, system.limit**lam, f"{system.label or 'system'}^{lam:g}")


def from_file(path: str | Path) -> GPrimeSystem:
    """Load the plain-text prime-list format.

    One decimal real per line, repetition = multiplicity, `#` comments
    ignored, optional `limit=<real>` header (defaults to the last prime).
    """
    vals: list[float] = []
    limit = None
    for n, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        header = line.startswith("limit=")
        try:
            value = float(line.split("=", 1)[1] if header else line)
        except ValueError:
            raise ParameterError(
                f"{path}, line {n}: expected a real or limit=<real>, got {line!r}"
            ) from None
        if header:
            limit = value
        else:
            vals.append(value)
    if not vals:
        raise EmptySystemError(f"no primes found in {path}")
    vals.sort()
    if limit is None:
        limit = vals[-1]
    return from_list(vals, limit, label=f"file:{path}")
