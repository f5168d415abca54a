"""Generalised prime systems and g-integers.

A system is a finite nondecreasing multiset of reals > 1 together with a
truncation horizon `limit`: the system is asserted complete below that
horizon, so any query at x <= limit sees every prime it needs.  Multiplicity
is represented by repetition in the prime sequence.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
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

    def __post_init__(self):
        if not self.primes:
            raise EmptySystemError("a g-prime system needs at least one prime")
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
        logs = np.log(np.asarray(self.primes, dtype=float))
        logs.flags.writeable = False
        object.__setattr__(self, "_logs", logs)

    @property
    def nprimes(self) -> int:
        return len(self.primes)

    @property
    def log_primes(self) -> np.ndarray:
        """Natural logs of the primes, same order as `primes`. Read-only."""
        return self._logs

    @cached_property
    def _log_list(self) -> list[float]:
        """`log_primes` as a Python list, built on first use, for `bisect`."""
        return self._logs.tolist()


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


def _sieve(n: int) -> list[int]:
    if n < 2:
        return []
    mask = bytearray([1]) * (n + 1)
    mask[0:2] = b"\x00\x00"
    for p in range(2, int(n**0.5) + 1):
        if mask[p]:
            mask[p * p :: p] = b"\x00" * len(mask[p * p :: p])
    return [i for i, m in enumerate(mask) if m]


def _check_sieve_limit(limit: float) -> None:
    if not math.isfinite(limit):
        raise ParameterError(f"a sieved system needs a finite limit, got {limit}")


def rational_primes(limit: float) -> GPrimeSystem:
    """The rational primes up to `limit` (the N = naturals reference system)."""
    _check_sieve_limit(limit)
    if limit < 2:
        raise EmptySystemError(f"no rational primes below {limit}")
    ps = _sieve(int(math.floor(limit)))
    return GPrimeSystem(tuple(float(p) for p in ps), float(limit), "rational primes")


def gaussian_system(limit: float) -> GPrimeSystem:
    """The g-prime system of the Gaussian integers' Dedekind zeta function.

    2 once, rational primes p = 1 (mod 4) with multiplicity two, and q**2 for
    rational primes q = 3 (mod 4) (kept while q**2 <= limit).
    """
    _check_sieve_limit(limit)
    if limit < 2:
        raise EmptySystemError(f"gaussian system needs limit >= 2, got {limit}")
    vals: list[float] = [2.0]
    for p in _sieve(int(math.floor(limit))):
        if p % 4 == 1:
            vals.extend([float(p), float(p)])
        elif p % 4 == 3 and p * p <= limit:
            vals.append(float(p * p))
    vals.sort()
    return GPrimeSystem(tuple(vals), float(limit), "Q(i) norms")


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
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("limit="):
            limit = float(line.split("=", 1)[1])
            continue
        vals.append(float(line))
    if not vals:
        raise EmptySystemError(f"no primes found in {path}")
    vals.sort()
    if limit is None:
        limit = vals[-1]
    return from_list(vals, limit, label=f"file:{path}")
