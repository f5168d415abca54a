"""Truncated Perron inversion: recover psi(x) from phi(s).

With phi summed over the prime powers up to min(x^2, limit), the truncated
integral I_T = (1/2*pi*i) int_{c-iT}^{c+iT} phi(s) x^s / s ds along Re s = c > 1
is a finite sum of closed forms.  With u = log(x/n) and w = -u (c + iT), each
prime power n contributes Lambda(n) times

  (1/2*pi*i) int_{c-iT}^{c+iT} e^{us} / s ds = [u > 0] - Im E1(w) / pi
                                             = (atan(T/c) - Im Ein(w)) / pi,

where Ein(w) = E1(w) + log w + gamma is the entire part of the exponential
integral: the second form has no branch cut and no cancellation as T -> 0.
The reported budget has three parts:

  far term   - the classical Perron lemma's bound on |I_T - psi| from the n
               outside (x/2, 2x): Lambda(n) (x/n)^c min(1, 1/(T |log(x/n)|)) each,
  near term  - the same bound from the n inside (x/2, 2x), finite only because
               evaluation points are gap-sited,
  quadrature - a rounding bound on |value - I_T|: the sum's, each Ein's own,
               and that of log x and u, times each term's sensitivity to u.

The contour is never pushed left of Re s = 1: the continuation left of 1 is
fit-dependent and would break the rigorous-by-construction budget.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .counting import nearest_gintegers, prime_power_table, psi as psi_exact
from .errors import DivergenceError, IncompleteSystemError, ParameterError, UnstablePointError
from .systems import GPrimeSystem

EPS = float(np.finfo(float).eps)
MAX_ITERATIONS = 1000  # series terms or continued-fraction steps an element may take
SETTLED = 4e-16  # |delta - 1| that ends the fraction: a few ulps, since rounding keeps it near one at |w| ~ 1e14


def ein(w):
    """Ein(w) = E1(w) + log w + gamma elementwise, and a bound on each element's error.

    The power series -sum_{k>=1} (-w)^k / (k k!) runs where |w| <= 4 or w lies within
    45 degrees of the negative real axis, where its terms do not cancel; elsewhere E1
    comes from the continued fraction e^{-w} / (w + 1 - 1/(w + 3 - 4/(w + 5 - ...)))
    by modified Lentz (Numerical Recipes, 3rd ed., section 6.3).  Each element leaves
    the working arrays once it settles; one that has not settled after MAX_ITERATIONS
    raises DivergenceError, so no unsettled value is returned.
    """
    w = np.asarray(w, complex)
    values, errors = np.empty_like(w), np.empty(w.shape)
    series = (np.abs(w) <= 4) | (np.abs(w.imag) <= -w.real)

    # p = (-w)^k / k!; a = sum |p|/k and b = sum |p| bound the rounding of the terms
    # and of their sum; past k = 2|w| the terms halve, so the tail is under the last.
    # Past |w| = MAX_ITERATIONS / 2 the series cannot settle: its terms may overflow first
    at, z = np.flatnonzero(series), -w[series]
    p, s, a, b = np.ones_like(z), np.zeros_like(z), np.zeros(len(z)), np.zeros(len(z))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, MAX_ITERATIONS + 1):
            if not len(at):
                break
            p *= z
            p /= k
            s -= p / k
            size = np.abs(p)
            a += size / k
            b += size
            done = (k >= 2 * np.abs(z)) & (size <= EPS * k * a / 8)
            values[at[done]], errors[at[done]] = s[done], EPS * (2 * b[done] + k * a[done])
            at, z, p, s, a, b = (v[~done] for v in (at, z, p, s, a, b))
    if len(at):
        raise DivergenceError(f"Ein's series did not settle in {MAX_ITERATIONS} steps at w = {complex(-z[0])}")

    at, z = np.flatnonzero(~series), w[~series]
    bk = z + 1
    d = 1 / bk
    c, h = np.full_like(z, 1e300), d.copy()
    for k in range(1, MAX_ITERATIONS + 1):
        if not len(at):
            break
        bk += 2
        d = 1 / (bk - k * k * d)
        c = bk - k * k / c
        delta = c * d
        h *= delta
        done = np.abs(delta - 1) <= SETTLED
        e1 = np.exp(-z[done]) * h[done]
        log = np.log(z[done])
        values[at[done]] = e1 + log + np.euler_gamma
        errors[at[done]] = EPS * ((4 * k + 8) * np.abs(e1) + 3 * np.abs(log) + 1)
        at, z, bk, d, c, h = (v[~done] for v in (at, z, bk, d, c, h))
    if len(at):
        raise DivergenceError(f"E1's fraction did not settle in {MAX_ITERATIONS} steps at w = {complex(z[0])}")
    return values, errors


@dataclass(frozen=True)
class PerronParams:
    """Evaluation point, truncation height and contour abscissa.

    c defaults to the classical 1 + 1/log x.  Any finite T > 0 runs: the integral
    is summed in closed form, one term per prime power, and T sets no grid.
    """

    x: float
    T: float
    c: float = None

    def __post_init__(self):
        if not (2 < self.x < math.inf):
            raise ParameterError(f"perron needs 2 < x < inf, got {self.x}")
        if not (0 < self.T < math.inf):
            raise ParameterError(f"T must be positive and finite, got {self.T}")
        if self.c is None:
            object.__setattr__(self, "c", 1.0 + 1.0 / math.log(self.x))
        if not (1 < self.c < math.inf):
            raise ParameterError(f"contour abscissa must satisfy 1 < c < inf, got {self.c}")
        try:
            math.pow(self.x, self.c)  # raises for numpy floats too, where ** gives inf
        except OverflowError:  # x^s on the contour would be inf, and the integral nan
            raise ParameterError(f"x^c overflows for x = {self.x} and c = {self.c}") from None


@dataclass(frozen=True)
class PerronBudget:
    far_term: float
    near_term: float
    quadrature: float

    @property
    def total(self) -> float:
        return self.far_term + self.near_term + self.quadrature


@dataclass(frozen=True)
class PerronResult:
    value: float
    budget: PerronBudget
    nodes: int  # the terms summed, one per prime power


def perron_psi(system: GPrimeSystem, params: PerronParams) -> PerronResult:
    """Perron's truncated integral for psi(x), with a bounding error budget.

    Raises UnstablePointError when x sits within the gap tolerance 1/x^2 of a
    g-integer (re-site via gap_window), and IncompleteSystemError when the near
    range (x/2, 2x) is not below the system horizon.
    """
    x, T, c = params.x, params.T, params.c
    if x >= system.limit:
        raise ParameterError(f"x = {x} must lie inside (2, limit = {system.limit})")
    if 2 * x > system.limit:
        raise IncompleteSystemError(
            f"near range (x/2, 2x) = ({x/2:g}, {2*x:g}) exceeds horizon {system.limit}"
        )
    # x +- 1 holds every g-integer within the gap tolerance 1/x^2 < 1/4, and x + 1 < 2x <= limit
    vals = nearest_gintegers(system, x, halfwidth=1.0)
    gap_tol = 1.0 / (x * x)
    if len(vals) and np.min(np.abs(vals - x)) < gap_tol:
        nearest = float(vals[np.argmin(np.abs(vals - x))])
        raise UnstablePointError(
            f"x = {x} is within {gap_tol:.3e} of the g-integer {nearest!r}; "
            "re-site with gap_window"
        )

    L, W = prime_power_table(system, min(x * x, system.limit))
    log_x = math.log(x)
    dlog = log_x - L
    values, errors = ein(-dlog * complex(c, T))
    angle = math.atan2(T, c)
    terms = W * (angle - values.imag) / math.pi
    value = float(np.sum(terms))

    # classical per-term truncation error for every included prime power
    with np.errstate(divide="ignore"):
        lemma = np.minimum(1.0, 1.0 / (T * np.abs(dlog)))
        reach = np.minimum(T, 1.0 / np.abs(dlog))
    grows = W * np.exp(c * dlog)
    term_errors = grows * lemma
    near_mask = np.abs(dlog) < math.log(2.0)
    near = float(np.sum(term_errors[near_mask]))
    far = float(np.sum(term_errors[~near_mask]))

    # rounding: the sum's gamma_n, and per term its Ein's error and its own arithmetic,
    # w's rounding, which moves Ein by under EPS (1 + e^{cu}), and an ulp of log x and
    # of u times the term's sensitivity |d/du| <= e^{cu} min(T, 1/|u|) / pi
    n = len(terms)
    own = W * (errors + 2 * EPS * (angle + np.abs(values.imag) + 1))
    own += EPS * grows * (1 + reach * (log_x + np.abs(dlog)))
    summed = n * EPS / 2 / (1 - n * EPS / 2) * float(np.sum(np.abs(terms)))
    budget = PerronBudget(far, near, summed + float(np.sum(own)) / math.pi)
    return PerronResult(value=value, budget=budget, nodes=n)


@dataclass(frozen=True)
class PerronScan:
    """Convergence table of |perron - psi| against increasing T."""

    x: float
    oracle: float
    rows: tuple[tuple[float, float, float, float], ...]  # (T, value, error, budget)
    monotone_trend: bool

    def errors(self) -> list[float]:
        return [r[2] for r in self.rows]


def _median3(seq: list[float]) -> list[float]:
    out = [seq[0]]
    for a, b, cc in zip(seq, seq[1:], seq[2:]):
        out.append(sorted((a, b, cc))[1])
    out.append(seq[-1])
    return out


def perron_convergence_scan(system: GPrimeSystem, x: float, T_list) -> PerronScan:
    """Run perron_psi over increasing T and report the error trend.

    The monotone flag is judged on a median-of-3 filtered error sequence
    with 5% slack, so a single noisy entry does not flip it.
    """
    Ts = [float(T) for T in T_list]
    if len(Ts) < 3:
        raise ParameterError(f"T scan needs >= 3 entries, got {len(Ts)}")
    if any(b <= a for a, b in zip(Ts, Ts[1:])):
        raise ParameterError("T_list must be strictly increasing")
    oracle = psi_exact(system, x)
    rows = []
    for T in Ts:
        res = perron_psi(system, PerronParams(x=x, T=T))
        rows.append((T, res.value, abs(res.value - oracle), res.budget.total))
    filtered = _median3([r[2] for r in rows])
    monotone = all(b <= a * 1.05 for a, b in zip(filtered, filtered[1:]))
    return PerronScan(x, oracle, tuple(rows), monotone)
