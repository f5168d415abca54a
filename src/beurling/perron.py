"""Truncated Perron inversion: recover psi(x) from phi(s).

The integral (1/2*pi*i) int_{c-iT}^{c+iT} phi(s) x^s / s ds is evaluated by
composite trapezoid along Re s = c > 1, with phi summed over prime powers
up to min(x^2, limit).  Each included term n carries the classical Perron
truncation error Lambda(n) * (x/n)^c * min(1, 1/(T |log(x/n)|)), so the
reported budget bounds |result - psi(x)| by construction:

  far term   - contributions with n outside (x/2, 2x); their sum carries
               the classical x^c/(T(c-1)) shape,
  near term  - the g-integer-proximity sum inside (x/2, 2x), finite only
               because evaluation points are gap-sited,
  quadrature - Richardson estimate from a step-doubled trapezoid, doubled
               for safety.

The contour is never pushed left of Re s = 1: the continuation left of 1 is
fit-dependent and would break the rigorous-by-construction budget.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .counting import nearest_gintegers, prime_power_table, psi as psi_exact
from .errors import IncompleteSystemError, ParameterError, UnstablePointError
from .systems import GPrimeSystem


@dataclass(frozen=True)
class PerronParams:
    """Evaluation point, truncation height, contour abscissa, quadrature step.

    Defaults follow the classical choices: c = 1 + 1/log x, and a step small
    enough that the integrand phase x^{it} advances less than pi/8 per step.
    """

    x: float
    T: float
    c: float = None
    step: float = None

    def __post_init__(self):
        if not (self.x > 2):
            raise ParameterError(f"perron needs x > 2, got {self.x}")
        if not (0 < self.T < math.inf):
            raise ParameterError(f"T must be positive and finite, got {self.T}")
        if self.c is None:
            object.__setattr__(self, "c", 1.0 + 1.0 / math.log(self.x))
        if not (1 < self.c < math.inf):
            raise ParameterError(f"contour abscissa must satisfy 1 < c < inf, got {self.c}")
        if self.step is None:
            object.__setattr__(self, "step", math.pi / (8.0 * math.log(self.x)))
        if not (self.step > 0):
            raise ParameterError("quadrature step must be positive")


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
    imag_residual: float
    budget: PerronBudget
    params: PerronParams
    phi_cutoff: float
    nodes: int


def _phi_on_line(L, wc, t, threads: int = 1) -> np.ndarray:
    """phi(c + i t_j) for a uniform grid t, via a phase-factorised product.

    With t_j = t_0 + j h and j = a*K + b the phase splits into a coarse and a
    fine factor, so only O((n/K + K) * terms) exponentials are needed; the
    rest is one complex matrix product per shard.
    """
    n = len(t)
    h = t[1] - t[0] if n > 1 else 0.0
    K = min(4096, max(64, int(math.sqrt(n)))) if n > 1 else 1
    rows = (n + K - 1) // K
    B = np.exp(-1j * np.outer(np.arange(K) * h, L))

    def shard(r0: int, r1: int) -> np.ndarray:
        coarse = t[0] + np.arange(r0, r1) * (K * h)
        A = np.exp(-1j * np.outer(coarse, L)) * wc
        return (A @ B.T).ravel()

    if threads <= 1 or rows < 4:
        out = shard(0, rows)
    else:
        bounds = np.linspace(0, rows, threads + 1, dtype=int)
        pieces = [None] * threads
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [
                pool.submit(shard, bounds[i], bounds[i + 1]) for i in range(threads)
            ]
            for i, fut in enumerate(futures):
                pieces[i] = fut.result()
        out = np.concatenate(pieces)
    return out[:n]


def perron_psi(system: GPrimeSystem, params: PerronParams, threads: int = 1) -> PerronResult:
    """Numerical Perron integral for psi(x), with a bounding error budget.

    Raises UnstablePointError when x sits within the gap tolerance 1/x^2 of a
    g-integer (re-site via gap_window) and IncompleteSystemError when the
    near range (x/2, 2x) is not below the system horizon.
    """
    x, T, c = params.x, params.T, params.c
    if x >= system.limit:
        raise ParameterError(f"x = {x} must lie inside (2, limit = {system.limit})")
    if 2 * x > system.limit:
        raise IncompleteSystemError(
            f"near range (x/2, 2x) = ({x/2:g}, {2*x:g}) exceeds horizon {system.limit}"
        )
    vals = nearest_gintegers(system, x, halfwidth=3.0)
    gap_tol = 1.0 / (x * x)
    if len(vals) and np.min(np.abs(vals - x)) < gap_tol:
        nearest = float(vals[np.argmin(np.abs(vals - x))])
        raise UnstablePointError(
            f"x = {x} is within {gap_tol:.3e} of the g-integer {nearest!r}; "
            "re-site with gap_window"
        )

    cutoff = min(x * x, system.limit)
    L, W = prime_power_table(system, cutoff)
    lx = math.log(x)
    wc = W * np.exp(-c * L)

    n = int(math.ceil(2 * T / params.step))
    if n % 2 == 1:
        n += 1
    n += 1  # symmetric grid including t = 0
    t = np.linspace(-T, T, n)
    phi_line = _phi_on_line(L, wc.astype(complex), t, threads=threads)
    s = c + 1j * t
    integrand = phi_line * np.exp(s * lx) / s
    integral_fine = np.trapezoid(integrand, t) / (2 * math.pi)
    integral_coarse = np.trapezoid(integrand[::2], t[::2]) / (2 * math.pi)
    quad_est = 2.0 * abs(integral_fine - integral_coarse) / 3.0

    # classical per-term truncation error for every included prime power
    dlog = lx - L
    with np.errstate(divide="ignore"):
        lemma = np.minimum(1.0, 1.0 / (T * np.abs(dlog)))
    term_errors = W * np.exp(c * dlog) * lemma
    near_mask = np.abs(dlog) < math.log(2.0)
    near = float(np.sum(term_errors[near_mask]))
    far = float(np.sum(term_errors[~near_mask]))

    budget = PerronBudget(far, near, float(quad_est))
    return PerronResult(
        value=float(integral_fine.real),
        imag_residual=float(abs(integral_fine.imag)),
        budget=budget,
        params=params,
        phi_cutoff=cutoff,
        nodes=n,
    )


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
    if len(seq) < 3:
        return list(seq)
    out = [seq[0]]
    for a, b, cc in zip(seq, seq[1:], seq[2:]):
        out.append(sorted((a, b, cc))[1])
    out.append(seq[-1])
    return out


def perron_convergence_scan(
    system: GPrimeSystem, x: float, T_list, threads: int = 1
) -> PerronScan:
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
        res = perron_psi(system, PerronParams(x=x, T=T), threads=threads)
        rows.append((T, res.value, abs(res.value - oracle), res.budget.total))
    filtered = _median3([r[2] for r in rows])
    monotone = all(b <= a * 1.05 for a, b in zip(filtered, filtered[1:]))
    return PerronScan(x, oracle, tuple(rows), monotone)
