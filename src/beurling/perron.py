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

The Lambda(n) are real, so phi(c - it) x^(c-it)/(c - it) is the conjugate of
the integrand at c + it: the contour is evaluated on t >= 0 only, and the
integral is twice the real part of the half line's.

The contour is never pushed left of Re s = 1: the continuation left of 1 is
fit-dependent and would break the rigorous-by-construction budget.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .counting import PIECE, nearest_gintegers, prime_power_table, psi as psi_exact
from .errors import IncompleteSystemError, ParameterError, UnstablePointError
from .systems import GPrimeSystem

MAX_NODES = 10**7  # 2T/step, the nodes of the whole line [-T, T], at most; the half line has half
# bytes of the two phase tables, at most: (K + rows) * terms * 16, with K ~ sqrt(nodes),
# rows = nodes / K and terms the prime powers up to min(x^2, limit)
MAX_TABLE_BYTES = 2**31


@dataclass(frozen=True)
class PerronParams:
    """Evaluation point, truncation height, contour abscissa, quadrature step.

    c defaults to the classical 1 + 1/log x.  The step is derived, not set:
    step = pi / (8 log x), so the integrand phase x^{it} advances pi/8 per step.
    """

    x: float
    T: float
    c: float = None
    step: float = field(init=False)

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
        object.__setattr__(self, "step", math.pi / (8.0 * math.log(self.x)))
        if not (2 * self.T / self.step <= MAX_NODES):
            raise ParameterError(
                f"T = {self.T} at step {self.step:g} needs more than {MAX_NODES} quadrature nodes"
            )


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
    nodes: int


def _phases(u, L, w=None) -> np.ndarray:
    """The table exp(-i u_j L_k) (times w_k when given), PIECE elements at a time.

    Each block is the same elementwise expression as the whole table would
    be, so the floats do not depend on the block size; only the table itself
    is table-sized.
    """
    table = np.empty((len(u), len(L)), complex)
    step = max(1, PIECE // max(1, len(L)))
    for a in range(0, len(u), step):
        block = table[a : a + step]
        np.exp(-1j * np.outer(u[a : a + step], L), out=block)
        if w is not None:
            block *= w
    return table


def _blocks(n: int) -> tuple[int, int]:
    """(K, rows) of `_phi_on_line`'s factorisation of an n-node grid: j = a*K + b, a < rows."""
    K = min(4096, max(64, int(math.sqrt(n))))
    return K, (n + K - 1) // K


def _half_grid(T: float, step: float) -> np.ndarray:
    """t_j = j T/m for j = 0..m, m = ceil(T/step) rounded up to even.

    m is even so that every other node, the step-doubled grid of the
    quadrature estimate, also ends at T; t[1] is linspace's step T/m.
    """
    m = math.ceil(T / step)
    return np.linspace(0.0, T, m + m % 2 + 1)


def _phi_on_line(L, wc, t, threads: int = 1) -> np.ndarray:
    """phi(c + i t_j) on the half grid t_j = j h, via a phase-factorised product.

    With j = a*K + b the phase splits into a coarse and a fine factor, so
    only O((n/K + K) * terms) exponentials are needed; the rest is one
    complex matrix product per shard, written into one output.
    """
    n = len(t)
    h = t[1]
    K, rows = _blocks(n)
    B = _phases(np.arange(K) * h, L)
    out = np.empty((rows, K), complex)

    # One product per shard, never split further: numpy sends a one-row
    # product through gemv rather than gemm, and gemv rounds differently.
    def shard(r0: int, r1: int) -> None:
        A = _phases(np.arange(r0, r1) * (K * h), L, wc)
        np.matmul(A, B.T, out=out[r0:r1])

    threads = min(threads, os.cpu_count() or 1)
    if threads <= 1 or rows < 4:
        shard(0, rows)
    else:
        bounds = np.linspace(0, rows, threads + 1, dtype=int)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for fut in [pool.submit(shard, bounds[i], bounds[i + 1]) for i in range(threads)]:
                fut.result()
    return out.ravel()[:n]


def perron_psi(system: GPrimeSystem, params: PerronParams, threads: int = 1) -> PerronResult:
    """Numerical Perron integral for psi(x), with a bounding error budget.

    Raises UnstablePointError when x sits within the gap tolerance 1/x^2 of a
    g-integer (re-site via gap_window), IncompleteSystemError when the near
    range (x/2, 2x) is not below the system horizon, and ParameterError, before
    any table is built, when the phase tables would pass MAX_TABLE_BYTES.
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
    t = _half_grid(T, params.step)
    K, rows = _blocks(len(t))
    size = (K + rows) * len(L) * 16
    if size > MAX_TABLE_BYTES:
        raise ParameterError(
            f"x = {x} and T = {T} need {size / 2**30:.2f} GiB of phase tables, "
            f"more than {MAX_TABLE_BYTES / 2**30:g} GiB"
        )

    lx = math.log(x)
    wc = W * np.exp(-c * L)
    phi_line = _phi_on_line(L, wc.astype(complex), t, threads=threads)
    s = c + 1j * t
    # formed out of place on purpose: np.multiply(phi_line, e, out=e) changed last bits
    integrand = phi_line * np.exp(s * lx) / s
    del phi_line, s  # the line is not needed past here; free it before the budget's arrays
    # (1/2pi) int_{-T}^{T} = (1/pi) Re int_0^T, term for term: the t = 0 node is real
    integral_fine = np.trapezoid(integrand, t).real / math.pi
    integral_coarse = np.trapezoid(integrand[::2], t[::2]).real / math.pi
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
    return PerronResult(value=float(integral_fine), budget=budget, nodes=len(t))


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
