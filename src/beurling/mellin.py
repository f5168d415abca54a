"""Kernel partition functions, Mellin transforms, and functional equations.

A kernel g with g(x) = O(x^alpha) at 0+ (alpha < 1) and O(x^-beta) at
infinity (beta > 1, possibly inf) defines the partition function
F(x) = sum_{n in N} g(n x) and the transform G(s) = int_0^inf x^{s-1} g.
On the strip the product G(s) * zeta(s) equals int_0^inf x^{s-1} F(x) dx,
and a verified asymptotic expansion of F at 0+ continues that integral to
the left: the expansion part integrates in closed form to the pole sum
  -sum_m m! a_m / (lambda_n - s)^{m+1}
per term, the subtracted integrand is integrated on [xmin, 1], and the
[1, inf) piece converges for Re s < beta.  Both pieces are one run of
`_de_quad`, a double-exponential rule in numpy (tanh-sinh on [xmin, 1],
exp-sinh past 1) whose nested levels each read F once, at their new nodes,
through the array form of `partition_F`.  It stops when two levels agree to
QUAD_TARGET and reports their difference: an error estimate, not a bound.
`mellin_G` alone still runs mpmath's quadrature.

Sign conventions: alpha here is the 0+ exponent as used for continuation
(g = O(x^alpha)); the functional-equation statements use the opposite sign
(g = O(x^{-alpha_r})), so alpha_r = -alpha at that interface.  Expansions
are always supplied and verified, never fitted from data.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Callable

import mpmath as mp
import numpy as np

from .counting import _sorted_logs_leq
from .errors import ParameterError, PoleError, StripError
from .systems import GPrimeSystem, log_top, per_system
from .zeta import TailedValue

QUAD_TARGET = 1e-10
POLE_TOL = 1e-9
EXPANSION_MARGIN = 0.25  # how much faster than its last term a prefix's remainder must fall
FE_TOL = 1e-10  # a functional-equation residual whose tail budget passes this is inconclusive
FE_POLE_SKIP = 1e-3  # s-grid points this close to a declared pole are skipped, not continued
DE_STEP = 0.5  # the t-step of the double-exponential rule's first level
DE_LEVELS = 7  # levels at most, the last at step DE_STEP / 2^6
PAIRS_PER_BLOCK = 1 << 15  # (x, n) pairs a partition_F block hands the kernel at once
_EPS = 2.0**-52
_U_MAX = math.log(sys.float_info.max) - 10  # past it exp-sinh's weight overflows


def _de_quad(f, a: float, b: float):
    """(int_a^inf f(x) dx, error estimate) for 0 < a <= b by the double-exponential
    rules of Takahashi and Mori (Publ. RIMS 9 (1974), 721-741), u = (pi/2) sinh t:
    tanh-sinh on [a, b], x = a + (b - a) / (1 + e^{-2u}), and exp-sinh on
    [b, inf), x = b + e^u, each a trapezoid sum in t.

    f maps an array of x to an array of values; it is called once per level, at
    that level's new nodes (level k has step DE_STEP / 2^k: every multiple of it
    at level 0, the odd ones after).  Each t-range ends where a node would round
    onto a finite end, leaving out under 2^-52 b of x there, so tanh-sinh's nodes
    lie in (a, b), exp-sinh's in (b, inf), and f may tell them apart by x < b.
    Exp-sinh's upper end starts where its weight nears the float range; level 0
    moves it to its first node past the last whose term passes 2^-53 of the
    largest.  The rule stops once two levels agree to QUAD_TARGET of the sum, or
    after DE_LEVELS levels, and returns the last sum and its distance from the one
    before: an estimate of the error, not a bound.
    """
    pieces = []  # [t_lo, t_hi, nodes(t) -> (x, dx/dt)]
    span = (b - a) / (_EPS * b) - 1.0  # tanh-sinh's last node keeps _EPS * b from an end
    if span > 1.0:

        def tanh_sinh(t):
            e = np.exp(-np.pi * np.abs(np.sinh(t)))  # e^{-2|u|}
            gap = (b - a) * e / (1.0 + e)  # the node's distance from its nearer end
            return np.where(t < 0, a + gap, b - gap), np.pi * np.cosh(t) * gap / (1.0 + e)

        t_end = math.asinh(math.log(span) / math.pi)
        pieces.append([-t_end, t_end, tanh_sinh])

    def exp_sinh(t):
        eu = np.exp(0.5 * np.pi * np.sinh(t))
        return b + eu, 0.5 * np.pi * np.cosh(t) * eu

    t_start = -math.asinh(-2 / math.pi * math.log(_EPS * b))  # e^u = 2^-52 b: before it x rounds to b
    pieces.append([t_start, math.asinh(2 / math.pi * _U_MAX), exp_sinh])

    total, value = 0.0, None
    for level in range(DE_LEVELS):
        h = DE_STEP / 2**level
        xs, ws = [], []
        for t_lo, t_hi, nodes in pieces:
            m = np.arange(math.ceil(t_lo / h), math.floor(t_hi / h) + 1)
            t = (m if level == 0 else m[m % 2 == 1]) * h
            x, w = nodes(t)
            xs.append(x)
            ws.append(w)
        with np.errstate(over="ignore"):  # a kernel may overflow where it vanishes
            terms = np.concatenate(ws) * f(np.concatenate(xs))
        if level == 0:  # t and the last len(t) terms are exp-sinh's: cut where they vanish
            size = np.abs(terms)
            tiny = 2.0**-53 * np.max(size[np.isfinite(size)], initial=0.0)
            live = np.flatnonzero(~(size[-len(t) :] <= tiny))  # nan and inf stay
            keep = min(live[-1] + 2, len(t)) if len(live) else 1
            pieces[-1][1] = t[keep - 1]
            terms = terms[: len(terms) - len(t) + keep]
        total = total + np.sum(terms)
        value, previous = h * total, value
        if previous is not None and abs(value - previous) <= QUAD_TARGET * abs(value):
            break
    return value, float(abs(value - previous))


@dataclass(frozen=True)
class Kernel:
    """A continuous kernel on (0, inf) with certified endpoint exponents.

    tail_integral(lo, scale) must bound int_lo^inf |g(t*scale)| dt; builtin
    kernels carry closed forms.  Custom kernels fall back to `_de_quad`'s
    exp-sinh rule on [lo, inf), whose value is an estimate: its last two
    levels agree to QUAD_TARGET of it, which bounds nothing.
    """

    name: str
    evaluate: Callable
    alpha: float
    beta: float
    tail_integral: Callable[[float, float], float] | None = None

    def __post_init__(self):
        if not (self.alpha < 1 < self.beta):
            raise ParameterError(
                f"kernel exponents need alpha < 1 < beta, got {self.alpha}, {self.beta}"
            )

    def tail(self, lo: float, scale: float) -> float:
        if self.tail_integral is not None:
            return float(self.tail_integral(lo, scale))
        value, _ = _de_quad(lambda t: np.abs(_kernel_apply(self, t * scale)), lo, lo)
        return float(value)


def _gauss(u):
    with np.errstate(over="ignore"):  # u * u past the float range: exp rightly gives 0
        return np.exp(-math.pi * u * u)


KERNELS = {
    "exp": Kernel(
        "exp",
        lambda u: np.exp(-u),
        alpha=0.0,
        beta=math.inf,
        tail_integral=lambda lo, scale: math.exp(-lo * scale) / scale,
    ),
    "gauss": Kernel(
        "gauss",
        _gauss,
        alpha=0.0,
        beta=math.inf,
        tail_integral=lambda lo, scale: math.erfc(math.sqrt(math.pi) * lo * scale)
        / (2 * scale),
    ),
}


@dataclass(frozen=True)
class AsymptoticExpansion:
    """F(x) ~ sum_n P_n(log x) / x^{lambda_n} as x -> 0+.

    terms: (lambda_n, coefficients a_0..a_d of P_n), Re lambda strictly
    decreasing.  remainder_lambda bounds what is left after all terms
    (E_N = O(x^{-Re remainder_lambda})); None means the remainder shrinks
    faster than any power (theta-type kernels).
    """

    terms: tuple[tuple[complex, tuple[complex, ...]], ...]
    remainder_lambda: complex | None = None

    def __post_init__(self):
        prev = math.inf
        for lam, coeffs in self.terms:
            if complex(lam).real >= prev:
                raise ParameterError("expansion exponents must strictly decrease in Re")
            prev = complex(lam).real
            if not coeffs or all(c == 0 for c in coeffs):
                raise ParameterError("every expansion term needs a nonzero polynomial")
        if self.remainder_lambda is not None and self.terms:
            if complex(self.remainder_lambda).real >= prev:
                raise ParameterError("remainder exponent must sit below the last term")

    def leading_sum(self, x):
        """F_N(x), the sum of the terms, at a float x > 0 or at each entry of an array."""
        lx = np.log(x)
        total = 0.0 + 0.0j
        for lam, coeffs in self.terms:
            poly = sum(complex(a) * lx**m for m, a in enumerate(coeffs))
            total = total + poly * x ** (-complex(lam))
        return total

    def pole_terms(self, s: complex) -> complex:
        """Closed-form continuation of int_0^1 x^{s-1} F_N(x) dx."""
        total = 0.0 + 0.0j
        for lam, coeffs in self.terms:
            dl = complex(lam) - s
            for m, a in enumerate(coeffs):
                total += -math.factorial(m) * a / dl ** (m + 1)
        return total

    def pole_near(self, s: complex):
        """(lambda, order) of the term whose exponent is within POLE_TOL of s, or None."""
        for lam, coeffs in self.terms:
            if abs(s - complex(lam)) <= POLE_TOL:
                return complex(lam), len(coeffs)  # order = degree + 1
        return None


EXPANSIONS = {
    # Laurent expansion of 1/(e^x - 1) about 0: 1/x - 1/2 + x/12 - x^3/720 + x^5/30240
    "exp": AsymptoticExpansion(
        (
            (1.0, (1.0,)),
            (0.0, (-0.5,)),
            (-1.0, (1.0 / 12.0,)),
            (-3.0, (-1.0 / 720.0,)),
        ),
        remainder_lambda=-5.0,
    ),
    # sum_{n>=1} e^{-pi n^2 x^2} = 1/(2x) - 1/2 + (exponentially small)
    "gauss": AsymptoticExpansion(
        (
            (1.0, (0.5,)),
            (0.0, (-0.5,)),
        ),
        remainder_lambda=None,
    ),
}


@per_system
def _cached_values(system: GPrimeSystem) -> tuple[np.ndarray, np.ndarray]:
    """Sorted logs and values of the g-integers up to the horizon."""
    logs = _sorted_logs_leq(system, system.limit)
    return logs, np.exp(logs)


def _kernel_apply(kernel: Kernel, arr: np.ndarray) -> np.ndarray:
    try:
        out = np.asarray(kernel.evaluate(arr))
        if out.shape != arr.shape:
            raise TypeError
        return out
    except (TypeError, ValueError):
        return np.asarray([kernel.evaluate(float(v)) for v in arr])


def partition_F(
    system: GPrimeSystem,
    kernel: Kernel,
    x,
    cutoff: float | None = None,
    tail_tol: float = 1e-15,
) -> TailedValue:
    """F(x) = sum over g-integers n <= cutoff of g(n x), with a tail envelope.

    With cutoff omitted it is grown geometrically until the density-envelope
    tail rho_hat * int_cutoff^inf |g(t x)| dt falls below tail_tol, capped at
    the system horizon (an over-cap tail is reported, not fatal).

    x may be an array; the result then holds an array of values, tails and
    cutoffs, and a float x is its one-element case.  The kernel runs once over
    the (x, n) pairs, in blocks of at most PAIRS_PER_BLOCK pairs (an x with more
    takes a block of its own), and each x's pairs are summed by np.add.reduce
    over their own slice, as np.sum sums them, so every entry is the
    one-element call's bit for bit.
    """
    xs = np.asarray(x, dtype=float)
    one, xs = xs.ndim == 0, xs.reshape(-1)
    bad = [xi for xi in xs.tolist() if not xi > 0]
    if bad:
        raise ParameterError(f"partition functions need x > 0, got {bad[0]}")
    logs, values = _cached_values(system)
    rho = len(values) / system.limit
    limit, tail = system.limit, kernel.tail
    cutoffs, tails = [], []
    for xi in xs.tolist():
        if cutoff is None:
            c = min(max(2.0, 2.0 / xi), limit)
            t = rho * tail(c, xi)
            while c < limit and t > tail_tol:
                c = min(c * 2.0, limit)
                t = rho * tail(c, xi)
        elif 1 <= cutoff <= limit:
            c = float(cutoff)
            t = rho * tail(c, xi)
        else:
            raise ParameterError(f"cutoff {cutoff} is outside [1, {limit}]")
        cutoffs.append(c)
        tails.append(t)
    counts = np.searchsorted(logs, [log_top(c) for c in cutoffs], side="right").tolist()
    totals = np.empty(len(xs), complex)
    start = 0
    while start < len(xs):  # a block: the next x's while their pairs fit
        stop, pairs = start + 1, counts[start]
        while stop < len(xs) and pairs + counts[stop] <= PAIRS_PER_BLOCK:
            pairs += counts[stop]
            stop += 1
        block = counts[start:stop]
        u = np.concatenate([values[:k] for k in block]) * np.repeat(xs[start:stop], block)
        g = _kernel_apply(kernel, u)
        lo = 0
        for i, k in enumerate(block, start):
            totals[i] = np.add.reduce(g[lo : lo + k])
            lo += k
        start = stop
    if one:
        return TailedValue(complex(totals[0]), tails[0], cutoffs[0])
    return TailedValue(totals, np.array(tails), np.array(cutoffs))


def mellin_G(kernel: Kernel, s: complex) -> TailedValue:
    """G(s) = int_0^inf x^{s-1} g(x) dx on the strip alpha < Re s < beta.

    Tanh-sinh quadrature at mpmath's working precision after splitting at 1
    and substituting x = e^{-t} and x = e^{t}; the quadrature error estimate
    is reported.
    """
    s = complex(s)
    if not (kernel.alpha < s.real < kernel.beta):
        raise StripError(
            f"Re s = {s.real} outside the transform strip ({kernel.alpha}, {kernel.beta})"
        )
    sm = mp.mpc(s)

    # at tanh-sinh extreme nodes a float-valued kernel saturates (inf/nan or
    # OverflowError) even though the weighted integrand is negligible; the
    # declared endpoint exponents guarantee those nodes contribute nothing
    def _eval_kernel(x: float) -> complex:
        if not math.isfinite(x) or x <= 0.0:
            return 0.0
        try:
            val = complex(kernel.evaluate(x))
        except OverflowError:
            return 0.0
        return val if math.isfinite(abs(val)) else 0.0

    def low(t):  # x = e^{-t}, x^{s-1} dx = -e^{-st} dt
        return mp.e ** (-sm * t) * _eval_kernel(float(mp.e ** (-t)))

    def high(t):  # x = e^{t}
        return mp.e ** (sm * t) * _eval_kernel(float(mp.e**t))

    v1, e1 = mp.quad(low, [0, mp.inf], error=True)
    v2, e2 = mp.quad(high, [0, mp.inf], error=True)
    return TailedValue(complex(v1 + v2), float(e1 + e2), math.inf)


@dataclass(frozen=True)
class ExpansionReport:
    """verify_expansion outcome: per-prefix fitted remainder exponents."""

    accepted: bool
    term_slopes: tuple[float, ...]
    remainder_slope: float
    reason: str = ""


def verify_expansion(samples, expansion: AsymptoticExpansion) -> ExpansionReport:
    """Check that each expansion prefix improves the 0+ remainder order.

    samples: (x, F(x)) pairs at x = 2^{-j}, j increasing.  For every prefix
    of n terms the envelope |F - F_n| must shrink at least like the last
    included power improved by EXPANSION_MARGIN; a wrong coefficient freezes the
    remainder at the bad term's exponent and is rejected.
    """
    pts = sorted(((float(x), complex(f)) for x, f in samples), reverse=True)
    if len(pts) < 4:
        raise ParameterError("need at least 4 samples to verify an expansion")
    xs = np.array([p[0] for p in pts])
    fs = np.array([p[1] for p in pts])

    def fit_slope(rem: np.ndarray) -> float:
        floor = np.abs(fs) * 1e-13 + 1e-300
        good = np.abs(rem) > floor
        if np.count_nonzero(good) < 3:
            return math.inf  # remainder at cancellation floor: better than any power
        lx = np.log(xs[good])
        ly = np.log(np.abs(rem[good]))
        A = np.vstack([lx, np.ones_like(lx)]).T
        sol, *_ = np.linalg.lstsq(A, ly, rcond=None)
        return float(sol[0])

    slopes = []
    accepted = True
    reason = ""
    if not expansion.terms:
        slope = fit_slope(fs)
        ok = slope > -EXPANSION_MARGIN
        return ExpansionReport(ok, (), slope, "" if ok else "F unbounded at 0+ but expansion empty")
    for n in range(1, len(expansion.terms) + 1):
        prefix = AsymptoticExpansion(expansion.terms[:n])
        rem = fs - np.array([prefix.leading_sum(x) for x in xs])
        slope = fit_slope(rem)
        need = -complex(expansion.terms[n - 1][0]).real + EXPANSION_MARGIN
        slopes.append(slope)
        if slope < need:
            accepted = False
            reason = (
                f"after {n} terms the remainder falls like x^{slope:.3g}, "
                f"not faster than the last term x^{need - EXPANSION_MARGIN:.3g}"
            )
            break
    return ExpansionReport(accepted, tuple(slopes), slopes[-1], reason)


def _mellin_cut(F, expansion: AsymptoticExpansion, s: complex, beta: float):
    """(xmin, bound on the neglected (0, xmin] piece) of the continuation of
    int_0^inf x^{s-1} F(x) dx at s, once s passes the pole and strip checks:
    everything that can refuse s before a quadrature.  F returns a TailedValue."""
    hit = expansion.pole_near(s)
    if hit is not None:
        lam, order = hit
        raise PoleError(
            f"s = {s} is at the expansion pole lambda = {lam} (order {order})", order=order
        )
    if not (s.real < beta):
        raise StripError(f"Re s = {s.real} not below the decay exponent beta = {beta}")

    rem_lam = expansion.remainder_lambda
    if rem_lam is not None and s.real <= complex(rem_lam).real:
        raise StripError(
            f"Re s = {s.real} is not above the remainder exponent "
            f"{complex(rem_lam).real}; supply more expansion terms"
        )

    # walk xmin down until the neglected (0, xmin] piece is under QUAD_TARGET
    xmin = 0.5
    while True:
        probe = F(xmin)
        mag = abs(complex(probe.value) - expansion.leading_sum(xmin)) + probe.tail_bound
        if rem_lam is None:
            try:
                bound_below = mag * xmin**s.real  # super-polynomial decay below xmin
            except OverflowError:  # as Perron refuses an x^c that overflows
                raise ParameterError(f"x^s overflows for s = {s} at x = {xmin}") from None
        else:
            gap = s.real - complex(rem_lam).real
            C = mag / xmin ** (-complex(rem_lam).real)
            bound_below = C * xmin**gap / gap
        if bound_below <= QUAD_TARGET / 10 or xmin < 1e-6:
            break
        xmin *= 0.5
    return xmin, bound_below


def _mellin_quad(F, expansion: AsymptoticExpansion, s: complex, xmin: float, bound_below: float):
    """The continuation at s from its cut: int_xmin^inf x^{s-1} (F(x) - [x < 1] F_N(x)) dx
    by `_de_quad`, split at the jump x = 1 (tanh-sinh on [xmin, 1], exp-sinh past it),
    plus the pole terms.  F, which takes an array of x, is read once per level.  The
    tail adds the rule's level difference, an estimate, to the bound on (0, xmin]."""

    def integrand(x: np.ndarray) -> np.ndarray:
        fx = F(x).value
        low = x < 1
        fx[low] -= expansion.leading_sum(x[low])
        out = np.zeros_like(fx)
        live = fx != 0  # where F has underflowed, x^{s-1} may overflow; the term is 0
        out[live] = x[live] ** (s - 1) * fx[live]
        return out

    value, error = _de_quad(integrand, xmin, 1.0)
    return TailedValue(complex(value) + expansion.pole_terms(s), error + bound_below, xmin)


def continue_Gzeta(
    system: GPrimeSystem,
    kernel: Kernel,
    expansion: AsymptoticExpansion,
    s: complex,
) -> TailedValue:
    """Meromorphic continuation of G(s) * zeta(s) from F's 0+ expansion, to QUAD_TARGET.

    Equals mellin_G(s) * zeta(s) on 1 < Re s < beta; poles at each expansion
    exponent, with order = polynomial degree + 1 (raised as PoleError).  Valid
    for Re s < beta and, unless the declared remainder is super-polynomial,
    Re s above the remainder exponent.  The integral from xmin is one
    `_de_quad` run that reads F once per level; the tail adds the difference
    of its last two levels, an estimate, to the (0, xmin] term.
    """
    s = complex(s)
    F = lambda x: partition_F(system, kernel, x, tail_tol=QUAD_TARGET * 1e-3)
    return _mellin_quad(F, expansion, s, *_mellin_cut(F, expansion, s, kernel.beta))


@dataclass(frozen=True)
class ResidualSeries:
    """Finite series H(x) = sum_k a_k x^{mu_k} (log x)^{nu_k}."""

    terms: tuple[tuple[complex, complex, int], ...]  # (a, mu, nu)

    @classmethod
    def from_terms(cls, terms) -> "ResidualSeries":
        merged: dict[tuple[complex, int], complex] = {}
        for a, mu, nu in terms:
            key = (complex(mu), int(nu))
            merged[key] = merged.get(key, 0.0 + 0.0j) + complex(a)
        cleaned = tuple(
            (a, mu, nu) for (mu, nu), a in sorted(merged.items(), key=lambda kv: (kv[0][0].real, kv[0][0].imag, kv[0][1])) if a != 0
        )
        return cls(cleaned)

    def evaluate(self, x: float) -> complex:
        lx = math.log(x)
        return sum(a * x**mu * lx**nu for a, mu, nu in self.terms) if self.terms else 0.0 + 0.0j


@dataclass(frozen=True)
class RationalPoleSum:
    """sum_k coeff_k / (s - pole_k)^{order_k}: the rational H-transform."""

    terms: tuple[tuple[complex, int, complex], ...]  # (pole, order, coeff)

    def evaluate(self, s: complex) -> complex:
        return sum(c / (complex(s) - p) ** k for p, k, c in self.terms) if self.terms else 0.0 + 0.0j

    def negated(self) -> "RationalPoleSum":
        return RationalPoleSum(tuple((p, k, -c) for p, k, c in self.terms))


def h_transform(H: ResidualSeries) -> RationalPoleSum:
    """H1(s) = int_0^1 x^{s-1} H(x) dx as a rational function.

    Each term gives a_k (-1)^{nu_k} nu_k! / (s + mu_k)^{nu_k + 1}; the
    companion H2 (the [1, inf) integral) is exactly the negation.
    """
    return RationalPoleSum(
        tuple(
            (-complex(mu), nu + 1, complex(a) * (-1) ** nu * math.factorial(nu))
            for a, mu, nu in H.terms
        )
    )


@dataclass(frozen=True)
class PartitionSpec:
    """A partition function F(x) = sum g(n x): system + kernel + 0+ expansion."""

    system: GPrimeSystem
    kernel: Kernel
    expansion: AsymptoticExpansion

    def F(self, x: float, tail_tol: float = 1e-15) -> TailedValue:
        return partition_F(self.system, self.kernel, x, tail_tol=tail_tol)


def theta_pair(limit: float = 10**4):
    """The classical self-dual theta pair over the naturals.

    F(x) = sum_{n>=1} e^{-pi n^2 x^2} satisfies F(x) = (1/x) F(1/x) + H(x)
    with H(x) = 1/(2x) - 1/2 (the modular identity for the full theta sum).
    """
    from .systems import rational_primes

    system = rational_primes(limit)
    spec = PartitionSpec(system, KERNELS["gauss"], EXPANSIONS["gauss"])
    H = ResidualSeries.from_terms([(0.5, -1.0, 0), (-0.5, 0.0, 0)])
    return spec, spec, H


@dataclass(frozen=True)
class FEResidual:
    value: complex
    tail_budget: float
    inconclusive: bool


def fe_residual(spec1: PartitionSpec, spec2: PartitionSpec, H: ResidualSeries, x: float) -> FEResidual:
    """F1(x) - (1/x) F2(1/x) - H(x); near zero on a sample set certifies the
    x-space side of the functional equation there.  Inconclusive when the
    tail budget passes FE_TOL."""
    if not (x > 0):
        raise ParameterError("fe_residual needs x > 0")
    f1 = spec1.F(x, tail_tol=FE_TOL * 1e-3)
    f2 = spec2.F(1.0 / x, tail_tol=FE_TOL * 1e-3)
    value = f1.value - f2.value / x - H.evaluate(x)
    budget = f1.tail_bound + f2.tail_bound / x
    return FEResidual(value, float(budget), bool(budget > FE_TOL))


@dataclass(frozen=True)
class FEMellinReport:
    rows: tuple[tuple[complex, complex, complex, float], ...]  # (s, psi1(1-s), psi2(s), |diff|)
    max_residual: float
    skipped: tuple[tuple[complex, str], ...]


def check_fe_mellin(spec1: PartitionSpec, spec2: PartitionSpec, s_grid) -> FEMellinReport:
    """Evaluate Psi1(1-s) and Psi2(s) independently, to QUAD_TARGET, and report the residuals.

    Each side is continued from its own expansion (no use of the functional
    relation), so agreement is evidence, not construction.  Each runs
    `_mellin_quad`'s double-exponential rule, whose level difference is an
    estimate, and both pass their pole and strip checks before either runs.
    Grid points within FE_POLE_SKIP of a declared pole of either side are skipped.
    """
    poles = [complex(lam) for lam, _ in spec2.expansion.terms]
    poles += [1 - complex(lam) for lam, _ in spec1.expansion.terms]
    rows = []
    skipped = []
    for s in s_grid:
        s = complex(s)
        near = [p for p in poles if abs(s - p) <= FE_POLE_SKIP]
        if near:
            skipped.append((s, f"within {FE_POLE_SKIP:g} of pole at {near[0]}"))
            continue
        sides = [
            (lambda x: spec1.F(x, tail_tol=QUAD_TARGET * 1e-3), spec1.expansion, 1 - s, spec1.kernel.beta),
            (lambda x: spec2.F(x, tail_tol=QUAD_TARGET * 1e-3), spec2.expansion, s, spec2.kernel.beta),
        ]
        cuts = [_mellin_cut(*side) for side in sides]  # both may refuse s before a quadrature
        psi1, psi2 = (_mellin_quad(*side[:3], *cut) for side, cut in zip(sides, cuts))
        rows.append((s, psi1.value, psi2.value, abs(psi1.value - psi2.value)))
    max_res = max((r[3] for r in rows), default=0.0)
    return FEMellinReport(tuple(rows), float(max_res), tuple(skipped))


# what malformed JSON content raises while it is decoded and read
_MALFORMED_JSON = (ValueError, LookupError, TypeError, OverflowError)


def expansion_from_json(text: str) -> AsymptoticExpansion:
    """Parse [{"lambda": [re, im], "coeffs": [[re, im], ...]}, ...]."""
    try:
        data = json.loads(text) if isinstance(text, str) else text
        terms = []
        for item in data:
            lam = complex(item["lambda"][0], item["lambda"][1])
            coeffs = tuple(complex(c[0], c[1]) for c in item["coeffs"])
            terms.append((lam, coeffs))
    except _MALFORMED_JSON as exc:
        raise ParameterError(f"malformed expansion: {exc!r}") from None
    return AsymptoticExpansion(tuple(terms))


def residual_series_from_json(text: str) -> ResidualSeries:
    """Parse [{"a": [re, im], "mu": [re, im], "nu": int}, ...]."""
    try:
        data = json.loads(text) if isinstance(text, str) else text
        return ResidualSeries.from_terms(
            (complex(i["a"][0], i["a"][1]), complex(i["mu"][0], i["mu"][1]), int(i["nu"]))
            for i in data
        )
    except _MALFORMED_JSON as exc:
        raise ParameterError(f"malformed residual series: {exc!r}") from None
