"""Kernel partition functions, Mellin transforms, and functional equations.

A kernel g with g(x) = O(x^alpha) at 0+ (alpha < 1) and O(x^-beta) at
infinity (beta > 1, possibly inf) defines the partition function
F(x) = sum_{n in N} g(n x) and the transform G(s) = int_0^inf x^{s-1} g.
On the strip the product G(s) * zeta(s) equals int_0^inf x^{s-1} F(x) dx,
and a verified asymptotic expansion of F at 0+ continues that integral to
the left: the expansion part integrates in closed form to the pole sum
  -sum_m m! a_m / (lambda_n - s)^{m+1}
per term, the subtracted integrand is quadratured on [xmin, 1], and the
[1, inf) piece converges for Re s < beta.

Sign conventions: alpha here is the 0+ exponent as used for continuation
(g = O(x^alpha)); the functional-equation statements use the opposite sign
(g = O(x^{-alpha_r})), so alpha_r = -alpha at that interface.  Expansions
are always supplied and verified, never fitted from data.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import mpmath as mp
import numpy as np

from .counting import _count_leq, g_integer_values
from .errors import ParameterError, PoleError, StripError
from .systems import GPrimeSystem, log_tolerance
from .zeta import TailedValue

QUAD_TARGET = 1e-10
POLE_TOL = 1e-9


@dataclass(frozen=True)
class Kernel:
    """A continuous kernel on (0, inf) with certified endpoint exponents.

    tail_integral(lo, scale) must bound int_lo^inf |g(t*scale)| dt; builtin
    kernels carry closed forms, custom kernels fall back to quadrature.
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
        val = mp.quad(lambda t: abs(self.evaluate(float(t * scale))), [lo, mp.inf])
        return float(val)


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
        lambda u: np.exp(-math.pi * u * u),
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
    (E_N = O(x^{-Re remainder_lambda} (log x)^k)); None means the remainder
    shrinks faster than any power (theta-type kernels).
    """

    terms: tuple[tuple[complex, tuple[complex, ...]], ...]
    remainder_lambda: complex | None = None
    remainder_log_power: int = 0

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

    def leading_sum(self, x: float) -> complex:
        lx = math.log(x)
        total = 0.0 + 0.0j
        for lam, coeffs in self.terms:
            poly = sum(a * lx**m for m, a in enumerate(coeffs))
            total += poly * x ** (-complex(lam))
        return total

    def pole_terms(self, s: complex) -> complex:
        """Closed-form continuation of int_0^1 x^{s-1} F_N(x) dx."""
        total = 0.0 + 0.0j
        for lam, coeffs in self.terms:
            dl = complex(lam) - s
            for m, a in enumerate(coeffs):
                total += -math.factorial(m) * a / dl ** (m + 1)
        return total

    def pole_near(self, s: complex, tol: float = POLE_TOL):
        for lam, coeffs in self.terms:
            if abs(s - complex(lam)) <= tol:
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


@lru_cache(maxsize=64)
def _cached_values(system: GPrimeSystem, bound: float) -> np.ndarray:
    return g_integer_values(system, bound)


@lru_cache(maxsize=32)
def _rho_hat(system: GPrimeSystem) -> float:
    n = _count_leq(system, math.log(system.limit), log_tolerance(system.limit))
    return n / system.limit


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
    x: float,
    cutoff: float | None = None,
    tail_tol: float = 1e-15,
) -> TailedValue:
    """F(x) = sum over g-integers n <= cutoff of g(n x), with a tail envelope.

    With cutoff omitted it is grown geometrically until the density-envelope
    tail rho_hat * int_cutoff^inf |g(t x)| dt falls below tail_tol, capped at
    the system horizon (an over-cap tail is reported, not fatal).
    """
    if not (x > 0):
        raise ParameterError(f"partition functions need x > 0, got {x}")
    rho = _rho_hat(system)
    if cutoff is None:
        cutoff = min(max(2.0, 2.0 / x), system.limit)
        while cutoff < system.limit and rho * kernel.tail(cutoff, x) > tail_tol:
            cutoff = min(cutoff * 2.0, system.limit)
    if cutoff > system.limit:
        raise ParameterError(f"cutoff {cutoff} exceeds system limit {system.limit}")
    vals = _cached_values(system, float(cutoff))
    total = complex(np.sum(_kernel_apply(kernel, vals * x)))
    tail = rho * kernel.tail(float(cutoff), x)
    return TailedValue(total, float(tail), "partition", float(cutoff))


def mellin_G(kernel: Kernel, s: complex, target: float = QUAD_TARGET) -> TailedValue:
    """G(s) = int_0^inf x^{s-1} g(x) dx on the strip alpha < Re s < beta.

    Tanh-sinh quadrature after splitting at 1 and substituting x = e^{-t}
    and x = e^{t}; the quadrature error estimate is reported.
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
    return TailedValue(complex(v1 + v2), float(e1 + e2), "mellin-G", math.inf)


@dataclass(frozen=True)
class ExpansionReport:
    """verify_expansion outcome: per-prefix fitted remainder exponents."""

    accepted: bool
    term_slopes: tuple[float, ...]
    required: tuple[float, ...]
    remainder_slope: float
    reason: str = ""


def verify_expansion(samples, expansion: AsymptoticExpansion, margin: float = 0.25) -> ExpansionReport:
    """Check that each expansion prefix improves the 0+ remainder order.

    samples: (x, F(x)) pairs at x = 2^{-j}, j increasing.  For every prefix
    of n terms the envelope |F - F_n| must shrink at least like the last
    included power improved by `margin`; a wrong coefficient freezes the
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
    required = []
    accepted = True
    reason = ""
    if not expansion.terms:
        slope = fit_slope(fs)
        ok = slope > -margin
        return ExpansionReport(
            ok, (), (), slope, "" if ok else "F unbounded at 0+ but expansion empty"
        )
    for n in range(1, len(expansion.terms) + 1):
        prefix = AsymptoticExpansion(expansion.terms[:n])
        rem = fs - np.array([prefix.leading_sum(x) for x in xs])
        slope = fit_slope(rem)
        need = -complex(expansion.terms[n - 1][0]).real + margin
        slopes.append(slope)
        required.append(need)
        if slope < need:
            accepted = False
            reason = (
                f"after {n} terms the remainder falls like x^{slope:.3g}, "
                f"not faster than the last term x^{need - margin:.3g}"
            )
            break
    return ExpansionReport(accepted, tuple(slopes), tuple(required), slopes[-1], reason)


def _continued_mellin(
    F,
    expansion: AsymptoticExpansion,
    s: complex,
    beta: float,
    target: float = QUAD_TARGET,
) -> TailedValue:
    """Continuation of int_0^inf x^{s-1} F(x) dx given F's 0+ expansion.

    F must be a callable returning a TailedValue.  Valid for Re s < beta and,
    unless the declared remainder is super-polynomial, Re s above the
    remainder exponent.
    """
    s = complex(s)
    hit = expansion.pole_near(s)
    if hit is not None:
        lam, order = hit
        raise PoleError(
            f"s = {s} is at the expansion pole lambda = {lam} (order {order})",
            location=lam,
            order=order,
        )
    if not (s.real < beta):
        raise StripError(f"Re s = {s.real} not below the decay exponent beta = {beta}")

    rem_lam = expansion.remainder_lambda
    if rem_lam is not None and s.real <= complex(rem_lam).real:
        raise StripError(
            f"Re s = {s.real} is not above the remainder exponent "
            f"{complex(rem_lam).real}; supply more expansion terms"
        )

    def subtracted(x: float) -> complex:
        r = F(x)
        return complex(r.value) - expansion.leading_sum(x)

    # walk xmin down until the neglected (0, xmin] piece is under target
    xmin = 0.5
    bound_below = math.inf
    for _ in range(40):
        probe = F(xmin)
        mag = abs(complex(probe.value) - expansion.leading_sum(xmin)) + probe.tail_bound
        if rem_lam is None:
            bound_below = mag * xmin**s.real  # super-polynomial decay below xmin
        else:
            gap = s.real - complex(rem_lam).real
            C = mag / (xmin ** (-complex(rem_lam).real) * max(1.0, abs(math.log(xmin)) ** expansion.remainder_log_power))
            bound_below = (
                C
                * xmin**gap
                / gap
                * max(1.0, abs(math.log(xmin)) ** expansion.remainder_log_power)
            )
        if bound_below <= target / 10 or xmin < 1e-6:
            break
        xmin *= 0.5

    sm = mp.mpc(s)
    v1, e1 = mp.quad(
        lambda x: mp.mpf(float(x)) ** (sm - 1) * subtracted(float(x)),
        [xmin, 1],
        error=True,
    )
    v2, e2 = mp.quad(
        lambda x: mp.mpf(float(x)) ** (sm - 1) * complex(F(float(x)).value),
        [1, mp.inf],
        error=True,
    )
    value = complex(v1) + expansion.pole_terms(s) + complex(v2)
    tail = float(e1 + e2) + bound_below
    return TailedValue(value, tail, "mellin-continued", xmin)


def continue_Gzeta(
    system: GPrimeSystem,
    kernel: Kernel,
    expansion: AsymptoticExpansion,
    s: complex,
    target: float = QUAD_TARGET,
) -> TailedValue:
    """Meromorphic continuation of G(s) * zeta(s) from F's 0+ expansion.

    Equals mellin_G(s) * zeta(s) on 1 < Re s < beta; poles at each expansion
    exponent, with order = polynomial degree + 1 (raised as PoleError).
    """
    F = lambda x: partition_F(system, kernel, x, tail_tol=target * 1e-3)
    return _continued_mellin(F, expansion, s, kernel.beta, target)


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

    def poles(self) -> tuple[complex, ...]:
        return tuple(p for p, _, _ in self.terms)


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
    expansion: AsymptoticExpansion | None = None
    label: str = ""

    def F(self, x: float, tail_tol: float = 1e-15) -> TailedValue:
        return partition_F(self.system, self.kernel, x, tail_tol=tail_tol)


def theta_pair(limit: float = 10**4):
    """The classical self-dual theta pair over the naturals.

    F(x) = sum_{n>=1} e^{-pi n^2 x^2} satisfies F(x) = (1/x) F(1/x) + H(x)
    with H(x) = 1/(2x) - 1/2 (the modular identity for the full theta sum).
    """
    from .systems import rational_primes

    system = rational_primes(limit)
    spec = PartitionSpec(system, KERNELS["gauss"], EXPANSIONS["gauss"], "theta")
    H = ResidualSeries.from_terms([(0.5, -1.0, 0), (-0.5, 0.0, 0)])
    return spec, spec, H


@dataclass(frozen=True)
class FEResidual:
    value: complex
    tail_budget: float
    inconclusive: bool


def fe_residual(
    spec1: PartitionSpec,
    spec2: PartitionSpec,
    H: ResidualSeries,
    x: float,
    tol: float = 1e-10,
) -> FEResidual:
    """F1(x) - (1/x) F2(1/x) - H(x); near zero on a sample set certifies the
    x-space side of the functional equation there."""
    if not (x > 0):
        raise ParameterError("fe_residual needs x > 0")
    f1 = spec1.F(x, tail_tol=tol * 1e-3)
    f2 = spec2.F(1.0 / x, tail_tol=tol * 1e-3)
    value = f1.value - f2.value / x - H.evaluate(x)
    budget = f1.tail_bound + f2.tail_bound / x
    return FEResidual(value, float(budget), bool(budget > tol))


@dataclass(frozen=True)
class FEMellinReport:
    rows: tuple[tuple[complex, complex, complex, float], ...]  # (s, psi1(1-s), psi2(s), |diff|)
    max_residual: float
    skipped: tuple[tuple[complex, str], ...]


def check_fe_mellin(
    spec1: PartitionSpec,
    spec2: PartitionSpec,
    s_grid,
    pole_skip: float = 1e-3,
    target: float = QUAD_TARGET,
) -> FEMellinReport:
    """Evaluate Psi1(1-s) and Psi2(s) independently and report the residuals.

    Each side is continued from its own expansion (no use of the functional
    relation), so agreement is evidence, not construction.  Grid points
    within pole_skip of a declared pole of either side are skipped.
    """
    if spec1.expansion is None or spec2.expansion is None:
        raise ParameterError("both partition specs need a declared 0+ expansion")
    poles = [complex(lam) for lam, _ in spec2.expansion.terms]
    poles += [1 - complex(lam) for lam, _ in spec1.expansion.terms]
    rows = []
    skipped = []
    for s in s_grid:
        s = complex(s)
        near = [p for p in poles if abs(s - p) <= pole_skip]
        if near:
            skipped.append((s, f"within {pole_skip:g} of pole at {near[0]}"))
            continue
        psi2 = _continued_mellin(
            lambda x: spec2.F(x, tail_tol=target * 1e-3),
            spec2.expansion,
            s,
            spec2.kernel.beta,
            target,
        )
        psi1 = _continued_mellin(
            lambda x: spec1.F(x, tail_tol=target * 1e-3),
            spec1.expansion,
            1 - s,
            spec1.kernel.beta,
            target,
        )
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
