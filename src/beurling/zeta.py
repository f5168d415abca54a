"""Beurling zeta and phi evaluators with reported tail bounds.

Three routes to zeta: the Euler product over primes, the Dirichlet series
over g-integers, and the Mellin identity against the exact step function
N(x).  phi(s) = -zeta'/zeta is summed over prime powers, and its remainder
representation continues it left of Re s = 1:

    phi(s) = sum_{n<=X} Lambda(n) n^{-s} + s/(s-1) * X^{1-s} - psi(X) X^{-s}
             + s * int_X^inf (psi(y)-y) y^{-s-1} dy,

where the last integral is the reported truncation term, bounded through a
fitted envelope |psi(y)-y| <= R y^alpha.  Integrals against step data are
summed in closed form between breakpoints; no numerical quadrature enters.

Abscissa renormalisation is never implicit: callers (and the CLI) apply the
power transform explicitly when they want the abscissa moved to 1.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

# bench/tracer.py counts the calls of zeta._power_sum_leq, and reads the cache_info() of
# zeta._psi_profile, which is not called here
from .counting import _power_sum_leq, _prime_powers, _psi_profile, _sorted_logs_leq  # noqa: F401
from .errors import DivergenceError, FitError, ParameterError, PoleError
from .systems import GPrimeSystem, log_top, per_system

DIVERGENCE_ABSCISSA = 1.0


@dataclass(frozen=True)
class TailedValue:
    """A complex value plus the bound/estimate for what was cut off."""

    value: complex
    tail_bound: float
    cutoff: float
    warnings: tuple[str, ...] = ()


def _require_convergent(s: complex, what: str) -> None:
    if s.real <= DIVERGENCE_ABSCISSA:
        raise DivergenceError(
            f"{what} is only certified for Re s > 1, got Re s = {s.real}"
        )


def _check_phase(s: complex, X: float) -> None:
    """X^{-s} = exp(-s log X), and n^{-s} for n <= X, have no value once s log X
    overflows.  An infinite X is left to the checks of the sums that reach it."""
    if math.isfinite(X) and not cmath.isfinite(s * math.log(X)):
        raise ParameterError(f"s * log X is not finite for s = {s} and X = {X}")


@per_system
def _pi_envelope(system: GPrimeSystem) -> float:
    """C with pi(t) <= C t on the stored range (extrapolated beyond it)."""
    counts = np.arange(1, system.nprimes + 1, dtype=float)
    return float(np.max(counts / np.asarray(system.primes)))


def zeta_euler(system: GPrimeSystem, s: complex, prime_cutoff: float | None = None) -> TailedValue:
    """Euler product over p <= cutoff with a rigorous tail bound.

    The neglected log-tail is bounded by sum_{p>X} p^{-sigma} / (1 - X^{-sigma})
    and the prime sum by the density envelope: sigma*C*X^(1-sigma)/(sigma-1).
    """
    s = complex(s)
    _require_convergent(s, "the Euler product")
    X = system.limit if prime_cutoff is None else float(prime_cutoff)
    if not (0 < X <= system.limit):
        raise ParameterError(f"prime cutoff {X} is outside (0, {system.limit}]")
    _check_phase(s, X)
    logs = system.log_primes
    sel = logs[logs <= log_top(X)]
    w = np.exp(-s * sel)
    value = complex(np.exp(-np.sum(np.log1p(-w))))
    sigma = s.real
    C = _pi_envelope(system)
    tail_log = sigma * C * X ** (1 - sigma) / (sigma - 1)
    tail_log /= max(1e-300, 1.0 - X ** (-sigma))
    bound = abs(value) * math.expm1(tail_log) if tail_log < 700 else math.inf
    return TailedValue(value, bound, X)


def zeta_dirichlet(system: GPrimeSystem, s: complex, integer_cutoff: float | None = None) -> TailedValue:
    """Dirichlet series over g-integers <= cutoff.

    The tail is estimated (not bounded) from the empirical density:
    rho_hat * X^(1-sigma) / (sigma - 1) with rho_hat = N(X)/X.
    """
    s = complex(s)
    _require_convergent(s, "the Dirichlet series")
    X = system.limit if integer_cutoff is None else float(integer_cutoff)
    if not (1 <= X <= system.limit):
        raise ParameterError(f"integer cutoff {X} is outside [1, {system.limit}]")
    _check_phase(s, X)
    value, count = _power_sum_leq(system, log_top(X), s)
    rho_hat = count / X
    sigma = s.real
    tail = rho_hat * X ** (1 - sigma) / (sigma - 1)
    return TailedValue(complex(value), float(tail), X)


def phi_dirichlet(system: GPrimeSystem, s: complex, cutoff: float | None = None) -> TailedValue:
    """phi(s) = sum Lambda(n) n^{-s} over prime powers n <= cutoff."""
    s = complex(s)
    _require_convergent(s, "the phi series")
    X = system.limit if cutoff is None else float(cutoff)
    if X > system.limit:
        raise ParameterError(f"cutoff {X} exceeds system limit {system.limit}")
    L, W, cum = _prime_powers(system, X)
    _check_phase(s, X)
    value = complex(np.sum(W * np.exp(-s * L)))
    sigma = s.real
    Cpsi = float(max(1.0, np.max(cum * np.exp(-L)))) if len(L) else 1.0
    tail = sigma * Cpsi * X ** (1 - sigma) / (sigma - 1)
    return TailedValue(value, float(tail), X)


@per_system
def _remainder_envelope(system: GPrimeSystem, x_max: float):
    """Fitted envelope |psi(y) - y| <= R y^alpha over the stored jump points.

    Top-half log-log least squares with a median-of-slopes fallback; the
    envelope constant R is then maximised over all sampled points so the
    bound is an upper envelope of the data rather than a regression line.
    """
    L, _, cum = _prime_powers(system, x_max)
    if len(L) < 2:
        return 1.0, 1.0
    v = np.exp(L)
    r_after = np.abs(cum - v)
    r_before = np.abs(np.concatenate([[0.0], cum[:-1]]) - v)
    r = np.maximum(r_after, r_before)
    # also sample just below x_max where psi stays flat and -y keeps growing
    r_end = abs(cum[-1] - x_max)
    logs_x = np.concatenate([L, [math.log(x_max)]])
    logs_r = np.log(np.maximum(np.concatenate([r, [r_end]]), 1e-300))
    half = len(logs_x) // 2
    xs, ys = logs_x[half:], logs_r[half:]
    if len(xs) >= 3 and np.ptp(xs) > 0:
        alpha = _loglog_slope(xs, ys)
    else:
        alpha = 1.0
    alpha = min(max(alpha, 0.0), 1.0)
    R = float(np.max(np.exp(logs_r - alpha * logs_x)))
    return R, alpha


def _loglog_slope(xs: np.ndarray, ys: np.ndarray) -> float:
    A = np.vstack([xs, np.ones_like(xs)]).T
    sol, *_ = np.linalg.lstsq(A, ys, rcond=None)
    slope = float(sol[0])
    if not math.isfinite(slope):
        pair = [
            (ys[j] - ys[i]) / (xs[j] - xs[i])
            for i in range(len(xs))
            for j in range(i + 1, len(xs))
            if xs[j] != xs[i]
        ]
        slope = float(np.median(pair)) if pair else 0.0
    return slope


def phi_continued(system: GPrimeSystem, s: complex, x_max: float | None = None) -> TailedValue:
    """Remainder-based continuation of phi(s), valid left of Re s = 1.

    Exact closed form of  s/(s-1) + s * int_1^X (psi(x)-x) x^{-s-1} dx  with
    the step/linear pieces integrated between breakpoints; the neglected
    integral beyond X is bounded through the fitted |psi - y| envelope.
    A warning is attached (not raised) when Re s is at or below the fitted
    envelope exponent, where the continuation is untrusted.
    """
    s = complex(s)
    if abs(s - 1) <= 1e-14:
        raise PoleError("phi has a simple pole at s = 1", order=1)
    X = system.limit if x_max is None else float(x_max)
    if X > system.limit:
        raise ParameterError(f"x_max {X} exceeds system limit {system.limit}")
    L, W, cum = _prime_powers(system, X)
    _check_phase(s, X)
    psi_X = float(cum[-1]) if len(cum) else 0.0
    series = complex(np.sum(W * np.exp(-s * L)))
    value = series + s / (s - 1) * X ** (1 - s) - psi_X * X ** (-s)
    R, alpha = _remainder_envelope(system, X)
    warns: tuple[str, ...] = ()
    sigma = s.real
    if sigma > alpha:
        tail = abs(s) * R * X ** (alpha - sigma) / (sigma - alpha)
    else:
        tail = math.inf
    if sigma <= alpha + 1e-9:
        warns = (
            f"Re s = {sigma:g} is not above the fitted remainder exponent "
            f"{alpha:.3g}; continuation untrusted here",
        )
    return TailedValue(value, float(tail), X, warns)


def zeta_mellin_identity_check(system: GPrimeSystem, s: complex, x_max: float) -> float:
    """|s * int_1^X N(x) x^{-s-1} dx + N(X) X^{-s}  -  Dirichlet sum at X|.

    The integral is summed exactly between consecutive g-integers (no
    quadrature error) and completed with the frozen-N boundary term, so the
    residual isolates bookkeeping errors in either route.
    """
    s = complex(s)
    _require_convergent(s, "the Mellin identity")
    if not (1 <= x_max <= system.limit):
        raise ParameterError(f"x_max {x_max} is outside [1, {system.limit}]")
    _check_phase(s, x_max)
    logs = _sorted_logs_leq(system, x_max)
    # segment [v_k, v_{k+1}) carries N = k+1; the last runs to X
    lo = np.exp(-s * logs)
    hi = np.empty_like(lo)
    hi[:-1] = lo[1:]
    hi[-1] = x_max ** (-s)
    counts = np.arange(1, len(logs) + 1)
    integral = complex(np.sum(counts * (lo - hi)))
    completed = integral + len(logs) * x_max ** (-s)
    dirichlet = zeta_dirichlet(system, s, x_max).value
    return abs(completed - dirichlet)


@dataclass(frozen=True)
class OrderFit:
    """Least-squares estimate of the order mu(sigma) from a t-grid."""

    mu_hat: float
    intercept: float
    residuals: tuple[float, ...]
    log_abs_zeta: tuple[float, ...]


def _log_abs_zeta(system: GPrimeSystem, sigma: float, t: float) -> float:
    """log |zeta(sigma + it)|, using the continued phi when sigma <= 1."""
    if sigma > 1:
        return math.log(abs(zeta_euler(system, complex(sigma, t)).value))
    base = math.log(abs(zeta_euler(system, complex(2.0, t)).value))
    nodes, weights = np.polynomial.legendre.leggauss(24)
    a, b = sigma, 2.0
    ys = 0.5 * (b - a) * nodes + 0.5 * (a + b)
    vals = [phi_continued(system, complex(y, t)).value for y in ys]
    integral = 0.5 * (b - a) * np.dot(weights, vals)
    return base + integral.real


def estimate_order(system: GPrimeSystem, sigma: float, t_grid) -> OrderFit:
    """Fitted slope of log |zeta(sigma+it)| against log t (exploratory)."""
    ts = [float(t) for t in t_grid]
    if len(ts) < 10:
        raise FitError(f"order fit needs >= 10 grid points, got {len(ts)}")
    if any(t2 <= t1 for t1, t2 in zip(ts, ts[1:])) or ts[0] <= 0:
        raise ParameterError("t_grid must be positive and strictly increasing")
    la = [_log_abs_zeta(system, sigma, t) for t in ts]
    xs = np.log(np.asarray(ts))
    ys = np.asarray(la)
    slope = _loglog_slope(xs, ys)
    intercept = float(np.mean(ys) - slope * np.mean(xs))
    resid = tuple(float(y - (slope * x + intercept)) for x, y in zip(xs, ys))
    return OrderFit(slope, intercept, resid, tuple(map(float, la)))


@dataclass(frozen=True)
class AbSystemEstimate:
    """Envelope-fit exponents for psi(x)-x and N(x)-rho*x.  Non-rigorous."""

    alpha_hat: float
    beta_hat: float
    rho_hat: float
    theta_hat: float
    alpha_degenerate: bool
    beta_degenerate: bool


def classify_ab(system: GPrimeSystem, x_grid) -> AbSystemEstimate:
    """Fit [alpha, beta] exponents over a grid spanning >= 2 decades.

    alpha_hat: log-slope of |psi(x) - x|; rho_hat: least-squares density of
    N(x) ~ rho x over the top half; beta_hat: log-slope of |N(x) - rho x|.
    Degenerate fits (no linear term in N, e.g. one-prime systems) are
    flagged and the corresponding exponent is reported as nan.
    """
    from .counting import counting_report

    grid = np.asarray(sorted(float(x) for x in x_grid))
    if len(grid) < 4:
        raise ParameterError("classification grid needs >= 4 points")
    if grid[-1] / grid[0] < 100.0:
        raise ParameterError("classification grid must span at least 2 decades")
    rep = counting_report(system, grid)
    half = len(grid) // 2
    xs_log = np.log(grid[half:])

    r_psi = np.abs(rep.psi[half:] - grid[half:])
    alpha_deg = bool(np.all(r_psi < 1e-9))
    alpha_hat = (
        float("nan") if alpha_deg else _loglog_slope(xs_log, np.log(np.maximum(r_psi, 1e-300)))
    )

    rho_hat = rep.rho_hat
    r_n = np.abs(rep.N[half:] - rho_hat * grid[half:])
    # no linear term: the fit residual stays comparable to N itself
    beta_deg = bool(np.max(r_n) > 0.5 * np.max(rep.N)) or bool(np.all(r_n < 1e-9))
    beta_hat = (
        float("nan") if beta_deg else _loglog_slope(xs_log, np.log(np.maximum(r_n, 1e-300)))
    )

    valid = [v for v in (alpha_hat, beta_hat) if math.isfinite(v)]
    theta = max(valid) if valid else float("nan")
    return AbSystemEstimate(alpha_hat, beta_hat, rho_hat, theta, alpha_deg, beta_deg)
