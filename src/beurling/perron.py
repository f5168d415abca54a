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
integral is twice the real part of the half line's.  Both trapezoids, fine and
step-doubled, come from one non-uniform FFT: O(m log m + terms) work, O(m) memory.

The contour is never pushed left of Re s = 1: the continuation left of 1 is
fit-dependent and would break the rigorous-by-construction budget.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .counting import PIECE, nearest_gintegers, prime_power_table, psi as psi_exact
from .errors import IncompleteSystemError, ParameterError, UnstablePointError
from .systems import GPrimeSystem

MAX_NODES = 10**7  # 2T/step, the nodes of the whole line [-T, T], at most: so the FFT has about as many points
KERNEL_WIDTH = 16  # FFT grid points each non-uniform point reads; a power of 2
OVERSAMPLING = 2  # FFT points per node of the half line, at least; 2 or more, so the line fits in n/2
# the Kaiser-Bessel kernel's shape for that width and oversampling (Beatty, Nishimura & Pauly 2005)
_BETA = math.pi * math.sqrt((KERNEL_WIDTH / OVERSAMPLING * (OVERSAMPLING - 0.5)) ** 2 - 0.8)
_INV_2PI = (0.15915494309189535, -9.839338337591243e-18)  # 1/2pi = hi + lo


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


def _half_grid(T: float, step: float) -> np.ndarray:
    """t_j = j T/m for j = 0..m, m = ceil(T/step) rounded up to even.

    m is even so that every other node, the step-doubled grid of the
    quadrature estimate, also ends at T; t[1] is linspace's step T/m.
    """
    m = math.ceil(T / step)
    return np.linspace(0.0, T, m + m % 2 + 1)


def _two_product(a, b):
    """(p, e) with p + e = a * b exactly: Dekker's product of Veltkamp's halves."""
    ah, bh = 134217729.0 * a, 134217729.0 * b  # 2^27 + 1
    ah, bh = ah - (ah - a), bh - (bh - b)
    p = a * b
    return p, ((ah * bh - p) + ah * (b - bh) + (a - ah) * bh) + (a - ah) * (b - bh)


def _line_sums(L, wc, x: float, c: float, t) -> tuple[float, float]:
    """The fine and the step-doubled trapezoid of (1/pi) Re int_0^T phi(c + it) x^s/s dt.

    With t_j = j h (j = 0..m, m even), g_j = x^s/s at s = c + i t_j, phi(c + it) = sum_k
    wc_k e^{-i t L_k}, theta_k = h L_k and S(theta) = sum_j g_j e^{-i j theta}, they are
    h Re sum_k wc_k [S(theta_k) - (g_0 + g_m e^{-i m theta_k})/2] / pi and
    h Re sum_k wc_k [S(theta_k) + S(theta_k + pi) - g_0 - g_m e^{-i m theta_k}] / pi.
    S at those 2 x terms points is one type-2 non-uniform FFT (Dutt & Rokhlin 1993) with a
    Kaiser-Bessel kernel.  Phases are taken in turns from h L_k / 2pi in double-double: e^{-i j theta}
    is coherent over j, so a float theta's last bit would move S by up to m ulps of theta.
    """
    m = len(t) - 1
    half, h = m // 2, float(t[1])
    size = OVERSAMPLING * (m + 1)  # at least 6, as m >= 2
    n = min(1 << (size - 1).bit_length(), 3 << max(2, (-(-size // 3) - 1).bit_length()))  # 2^a or 3 2^a, 4 | n
    cols = n // 2
    # row 0: g centred on j = m/2, over the kernel's transform, wrapped into n/2 points; its FFT
    # is the even grid points.  Row 1: the same times e^{-2 pi i k/n}; its FFT, the odd ones.
    rows = np.zeros((2, cols), complex)
    pos, neg = rows[0, : half + 1], rows[0, cols - half :]
    s = c + 1j * t
    g = s * math.log(x)  # x^s / s in place, the ufuncs of np.exp(s * log x) / s
    np.exp(g, out=g)
    g /= s
    del s  # before `shift` below, where the traced peak falls
    edge = 0.5 * g[0], 0.5 * g[m]
    # 1 over the kernel's Fourier transform W sinh(r)/r, r = sqrt(beta^2 - (pi W k/n)^2)
    r = np.sqrt(_BETA**2 - (np.arange(half + 1) * (math.pi * KERNEL_WIDTH / n)) ** 2)
    r /= KERNEL_WIDTH * np.sinh(r)
    np.multiply(g[half:], r, out=pos)
    np.multiply(g[:half], r[:0:-1], out=neg)
    shift = np.exp(np.arange(half + 1) * (-2j * math.pi / n))
    np.multiply(pos, shift, out=rows[1, : half + 1])
    np.multiply(neg, shift[:0:-1].conj(), out=rows[1, cols - half :])
    del g, r, shift
    for row in rows:  # two FFTs of n/2 points need half the scratch of one of n
        np.fft.fft(row, out=row)
    q_hi, q_lo = _two_product(h, _INV_2PI[0])
    q_lo += h * _INV_2PI[1]

    offsets = np.arange(KERNEL_WIDTH) - (KERNEL_WIDTH // 2 - 1)  # the grid points a point reads
    sums = np.empty((2, len(L)))
    step = PIECE // (4 * KERNEL_WIDTH)  # np.i0's temporaries are about ten kernels' size
    for start in range(0, len(L), step):
        Lp = L[start : start + step]
        u, e = _two_product(q_hi, Lp)  # h L / 2pi = u + e + q_lo L
        top = np.floor(u * 2.0**26) / 2.0**26  # u's bits down to 2^-26: n top is exact
        rest = (u - top) + (e + q_lo * Lp)
        whole = np.floor(n * top)  # n u = n top + n rest, the grid position; n top is exact
        frac = n * top - whole + n * rest  # within n 2^-26 of [0, 1)
        carry = np.floor(frac)
        whole, frac = whole + carry, frac - carry
        z = (frac[:, None] - offsets) * (2.0 / KERNEL_WIDTH)  # in [-1, 1]: W is a power of 2
        kernel = np.i0(_BETA * np.sqrt(1.0 - z * z))
        at = (whole.astype(np.int64)[:, None] + offsets) % n
        parity, col = at & 1, at >> 1
        centre = np.exp(-2j * math.pi * ((half * top) % 1.0 + half * rest))
        tail = edge[0] + edge[1] * centre * centre
        fine = centre * np.einsum("ij,ij->i", rows[parity, col], kernel) - tail
        # theta + pi sits n/2 grid points on, at the same kernel weights; its centring adds (-1)^(m/2)
        shifted = np.einsum("ij,ij->i", rows[parity, (col + n // 4) % cols], kernel)
        sums[:, start : start + step] = fine.real, (fine + (-1) ** half * centre * shifted - tail).real
    fine, coarse = sums @ wc * (h / math.pi)
    return float(fine), float(coarse)


def perron_psi(system: GPrimeSystem, params: PerronParams) -> PerronResult:
    """Numerical Perron integral for psi(x), with a bounding error budget.

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
    t = _half_grid(T, params.step)
    # (1/2pi) int_{-T}^{T} = (1/pi) Re int_0^T, term for term: the t = 0 node is real
    integral_fine, integral_coarse = _line_sums(L, W * np.exp(-c * L), x, c, t)
    quad_est = 2.0 * abs(integral_fine - integral_coarse) / 3.0

    # classical per-term truncation error for every included prime power
    dlog = math.log(x) - L
    with np.errstate(divide="ignore"):
        lemma = np.minimum(1.0, 1.0 / (T * np.abs(dlog)))
    term_errors = W * np.exp(c * dlog) * lemma
    near_mask = np.abs(dlog) < math.log(2.0)
    near = float(np.sum(term_errors[near_mask]))
    far = float(np.sum(term_errors[~near_mask]))

    budget = PerronBudget(far, near, quad_est)
    return PerronResult(value=integral_fine, budget=budget, nodes=len(t))


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
