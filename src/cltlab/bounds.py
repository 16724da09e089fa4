"""Explicit moment and tail bounds for normed sums under mixing.

Everything here is a closed-form constant or a certified series evaluation:
the even-order combinatorial constant a_s (exact integer arithmetic), the
mixing-weighted series constant Z (bracketed in closed form, upper end kept),
the L^p(T)-integrated moment bound W, the superstrong-mixing constant K_N, and
the Chebyshev tail table Q(y) <= min(1, W/y^s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .mixing import (
    ALPHA_CAP,
    Explicit,
    Geometric,
    MDependent,
    MixingProfile,
    Polynomial,
    alpha_power,
    polynomial_power,
    value_at,
)

MAX_ORDER = 64

# The most terms the series engine sums in one float64 array (16 MB): the
# geometric tail's term budget, and the cap on explicit terms elsewhere.
MAX_TERMS = 1 << 21

# Where the geometric tail stops: the tail bound after the summed terms is at
# most this times the largest term, so it fixes the bracket's width relative to
# that term. The returned value is an upper bound whatever the constant is.
GEOMETRIC_TOL = 1e-10


@dataclass(frozen=True)
class UtevConstant:
    """Exact even-order constant and its s-th root."""

    s: int
    value: int
    root: float


@dataclass(frozen=True)
class KuCheck:
    s: int
    lhs: float
    rhs: float
    holds: bool


@dataclass(frozen=True)
class BoundReport:
    s: int
    v: float
    z_value: float
    y_value: Optional[float]
    bound: Optional[float]
    truncation_terms: int
    truncation_remainder: float


@dataclass(frozen=True)
class TailReport:
    w: float
    s: float
    y: tuple
    q_bound: tuple


@dataclass(frozen=True)
class VOptimum:
    v_star: Optional[float]
    bound: float
    evaluations: tuple


def _require_even_order(s: int) -> int:
    if int(s) != s or s % 2 != 0 or not (2 <= s <= MAX_ORDER):
        raise ValueError(f"order must be an even integer in [2, {MAX_ORDER}]")
    return int(s)


def utev_a(s: int) -> UtevConstant:
    """a_s = 12 (1 + 2s/3)(s - 1) 3^s (s!)^2 / ((s/2)!)^2, an exact integer.

    12 (1 + 2s/3) = 4 (3 + 2s), so the whole product stays in integer
    arithmetic; the s-th root is attached for direct use in norm bounds.
    """
    s = _require_even_order(s)
    value = 4 * (3 + 2 * s) * (s - 1) * 3**s * (math.factorial(s) // math.factorial(s // 2)) ** 2
    return UtevConstant(s=s, value=value, root=float(value) ** (1.0 / s))


def ku_constant() -> float:
    """The constant 2^(-5/12) * 3 * sqrt(7) * e^(2/e - 23/24) in double precision.

    Note: this evaluates to 4.7596854635..., not the commonly quoted decimal
    4.760327; the quoted decimal is inconsistent with the defining formula by
    about 1.3e-4 relative. The formula value is returned.
    """
    return 2.0 ** (-5.0 / 12.0) * 3.0 * math.sqrt(7.0) * math.exp(2.0 / math.e - 23.0 / 24.0)


def ku_check(s: int) -> KuCheck:
    """Audit of the claimed root growth bound a_s^(1/s) <= K_U * s at order s."""
    c = utev_a(s)
    lhs = c.root
    rhs = ku_constant() * s
    return KuCheck(s=c.s, lhs=lhs, rhs=rhs, holds=lhs <= rhs)


def ku_crossover(s_max: int = MAX_ORDER) -> Optional[int]:
    """Smallest even order from which the K_U growth bound holds through s_max.

    The bound fails at small orders (2 through 8) and holds from 10 on; this
    computes the crossover rather than assuming the claim.
    """
    orders = range(2, s_max + 1, 2)
    checks = [ku_check(s) for s in orders]
    crossover = None
    for chk in reversed(checks):
        if chk.holds:
            crossover = chk.s
        else:
            break
    return crossover


@dataclass(frozen=True)
class _SeriesSum:
    """A bracket [total - remainder, total] on an exact series; terms counts explicit terms."""

    total: float
    terms: int
    remainder: float

    def __add__(self, other: "_SeriesSum") -> "_SeriesSum":
        return _SeriesSum(self.total + other.total, self.terms + other.terms, self.remainder + other.remainder)


_INF = _SeriesSum(math.inf, 0, math.inf)


def _checked(total: float, terms: int, remainder: float) -> _SeriesSum:
    """The bracket, or +inf (still an upper bound) where float range ran out."""
    return _SeriesSum(float(total), terms, float(remainder)) if math.isfinite(total) else _INF


def _enclose(x: Fraction) -> np.ndarray:
    """Doubles [lo, hi] around an exact rational: a step each way from float(x), within half a step of it."""
    return np.nextafter(float(x), [-np.inf, np.inf])


def _fsum(values: np.ndarray) -> float:
    """Correctly rounded sum; +inf where it leaves float range (math.fsum raises there)."""
    try:
        return math.fsum(values.tolist())
    except OverflowError:
        return math.inf


def _power_sum(amp: float, j_hi: int, d: float) -> _SeriesSum:
    """amp * sum_{j=2}^{j_hi} j^d for d >= 0, in one call up to MAX_TERMS terms.

    Past that, x^d is nondecreasing, so its integrals over [1, j_hi] and
    [2, j_hi + 1] bracket the sum.
    """
    n = j_hi - 1
    with np.errstate(over="ignore", invalid="ignore"):
        if n <= MAX_TERMS:
            return _checked(amp * _fsum(np.arange(2.0, j_hi + 1.0) ** d), n, 0.0)
        lo, hi = amp * (np.float64([j_hi, j_hi + 1.0]) ** (d + 1.0) - np.float64([1.0, 2.0]) ** (d + 1.0)) / (d + 1.0)
        return _checked(hi, 0, hi - lo)


def _zeta_tail(amp: float, p: Fraction, r0: int) -> _SeriesSum:
    """amp * sum_{r>=r0} (r+1)^-p = amp * zeta(p, r0 + 1); +inf unless p > 1.

    n = 32 terms are summed, then the Euler-Maclaurin tail at a = r0 + 1 + n
    through the B6 term. x^-p is completely monotone, so the error has the
    sign of the first omitted (B8) term, negative, and is smaller in size
    (DLMF 2.10.1). The sum falls as p grows, so the upper end is taken
    below p and the lower end, less |B8 term|, above it.
    """
    p = _enclose(p)
    if p[0] <= 1.0:
        return _INF
    n = 32
    a = r0 + 1.0 + n
    head = (r0 + 1.0 + np.arange(float(n)))[:, None] ** -p
    f = a**-p
    # |f'(a)|, |f'''(a)|, |f^(5)(a)|, |f^(7)(a)|, one factor at a time so an underflowed f stays 0
    b2 = f * p / a
    b4 = b2 * (p + 1.0) / a * (p + 2.0) / a
    b6 = b4 * (p + 3.0) / a * (p + 4.0) / a
    b8 = b6 * (p + 5.0) / a * (p + 6.0) / a
    ends = np.array([_fsum(col) for col in head.T]) + a ** (1.0 - p) / (p - 1.0) + f / 2.0
    ends += b2 / 12.0 - b4 / 720.0 + b6 / 30240.0
    return _checked(amp * ends[0], n, amp * (ends[0] - ends[1] + b8[1] / 1209600.0))


def _geometric_tail(amp: float, q_lo: float, q_hi: float, d: float, r0: int) -> _SeriesSum:
    """amp * sum_{r>=r0} q^r (r+1)^d for q in [q_lo, q_hi] below 1 and d >= 0.

    d = 0 has the closed form amp q^r0 / (1 - q). Otherwise the sum stops at
    the first R >= r0 where kappa(R) = q ((R+3)/(R+2))^d < 1 and
    T(R) = amp q^(R+1) (R+2)^d / (1 - kappa(R)), a bound on the tail after R,
    is at most GEOMETRIC_TOL times the largest term; T falls with R, so R is
    bisected. Where the terms still grow at the end of the MAX_TERMS budget
    (kappa >= 1 there), the whole tail is bracketed by integrals instead,
    with no array.
    """
    if q_hi >= 1.0:
        return _INF
    if d == 0.0:
        hi = amp * q_hi**r0 / (1.0 - q_hi)
        return _SeriesSum(hi, 0, hi - amp * q_lo**r0 / (1.0 - q_lo))
    log_q = math.log(q_hi)

    def log_tail(R: int) -> float:  # log(T(R) / amp); +inf while kappa(R) >= 1
        log_kappa = log_q + d * math.log1p(1.0 / (R + 2.0))
        if log_kappa >= 0.0:
            return math.inf
        return (R + 1) * log_q + d * math.log(R + 2.0) - math.log1p(-math.exp(log_kappa))

    R, last = r0, r0 + MAX_TERMS - 1
    if math.isinf(log_tail(last)):
        return _geometric_integral_tail(amp, q_lo, q_hi, d, r0)
    peak = max(r0, int(-d / log_q) - 1)
    target = math.log(GEOMETRIC_TOL) + peak * log_q + d * math.log(peak + 1.0)
    while R < last:
        mid = (R + last) // 2
        if log_tail(mid) <= target:
            last = mid
        else:
            R = mid + 1
    r = r0 + np.arange(float(R - r0 + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        weights = (r + 1.0) ** d
        upper = amp * (_fsum(q_hi**r * weights) + np.exp(log_tail(R)))
        return _checked(upper, r.size, upper - amp * _fsum(q_lo**r * weights))


def _geometric_integral_tail(amp: float, q_lo: float, q_hi: float, d: float, r0: int) -> _SeriesSum:
    """amp * sum_{r>=r0} q^r (r+1)^d for d > 0, when the terms peak past r0 + 1.

    With u = r + 1 and lam = -log q the terms are g(u) / q, g(u) = exp(-lam u) u^d,
    which rises to its peak g* at u* = d / lam and then falls. Each term lies
    between the integrals of g over the unit steps on either side of it, but
    for at most two terms next to the peak, so with a = r0 + 1 <= u*
        int_0^inf g - a g(a) - g*  <=  sum_{u>=a} g(u)  <=  int_0^inf g + 2 g*,
    where int_0^inf g = Gamma(d+1) / lam^(d+1) and a g(a) bounds int_0^a g.
    The logarithms are padded by a relative 1e-12 (d + 1) for their rounding.
    """
    pad = 1e-12 * (d + 1.0)

    def ends(q: float) -> tuple:
        log_q = math.log(q)
        whole = math.lgamma(d + 1.0) - (d + 1.0) * math.log(-log_q) - log_q
        peak = d * (math.log(d / -log_q) - 1.0) - log_q
        head = math.log(r0 + 1.0) * (d + 1.0) + r0 * log_q
        with np.errstate(over="ignore"):
            return np.exp([whole, peak, head])

    whole, peak, _ = ends(q_hi)
    upper = amp * (whole + 2.0 * peak) * (1.0 + pad)
    whole, peak, head = ends(q_lo)
    lower = amp * (whole - peak - head) * (1.0 - pad)
    return _checked(upper, 0, upper - max(lower, 0.0))


def _first_unclipped(profile: MixingProfile) -> int:
    """First lag under the alpha cap (1 for beta), in closed form, then moved
    one lag against value_at if rounding misplaced it."""
    dec = profile.decay
    if profile.kind == "beta" or value_at(profile, 1) < ALPHA_CAP:
        return 1
    # c rho^r <= 1/4 from r = log(4c) / log(1/rho); c (r+1)^-theta <= 1/4 from r = (4c)^(1/theta) - 1
    x = math.log(4.0) + math.log(dec.c)
    x = x / -math.log(dec.rho) if isinstance(dec, Geometric) else math.exp(min(x / dec.theta, 700.0)) - 1.0
    r0 = max(2, math.ceil(x))
    if value_at(profile, r0) == ALPHA_CAP:
        return r0 + 1
    return r0 - 1 if r0 > 2 and value_at(profile, r0 - 1) < ALPHA_CAP else r0


def _lag_series(profile: MixingProfile, e: Fraction, d: float) -> _SeriesSum:
    """sum_{r>=1} value_at(profile, r)^e (r+1)^d for 0 < e <= 1 and d >= 0.

    value_at applies the alpha cap and the beta m-dependent convention. Lags
    1..r0-1 that the cap clips sum to cap^e sum_{j=2}^{r0} j^d; a misplaced
    r0 only overstates the sum.
    """
    dec = profile.decay
    if isinstance(dec, Explicit):
        vals = np.array([value_at(profile, r) for r in range(1, len(dec.values) + 1)])
        return _checked(_fsum(vals ** float(e) * np.arange(2.0, vals.size + 2.0) ** d), vals.size, 0.0)
    if isinstance(dec, MDependent):
        return _power_sum(value_at(profile, 1) ** float(e), dec.m + 1, d)
    if dec.c == 0.0 or getattr(dec, "rho", 1.0) == 0.0:
        return _SeriesSum(0.0, 0, 0.0)
    r0 = _first_unclipped(profile)
    head = _power_sum(ALPHA_CAP ** float(e), r0, d)
    if isinstance(dec, Polynomial):
        return head + _zeta_tail(dec.c ** float(e), polynomial_power(dec.theta, e, d), r0)
    q_lo = q_hi = dec.rho
    if e != 1:  # rho^e falls as e grows, and pow is within an ulp
        e_lo, e_hi = _enclose(e)
        q_lo, q_hi = math.nextafter(dec.rho**e_hi, 0.0), math.nextafter(dec.rho**e_lo, 1.0)
    return head + _geometric_tail(dec.c ** float(e), q_lo, q_hi, d, r0)


def _alpha_series(profile: MixingProfile, s: int, v: float) -> _SeriesSum:
    """sum_{r>=0} alpha(r)^(1-s/v) (r+1)^(s/2-1) with alpha(0) = 1/4, the universal
    bound that reduces the independent case to the closed form a_s (1/4)^(1-s/v)."""
    e = alpha_power(s, v)
    return _SeriesSum(ALPHA_CAP ** float(e), 1, 0.0) + _lag_series(profile, e, s / 2.0 - 1.0)


def z_value(profile: MixingProfile, s: int, v: float) -> BoundReport:
    """Mixing-series constant Z = (a_s * sum_r alpha^(1-s/v)(r) (r+1)^(s/2-1))^(1/s).

    Returns a report fragment (y_value and bound unset). Z uses the upper end
    of a certified bracket on the series: truncation_remainder is its width,
    truncation_terms the summed terms. A geometric tail stops where its bound
    is GEOMETRIC_TOL times the largest term; a polynomial one after 32 terms.
    Divergent series give z_value = +inf, never an exception.
    """
    s = _require_even_order(s)
    if profile.kind != "alpha":
        raise ValueError("z_value needs an alpha profile")
    if not (v > s):
        raise ValueError("requires v > s")
    ssum = _alpha_series(profile, s, float(v))
    z = (float(utev_a(s).value) * ssum.total) ** (1.0 / s)
    return BoundReport(
        s=s,
        v=float(v),
        z_value=z,
        y_value=None,
        bound=None,
        truncation_terms=ssum.terms,
        truncation_remainder=ssum.remainder,
    )


def with_y_value(report: BoundReport, y_value: float) -> BoundReport:
    """Complete a z_value fragment with the uniform v-norm level Y and the bound Z*Y."""
    return replace(report, y_value=float(y_value), bound=normed_sum_bound(y_value, report.z_value))


def sum_bound(per_term_v_norms: Sequence[float], z: float) -> float:
    """Bound Z * sqrt(sum_i ||X_i||_v^2) on the L^s norm of the raw sum."""
    norms = np.asarray(per_term_v_norms, dtype=float)
    if norms.ndim != 1 or norms.size == 0:
        raise ValueError("need a nonempty 1-d sequence of norms")
    if np.any(norms < 0.0) or not np.all(np.isfinite(norms)):
        raise ValueError("norms must be finite and nonnegative")
    if z < 0.0:
        raise ValueError("z must be nonnegative")
    rms = math.sqrt(math.fsum((norms * norms).tolist()))
    return normed_sum_bound(rms, z)


def normed_sum_bound(y: float, z: float) -> float:
    """Bound Z * Y on sup_n of the normalized-sum L^s norm; 0 * inf resolves to 0."""
    y = float(y)
    if y < 0.0 or math.isnan(y):
        raise ValueError("y must be nonnegative")
    if z < 0.0 or math.isnan(z):
        raise ValueError("z must be nonnegative")
    if y == 0.0:
        return 0.0
    return z * y


def default_v_grid(s: int) -> tuple:
    """Search grid s + 0.5, s + 1, ..., 2s, plus 3s."""
    grid = [s + 0.5 * k for k in range(1, 2 * s + 1)]
    grid.append(3.0 * s)
    return tuple(grid)


def optimize_over_v(
    profile: MixingProfile,
    s: int,
    x_vnorm: Callable[[float], float],
    v_grid: Optional[Sequence[float]] = None,
) -> VOptimum:
    """Minimize Z[alpha](s, v) * ||X||_v over a finite grid of v > s.

    x_vnorm must be nondecreasing in v (Lyapunov on a probability space); the
    trade-off is that larger v shrinks Z but grows the norm. Returns +inf with
    v_star None when every grid point diverges.
    """
    s = _require_even_order(s)
    grid = tuple(float(v) for v in (default_v_grid(s) if v_grid is None else v_grid))
    if len(grid) == 0:
        raise ValueError("v grid must be nonempty")
    if any(not (v > s) for v in grid):
        raise ValueError("every grid v must exceed s")
    evaluations = []
    best_v, best = None, math.inf
    for v in grid:
        z = z_value(profile, s, v).z_value
        val = normed_sum_bound(x_vnorm(v), z)
        evaluations.append((v, val))
        if val < best:
            best_v, best = v, val
    return VOptimum(v_star=best_v, bound=best, evaluations=tuple(evaluations))


def lp_moment_bound(profile: MixingProfile, s: int, v: float, sup_v_norm_integral: float) -> float:
    """Bound W = Z^s * I^(s/v) on sup_n E ||S_n||_{L^s(T)}^s.

    I is the integral over T of the supremum over i of E|xi_i(t)|^v. A null
    field (I = 0) gives 0 even when the series diverges.
    """
    s = _require_even_order(s)
    integral = float(sup_v_norm_integral)
    if integral < 0.0 or math.isnan(integral):
        raise ValueError("sup_v_norm_integral must be nonnegative")
    if integral == 0.0:
        return 0.0
    if profile.kind != "alpha":
        raise ValueError("lp_moment_bound needs an alpha profile")
    if not (v > s):
        raise ValueError("requires v > s")
    ssum = _alpha_series(profile, s, float(v))
    return float(utev_a(s).value) * ssum.total * integral ** (s / float(v))


def nachapetyan_k(profile: MixingProfile, s: float) -> float:
    """Superstrong-mixing constant K_N = 2s * (sum_{k>=1} beta(k) (k+1)^((s-2)/2))^(1/s).

    Upper end of a certified bracket (see z_value); +inf if divergent, 0 if beta vanishes from lag 1.
    """
    if profile.kind != "beta":
        raise ValueError("nachapetyan_k needs a beta profile")
    s = float(s)
    if not (2.0 <= s < math.inf):
        raise ValueError("requires 2 <= s < inf")
    ssum = _lag_series(profile, Fraction(1), (s - 2.0) / 2.0)
    return 2.0 * s * ssum.total ** (1.0 / s)


def nachapetyan_bound(k_n: float, sup_s_norm: float) -> float:
    """Bound K_N * sup_i ||X_i||_s on the normalized-sum L^s norm."""
    return normed_sum_bound(sup_s_norm, k_n)


def chebyshev_tail(w: float, s: float, y_grid: Sequence[float]) -> TailReport:
    """Tail table Q(y) <= min(1, W / y^s) for y >= 1; a probability, so capped at 1."""
    w = float(w)
    s = float(s)
    if w < 0.0 or math.isnan(w):
        raise ValueError("w must be nonnegative")
    if not (s >= 2.0):
        raise ValueError("requires s >= 2")
    y = np.asarray(y_grid, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("y grid must be a nonempty 1-d sequence")
    if np.any(y < 1.0) or not np.all(np.isfinite(y)):
        raise ValueError("tail levels must be finite and >= 1")
    with np.errstate(over="ignore"):
        q = np.minimum(1.0, w / y**s)
    return TailReport(w=w, s=s, y=tuple(y.tolist()), q_bound=tuple(q.tolist()))


def effective_even_order(s: float) -> int:
    """Smallest even integer >= s, for lifting a fractional order to an even one.

    The lift relies on norm monotonicity, which needs total mass 1.
    """
    s = float(s)
    if not (s >= 2.0) or math.isinf(s):
        raise ValueError("requires 2 <= s < inf")
    return int(math.ceil(s / 2.0)) * 2
