"""Statistical verification: CLT convergence, moment-bound audits, projections.

Empirical distributions of ||S_n||_p are compared against the sampled limit
law with a two-sample Kolmogorov-Smirnov test (asymptotic p-value at effective
size mn/(m+n)); moment bounds are audited by comparing the upper end of a 99%
CI against the theoretical constant, with divergent constants reported as
vacuously satisfied rather than hidden.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .bounds import lp_moment_bound, nachapetyan_bound, nachapetyan_k
from .discretize import GridSpace
from .fieldgen import FieldSpec
from .limitlaw import LimitField, limit_covariance, sample_limit_norms
from .mixing import MixingProfile, profile_for_driver
from .montecarlo import (
    CI_Z,
    MomentEstimate,
    check_reps,
    default_n_schedule,
    project,
    replicate_norms,
    run_chunked,
    sn_coordinates,
    summarize_norm_powers,
    sup_v_norm,
)
from .rng import SeedLike, seed_path

# Limiting std of sqrt(N) * D under the null, reported as the noise of one KS statistic.
KS_STAT_STD = 0.26

# The limit sample is this many times each finite-n sample, so limit-sampling
# noise is the smaller part of a KS statistic's noise.
LIMIT_FACTOR = 4

SUP_LABEL = "max over simulated n schedule"


class KsResult(NamedTuple):
    stat: float
    p_value: float


def _schedule(n_schedule: Optional[Sequence[int]]) -> tuple:
    raw = n_schedule if n_schedule is not None else default_n_schedule()
    out = tuple(sorted(int(n) for n in raw))
    if len(out) == 0 or out[0] < 1:
        raise ValueError("n schedule must be nonempty with positive entries")
    return out


def ks_two_sample(a: Sequence[float], b: Sequence[float]) -> KsResult:
    """Two-sample KS statistic and asymptotic Kolmogorov p-value.

    The p-value uses the effective sample size mn/(m+n); it is the classical
    large-sample approximation, invariant under strictly increasing transforms
    of the data.
    """
    # scipy only here, so importing the package does not load it
    from scipy.special import kolmogorov

    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be nonempty")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("samples must be finite")
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    stat = float(np.max(np.abs(cdf_a - cdf_b)))
    en = a.size * b.size / (a.size + b.size)
    p = float(kolmogorov(math.sqrt(en) * stat))
    return KsResult(stat=stat, p_value=min(max(p, 0.0), 1.0))


@lru_cache(maxsize=None)
def trend_threshold(significance: float, steps: int) -> float:
    """Smallest multiple t of 1/1024 with P(K' - K > t) <= significance / steps, K and K' iid Kolmogorov.

    P(K' - K > t) integrates S(y + t), S = scipy.special.kolmogorov, against
    the law of K: a sum over the cells of width 1/1024 on [0, 4), where
    S < 1e-13, of each cell's mass times S at its midpoint plus t.
    """
    # scipy only here, so importing the package does not load it
    from scipy.special import kolmogorov

    cells = 4 * 1024
    half = kolmogorov(np.arange(4 * cells + 1) / 2048.0)  # S at the cells' ends and midpoints
    mass = half[0 : 2 * cells : 2] - half[2 : 2 * cells + 2 : 2]

    def below(j: int) -> bool:
        return mass @ half[2 * j + 1 : 2 * j + 2 * cells : 2] <= significance / steps

    return bisect_left(range(cells), True, key=below) / 1024.0


@dataclass(frozen=True)
class CltVerdict:
    n: int
    p: float
    ks_stat: float
    p_value: float
    reps_finite: int
    reps_limit: int
    passed: bool


@dataclass(frozen=True)
class CltSummary:
    verdicts: tuple
    converged: bool
    noise_scale: float
    trend_violations: tuple


def verify_clt(
    spec: FieldSpec,
    n_schedule: Optional[Sequence[int]],
    p: float,
    grid: GridSpace,
    reps: int,
    significance: float = 0.01,
    seed: SeedLike = 0,
    threads: int = 1,
    limit_field: Optional[LimitField] = None,
) -> CltSummary:
    """KS-compare ||S_n||_p against the sampled limit law along an n schedule.

    The limit sample is LIMIT_FACTOR times larger than each finite-n sample
    so limit sampling noise is subdominant. Convergence means: passed at the
    largest n, and no KS-statistic step up along the schedule above
    trend_threshold(significance, steps) / sqrt(n_eff), n_eff the KS
    effective size. A null statistic is asymptotically Kolmogorov /
    sqrt(n_eff), so at most a share significance of runs from the limit law
    report a trend (Bonferroni over the steps; the shared limit sample makes
    a step smaller). noise_scale is the null std of one statistic.
    limit_field overrides the model-implied limit (power checks with a
    deliberately wrong limit).

    For a Rademacher driver the p-values lean small at moderate n, and are not
    null draws, because the lattice law of S_n really differs from its limit:
    from 4M exact binomial sums, the KS distance between the law of ||S_n||_2
    and its limit is 0.069 at n = 16 and 0.0027 at n = 1024, and 6000
    simulated checks at n = 1024 gave p-values whose KS-uniformity p was
    0.0065, against 0.14 for a limit-against-limit control.
    """
    reps = check_reps(reps)
    if not (0.0 < significance <= 0.1):
        raise ValueError("significance must be in (0, 0.1]")
    schedule = _schedule(n_schedule)
    field = limit_field if limit_field is not None else limit_covariance(spec, grid)
    reps_limit = reps * LIMIT_FACTOR
    limit_norms = sample_limit_norms(field, p, grid, reps_limit, seed_path(seed, 1), threads)
    verdicts = []
    for n in schedule:
        finite = replicate_norms(spec, n, p, grid, reps, seed_path(seed, 0, n), threads)
        ks = ks_two_sample(finite, limit_norms)
        verdicts.append(
            CltVerdict(
                n=n,
                p=float(p),
                ks_stat=ks.stat,
                p_value=ks.p_value,
                reps_finite=reps,
                reps_limit=reps_limit,
                passed=ks.p_value > significance,
            )
        )
    n_eff = reps * reps_limit / (reps + reps_limit)
    steps = list(zip(verdicts, verdicts[1:]))
    threshold = trend_threshold(significance, len(steps)) / math.sqrt(n_eff) if steps else math.inf
    violations = tuple(
        (a.n, b.n, b.ks_stat - a.ks_stat) for a, b in steps if b.ks_stat - a.ks_stat > threshold
    )
    converged = verdicts[-1].passed and not violations
    return CltSummary(
        verdicts=tuple(verdicts),
        converged=converged,
        noise_scale=KS_STAT_STD / math.sqrt(n_eff),
        trend_violations=violations,
    )


@dataclass(frozen=True)
class BoundVerdict:
    s: float
    v: float
    empirical: MomentEstimate
    theoretical: float
    satisfied: bool
    slack: float
    vacuous: bool
    method: str
    sup_label: str
    estimates: tuple


def _verdict(
    s: float,
    v: float,
    estimates: Sequence[MomentEstimate],
    theoretical: float,
    method: str,
) -> BoundVerdict:
    """Compare the bound with the largest upper CI limit over the schedule.

    The conservative reading: the verdict's empirical estimate is the one with
    the largest ci_high, not the largest mean, so the bound is satisfied only if
    no n of the schedule has an upper limit above it.
    """
    empirical = max(estimates, key=lambda e: e.ci_high)
    satisfied = empirical.ci_high <= theoretical
    return BoundVerdict(
        s=float(s),
        v=float(v),
        empirical=empirical,
        theoretical=theoretical,
        satisfied=satisfied,
        slack=theoretical - empirical.ci_high,
        vacuous=math.isinf(theoretical),
        method=method,
        sup_label=SUP_LABEL,
        estimates=tuple(estimates),
    )


def _audit(
    spec: FieldSpec,
    s: float,
    v: float,
    grid: GridSpace,
    reps: int,
    n_schedule: Optional[Sequence[int]],
    seed: SeedLike,
    threads: int,
    bound: Callable[[float], float],
    method: str,
) -> BoundVerdict:
    """Both audits: I = sup_v_norm at v on the streams seed_path(seed, 1), then
    bound(I), then E||S_n||_s^s with its CI for each n of the schedule on the
    streams seed_path(seed, 0, n). method gets "/analytic" or "/monte_carlo"
    appended, as sup_v_norm found I for the driver."""
    schedule = _schedule(n_schedule)
    integral = sup_v_norm(spec, grid, v, seed=seed_path(seed, 1))
    theoretical = bound(integral)
    s = float(s)
    estimates = [
        summarize_norm_powers(replicate_norms(spec, n, s, grid, reps, seed_path(seed, 0, n), threads), n, s, s)
        for n in schedule
    ]
    kind = "analytic" if spec.driver.is_gaussian else "monte_carlo"
    return _verdict(s, v, estimates, theoretical, method=f"{method}/{kind}")


def verify_moment_bound(
    spec: FieldSpec,
    s: int,
    v: float,
    grid: GridSpace,
    reps: int,
    n_schedule: Optional[Sequence[int]] = None,
    seed: SeedLike = 0,
    threads: int = 1,
) -> BoundVerdict:
    """Audit sup_n E||S_n||_s^s <= W = Z^s I^(s/v) for the profile certified by the driver.

    I is sup_v_norm at v: in closed form for a Gaussian driver, else a Monte
    Carlo mean over sup_v_norm's default 2000 replications. The sup over n is
    approximated by the max over the schedule and labeled as such, and read
    conservatively: satisfied only if the largest upper 99% CI limit over the
    schedule is at most W. Divergent W gives a vacuous verdict (satisfied, flagged), never an
    exception.
    """
    bound = partial(lp_moment_bound, profile_for_driver(spec.driver), s, v)
    return _audit(spec, s, v, grid, reps, n_schedule, seed, threads, bound, "mixing-series")


def verify_superstrong(
    spec: FieldSpec,
    beta_profile: MixingProfile,
    s: float,
    reps: int,
    grid: GridSpace,
    n_schedule: Optional[Sequence[int]] = None,
    seed: SeedLike = 0,
    threads: int = 1,
) -> BoundVerdict:
    """Audit the superstrong-mixing bound (K_N I^(1/s))^s on sup_n E||S_n||_s^s.

    I is sup_v_norm at v = s, found as in verify_moment_bound. As there, the
    verdict is satisfied only if the largest upper 99% CI limit over the
    schedule is at most the bound.
    """
    k_n = nachapetyan_k(beta_profile, s)

    def bound(integral: float) -> float:
        return nachapetyan_bound(k_n, integral ** (1.0 / s)) ** s

    return _audit(spec, s, s, grid, reps, n_schedule, seed, threads, bound, "superstrong")


@dataclass(frozen=True)
class ProjectionCheck:
    empirical: float
    analytic: float
    within_ci: bool
    ci_half_width: float


def projection_variance_check(
    spec: FieldSpec,
    x: Sequence[float],
    n: int,
    grid: GridSpace,
    reps: int,
    seed: SeedLike = 0,
    threads: int = 1,
) -> ProjectionCheck:
    """Variance of the linear functional integral S_n x dmu vs x^T (W R W) x = ||F^T W x||^2.

    R = F F^T is the limit covariance, W the diagonal quadrature weights; the
    projection has mean zero, so the empirical variance is the uncentered mean
    of squares. A one-dimensional necessary condition for the limit law.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size != grid.size:
        raise ValueError("x must be a 1-d grid functional")
    if not np.all(np.isfinite(x)):
        raise ValueError("x must be finite")
    reps = check_reps(reps)
    wx = grid.weights * x
    analytic = float(np.sum((limit_covariance(spec, grid).factor.T @ wx) ** 2))
    draw, basis = sn_coordinates(spec, n, grid, seed, reps)
    # a replication's coordinates dotted with basis @ wx, one coordinate at a time, so its
    # value does not depend on its block
    column = (basis @ wx)[:, None]
    proj = np.concatenate(run_chunked(lambda lo, hi: project(draw(lo, hi), column)[:, 0], reps, threads))
    sq = proj * proj
    empirical = float(np.mean(sq))
    se = math.sqrt(max(float(np.mean((sq - empirical) ** 2)), 0.0) / reps)
    half = CI_Z * se
    return ProjectionCheck(
        empirical=empirical,
        analytic=analytic,
        within_ci=abs(empirical - analytic) <= half,
        ci_half_width=half,
    )
