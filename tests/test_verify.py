"""Statistical verdicts: KS machinery, CLT checks, bound audits, projections."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import ks_2samp, kstest, kstwobign

from cltlab import (
    FieldSpec,
    Geometric,
    IidNormal,
    IidRademacher,
    MaQ,
    MDependent,
    MixingProfile,
    Polynomial,
    ar1_unit_marginal,
    basis_matrix,
    factorize_covariance,
    ks_two_sample,
    limit_covariance,
    projection_variance_check,
    summarize_norm_powers,
    uniform_grid,
    verify_clt,
    verify_moment_bound,
    verify_superstrong,
)
from cltlab import verify
from cltlab.fieldgen import long_run_covariance
from cltlab.montecarlo import project, sn_coordinates

from conftest import assert_rel


def kolmogorov_series(z: float, terms: int = 200) -> float:
    """Independent oracle: P(sup|B| > z) = 2 sum_{k>=1} (-1)^(k-1) exp(-2 k^2 z^2)."""
    if z <= 0.0:
        return 1.0
    return 2.0 * math.fsum((-1.0) ** (k - 1) * math.exp(-2.0 * k * k * z * z) for k in range(1, terms))


def test_ks_identical_samples():
    a = np.array([1.0, 2.0, 3.0])
    res = ks_two_sample(a, a)
    assert res.stat == 0.0 and res.p_value == 1.0


def test_ks_disjoint_supports():
    res = ks_two_sample([1.0, 2.0], [10.0, 11.0, 12.0])
    assert res.stat == 1.0


def test_ks_stat_matches_scipy_exactly():
    rng = np.random.default_rng(3)
    a = rng.normal(size=401)
    b = rng.normal(0.3, 1.3, size=650)
    mine = ks_two_sample(a, b)
    ref = ks_2samp(a, b, method="asymp")
    assert mine.stat == float(ref.statistic)


def test_ks_p_value_matches_series_oracle():
    rng = np.random.default_rng(4)
    for sizes in ((100, 100), (250, 400), (2000, 2000)):
        a = rng.normal(size=sizes[0])
        b = rng.normal(size=sizes[1])
        res = ks_two_sample(a, b)
        en = sizes[0] * sizes[1] / (sizes[0] + sizes[1])
        assert_rel(res.p_value, kolmogorov_series(math.sqrt(en) * res.stat), 1e-10)
    # frozen point: the asymptotic survival function at z = 1
    assert_rel(kolmogorov_series(1.0), 0.26999967167735456, 1e-12)


def test_ks_invariant_under_increasing_transform():
    rng = np.random.default_rng(5)
    a = rng.normal(size=300)
    b = rng.normal(0.1, 1.0, size=350)
    plain = ks_two_sample(a, b)
    warped = ks_two_sample(np.exp(a), np.exp(b))
    assert plain.stat == warped.stat and plain.p_value == warped.p_value


def test_ks_validation():
    with pytest.raises(ValueError):
        ks_two_sample([], [1.0])
    with pytest.raises(ValueError):
        ks_two_sample([1.0], [math.nan])


def test_ks_null_calibration_rejection_rate():
    # 200 independent null pairs; at 1% significance the asymptotic test is
    # conservative, so the rejection rate stays inside [0, 0.04]
    rejections = 0
    for pair in range(200):
        rng = np.random.default_rng(10_000 + pair)
        a = rng.normal(size=2000)
        b = rng.normal(size=2000)
        if ks_two_sample(a, b).p_value <= 0.01:
            rejections += 1
    assert rejections <= 8  # 0.04 * 200


def test_verify_clt_gaussian_closed_case(const_normal_field, grid16):
    summary = verify_clt(const_normal_field, [16, 64], 2.0, grid16, 400, seed=0)
    assert summary.converged
    last = summary.verdicts[-1]
    assert last.n == 64 and last.passed and last.reps_limit == 1600
    assert 0.0 <= last.ks_stat <= 1.0 and 0.0 <= last.p_value <= 1.0


def test_verify_clt_null_p_values_are_uniform(const_normal_field, grid16):
    # S_n of the const iid-normal field has exactly its limit law, so over
    # fixed seeds the p-values at n = 1024 are null draws: a null control for
    # the streams, the sampler and the KS test together
    p_values = [
        verify_clt(const_normal_field, [1024], 2.0, grid16, 200, seed=s).verdicts[-1].p_value for s in range(300)
    ]
    assert kstest(p_values, "uniform").pvalue > 0.01


def test_verify_clt_trend_rule_is_sized_for_a_step():
    # the iid-normal field has exactly its limit law at every n, so a KS step
    # is a difference of two null statistics and at most 1% of runs should
    # report a trend, 4 of 400 or 2 of 200; the bounds leave room for spread
    grid = uniform_grid(8)
    spec = FieldSpec(basis=basis_matrix("fourier", 3, grid), driver=IidNormal(k=3))
    for schedule, runs, most in (([16, 32], 400, 12), (None, 200, 8)):
        flagged = sum(bool(verify_clt(spec, schedule, 3.0, grid, 200, seed=s).trend_violations) for s in range(runs))
        assert flagged <= most, (schedule, flagged)


@pytest.mark.parametrize("steps", [1, 8])
def test_trend_threshold_against_quadrature(steps):
    # P(K' - K > t) for independent Kolmogorov K, K', by adaptive quadrature
    def exceed(t):
        return integrate.quad(lambda y: kstwobign.pdf(y) * kstwobign.sf(y + t), 0.0, 5.0, limit=200)[0]

    t = verify.trend_threshold(0.01, steps)
    assert exceed(t) <= 0.01 / steps < exceed(t - 1.0 / 1024)


def test_verify_clt_rejects_wrong_limit(const_normal_field, grid16):
    base = limit_covariance(const_normal_field, grid16)
    wrong = factorize_covariance(9.0 * base.factor @ base.factor.T)
    summary = verify_clt(const_normal_field, [16, 64], 2.0, grid16, 400, seed=0, limit_field=wrong)
    assert not summary.converged
    assert not summary.verdicts[-1].passed


def test_verify_clt_validation(const_normal_field, grid16):
    with pytest.raises(ValueError):
        verify_clt(const_normal_field, [16], 2.0, grid16, 400, significance=0.5)
    with pytest.raises(ValueError):
        verify_clt(const_normal_field, [], 2.0, grid16, 400)



@pytest.mark.parametrize("reps", [0, 50])
def test_verify_clt_checks_reps_before_sampling_the_limit(const_normal_field, grid16, monkeypatch, reps):
    def refuse(*args, **kwargs):
        raise AssertionError("the limit law was sampled")

    monkeypatch.setattr(verify, "sample_limit_norms", refuse)
    with pytest.raises(ValueError, match="needs at least 100 replications"):
        verify_clt(const_normal_field, [16], 2.0, grid16, reps)

def test_verify_moment_bound_iid_satisfied(const_normal_field, grid16):
    verdict = verify_moment_bound(
        const_normal_field, 2, 4.0, grid16, 400, n_schedule=[16, 64], seed=0
    )
    assert_rel(verdict.theoretical, 504.0 * math.sqrt(3.0), 1e-12)
    assert verdict.satisfied and not verdict.vacuous
    assert verdict.slack > 800.0
    assert verdict.empirical.value == max(e.value for e in verdict.estimates)
    assert verdict.sup_label == "max over simulated n schedule"


def test_verify_moment_bound_rademacher_uses_monte_carlo(grid16):
    spec = FieldSpec(basis=basis_matrix("const", 1, grid16), driver=IidRademacher())
    verdict = verify_moment_bound(spec, 2, 4.0, grid16, 300, n_schedule=[16], seed=0)
    assert verdict.method.endswith("monte_carlo")
    assert verdict.satisfied and not verdict.vacuous


def test_verify_superstrong_satisfied_and_exact_constant(const_normal_field, grid16):
    beta = MixingProfile("beta", Geometric(1.0, 0.5))
    verdict = verify_superstrong(
        const_normal_field, beta, 2.0, reps=300, grid=grid16, n_schedule=[16, 64], seed=0
    )
    # K_N = 4 exactly and sup E xi^2 = 1: theoretical (4 * 1)^2
    assert verdict.theoretical == 16.0
    assert verdict.satisfied and not verdict.vacuous


def test_verify_superstrong_vacuous_on_divergent_profile(const_normal_field, grid16):
    beta = MixingProfile("beta", Polynomial(1.0, 1.0))
    verdict = verify_superstrong(
        const_normal_field, beta, 4.0, reps=200, grid=grid16, n_schedule=[16], seed=0
    )
    assert verdict.vacuous and verdict.satisfied
    assert math.isinf(verdict.theoretical)


def test_verdict_reads_largest_upper_ci_limit():
    # n=16: mean 1.0 with no spread; n=32: lower mean 0.9 but a wide CI reaching above 1.1
    tight = summarize_norm_powers(np.ones(100), 16, 2.0, 2.0)
    wide = summarize_norm_powers(np.sqrt(np.tile([0.0, 1.8], 50)), 32, 2.0, 2.0)
    verdict = verify._verdict(2.0, 2.0, [tight, wide], 1.05, "superstrong/analytic")
    by_mean = max(verdict.estimates, key=lambda e: e.value)
    assert by_mean.n == 16 and by_mean.ci_high <= verdict.theoretical
    assert verdict.empirical.n == 32 and verdict.empirical.ci_high > verdict.theoretical
    assert not verdict.satisfied and verdict.slack < 0.0


def test_verify_moment_bound_ma_driver(grid16):
    spec = FieldSpec(basis=basis_matrix("const", 1, grid16), driver=MaQ(weights=(1.0, 1.0)))
    verdict = verify_moment_bound(spec, 4, 8.0, grid16, 300, n_schedule=[16, 64], seed=2)
    assert verdict.satisfied and not verdict.vacuous


def test_projection_variance_const_field(const_normal_field, grid16):
    chk = projection_variance_check(const_normal_field, np.ones(16), 64, grid16, 500, seed=5)
    assert_rel(chk.analytic, 1.0, 1e-12)
    assert chk.within_ci


def test_projection_variance_zero_functional(const_normal_field, grid16):
    chk = projection_variance_check(const_normal_field, np.zeros(16), 64, grid16, 200, seed=5)
    assert chk.empirical == 0.0 and chk.analytic == 0.0 and chk.within_ci


def test_projection_variance_fourier_orthonormality(grid16):
    spec = FieldSpec(basis=basis_matrix("fourier", 3, grid16), driver=IidNormal(k=3))
    x = basis_matrix("fourier", 3, grid16)[1]
    chk = projection_variance_check(spec, x, 64, grid16, 600, seed=6)
    assert_rel(chk.analytic, 1.0, 1e-10)  # quadrature orthonormality is exact here
    assert chk.within_ci


def test_projection_variance_matches_the_grid_path():
    # the functional of each replication's grid row, against the one of its basis coordinates
    grid = uniform_grid(64)
    spec = FieldSpec(basis=basis_matrix("fourier", 5, grid), driver=MaQ(weights=(1.0, 0.5), k=5), scale_decay=0.5)
    x = 0.5 + np.cos(2.0 * math.pi * grid.points) + grid.points**2
    reps = 700
    chk = projection_variance_check(spec, x, 32, grid, reps, seed=3)
    wx = grid.weights * x
    draw, basis = sn_coordinates(spec, 32, grid, 3, reps)
    rows = project(draw(0, reps), basis)
    assert_rel(chk.empirical, float(np.mean(((rows * wx).sum(axis=1)) ** 2)), 1e-12)
    assert_rel(chk.analytic, float(wx @ (spec.basis.T @ long_run_covariance(spec) @ spec.basis) @ wx), 1e-12)


def traced_peak_mb(run) -> float:
    """Peak traced allocation of run() in MB, after one untraced call warms imports and caches."""
    run(uniform_grid(8))
    grid = uniform_grid(4096)
    tracemalloc.start()
    try:
        run(grid)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def fourier3(grid):
    return FieldSpec(basis=basis_matrix("fourier", 3, grid), driver=IidNormal(k=3))


def test_verify_clt_holds_no_grid_by_grid_matrix():
    # a 4096 x 4096 covariance alone would be 128 MB
    peak = traced_peak_mb(lambda grid: verify_clt(fourier3(grid), [16], 2.0, grid, 100, seed=0))
    assert peak < 8.0, peak


def test_projection_variance_holds_no_grid_by_grid_matrix():
    peak = traced_peak_mb(lambda grid: projection_variance_check(fourier3(grid), np.ones(grid.size), 16, grid, 300))
    assert peak < 8.0, peak


def test_projection_variance_validation(const_normal_field, grid16):
    with pytest.raises(ValueError):
        projection_variance_check(const_normal_field, np.ones(4), 64, grid16, 500)
    with pytest.raises(ValueError):
        projection_variance_check(const_normal_field, np.ones(16), 64, grid16, 50)


def test_verify_clt_ar1_converges(grid16):
    spec = FieldSpec(basis=basis_matrix("const", 1, grid16), driver=ar1_unit_marginal(0.5))
    summary = verify_clt(spec, [64, 256], 2.0, grid16, 400, seed=3)
    assert summary.verdicts[-1].passed


def test_slack_shrinks_when_profile_grows(const_normal_field, grid16):
    # same sample, larger alpha series constant: slack must decrease
    tight = verify_moment_bound(const_normal_field, 2, 4.0, grid16, 300, n_schedule=[16], seed=7)
    slow = MixingProfile("alpha", Geometric(1.0, 0.9))
    from cltlab import lp_moment_bound, sup_v_norm

    integral = sup_v_norm(const_normal_field, grid16, 4.0)
    wider = lp_moment_bound(slow, 2, 4.0, integral)
    assert wider > tight.theoretical
    assert wider - tight.empirical.ci_high > tight.slack
