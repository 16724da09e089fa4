"""Statistical verdicts: KS machinery, CLT checks, bound audits, projections."""

import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

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


def test_verify_clt_rejects_wrong_limit(const_normal_field, grid16):
    base = limit_covariance(const_normal_field, grid16)
    wrong = factorize_covariance(base.covariance * 9.0)
    summary = verify_clt(const_normal_field, [16, 64], 2.0, grid16, 400, seed=0, limit_field=wrong)
    assert not summary.converged
    assert not summary.verdicts[-1].passed


def test_verify_clt_validation(const_normal_field, grid16):
    with pytest.raises(ValueError):
        verify_clt(const_normal_field, [16], 2.0, grid16, 400, significance=0.5)
    with pytest.raises(ValueError):
        verify_clt(const_normal_field, [], 2.0, grid16, 400)
    with pytest.raises(ValueError):
        verify_clt(const_normal_field, [16], 2.0, grid16, 400, limit_factor=0)



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
