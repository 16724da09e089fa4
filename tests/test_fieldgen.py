"""Drivers, bases and field sampling: moments, reproducibility, sup-norms."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from cltlab import (
    Ar1,
    FieldSpec,
    IidNormal,
    IidRademacher,
    MaQ,
    abs_normal_moment,
    ar1_unit_marginal,
    basis_matrix,
    custom_grid,
    estimate_moment,
    field_from_config,
    long_run_covariance,
    sample_sequence,
    sup_v_norm,
    uniform_grid,
)
from cltlab import montecarlo
from cltlab.fieldgen import _l2, driver_from_dict, driver_to_dict
from cltlab.rng import stream

from conftest import assert_rel


def test_abs_normal_moment_frozen():
    assert_rel(abs_normal_moment(2.0), 1.0, 1e-15)
    assert_rel(abs_normal_moment(4.0), 3.0, 1e-14)
    assert_rel(abs_normal_moment(6.0), 15.0, 1e-14)
    assert_rel(abs_normal_moment(8.0), 105.0, 1e-14)
    # odd order: E|N|^3 = 2 sqrt(2/pi)
    assert_rel(abs_normal_moment(3.0), 2.0 * math.sqrt(2.0 / math.pi), 1e-14)
    with pytest.raises(ValueError):
        abs_normal_moment(-1.0)


def test_driver_moment_metadata():
    d = IidNormal(sigma=2.0)
    assert d.marginal_variance == 4.0
    assert d.long_run_variance() == 4.0
    assert d.autocovariance(1) == 0.0

    r = IidRademacher()
    assert r.marginal_variance == 1.0 and not r.is_gaussian

    ma = MaQ(weights=(1.0, 1.0))
    assert ma.order == 1
    assert_rel(ma.marginal_variance, 1.0, 1e-14)
    assert_rel(ma.autocovariance(1), 0.5, 1e-14)
    assert ma.autocovariance(2) == 0.0
    assert_rel(ma.long_run_variance(), 2.0, 1e-14)

    ar = ar1_unit_marginal(0.5)
    assert_rel(ar.marginal_variance, 1.0, 1e-14)
    assert_rel(ar.autocovariance(1), 0.5, 1e-14)
    assert_rel(ar.long_run_variance(), 3.0, 1e-14)


def test_driver_validation():
    with pytest.raises(ValueError):
        IidNormal(sigma=-1.0)
    with pytest.raises(ValueError):
        IidNormal(k=0)
    with pytest.raises(ValueError):
        MaQ(weights=())
    with pytest.raises(ValueError):
        MaQ(weights=(0.0, 0.0))
    with pytest.raises(ValueError):
        Ar1(rho=1.0)
    # sigma must keep every stored weight (weights times sigma) finite and normal
    with pytest.raises(ValueError):
        MaQ(weights=(3.0,), sigma=1.7976931348623157e308)
    with pytest.raises(ValueError):
        MaQ(weights=(3.0,), sigma=5e-324)
    with pytest.raises(ValueError):
        MaQ(weights=(1.0, 1e-300), sigma=1e-10)
    assert MaQ(weights=(1.0, 0.0, 1.0), sigma=1e-300).weights[1] == 0.0



@pytest.mark.parametrize(
    "make",
    [
        lambda: IidNormal(sigma=1e160),
        lambda: MaQ(weights=(1.0,), sigma=1e160),
        # marginal variance 1.44e308, long-run variance 100^2 times that
        lambda: MaQ(weights=(1.0,) * 100, sigma=1.2e154),
        lambda: Ar1(rho=0.5, sigma_innov=1e160),
        # marginal variance 5e305, long-run variance 1e312
        lambda: Ar1(rho=0.999999, sigma_innov=1e150),
    ],
    ids=["iid_normal", "ma_q", "ma_q-long-run", "ar1", "ar1-long-run"],
)
def test_drivers_reject_variances_that_overflow(make):
    with pytest.raises(ValueError, match="variances must be finite"):
        make()


def test_drivers_accept_large_finite_variances():
    assert_rel(IidNormal(sigma=1e150).marginal_variance, 1e300, 1e-15)
    assert math.isfinite(Ar1(rho=0.5, sigma_innov=1e150).long_run_variance())

def test_ma_weights_are_normalized_to_marginal_sigma():
    ma = MaQ(weights=(1.0, 1.0), sigma=1.0)
    assert_rel(ma.weights[0], 1.0 / math.sqrt(2.0), 1e-15)
    ma2 = MaQ(weights=(3.0, 4.0), sigma=2.0)
    assert_rel(sum(w * w for w in ma2.weights), 4.0, 1e-14)


def test_sample_sequence_bit_reproducible():
    grid = uniform_grid(8)
    spec = FieldSpec(basis=basis_matrix("fourier", 3, grid), driver=IidNormal(k=3))
    a = sample_sequence(spec, 32, grid, 123)
    b = sample_sequence(spec, 32, grid, 123)
    assert np.array_equal(a, b)
    c = sample_sequence(spec, 32, grid, 124)
    assert not np.array_equal(a, c)


def test_sample_sequence_shapes_and_validation():
    grid = uniform_grid(8)
    spec = FieldSpec(basis=basis_matrix("const", 1, grid), driver=IidNormal())
    assert sample_sequence(spec, 5, grid, 0).shape == (5, 8)
    with pytest.raises(ValueError):
        sample_sequence(spec, 0, grid, 0)
    with pytest.raises(ValueError):
        sample_sequence(spec, 5, uniform_grid(4), 0)
    with pytest.raises(ValueError):
        FieldSpec(basis=basis_matrix("const", 1, grid), driver=IidNormal(k=2))


def test_ma_empirical_lag_one_autocovariance():
    ma = MaQ(weights=(1.0, 1.0))
    x = ma.sample_component(np.random.default_rng(7), 200_000)
    emp = float(np.mean(x[1:] * x[:-1]))
    se = math.sqrt(2.0 / x.size)  # crude scale for the lag product
    assert abs(emp - 0.5) < 4.0 * se


def test_ar1_empirical_marginal_and_lag_one():
    ar = ar1_unit_marginal(0.5)
    x = ar.sample_component(np.random.default_rng(8), 200_000)
    assert abs(float(np.var(x)) - 1.0) < 0.02
    emp = float(np.mean(x[1:] * x[:-1]))
    assert abs(emp - 0.5) < 0.02


def test_ar1_stationary_start():
    # the first value is already marginal: variance across replications
    ar = ar1_unit_marginal(0.9)
    rng = np.random.default_rng(9)
    first = np.array([ar.sample_component(np.random.default_rng(rng.integers(2**63)), 2)[0] for _ in range(4000)])
    assert abs(float(np.var(first)) - 1.0) < 0.08


def test_ar1_rho_zero_matches_iid_in_law():
    # same law, different draws: compare moments, not bits
    ar = Ar1(rho=0.0, sigma_innov=1.0)
    x = ar.sample_component(np.random.default_rng(10), 100_000)
    assert abs(float(np.mean(x))) < 0.02
    assert abs(float(np.var(x)) - 1.0) < 0.02
    assert ar.long_run_variance() == 1.0


@settings(max_examples=60, deadline=None)
@given(
    rho=st.floats(min_value=-1.0, max_value=1.0, exclude_min=True, exclude_max=True),
    sigma_innov=st.floats(0.0, 10.0),
    n=st.integers(1, 4096),
    k=st.integers(1, 4),
    scaled=st.booleans(),
    seed=st.integers(0, 2**32),
)
@example(rho=0.9999, sigma_innov=1.0, n=4096, k=3, scaled=True, seed=0)
@example(rho=-0.999999, sigma_innov=0.3, n=1, k=1, scaled=False, seed=1)
def test_ar1_recurrence_matches_lfilter_bit_for_bit(rho, sigma_innov, n, k, scaled, seed):
    # the path and the time-sum law's reverse weights against scipy's first-order filter
    ar = Ar1(rho=rho, sigma_innov=sigma_innov, k=k)
    draws = stream(seed).standard_normal((k, n + 1))
    x0 = draws[:, :1] * math.sqrt(ar.marginal_variance)
    path, _ = lfilter([1.0], [1.0, -rho], draws[:, 1:] * sigma_innov, axis=-1, zi=rho * x0)
    assert np.array_equal(ar.sample_component(stream(seed), n, k), path)
    assert np.array_equal(ar.sample_component(stream(seed), n), path[0])

    scales = np.random.default_rng(seed).uniform(0.1, 10.0, n) if scaled else None
    b = lfilter([1.0], [1.0, -rho], (np.ones(n) if scales is None else scales)[::-1])[::-1]
    start = rho * b[0] / math.sqrt((1.0 - rho) * (1.0 + rho))
    assert ar.time_sum_law(n, scales).sd == sigma_innov * _l2(np.append(start, b))


def ulps_off(value, exact):
    """|value - exact| in units of the last place of value."""
    return abs(Fraction(value) - exact) / Fraction(math.ulp(value))


@pytest.mark.parametrize("rho", [0.9999, -0.9999, 0.999999, -0.999999])
def test_ar1_variances_near_unit_root_against_exact_fractions(rho):
    sigma = 0.3
    one_minus_sq = 1 - Fraction(rho) ** 2
    ar = Ar1(rho=rho, sigma_innov=sigma)
    assert ulps_off(ar.marginal_variance, Fraction(sigma) ** 2 / one_minus_sq) <= 2
    assert ulps_off(ar.long_run_variance(), Fraction(sigma) ** 2 / (1 - Fraction(rho)) ** 2) <= 2
    # sqrt(1 - rho^2) lies within 2 ulps of the unit-marginal innovation scale
    s = ar1_unit_marginal(rho).sigma_innov
    lo, hi = Fraction(s - 2 * math.ulp(s)), Fraction(s + 2 * math.ulp(s))
    assert lo**2 < one_minus_sq < hi**2


def test_basis_matrix_families():
    grid = uniform_grid(16)
    const = basis_matrix("const", 1, grid)
    assert np.array_equal(const, np.ones((1, 16)))
    with pytest.raises(ValueError):
        basis_matrix("const", 2, grid)

    four = basis_matrix("fourier", 3, grid)
    assert four.shape == (3, 16)
    gram = (four * grid.weights) @ four.T
    assert np.allclose(gram, np.eye(3), atol=1e-12)

    ind = basis_matrix("indicator", 4, grid)
    assert ind.shape == (4, 16)
    assert np.array_equal(ind.sum(axis=0), np.ones(16))  # partition of the interval

    with pytest.raises(ValueError):
        basis_matrix("wavelet", 2, grid)


def test_long_run_covariance_shapes():
    grid = uniform_grid(8)
    spec = FieldSpec(basis=basis_matrix("const", 1, grid), driver=IidNormal())
    assert np.array_equal(long_run_covariance(spec), np.eye(1))
    spec = FieldSpec(basis=basis_matrix("fourier", 3, grid), driver=ar1_unit_marginal(0.5, k=3))
    assert np.allclose(long_run_covariance(spec), 3.0 * np.eye(3), atol=1e-14)
    spec = FieldSpec(basis=basis_matrix("fourier", 3, grid), driver=MaQ(weights=(1.0, 1.0), k=3))
    assert np.allclose(long_run_covariance(spec), 2.0 * np.eye(3), atol=1e-14)


def test_sup_v_norm_analytic_const_basis():
    grid = uniform_grid(16)
    spec = FieldSpec(basis=basis_matrix("const", 1, grid), driver=IidNormal(sigma=1.0))
    assert_rel(sup_v_norm(spec, grid, 4.0), 3.0, 1e-12)
    assert_rel(sup_v_norm(spec, grid, 2.0), 1.0, 1e-12)
    spec2 = FieldSpec(basis=basis_matrix("const", 1, grid), driver=IidNormal(sigma=2.0))
    assert_rel(sup_v_norm(spec2, grid, 2.0), 4.0, 1e-12)


def test_sup_v_norm_analytic_fourier_sum_of_squares():
    # sum of squared fourier rows is identically 3, so var(t) = 3 everywhere
    grid = uniform_grid(16)
    spec = FieldSpec(basis=basis_matrix("fourier", 3, grid), driver=IidNormal(k=3))
    assert_rel(sup_v_norm(spec, grid, 2.0), 3.0, 1e-12)
    assert_rel(sup_v_norm(spec, grid, 4.0), 27.0, 1e-12)  # 3 * (3)^2


def test_sup_v_norm_single_sine_row():
    # E xi(t)^2 = 2 sin^2(2 pi t), integral 1; midpoint rule is exact here
    grid = uniform_grid(16)
    row = math.sqrt(2.0) * np.sin(2.0 * math.pi * grid.points)
    spec = FieldSpec(basis=row[None, :], driver=IidNormal())
    assert_rel(sup_v_norm(spec, grid, 2.0), 1.0, 1e-12)


def test_sup_v_norm_takes_the_monte_carlo_path_for_rademacher(monkeypatch):
    grid = uniform_grid(8)
    spec = FieldSpec(basis=basis_matrix("const", 1, grid), driver=IidRademacher())
    calls = []
    sample = montecarlo.replicate_norms

    def recorded(*args, **kwargs):
        calls.append(args)
        return sample(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "replicate_norms", recorded)
    # |xi| = 1, so the v-norm integral is exactly 1 in Monte Carlo
    assert_rel(sup_v_norm(spec, grid, 4.0, reps=200, seed=0), 1.0, 1e-12)
    assert [a[1:3] for a in calls] == [(1, 4.0)]


def test_sup_v_norm_monte_carlo_close_to_analytic():
    grid = uniform_grid(8)
    spec = FieldSpec(basis=basis_matrix("const", 1, grid), driver=IidNormal())
    mc = estimate_moment(spec, 1, 4.0, 4.0, grid, 4000, seed=3).value
    assert abs(mc - sup_v_norm(spec, grid, 4.0)) < 0.35
    rad = FieldSpec(basis=basis_matrix("const", 1, grid), driver=IidRademacher())
    with pytest.raises(ValueError):
        sup_v_norm(rad, grid, 4.0, reps=10)
    with pytest.raises(ValueError):
        sup_v_norm(spec, grid, 0.5)


def test_sup_v_norm_overflow_is_a_value_error():
    grid = uniform_grid(8)
    spec = FieldSpec(basis=basis_matrix("const", 1, grid), driver=IidNormal(sigma=1e100))
    with pytest.raises(ValueError, match="I at v = 8 overflows"):
        sup_v_norm(spec, grid, 8.0)
    # finite terms of about 1e308 whose sum leaves float range
    heavy = custom_grid([0.25, 0.75], [8e307, 8e307])
    spec = FieldSpec(basis=basis_matrix("const", 1, heavy), driver=IidNormal(sigma=1.2))
    with pytest.raises(ValueError, match="I at v = 2 overflows"):
        sup_v_norm(spec, heavy, 2.0)


def test_sample_mean_is_centered():
    grid = uniform_grid(8)
    spec = FieldSpec(basis=basis_matrix("const", 1, grid), driver=IidNormal())
    x = sample_sequence(spec, 20_000, grid, 42)[:, 0]
    se = 1.0 / math.sqrt(x.size)
    assert abs(float(np.mean(x))) < 4.0 * se


def test_scale_decay_flags_experimental_and_scales_first_row():
    grid = uniform_grid(8)
    plain = FieldSpec(basis=basis_matrix("const", 1, grid), driver=IidNormal())
    scaled = FieldSpec(
        basis=basis_matrix("const", 1, grid), driver=IidNormal(), scale_decay=1.0
    )
    assert not plain.experimental and scaled.experimental
    a = sample_sequence(plain, 4, grid, 77)
    b = sample_sequence(scaled, 4, grid, 77)
    assert np.allclose(b[0], 2.0 * a[0], atol=1e-15)  # row 1 scaled by 1 + 1/1
    assert np.allclose(b[3], (1.0 + 1.0 / 4.0) * a[3], atol=1e-15)
    with pytest.raises(ValueError):
        FieldSpec(basis=basis_matrix("const", 1, grid), driver=IidNormal(), scale_decay=-0.5)


def _or_reject(cls):
    """cls(**params), or no example where the driver raises: a stored MaQ weight
    that leaves the normal float range, or a variance that overflows a float."""

    def build(**params):
        try:
            return cls(**params)
        except ValueError:
            reject()

    return build


SIGMA = st.floats(min_value=0.0, allow_infinity=False)
COUNT = st.integers(min_value=1, max_value=16)
DRIVERS = st.one_of(
    st.builds(_or_reject(IidNormal), sigma=SIGMA, k=COUNT),
    st.builds(IidRademacher, k=COUNT),
    st.builds(
        _or_reject(MaQ),
        weights=st.lists(st.floats(min_value=-1e300, max_value=1e300), min_size=1, max_size=6).filter(any),
        # MaQ stores its weights times sigma; near the float limits of sigma they underflow or overflow
        sigma=st.floats(min_value=1e-300, max_value=1e300),
        k=COUNT,
    ),
    st.builds(
        _or_reject(Ar1),
        rho=st.floats(min_value=-1.0, max_value=1.0, exclude_min=True, exclude_max=True),
        sigma_innov=SIGMA,
        k=COUNT,
    ),
)


@settings(max_examples=100, deadline=None)
@given(driver=DRIVERS)
# squared weights that underflow, and sigma / norm that overflows
@example(driver=MaQ(weights=(1e-160, 2e-160)))
@example(driver=MaQ(weights=(5e-324,), sigma=4.0))
def test_driver_dict_round_trip(driver):
    # through JSON text too, as the command line reads it
    assert driver_from_dict(json.loads(json.dumps(driver_to_dict(driver)))) == driver


def test_driver_from_dict_rejects_bad_shapes():
    with pytest.raises(ValueError):
        driver_from_dict({"iid_normal": {"sigma": 1.0}, "ar1": {"rho": 0.1}})
    with pytest.raises(ValueError):
        driver_from_dict({"iid_normal": {"mu": 1.0}})
    with pytest.raises(ValueError):
        driver_from_dict({"white_noise": {}})


def test_field_from_config():
    grid = uniform_grid(8)
    spec = field_from_config(
        {"basis": {"name": "fourier", "k": 3}, "driver": {"iid_normal": {"k": 3}}}, grid
    )
    assert spec.n_components == 3
    rows = [[1.0] * 8]
    spec = field_from_config({"basis": {"rows": rows}, "driver": {"iid_normal": {}}}, grid)
    assert spec.basis.shape == (1, 8)
    with pytest.raises(ValueError):
        field_from_config({"basis": {"name": "const"}}, grid)
    with pytest.raises(ValueError):
        field_from_config(
            {"basis": {"name": "const", "k": 1}, "driver": {"iid_normal": {}}, "x": 1}, grid
        )
