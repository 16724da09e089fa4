"""Limit covariance assembly, eigendecomposition of injected covariances, limit-law sampling."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cltlab import (
    DegenerateCovarianceError,
    FieldSpec,
    IidNormal,
    MaQ,
    ar1_unit_marginal,
    basis_matrix,
    factorize_covariance,
    limit_covariance,
    sample_limit_norms,
    uniform_grid,
)
from cltlab import montecarlo
from cltlab.discretize import lp_norms
from cltlab.fieldgen import Normal, long_run_covariance
from cltlab.limitlaw import FACTOR_RTOL, LimitField
from cltlab.rng import philox_key

from conftest import assert_rel


def factor_residual(field, cov):
    return float(np.linalg.norm(field.factor @ field.factor.T - cov) / np.linalg.norm(cov))


def model_covariance(spec):
    """The limit covariance on the grid, basis^T Lambda basis, as a grid x grid matrix."""
    return spec.basis.T @ long_run_covariance(spec) @ spec.basis


def test_identity_factors_without_jitter():
    field = factorize_covariance(np.eye(3))
    assert np.allclose(np.abs(field.factor), np.eye(3))


def test_ar1_const_basis_covariance_is_constant_three(grid16):
    spec = FieldSpec(basis=basis_matrix("const", 1, grid16), driver=ar1_unit_marginal(0.5))
    field = limit_covariance(spec, grid16)
    assert np.allclose(field.factor @ field.factor.T, 3.0, atol=1e-12)
    assert factor_residual(field, model_covariance(spec)) <= FACTOR_RTOL


def test_fourier_basis_covariance_matches_gram(grid16):
    spec = FieldSpec(basis=basis_matrix("fourier", 3, grid16), driver=IidNormal(k=3))
    field = limit_covariance(spec, grid16)
    phi = basis_matrix("fourier", 3, grid16)
    assert np.allclose(field.factor @ field.factor.T, phi.T @ phi, atol=1e-12)


def test_limit_sampling_rank_one_mean_abs_normal(grid16):
    # S(t) = z for all t: ||S||_1 = |z|, so the mean over reps tends to sqrt(2/pi)
    spec = FieldSpec(basis=basis_matrix("const", 1, grid16), driver=IidNormal())
    field = limit_covariance(spec, grid16)
    norms = sample_limit_norms(field, 1.0, grid16, 4000, seed=13)
    target = math.sqrt(2.0 / math.pi)
    se = math.sqrt((1.0 - 2.0 / math.pi) / norms.size)
    assert abs(float(np.mean(norms)) - target) < 4.0 * se


def test_limit_sampling_serial_equals_parallel(grid16):
    spec = FieldSpec(basis=basis_matrix("fourier", 3, grid16), driver=IidNormal(k=3))
    field = limit_covariance(spec, grid16)
    a = sample_limit_norms(field, 2.0, grid16, 700, seed=1, threads=1)
    b = sample_limit_norms(field, 2.0, grid16, 700, seed=1, threads=4)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("name,k", [("const", 1), ("fourier", 3), ("fourier", 16)])
def test_model_limit_factor_is_exact_in_basis_coordinates(name, k):
    # R has rank k on a 64-point grid; its factor sqrt(lrv) basis^T has k columns
    grid = uniform_grid(64)
    spec = FieldSpec(basis=basis_matrix(name, k, grid), driver=MaQ(weights=(1.0, 1.0), k=k))
    field = limit_covariance(spec, grid)
    assert field.factor.shape == (64, k)
    assert factor_residual(field, model_covariance(spec)) <= 1e-14


def test_limit_norms_independent_of_reps_and_threads(grid16):
    spec = FieldSpec(basis=basis_matrix("fourier", 3, grid16), driver=IidNormal(k=3))
    field = limit_covariance(spec, grid16)
    ref = sample_limit_norms(field, 2.0, grid16, 600, seed=1, threads=1)
    # 257 leaves a one-row last chunk
    for reps, threads in ((257, 1), (300, 1), (300, 2), (600, 2)):
        norms = sample_limit_norms(field, 2.0, grid16, reps, seed=1, threads=threads)
        assert np.array_equal(norms, ref[:reps])


def test_indefinite_covariance_raises():
    with pytest.raises(DegenerateCovarianceError):
        factorize_covariance(np.array([[1.0, 2.0], [2.0, 1.0]]))


ENTRIES = st.floats(min_value=-10.0, max_value=10.0)


def matrices(draw, rows, cols):
    return np.array(draw(st.lists(st.lists(ENTRIES, min_size=cols, max_size=cols), min_size=rows, max_size=rows)))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 6), rank=st.integers(1, 6), exponent=st.floats(-100.0, 100.0))
def test_factorize_reproduces_psd_matrices(data, n, rank, exponent):
    # c A A^T is PSD, singular when rank < n, in units from 1e-100 to 1e100;
    # the factor must reproduce the matrix itself, whatever its scale
    a = matrices(data.draw, n, rank)
    # keep c A A^T clear of the subnormal range, where no factor can be accurate
    assume(np.abs(a).max() >= 1e-3)
    cov = 10.0**exponent * (a @ a.T)
    field = factorize_covariance(cov)
    assert np.all(np.isfinite(field.factor)) and field.factor.shape[1] <= min(n, rank)
    assert factor_residual(field, cov) <= FACTOR_RTOL


@pytest.mark.parametrize("scale", [1e-14, 1e-12, 1.0, 1e10])
def test_rank_one_all_ones_factors_at_every_scale(scale):
    cov = scale * np.ones((8, 8))
    field = factorize_covariance(cov)
    assert field.factor.shape == (8, 1)
    assert factor_residual(field, cov) <= FACTOR_RTOL


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e8])
def test_ma1_limit_covariance_factors_to_its_rank(scale):
    # clt-golden's MA(1) shape: rank 16 on 64 points, so the factor has 16 columns
    grid = uniform_grid(64)
    spec = FieldSpec(basis=basis_matrix("fourier", 16, grid), driver=MaQ(weights=(1.0, 1.0), k=16))
    cov = scale * model_covariance(spec)
    field = factorize_covariance(cov)
    assert field.factor.shape == (64, 16)
    assert factor_residual(field, cov) <= FACTOR_RTOL


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 6))
def test_factorize_rejects_indefinite_matrices(data, n):
    a = matrices(data.draw, n, n)
    cov = (a + a.T) / 2.0
    assume(np.linalg.eigvalsh(cov).min() < -1e-6 * np.abs(cov).max())
    with pytest.raises(DegenerateCovarianceError):
        factorize_covariance(cov)


def test_factor_check_makes_no_grid_by_grid_product(monkeypatch):
    # a rank-5 matrix on 1024 points: the check after the eigendecomposition
    # holds one 256-row panel of F F^T at a time, a quarter of the matrix
    b = np.random.default_rng(0).standard_normal((1024, 5))
    cov = b @ b.T
    original = np.linalg.eigh
    after = []

    def eigh_then_reset_peak(a):
        out = original(a)
        tracemalloc.reset_peak()
        after.append(tracemalloc.get_traced_memory()[0])
        return out

    monkeypatch.setattr(np.linalg, "eigh", eigh_then_reset_peak)
    tracemalloc.start()
    try:
        field = factorize_covariance(cov)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert field.factor.shape == (1024, 5)
    assert factor_residual(field, cov) <= FACTOR_RTOL
    assert peak - after[0] < cov.nbytes / 2


def one_limit_replication(field, p, grid, seed, rep):
    """Replication rep's norm computed on its own: its normals from the one-replication block (rep, rep + 1), projected."""
    z = Normal(1.0).block(philox_key(seed), rep, rep + 1, field.factor.shape[1])
    return lp_norms(montecarlo.project(z, np.ascontiguousarray(field.factor.T)), p, grid)[0]


@given(
    data=st.data(),
    size=st.integers(2, 12),
    rank=st.integers(1, 5),
    p=st.sampled_from([1.0, 2.0, 3.5, 4.0]),
    reps=st.integers(1, 600),
    threads=st.sampled_from([1, 2]),
    seed=st.integers(0, 2**32),
)
def test_limit_rows_are_one_replication_blocks(data, size, rank, p, reps, threads, seed):
    grid = uniform_grid(size)
    factor = matrices(data.draw, size, rank)
    field = LimitField(factor)
    norms = sample_limit_norms(field, p, grid, reps, seed, threads)
    assert norms.shape == (reps,)
    rep = data.draw(st.integers(0, reps - 1))
    for r in {0, rep, reps - 1, min(montecarlo.CHUNK, reps - 1)}:
        assert norms[r] == one_limit_replication(field, p, grid, seed, r)


def test_zero_covariance_gives_zero_factor(grid16):
    # one zero column, not n: the fewest that montecarlo.project takes
    field = factorize_covariance(np.zeros((3, 3)))
    assert np.array_equal(field.factor, np.zeros((3, 1)))
    g3 = uniform_grid(3)
    norms = sample_limit_norms(field, 2.0, g3, 50, seed=0)
    assert np.array_equal(norms, np.zeros(50))


def test_factorize_validation():
    with pytest.raises(ValueError):
        factorize_covariance(np.ones((2, 3)))
    with pytest.raises(ValueError):
        factorize_covariance(np.array([[1.0, 0.5], [0.4, 1.0]]))
    with pytest.raises(ValueError):
        factorize_covariance(np.array([[math.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        factorize_covariance(np.zeros((0, 0)))



@pytest.mark.parametrize("scale", [1.0, 1e-13])
def test_symmetry_check_is_relative_to_the_matrix(scale):
    # the same asymmetry raises at every scale; a relative 1e-13 one is accepted at every scale
    with pytest.raises(ValueError, match="symmetric"):
        factorize_covariance(scale * np.array([[1.0, 0.5], [0.0, 1.0]]))
    near = scale * np.array([[1.0, 0.5], [0.5 + 1e-13, 1.0]])
    assert factor_residual(factorize_covariance(near), (near + near.T) / 2.0) <= FACTOR_RTOL

def test_sample_limit_norms_validation(grid16):
    spec = FieldSpec(basis=basis_matrix("const", 1, grid16), driver=IidNormal())
    field = limit_covariance(spec, grid16)
    with pytest.raises(ValueError):
        sample_limit_norms(field, 2.0, uniform_grid(4), 50, seed=0)
    with pytest.raises(ValueError):
        sample_limit_norms(field, 2.0, grid16, 0, seed=0)


def test_gaussian_limit_second_moment_matches_weighted_trace(grid16):
    spec = FieldSpec(basis=basis_matrix("fourier", 3, grid16), driver=IidNormal(k=3))
    field = limit_covariance(spec, grid16)
    norms = sample_limit_norms(field, 2.0, grid16, 6000, seed=21)
    second = float(np.mean(norms**2))
    trace = float(np.sum(grid16.weights * np.sum(field.factor**2, axis=1)))
    # E||S||_2^2 = integral of Var S(t) = weighted trace
    se = float(np.std(norms**2, ddof=1)) / math.sqrt(norms.size)
    assert abs(second - trace) < 4.0 * se + 1e-7
