"""Grids and weighted norms: quadrature accuracy and norm axioms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cltlab import GridSpace, custom_grid, grid_from_config, lp_norm, lp_norms, uniform_grid

from conftest import assert_rel


def test_uniform_grid_layout():
    g = uniform_grid(4)
    assert np.array_equal(g.points, np.array([0.125, 0.375, 0.625, 0.875]))
    assert np.array_equal(g.weights, np.full(4, 0.25))
    assert g.total_mass == 1.0
    assert g.size == 4
    with pytest.raises(ValueError):
        uniform_grid(1)


def test_grid_arrays_are_read_only():
    g = uniform_grid(4)
    with pytest.raises(ValueError):
        g.points[0] = 0.5
    with pytest.raises(ValueError):
        g.weights[0] = 0.5


def test_grid_validation():
    with pytest.raises(ValueError):
        custom_grid([0.5], [0.0])
    with pytest.raises(ValueError):
        custom_grid([0.5, 0.6], [0.5])
    with pytest.raises(ValueError):
        custom_grid([0.5, math.nan], [0.5, 0.5])


def l2_error_identity(n):
    """|lp_norm(t, 2) - 3^(-1/2)| on the n-point midpoint grid."""
    g = uniform_grid(n)
    return abs(lp_norm(g.points, 2.0, g) - 3.0 ** -0.5)


def test_identity_function_l2_norm_accuracy():
    assert l2_error_identity(1024) < 1e-4
    assert l2_error_identity(16384) < 1e-6


def test_midpoint_error_is_second_order():
    # quadrupling the point count should cut the error by about 16
    ratio = l2_error_identity(256) / l2_error_identity(1024)
    assert 14.0 < ratio < 18.0


def test_lp_norm_homogeneity_exact():
    g = uniform_grid(8)
    f = np.sin(3.0 * g.points) + 0.25
    assert lp_norm(2.0 * f, 2.0, g) == 2.0 * lp_norm(f, 2.0, g)


def test_lp_norm_known_value():
    g = custom_grid([0.25, 0.75], [0.5, 0.5])
    # (0.5 * 1 + 0.5 * 9)^(1/2) = sqrt(5)
    assert_rel(lp_norm(np.array([1.0, 3.0]), 2.0, g), math.sqrt(5.0), 1e-15)
    # p = 1: 0.5 + 1.5
    assert_rel(lp_norm(np.array([-1.0, 3.0]), 1.0, g), 2.0, 1e-15)


def test_lp_norm_validation():
    g = uniform_grid(4)
    with pytest.raises(ValueError):
        lp_norm(np.ones(4), 0.5, g)
    with pytest.raises(ValueError):
        lp_norm(np.ones(3), 2.0, g)
    with pytest.raises(ValueError):
        lp_norm(np.array([1.0, math.inf, 0.0, 0.0]), 2.0, g)
    # finite values whose p-th powers overflow
    with pytest.raises(ValueError, match=r"\|\|_p at p = 4 overflows"):
        lp_norm(np.array([1e100, 0.0, 0.0, 0.0]), 4.0, g)


def test_lp_norms_matches_rowwise_lp_norm():
    g = uniform_grid(8)
    rng = np.random.default_rng(11)
    mat = rng.normal(size=(5, 8))
    batch = lp_norms(mat, 3.0, g)
    single = np.array([lp_norm(row, 3.0, g) for row in mat])
    assert np.array_equal(batch, single)


def test_lp_norms_row_independent_of_block_and_layout():
    g = uniform_grid(64)
    mat = np.random.default_rng(12).normal(size=(300, 64))
    full = lp_norms(mat, 2.0, g)
    assert np.array_equal(lp_norms(np.asfortranarray(mat), 2.0, g), full)
    for lo, hi in ((0, 1), (17, 18), (0, 44), (256, 300)):
        assert np.array_equal(lp_norms(mat[lo:hi], 2.0, g), full[lo:hi])


@settings(max_examples=80, deadline=None)
@given(
    vals=st.lists(st.floats(-50, 50), min_size=4, max_size=4),
    p1=st.floats(1.0, 8.0),
    p2=st.floats(1.0, 8.0),
)
def test_lyapunov_monotone_in_p_on_probability_grid(vals, p1, p2):
    g = uniform_grid(4)
    lo, hi = sorted((p1, p2))
    f = np.asarray(vals)
    assert lp_norm(f, lo, g) <= lp_norm(f, hi, g) * (1.0 + 1e-12) + 1e-12


@settings(max_examples=80, deadline=None)
@given(
    a=st.lists(st.floats(-50, 50), min_size=4, max_size=4),
    b=st.lists(st.floats(-50, 50), min_size=4, max_size=4),
    p=st.floats(1.0, 6.0),
)
def test_triangle_inequality(a, b, p):
    g = uniform_grid(4)
    fa, fb = np.asarray(a), np.asarray(b)
    lhs = lp_norm(fa + fb, p, g)
    rhs = lp_norm(fa, p, g) + lp_norm(fb, p, g)
    assert lhs <= rhs * (1.0 + 1e-12) + 1e-12


def test_grid_from_config():
    g = grid_from_config({"uniform": 8})
    assert g.size == 8
    g = grid_from_config({"custom": {"points": [0.2, 0.8], "weights": [0.7, 0.3]}})
    assert g.total_mass == 1.0
    with pytest.raises(ValueError):
        grid_from_config({"uniform": 8, "extra": 1})
    with pytest.raises(ValueError):
        grid_from_config({"custom": {"points": [0.2]}})
    with pytest.raises(ValueError):
        grid_from_config([8])
