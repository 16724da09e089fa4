"""Replication engine: estimates, confidence intervals, deterministic replications."""

import csv
import math
import threading
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom, chisquare, ks_2samp, kstest

from cltlab import (
    Ar1,
    FieldSpec,
    IidNormal,
    IidRademacher,
    MaQ,
    ar1_unit_marginal,
    basis_matrix,
    default_n_schedule,
    empirical_cov,
    estimate_moment,
    replicate_norms,
    sample_limit_norms,
    summarize_norm_powers,
    uniform_grid,
    write_norms_csv,
)
from cltlab.discretize import lp_norms
from cltlab.fieldgen import Normal, Rademacher
from cltlab.limitlaw import LimitField
from cltlab.montecarlo import BLOCK_WORDS, CHUNK, CI_Z, MIN_REPS, TILE, project, sn_coordinates
from cltlab.rng import philox_key, words

from conftest import assert_rel


def test_default_n_schedule():
    sched = default_n_schedule()
    assert sched == (16, 32, 64, 128, 256, 512, 1024, 2048, 4096)


def test_ci_z_is_99_percent_quantile():
    from scipy.stats import norm

    assert_rel(CI_Z, float(norm.ppf(0.995)), 1e-12)


def sn_rows(spec, n, grid, seed, lo, hi):
    """S_n on the grid for replications lo, ..., hi - 1, one row each: the engine's coordinates, projected."""
    draw, basis = sn_coordinates(spec, n, grid, seed, hi)
    return project(draw(lo, hi), basis)


def test_sn_rows_gaussian_closed_case(const_normal_field, grid16):
    # phi = 1, iid N(0,1): S_n is exactly N(0,1), constant across the grid
    s = sn_rows(const_normal_field, 64, grid16, 5, 0, 1)[0]
    assert s.shape == (16,)
    assert np.all(s == s[0])


def test_estimate_moment_ci_covers_exact_gaussian_moments(const_normal_field, grid16):
    est2 = estimate_moment(const_normal_field, 64, 2.0, 2.0, grid16, 2000, seed=0)
    assert est2.ci_low <= 1.0 <= est2.ci_high
    est4 = estimate_moment(const_normal_field, 64, 4.0, 2.0, grid16, 2000, seed=0)
    assert est4.ci_low <= 3.0 <= est4.ci_high
    assert est2.reps == 2000 and est2.n == 64 and est2.s == 2.0 and est2.p == 2.0


def test_estimate_moment_ar1_long_run_variance(grid16):
    # E||S_n||_2^2 = lrv - 2 rho (1 - rho^n) / (n (1 - rho)^2) for unit marginal AR(1)
    rho, n = 0.5, 256
    spec = FieldSpec(basis=basis_matrix("const", 1, grid16), driver=ar1_unit_marginal(rho))
    exact = 3.0 - 2.0 * rho * (1.0 - rho**n) / (n * (1.0 - rho) ** 2)
    est = estimate_moment(spec, n, 2.0, 2.0, grid16, 3000, seed=1)
    assert est.ci_low <= exact <= est.ci_high


def test_serial_equals_parallel_bitwise(grid16, const_normal_field):
    reps = 3 * CHUNK + 17  # spans several chunks plus a ragged tail
    a = replicate_norms(const_normal_field, 32, 2.0, grid16, reps, seed=9, threads=1)
    b = replicate_norms(const_normal_field, 32, 2.0, grid16, reps, seed=9, threads=4)
    assert np.array_equal(a, b)


def test_replication_norms_independent_of_reps_and_threads(grid16):
    spec = FieldSpec(basis=basis_matrix("fourier", 4, grid16), driver=MaQ(weights=(1.0, 1.0), k=4))
    n = 1024
    ref = replicate_norms(spec, n, 2.0, grid16, 600, seed=9, threads=1)
    # 257 leaves a one-row last chunk
    for reps, threads in ((257, 1), (300, 1), (300, 2), (600, 2)):
        norms = replicate_norms(spec, n, 2.0, grid16, reps, seed=9, threads=threads)
        assert np.array_equal(norms, ref[:reps])


def test_threads_start_no_thread(grid16, monkeypatch):
    # a scaled Rademacher path of n * k = 4096 draws per replication over three chunks
    spec = FieldSpec(basis=basis_matrix("fourier", 4, grid16), driver=IidRademacher(k=4), scale_decay=0.5)
    ref = replicate_norms(spec, 1024, 2.0, grid16, 2 * CHUNK + 1, seed=3, threads=1)

    def refuse(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    norms = replicate_norms(spec, 1024, 2.0, grid16, 2 * CHUNK + 1, seed=3, threads=2)
    assert np.array_equal(norms, ref)


DRIVERS = [IidNormal(sigma=2.0, k=3), IidRademacher(k=3), MaQ(weights=(1.0, 2.0, 1.0), k=3), Ar1(rho=0.7, k=3)]
DRIVER_IDS = ["iid_normal", "iid_rademacher", "ma_q", "ar1"]


def one_replication(spec, n, grid, seed, rep):
    """Replication rep's row computed on its own: its k time sums from the one-replication block (rep, rep + 1), projected."""
    law = spec.driver.time_sum_law(n, spec.scales(n))
    sums = law.block(philox_key(seed), rep, rep + 1, spec.n_components)[0] * law.sd
    return project(sums[None, :] / math.sqrt(n), spec.basis)[0]


@pytest.mark.parametrize("scale_decay", [None, 0.5])
@pytest.mark.parametrize("driver", DRIVERS, ids=DRIVER_IDS)
def test_block_rows_match_one_replication_rows(grid16, driver, scale_decay):
    spec = FieldSpec(basis=basis_matrix("fourier", 3, grid16), driver=driver, scale_decay=scale_decay)
    lo, hi = CHUNK - 5, CHUNK + 7
    block = sn_rows(spec, 48, grid16, 11, lo, hi)
    assert block.shape == (hi - lo, grid16.size)
    # only scaled Rademacher draws the path
    path = getattr(spec.driver.time_sum_law(48, spec.scales(48)), "c", None) is not None
    assert path == (isinstance(driver, IidRademacher) and scale_decay is not None)
    # a row does not depend on the block it is computed in; the path
    # samplers are its reference in law only (test_exact_time_sums_agree_with_path_sums_in_law)
    for i, rep in enumerate(range(lo, hi)):
        assert np.array_equal(sn_rows(spec, 48, grid16, 11, rep, rep + 1)[0], block[i])
        assert np.array_equal(one_replication(spec, 48, grid16, 11, rep), block[i])


def _path_sums(driver, n, scales, reps, seed):
    """reps independent time sums of one component path each, from sample_component."""
    x = driver.sample_component(np.random.default_rng(seed), n, reps)
    return (x if scales is None else x * scales).sum(axis=1)


LAW_CASES = [(d, i, sd) for d, i in zip(DRIVERS, DRIVER_IDS) for sd in (None, 0.5)]


@pytest.mark.parametrize(
    "driver,scale_decay", [(d, sd) for d, i, sd in LAW_CASES], ids=[f"{i}-{sd}" for d, i, sd in LAW_CASES]
)
def test_exact_time_sums_agree_with_path_sums_in_law(grid16, driver, scale_decay):
    n, reps = 64, 4000
    spec = FieldSpec(basis=basis_matrix("fourier", 3, grid16), driver=driver, scale_decay=scale_decay)
    law = spec.driver.time_sum_law(n, spec.scales(n))
    exact = law.block(philox_key(5), 0, reps // spec.n_components, spec.n_components).ravel() * law.sd
    path = _path_sums(driver, n, spec.scales(n), exact.size, 6)
    assert ks_2samp(exact, path).pvalue > 1e-3
    # second and fourth moments agree within 4 standard errors of their difference
    for power in (2, 4):
        a, b = exact**power, path**power
        se = math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
        assert abs(a.mean() - b.mean()) < 4.0 * se


def _oracle_variance(driver, c):
    """sum_{i,j} c_i c_j gamma(i - j), exactly (Fraction) or at 50 digits (mpmath, AR(1)).

    It sums the autocovariances of the path, not the squared weights of the
    innovations the time-sum law sums. AR(1) is grouped as sum_i c_i^2 gamma(0) +
    2 sum_i c_i t_i gamma(0) with t_i = sum_{j<i} c_j rho^(i-j) = rho (t_{i-1} + c_{i-1}).
    """
    if isinstance(driver, Ar1):
        with mpmath.workdps(50):
            rho, sig = mpmath.mpf(driver.rho), mpmath.mpf(driver.sigma_innov)
            total, t, prev = mpmath.mpf(0), mpmath.mpf(0), mpmath.mpf(0)
            for i, ci in enumerate(c):
                ci = mpmath.mpf(float(ci))
                if i:
                    t = rho * (t + prev)
                total += ci * ci + 2 * ci * t
                prev = ci
            return float(sig**2 / (1 - rho**2) * total)
    cf = [Fraction(float(x)) for x in c]
    if isinstance(driver, IidNormal):
        return float(Fraction(driver.sigma) ** 2 * sum(x * x for x in cf))
    w = [Fraction(x) for x in driver.weights]
    total = Fraction(0)
    for h in range(-driver.order, driver.order + 1):
        gamma = sum(w[u] * w[u + abs(h)] for u in range(len(w) - abs(h)))
        total += gamma * sum(cf[i] * cf[i + h] for i in range(max(0, -h), min(len(cf), len(cf) - h)))
    return float(total)


@pytest.mark.parametrize(
    "driver",
    [IidNormal(sigma=1.5), MaQ(weights=(1.0, -1.0)), MaQ(weights=(1.0, 2.0, 1.0))]
    + [Ar1(rho=rho) for rho in (-0.999, 0.0, 0.6, 0.9999)],
    ids=["iid_normal", "ma_1_-1", "ma_1_2_1", "ar1_-0.999", "ar1_0", "ar1_0.6", "ar1_0.9999"],
)
def test_exact_sum_variance_against_oracle(grid16, driver):
    for n in (1, 2, 3, 16, 4096):
        for scale_decay in (None, 0.5):
            spec = FieldSpec(basis=basis_matrix("const", 1, grid16), driver=driver, scale_decay=scale_decay)
            law = spec.driver.time_sum_law(n, spec.scales(n))
            exact = _oracle_variance(driver, np.ones(n) if scale_decay is None else spec.scales(n))
            assert_rel(law.sd**2, exact, 1e-13, f"n={n} scale_decay={scale_decay}")



@pytest.mark.parametrize("n,k", [(1, 1), (7, 3), (48, 4)])
def test_weighted_rademacher_law_sums_sample_component_path(n, k):
    # in law: the block sums against weighted sample_component path sums
    c = 1.0 + 0.5 / np.arange(1, n + 1)
    sums = Rademacher(n, c).block(philox_key(n), 0, 12000 // k, k).ravel()
    path = _path_sums(IidRademacher(), n, c, sums.size, 7)
    assert ks_2samp(sums, path).pvalue > 1e-3
    assert abs(sums.mean() - path.mean()) < 4.0 * math.sqrt(2.0 * np.sum(c**2) / sums.size)


@pytest.mark.parametrize("n,k", [(1, 1), (7, 3), (48, 4), (70, 2)])
def test_weighted_rademacher_law_sums_its_sign_bits(n, k):
    # a time weight per step, as scale_decay gives; bit b of word w is step 32 w + b
    c = 1.0 + 0.5 / np.arange(1, n + 1)
    law = Rademacher(n, c)
    key, m = philox_key(3), -(-n // 32)
    sums = law.block(key, 2, 7, k)
    w = words(key, 2, 7, k * m)
    for i in range(5):
        for j in range(k):
            signs = np.array([1.0 if int(w[i, j * m + t // 32]) >> (t % 32) & 1 else -1.0 for t in range(n)])
            assert sums[i, j] == (signs * c).sum()
    # unit weights give the popcount sums exactly
    assert np.array_equal(Rademacher(n, np.ones(n)).block(key, 2, 7, k), Rademacher(n).block(key, 2, 7, k))
    assert law.sd == 1.0


def test_block_normals_are_standard_normal():
    z = Normal(1.0).block(philox_key(8), 0, 100_000, 3).ravel()
    assert kstest(z, "norm").pvalue > 1e-3
    # E z^r for r = 1..4 within 4 standard errors; Var(z^r) is 1, 2, 15 and 96
    for r, exact, var in ((1, 0.0, 1.0), (2, 1.0, 2.0), (3, 0.0, 15.0), (4, 3.0, 96.0)):
        assert abs(np.mean(z**r) - exact) < 4.0 * math.sqrt(var / z.size), r


@pytest.mark.parametrize("n", [16, 37, 1024])
def test_unscaled_rademacher_sums_are_binomial(n):
    # 37 = 32 + 5 leaves a masked last word
    sums = Rademacher(n).block(philox_key(n), 0, 50_000, 4).ravel()
    heads = (sums + n) / 2.0
    assert np.array_equal(heads, np.round(heads)) and heads.min() >= 0 and heads.max() <= n
    heads = heads.astype(int)
    # chi-square on the exact Binomial(n, 1/2) pmf, tails below 1e-4 lumped into the end cells
    lo, hi = int(binom.ppf(1e-4, n, 0.5)), int(binom.isf(1e-4, n, 0.5))
    observed = np.bincount(np.clip(heads, lo, hi) - lo, minlength=hi - lo + 1)
    pmf = binom.pmf(np.arange(lo, hi + 1), n, 0.5)
    pmf[0], pmf[-1] = binom.cdf(lo, n, 0.5), binom.sf(hi - 1, n, 0.5)
    assert chisquare(observed, pmf / pmf.sum() * heads.size).pvalue > 1e-3


TIME_SUM_LAWS = st.one_of(
    st.floats(0.1, 10.0).map(Normal),
    st.integers(1, 300).map(Rademacher),
    st.integers(1, 300).map(lambda n: Rademacher(n, 1.0 + 0.5 / np.arange(1, n + 1))),
)


@given(
    law=TIME_SUM_LAWS,
    k=st.integers(1, 40),
    seed=st.integers(0, 2**64),
    lo=st.integers(0, 2**40),
    size=st.integers(1, 40),
    data=st.data(),
)
def test_law_rows_are_one_replication_blocks(law, k, seed, lo, size, data):
    key = philox_key(seed)
    block = law.block(key, lo, lo + size, k)
    assert block.shape == (size, k)
    for i in range(size):
        assert np.array_equal(law.block(key, lo + i, lo + i + 1, k)[0], block[i])
    a = data.draw(st.integers(0, size - 1))
    b = data.draw(st.integers(a + 1, size))
    assert np.array_equal(law.block(key, lo + a, lo + b, k), block[a:b])


ENGINE_DRIVERS = st.one_of(
    st.builds(IidNormal, sigma=st.floats(0.0, 10.0), k=st.integers(1, 4)),
    st.builds(IidRademacher, k=st.integers(1, 4)),
    st.builds(
        MaQ,
        # multiples of 1e-3, so no stored weight is subnormal
        weights=st.lists(st.floats(-2.0, 2.0).map(lambda x: round(x, 3)), min_size=1, max_size=4).filter(any),
        sigma=st.floats(0.1, 10.0),
        k=st.integers(1, 4),
    ),
    st.builds(Ar1, rho=st.floats(-0.99, 0.99), sigma_innov=st.floats(0.0, 10.0), k=st.integers(1, 4)),
)


@given(
    driver=ENGINE_DRIVERS,
    scale_decay=st.one_of(st.none(), st.floats(0.0, 2.0)),
    n=st.integers(1, 64),
    seed=st.integers(0, 2**32),
    lo=st.integers(0, 600),
    size=st.integers(1, 8),
    reps=st.integers(MIN_REPS, 300),
    p=st.sampled_from([1.0, 2.0, 4.0]),
)
def test_engine_rows_are_one_replication_blocks(driver, scale_decay, n, seed, lo, size, reps, p):
    grid = uniform_grid(8)
    spec = FieldSpec(basis=basis_matrix("indicator", driver.k, grid), driver=driver, scale_decay=scale_decay)
    block = sn_rows(spec, n, grid, seed, lo, lo + size)
    norms = replicate_norms(spec, n, p, grid, reps, seed)
    for rep in list(range(lo, lo + size)) + [0, reps - 1]:
        row = one_replication(spec, n, grid, seed, rep)
        if lo <= rep < lo + size:
            assert np.array_equal(block[rep - lo], row)
        if rep < reps:
            assert norms[rep] == lp_norms(row[None, :], p, grid)[0]


def own_norms(law, rows, n, seed, reps, p, grid):
    """Each replication's norm, its row projected and reduced on its own; law rows are
    one-replication blocks (test_law_rows_are_one_replication_blocks), so one draw serves all."""
    coords = law.block(philox_key(seed), 0, reps, rows.shape[0]) * law.sd / math.sqrt(n)
    return [lp_norms(project(coords[r : r + 1], rows), p, grid)[0] for r in range(reps)]


@given(
    driver=ENGINE_DRIVERS,
    scale_decay=st.one_of(st.none(), st.floats(0.0, 2.0)),
    n=st.integers(1, 64),
    rank=st.integers(1, 4),
    seed=st.integers(0, 2**32),
    reps=st.integers(CHUNK + 1, CHUNK + 120),
    p=st.sampled_from([1.0, 2.0, 3.5, 4.0]),
)
def test_tiled_norms_are_one_replication_norms(driver, scale_decay, n, rank, seed, reps, p):
    # 300 points: a tile holds TILE // 300 = 54 rows, so a chunk spans five
    # tiles, the last one ragged, and the second chunk ends inside a tile
    grid = uniform_grid(300)
    assert CHUNK % (TILE // grid.size) and CHUNK > TILE // grid.size
    spec = FieldSpec(basis=basis_matrix("indicator", driver.k, grid), driver=driver, scale_decay=scale_decay)
    norms = replicate_norms(spec, n, p, grid, reps, seed)
    law = spec.driver.time_sum_law(n, spec.scales(n))
    assert norms.tolist() == own_norms(law, spec.basis, n, seed, reps, p, grid)
    factor = np.random.default_rng(seed).standard_normal((grid.size, rank))
    limit_norms = sample_limit_norms(LimitField(factor), p, grid, reps, seed)
    assert limit_norms.tolist() == own_norms(Normal(1.0), np.ascontiguousarray(factor.T), 1, seed, reps, p, grid)


def block_rows(law, k):
    """Replications in a block of a call: as many whole chunks as BLOCK_WORDS words hold, at least one."""
    return max(CHUNK, BLOCK_WORDS // law.rep_words(k) // CHUNK * CHUNK)


def block_case(name, n, rank, seed, grid):
    """(law, rows, n, norms(reps)) of one law of the engine: the norms of reps replications
    through replicate_norms, or sample_limit_norms for the limit law."""
    if name == "limit":
        factor = np.random.default_rng(seed).standard_normal((grid.size, rank))
        rows = np.ascontiguousarray(factor.T)
        return Normal(1.0), rows, 1, lambda reps, p: sample_limit_norms(LimitField(factor), p, grid, reps, seed)
    driver, scale_decay = {
        "normal-1": (IidNormal(sigma=1.5, k=1), None),
        "normal-16": (MaQ(weights=(1.0, 0.5), k=16), None),
        "rademacher": (IidRademacher(k=3), None),
        "weighted-rademacher": (IidRademacher(k=2), 0.5),
    }[name]
    spec = FieldSpec(basis=basis_matrix("indicator", driver.k, grid), driver=driver, scale_decay=scale_decay)
    law = spec.driver.time_sum_law(n, spec.scales(n))
    return law, spec.basis, n, lambda reps, p: replicate_norms(spec, n, p, grid, reps, seed)


@given(
    name=st.sampled_from(["normal-1", "normal-16", "rademacher", "weighted-rademacher", "limit"]),
    n=st.integers(1, 400),
    rank=st.integers(1, 16),
    seed=st.integers(0, 2**32),
    data=st.data(),
    p=st.sampled_from([1.0, 2.0, 3.5]),
)
def test_block_boundary_norms_are_one_replication_norms(name, n, rank, seed, data, p):
    # reps passes the end of the first block of a call and stops inside the
    # second block and inside a chunk
    grid = uniform_grid(20)
    law, rows, n, norms_of = block_case(name, n, rank, seed, grid)
    size = block_rows(law, rows.shape[0])
    offset = data.draw(st.integers(1, size - 1))
    reps = size + offset + (offset % CHUNK == 0)
    assert reps < 2 * size and reps % CHUNK
    norms = norms_of(reps, p)
    assert norms.tolist() == own_norms(law, rows, n, seed, reps, p, grid)


@pytest.mark.parametrize("name", ["normal-1", "normal-16", "rademacher", "weighted-rademacher", "limit"])
def test_a_call_draws_each_replication_once(monkeypatch, name):
    grid = uniform_grid(20)
    law, rows, n, norms_of = block_case(name, 40, 3, 7, grid)
    drawn = []
    original = type(law).block

    def counting(self, key, lo, hi, k):
        drawn.append(hi - lo)
        return original(self, key, lo, hi, k)

    monkeypatch.setattr(type(law), "block", counting)
    size = block_rows(law, rows.shape[0])
    reps = 2 * size + 3
    assert norms_of(reps, 2.0).shape == (reps,)
    assert drawn == [size, size, 3]


@pytest.mark.parametrize("n", [1024, 4096])
def test_weighted_rademacher_holds_one_chunk_of_signs(n):
    # a replication's float signs alone take 8 n bytes, so a block is one
    # chunk; the peak stays at that chunk's signs, plus a quarter for their
    # unpacked bits and words (at n = 1024, a budget of Philox words alone
    # would make blocks of two chunks)
    grid = uniform_grid(16)
    spec = FieldSpec(basis=basis_matrix("const", 1, grid), driver=IidRademacher(k=1), scale_decay=0.5)
    replicate_norms(spec, 64, 2.0, grid, MIN_REPS, seed=0)
    tracemalloc.start()
    try:
        replicate_norms(spec, n, 2.0, grid, 3 * CHUNK + 10, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * CHUNK * n * 8


def test_replicate_norms_reps_floor(const_normal_field, grid16):
    with pytest.raises(ValueError):
        replicate_norms(const_normal_field, 8, 2.0, grid16, MIN_REPS - 1, seed=0)


def test_negative_threads_raise(const_normal_field, grid16):
    with pytest.raises(ValueError, match="threads must be nonnegative"):
        replicate_norms(const_normal_field, 8, 2.0, grid16, MIN_REPS, seed=0, threads=-1)
    with pytest.raises(ValueError, match="threads must be nonnegative"):
        empirical_cov(const_normal_field, 8, grid16, MIN_REPS, seed=0, threads=-1)


def test_empirical_cov_trace_identity(grid16, const_normal_field):
    reps = 500
    cov = empirical_cov(const_normal_field, 32, grid16, reps, seed=4)
    est = estimate_moment(const_normal_field, 32, 2.0, 2.0, grid16, reps, seed=4)
    trace = float(np.sum(grid16.weights * np.diag(cov)))
    assert abs(trace - est.value) < 1e-10
    # const basis: every entry estimates the same scalar
    assert np.allclose(cov, cov[0, 0], atol=1e-12)


def test_empirical_cov_matches_the_grid_path():
    # the mean outer product of the replications' grid rows
    grid = uniform_grid(64)
    spec = FieldSpec(basis=basis_matrix("fourier", 5, grid), driver=MaQ(weights=(1.0, 0.5), k=5), scale_decay=0.5)
    reps = 700
    cov = empirical_cov(spec, 32, grid, reps, seed=3)
    rows = sn_rows(spec, 32, grid, 3, 0, reps)
    ref = rows.T @ rows / reps
    assert np.abs(cov - ref).max() <= 1e-12 * np.abs(ref).max()


def test_empirical_cov_parallel_matches_serial(grid16, const_normal_field):
    a = empirical_cov(const_normal_field, 16, grid16, 300, seed=2, threads=1)
    b = empirical_cov(const_normal_field, 16, grid16, 300, seed=2, threads=4)
    assert np.array_equal(a, b)


def test_summarize_norm_powers_happy_path():
    norms = np.array([1.0, 2.0, 3.0, 4.0] * 50)
    est = summarize_norm_powers(norms, 8, 2.0, 2.0)
    powered = norms**2
    assert_rel(est.value, float(np.mean(powered)), 1e-15)
    se = float(np.std(powered, ddof=1)) / math.sqrt(norms.size)
    assert_rel(est.std_error, se, 1e-12)
    assert est.ci_low < est.value < est.ci_high
    assert not est.heavy_tail


def test_summarize_norm_powers_heavy_tail_flag():
    norms = np.ones(400)
    norms[0] = 60.0  # one extreme outlier drives the kurtosis over the flag level
    est = summarize_norm_powers(norms, 8, 2.0, 2.0)
    assert est.heavy_tail
    const = summarize_norm_powers(np.ones(200), 8, 2.0, 2.0)
    assert not const.heavy_tail and const.std_error == 0.0


@pytest.mark.parametrize("size", [0, 1])
def test_summarize_norm_powers_needs_two_norms(size):
    with pytest.raises(ValueError, match="at least two norms"):
        summarize_norm_powers(np.ones(size), 8, 2.0, 2.0)


def test_summarize_norm_powers_rejects_overflowing_moments():
    # norms of 1e100 raised to s = 4 overflow the mean
    with pytest.raises(ValueError, match="overflow a float"):
        summarize_norm_powers(np.full(200, 1e100), 8, 4.0, 2.0)
    # a finite mean with a variance that overflows
    with pytest.raises(ValueError, match="overflow a float"):
        summarize_norm_powers(np.array([1e-300] * 199 + [1e77]), 8, 4.0, 2.0)
    # finite mean and variance whose fourth central moment overflows: a finite kurtosis
    norms = np.random.default_rng(0).standard_normal(200) * 1e20 + 1e20
    est = summarize_norm_powers(norms, 8, 4.0, 2.0)
    assert math.isfinite(est.value) and math.isfinite(est.std_error)

def test_lyapunov_monotone_on_fixed_sample(const_normal_field, grid16):
    norms = replicate_norms(const_normal_field, 16, 2.0, grid16, 200, seed=6)
    m2 = summarize_norm_powers(norms, 16, 2.0, 2.0).value
    m4 = summarize_norm_powers(norms, 16, 4.0, 2.0).value
    assert m2**2 <= m4 * (1.0 + 1e-12)  # Cauchy-Schwarz on the same sample


def test_estimate_moment_validation(const_normal_field, grid16):
    with pytest.raises(ValueError):
        estimate_moment(const_normal_field, 16, 0.5, 2.0, grid16, 200, seed=0)


def test_write_norms_csv_round_trip(tmp_path, const_normal_field, grid16):
    norms = replicate_norms(const_normal_field, 16, 2.0, grid16, 120, seed=3)
    path = tmp_path / "norms.csv"
    write_norms_csv(str(path), 16, 2.0, 2.0, norms)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["rep", "n", "p", "s", "norm_value"]
    assert len(rows) == 121
    values = np.array([float(r[4]) for r in rows[1:]])
    assert np.array_equal(values, norms)  # repr round-trips doubles exactly
    assert rows[1][0] == "0" and rows[1][1] == "16"
