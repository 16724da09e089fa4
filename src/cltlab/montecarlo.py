"""Monte Carlo estimation of normed-sum moments S_n(t) = n^(-1/2) sum_i xi_i(t).

Every estimator here, and the limit-law sampler in limitlaw, draws its
replications the same way: a block of replications lo, ..., hi - 1 takes its
k = len(rows) standard variates per replication from one call of the
time-sum law's block(key, lo, hi, k), which computes replication rep's values
from its own Philox counters under the seed's key (rng), with no loop over
replications, and scales them by law.sd / sqrt(n). field_blocks projects
those coordinates onto the rows one row at a time; field_norms projects and
reduces them to L^p norms at most TILE grid values at a time, so a chunk's
working arrays stay in cache. For S_n, _sn_field gives the driver's
time_sum_law and the basis; sn_blocks is field_blocks on them. Each row of
a block is computed and reduced on its own, so a replication's values depend
on (seed path, rep) only: neither on how many replications run, nor on the
block or tile they land in.
Replications run in the calling thread, in fixed-size chunks whose results
are assembled in index order; the threads argument of the public functions
is checked and accepted but does not change the work or any result.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from math import fsum

import numpy as np

from .discretize import GridSpace, lp_norms
# sample_sequence and seed_path stay importable here for the tracing hooks in perfbench/tracing.py
from .fieldgen import FieldSpec, TimeSumLaw, abs_normal_moment, check_sequence, sample_sequence  # noqa: F401
from .rng import SeedLike, philox_key, seed_path  # noqa: F401

# 99% two-sided normal quantile, used for every confidence interval here.
CI_Z = 2.5758293035489004

# Chunk size is fixed, so every run sums identical partial results in
# identical order, and bounds the memory of one block.
CHUNK = 256

# Grid values projected and reduced at a time within a chunk (128 KiB of
# float64); a row is reduced on its own, so the tile size changes no result.
TILE = 16384

KURTOSIS_WARN = 100.0

MIN_REPS = 100


@dataclass(frozen=True)
class MomentEstimate:
    """Estimate of E ||S_n||_p^s with a 99% normal-approximation interval."""

    value: float
    ci_low: float
    ci_high: float
    std_error: float
    reps: int
    n: int
    s: float
    p: float
    heavy_tail: bool


def default_n_schedule() -> tuple:
    """Doubling schedule 2^4 .. 2^12 used to probe growth in n."""
    return tuple(2**j for j in range(4, 13))


def check_reps(reps: int) -> int:
    """reps as an int, once it is known to be an integer of at least MIN_REPS."""
    if int(reps) != reps or reps < MIN_REPS:
        raise ValueError(f"needs at least {MIN_REPS} replications")
    return int(reps)


def project(coords: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """coords @ rows, accumulated one row of `rows` at a time.

    Each output row then depends on its own coordinates only, bit for bit; a
    BLAS product can round a row differently with the number of rows.
    """
    out = coords[:, :1] * rows[0]
    for c in range(1, rows.shape[0]):
        out += coords[:, c : c + 1] * rows[c]
    return out


def _coordinates(law: TimeSumLaw, k: int, n: int, seed: SeedLike):
    """draw(lo, hi): (law.sd / sqrt(n)) z for replications lo, ..., hi - 1, one row each.

    z is law.block(key, lo, hi, k), with the seed's Philox key hashed once per
    block; its row i comes from replication lo + i's counters only. It is
    scaled as (z * sd) / sqrt(n), elementwise.
    """
    root = math.sqrt(n)

    def draw(lo: int, hi: int) -> np.ndarray:
        return law.block(philox_key(seed), lo, hi, k) * law.sd / root

    return draw


def field_blocks(law: TimeSumLaw, rows: np.ndarray, n: int, seed: SeedLike):
    """block(lo, hi): (law.sd / sqrt(n)) z @ rows for replications lo, ..., hi - 1, one row each.

    The coordinates come from _coordinates and are projected row by row, so
    a row depends on seed and rep only, bit for bit.
    """
    rows = np.ascontiguousarray(rows)
    draw = _coordinates(law, rows.shape[0], n, seed)
    return lambda lo, hi: project(draw(lo, hi), rows)


def field_norms(law: TimeSumLaw, rows: np.ndarray, n: int, seed: SeedLike, p: float, grid: GridSpace):
    """worker(lo, hi): ||field_blocks(law, rows, n, seed)(lo, hi)||_p row by row, bit for bit.

    The block's coordinates are drawn once, then projected and reduced
    max(1, TILE // grid.size) rows at a time, so no array the size of the
    whole projected block is made.
    """
    rows = np.ascontiguousarray(rows)
    draw = _coordinates(law, rows.shape[0], n, seed)
    step = max(1, TILE // grid.size)

    def worker(lo: int, hi: int) -> np.ndarray:
        coords = draw(lo, hi)
        tiles = [lp_norms(project(coords[a : a + step], rows), p, grid) for a in range(0, hi - lo, step)]
        return np.concatenate(tiles)

    return worker


def _sn_field(spec: FieldSpec, n: int, grid: GridSpace) -> tuple:
    """(law, rows, n) of S_n for field_blocks and field_norms, after the sequence checks.

    The driver's time_sum_law (and its standard deviation) is set up once
    here, not per block: a row is the replication's k time sums sum_i c_i
    X_i, c_i = 1 or spec.scales(n), over sqrt(n), projected onto the basis.
    """
    n = check_sequence(spec, n, grid)
    return spec.driver.time_sum_law(n, spec.scales(n)), spec.basis, n


def sn_blocks(spec: FieldSpec, n: int, grid: GridSpace, seed: SeedLike):
    """block(lo, hi): S_n on the grid for replications lo, ..., hi - 1, one row each."""
    return field_blocks(*_sn_field(spec, n, grid), seed)


def run_chunked(worker, reps: int, threads: int) -> list:
    """worker(lo, hi) over fixed chunks of CHUNK replications, in chunk order, in the calling thread.

    threads must be nonnegative; it does not change the work or the results.
    """
    if threads < 0:
        raise ValueError("threads must be nonnegative")
    return [worker(lo, min(lo + CHUNK, reps)) for lo in range(0, reps, CHUNK)]


def replicate_norms(
    spec: FieldSpec,
    n: int,
    p: float,
    grid: GridSpace,
    reps: int,
    seed: SeedLike,
    threads: int = 1,
) -> np.ndarray:
    """||S_n||_p over replications, each from its own Philox counters."""
    reps = check_reps(reps)
    worker = field_norms(*_sn_field(spec, n, grid), seed, p, grid)
    return np.concatenate(run_chunked(worker, reps, threads))


def summarize_norm_powers(norms: np.ndarray, n: int, s: float, p: float) -> MomentEstimate:
    """CI assembly for mean(||S_n||_p^s), with a heavy-tail flag via kurtosis.

    Raises ValueError for fewer than two norms, and when the mean or the
    variance of the powers is not a finite float, as when the field's scale
    overflows them.
    """
    if not (1.0 <= s < math.inf):
        raise ValueError(f"moment power s must be finite and at least 1, not {s}")
    if np.size(norms) < 2:
        raise ValueError("a mean with a confidence interval needs at least two norms")
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        powered = np.asarray(norms, dtype=float) ** s
        reps = powered.size
        value = float(np.mean(powered))
        centered = powered - value
        var = float(np.sum(centered**2)) / (reps - 1)
    if not (math.isfinite(value) and math.isfinite(var)):
        raise ValueError(f"the mean and variance of ||S_n||_p^s at n = {n}, s = {s} overflow a float")
    se = math.sqrt(var / reps)
    if var > 0.0:
        # squares of centered^2 / m2, not centered^4 / m2^2, which overflow for finite var
        sq = centered**2
        kurt = float(np.mean((sq / float(np.mean(sq))) ** 2))
    else:
        kurt = 0.0
    return MomentEstimate(
        value=value,
        ci_low=value - CI_Z * se,
        ci_high=value + CI_Z * se,
        std_error=se,
        reps=reps,
        n=int(n),
        s=float(s),
        p=float(p),
        heavy_tail=kurt > KURTOSIS_WARN,
    )


def estimate_moment(
    spec: FieldSpec,
    n: int,
    s: float,
    p: float,
    grid: GridSpace,
    reps: int,
    seed: SeedLike,
    threads: int = 1,
) -> MomentEstimate:
    """Monte Carlo estimate of E ||S_n||_p^s with a 99% CI."""
    norms = replicate_norms(spec, n, p, grid, reps, seed, threads)
    return summarize_norm_powers(norms, n, s, p)


def empirical_cov(
    spec: FieldSpec,
    n: int,
    grid: GridSpace,
    reps: int,
    seed: SeedLike,
    threads: int = 1,
) -> np.ndarray:
    """Second-moment matrix mean_r[S_n S_n^T] over replications.

    S_n has mean zero by construction, so no sample-mean centering is applied;
    the weighted trace of this matrix is then algebraically identical to
    estimate_moment(s=2, p=2) on the same seeds.
    """
    reps = check_reps(reps)
    block = sn_blocks(spec, n, grid, seed)

    def worker(lo: int, hi: int) -> np.ndarray:
        rows = block(lo, hi)
        return rows.T @ rows

    chunks = run_chunked(worker, reps, threads)
    acc = chunks[0].copy()
    for part in chunks[1:]:
        acc += part
    return acc / float(reps)


def sup_v_norm(
    spec: FieldSpec,
    grid: GridSpace,
    v: float,
    reps: int = 2000,
    seed: SeedLike = 0,
) -> float:
    """integral over T of sup_i E|xi_i(t)|^v, in closed form for a Gaussian driver.

    A Gaussian xi(t) is N(0, var(t)) with var(t) = marginal variance times
    sum_k phi_k(t)^2, so its absolute moment is in closed form. For any other
    driver this is the mean of ||xi_1||_v^v = ||S_1||_v^v over reps
    replications from seed. With the experimental scaling the supremum over i
    sits at i = 1, scale 1 + scale_decay. Raises ValueError when the integral
    is not a finite float.
    """
    if v < 1.0:
        raise ValueError("requires v >= 1")
    if spec.basis.shape[1] != grid.size:
        raise ValueError("basis was evaluated on a different grid size")
    if spec.driver.is_gaussian:
        scale_sup = 1.0 if spec.scale_decay is None else 1.0 + spec.scale_decay
        var_t = spec.driver.marginal_variance * np.sum(spec.basis**2, axis=0)
        with np.errstate(over="ignore"):  # checked below
            terms, count = grid.weights * abs_normal_moment(v) * (scale_sup * np.sqrt(var_t)) ** v, 1
    else:
        norms = replicate_norms(spec, 1, v, grid, reps, seed)
        with np.errstate(over="ignore"):  # checked below
            terms, count = norms**v, norms.size
    try:
        integral = fsum(terms.tolist()) / count
    except OverflowError:  # fsum raises where a partial sum leaves float range
        integral = math.inf
    if not math.isfinite(integral):
        raise ValueError(f"the sup-norm integral I at v = {v:g} overflows a float")
    return integral


def write_norms_csv(path: str, n: int, p: float, s: float, norms: np.ndarray) -> None:
    """Per-replication records: rep, n, p, s, norm_value."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rep", "n", "p", "s", "norm_value"])
        for rep, val in enumerate(norms):
            writer.writerow([rep, n, p, s, repr(float(val))])
