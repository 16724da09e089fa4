"""Monte Carlo estimation of normed-sum moments S_n(t) = n^(-1/2) sum_i xi_i(t).

Every estimator here is built on one block primitive, sn_block, which returns
S_n on the grid for a range of replications. Replication rep draws everything
from its own stream (seed, rep), taken from rng.streams, and each row of a
block is computed and reduced on its own, so a replication's values depend
neither on the thread count nor on how many replications run. Replications
are partitioned into fixed-size chunks whose results are assembled in index
order, so estimates are bit-identical for any thread count.
"""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import fsum

import numpy as np

from .discretize import GridSpace, lp_norms
from .fieldgen import FieldSpec, abs_normal_moment, check_sequence, sample_sequence
# seed_path stays importable here for the tracing hooks in perfbench/tracing.py
from .rng import SeedLike, seed_path, streams  # noqa: F401

# 99% two-sided normal quantile, used for every confidence interval here.
CI_Z = 2.5758293035489004

# Chunk size is fixed (not derived from the thread count) so serial and
# parallel runs sum identical partial results in identical order.
CHUNK = 256

KURTOSIS_WARN = 100.0

MIN_REPS = 100

# Draws per replication below which a thread pool does not pay. Only the draws
# run outside the GIL; shorter ones save less than the GIL handoffs between
# threads cost. Two threads against serial on a 2-core machine: 0.82-0.95x at
# 1024 draws per replication; at 2048, 1.4-1.7x for normal and MA(q) drivers
# and 1.03x for AR(1); 1.3-1.9x for the three from 4096 up. Rademacher draws
# are cheap enough that two threads stay slower (0.6x at 2048, 0.8x at 4096)
# until about 16k draws (1.7x).
MIN_PARALLEL_DRAWS = 2048


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


def _thread_count(threads: int) -> int:
    if threads < 0:
        raise ValueError("threads must be nonnegative (0 = auto)")
    return os.cpu_count() or 1 if threads == 0 else threads


def pool_threads(threads: int, draws: int) -> int:
    """The thread count to run replications of `draws` random draws each with.

    Serial below MIN_PARALLEL_DRAWS; results do not depend on it either way.
    """
    threads = _thread_count(threads)
    return threads if draws >= MIN_PARALLEL_DRAWS else 1


def check_reps(reps: int) -> int:
    """reps as an int, once it is known to be an integer of at least MIN_REPS."""
    if int(reps) != reps or reps < MIN_REPS:
        raise ValueError(f"needs at least {MIN_REPS} replications")
    return int(reps)


def simulate_sn(spec: FieldSpec, n: int, grid: GridSpace, seed: SeedLike) -> np.ndarray:
    """One normalized-sum path on the grid."""
    rows = sample_sequence(spec, n, grid, seed)
    return rows.sum(axis=0) / math.sqrt(n)


def project(coords: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """coords @ rows, accumulated one row of `rows` at a time.

    Each output row then depends on its own coordinates only, bit for bit; a
    BLAS product can round a row differently with the number of rows.
    """
    out = coords[:, :1] * rows[0]
    for c in range(1, rows.shape[0]):
        out += coords[:, c : c + 1] * rows[c]
    return out


def sn_block(spec: FieldSpec, n: int, grid: GridSpace, seed: SeedLike, lo: int, hi: int) -> np.ndarray:
    """S_n on the grid for replications lo, ..., hi - 1, one row each.

    Replication rep draws every component and time step from its stream in
    streams(seed, lo, hi), which is stream(seed_path(seed, rep)), in the order
    sample_sequence draws them, so its row agrees with
    simulate_sn(spec, n, grid, seed_path(seed, rep)) to rounding. The seed is
    hashed once per block. Each component is summed over time (weighted under
    scale_decay) before the basis projection, which runs once per block.
    """
    n = check_sequence(spec, n, grid)
    k = spec.n_components
    scales = spec.scales(n)
    draw = spec.driver.sample_component
    sums = np.empty((hi - lo, k))
    for i, rng in enumerate(streams(seed, lo, hi)):
        x = draw(rng, n, k)
        sums[i] = x.sum(axis=1) if scales is None else (x * scales).sum(axis=1)
    return project(sums / math.sqrt(n), spec.basis)


def run_chunked(worker, reps: int, threads: int) -> list:
    """worker(lo, hi) over fixed chunks; results always in chunk order.

    The chunk layout never depends on the thread count, which is what makes
    parallel runs reproduce serial results exactly.
    """
    spans = [(lo, min(lo + CHUNK, reps)) for lo in range(0, reps, CHUNK)]
    nthreads = _thread_count(threads)
    if nthreads <= 1 or len(spans) == 1:
        return [worker(lo, hi) for lo, hi in spans]
    with ThreadPoolExecutor(max_workers=nthreads) as pool:
        futures = [pool.submit(worker, lo, hi) for lo, hi in spans]
        return [f.result() for f in futures]


def replicate_norms(
    spec: FieldSpec,
    n: int,
    p: float,
    grid: GridSpace,
    reps: int,
    seed: SeedLike,
    threads: int = 1,
) -> np.ndarray:
    """||S_n||_p over replications, one stream per replication."""
    reps = check_reps(reps)
    chunks = run_chunked(
        lambda lo, hi: lp_norms(sn_block(spec, n, grid, seed, lo, hi), p, grid),
        reps,
        pool_threads(threads, n * spec.n_components),
    )
    return np.concatenate(chunks)


def summarize_norm_powers(norms: np.ndarray, n: int, s: float, p: float) -> MomentEstimate:
    """CI assembly for mean(||S_n||_p^s), with a heavy-tail flag via kurtosis."""
    powered = np.asarray(norms, dtype=float) ** s
    reps = powered.size
    value = float(np.mean(powered))
    centered = powered - value
    var = float(np.sum(centered**2)) / (reps - 1)
    se = math.sqrt(var / reps)
    if var > 0.0:
        kurt = float(np.mean(centered**4)) / (float(np.mean(centered**2)) ** 2)
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
    if s < 1.0:
        raise ValueError("requires s >= 1")
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

    def worker(lo: int, hi: int) -> np.ndarray:
        block = sn_block(spec, n, grid, seed, lo, hi)
        return block.T @ block

    chunks = run_chunked(worker, reps, pool_threads(threads, n * spec.n_components))
    acc = chunks[0].copy()
    for part in chunks[1:]:
        acc += part
    return acc / float(reps)


def sup_v_norm(
    spec: FieldSpec,
    grid: GridSpace,
    v: float,
    mode: str = "analytic",
    reps: int = 2000,
    seed: SeedLike = 0,
) -> float:
    """integral over T of sup_i E|xi_i(t)|^v, by closed form or Monte Carlo.

    Analytic mode needs a Gaussian driver: xi(t) is then N(0, var(t)) with
    var(t) = marginal variance times sum_k phi_k(t)^2, and the absolute moment
    is in closed form. Monte Carlo mode averages ||xi_1||_v^v = ||S_1||_v^v over
    replications. With the experimental scaling the supremum over i sits at
    i = 1, scale 1 + scale_decay.
    """
    if v < 1.0:
        raise ValueError("requires v >= 1")
    if spec.basis.shape[1] != grid.size:
        raise ValueError("basis was evaluated on a different grid size")
    if mode == "analytic":
        if not spec.driver.is_gaussian:
            raise ValueError("analytic mode requires a Gaussian driver")
        scale_sup = 1.0 if spec.scale_decay is None else 1.0 + spec.scale_decay
        var_t = spec.driver.marginal_variance * np.sum(spec.basis**2, axis=0)
        terms = grid.weights * abs_normal_moment(v) * (scale_sup * np.sqrt(var_t)) ** v
        return fsum(terms.tolist())
    if mode == "monte_carlo":
        norms = replicate_norms(spec, 1, v, grid, reps, seed)
        return fsum((norms**v).tolist()) / norms.size
    raise ValueError("mode must be 'analytic' or 'monte_carlo'")


def write_norms_csv(path: str, n: int, p: float, s: float, norms: np.ndarray) -> None:
    """Per-replication records: rep, n, p, s, norm_value."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rep", "n", "p", "s", "norm_value"])
        for rep, val in enumerate(norms):
            writer.writerow([rep, n, p, s, repr(float(val))])
