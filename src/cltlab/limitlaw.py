"""Gaussian limit field of S_n: covariance assembly, factorization, sampling.

The limit covariance on the grid is R(t, u) = sum_{k,l} Lambda_{kl} phi_k(t)
phi_l(u) with Lambda the long-run covariance of the driver components. The
components are independent, Lambda = lrv I, so the model's limit field is
S = sqrt(lrv) z^T basis with z standard normal in R^K: it is sampled in basis
coordinates through the exact factor sqrt(lrv) basis^T, whatever the rank of
R. A covariance given directly (an injected, deliberately wrong limit law) is
factored by Cholesky with an escalating jitter schedule and a pivoted
fallback; degeneracy raises, it never produces silent NaNs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpstrf

from .discretize import GridSpace, lp_norms
from .fieldgen import FieldSpec, long_run_covariance
from .montecarlo import pool_threads, project, run_chunked
# stream stays importable here for the tracing hooks in perfbench/tracing.py
from .rng import SeedLike, stream, streams  # noqa: F401

JITTERS = (0.0, 1e-12, 1e-10, 1e-8)

# Acceptance threshold for ||F F^T - (R + jitter I)||_F relative to ||R + jitter I||_F.
FACTOR_RTOL = 1e-8

# Eigenvalues below -1e-10 * max diagonal mean the matrix is indefinite, which
# jitter must not paper over.
EIG_RTOL = 1e-10


class DegenerateCovarianceError(Exception):
    """The covariance could not be factored within the jitter schedule."""


@dataclass(frozen=True)
class LimitField:
    """Covariance R on the grid and a (grid x r) factor F with F F^T = R + jitter I."""

    covariance: np.ndarray
    factor: np.ndarray
    jitter: float


def _factor_error(factor: np.ndarray, target: np.ndarray) -> float:
    denom = float(np.linalg.norm(target))
    if denom == 0.0:
        return float(np.linalg.norm(factor @ factor.T))
    return float(np.linalg.norm(factor @ factor.T - target)) / denom


def factorize_covariance(cov: np.ndarray) -> LimitField:
    """Lower-triangular-style factor F with F F^T = cov + jitter I.

    Tries plain Cholesky over the jitter schedule, then a pivoted Cholesky at
    the top jitter (the factor is then row-permuted lower triangular). Raises
    DegenerateCovarianceError when the matrix is indefinite beyond tolerance or
    no candidate reproduces the target within 1e-8 relative Frobenius error.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.shape[0] == 0:
        raise ValueError("covariance must be a square matrix")
    if not np.all(np.isfinite(cov)):
        raise ValueError("covariance entries must be finite")
    if not np.allclose(cov, cov.T, rtol=0.0, atol=1e-12 * max(1.0, float(np.abs(cov).max()))):
        raise ValueError("covariance must be symmetric")
    cov = (cov + cov.T) / 2.0
    if not cov.any():
        return LimitField(covariance=cov, factor=np.zeros_like(cov), jitter=0.0)
    eye = np.eye(cov.shape[0])
    checked_spectrum = False
    for jitter in JITTERS:
        target = cov + jitter * eye
        try:
            factor = np.linalg.cholesky(target)
        except np.linalg.LinAlgError:
            if not checked_spectrum:
                floor = -EIG_RTOL * float(np.diag(cov).max())
                if float(np.linalg.eigvalsh(cov).min()) < floor:
                    raise DegenerateCovarianceError(
                        "covariance is indefinite beyond tolerance; refusing to jitter it away"
                    )
                checked_spectrum = True
            continue
        if _factor_error(factor, target) <= FACTOR_RTOL:
            return LimitField(covariance=cov, factor=factor, jitter=jitter)
    jitter = JITTERS[-1]
    target = cov + jitter * eye
    c, piv, rank, _info = dpstrf(target, lower=1)
    tri = np.tril(c)
    tri[:, rank:] = 0.0
    factor = np.empty_like(tri)
    factor[piv - 1] = tri
    if _factor_error(factor, target) <= FACTOR_RTOL:
        return LimitField(covariance=cov, factor=factor, jitter=jitter)
    raise DegenerateCovarianceError(
        "covariance factorization failed at max jitter "
        f"{jitter:g}; the matrix is numerically degenerate"
    )


def limit_covariance(spec: FieldSpec, grid: GridSpace) -> LimitField:
    """The limit covariance of S_n on the grid with its exact (grid x K) factor, no jitter."""
    if spec.basis.shape[1] != grid.size:
        raise ValueError("basis was evaluated on a different grid size")
    cov = spec.basis.T @ long_run_covariance(spec) @ spec.basis
    factor = math.sqrt(spec.driver.long_run_variance()) * spec.basis.T
    return LimitField(covariance=cov, factor=factor, jitter=0.0)


def sample_limit_norms(
    field: LimitField,
    p: float,
    grid: GridSpace,
    reps: int,
    seed: SeedLike,
    threads: int = 1,
) -> np.ndarray:
    """||S||_p over replications of the limit field S = factor z, z standard normal.

    Replication rep draws its r = factor.shape[1] normals from the stream
    (seed, rep) (r = K for the model's limit law), taken from streams(seed,
    lo, hi) with one hash of the seed per chunk; with fixed chunking and
    row-by-row projection and norms, serial and parallel runs agree bit for
    bit and a replication's norm does not depend on reps.
    """
    if field.factor.shape[0] != grid.size:
        raise ValueError("limit field lives on a different grid size")
    if int(reps) != reps or reps < 1:
        raise ValueError("reps must be a positive integer")
    reps = int(reps)
    rows = np.ascontiguousarray(field.factor.T)
    r = rows.shape[0]

    def worker(lo: int, hi: int) -> np.ndarray:
        z = np.empty((hi - lo, r))
        for i, rng in enumerate(streams(seed, lo, hi)):
            z[i] = rng.standard_normal(r)
        return lp_norms(project(z, rows), p, grid)

    return np.concatenate(run_chunked(worker, reps, pool_threads(threads, r)))
