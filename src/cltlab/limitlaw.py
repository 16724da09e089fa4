"""Gaussian limit field of S_n: its factor, factorization of a given covariance, sampling.

A limit law on the grid is held by one (grid x r) factor F alone: the field
is S = F z with z standard normal in R^r, and its covariance F F^T is never
formed here. The model's limit covariance is R(t, u) = sum_{k,l}
Lambda_{kl} phi_k(t) phi_l(u) with Lambda the long-run covariance of the
driver components. The components are independent, Lambda = lrv I, so
R = F F^T with the exact factor F = sqrt(lrv) basis^T, whatever the rank
of R. A covariance given directly (an injected, deliberately wrong limit
law) is factored by one symmetric eigendecomposition, keeping the
eigenvalues above numpy's matrix-rank tolerance, and the factor is checked
against the matrix PANEL rows of F F^T at a time; an indefinite matrix or a
factor that does not reproduce it raises, it never produces silent NaNs.

A replication of the limit field is the n = 1 field of the time-sum law
Normal(1.0) on the factor's columns: r Box-Muller normals from its own
Philox counters, drawn with the other replications of a call in blocks of
at most montecarlo.BLOCK_WORDS Philox words under one key, projected onto
the columns and reduced to its L^p norm by montecarlo.field_norms a
montecarlo.CHUNK at a time, at most montecarlo.TILE grid values at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# lp_norms and stream stay importable here for the tracing hooks in perfbench/tracing.py
from .discretize import GridSpace, lp_norms  # noqa: F401
from .fieldgen import FieldSpec, Normal
from .montecarlo import field_norms, run_chunked
from .rng import SeedLike, stream  # noqa: F401

# Acceptance threshold for ||F F^T - R||_F relative to ||R||_F.
FACTOR_RTOL = 1e-8

# Largest |cov - cov^T| entry accepted, relative to the largest |cov| entry.
SYMMETRY_RTOL = 1e-12

# Rows of F F^T - R formed at a time by the factor check, so it makes no
# grid x grid array.
PANEL = 256

# Eigenvalues below -1e-10 * max diagonal mean the matrix is indefinite, which
# the factorization must not paper over.
EIG_RTOL = 1e-10


class DegenerateCovarianceError(Exception):
    """The covariance is indefinite, or its factor does not reproduce it."""


@dataclass(frozen=True)
class LimitField:
    """A limit law on the grid by its (grid x r) factor F: the field F z has covariance F F^T."""

    factor: np.ndarray


def factorize_covariance(cov: np.ndarray) -> LimitField:
    """Factor F = V sqrt(L) of cov = V L V^T, one column per eigenvalue kept.

    The eigenvalues kept are those above numpy's matrix_rank tolerance,
    max eigenvalue * size * eps, so F has as many columns as cov has rank and
    the result does not depend on the matrix's units; an all-zero matrix
    gets one zero column, the fewest that montecarlo.project takes. Raises
    DegenerateCovarianceError when the matrix is indefinite beyond tolerance or
    F F^T misses cov by more than FACTOR_RTOL relative Frobenius error, which
    is summed PANEL rows at a time, never as a whole grid x grid product.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.shape[0] == 0:
        raise ValueError("covariance must be a square matrix")
    if not np.all(np.isfinite(cov)):
        raise ValueError("covariance entries must be finite")
    # relative to the matrix alone, so the check does not depend on its units
    if float(np.abs(cov - cov.T).max()) > SYMMETRY_RTOL * float(np.abs(cov).max()):
        raise ValueError("covariance must be symmetric")
    cov = (cov + cov.T) / 2.0
    if not cov.any():
        return LimitField(np.zeros((cov.shape[0], 1)))
    lam, vec = np.linalg.eigh(cov)
    if lam[0] < -EIG_RTOL * float(np.diag(cov).max()):
        raise DegenerateCovarianceError("covariance is indefinite beyond tolerance")
    keep = lam > lam[-1] * cov.shape[0] * np.finfo(float).eps
    factor = vec[:, keep] * np.sqrt(lam[keep])
    error = math.sqrt(_residual_sq(factor, cov)) / float(np.linalg.norm(cov))
    if not error <= FACTOR_RTOL:
        raise DegenerateCovarianceError(
            f"covariance factor misses the matrix by {error:.3g} relative error; "
            "the matrix is numerically degenerate"
        )
    return LimitField(factor)


def _residual_sq(factor: np.ndarray, cov: np.ndarray) -> float:
    """||factor factor^T - cov||_F^2, summed over PANEL rows of the product at a time, in one buffer."""
    size = cov.shape[0]
    buf = np.empty((min(PANEL, size), size))
    total = 0.0
    for a in range(0, size, PANEL):
        panel = np.matmul(factor[a : a + PANEL], factor.T, out=buf[: min(PANEL, size - a)])
        panel -= cov[a : a + PANEL]
        total += float(np.vdot(panel, panel))
    return total


def limit_covariance(spec: FieldSpec, grid: GridSpace) -> LimitField:
    """The limit law of S_n on the grid by its exact (grid x K) factor sqrt(lrv) basis^T."""
    if spec.basis.shape[1] != grid.size:
        raise ValueError("basis was evaluated on a different grid size")
    return LimitField(math.sqrt(spec.driver.long_run_variance()) * spec.basis.T)


def sample_limit_norms(
    field: LimitField,
    p: float,
    grid: GridSpace,
    reps: int,
    seed: SeedLike,
    threads: int = 1,
) -> np.ndarray:
    """||S||_p over replications of the limit field S = factor z, z standard normal.

    Replication rep takes its r = factor.shape[1] normals from its Philox
    counters under the seed's key (r = K for the model's limit law), through
    montecarlo.field_norms with the law Normal(1.0) at n = 1, whose scaling
    by 1.0 / sqrt(1) is exact; with row-by-row projection and norms, a
    replication's norm depends on seed and rep only, not on reps, threads or
    the block, chunk or tile it is drawn and reduced in.
    """
    if field.factor.shape[0] != grid.size:
        raise ValueError("limit field lives on a different grid size")
    if int(reps) != reps or reps < 1:
        raise ValueError("reps must be a positive integer")
    reps = int(reps)
    worker = field_norms(Normal(1.0), field.factor.T, 1, seed, reps, p, grid)
    return np.concatenate(run_chunked(worker, reps, threads))
