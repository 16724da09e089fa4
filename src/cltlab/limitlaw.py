"""Gaussian limit field of S_n: covariance assembly, factorization, sampling.

The limit covariance on the grid is R(t, u) = sum_{k,l} Lambda_{kl} phi_k(t)
phi_l(u) with Lambda the long-run covariance of the driver components. The
components are independent, Lambda = lrv I, so the model's limit field is
S = sqrt(lrv) z^T basis with z standard normal in R^K: it is sampled in basis
coordinates through the exact factor sqrt(lrv) basis^T, whatever the rank of
R. A covariance given directly (an injected, deliberately wrong limit law) is
factored by one symmetric eigendecomposition, keeping the eigenvalues above
numpy's matrix-rank tolerance; an indefinite matrix or a factor that does not
reproduce it raises, it never produces silent NaNs.

A replication of the limit field is the n = 1 field of the time-sum law
Normal(1.0) on the factor's columns: r Box-Muller normals from its own
Philox counters, projected onto the columns and reduced to its L^p norm by
montecarlo.field_norms, at most montecarlo.TILE grid values at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# lp_norms and stream stay importable here for the tracing hooks in perfbench/tracing.py
from .discretize import GridSpace, lp_norms  # noqa: F401
from .fieldgen import FieldSpec, Normal, long_run_covariance
from .montecarlo import field_norms, run_chunked
from .rng import SeedLike, stream  # noqa: F401

# Acceptance threshold for ||F F^T - R||_F relative to ||R||_F.
FACTOR_RTOL = 1e-8

# Largest |cov - cov^T| entry accepted, relative to the largest |cov| entry.
SYMMETRY_RTOL = 1e-12

# Eigenvalues below -1e-10 * max diagonal mean the matrix is indefinite, which
# the factorization must not paper over.
EIG_RTOL = 1e-10


class DegenerateCovarianceError(Exception):
    """The covariance is indefinite, or its factor does not reproduce it."""


@dataclass(frozen=True)
class LimitField:
    """Covariance R on the grid and a (grid x r) factor F with F F^T = R."""

    covariance: np.ndarray
    factor: np.ndarray


def factorize_covariance(cov: np.ndarray) -> LimitField:
    """Factor F = V sqrt(L) of cov = V L V^T, one column per eigenvalue kept.

    The eigenvalues kept are those above numpy's matrix_rank tolerance,
    max eigenvalue * size * eps, so F has as many columns as cov has rank and
    the result does not depend on the matrix's units. Raises
    DegenerateCovarianceError when the matrix is indefinite beyond tolerance or
    F F^T misses cov by more than FACTOR_RTOL relative Frobenius error.
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
        return LimitField(covariance=cov, factor=np.zeros_like(cov))
    lam, vec = np.linalg.eigh(cov)
    if lam[0] < -EIG_RTOL * float(np.diag(cov).max()):
        raise DegenerateCovarianceError("covariance is indefinite beyond tolerance")
    keep = lam > lam[-1] * cov.shape[0] * np.finfo(float).eps
    factor = vec[:, keep] * np.sqrt(lam[keep])
    error = float(np.linalg.norm(factor @ factor.T - cov)) / float(np.linalg.norm(cov))
    if not error <= FACTOR_RTOL:
        raise DegenerateCovarianceError(
            f"covariance factor misses the matrix by {error:.3g} relative error; "
            "the matrix is numerically degenerate"
        )
    return LimitField(covariance=cov, factor=factor)


def limit_covariance(spec: FieldSpec, grid: GridSpace) -> LimitField:
    """The limit covariance of S_n on the grid with its exact (grid x K) factor sqrt(lrv) basis^T."""
    if spec.basis.shape[1] != grid.size:
        raise ValueError("basis was evaluated on a different grid size")
    cov = spec.basis.T @ long_run_covariance(spec) @ spec.basis
    factor = math.sqrt(spec.driver.long_run_variance()) * spec.basis.T
    return LimitField(covariance=cov, factor=factor)


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
    the tile it is reduced in.
    """
    if field.factor.shape[0] != grid.size:
        raise ValueError("limit field lives on a different grid size")
    if int(reps) != reps or reps < 1:
        raise ValueError("reps must be a positive integer")
    worker = field_norms(Normal(1.0), field.factor.T, 1, seed, p, grid)
    return np.concatenate(run_chunked(worker, int(reps), threads))
