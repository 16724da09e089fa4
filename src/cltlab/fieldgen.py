"""Random-field generators: xi_i(t) = sum_k X_{i,k} phi_k(t).

Drivers are stationary scalar sequences (iid Gaussian, iid Rademacher, finite
moving average, Gaussian AR(1) with stationary start), replicated over K
independent components and combined with basis functions evaluated on a grid.
A driver's sample_component(rng, n) returns one component path of length n;
sample_component(rng, n, k) returns k of them as a (k x n) array, drawing
every time step of component 0 before component 1's. One replication draws
all its components from one stream that way, rng.stream at its seed path (a
golden-ratio jump of a SeedSequence-keyed PCG64DXSM), so the same seed path
gives the same sequence bit for bit in serial and parallel runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum
from typing import Optional, Union

import numpy as np
from scipy.signal import lfilter

from .discretize import GridSpace
from .rng import SeedLike, stream


def _shape(n: int, k: Optional[int]) -> tuple:
    """(n,) for one component path; (k, n) for k paths drawn one after another."""
    return (n,) if k is None else (k, n)


def abs_normal_moment(v: float) -> float:
    """E|N(0,1)|^v = 2^(v/2) Gamma((v+1)/2) / sqrt(pi)."""
    if v < 0:
        raise ValueError("moment order must be nonnegative")
    return 2.0 ** (v / 2.0) * math.gamma((v + 1.0) / 2.0) / math.sqrt(math.pi)


@dataclass(frozen=True)
class IidNormal:
    """Independent N(0, sigma^2) entries."""

    sigma: float = 1.0
    k: int = 1

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValueError("sigma must be finite and nonnegative")
        if int(self.k) != self.k or self.k < 1:
            raise ValueError("component count k must be a positive integer")
        object.__setattr__(self, "k", int(self.k))

    is_gaussian = True

    @property
    def marginal_variance(self) -> float:
        return self.sigma**2

    def autocovariance(self, lag: int) -> float:
        return self.sigma**2 if lag == 0 else 0.0

    def long_run_variance(self) -> float:
        return self.sigma**2

    def sample_component(self, rng: np.random.Generator, n: int, k: Optional[int] = None) -> np.ndarray:
        return rng.standard_normal(_shape(n, k)) * self.sigma


@dataclass(frozen=True)
class IidRademacher:
    """Independent +-1 entries with equal probability."""

    k: int = 1

    def __post_init__(self) -> None:
        if int(self.k) != self.k or self.k < 1:
            raise ValueError("component count k must be a positive integer")
        object.__setattr__(self, "k", int(self.k))

    is_gaussian = False

    @property
    def marginal_variance(self) -> float:
        return 1.0

    def autocovariance(self, lag: int) -> float:
        return 1.0 if lag == 0 else 0.0

    def long_run_variance(self) -> float:
        return 1.0

    def sample_component(self, rng: np.random.Generator, n: int, k: Optional[int] = None) -> np.ndarray:
        return rng.integers(0, 2, size=_shape(n, k)).astype(float) * 2.0 - 1.0


@dataclass(frozen=True)
class MaQ:
    """Moving average of order q = len(weights) - 1 over iid N(0,1) innovations.

    The stored weights are the given shape rescaled so the marginal variance
    equals sigma^2; weights=(1, 1) with sigma=1 stores (1, 1)/sqrt(2).
    """

    weights: tuple
    sigma: float = 1.0
    k: int = 1

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0 or not np.all(np.isfinite(w)):
            raise ValueError("weights must be a nonempty finite 1-d sequence")
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError("sigma must be finite and positive")
        nrm = math.sqrt(fsum((w * w).tolist()))
        if nrm == 0.0:
            raise ValueError("weights must not all be zero")
        if int(self.k) != self.k or self.k < 1:
            raise ValueError("component count k must be a positive integer")
        # skip the rescale when already normalized, so serialize/parse round trips exactly
        if not math.isclose(nrm, self.sigma, rel_tol=1e-15, abs_tol=0.0):
            w = w * (self.sigma / nrm)
        object.__setattr__(self, "weights", tuple(w.tolist()))
        object.__setattr__(self, "k", int(self.k))

    is_gaussian = True

    @property
    def order(self) -> int:
        return len(self.weights) - 1

    @property
    def marginal_variance(self) -> float:
        return self.sigma**2

    def autocovariance(self, lag: int) -> float:
        lag = abs(int(lag))
        w = self.weights
        return fsum(w[u] * w[u + lag] for u in range(len(w) - lag)) if lag < len(w) else 0.0

    def long_run_variance(self) -> float:
        return fsum(self.weights) ** 2

    def sample_component(self, rng: np.random.Generator, n: int, k: Optional[int] = None) -> np.ndarray:
        q = self.order
        eps = rng.standard_normal(_shape(n + q, k))
        # X_i = sum_j w_j eps_{i+q-j}: one weighted window of the innovations per lag
        out = self.weights[0] * eps[..., q:]
        for j in range(1, q + 1):
            out += self.weights[j] * eps[..., q - j : q - j + n]
        return out


@dataclass(frozen=True)
class Ar1:
    """Gaussian AR(1) with stationary initialization.

    X_1 = rho X_0 + e_1 with X_0 ~ N(0, m), m = sigma_innov^2 / (1 - rho^2),
    so the sequence is stationary from the first index. Each component consumes
    one draw for its start value and then one per innovation, which is why
    rho = 0 is equal in law to the iid normal driver but not draw for draw.
    """

    rho: float
    sigma_innov: float = 1.0
    k: int = 1

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rho) and abs(self.rho) < 1.0):
            raise ValueError("requires |rho| < 1")
        if not (math.isfinite(self.sigma_innov) and self.sigma_innov >= 0.0):
            raise ValueError("sigma_innov must be finite and nonnegative")
        if int(self.k) != self.k or self.k < 1:
            raise ValueError("component count k must be a positive integer")
        object.__setattr__(self, "k", int(self.k))

    is_gaussian = True

    @property
    def marginal_variance(self) -> float:
        return self.sigma_innov**2 / (1.0 - self.rho**2)

    def autocovariance(self, lag: int) -> float:
        return self.marginal_variance * self.rho ** abs(int(lag))

    def long_run_variance(self) -> float:
        return self.marginal_variance * (1.0 + self.rho) / (1.0 - self.rho)

    def sample_component(self, rng: np.random.Generator, n: int, k: Optional[int] = None) -> np.ndarray:
        draws = rng.standard_normal(_shape(n + 1, k))
        x0 = draws[..., :1] * math.sqrt(self.marginal_variance)
        eps = draws[..., 1:] * self.sigma_innov
        out, _ = lfilter([1.0], [1.0, -self.rho], eps, axis=-1, zi=self.rho * x0)
        return out


def ar1_unit_marginal(rho: float, k: int = 1) -> Ar1:
    """AR(1) with unit marginal variance: sigma_innov = sqrt(1 - rho^2)."""
    return Ar1(rho=rho, sigma_innov=math.sqrt(1.0 - rho**2), k=k)


Driver = Union[IidNormal, IidRademacher, MaQ, Ar1]


def basis_matrix(name: str, k: int, grid: GridSpace) -> np.ndarray:
    """Named basis families evaluated on the grid, one row per function.

    const: the constant 1 (k must be 1). fourier: 1, sqrt(2) sin(2 pi j t),
    sqrt(2) cos(2 pi j t), ... (orthonormal on [0,1]). indicator: k equal-width
    cell indicators.
    """
    if int(k) != k or k < 1:
        raise ValueError("basis size k must be a positive integer")
    k = int(k)
    t = grid.points
    if name == "const":
        if k != 1:
            raise ValueError("const basis has exactly one function")
        return np.ones((1, t.size))
    if name == "fourier":
        rows = [np.ones(t.size)]
        j = 1
        while len(rows) < k:
            rows.append(math.sqrt(2.0) * np.sin(2.0 * math.pi * j * t))
            if len(rows) < k:
                rows.append(math.sqrt(2.0) * np.cos(2.0 * math.pi * j * t))
            j += 1
        return np.vstack(rows)
    if name == "indicator":
        edges = np.linspace(0.0, 1.0, k + 1)
        rows = [((t >= edges[j]) & (t < edges[j + 1])).astype(float) for j in range(k)]
        rows[-1] = rows[-1] + (t == 1.0)
        return np.vstack(rows)
    raise ValueError(f"unknown basis family {name!r}")


@dataclass(frozen=True)
class FieldSpec:
    """Basis rows (K x grid) plus a driver with K components.

    scale_decay, when set, multiplies replication i by 1 + scale_decay/i, a
    deterministic non-stationary scaling that tends to 1. Experimental: the
    limit law and mixing profile treat the field as if unscaled, which is the
    asymptotically correct reading.
    """

    basis: np.ndarray
    driver: Driver
    label: str = ""
    scale_decay: Optional[float] = None

    def __post_init__(self) -> None:
        b = np.asarray(self.basis, dtype=float)
        if b.ndim != 2 or b.shape[0] == 0 or b.shape[1] == 0:
            raise ValueError("basis must be a 2-d array with one row per function")
        if not np.all(np.isfinite(b)):
            raise ValueError("basis values must be finite")
        if b.shape[0] != self.driver.k:
            raise ValueError(
                f"driver has {self.driver.k} components but basis has {b.shape[0]} rows"
            )
        if self.scale_decay is not None and not (
            math.isfinite(self.scale_decay) and self.scale_decay >= 0.0
        ):
            raise ValueError("scale_decay must be finite and nonnegative")
        b.flags.writeable = False
        object.__setattr__(self, "basis", b)

    @property
    def n_components(self) -> int:
        return int(self.basis.shape[0])

    @property
    def experimental(self) -> bool:
        return self.scale_decay is not None

    def scales(self, n: int) -> Optional[np.ndarray]:
        """Multipliers 1 + scale_decay / i for i = 1..n, or None when unscaled."""
        if self.scale_decay is None:
            return None
        i = np.arange(1, n + 1, dtype=float)
        return 1.0 + self.scale_decay / i


def check_sequence(spec: FieldSpec, n: int, grid: GridSpace) -> int:
    """Validate a sequence length and the basis's grid; returns n as an int."""
    if int(n) != n or n < 1:
        raise ValueError("sequence length n must be a positive integer")
    if spec.basis.shape[1] != grid.size:
        raise ValueError("basis was evaluated on a different grid size")
    return int(n)


def sample_sequence(spec: FieldSpec, n: int, grid: GridSpace, seed: SeedLike) -> np.ndarray:
    """One replication of (xi_1, ..., xi_n) on the grid, as an (n x grid) matrix.

    Every component and time step is drawn from the one stream rng.stream(seed),
    component after component, so two calls with the same seed path agree bit
    for bit; with seed = seed_path(root, rep) that is the stream
    montecarlo.sn_block draws replication rep from.
    """
    n = check_sequence(spec, n, grid)
    x = spec.driver.sample_component(stream(seed), n, spec.n_components)
    sc = spec.scales(n)
    if sc is not None:
        x = x * sc
    return x.T @ spec.basis


def long_run_covariance(spec: FieldSpec) -> np.ndarray:
    """Lambda = sum over all lags of the driver autocovariance, per component.

    Components are independent copies, so the matrix is lrv * identity.
    """
    return np.eye(spec.n_components) * spec.driver.long_run_variance()


def driver_to_dict(driver: Driver) -> dict:
    if isinstance(driver, IidNormal):
        return {"iid_normal": {"sigma": driver.sigma, "k": driver.k}}
    if isinstance(driver, IidRademacher):
        return {"iid_rademacher": {"k": driver.k}}
    if isinstance(driver, MaQ):
        return {"ma_q": {"weights": list(driver.weights), "sigma": driver.sigma, "k": driver.k}}
    if isinstance(driver, Ar1):
        return {"ar1": {"rho": driver.rho, "sigma_innov": driver.sigma_innov, "k": driver.k}}
    raise ValueError(f"unknown driver {type(driver).__name__}")


def driver_from_dict(obj: dict) -> Driver:
    """Parse the JSON config form, rejecting unknown keys."""
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ValueError("driver must be an object with exactly one driver-kind key")
    (name, params), = obj.items()
    if not isinstance(params, dict):
        raise ValueError("driver parameters must be an object")
    kinds = {
        "iid_normal": (IidNormal, {"sigma", "k"}),
        "iid_rademacher": (IidRademacher, {"k"}),
        "ma_q": (MaQ, {"weights", "sigma", "k"}),
        "ar1": (Ar1, {"rho", "sigma_innov", "k"}),
    }
    if name not in kinds:
        raise ValueError(f"unknown driver kind {name!r}")
    cls, allowed = kinds[name]
    unknown = set(params) - allowed
    if unknown:
        raise ValueError(f"unknown {name} keys: {sorted(unknown)}")
    if name == "ma_q":
        if "weights" not in params:
            raise ValueError("ma_q needs weights")
        params = dict(params, weights=tuple(params["weights"]))
    return cls(**params)


def field_from_config(obj: dict, grid: GridSpace) -> FieldSpec:
    """Build a FieldSpec from config: named basis family or explicit rows."""
    if not isinstance(obj, dict):
        raise ValueError("field must be an object")
    unknown = set(obj) - {"basis", "driver", "label", "scale_decay"}
    if unknown:
        raise ValueError(f"unknown field keys: {sorted(unknown)}")
    if "basis" not in obj or "driver" not in obj:
        raise ValueError("field needs 'basis' and 'driver'")
    b = obj["basis"]
    if isinstance(b, dict) and set(b) <= {"name", "k"} and "name" in b:
        basis = basis_matrix(b["name"], b.get("k", 1), grid)
    elif isinstance(b, dict) and set(b) == {"rows"}:
        basis = np.asarray(b["rows"], dtype=float)
    else:
        raise ValueError('basis must be {"name": ..., "k": ...} or {"rows": [[...], ...]}')
    return FieldSpec(
        basis=basis,
        driver=driver_from_dict(obj["driver"]),
        label=obj.get("label", ""),
        scale_decay=obj.get("scale_decay"),
    )
