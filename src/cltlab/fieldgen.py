"""Random-field generators: xi_i(t) = sum_k X_{i,k} phi_k(t).

Drivers are stationary scalar sequences (iid Gaussian, iid Rademacher, finite
moving average, Gaussian AR(1) with stationary start), replicated over K
independent components and combined with basis functions evaluated on a grid.
A driver's sample_component(rng, n) returns one component path of length n;
sample_component(rng, n, k) returns k of them as a (k x n) array, drawing
every time step of component 0 before component 1's. sample_sequence draws a
replication that way from one generator, rng.stream at its seed path, so the
same seed path gives the same sequence bit for bit. These path samplers are
the references in law for the time-sum laws below.

A driver's time_sum_law(n, c) is the law of the time sums sum_i c_i X_i of
its components, as a small frozen object: law.block(key, lo, hi, k) returns
the k standard variates of each replication lo, ..., hi - 1 as a (hi - lo, k)
array, computed from that replication's Philox words (rng.words) only, and
the sums are those variates times law.sd; law.rep_words(k) is what one
replication of a block costs in 4-byte words, so callers can size blocks by
memory. A Gaussian driver's sum is a fixed linear combination of
independent innovations, so it is Normal(sd) with sd^2 the sum of the
squared coefficients (Brockwell and Davis, Time Series: Theory and Methods,
7.1), one standard normal per component, by Box-Muller. The
Rademacher driver's law is Rademacher(n, c) with sd 1, n sign bits per
component: an unweighted sum is exactly 2 popcount(bits) - n; a weighted one
unpacks the bits to +-1 and sums them with weights c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, islice
from math import fsum
from typing import Optional, Union

import numpy as np

from .discretize import GridSpace, check_numbers, is_real
from .rng import SeedLike, stream, words


def _shape(n: int, k: Optional[int]) -> tuple:
    """(n,) for one component path; (k, n) for k paths drawn one after another."""
    return (n,) if k is None else (k, n)


def _weights(n: int, scales: Optional[np.ndarray]) -> np.ndarray:
    """The time weights c_1..c_n of a time sum: scales, or ones when unscaled."""
    return np.ones(n) if scales is None else scales


def _scaled_l2(x: np.ndarray) -> tuple:
    """(scale, r) with ||x||_2 = scale * r.

    scale is the power of two at or below max |x|, so x / scale is exact and
    its squares stay in float range; r is the root of their correctly rounded sum.
    """
    top = float(np.max(np.abs(x)))
    if top == 0.0 or not math.isfinite(top):
        return 1.0, top
    scale = 2.0 ** (math.frexp(top)[1] - 1)
    return scale, math.sqrt(fsum(((x / scale) ** 2).tolist()))


def _l2(x: np.ndarray) -> float:
    """Euclidean norm of x, from _scaled_l2."""
    scale, r = _scaled_l2(x)
    return scale * r


def _ar1_filter(x: np.ndarray, rho: float, start: Optional[float] = None) -> np.ndarray:
    """y_i = x_i + rho y_{i-1} over a 1-d x, from y_{-1} = start, or y_0 = x_0 without one.

    Each step rounds rho y_{i-1} and then the sum, as the first-order filter
    lfilter([1], [1, -rho], x, zi=[rho start]) does, so the two agree bit for bit.
    """
    ys = accumulate(x.tolist(), lambda y, e: e + rho * y, initial=start)
    return np.fromiter(ys if start is None else islice(ys, 1, None), float, x.size)


def _signs(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Independent +-1 floats with equal probability, one integer draw each, in C order."""
    return rng.integers(0, 2, size=shape).astype(float) * 2.0 - 1.0


@dataclass(frozen=True)
class Normal:
    """Time sums that are independent N(0, sd^2): block gives their standard normals."""

    sd: float

    def rep_words(self, k: int) -> int:
        """Philox words one replication takes: four per pair of normals."""
        return 4 * -(-k // 2)

    def block(self, key: tuple, lo: int, hi: int, k: int) -> np.ndarray:
        """(hi - lo, k) standard normals, two per Philox block of four words, by Box-Muller.

        Words 0, 1 and 2, 3 of a block make two 53-bit integers a and b; with
        u = (a + 0.5) 2^-53 in (0, 1], so log never sees 0, the block gives
        sqrt(-2 log u) (cos, sin)(2 pi b 2^-53). log, cos and sin run on
        contiguous arrays: numpy may round a strided input in another loop.
        """
        pairs = -(-k // 2)
        w = words(key, lo, hi, 4 * pairs).reshape(hi - lo, pairs, 4).astype(np.uint64)
        a = (w[..., 0] << np.uint64(32) | w[..., 1]) >> np.uint64(11)
        b = (w[..., 2] << np.uint64(32) | w[..., 3]) >> np.uint64(11)
        r = np.sqrt(-2.0 * np.log((a + 0.5) * 2.0**-53))
        theta = b * (2.0 * math.pi * 2.0**-53)
        z = np.empty((hi - lo, pairs, 2))
        np.multiply(r, np.cos(theta), out=z[..., 0])
        np.multiply(r, np.sin(theta), out=z[..., 1])
        return z.reshape(hi - lo, 2 * pairs)[:, :k]


@dataclass(frozen=True, eq=False)
class Rademacher:
    """Time sums sum_i c_i eps_i over n Rademacher signs, so sd is 1.

    Component j of a replication takes its n signs from words j m, ...,
    (j + 1) m - 1 of the replication, m = ceil(n / 32), bit b of word w giving
    sign 32 w + b: +1 for a set bit, -1 otherwise. Unweighted (c None), a sum
    is exactly 2 popcount - n over those bits, the last word masked to its
    n mod 32 low bits; weighted, it is the signs times c, summed.
    """

    n: int
    c: Optional[np.ndarray] = None
    sd = 1.0

    def rep_words(self, k: int) -> int:
        """4-byte words one replication costs: its k m Philox words unweighted; weighted, the
        larger temporaries block makes of them, 32 k m bytes of unpacked bits and one
        component's n float signs."""
        m = -(-self.n // 32)
        return k * m if self.c is None else 8 * k * m + 2 * self.n

    def block(self, key: tuple, lo: int, hi: int, k: int) -> np.ndarray:
        """(hi - lo, k) sums, one per component of each replication lo, ..., hi - 1."""
        m = -(-self.n // 32)
        w = words(key, lo, hi, k * m).reshape(hi - lo, k, m)
        if self.c is None:
            if self.n % 32:
                w[..., -1] &= np.uint32((1 << (self.n % 32)) - 1)
            return 2.0 * np.bitwise_count(w).sum(axis=-1, dtype=np.int64) - self.n
        bits = np.unpackbits(w.astype("<u4").view(np.uint8), axis=-1, bitorder="little")
        out = np.empty((hi - lo, k))
        # one component at a time bounds the float signs to (hi - lo) x n
        for j in range(k):
            out[:, j] = np.where(bits[:, j, : self.n], self.c, -self.c).sum(axis=1)
        return out


TimeSumLaw = Union[Normal, Rademacher]


def _check_variances(driver) -> None:
    """Raise ValueError unless the driver's marginal and long-run variances are finite floats."""
    try:
        finite = math.isfinite(driver.marginal_variance) and math.isfinite(driver.long_run_variance())
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError("the driver's marginal and long-run variances must be finite floats")


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
        _check_variances(self)

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

    def time_sum_law(self, n: int, scales: Optional[np.ndarray] = None) -> Normal:
        """N(0, sigma^2 sum_i c_i^2) per component."""
        return Normal(self.sigma * _l2(_weights(n, scales)))


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
        return _signs(rng, _shape(n, k))

    def time_sum_law(self, n: int, scales: Optional[np.ndarray] = None) -> Rademacher:
        """sum_i c_i eps_i per component: 2 popcount - n over n sign bits unscaled, the weighted signs under scales."""
        return Rademacher(n, scales)


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
        # the norm as scale * nrm keeps sigma / nrm in float range
        scale, nrm = _scaled_l2(w)
        if nrm == 0.0:
            raise ValueError("weights must not all be zero")
        if int(self.k) != self.k or self.k < 1:
            raise ValueError("component count k must be a positive integer")
        # skip the rescale when already normalized, so serialize/parse round trips exactly
        if not math.isclose(nrm * scale, self.sigma, rel_tol=1e-15, abs_tol=0.0):
            with np.errstate(over="ignore", under="ignore"):  # checked just below
                w = w / scale * (self.sigma / nrm)
        if not np.all(np.isfinite(w)) or np.any((w != 0.0) & (np.abs(w) < np.finfo(float).tiny)):
            raise ValueError("every stored weight (shape times sigma / norm) must be zero or a finite normal float")
        object.__setattr__(self, "weights", tuple(w.tolist()))
        object.__setattr__(self, "k", int(self.k))
        _check_variances(self)

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

    def time_sum_law(self, n: int, scales: Optional[np.ndarray] = None) -> Normal:
        """Normal per component; innovation eps_m enters the sum with weight sum_j c_{m-q+j} w_j.

        Those are the entries of np.convolve(c, weights reversed), so weights
        (1, -1) give variance O(1), with no n - (n - 1) cancellation.
        """
        return Normal(_l2(np.convolve(_weights(n, scales), self.weights[::-1])))


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
        _check_variances(self)

    is_gaussian = True

    @property
    def marginal_variance(self) -> float:
        # (1 - rho)(1 + rho), not 1 - rho^2, which cancels as |rho| nears 1
        return self.sigma_innov**2 / ((1.0 - self.rho) * (1.0 + self.rho))

    def autocovariance(self, lag: int) -> float:
        return self.marginal_variance * self.rho ** abs(int(lag))

    def long_run_variance(self) -> float:
        return self.sigma_innov**2 / (1.0 - self.rho) ** 2

    def sample_component(self, rng: np.random.Generator, n: int, k: Optional[int] = None) -> np.ndarray:
        draws = rng.standard_normal(_shape(n + 1, k))
        x0 = draws[..., 0] * math.sqrt(self.marginal_variance)
        out = draws[..., 1:] * self.sigma_innov
        for row, start in zip(np.atleast_2d(out), np.ravel(x0).tolist()):
            row[:] = _ar1_filter(row, self.rho, start)
        return out

    def time_sum_law(self, n: int, scales: Optional[np.ndarray] = None) -> Normal:
        """Normal per component, from the start value's and the innovations' weights.

        X_i = rho^i X_0 + sum_{j<=i} rho^(i-j) e_j, so e_j enters the sum with
        weight b_j = sum_{i>=j} c_i rho^(i-j), the reverse filter b_j = c_j +
        rho b_{j+1}, and X_0 = sigma_innov z / sqrt(1 - rho^2) with weight rho b_1.
        Every term of the variance is a square: no closed form in rho that
        cancels as rho nears +-1.
        """
        if scales is None:
            return _unscaled_ar1_law(self, n)
        b = _ar1_filter(scales[::-1], self.rho)[::-1]
        start = self.rho * b[0] / math.sqrt((1.0 - self.rho) * (1.0 + self.rho))
        return Normal(self.sigma_innov * _l2(np.append(start, b)))


@lru_cache(maxsize=256)
def _unscaled_ar1_law(driver: Ar1, n: int) -> Normal:
    """driver.time_sum_law(n, ones), kept per (driver, n): its filter is a Python loop over n,
    and every verification call asks for the same unscaled laws again."""
    return driver.time_sum_law(n, np.ones(n))


def ar1_unit_marginal(rho: float, k: int = 1) -> Ar1:
    """AR(1) with unit marginal variance: sigma_innov = sqrt((1 - rho)(1 + rho))."""
    return Ar1(rho=rho, sigma_innov=math.sqrt((1.0 - rho) * (1.0 + rho)), k=k)


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

    Every component and time step is drawn from the one generator
    rng.stream(seed), component after component, so two calls with the same
    seed path agree bit for bit. montecarlo draws the time sums from Philox
    words instead, through the driver's time_sum_law, so this is their
    reference in law, not draw for draw.
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
    check_numbers(name, params, integers=("k",), lists=("weights",))
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
        check_numbers("basis", {"k": b.get("k", 1)}, integers=("k",))
        basis = basis_matrix(b["name"], b.get("k", 1), grid)
    elif isinstance(b, dict) and set(b) == {"rows"}:
        rows = b["rows"]
        if not isinstance(rows, list) or not all(isinstance(row, list) and all(map(is_real, row)) for row in rows):
            raise ValueError("basis 'rows' must be a list of lists of numbers")
        basis = np.asarray(rows, dtype=float)
    else:
        raise ValueError('basis must be {"name": ..., "k": ...} or {"rows": [[...], ...]}')
    if obj.get("scale_decay") is not None:
        check_numbers("field", {"scale_decay": obj["scale_decay"]})
    return FieldSpec(
        basis=basis,
        driver=driver_from_dict(obj["driver"]),
        label=obj.get("label", ""),
        scale_decay=obj.get("scale_decay"),
    )
