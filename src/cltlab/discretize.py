"""Quadrature grids on [0, 1] and weighted L^p norms of grid functions."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class GridSpace:
    """Discretization of ([0,1], Lebesgue): points, positive weights, total mass."""

    points: np.ndarray
    weights: np.ndarray
    total_mass: float = field(init=False)

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        wts = np.asarray(self.weights, dtype=float)
        if pts.ndim != 1 or wts.ndim != 1 or pts.size != wts.size or pts.size == 0:
            raise ValueError("points and weights must be 1-d arrays of equal positive length")
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(wts))):
            raise ValueError("grid points and weights must be finite")
        if np.any(wts <= 0.0):
            raise ValueError("quadrature weights must be strictly positive")
        try:
            mass = math.fsum(wts.tolist())
        except OverflowError:  # fsum raises where a partial sum leaves float range
            mass = math.inf
        if not math.isfinite(mass):
            raise ValueError("quadrature weights must sum to a finite total mass")
        pts.flags.writeable = False
        wts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)
        object.__setattr__(self, "total_mass", mass)

    @property
    def size(self) -> int:
        return self.points.size


def uniform_grid(n: int) -> GridSpace:
    """Midpoint rule with n cells: points (2j+1)/(2n), weights 1/n."""
    n = int(n)
    if n < 2:
        raise ValueError("uniform grid needs at least 2 points")
    j = np.arange(n, dtype=float)
    return GridSpace(points=(2.0 * j + 1.0) / (2.0 * n), weights=np.full(n, 1.0 / n))


def custom_grid(points: Sequence[float], weights: Sequence[float]) -> GridSpace:
    return GridSpace(points=np.asarray(points, dtype=float), weights=np.asarray(weights, dtype=float))


def is_real(value) -> bool:
    """Whether a config value is a number within float range; a bool is not a number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def check_numbers(where: str, params: dict, integers: tuple = (), lists: tuple = ()) -> None:
    """Raise ValueError unless each value of params is a number: an integral one
    for the keys in integers, a list of numbers for the keys in lists."""
    for key, value in params.items():
        if key in lists:
            ok, kind = isinstance(value, (list, tuple)) and all(map(is_real, value)), "a list of numbers"
        elif key in integers:
            ok, kind = is_real(value) and float(value).is_integer(), "an integer"
        else:
            ok, kind = is_real(value), "a number"
        if not ok:
            raise ValueError(f"{where} {key!r} must be {kind}, not {value!r}")


def grid_from_config(obj: object) -> GridSpace:
    """Build a grid from the JSON config form {"uniform": N} or {"custom": {...}}."""
    if isinstance(obj, dict) and set(obj) == {"uniform"}:
        check_numbers("grid", obj, integers=("uniform",))
        return uniform_grid(obj["uniform"])
    if isinstance(obj, dict) and set(obj) == {"custom"}:
        inner = obj["custom"]
        if not isinstance(inner, dict) or set(inner) != {"points", "weights"}:
            raise ValueError('custom grid config must be {"custom": {"points": [...], "weights": [...]}}')
        check_numbers("custom grid", inner, lists=("points", "weights"))
        return custom_grid(inner["points"], inner["weights"])
    raise ValueError('grid config must be {"uniform": N} or {"custom": {...}}')


def lp_norm(values: Sequence[float], p: float, grid: GridSpace) -> float:
    """Weighted L^p norm (sum_j w_j |f_j|^p)^(1/p): the one-row case of lp_norms."""
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1 or vals.size != grid.size:
        raise ValueError("values must be a 1-d array matching the grid size")
    return float(lp_norms(vals[None, :], p, grid)[0])


def lp_norms(matrix: np.ndarray, p: float, grid: GridSpace) -> np.ndarray:
    """Row-wise weighted L^p norms of a (reps x grid) matrix.

    Each row is reduced on its own, in grid order, so a row's norm is the same
    bit for bit whatever the other rows are; lp_norm is the one-row case.
    Raises ValueError when a norm is not a finite float.
    """
    p = float(p)
    if not (1.0 <= p < math.inf):
        raise ValueError(f"L^p norms require a finite p >= 1, not {p}")
    # C order keeps each row's reduction contiguous, whatever layout came in
    mat = np.ascontiguousarray(matrix, dtype=float)
    if mat.ndim != 2 or mat.shape[1] != grid.size:
        raise ValueError("matrix must be 2-d with one column per grid point")
    if not np.all(np.isfinite(mat)):
        raise ValueError("values must be finite")
    # one working array, each element through |x|, ** p, * w in that order
    work = np.abs(mat)
    with np.errstate(over="ignore"):  # checked below
        work **= p
        work *= grid.weights
        norms = work.sum(axis=1) ** (1.0 / p)
    if not np.all(np.isfinite(norms)):
        raise ValueError(f"||.||_p at p = {p:g} overflows a float")
    return norms
