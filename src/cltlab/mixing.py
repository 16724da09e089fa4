"""Dependence-decay profiles (strong and superstrong mixing coefficients).

A profile is a certified upper bound on the mixing coefficients of a process:
kind "alpha" for strong mixing (universally capped at 1/4) or "beta" for the
superstrong coefficient (normalized by P(A)P(B), no universal cap). The decay
law is carried symbolically so series convergence can be decided analytically
rather than by inspecting finitely many values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .discretize import check_numbers

ALPHA_CAP = 0.25

# In-range value for beta m-dependent profiles. Alpha has the universal cap
# 1/4; beta has no universal bound, so this is a documented convention and
# anything sharper should be supplied as an explicit profile.
BETA_M_DEPENDENT_VALUE = 1.0


@dataclass(frozen=True)
class Explicit:
    """Finite list of values at lags 1..len(values); zero beyond."""

    values: tuple

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        if any(not math.isfinite(v) or v < 0.0 for v in vals):
            raise ValueError("explicit profile values must be finite and nonnegative")
        if any(b > a for a, b in zip(vals, vals[1:])):
            raise ValueError("explicit profile values must be nonincreasing")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class Geometric:
    """value(i) = c * rho^i."""

    c: float
    rho: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.c) and self.c >= 0.0):
            raise ValueError("geometric decay needs c >= 0")
        if not (0.0 <= self.rho < 1.0):
            raise ValueError("geometric decay needs 0 <= rho < 1")


@dataclass(frozen=True)
class Polynomial:
    """value(i) = c * (i+1)^(-theta)."""

    c: float
    theta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.c) and self.c >= 0.0):
            raise ValueError("polynomial decay needs c >= 0")
        if not (math.isfinite(self.theta) and self.theta > 0.0):
            raise ValueError("polynomial decay needs theta > 0")


@dataclass(frozen=True)
class MDependent:
    """Zero beyond lag m; the universal cap within range."""

    m: int

    def __post_init__(self) -> None:
        if int(self.m) != self.m or self.m < 0:
            raise ValueError("m-dependent decay needs integer m >= 0")
        object.__setattr__(self, "m", int(self.m))


Decay = Union[Explicit, Geometric, Polynomial, MDependent]

_KINDS = ("alpha", "beta")


@dataclass(frozen=True)
class MixingProfile:
    kind: str
    decay: Decay
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"profile kind must be one of {_KINDS}")
        if not isinstance(self.decay, (Explicit, Geometric, Polynomial, MDependent)):
            raise ValueError("decay must be Explicit, Geometric, Polynomial or MDependent")


def value_at(profile: MixingProfile, i: int) -> float:
    """Certified coefficient bound at lag i >= 1 (alpha values clipped at 1/4)."""
    if int(i) != i or i < 1:
        raise ValueError("lag must be an integer >= 1")
    i = int(i)
    d = profile.decay
    if isinstance(d, Explicit):
        raw = d.values[i - 1] if i <= len(d.values) else 0.0
    elif isinstance(d, Geometric):
        raw = d.c * d.rho**i
    elif isinstance(d, Polynomial):
        raw = d.c * float(i + 1) ** (-d.theta)
    else:
        if i > d.m:
            raw = 0.0
        else:
            raw = ALPHA_CAP if profile.kind == "alpha" else BETA_M_DEPENDENT_VALUE
    if profile.kind == "alpha":
        return min(ALPHA_CAP, raw)
    return raw


def series_converges(profile: MixingProfile, s: int, v: float) -> bool:
    """Whether sum_r alpha^(1-s/v)(r) (r+1)^(s/2-1) is finite, decided by decay class."""
    if profile.kind != "alpha":
        raise ValueError("series_converges applies to alpha profiles")
    if v <= s:
        raise ValueError("requires v > s")
    d = profile.decay
    if isinstance(d, (Explicit, MDependent)):
        return True
    if isinstance(d, Geometric):
        return True
    if d.c == 0.0:
        return True
    # terms ~ (r+1)^(s/2 - 1 - theta(1 - s/v)); p-series test
    return d.theta * (1.0 - s / v) > s / 2.0


def series_converges_beta(profile: MixingProfile, s: float) -> bool:
    """Whether sum_k beta(k) (k+1)^((s-2)/2) is finite, decided by decay class."""
    if profile.kind != "beta":
        raise ValueError("series_converges_beta applies to beta profiles")
    if s < 2:
        raise ValueError("requires s >= 2")
    d = profile.decay
    if isinstance(d, (Explicit, MDependent)):
        return True
    if isinstance(d, Geometric):
        return True
    if d.c == 0.0:
        return True
    return d.theta - (s - 2.0) / 2.0 > 1.0


def profile_for_driver(driver) -> MixingProfile:
    """Certified alpha profile for a built-in driver.

    iid drivers are 0-dependent; an order-q moving average is q-dependent; a
    Gaussian AR(1) satisfies alpha(i) <= min(1/4, |rho|^i) because the strong
    mixing coefficient of a Gaussian process is bounded by its maximal
    correlation, which here is |rho|^i for any number of independent components.
    """
    from . import fieldgen

    if isinstance(driver, (fieldgen.IidNormal, fieldgen.IidRademacher)):
        return MixingProfile("alpha", MDependent(0), label="iid")
    if isinstance(driver, fieldgen.MaQ):
        return MixingProfile("alpha", MDependent(len(driver.weights) - 1), label="ma_q")
    if isinstance(driver, fieldgen.Ar1):
        return MixingProfile("alpha", Geometric(c=1.0, rho=abs(driver.rho)), label="ar1")
    raise ValueError(f"no certified mixing profile for driver {type(driver).__name__}")


def profile_to_dict(profile: MixingProfile) -> dict:
    d = profile.decay
    if isinstance(d, Explicit):
        decay = {"explicit": {"values": list(d.values)}}
    elif isinstance(d, Geometric):
        decay = {"geometric": {"c": d.c, "rho": d.rho}}
    elif isinstance(d, Polynomial):
        decay = {"polynomial": {"c": d.c, "theta": d.theta}}
    else:
        decay = {"m_dependent": {"m": d.m}}
    out = {"kind": profile.kind, "decay": decay}
    if profile.label:
        out["label"] = profile.label
    return out


def profile_from_dict(obj: dict) -> MixingProfile:
    """Parse the JSON config form, rejecting unknown keys."""
    if not isinstance(obj, dict):
        raise ValueError("profile must be an object")
    unknown = set(obj) - {"kind", "decay", "label"}
    if unknown:
        raise ValueError(f"unknown profile keys: {sorted(unknown)}")
    if "kind" not in obj or "decay" not in obj:
        raise ValueError("profile needs 'kind' and 'decay'")
    decay_obj = obj["decay"]
    if not isinstance(decay_obj, dict) or len(decay_obj) != 1:
        raise ValueError("decay must be an object with exactly one decay-class key")
    (name, params), = decay_obj.items()
    builders = {
        "explicit": (Explicit, {"values"}),
        "geometric": (Geometric, {"c", "rho"}),
        "polynomial": (Polynomial, {"c", "theta"}),
        "m_dependent": (MDependent, {"m"}),
    }
    if name not in builders:
        raise ValueError(f"unknown decay class {name!r}")
    cls, keys = builders[name]
    if not isinstance(params, dict) or set(params) != keys:
        raise ValueError(f"decay class {name!r} needs exactly keys {sorted(keys)}")
    check_numbers(f"decay class {name!r}", params, integers=("m",), lists=("values",))
    if name == "explicit":
        decay = Explicit(tuple(params["values"]))
    else:
        decay = cls(**params)
    return MixingProfile(kind=obj["kind"], decay=decay, label=obj.get("label", ""))
