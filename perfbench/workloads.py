"""The benchmark's workloads: inputs built from a seed, timed operations, output checks.

Each workload builds its fixed inputs in its constructor, warms up with one
small untimed call, and then hands out rounds. A round is a list of
operations whose inputs are derived from (workload seed, round index), so
every round does the same amount of work on fresh inputs and nothing is
repeated that a result cache could serve. Every operation carries the check
of its own output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from typing import Callable, List, NamedTuple, Optional

import mpmath
import numpy as np

import cltlab
import cltlab.cli

# Series tolerance of every bound call (the package default).
TOL = 1e-10

# Relative slack for double rounding when a double result is compared with an
# exact sum.
ROUNDING = 1e-12

# Smallest KS p-value at the largest n that a correct program shows with more
# than negligible probability; this catches gross errors, not 1% chance failures.
MIN_P_VALUE = 1e-4

# Path component for warm-up seeds, outside the range of round indices.
WARM_UP = 2**31 - 1

mpmath.mp.dps = 30


def derive(seed: int, *path: int) -> int:
    """A 32-bit seed for one call, derived from the workload seed and the call's path."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


class Op(NamedTuple):
    """One timed call: items counts the replications or evaluations it completes."""

    label: str
    items: int
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]


class Workload:
    name = ""
    threads = 1
    # name of the summary's throughput figure: replications or bound evaluations per second
    rate = ""

    def warm_up(self) -> None:
        raise NotImplementedError

    def round(self, index: int) -> List[Op]:
        raise NotImplementedError

    def fingerprint(self, result) -> bytes:
        """Bytes that identify an operation's result, for the run's reproducibility digest."""
        return repr(result).encode()

    def final_check(self) -> Optional[str]:
        """A check across operations, run once after timing ends."""
        return None


class CltGolden(Workload):
    """verify_clt calls shaped like acceptance 8, one thread."""

    name = "clt-golden"
    threads = 1
    rate = "reps_per_s"

    def __init__(self, seed: int, tiny: bool, workdir: str) -> None:
        self.seed = seed
        self.grid = cltlab.uniform_grid(8 if tiny else 64)
        self.reps = 100 if tiny else 2000
        self.schedule = (16, 32) if tiny else (16, 1024)

        def basis(name: str, k: int):
            return cltlab.basis_matrix(name, k, self.grid)

        self.fields = (
            ("gauss", cltlab.FieldSpec(basis=basis("const", 1), driver=cltlab.IidNormal(sigma=1.0, k=1))),
            ("rademacher", cltlab.FieldSpec(basis=basis("fourier", 3), driver=cltlab.IidRademacher(k=3))),
            (
                "ma1",
                cltlab.FieldSpec(
                    basis=basis("fourier", 16), driver=cltlab.MaQ(weights=(1.0, 1.0), sigma=1.0, k=16)
                ),
            ),
        )

    def _verify(self, spec, schedule, reps: int, seed: int):
        return cltlab.verify_clt(spec, schedule, 2.0, self.grid, reps, seed=seed, threads=self.threads)

    def warm_up(self) -> None:
        for j, (_, spec) in enumerate(self.fields):
            self._verify(spec, self.schedule[:1], 100, derive(self.seed, WARM_UP, j))

    def round(self, index: int) -> List[Op]:
        # verify_clt draws limit_factor = 4 times as many limit replications
        items = self.reps * (len(self.schedule) + 4)
        return [
            Op(
                f"clt.{label}",
                items,
                lambda spec=spec, s=derive(self.seed, index, j): self._verify(spec, self.schedule, self.reps, s),
                self._check,
            )
            for j, (label, spec) in enumerate(self.fields)
        ]

    def _check(self, summary) -> Optional[str]:
        stats = [summary.noise_scale] + [x for v in summary.verdicts for x in (v.ks_stat, v.p_value)]
        if not all(math.isfinite(x) for x in stats):
            return "non-finite statistic"
        last = summary.verdicts[-1]
        if last.n != self.schedule[-1]:
            return f"last verdict is for n={last.n}, not n={self.schedule[-1]}"
        if not last.p_value >= MIN_P_VALUE:
            return f"KS p-value {last.p_value:.3g} at n={last.n} is below {MIN_P_VALUE:g}"
        return None


def _ma(weights, k: int = 1) -> dict:
    return {"ma_q": {"weights": list(weights), "sigma": 1.0, "k": k}}


class AuditLong(Workload):
    """An analyst's audit session through cltlab.cli.main with --threads 2."""

    name = "audit-long"
    threads = 2
    rate = "reps_per_s"

    def __init__(self, seed: int, tiny: bool, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        common = {
            "grid": {"uniform": 8 if tiny else 256},
            "n_schedule": [16, 32] if tiny else [256, 4096],
            "reps": 100 if tiny else 800,
            "s": 4,
        }
        self.items = common["reps"] * len(common["n_schedule"])
        rho = 0.6
        ar1 = {"ar1": {"rho": rho, "sigma_innov": math.sqrt(1.0 - rho * rho), "k": 3}}
        cases = [
            ("ar1", "verify-bounds", dict(common, v=8.0, field={"basis": {"name": "fourier", "k": 3}, "driver": ar1})),
            ("ma2", "verify-bounds", dict(common, v=8.0, field={"basis": {"name": "const", "k": 1}, "driver": _ma((1, 1, 1))})),
            (
                "superstrong",
                "verify-superstrong",
                dict(
                    common,
                    beta_profile={"kind": "beta", "decay": {"m_dependent": {"m": 1}}},
                    field={"basis": {"name": "const", "k": 1}, "driver": _ma((1, 1))},
                ),
            ),
        ]
        warm = dict(common, grid={"uniform": 8}, n_schedule=[16], reps=100, v=8.0)
        warm["field"] = {"basis": {"name": "const", "k": 1}, "driver": _ma((1, 1, 1))}
        self.cases = [(label, command, self._write(label, config)) for label, command, config in cases]
        self.warm_case = ("warm-up", "verify-bounds", self._write("warm-up", warm))
        self.reference: Optional[bytes] = None

    def _write(self, label: str, config: dict) -> str:
        path = os.path.join(self.workdir, f"{label}.config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        return path

    def _run(self, case, seed: int, threads: int, tag: str = ""):
        label, command, config = case
        out = os.path.join(self.workdir, f"{label}{tag}.report.json")
        argv = [command, "--config", config, "--seed", str(seed), "--threads", str(threads), "--out", out]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cltlab.cli.main(argv)
        return code, out

    def warm_up(self) -> None:
        self._run(self.warm_case, derive(self.seed, WARM_UP), self.threads)

    def round(self, index: int) -> List[Op]:
        ops = []
        for j, case in enumerate(self.cases):
            seed = derive(self.seed, index, j)
            keep = index == 0 and j == 0
            ops.append(
                Op(
                    f"audit.{case[0]}",
                    self.items,
                    lambda case=case, seed=seed: self._run(case, seed, self.threads),
                    lambda result, keep=keep: self._check(result, keep),
                )
            )
        return ops

    @staticmethod
    def _results(path: str) -> dict:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)["results"]

    @staticmethod
    def _payload(results: dict) -> bytes:
        return json.dumps(results, sort_keys=True).encode()

    def _check(self, result, keep: bool) -> Optional[str]:
        code, out = result
        if code != 0:
            return f"exit code {code}"
        results = self._results(out)
        verdict = results["verdict"]
        if verdict["satisfied"] is not True or verdict["vacuous"] is not False:
            return f"verdict satisfied={verdict['satisfied']} vacuous={verdict['vacuous']}"
        if keep:
            self.reference = self._payload(results)
        return None

    def fingerprint(self, result) -> bytes:
        return self._payload(self._results(result[1]))

    def final_check(self) -> Optional[str]:
        """Round 0's first audit again with one thread: its results must match byte for byte."""
        if self.reference is None:
            return "the first audit produced no reference report"
        code, out = self._run(self.cases[0], derive(self.seed, 0, 0), 1, tag="-threads1")
        if code != 0:
            return f"threads=1 rerun exit code {code}"
        if self._payload(self._results(out)) != self.reference:
            return "threads=1 results differ from threads=2 results"
        return None


# ---------------------------------------------------------------------------
# analytic oracles (mpmath at 30 digits)


def _exact_a(s: int) -> int:
    """a_s through a product route independent of the package's factorial quotient."""
    half = s // 2
    return 4 * (3 + 2 * s) * (s - 1) * 3**s * math.prod(range(half + 1, s + 1)) ** 2


def _geometric_tail(q, d, start: int):
    """sum_{r >= start} q^r (r+1)^d, from the polylogarithm Li_{-d}(q)."""
    head = mpmath.fsum(q**j * mpmath.mpf(j) ** d for j in range(1, start + 1))
    return (mpmath.polylog(-d, q) - head) / q


def alpha_series(decay, s: int, v: float):
    """Exact sum_{r>=0} alpha(r)^(1-s/v) (r+1)^(s/2-1), alpha(0) = 1/4, alpha <= 1/4."""
    e = 1 - mpmath.mpf(s) / mpmath.mpf(v)
    d = mpmath.mpf(s) / 2 - 1
    cap = mpmath.mpf(1) / 4
    total = cap**e
    if isinstance(decay, cltlab.MDependent):
        return total + mpmath.fsum(cap**e * (r + 1) ** d for r in range(1, decay.m + 1))
    if isinstance(decay, cltlab.Explicit):
        return total + mpmath.fsum(
            min(cap, mpmath.mpf(x)) ** e * (r + 1) ** d for r, x in enumerate(decay.values, 1)
        )
    c = mpmath.mpf(decay.c)
    geometric = isinstance(decay, cltlab.Geometric)
    rho = mpmath.mpf(decay.rho) if geometric else None
    theta = None if geometric else mpmath.mpf(decay.theta)

    def value(r):
        return c * rho**r if geometric else c * mpmath.mpf(r + 1) ** (-theta)

    r = 1
    while value(r) > cap:
        total += cap**e * (r + 1) ** d
        r += 1
    if geometric:
        return total + c**e * _geometric_tail(rho**e, d, r)
    if theta * e - d <= 1:
        return mpmath.inf
    return total + c**e * mpmath.zeta(theta * e - d, r + 1)


def beta_series(decay, s: float):
    """Exact sum_{k>=1} beta(k) (k+1)^((s-2)/2) for geometric and polynomial decay."""
    d = (mpmath.mpf(s) - 2) / 2
    c = mpmath.mpf(decay.c)
    if isinstance(decay, cltlab.Geometric):
        return c * _geometric_tail(mpmath.mpf(decay.rho), d, 1)
    return c * mpmath.zeta(mpmath.mpf(decay.theta) - d, 2)


class SeriesCheck:
    """Compares a bound's series total with its exact value.

    The exact sum must not exceed the value plus its certified truncation
    remainder, and the value must not exceed the exact sum by more than that
    remainder plus TOL relative. Values that sit below the exact sum (a
    truncated partial sum) are counted, not failed: the package documents the
    remainder beside the value rather than adding it in.
    """

    def __init__(self) -> None:
        self.checked = 0
        self.below = 0

    def __call__(self, total, exact, remainder) -> Optional[str]:
        self.checked += 1
        if not mpmath.isfinite(total):
            return f"non-finite series total {total}"
        slack = ROUNDING * exact
        if total < exact - slack:
            self.below += 1
        if exact > total + remainder + slack:
            return f"exact series {mpmath.nstr(exact, 17)} exceeds value {mpmath.nstr(total, 17)} + remainder {remainder}"
        if total > exact + remainder + TOL * exact:
            return f"value {mpmath.nstr(total, 17)} exceeds exact series {mpmath.nstr(exact, 17)} by more than the remainder"
        return None


def _z_total(report, s: int):
    return mpmath.mpf(report.z_value) ** s / _exact_a(s)


def _finite_positive(x: float) -> Optional[str]:
    return None if math.isfinite(x) and x > 0.0 else f"bound {x} is not finite and positive"


class BoundTable(Workload):
    """Cheap analytic evaluations over fresh profiles each round."""

    name = "bound-table"
    threads = 1
    rate = "bounds_per_s"

    # Each round checks every evaluation for finiteness and this share of them,
    # drawn from the seed, against the oracles; round 0 is checked in full.
    ORACLE_SHARE = 1 / 32

    RHO = ((0.3, 0.5), (0.5, 0.7), (0.7, 0.85), (0.85, 0.95))
    # theta >= 12 keeps every polynomial series under about 2000 terms at s <= 6
    THETA = ((12.0, 14.0), (14.0, 17.0), (17.0, 20.0))

    def __init__(self, seed: int, tiny: bool, workdir: str) -> None:
        self.seed = seed
        self.series = SeriesCheck()

    def warm_up(self) -> None:
        profile = cltlab.MixingProfile("alpha", cltlab.Geometric(c=1.0, rho=0.5))
        cltlab.z_value(profile, 4, 8.0)
        cltlab.lp_moment_bound(profile, 4, 8.0, 1.0)
        cltlab.nachapetyan_k(cltlab.MixingProfile("beta", cltlab.Geometric(c=1.0, rho=0.5)), 4.0)

    def _alpha_profiles(self, rng) -> list:
        m = int(rng.integers(1, 9))
        values = np.sort(rng.uniform(0.0, 0.25, size=int(rng.integers(1, 11))))[::-1]
        decays = [cltlab.MDependent(m), cltlab.Explicit(tuple(values.tolist()))]
        decays += [cltlab.Geometric(c=rng.uniform(0.5, 2.0), rho=rng.uniform(*band)) for band in self.RHO]
        decays += [cltlab.Polynomial(c=rng.uniform(0.5, 2.0), theta=rng.uniform(*band)) for band in self.THETA]
        return [cltlab.MixingProfile("alpha", d) for d in decays]

    def round(self, index: int) -> List[Op]:
        rng = np.random.default_rng([self.seed, index])
        ops = []

        def add(label, call, oracle_check):
            deep = index == 0 or rng.random() < self.ORACLE_SHARE
            ops.append(Op(label, 1, call, oracle_check if deep else _finite_check(label)))

        profiles = self._alpha_profiles(rng)
        for profile in profiles:
            kind = type(profile.decay).__name__
            for s in (2, 4, 6):
                for v in (2.0 * s, 3.0 * s):
                    integral = float(rng.uniform(0.5, 2.0))
                    add(
                        f"z_value.{kind}",
                        lambda p=profile, s=s, v=v: cltlab.z_value(p, s, v),
                        lambda out, p=profile, s=s, v=v: self.series(
                            _z_total(out, s), alpha_series(p.decay, s, v), out.truncation_remainder
                        ),
                    )
                    add(
                        f"lp_moment_bound.{kind}",
                        lambda p=profile, s=s, v=v, i=integral: cltlab.lp_moment_bound(p, s, v, i),
                        lambda out, p=profile, s=s, v=v, i=integral: self._check_w(out, p, s, v, i),
                    )
        for band in ((0.3, 0.6), (0.6, 0.95)):
            beta = cltlab.MixingProfile("beta", cltlab.Geometric(c=rng.uniform(0.5, 2.0), rho=rng.uniform(*band)))
            for s in (2.0, 4.0, 6.0):
                add(
                    "nachapetyan_k.Geometric",
                    lambda b=beta, s=s: cltlab.nachapetyan_k(b, s),
                    lambda out, b=beta, s=s: self._check_k(out, b, s),
                )
        geometric = profiles[2]
        add(
            "optimize_over_v",
            lambda: cltlab.optimize_over_v(geometric, 4, _gaussian_vnorm),
            _check_optimum,
        )
        w, order = float(rng.uniform(1.0, 1e3)), 4.0
        levels = [1.0, 2.0, 4.0, 8.0, 16.0]
        add(
            "chebyshev_tail",
            lambda: cltlab.chebyshev_tail(w, order, levels),
            lambda out: _check_tail(out, w, order, levels),
        )
        even = 2 * int(rng.integers(1, 33))
        add("utev_a", lambda: cltlab.utev_a(even), lambda out: _check_utev(out, even))
        add("ku_check", lambda: cltlab.ku_check(even), lambda out: _check_ku(out, even))
        return ops

    def _check_w(self, w: float, profile, s: int, v: float, integral: float) -> Optional[str]:
        total = mpmath.mpf(w) / (_exact_a(s) * mpmath.mpf(integral) ** (mpmath.mpf(s) / mpmath.mpf(v)))
        return self.series(total, alpha_series(profile.decay, s, v), TOL * total)

    def _check_k(self, k: float, beta, s: float) -> Optional[str]:
        total = (mpmath.mpf(k) / (2 * mpmath.mpf(s))) ** mpmath.mpf(s)
        return self.series(total, beta_series(beta.decay, s), TOL * total)


def _finite_check(label: str):
    def check(out) -> Optional[str]:
        if label.startswith("z_value"):
            return _finite_positive(out.z_value)
        if isinstance(out, float):
            return _finite_positive(out)
        return None

    return check


def _gaussian_vnorm(v: float) -> float:
    """||N(0,1)||_v, nondecreasing in v."""
    return cltlab.abs_normal_moment(v) ** (1.0 / v)


def _check_optimum(out) -> Optional[str]:
    best = min(value for _, value in out.evaluations)
    if out.bound != best or dict(out.evaluations).get(out.v_star) != best:
        return f"optimum {out.bound} at v={out.v_star} is not the smallest evaluation {best}"
    return _finite_positive(best)


def _check_tail(out, w: float, s: float, levels) -> Optional[str]:
    for y, q in zip(levels, out.q_bound):
        exact = min(1.0, w / y**s)
        if abs(q - exact) > 1e-15 * exact:
            return f"Q({y}) = {q}, expected {exact}"
    return None


def _check_root(name: str, root: float, s: int) -> Optional[str]:
    exact = float(mpmath.root(_exact_a(s), s))
    if abs(root - exact) > 1e-14 * exact:
        return f"{name} = {root}, expected {exact}"
    return None


def _check_utev(out, s: int) -> Optional[str]:
    if out.value != _exact_a(s):
        return f"a_{s} = {out.value}, expected {_exact_a(s)}"
    return _check_root(f"a_{s}^(1/{s})", out.root, s)


def _check_ku(out, s: int) -> Optional[str]:
    k_u = 2 ** (-mpmath.mpf(5) / 12) * 3 * mpmath.sqrt(7) * mpmath.exp(2 / mpmath.e - mpmath.mpf(23) / 24)
    rhs = float(k_u * s)
    if abs(out.rhs - rhs) > 1e-14 * rhs:
        return f"K_U * {s} = {out.rhs}, expected {rhs}"
    if out.holds != (out.lhs <= out.rhs):
        return "holds disagrees with lhs <= rhs"
    return _check_root(f"lhs a_{s}^(1/{s})", out.lhs, s)


class HeavyTail(Workload):
    """Near-flat polynomial series that exhaust the series engine's term loop."""

    name = "heavy-tail"
    threads = 1
    rate = "bounds_per_s"

    # (theta, s, v) with tail exponent theta (1 - s/v) - (s/2 - 1) in (1, 2]:
    # convergent, but too flat to meet the tolerance before the term cap.
    CASES = ((3.0, 2, 4.0), (3.0, 2, 6.0), (4.0, 2, 4.0), (4.0, 4, 12.0), (6.0, 4, 8.0), (6.0, 6, 18.0))
    BETA_THETA = 2.5

    def __init__(self, seed: int, tiny: bool, workdir: str) -> None:
        self.seed = seed
        # tiny runs keep the code path with fast-converging series
        self.cases = ((12.0, 2, 4.0),) if tiny else self.CASES
        self.beta_theta = 8.0 if tiny else self.BETA_THETA
        self.series = SeriesCheck()

    def warm_up(self) -> None:
        cltlab.z_value(cltlab.MixingProfile("alpha", cltlab.Polynomial(c=1.0, theta=20.0)), 2, 4.0)
        cltlab.nachapetyan_k(cltlab.MixingProfile("beta", cltlab.Polynomial(c=1.0, theta=8.0)), 2.0)

    def round(self, index: int) -> List[Op]:
        rng = np.random.default_rng([self.seed, index])
        theta, s, v = self.cases[int(rng.integers(len(self.cases)))]
        alpha = cltlab.MixingProfile("alpha", cltlab.Polynomial(c=rng.uniform(0.5, 1.0), theta=theta))
        beta = cltlab.MixingProfile("beta", cltlab.Polynomial(c=rng.uniform(0.5, 1.0), theta=self.beta_theta))
        return [
            Op(
                "z_value.Polynomial",
                1,
                lambda: cltlab.z_value(alpha, s, v),
                lambda out: self.series(_z_total(out, s), alpha_series(alpha.decay, s, v), out.truncation_remainder),
            ),
            Op(
                "nachapetyan_k.Polynomial",
                1,
                lambda: cltlab.nachapetyan_k(beta, 2.0),
                lambda out: self._check_k(out, beta),
            ),
        ]

    def _check_k(self, k: float, beta) -> Optional[str]:
        total = (mpmath.mpf(k) / 4) ** 2
        return self.series(total, beta_series(beta.decay, 2.0), TOL * total)


WORKLOADS = {w.name: w for w in (CltGolden, AuditLong, BoundTable, HeavyTail)}
