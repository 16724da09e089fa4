"""Acceptance suite: one printed verdict line per numbered check.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline;
without -s pytest shows them for failing checks only.
"""

import json
import math
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from cltlab import (
    Ar1,
    FieldSpec,
    Geometric,
    IidNormal,
    IidRademacher,
    MaQ,
    MDependent,
    MixingProfile,
    Polynomial,
    ar1_unit_marginal,
    basis_matrix,
    empirical_cov,
    estimate_moment,
    ku_check,
    ku_constant,
    ku_crossover,
    lp_norm,
    nachapetyan_k,
    replicate_norms,
    uniform_grid,
    utev_a,
    verify_clt,
    verify_moment_bound,
    verify_superstrong,
    z_value,
)
from cltlab.cli import main as cli_main
from cltlab.montecarlo import CI_Z


def verdict(num, ok, detail=""):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    return ok


def oracle_a(s):
    # independent route to the combinatorial constant, exact rationals
    half = s // 2
    ratio = Fraction(math.factorial(s), math.factorial(half) ** 2) * math.factorial(half)
    return int(4 * (3 + 2 * s) * (s - 1) * 3**s * ratio**2 // 1)


def test_acceptance_1a_exact_combinatorial_constants():
    pinned = {2: 1008, 4: 1539648, 6: 3149280000}
    ok = all(utev_a(s).value == pinned[s] == oracle_a(s) for s in pinned)
    assert verdict("1a", ok, "a_2, a_4, a_6 exact vs big-integer oracle")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the reference decimal 4.760327 is inconsistent with the defining "
        "expression 2^(-5/12) * 3 * sqrt(7) * exp(2/e - 23/24), which "
        "evaluates to 4.759685463541109; the bound constant keeps the "
        "expression value"
    ),
)
def test_acceptance_1b_printed_reference_decimal():
    ok = abs(ku_constant() - 4.760327) < 5e-7
    verdict("1b", ok, f"ku_constant() = {ku_constant()!r} vs 4.760327 within 5e-7")
    assert ok


def test_acceptance_2_growth_check_audit():
    false_orders = {2, 4, 8}
    ok = all(not ku_check(s).holds for s in false_orders)
    ok = ok and all(ku_check(s).holds for s in range(10, 65, 2))
    cross = ku_crossover()
    ok = ok and cross == 10
    assert verdict(2, ok, f"holds flips from false to true at s = {cross}")


def test_acceptance_3_series_engine_closed_forms():
    t0 = time.perf_counter()
    iid = MixingProfile(kind="alpha", decay=MDependent(m=0), label="iid")
    ok = True
    for s, v in ((2, 4), (4, 8), (6, 12)):
        closed = (utev_a(s).value * 0.25 ** (1.0 - s / v)) ** (1.0 / s)
        got = z_value(iid, s, v).z_value
        ok = ok and abs(got - closed) / closed < 1e-12
    geo = MixingProfile(kind="alpha", decay=Geometric(c=1.0, rho=0.5))
    rep, a = z_value(geo, 4, 8), utev_a(4).value
    width = rep.truncation_remainder / (rep.z_value**4 / a)
    ok = ok and width <= 1e-10
    # the bracket holds sum_{r>=0} alpha(r)^(1/2) (r+1) = 1/2 + 1 + Li_{-1}(q)/q - 1 - 2q, q = sqrt(1/2)
    with mpmath.workdps(40):
        q = mpmath.sqrt(mpmath.mpf(1) / 2)
        total = mpmath.polylog(-1, q) / q + mpmath.mpf(1) / 2 - 2 * q
        exact = mpmath.root(a * total, 4)
        upper = mpmath.root(a * (total + rep.truncation_remainder), 4)
        ok = ok and exact * (1 - 1e-15) <= rep.z_value <= upper + 1e-15 * exact
    dt = time.perf_counter() - t0
    ok = ok and dt < 1.0
    assert verdict(3, ok, f"iid closed forms to 1e-12, geometric bracket {width:.1e} wide holds Li_-1, {dt:.3f}s")


def test_acceptance_4_quadrature_error_order():
    exact = 3.0 ** -0.5
    errs = {}
    for pts in (1024, 16384):
        grid = uniform_grid(pts)
        errs[pts] = abs(lp_norm(grid.points, 2.0, grid) - exact)
    ratio = errs[1024] / errs[16384]
    ok = errs[1024] < 1e-4 and errs[16384] < 1e-6 and 240.0 < ratio < 272.0
    assert verdict(
        4, ok, f"err@1024 = {errs[1024]:.2e}, err@16384 = {errs[16384]:.2e}, ratio {ratio:.1f}"
    )


def test_acceptance_5_iid_moment_cis():
    t0 = time.perf_counter()
    grid = uniform_grid(16)
    spec = FieldSpec(basis=basis_matrix("const", 1, grid), driver=IidNormal(sigma=1.0, k=1))
    est2 = estimate_moment(spec, 64, 2.0, 2.0, grid, 5000, seed=0, threads=4)
    est4 = estimate_moment(spec, 64, 4.0, 2.0, grid, 5000, seed=0, threads=4)
    dt = time.perf_counter() - t0
    ok = est2.ci_low <= 1.0 <= est2.ci_high and est4.ci_low <= 3.0 <= est4.ci_high and dt < 30.0
    assert verdict(
        5,
        ok,
        f"s=2 CI [{est2.ci_low:.4f}, {est2.ci_high:.4f}] covers 1; "
        f"s=4 CI [{est4.ci_low:.4f}, {est4.ci_high:.4f}] covers 3; {dt:.1f}s",
    )


def test_acceptance_6_long_run_covariance():
    grid = uniform_grid(8)
    spec = FieldSpec(basis=basis_matrix("const", 1, grid), driver=ar1_unit_marginal(0.5))
    cov = empirical_cov(spec, 4096, grid, 4000, seed=0, threads=4)
    # phi = 1 makes every entry the same scalar; its se comes from the
    # squared-norm sample on the same seeds
    sq = replicate_norms(spec, 4096, 2.0, grid, 4000, seed=0, threads=4) ** 2
    half = CI_Z * sq.std(ddof=1) / math.sqrt(sq.size)
    worst = float(np.max(np.abs(cov - 3.0)))
    ok = worst <= half
    assert verdict(6, ok, f"max |entry - 3| = {worst:.4f} <= {half:.4f} (99% CI)")


def test_acceptance_7_moment_bound_matrix():
    grid = uniform_grid(16)
    drivers = {
        "iid": IidNormal(sigma=1.0, k=1),
        "ma1": MaQ(weights=(1.0, 1.0), sigma=1.0, k=1),
        "ma2": MaQ(weights=(1.0, 1.0, 1.0), sigma=1.0, k=1),
        "ar_0.3": ar1_unit_marginal(0.3),
        "ar_0.6": ar1_unit_marginal(0.6),
    }
    failures = []
    for label, driver in drivers.items():
        spec = FieldSpec(basis=basis_matrix("const", 1, grid), driver=driver)
        for s, v in ((2, 4.0), (4, 8.0)):
            res = verify_moment_bound(
                spec, s, v, grid, 800, n_schedule=(16, 64, 256), seed=0, threads=4
            )
            if not res.satisfied or res.vacuous:
                failures.append((label, s, v))
    ok = not failures
    assert verdict(7, ok, f"10 driver/order configs, violations: {failures or 'none'}")


def _clt_case(spec, seeds):
    pass_last = trend = 0
    for seed in seeds:
        summary = verify_clt(spec, (16, 1024), 2.0, uniform_grid(64), 2000, seed=seed, threads=4)
        first, last = summary.verdicts[0], summary.verdicts[-1]
        pass_last += last.passed
        trend += last.ks_stat < first.ks_stat
    return pass_last, trend


def test_acceptance_8_clt_golden_seeds():
    t0 = time.perf_counter()
    grid = uniform_grid(64)
    gauss = FieldSpec(basis=basis_matrix("const", 1, grid), driver=IidNormal(sigma=1.0, k=1))
    rade = FieldSpec(basis=basis_matrix("fourier", 3, grid), driver=IidRademacher(k=3))
    ma1 = FieldSpec(
        basis=basis_matrix("fourier", 16, grid), driver=MaQ(weights=(1.0, 1.0), sigma=1.0, k=16)
    )
    g_pass, g_trend = _clt_case(gauss, range(100))
    r_pass, r_trend = _clt_case(rade, range(40))
    m_pass, m_trend = _clt_case(ma1, range(40))
    dt = time.perf_counter() - t0
    # the Gaussian driver gives the exact limit law at every n, so its
    # KS trend is a fair coin and only the pass rate is binding
    ok = (
        g_pass >= 96
        and r_pass >= 38
        and m_pass >= 38
        and r_trend >= 36
        and m_trend >= 36
        and dt < 300.0
    )
    assert verdict(
        8,
        ok,
        f"pass@1024 gauss {g_pass}/100, rademacher {r_pass}/40, ma1 {m_pass}/40; "
        f"trend rademacher {r_trend}/40, ma1 {m_trend}/40 "
        f"(gauss {g_trend}/100, informational); {dt:.0f}s",
    )


def test_acceptance_9_superstrong_path():
    exact = nachapetyan_k(MixingProfile(kind="beta", decay=Geometric(c=1.0, rho=0.5)), 2.0)
    ok = exact == 4.0
    grid = uniform_grid(16)
    for q, weights in ((1, (1.0, 1.0)), (2, (1.0, 1.0, 1.0))):
        spec = FieldSpec(
            basis=basis_matrix("const", 1, grid), driver=MaQ(weights=weights, sigma=1.0, k=1)
        )
        beta = MixingProfile(kind="beta", decay=MDependent(m=q))
        res = verify_superstrong(spec, beta, 2.0, reps=400, grid=grid, n_schedule=(16, 64), seed=0)
        ok = ok and res.satisfied and not res.vacuous
    harmonic = MixingProfile(kind="beta", decay=Polynomial(c=1.0, theta=1.0))
    spec = FieldSpec(basis=basis_matrix("const", 1, grid), driver=IidNormal(sigma=1.0, k=1))
    res = verify_superstrong(spec, harmonic, 4.0, reps=400, grid=grid, n_schedule=(16,), seed=0)
    ok = ok and res.vacuous and math.isinf(res.theoretical)
    assert verdict(9, ok, "k = 4 exact; m-dependent satisfied; harmonic beta vacuous")


def test_acceptance_10_cli_determinism(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "field": {
                    "basis": {"name": "const", "k": 1},
                    "driver": {"iid_normal": {"sigma": 1.0, "k": 1}},
                },
                "grid": {"uniform": 8},
                "s": 2,
                "v": 4.0,
                "reps": 300,
                "n_schedule": [16, 32],
                "seed": 7,
            }
        )
    )
    lines = {}
    results = {}
    for tag, extra in (("a", []), ("b", []), ("p1", ["--threads", "4"]), ("p2", ["--threads", "4"])):
        path = tmp_path / f"{tag}.json"
        code = cli_main(["verify-bounds", "--config", str(cfg), "--out", str(path)] + extra)
        assert code == 0
        text = path.read_text()
        lines[tag] = [line for line in text.splitlines() if '"timestamp"' not in line]
        results[tag] = json.loads(text)["results"]
    capsys.readouterr()
    # repeat runs are byte-identical apart from the timestamp; the thread
    # count is part of the embedded config, so serial vs parallel compares
    # on the results payload, which matches exactly here
    ok = lines["a"] == lines["b"] and lines["p1"] == lines["p2"] and results["a"] == results["p1"]
    assert verdict(10, ok, "repeat runs byte-identical; 4-thread results match serial exactly")
