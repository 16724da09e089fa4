"""Constants and series: every derived number is checked against an
independent oracle computed with exact integers or mpmath, frozen inline."""

import math
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cltlab import (
    Geometric,
    MDependent,
    MixingProfile,
    Polynomial,
    abs_normal_moment,
    chebyshev_tail,
    effective_even_order,
    ku_check,
    ku_constant,
    ku_crossover,
    lp_moment_bound,
    nachapetyan_bound,
    nachapetyan_k,
    normed_sum_bound,
    optimize_over_v,
    sum_bound,
    utev_a,
    with_y_value,
    z_value,
)
from cltlab.bounds import _lag_series, default_v_grid
from cltlab.mixing import value_at

from conftest import assert_rel

IID = MixingProfile("alpha", MDependent(0), label="iid")
GEO = MixingProfile("alpha", Geometric(c=1.0, rho=0.5))


def oracle_a(s: int) -> int:
    """Independent big-integer route: 12 (1 + 2s/3)(s-1) 3^s (s!)^2 / ((s/2)!)^2."""
    f = Fraction(12) * (1 + Fraction(2 * s, 3)) * (s - 1) * 3**s
    f *= Fraction(math.factorial(s) ** 2, math.factorial(s // 2) ** 2)
    assert f.denominator == 1
    return f.numerator


def test_utev_a_frozen_values():
    assert utev_a(2).value == 1008
    assert utev_a(4).value == 1539648
    assert utev_a(6).value == 3149280000


def test_utev_a_matches_big_integer_oracle_all_even_orders():
    for s in range(2, 65, 2):
        got = utev_a(s)
        assert got.value == oracle_a(s)
        assert_rel(got.root, float(mpmath.power(oracle_a(s), mpmath.mpf(1) / s)), 1e-14)


def test_utev_a_rejects_odd_and_small():
    with pytest.raises(ValueError):
        utev_a(3)
    with pytest.raises(ValueError):
        utev_a(0)


def test_ku_constant_against_mpmath():
    with mpmath.workdps(40):
        exact = (
            mpmath.power(2, mpmath.mpf(-5) / 12)
            * 3
            * mpmath.sqrt(7)
            * mpmath.exp(mpmath.mpf(2) / mpmath.e - mpmath.mpf(23) / 24)
        )
        assert_rel(ku_constant(), float(exact), 1e-15)
    # frozen double
    assert ku_constant() == 4.759685463541109


def test_ku_check_truth_table():
    for s in (2, 4, 6, 8):
        chk = ku_check(s)
        assert not chk.holds
        assert chk.lhs > chk.rhs
    for s in range(10, 65, 2):
        assert ku_check(s).holds


def test_ku_crossover_is_ten():
    assert ku_crossover() == 10
    assert ku_crossover(s_max=8) is None


def test_z_value_iid_closed_form():
    for s, v in ((2, 4.0), (4, 8.0), (6, 12.0)):
        closed = (utev_a(s).value * 0.25 ** (1.0 - s / v)) ** (1.0 / s)
        assert_rel(z_value(IID, s, v).z_value, closed, 1e-12)


def test_z_value_frozen_iid_numbers():
    assert_rel(z_value(IID, 2, 4.0).z_value, math.sqrt(504.0), 1e-13)
    assert_rel(z_value(IID, 4, 8.0).z_value, 29.620873513464854, 1e-13)
    assert_rel(z_value(IID, 6, 12.0).z_value, 34.108572714454304, 1e-13)


def test_z_value_geometric_against_mpmath_oracle():
    # alpha(r) = min(1/4, 0.5^r), s=2, v=4: series = 0.5 + 0.5 + sum_{r>=2} (sqrt(1/2))^r
    with mpmath.workdps(40):
        q = mpmath.sqrt(mpmath.mpf(1) / 2)
        total = mpmath.mpf(1) + q**2 / (1 - q)
        oracle = float(mpmath.sqrt(1008 * total))
    assert_rel(z_value(GEO, 2, 4.0).z_value, oracle, 1e-12)
    assert_rel(z_value(GEO, 2, 4.0).z_value, 52.237569195321866, 1e-12)


def test_z_value_polynomial_against_zeta_oracle():
    # theta=3, c=1, s=2, v=4: all lags >= 1 unclipped, series = 1/2 + (zeta(1.5) - 1)
    prof = MixingProfile("alpha", Polynomial(c=1.0, theta=3.0))
    with mpmath.workdps(30):
        oracle = float(mpmath.sqrt(1008 * (mpmath.zeta(1.5) - mpmath.mpf(1) / 2)))
    assert_rel(z_value(prof, 2, 4.0).z_value, oracle, 1e-10)


def test_z_value_divergent_polynomial_is_inf():
    # converges iff theta (1 - s/v) > s/2; here 1.5 * 0.5 = 0.75 < 1
    prof = MixingProfile("alpha", Polynomial(c=1.0, theta=1.5))
    rep = z_value(prof, 2, 4.0)
    assert math.isinf(rep.z_value)


def test_z_value_truncation_stability_geometric():
    # the geometric stop leaves a bracket at most 1e-10 of the largest term wide,
    # and so of the series; series = 1/2 + 1 + sum_{r>=2} (r+1) q^r, q = sqrt(1/2)
    rep = z_value(GEO, 4, 8.0)
    a = utev_a(4).value
    assert rep.truncation_remainder <= 1e-10 * rep.z_value**4 / a
    with mpmath.workdps(40):
        q = mpmath.sqrt(mpmath.mpf(1) / 2)
        total = mpmath.polylog(-1, q) / q + mpmath.mpf(1) / 2 - 2 * q
        exact = mpmath.root(a * total, 4)
        assert_certified(rep.z_value, exact, mpmath.root(a * (total + rep.truncation_remainder), 4) - exact)


def test_z_value_validation():
    with pytest.raises(ValueError):
        z_value(IID, 2, 2.0)
    with pytest.raises(ValueError):
        z_value(MixingProfile("beta", MDependent(0)), 2, 4.0)


@settings(max_examples=60, deadline=None)
@given(
    r1=st.floats(min_value=0.01, max_value=0.95),
    r2=st.floats(min_value=0.01, max_value=0.95),
)
def test_z_value_monotone_in_decay_rate(r1, r2):
    lo, hi = sorted((r1, r2))
    z_lo = z_value(MixingProfile("alpha", Geometric(1.0, lo)), 2, 4.0).z_value
    z_hi = z_value(MixingProfile("alpha", Geometric(1.0, hi)), 2, 4.0).z_value
    assert z_lo <= z_hi * (1.0 + 1e-12)


def test_with_y_value_and_normed_sum_bound():
    rep = with_y_value(z_value(IID, 2, 4.0), 2.0)
    assert_rel(rep.bound, 2.0 * math.sqrt(504.0), 1e-13)
    assert rep.y_value == 2.0
    assert normed_sum_bound(0.0, math.inf) == 0.0
    assert normed_sum_bound(1.0, math.inf) == math.inf
    with pytest.raises(ValueError):
        normed_sum_bound(-1.0, 2.0)


def test_sum_bound_rms_composition():
    assert_rel(sum_bound([3.0, 4.0], 2.0), 10.0, 1e-15)
    with pytest.raises(ValueError):
        sum_bound([], 1.0)
    with pytest.raises(ValueError):
        sum_bound([1.0, -2.0], 1.0)


def test_default_v_grid_shape():
    grid = default_v_grid(2)
    assert grid[0] == 2.5 and grid[-1] == 6.0
    assert all(v > 2 for v in grid)


def test_optimize_over_v_standard_normal_norms():
    # ||N(0,1)||_v = (E|N|^v)^(1/v) is nondecreasing in v; oracle by direct scan
    vnorm = lambda v: abs_normal_moment(v) ** (1.0 / v)
    got = optimize_over_v(IID, 2, vnorm)
    grid = default_v_grid(2)
    oracle = [
        ((1008 * 0.25 ** (1.0 - 2.0 / v)) ** 0.5) * vnorm(v) for v in grid
    ]
    best = int(np.argmin(oracle))
    assert got.v_star == grid[best]
    assert_rel(got.bound, oracle[best], 1e-12)
    assert len(got.evaluations) == len(grid)


def test_optimize_over_v_all_divergent():
    prof = MixingProfile("alpha", Polynomial(c=1.0, theta=0.5))
    got = optimize_over_v(prof, 2, lambda v: 1.0)
    assert got.v_star is None and math.isinf(got.bound)


def test_lp_moment_bound_iid_frozen():
    # I = E|N(0,1)|^4 = 3 with phi = 1: W = 1008 * (1/4)^(1/2) * 3^(1/2)
    got = lp_moment_bound(IID, 2, 4.0, 3.0)
    assert_rel(got, 504.0 * math.sqrt(3.0), 1e-12)
    assert_rel(got, 872.9536070147141, 1e-12)


def test_lp_moment_bound_null_field_and_divergence():
    prof = MixingProfile("alpha", Polynomial(c=1.0, theta=0.5))
    assert lp_moment_bound(prof, 2, 4.0, 0.0) == 0.0
    assert math.isinf(lp_moment_bound(prof, 2, 4.0, 1.0))


def test_nachapetyan_k_geometric_exact_four():
    prof = MixingProfile("beta", Geometric(c=1.0, rho=0.5))
    assert nachapetyan_k(prof, 2.0) == 4.0


def test_nachapetyan_k_divergent_polynomial():
    prof = MixingProfile("beta", Polynomial(c=1.0, theta=1.0))
    assert math.isinf(nachapetyan_k(prof, 4.0))


def test_nachapetyan_k_m_dependent_and_bound():
    # m=1, value 1: K_N = 2s (1 * 2^((s-2)/2))^(1/s); s=2 gives 4
    prof = MixingProfile("beta", MDependent(1))
    assert nachapetyan_k(prof, 2.0) == 4.0
    assert nachapetyan_bound(4.0, 0.5) == 2.0
    zero = MixingProfile("beta", MDependent(0))
    assert nachapetyan_k(zero, 2.0) == 0.0


def test_chebyshev_tail_frozen_values():
    rep = chebyshev_tail(1.0, 2.0, [10.0])
    assert rep.q_bound == (0.01,)
    rep = chebyshev_tail(504.0 * math.sqrt(3.0), 2.0, [100.0])
    assert_rel(rep.q_bound[0], 0.08729536070147141, 1e-12)
    rep = chebyshev_tail(5.0, 2.0, [1.0, 2.0])
    assert rep.q_bound[0] == 1.0  # capped: it is a probability
    assert_rel(rep.q_bound[1], 1.0, 1e-15)
    rep = chebyshev_tail(math.inf, 2.0, [10.0])
    assert rep.q_bound == (1.0,)


def test_chebyshev_tail_validation():
    with pytest.raises(ValueError):
        chebyshev_tail(1.0, 2.0, [0.5])
    with pytest.raises(ValueError):
        chebyshev_tail(-1.0, 2.0, [2.0])
    with pytest.raises(ValueError):
        chebyshev_tail(1.0, 1.5, [2.0])


def test_effective_even_order():
    assert effective_even_order(2.0) == 2
    assert effective_even_order(3.0) == 4
    assert effective_even_order(4.5) == 6
    assert effective_even_order(2.0001) == 4
    with pytest.raises(ValueError):
        effective_even_order(1.5)


@settings(max_examples=40, deadline=None)
@given(s=st.sampled_from([2, 4, 6]), m=st.integers(min_value=0, max_value=12))
def test_z_value_m_dependent_matches_finite_sum(s, m):
    # finite sum oracle: (1/4)^e (1 + sum_{r=1..m} (r+1)^d), e = 1 - s/v, d = s/2 - 1
    v = 2.0 * s
    e = 1.0 - s / v
    d = s / 2.0 - 1.0
    total = 0.25**e * (1.0 + sum((r + 1.0) ** d for r in range(1, m + 1)))
    prof = MixingProfile("alpha", MDependent(m))
    assert_rel(z_value(prof, s, v).z_value, (utev_a(s).value * total) ** (1.0 / s), 1e-12)


def exact_series(profile, s, v=None):
    """sum_{r>=1} value(r)^e (r+1)^d at 40 digits, plus (1/4)^e at r = 0 for alpha.

    e = 1 - s/v and d = s/2 - 1 for alpha, e = 1 and d = (s-2)/2 for beta. The
    alpha cap clips lags 1..r0-1, a Hurwitz zeta difference at -d sums them;
    the rest is a Hurwitz zeta (polynomial) or a polylogarithm (geometric).
    """
    with mpmath.workdps(40):
        dec = profile.decay
        alpha = profile.kind == "alpha"
        e = 1 - mpmath.mpf(s) / mpmath.mpf(v) if alpha else mpmath.mpf(1)
        d = (mpmath.mpf(s) - 2) / 2
        cap, c = mpmath.mpf(1) / 4, mpmath.mpf(dec.c)
        geometric = isinstance(dec, Geometric)
        rho = mpmath.mpf(dec.rho) if geometric else None
        theta = None if geometric else mpmath.mpf(dec.theta)

        def value(r):
            return c * rho**r if geometric else c * mpmath.mpf(r + 1) ** -theta

        r0 = 1
        if alpha and value(1) > cap:
            x = mpmath.log(4 * c) / -mpmath.log(rho) if geometric else mpmath.power(4 * c, 1 / theta) - 1
            r0 = max(2, int(mpmath.ceil(x)))
            while value(r0) > cap:
                r0 += 1
            while r0 > 2 and value(r0 - 1) <= cap:
                r0 -= 1
        head = cap**e * (mpmath.zeta(-d, 2) - mpmath.zeta(-d, r0 + 1))
        if geometric:
            q = rho**e
            tail = (mpmath.polylog(-d, q) - mpmath.fsum(q**j * mpmath.mpf(j) ** d for j in range(1, r0 + 1))) / q
        else:
            tail = mpmath.zeta(theta * e - d, r0 + 1)
        return (cap**e if alpha else 0) + head + c**e * tail


def assert_certified(value, exact, remainder):
    """value is an upper bound on exact, and above it by at most the remainder, up to rounding."""
    assert value >= exact * (1 - 1e-15)
    assert value - exact <= remainder + 1e-15 * exact


def assert_z_certified(profile, s, v):
    rep = z_value(profile, s, v)
    with mpmath.workdps(40):
        a, total = utev_a(s).value, exact_series(profile, s, v)
        exact = mpmath.root(a * total, s)
        assert_certified(rep.z_value, exact, mpmath.root(a * (total + rep.truncation_remainder), s) - exact)


def assert_k_certified(profile, s):
    k_n = nachapetyan_k(profile, s)
    remainder = _lag_series(profile, Fraction(1), (s - 2.0) / 2.0).remainder
    with mpmath.workdps(40):
        total, inv_s = exact_series(profile, s), 1 / mpmath.mpf(s)
        exact = 2 * s * total**inv_s
        assert_certified(k_n, exact, 2 * s * (total + remainder) ** inv_s - exact)


ORDERS = st.sampled_from([2, 4, 6])
V_OVER_S = st.floats(min_value=1.05, max_value=4.0)
AMPLITUDE = st.floats(min_value=-2.0, max_value=4.0).map(lambda x: 10.0**x)
# tail exponents near 1, where the zeta tail is flattest, and beyond
TAIL_EXPONENT = st.one_of(st.floats(min_value=1.000001, max_value=1.05), st.floats(min_value=1.05, max_value=3.0))


@settings(max_examples=100, deadline=None)
@given(s=ORDERS, v_over_s=V_OVER_S, c=AMPLITUDE, p=TAIL_EXPONENT)
@example(s=4, v_over_s=1.05, c=1.0, p=1.000001)
def test_z_value_polynomial_is_certified_upper_bound(s, v_over_s, c, p):
    v = s * v_over_s
    theta = (p + s / 2.0 - 1.0) / (1.0 - s / v)
    assert_z_certified(MixingProfile("alpha", Polynomial(c=c, theta=theta)), s, v)


@settings(max_examples=100, deadline=None)
@given(s=ORDERS, v_over_s=V_OVER_S, c=AMPLITUDE, rho=st.floats(min_value=0.01, max_value=0.99))
# q = rho^(1-s/v) near 1: a one-ulp error in q moves the sum by thousands of ulps
@example(s=2, v_over_s=1.05, c=1.0, rho=0.75)
@example(s=6, v_over_s=1.05, c=0.5, rho=0.98)
def test_z_value_geometric_is_certified_upper_bound(s, v_over_s, c, rho):
    assert_z_certified(MixingProfile("alpha", Geometric(c=c, rho=rho)), s, s * v_over_s)


@settings(max_examples=100, deadline=None)
@given(s=st.floats(min_value=2.0, max_value=8.0), c=AMPLITUDE, p=TAIL_EXPONENT)
def test_nachapetyan_k_polynomial_is_certified_upper_bound(s, c, p):
    assert_k_certified(MixingProfile("beta", Polynomial(c=c, theta=p + (s - 2.0) / 2.0)), s)


@settings(max_examples=100, deadline=None)
@given(s=st.floats(min_value=2.0, max_value=8.0), c=AMPLITUDE, rho=st.floats(min_value=0.01, max_value=0.99))
def test_nachapetyan_k_geometric_is_certified_upper_bound(s, c, rho):
    assert_k_certified(MixingProfile("beta", Geometric(c=c, rho=rho)), s)


def test_geometric_tail_growing_past_the_term_budget_is_certified():
    # q = rho^(1 - s/v) so near 1 that the terms still grow after MAX_TERMS lags:
    # integrals bracket the tail, with no 2^21-term array, instead of +inf
    for s, v in ((4, 6.0), (6, 12.0), (8, 16.0)):
        prof = MixingProfile("alpha", Geometric(c=0.2, rho=0.9999999))
        start = time.perf_counter()
        rep = z_value(prof, s, v)
        assert time.perf_counter() - start < 0.05
        assert math.isfinite(rep.z_value) and rep.truncation_terms == 1
        assert_z_certified(prof, s, v)
    assert_k_certified(MixingProfile("beta", Geometric(c=0.5, rho=0.9999999)), 4.0)
    # the cap clips lags 1 .. 1.4e7 here; the tail past them is q^r0 Phi(q, -d, r0 + 1), a Lerch transcendent
    prof = MixingProfile("alpha", Geometric(c=1.0, rho=0.9999999))
    rep = z_value(prof, 6, 12.0)
    r0 = math.ceil(math.log(4.0) / -math.log(0.9999999))
    assert value_at(prof, r0) < 0.25 <= value_at(prof, r0 - 1)
    with mpmath.workdps(40):
        q, cap = mpmath.sqrt(mpmath.mpf(0.9999999)), mpmath.sqrt(mpmath.mpf(1) / 4)
        head = cap * (1 + mpmath.zeta(-2, 2) - mpmath.zeta(-2, r0 + 1))
        total = head + q**r0 * mpmath.lerchphi(q, -2, r0 + 1)
        exact = mpmath.root(utev_a(6).value * total, 6)
        width = mpmath.root(utev_a(6).value * (total + rep.truncation_remainder), 6) - exact
        assert_certified(rep.z_value, exact, width)


def test_z_value_clipped_head_in_closed_form():
    # the cap clips lags 1 .. (4c)^(1/3) - 2, about 1.6e20 of them, summed without a loop
    prof = MixingProfile("alpha", Polynomial(c=1e60, theta=3.0))
    start = time.perf_counter()
    rep = z_value(prof, 2, 4.0)
    assert time.perf_counter() - start < 1.0
    assert math.isfinite(rep.z_value)
    with mpmath.workdps(40):
        assert rep.z_value >= mpmath.sqrt(1008 * exact_series(prof, 2, 4.0)) * (1 - 1e-15)


def test_series_past_float_range_is_inf_not_an_error():
    # terms (k+1)^((s-2)/2) near 1e308 sum past float range; +inf is still an upper bound
    for decay in (MDependent(1000), Geometric(c=1.0, rho=0.999)):
        assert math.isinf(nachapetyan_k(MixingProfile("beta", decay), 207.34))
    with pytest.raises(ValueError):
        nachapetyan_k(MixingProfile("beta", MDependent(1)), math.inf)
