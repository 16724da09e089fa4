"""Decay profiles: values, symbolic convergence decisions, config round-trips."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cltlab import (
    ALPHA_CAP,
    Ar1,
    Explicit,
    Geometric,
    IidNormal,
    IidRademacher,
    MaQ,
    MDependent,
    MixingProfile,
    Polynomial,
    profile_for_driver,
    profile_from_dict,
    profile_to_dict,
    series_converges,
    series_converges_beta,
    value_at,
)


def test_value_at_alpha_clipping_and_decay():
    geo = MixingProfile("alpha", Geometric(c=1.0, rho=0.5))
    assert value_at(geo, 1) == 0.25  # 0.5 clipped at the universal cap
    assert value_at(geo, 4) == 0.0625
    md = MixingProfile("alpha", MDependent(2))
    assert value_at(md, 1) == ALPHA_CAP
    assert value_at(md, 2) == ALPHA_CAP
    assert value_at(md, 3) == 0.0
    poly = MixingProfile("alpha", Polynomial(c=1.0, theta=2.0))
    assert value_at(poly, 1) == 0.25  # (1+1)^-2 = 1/4 exactly at the cap
    assert value_at(poly, 3) == 0.0625


def test_value_at_beta_not_capped():
    md = MixingProfile("beta", MDependent(2))
    assert value_at(md, 1) == 1.0
    assert value_at(md, 3) == 0.0
    geo = MixingProfile("beta", Geometric(c=2.0, rho=0.5))
    assert value_at(geo, 1) == 1.0  # no cap for beta


def test_value_at_explicit_and_validation():
    ex = MixingProfile("alpha", Explicit((0.2, 0.1)))
    assert value_at(ex, 1) == 0.2
    assert value_at(ex, 2) == 0.1
    assert value_at(ex, 3) == 0.0
    with pytest.raises(ValueError):
        value_at(ex, 0)
    with pytest.raises(ValueError):
        Explicit((0.1, 0.2))  # increasing
    with pytest.raises(ValueError):
        Explicit((0.1, -0.05))


def test_decay_class_validation():
    with pytest.raises(ValueError):
        Geometric(c=1.0, rho=1.0)
    with pytest.raises(ValueError):
        Geometric(c=-1.0, rho=0.5)
    with pytest.raises(ValueError):
        Polynomial(c=1.0, theta=0.0)
    with pytest.raises(ValueError):
        MDependent(-1)
    with pytest.raises(ValueError):
        MixingProfile("gamma", MDependent(0))


@settings(max_examples=60, deadline=None)
@given(
    i=st.integers(min_value=1, max_value=50),
    decay=st.one_of(
        st.builds(Geometric, c=st.floats(0.0, 3.0), rho=st.floats(0.0, 0.99)),
        st.builds(Polynomial, c=st.floats(0.01, 3.0), theta=st.floats(0.1, 5.0)),
        st.builds(MDependent, m=st.integers(0, 20)),
    ),
    kind=st.sampled_from(["alpha", "beta"]),
)
def test_value_at_nonincreasing(i, decay, kind):
    prof = MixingProfile(kind, decay)
    assert value_at(prof, i + 1) <= value_at(prof, i) + 1e-15


def brute_force_converges(term, n=100_000):
    """Estimate the decay exponent from doubling partial-sum increments.

    For term ~ r^(-p) the increment over [n, 2n) scales like 2^(1-p) per
    doubling, so the log-ratio recovers p; the series converges iff p > 1.
    """
    inc1 = sum(term(r) for r in range(n, 2 * n))
    inc2 = sum(term(r) for r in range(2 * n, 4 * n))
    p_hat = 1.0 - math.log2(inc2 / inc1)
    return p_hat > 1.0


def test_series_converges_polynomial_threshold():
    # s=2, v=4: exponent is theta/2 - 0 per term (r+1)^(-theta/2); converges iff theta > 2
    for theta, expected in ((2.5, True), (1.9, False)):
        prof = MixingProfile("alpha", Polynomial(c=1.0, theta=theta))
        assert series_converges(prof, 2, 4.0) is expected
        term = lambda r: min(0.25, (r + 1.0) ** -theta) ** 0.5
        assert brute_force_converges(term) is expected


def test_series_converges_easy_classes():
    assert series_converges(MixingProfile("alpha", MDependent(3)), 2, 4.0)
    assert series_converges(MixingProfile("alpha", Geometric(1.0, 0.9)), 4, 8.0)
    assert series_converges(MixingProfile("alpha", Explicit((0.1,))), 2, 4.0)
    assert series_converges(MixingProfile("alpha", Polynomial(0.0, 0.5)), 2, 4.0)
    with pytest.raises(ValueError):
        series_converges(MixingProfile("alpha", MDependent(0)), 2, 2.0)
    with pytest.raises(ValueError):
        series_converges(MixingProfile("beta", MDependent(0)), 2, 4.0)


def test_series_converges_beta_threshold():
    # sum beta(k) (k+1)^((s-2)/2): s=4 needs theta - 1 > 1
    assert series_converges_beta(MixingProfile("beta", Polynomial(1.0, 2.5)), 4.0)
    assert not series_converges_beta(MixingProfile("beta", Polynomial(1.0, 1.0)), 4.0)
    assert series_converges_beta(MixingProfile("beta", Geometric(1.0, 0.99)), 8.0)
    with pytest.raises(ValueError):
        series_converges_beta(MixingProfile("alpha", MDependent(0)), 2.0)


def test_profile_for_driver():
    p = profile_for_driver(IidNormal(1.0, 1))
    assert p.kind == "alpha" and p.decay == MDependent(0)
    p = profile_for_driver(IidRademacher(1))
    assert p.decay == MDependent(0)
    p = profile_for_driver(MaQ(weights=(1.0, 1.0)))
    assert p.decay == MDependent(1)
    p = profile_for_driver(MaQ(weights=(1.0, 0.5, 0.25)))
    assert p.decay == MDependent(2)
    p = profile_for_driver(Ar1(rho=-0.5))
    assert p.decay == Geometric(c=1.0, rho=0.5)
    with pytest.raises(ValueError):
        profile_for_driver(object())


FINITE = st.floats(min_value=0.0, allow_infinity=False)
DECAYS = st.one_of(
    st.lists(FINITE, max_size=6).map(lambda vals: Explicit(tuple(sorted(vals, reverse=True)))),
    st.builds(Geometric, c=FINITE, rho=st.floats(min_value=0.0, max_value=1.0, exclude_max=True)),
    st.builds(Polynomial, c=FINITE, theta=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)),
    st.builds(MDependent, m=st.integers(min_value=0, max_value=10**300)),
)


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["alpha", "beta"]), decay=DECAYS, label=st.text(max_size=5))
def test_profile_dict_round_trip(kind, decay, label):
    # through JSON text too, as the command line reads it
    prof = MixingProfile(kind, decay, label=label)
    assert profile_from_dict(json.loads(json.dumps(profile_to_dict(prof)))) == prof


def test_profile_from_dict_rejects_bad_shapes():
    good = {"kind": "alpha", "decay": {"m_dependent": {"m": 1}}}
    assert profile_from_dict(good).decay == MDependent(1)
    with pytest.raises(ValueError):
        profile_from_dict({"kind": "alpha"})
    with pytest.raises(ValueError):
        profile_from_dict({"kind": "alpha", "decay": {"m_dependent": {"m": 1}}, "bogus": 1})
    with pytest.raises(ValueError):
        profile_from_dict({"kind": "alpha", "decay": {"exotic": {}}})
    with pytest.raises(ValueError):
        profile_from_dict({"kind": "alpha", "decay": {"geometric": {"c": 1.0}}})
    with pytest.raises(ValueError):
        profile_from_dict({"kind": "alpha", "decay": {"geometric": {"c": 1.0, "rho": 0.5, "q": 2}}})
