"""Stream derivation: keyed PCG64DXSM generators and their golden-ratio jumps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cltlab import FieldSpec, IidNormal, basis_matrix, uniform_grid
from cltlab.limitlaw import limit_covariance, sample_limit_norms
from cltlab.montecarlo import CHUNK, sn_blocks
from cltlab.rng import seed_path, stream, streams


def jumped_oracle(seed, prefix, rep):
    """numpy's own jumped substream, independent of the package's derivation."""
    key = np.random.SeedSequence(seed, spawn_key=prefix)
    return np.random.Generator(np.random.PCG64DXSM(key).jumped(rep + 1))


@pytest.mark.parametrize("prefix", [(), (1,), (0, 1024)])
@pytest.mark.parametrize("rep", [0, 1, 255, 10**6])
def test_stream_is_numpys_jumped_substream(prefix, rep):
    expected = jumped_oracle(7, prefix, rep).standard_normal(40)
    assert np.array_equal(stream(7, *prefix, rep).standard_normal(40), expected)
    # a derived sequence carries its path: the same stream
    assert np.array_equal(stream(seed_path(7, *prefix, rep)).standard_normal(40), expected)
    assert np.array_equal(stream(seed_path(7, *prefix), rep).standard_normal(40), expected)


def test_streams_match_stream_after_half_used_buffer():
    lo, hi = 3, 11
    for rep, gen in zip(range(lo, hi), streams(5, lo, hi)):
        # an odd count of Rademacher draws leaves half of a 32-bit word buffered
        got = gen.integers(0, 2, size=2 * rep + 1)
        expected = stream(5, rep).integers(0, 2, size=2 * rep + 1)
        assert np.array_equal(got, expected)


def test_streams_yield_one_reused_generator():
    gens = [id(g) for g in streams(5, 0, 4)]
    assert len(set(gens)) == 1


def test_unjumped_stream_differs_from_replication_zero():
    assert not np.array_equal(stream(3).random(8), stream(3, 0).random(8))
    assert not np.array_equal(stream(3, 2).random(8), stream(3, 2, 0).random(8))


def test_negative_path_rejected():
    with pytest.raises(ValueError):
        stream(1, -1)
    with pytest.raises(ValueError):
        next(streams(1, -1, 2))


def test_one_key_derivation_per_block(monkeypatch):
    made = []

    class CountingSeedSequence(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            made.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", CountingSeedSequence)
    grid = uniform_grid(8)
    spec = FieldSpec(basis=basis_matrix("fourier", 3, grid), driver=IidNormal(k=3))
    sn_blocks(spec, 16, grid, 4)(0, 300)
    assert len(made) == 1
    made.clear()
    sample_limit_norms(limit_covariance(spec, grid), 2.0, grid, 3 * CHUNK, 5)
    assert len(made) == 3


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**64),
    prefix=st.lists(st.integers(0, 2**32), max_size=3).map(tuple),
    lo=st.integers(0, 2**40),
    size=st.integers(0, 6),
    draws=st.integers(1, 9),
)
def test_streams_agree_with_stream(seed, prefix, lo, size, draws):
    key = seed_path(seed, *prefix)
    got = [g.standard_normal(draws) for g in streams(key, lo, lo + size)]
    assert len(got) == size
    for rep, row in zip(range(lo, lo + size), got):
        assert np.array_equal(row, stream(seed, *prefix, rep).standard_normal(draws))
