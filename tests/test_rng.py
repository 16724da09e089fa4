"""Random numbers: Philox4x32-10 known answers, counter layout, and path-keyed PCG64DXSM streams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cltlab import FieldSpec, IidNormal, basis_matrix, uniform_grid
from cltlab.limitlaw import limit_covariance, sample_limit_norms
from cltlab.montecarlo import CHUNK, sn_coordinates
from cltlab.rng import philox, philox_key, seed_path, stream, words

ONES = 0xFFFFFFFF


@pytest.mark.parametrize(
    "counter,key,expected",
    [
        ((0, 0, 0, 0), (0, 0), (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
        ((ONES,) * 4, (ONES, ONES), (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD)),
        (
            (0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344),
            (0xA4093822, 0x299F31D0),
            (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1),
        ),
    ],
    ids=["zeros", "ones", "pi"],
)
def test_philox_known_answers(counter, key, expected):
    # Random123's Philox4x32-10 known-answer vectors
    assert tuple(int(x) for x in philox(counter, key)) == expected


def test_words_are_philox_of_the_replication_counters():
    key = philox_key(seed_path(4, 0, 16))
    w = words(key, 3, 6, 10)
    for i, rep in enumerate(range(3, 6)):
        blocks = [philox((j, rep, 0, 0), key) for j in range(3)]
        assert w[i].tolist() == [int(x) for block in blocks for x in block][:10]


def test_distinct_reps_blocks_and_seed_paths_give_distinct_words():
    # 4-word blocks over 1000 reps x 16 blocks under four keys, as 128-bit values
    keys = [philox_key(seed_path(*path)) for path in ((7,), (7, 0), (7, 1), (8,))]
    blocks = np.concatenate([words(key, 0, 1000, 64).reshape(-1, 4) for key in keys])
    assert np.unique(blocks, axis=0).shape[0] == blocks.shape[0]
    assert len(set(keys)) == len(keys)


def test_block_at_two_to_the_32_uses_the_high_counter_word():
    key = philox_key(5)
    w = words(key, 2**32 - 1, 2**32 + 1, 8)
    assert w[0].tolist() == [int(x) for j in range(2) for x in philox((j, ONES, 0, 0), key)]
    assert w[1].tolist() == [int(x) for j in range(2) for x in philox((j, 0, 1, 0), key)]
    assert not np.array_equal(w[1], words(key, 0, 1, 8)[0])


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**64),
    lo=st.integers(0, 2**40),
    size=st.integers(0, 6),
    count=st.integers(0, 13),
)
def test_word_rows_are_one_replication_blocks(seed, lo, size, count):
    key = philox_key(seed)
    w = words(key, lo, lo + size, count)
    assert w.shape == (size, count) and w.dtype == np.uint32
    for i in range(size):
        assert np.array_equal(w[i], words(key, lo + i, lo + i + 1, count)[0])


def keyed_oracle(seed, path):
    """numpy's PCG64DXSM keyed by the whole spawn key, independent of the package's derivation."""
    return np.random.Generator(np.random.PCG64DXSM(np.random.SeedSequence(seed, spawn_key=path)))


@pytest.mark.parametrize("prefix", [(), (1,), (0, 1024)])
@pytest.mark.parametrize("rep", [0, 1, 255, 10**6])
def test_stream_is_keyed_by_the_whole_path(prefix, rep):
    expected = keyed_oracle(7, prefix + (rep,)).standard_normal(40)
    assert np.array_equal(stream(7, *prefix, rep).standard_normal(40), expected)
    # a derived sequence carries its path: the same stream
    assert np.array_equal(stream(seed_path(7, *prefix, rep)).standard_normal(40), expected)
    assert np.array_equal(stream(seed_path(7, *prefix), rep).standard_normal(40), expected)


def test_empty_path_stream_differs_from_replication_zero():
    assert not np.array_equal(stream(3).random(8), stream(3, 0).random(8))
    assert not np.array_equal(stream(3, 2).random(8), stream(3, 2, 0).random(8))


def test_negative_path_rejected():
    with pytest.raises(ValueError):
        stream(1, -1)
    with pytest.raises(ValueError):
        words(philox_key(1), -1, 2, 4)


def test_one_key_derivation_per_block(monkeypatch):
    made = []

    class CountingSeedSequence(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            made.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", CountingSeedSequence)
    grid = uniform_grid(8)
    spec = FieldSpec(basis=basis_matrix("fourier", 3, grid), driver=IidNormal(k=3))
    draw, _ = sn_coordinates(spec, 16, grid, 4, 2 * CHUNK)
    draw(0, CHUNK)
    draw(CHUNK, 300)
    draw(0, 3 * CHUNK)
    assert len(made) == 1
    made.clear()
    sample_limit_norms(limit_covariance(spec, grid), 2.0, grid, 3 * CHUNK, 5)
    assert len(made) == 1
