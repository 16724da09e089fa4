"""Deterministic stream derivation for Monte Carlo.

Every random draw in the package comes from a PCG64DXSM generator named by a
root seed plus an integer path (branch, n, replication). All but the last
step of a path are a SeedSequence spawn key, hashed once into a generator's
start state; the last step rep names that generator's (rep + 1)-th jump of
round((phi - 1) * 2^128) draws, numpy's `jumped` substream, so a block of
replications costs one hash plus one state reset and advance per replication.
An empty path is the keyed generator itself, not jumped.

A replication owns one stream and draws everything it needs from it in a
fixed order, so its values depend only on (seed, path): not on the chunk it
lands in or how many replications run beside it.
Golden-ratio jumps spread the substreams of one key evenly over PCG64DXSM's
2^128 period (the first million start at least 2^107 draws apart), and
streams with different keys are statistically independent.
"""

from __future__ import annotations

from typing import Iterator, Union

import numpy as np

SeedLike = Union[int, np.random.SeedSequence]

# numpy's PCG64DXSM.jumped step, round((phi - 1) * 2^128).
STEP = 0x9E3779B97F4A7C15F39CC0605CEDC835


def seed_path(seed: SeedLike, *path: int) -> np.random.SeedSequence:
    """Extend a root seed (or an already-derived sequence) by integer path steps."""
    steps = tuple(int(p) for p in path)
    if any(p < 0 for p in steps):
        raise ValueError("stream path components must be nonnegative")
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(
            entropy=seed.entropy, spawn_key=tuple(seed.spawn_key) + steps
        )
    return np.random.SeedSequence(entropy=int(seed), spawn_key=steps)


def stream(seed: SeedLike, *path: int) -> np.random.Generator:
    """Generator for the derived stream at (seed, *path).

    A SeedSequence's spawn key counts as the start of the path, so
    stream(seed_path(seed, *path)) is stream(seed, *path), and
    stream(seed, *prefix, rep) is the stream streams(seed_path(seed, *prefix),
    lo, hi) yields for replication rep.
    """
    full = seed_path(seed, *path)
    steps = tuple(full.spawn_key)
    if not steps:
        return np.random.Generator(np.random.PCG64DXSM(full))
    key = np.random.SeedSequence(entropy=full.entropy, spawn_key=steps[:-1])
    return np.random.Generator(np.random.PCG64DXSM(key).advance((steps[-1] + 1) * STEP))


def streams(seed: SeedLike, lo: int, hi: int) -> Iterator[np.random.Generator]:
    """The streams (seed, rep) for rep = lo, ..., hi - 1, from one reused generator.

    Yields the same Generator each time, reset to its start state and advanced
    to replication rep's jump, so it must be drawn from before the next one is
    taken. Nothing carries over between replications: a half-used buffer or a
    replication's draw count does not reach the next one.
    """
    if lo < 0:
        raise ValueError("stream path components must be nonnegative")
    bit_gen = np.random.PCG64DXSM(seed_path(seed))
    gen = np.random.Generator(bit_gen)
    start = bit_gen.state
    for rep in range(lo, hi):
        bit_gen.state = start
        bit_gen.advance((rep + 1) * STEP)
        yield gen
