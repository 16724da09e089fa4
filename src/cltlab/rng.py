"""Deterministic random numbers for Monte Carlo: counter-based Philox blocks.

Every replication's random numbers are a pure function of (seed path, rep).
A seed path, a root seed plus integer steps (branch, n), is a SeedSequence
spawn key, hashed once per block of replications into a 64-bit Philox key:
seed_path(seed).generate_state(2, uint32). Replication rep owns the
Philox4x32-10 counters (j, rep mod 2^32, rep >> 32, 0), j = 0, 1, ..., and
its j-th 4-word block is the Philox bijection of that counter under the key
(Salmon, Moraes, Dror and Shaw, "Parallel random numbers: as easy as 1, 2,
3", SC'11). words(key, lo, hi, count) evaluates a whole (reps, blocks)
counter array with a few numpy array operations: no generator state and no
loop over replications. Integer arithmetic is exact, so a replication's
words do not depend on the block it is computed in or on how many
replications run beside it.

stream(seed, *path) is the PCG64DXSM generator keyed by the whole seed
path, for the path samplers that serve as references in law.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

SeedLike = Union[int, np.random.SeedSequence]

# Philox4x32 round multipliers and Weyl key increments (Random123).
PHILOX_M = (0xD2511F53, 0xCD9E8D57)
PHILOX_W = (0x9E3779B9, 0xBB67AE85)
PHILOX_ROUNDS = 10

_MASK32 = 0xFFFFFFFF


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
    stream(seed_path(seed, *path)) is stream(seed, *path).
    """
    return np.random.Generator(np.random.PCG64DXSM(seed_path(seed, *path)))


def philox_key(seed: SeedLike) -> Tuple[int, int]:
    """The 64-bit Philox key of a seed path, as two 32-bit words."""
    k0, k1 = seed_path(seed).generate_state(2, np.uint32).tolist()
    return k0, k1


def philox(counter: tuple, key: Tuple[int, int]) -> tuple:
    """Philox4x32-10 of four broadcastable uint32 counter arrays under a two-word key.

    Each round multiplies words 0 and 2 into 64-bit products; their high
    halves, xored with words 1 and 3 and the round key, become words 0 and 2,
    and their low halves words 1 and 3, crosswise. The key grows by the Weyl
    increments between rounds. Words 0, 2 and 1, 3 are kept as the two rows
    of two uint64 arrays, so a round is five array operations.
    """
    x0, x1, x2, x3 = np.broadcast_arrays(*(np.asarray(c, dtype=np.uint32) for c in counter))
    even = np.stack((x0, x2)).astype(np.uint64)
    odd = np.stack((x1, x3)).astype(np.uint64)
    shape = (2,) + (1,) * x0.ndim
    mult = np.array(PHILOX_M, dtype=np.uint64).reshape(shape)
    for r in range(PHILOX_ROUNDS):
        round_key = [(k + r * w) & _MASK32 for k, w in zip(key, PHILOX_W)]
        prod = even * mult
        even = odd
        even ^= (prod >> np.uint64(32))[::-1]
        even ^= np.array(round_key, dtype=np.uint64).reshape(shape)
        odd = (prod & np.uint64(_MASK32))[::-1]
    return tuple(a.astype(np.uint32) for a in (even[0], odd[0], even[1], odd[1]))


def words(key: Tuple[int, int], lo: int, hi: int, count: int) -> np.ndarray:
    """(hi - lo, count) uint32 words: row i holds the first count words of replication lo + i.

    Word 4 j + l of a replication is lane l of its Philox block j, the
    bijection of counter (j, rep mod 2^32, rep >> 32, 0).
    """
    if lo < 0 or hi < lo:
        raise ValueError("replications lo <= hi must be nonnegative")
    blocks = -(-count // 4)
    rep = np.arange(lo, hi, dtype=np.uint64)[:, None]
    counter = (
        np.arange(blocks, dtype=np.uint32)[None, :],
        (rep & np.uint64(_MASK32)).astype(np.uint32),
        (rep >> np.uint64(32)).astype(np.uint32),
        np.zeros(1, dtype=np.uint32),
    )
    out = np.stack(philox(counter, key), axis=-1).reshape(hi - lo, 4 * blocks)
    return out if count == 4 * blocks else np.ascontiguousarray(out[:, :count])
