"""numpy's Philox stream of one (seed, k), keyed in Python: the one key
schedule of percolation_mc's blocks and MuHatSampler's draws.

Philox is the counter-based generator of Salmon et al., "Parallel Random
Numbers: As Easy as 1, 2, 3" (SC 2011). numpy keys it from
SeedSequence(entropy=seed, spawn_key=(k,)).generate_state(2, np.uint64).
Building that SeedSequence costs more than the rest of a sampler draw, so
philox_key ports its 32-bit hash mixing (numpy's bit_generator.pyx,
mix_entropy and generate_state) to Python. The seed's part of the mixing
is done once per seed; a draw mixes in only k and hashes the output, in
straight-line integer code with no helper call per word. numpy's own
SeedSequence is only the tests' oracle for the key. philox_raw hands a
draw its outputs as one int, read little-endian.

Both routes import this module on first use, so numpy stays out of the
package's import and set-up.
"""

from __future__ import annotations

import functools
import operator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# numpy's SeedSequence constants: mix_entropy hashes with INIT_A and
# MULT_A, generate_state with INIT_B and MULT_B, and mixes two words with
# MIX_MULT_L and MIX_MULT_R
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
# Philox's starting counter, handed over as an array: given its default 0,
# numpy splits an int into the counter's words on every construction.
# Read-only, since every generator starts from it.
_ZERO_COUNTER = np.zeros(4, np.uint64)
_ZERO_COUNTER.flags.writeable = False


def _hash_consts(init: int, mult: int, start: int, count: int):
    """The (xor, multiplier) pairs of hash calls start .. start+count-1:
    call i xors its word with init*mult^i and multiplies by init*mult^(i+1),
    mod 2^32. They do not depend on the data hashed."""
    return tuple((init * pow(mult, i, 1 << 32) & _MASK32,
                  init * pow(mult, i + 1, 1 << 32) & _MASK32)
                 for i in range(start, start + count))


# mix_entropy's first 4 + 12 hash calls (pool fill, then pool x pool), and
# generate_state's 4 calls for two 64-bit words
_POOL_CONSTS = _hash_consts(_INIT_A, _MULT_A, 0, _POOL_SIZE * _POOL_SIZE)
_STATE_CONSTS = _hash_consts(_INIT_B, _MULT_B, 0, 4)


def _uint32_words(x) -> list[int]:
    """numpy's split of a non-negative int into 32-bit words, low first;
    0 is one word. The sign is checked first: a negative x has no split."""
    x = operator.index(x)
    if x < 0:
        raise ValueError("expected non-negative integer")
    words = [x & _MASK32]
    x >>= 32
    while x:
        words.append(x & _MASK32)
        x >>= 32
    return words


def _hashmix(value: int, xor: int, mul: int) -> int:
    value = (value ^ xor) * mul & _MASK32
    return value ^ value >> 16


def _mix(x: int, y: int) -> int:
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return r ^ r >> 16


def _mix_into(pool: list[int], word: int, consts) -> None:
    """mix_entropy's step for one word: hash it once per pool word, with
    the next 4 hash constants, and mix each hash into its pool word."""
    for d, (xor, mul) in enumerate(consts):
        pool[d] = _mix(pool[d], _hashmix(word, xor, mul))


@functools.lru_cache(maxsize=8)
def _seed_pool(seed: int, spawn_words: int):
    """The entropy pool of SeedSequence(entropy=seed, spawn_key=(k,)) before
    k is mixed in, with the hash constants of k's spawn_words words, one
    group of 4 per word. With a spawn key, the seed's words are padded
    with zeros to the 4-word pool; the first 4 fill the pool, the pool is
    mixed with itself, and any further word is mixed into every pool word."""
    words = _uint32_words(seed)
    words += [0] * (_POOL_SIZE - len(words))
    pool = [_hashmix(word, *consts)
            for word, consts in zip(words[:_POOL_SIZE], _POOL_CONSTS)]
    calls = iter(_POOL_CONSTS[_POOL_SIZE:])
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], *next(calls)))
    start = len(_POOL_CONSTS)
    for word in words[_POOL_SIZE:]:
        _mix_into(pool, word, _hash_consts(_INIT_A, _MULT_A, start,
                                           _POOL_SIZE))
        start += _POOL_SIZE
    return tuple(pool), tuple(_hash_consts(_INIT_A, _MULT_A,
                                           start + _POOL_SIZE * w, _POOL_SIZE)
                              for w in range(spawn_words))


def philox_key(seed, k) -> tuple[int, int]:
    """numpy's SeedSequence(entropy=seed, spawn_key=(k,)).generate_state(2,
    np.uint64) as two ints: the 128-bit Philox key of draw k of seed. As in
    numpy, a negative seed or k raises ValueError and a non-integer one
    (a float, a str) TypeError; bools and numpy integers count as ints.

    The mixing of k and the output hash are unrolled into straight-line
    integer code: each 32-bit word of k is hashed once per pool word and
    mixed into it (_mix_into's step), then each pool word is hashed once
    with generate_state's constants (_STATE_CONSTS)."""
    k = operator.index(k)
    if k < 0:
        raise ValueError("expected non-negative integer")
    # k's 32-bit words, low first, and 0 is one word, as in _uint32_words
    pool, groups = _seed_pool(operator.index(seed),
                              (k.bit_length() + 31) // 32 or 1)
    p0, p1, p2, p3 = pool
    for (x0, m0), (x1, m1), (x2, m2), (x3, m3) in groups:
        w = k & _MASK32
        k >>= 32
        h = (w ^ x0) * m0 & _MASK32
        r = (_MIX_MULT_L * p0 - _MIX_MULT_R * (h ^ h >> 16)) & _MASK32
        p0 = r ^ r >> 16
        h = (w ^ x1) * m1 & _MASK32
        r = (_MIX_MULT_L * p1 - _MIX_MULT_R * (h ^ h >> 16)) & _MASK32
        p1 = r ^ r >> 16
        h = (w ^ x2) * m2 & _MASK32
        r = (_MIX_MULT_L * p2 - _MIX_MULT_R * (h ^ h >> 16)) & _MASK32
        p2 = r ^ r >> 16
        h = (w ^ x3) * m3 & _MASK32
        r = (_MIX_MULT_L * p3 - _MIX_MULT_R * (h ^ h >> 16)) & _MASK32
        p3 = r ^ r >> 16
    (x0, m0), (x1, m1), (x2, m2), (x3, m3) = _STATE_CONSTS
    p0 = (p0 ^ x0) * m0 & _MASK32
    p1 = (p1 ^ x1) * m1 & _MASK32
    p2 = (p2 ^ x2) * m2 & _MASK32
    p3 = (p3 ^ x3) * m3 & _MASK32
    return (p0 ^ p0 >> 16 | (p1 ^ p1 >> 16) << 32,
            p2 ^ p2 >> 16 | (p3 ^ p3 >> 16) << 32)


class _Key(ISeedSequence):
    """A seed sequence that is one given Philox key: Philox asks it once
    for two 64-bit words."""

    def __init__(self, key: tuple[int, int]):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return np.array(self.key, dtype=np.uint64)


def philox(seed, k) -> np.random.Philox:
    """A fresh Philox generator seeded as with
    SeedSequence(entropy=seed, spawn_key=(k,)), its counter at zero."""
    return np.random.Philox(_Key(philox_key(seed, k)), counter=_ZERO_COUNTER)


def philox_raw(seed, k, count: int) -> int:
    """The first `count` raw 64-bit outputs of philox(seed, k) as one int:
    output t is bits 64t .. 64t + 63. The outputs are read as little-endian
    bytes whatever the host's byte order, so no list of ints is built."""
    return int.from_bytes(philox(seed, k).random_raw(count)
                          .astype("<u8", copy=False).tobytes(), "little")
