"""Per-item uniforms of a policy run, drawn without numpy Generators.

Balance and ranking give item i of a run the stream of child i of the run's
seed, as numpy's SeedSequence.spawn numbers its children, and read its
first doubles.  Building a Generator per item costs more than the policy
run, so item_uniforms takes the pool every child holds before its spawn
word is mixed in from SeedSequence(rng_seed).pool (a child pads the seed's
words with zeros, where the parent hashes zeros), then redoes numpy's
remaining steps for every item at once: the hash of the spawn word into the
pool, the pool's 8 state words, and PCG64's seeding and output (O'Neill,
PCG: a family of simple fast space-efficient statistically good algorithms
for random number generation, 2014).  The doubles equal numpy's bit for bit.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# numpy's SeedSequence hash constants (pool of 4 words) and PCG64 multiplier
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_consts(const, mult, count):
    """The hash constant before each of `count` hash steps, and after the last."""
    out = [const]
    for _ in range(count):
        out.append(out[-1] * mult & _M32)
    return out


# generate_state's 8 words read the 4 pool words in cycle
_STATE_CONSTS = np.array(_hash_consts(_INIT_B, _MULT_B, 8), dtype=np.uint64)
_STATE_POOL = [0, 1, 2, 3, 0, 1, 2, 3]


def item_uniforms(rng_seed, counts):
    """The first counts[i] doubles of item i's stream,
    default_rng(SeedSequence(rng_seed, spawn_key=(i,))), for every item i in
    order, as one flat tuple.  Items number below 2**32, one spawn word.
    The last answer is kept: at k = 1 balance and ranking ask for the same."""
    return _item_uniforms(int(rng_seed), tuple(counts))


@lru_cache(maxsize=1)
def _item_uniforms(seed, counts):
    pool = np.random.SeedSequence(seed).pool.tolist()
    # the hash constant steps once per word hashed: 16 times to mix the pool's
    # 4 words together, then 4 times per seed word past the fourth
    words = max(1, -(-seed.bit_length() // 32))
    const = _INIT_A * pow(_MULT_A, 16 + 4 * max(words - 4, 0), _M32 + 1) & _M32
    u64, m32 = np.uint64, np.uint64(_M32)
    # hashmix item i's spawn word into each pool word, one column per word
    consts = np.array(_hash_consts(const, _MULT_A, 4), dtype=np.uint64)
    h = (np.arange(len(counts), dtype=np.uint64)[:, None] ^ consts[:4]) * consts[1:] & m32
    h ^= h >> u64(16)
    h = (np.array([_MIX_L * p & _M32 for p in pool], dtype=np.uint64) - u64(_MIX_R) * h) & m32
    h ^= h >> u64(16)
    # generate_state(4, np.uint64): 8 hashed words, read as 4 little-endian pairs
    v = (h[:, _STATE_POOL] ^ _STATE_CONSTS[:8]) * _STATE_CONSTS[1:] & m32
    v ^= v >> u64(16)
    uniforms = []
    # per item: PCG64 seeded with state (a, b) and increment (c, d), 64-bit halves
    for k, (a, b, c, d) in zip(counts, (v[:, 1::2] << u64(32) | v[:, ::2]).tolist()):
        inc = ((c << 64 | d) << 1 | 1) & _M128
        state = ((inc + (a << 64 | b)) * _PCG_MULT + inc) & _M128
        for _ in range(k):
            state = (state * _PCG_MULT + inc) & _M128
            x = (state >> 64 ^ state) & _M64
            rot = state >> 122  # XSL-RR output, then the top 53 bits as a double
            uniforms.append((((x >> rot | x << (64 - rot)) & _M64) >> 11) * 2.0 ** -53)
    return tuple(uniforms)
