"""Deterministic derivation of independent random streams.

Every stochastic component in the pipeline (data generation, prior draws,
simulator calls, MH proposals, ...) pulls its randomness from a stream
derived by hashing a master seed together with a purpose tag and, where
needed, indices or float arguments.  Streams are therefore independent of
evaluation order, which keeps results identical whether stages run
serially or concurrently.

A stream seed ``s`` names the generator ``np.random.default_rng(s)``.
``stream_normals`` draws from many such generators at once: it repeats
numpy's ``SeedSequence`` and ``PCG64`` seeding arithmetic (vectorized over
the seeds) instead of constructing a generator per seed, and its output
is bitwise the same.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _encode(part) -> bytes:
    """Type-tagged bytes of one seed part; the tag keeps 1 and 1.0 apart."""
    if isinstance(part, (int, np.integer)):  # bool is an int
        return b"i" + int(part).to_bytes(16, "little", signed=True)
    if isinstance(part, (bytes, bytearray)):
        return b"b" + bytes(part)
    if isinstance(part, str):
        return b"s" + part.encode()
    if isinstance(part, (float, np.floating)):
        return b"f" + np.float64(part).tobytes()
    if isinstance(part, (tuple, list, np.ndarray)):
        return b"a" + np.ascontiguousarray(part, dtype=np.float64).tobytes()
    raise TypeError(f"cannot derive a seed from {type(part).__name__}")


def _hasher(parts):
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(_encode(part))
    return h


def derive_seed(*parts) -> int:
    """Hash (seed, tag, index, ...) parts into a 64-bit stream seed.

    Accepted part types: int, float, str, bytes, and float sequences /
    arrays.  Type tags are mixed into the hash so e.g. 1 and 1.0 derive
    different streams.
    """
    return int.from_bytes(_hasher(parts).digest(), "little")


def derive_seeds(prefix, rows, suffix=()) -> list[int]:
    """``[derive_seed(*prefix, *row, *suffix) for row in rows]``.

    The prefix is hashed once and copied per row, and the suffix is
    encoded once.
    """
    base = _hasher(prefix)
    tail = b"".join(_encode(part) for part in suffix)
    seeds = []
    for row in rows:
        h = base.copy()
        h.update(b"".join([*map(_encode, row), tail]))
        seeds.append(int.from_bytes(h.digest(), "little"))
    return seeds


def derive_rng(*parts) -> np.random.Generator:
    """Independent generator for the stream identified by ``parts``."""
    return np.random.default_rng(derive_seed(*parts))


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and
# the PCG64 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _seed_sequence_words(seeds: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence(s).generate_state(8, np.uint32)`` for each 64-bit s.

    Returns the eight output words, each a uint32 vector over the seeds.
    A seed below 2**64 is at most two entropy words, fewer than the pool
    size, and a missing word is hashed exactly like a zero word, so every
    seed takes the same steps.  uint32 array arithmetic wraps like the
    C code's.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    zero = np.zeros(seeds.size, dtype=np.uint32)
    entropy = [(seeds & np.uint64(_MASK32)).astype(np.uint32),
               (seeds >> np.uint64(32)).astype(np.uint32), zero, zero]
    pool = [hashmix(word) for word in entropy]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))

    hash_const = _INIT_B
    words = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        words.append(value ^ (value >> np.uint32(16)))
    return words


def stream_normals(seeds, k: int) -> np.ndarray:
    """Row r is ``np.random.default_rng(seeds[r]).standard_normal(k)``.

    Seeds must be integers in [0, 2**64), which ``derive_seed`` returns.
    The SeedSequence mixing runs vectorized over all seeds; the PCG64
    set-seed step (two 128-bit LCG steps) runs on Python ints; one reused
    generator then has its state set per row and fills that row.
    """
    seeds = np.asarray(seeds, dtype=np.uint64).reshape(-1)
    out = np.empty((seeds.size, k))
    if seeds.size == 0:
        return out
    words = [w.astype(np.uint64) for w in _seed_sequence_words(seeds)]
    # generate_state(4, np.uint64) pairs the words little-endian; PCG64
    # takes (state, increment) from (u64[0] << 64 | u64[1], u64[2] << 64 | u64[3]).
    u64 = [(words[2 * i] | (words[2 * i + 1] << np.uint64(32))).tolist() for i in range(4)]
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    state = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}
    for r, (s_hi, s_lo, i_hi, i_lo) in enumerate(zip(*u64)):
        inc = ((((i_hi << 64) | i_lo) << 1) | 1) & _MASK128
        initstate = (s_hi << 64) | s_lo
        state["state"] = {"state": ((inc + initstate) * _PCG_MULT + inc) & _MASK128, "inc": inc}
        bitgen.state = state
        gen.standard_normal(out=out[r])
    return out
