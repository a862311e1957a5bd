"""Deterministic derivation of independent random streams.

Every stochastic component pulls its randomness from a stream named by a
master seed, a purpose tag and, where needed, indices or float arguments,
so results do not depend on evaluation order.  ``derive_seed`` hashes
such parts with blake2b; ``derive_rng`` makes numpy's generator for the
data, prior, test-input and MH-proposal streams.  Simulator noise is
counter-based (Salmon et al., SC 2011): ``stream_keys`` derives many
stream keys at once, and ``key_normals`` computes normal c of key K as a
pure function of (K, c), so any number of streams fill in one pass.
Streams are columns: row c holds normal c of every stream, so a caller
that runs one recurrence over c on all streams advances them with one
vector operation per row.  Each splitmix64 output gives two normals by
Box-Muller, with the transcendentals in float32; reruns are
byte-identical on one machine and numpy build, because numpy picks its
float32 kernels per CPU.
"""

from __future__ import annotations

import hashlib

import numpy as np

# The ints ``_encode`` writes as 16 signed bytes: the range of a master seed.
SEED_RANGE = (-(2**127), 2**127)


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


def derive_seed(*parts) -> int:
    """Hash (seed, tag, index, ...) parts into a 64-bit stream seed.

    Accepted part types: int, float, str, bytes, and float sequences /
    arrays.  Type tags are mixed into the hash so e.g. 1 and 1.0 derive
    different streams.
    """
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(_encode(part))
    return int.from_bytes(h.digest(), "little")


def derive_rng(*parts) -> np.random.Generator:
    """Independent generator for the stream identified by ``parts``."""
    return np.random.default_rng(derive_seed(*parts))


# splitmix64 (Steele, Lea and Flood, OOPSLA 2014): its counter increment,
# its output round, and the MurmurHash3 round it derives split streams with.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_OUTPUT_ROUND = ((30, 27, 31), (0xBF58476D1CE4E5B9, 0x94D049BB133111EB))
_ABSORB_ROUND = ((33, 33, 33), (0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53))


def _mix(z: np.ndarray, mixing_round) -> np.ndarray:
    """One xorshift-multiply round over a uint64 array, in place; wraps mod 2**64."""
    (a, b, c), (m1, m2) = mixing_round
    z ^= z >> np.uint64(a)
    z *= np.uint64(m1)
    z ^= z >> np.uint64(b)
    z *= np.uint64(m2)
    z ^= z >> np.uint64(c)
    return z


def _uint64(values, floats: bool) -> np.ndarray:
    """An integer's two's complement or, if ``floats``, a float's IEEE bits."""
    if isinstance(values, (list, tuple)) and all(isinstance(v, (int, np.integer)) for v in values):
        # numpy reads ints on both sides of 2**63 as float64; convert them exactly
        return np.array([int(v) & 0xFFFF_FFFF_FFFF_FFFF for v in values], dtype=np.uint64)
    values = np.asarray(values)
    if floats and values.dtype.kind == "f":
        return values.astype(np.float64).view(np.uint64)
    if values.dtype.kind not in "iu" and values.size:
        rule = "are built from" if floats else "must be integers; columns take"
        raise TypeError(f"stream keys {rule} integers or floats, got {values.dtype}")
    return values.astype(np.uint64)


def stream_keys(key, *columns) -> np.ndarray:
    """``key`` (an int or integer array) with each column absorbed in turn.

    Columns hold integers or floats and broadcast with the key.  Absorbing
    is ``key = mix(key ^ bits)`` in the MurmurHash3 round, not the output
    round, so a derived key is not an output of its parent's stream, and
    ``stream_keys(stream_keys(k, a), b) == stream_keys(k, a, b)``.
    """
    keys = _uint64(key, floats=False)
    for column in columns:
        keys = _mix(np.asarray(keys ^ _uint64(column, floats=True)), _ABSORB_ROUND)
    return keys


def _outputs(keys, k: int) -> np.ndarray:
    """splitmix64 outputs 0..k-1 of each key, one row per output and one
    column per key; output c is ``mix(K + (c + 1) * gamma)``."""
    counters = _GAMMA * np.arange(1, k + 1, dtype=np.uint64)[:, None]
    z = counters + _uint64(keys, floats=False).reshape(1, -1)
    return _mix(z, _OUTPUT_ROUND)


# Box-Muller (Box and Muller, Ann. Math. Stat. 1958) scales: u from 24
# bits, and an angle from a signed 32-bit word.
_U_SCALE = np.float32(2.0**-24)
_ANGLE_SCALE = np.float32(np.pi * 2.0**-31)


def _box_muller(words: np.ndarray) -> np.ndarray:
    """Rows 2j and 2j+1 of normals from row j of words: r*sin(a) and r*cos(a).

    The top 24 bits v of a word give u = (v + 0.5) * 2**-24 in float32:
    exact below 1/2 and rounded half to even above, so u lies in
    [2**-25, 1] and the radius r = sqrt(-2 ln u) in [0, 5.887].  The low 32
    bits, read as int32 and scaled by pi * 2**-31 in float32, give the angle
    a in [-pi, pi].  log, sqrt, sin and cos run in float32 on contiguous
    arrays (numpy may pick another loop for strided ones), and r times sin
    or cos is formed in float64, where the product of two float32 is exact.
    """
    # unsigned-to-float casts are slow; go through int32
    radius = (words >> np.uint64(40)).astype(np.int32).astype(np.float32)
    radius += np.float32(0.5)
    radius *= _U_SCALE
    np.log(radius, out=radius)
    radius *= np.float32(-2.0)
    np.sqrt(radius, out=radius)
    angle = words.astype(np.uint32).view(np.int32).astype(np.float32)
    angle *= _ANGLE_SCALE
    rows, columns = words.shape
    normals = np.empty((rows, 2, columns))  # rows 2j and 2j+1 are contiguous
    normals[:, 0] = np.sin(angle)
    normals[:, 1] = np.cos(angle, out=angle)
    # one float64 multiply over the whole buffer; two mixed-precision
    # multiplies into the strided halves took about 35% longer
    normals *= radius[:, None]
    return normals.reshape(2 * rows, columns)


def key_normals(keys, k: int) -> np.ndarray:
    """A ``(k, len(keys))`` array: column r holds standard normals 0..k-1
    of the stream ``keys[r]``, and row c normal c of every stream.

    Normals 2j and 2j+1 come from splitmix64 output j (``_box_muller``),
    so k normals of a stream cost ceil(k/2) outputs and normal c stays a
    pure function of (K, c).  The tails stop near 5.887 standard
    deviations.
    """
    return _box_muller(_outputs(keys, -(-k // 2)))[:k]
