import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from shiftcal._seeding import _box_muller, _outputs, derive_rng, derive_seed, key_normals, stream_keys


def test_same_parts_same_seed():
    assert derive_seed(7, "tag", 3) == derive_seed(7, "tag", 3)


def test_different_parts_different_seed():
    seeds = {
        derive_seed(7, "tag", 3),
        derive_seed(7, "tag", 4),
        derive_seed(8, "tag", 3),
        derive_seed(7, "other", 3),
        derive_seed(7, "tag", 3.0),  # float vs int must not collide
    }
    assert len(seeds) == 5


def test_array_and_tuple_parts():
    a = derive_seed(0, np.array([1.0, 2.0]))
    b = derive_seed(0, (1.0, 2.0))
    assert a == b


def test_rng_streams_independent():
    x = derive_rng(0, "a").standard_normal(4)
    y = derive_rng(0, "b").standard_normal(4)
    assert not np.allclose(x, y)
    assert np.array_equal(x, derive_rng(0, "a").standard_normal(4))


def test_rejects_unknown_types():
    with pytest.raises(TypeError):
        derive_seed(object())


# derive_seed values computed before the per-part encoder was factored out;
# every stream in the pipeline is keyed on these, so they must never move.
GOLDEN_SEEDS = [
    ((), 13020603013274838756),
    ((0,), 13379413122819086221),
    ((7, "tag", 3), 14227115623058372983),
    ((7, "tag", 3.0), 12212440781891667628),
    ((-1,), 18309704000985273920),
    ((2**64 - 1,), 976006106041591190),
    ((True,), 2632205999180479934),
    ((np.int64(5),), 2241960321436411241),
    ((np.float32(0.5),), 11306967415767909316),
    ((b"raw",), 5489798774313624247),
    ((bytearray(b"raw"),), 5489798774313624247),
    (("",), 16027976456189790694),
    (((1.0, 2.0),), 2989331549372957497),
    (([1, 2],), 2989331549372957497),
    ((np.array([1.5, -2.5]),), 14877581440567131641),
    ((101, "pseudo", 399, 49), 3757800674073515505),
    ((5, "predict", np.array([2.0, 0.5, 5.0, 1.0]), 2), 13037138416777060653),
    ((123, "assembly", 100.0), 12750223736717758727),
]


@pytest.mark.parametrize("parts, expected", GOLDEN_SEEDS)
def test_golden_seeds_unchanged(parts, expected):
    assert derive_seed(*parts) == expected


MASK64 = 2**64 - 1


def splitmix64(key, k):
    """Reference splitmix64 (Steele, Lea and Flood, OOPSLA 2014) on Python ints."""
    out = []
    for c in range(1, k + 1):
        z = (key + c * 0x9E3779B97F4A7C15) & MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append(z ^ (z >> 31))
    return out


EDGE_KEYS = np.array([0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1], dtype=np.uint64)


def test_outputs_are_splitmix64():
    # the first output of splitmix64 seeded with 0, as published with the generator
    assert int(_outputs(0, 1)[0, 0]) == 0xE220A8397B1DCDAF
    # one row per output, one column per key
    assert _outputs(EDGE_KEYS, 20).T.tolist() == [splitmix64(int(key), 20) for key in EDGE_KEYS]


@pytest.mark.parametrize("k", [0, 1, 200])
def test_key_normals_edge_keys(k):
    got = key_normals(EDGE_KEYS, k)
    assert got.shape == (k, len(EDGE_KEYS))
    assert np.all(np.isfinite(got))
    assert got.tobytes() == key_normals(EDGE_KEYS.copy(), k).tobytes()
    if k:
        assert len({column.tobytes() for column in got.T}) == len(EDGE_KEYS)


@pytest.mark.parametrize("k", [0, 1, 2, 7, 200])
def test_key_normals_are_box_muller_on_half_as_many_outputs(k):
    got = key_normals(EDGE_KEYS, k)
    assert got.tobytes() == _box_muller(_outputs(EDGE_KEYS, -(-k // 2)))[:k].tobytes()


def box_muller_oracle(word):
    """The documented transform in float64, from the same float32 u and angle."""
    u = float(np.float32(((word >> 40) + 0.5) * 2.0**-24))
    low = word & 0xFFFF_FFFF
    angle = float(np.float32(low - 2**32 if low >= 2**31 else low) * np.float32(math.pi * 2.0**-31))
    radius = math.sqrt(-2 * math.log(u))
    return radius * math.sin(angle), radius * math.cos(angle)


# All bits clear or set, the sign bit alone, and radius bits (the top 24)
# all 0 (u = 2**-25, the longest radius) or all 1 (u rounds to 1, radius 0).
CRAFTED_WORDS = [0, 2**64 - 1, 2**63, 0x0000_00FF_FFFF_FFFF, 0xFFFF_FF00_0000_0000,
                 0x0000_0040_0000_0000, 0x0000_0000_C000_0000, 0xFFFF_FFFF_7FFF_FFFF]
# the radius at u = 2**-25, plus float32 rounding of the log and the root
TAIL_CUT = math.sqrt(-2 * math.log(2.0**-25)) * (1 + 2.0**-22)


def test_box_muller_on_crafted_words():
    # one column of words: normals 2j and 2j+1 are rows 2j and 2j+1
    z = _box_muller(np.array(CRAFTED_WORDS, dtype=np.uint64)[:, None])[:, 0]
    assert z.shape == (2 * len(CRAFTED_WORDS),) and np.all(np.isfinite(z))
    assert np.abs(z).max() <= TAIL_CUT
    expected = np.array([box_muller_oracle(word) for word in CRAFTED_WORDS]).ravel()
    np.testing.assert_allclose(z, expected, rtol=1e-6)
    # the pair from one word shares its radius
    np.testing.assert_allclose(z[0::2] ** 2 + z[1::2] ** 2, expected[0::2] ** 2 + expected[1::2] ** 2,
                               rtol=1e-6)
    # one row of words: the sines fill row 0 and the cosines row 1
    row = _box_muller(np.array([CRAFTED_WORDS], dtype=np.uint64))
    assert row.shape == (2, len(CRAFTED_WORDS))
    assert row.tobytes() == np.concatenate([z[0::2], z[1::2]]).tobytes()


def test_key_normals_match_a_float64_oracle():
    # exact bits are not pinned: numpy picks its float32 kernels per CPU
    expected = [np.ravel([box_muller_oracle(int(w)) for w in words])[:7]
                for words in _outputs(EDGE_KEYS, 4).T]
    np.testing.assert_allclose(key_normals(EDGE_KEYS, 7).T, expected, rtol=1e-6)


def test_key_normals_no_keys():
    assert key_normals([], 5).shape == (5, 0)


@given(st.lists(st.integers(0, 2**64 - 1) | st.sampled_from(EDGE_KEYS.tolist()), min_size=1,
                max_size=12),
       st.integers(0, 300), st.integers(0, 300))
def test_normal_is_a_function_of_key_and_counter(keys, k, j):
    # column r is key r's stream alone, and asking for fewer normals gives
    # the leading rows
    keys = np.array(keys, dtype=np.uint64)
    got = key_normals(keys, k)
    for r, key in enumerate(keys):
        assert got[:, r].tobytes() == key_normals([key], k)[:, 0].tobytes()
    assert got[: min(j, k)].tobytes() == key_normals(keys, min(j, k)).tobytes()


def test_stream_keys_absorb_in_turn_and_broadcast():
    rows, cols = np.arange(4)[:, None], np.array([0.5, -0.5, 2.0])
    keys = stream_keys(9, rows, cols)
    assert keys.shape == (4, 3) and keys.dtype == np.uint64
    assert np.array_equal(keys, stream_keys(stream_keys(9, rows), cols))
    assert len(set(keys.ravel().tolist())) == 12
    assert np.array_equal(stream_keys(np.uint64(9)), np.uint64(9))
    # an int and a float of the same value are different columns
    assert stream_keys(9, 1) != stream_keys(9, 1.0)
    assert stream_keys(9, 1) != stream_keys(10, 1)
    assert stream_keys(9, 1, 2) != stream_keys(9, 2, 1)


def test_int_key_lists_convert_exactly():
    # numpy reads a list of ints on both sides of 2**63 as float64
    keys = [2**63 + 1, 5, 2**64 - 1, -1, 2**63 - 1]
    got = stream_keys(keys, 0.5)
    assert got.dtype == np.uint64
    assert got.tolist() == [int(stream_keys(key, 0.5)) for key in keys]
    assert stream_keys([-1, 2**63]).tolist() == [2**64 - 1, 2**63]
    with pytest.raises(TypeError, match="integers or floats"):
        stream_keys([2**63 + 1, 5.0])


@pytest.mark.parametrize("key, column", [(1.5, 0), (np.array([1.0]), 0), (1, "a"), (1, [object()])])
def test_stream_keys_reject_other_types(key, column):
    with pytest.raises(TypeError, match="integers or floats"):
        stream_keys(key, column)


@pytest.mark.parametrize("key", EDGE_KEYS.tolist() + [derive_seed("parent stream")])
def test_derived_key_is_not_an_output_of_its_parent(key):
    assert not np.any(_outputs(key, 2**20) == stream_keys(key, 0))


# Statistical checks on N = 10**6 normals, 1,000 counters on each of 1,000
# streams.  Thresholds are five standard errors (a KS p-value floor of 1e-4)
# and were fixed before the tests first ran.
N_KEYS = N_COUNTERS = 1000
N = N_KEYS * N_COUNTERS
BASE = derive_seed("key_normals distribution")
KEY_SETS = {
    # raw neighbouring integers, the least mixed keys a caller could pass
    "consecutive": BASE + np.arange(N_KEYS, dtype=np.uint64),
    # neighbouring draws of one caller, as the pipeline derives them
    "derived": stream_keys(BASE, np.arange(N_KEYS)),
}


@pytest.fixture(scope="module", params=sorted(KEY_SETS))
def normals(request):
    return key_normals(KEY_SETS[request.param], N_COUNTERS)


def test_moments(normals):
    z = normals.ravel()
    assert abs(z.mean()) < 5 / np.sqrt(N)
    assert abs(z.var() - 1) < 5 * np.sqrt(2 / N)


def test_ks_against_standard_normal(normals):
    assert stats.kstest(normals.ravel(), "norm").pvalue > 1e-4


# normals are laid out (counter, key): axis 1 holds neighbouring keys
@pytest.mark.parametrize("axis", [1, 0], ids=["neighbouring-keys", "neighbouring-counters"])
def test_no_correlation_between_neighbours(normals, axis):
    a = np.delete(normals, -1, axis=axis).ravel()
    b = np.delete(normals, 0, axis=axis).ravel()
    assert abs(np.corrcoef(a, b)[0, 1]) < 5 / np.sqrt(a.size)
