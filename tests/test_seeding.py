import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shiftcal._seeding import derive_rng, derive_seed, derive_seeds, stream_normals


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


def test_derive_seeds_matches_derive_seed():
    rows = [(j, 0.5 * j) for j in range(5)] + [(np.array([1.0, 2.0]), 2), ()]
    assert derive_seeds((9, "tag"), rows, ("tail", 3)) == [
        derive_seed(9, "tag", *row, "tail", 3) for row in rows
    ]
    assert derive_seeds((), [(4,)]) == [derive_seed(4)]
    assert derive_seeds((1,), []) == []


def reference_normals(seeds, k):
    return np.array([np.random.default_rng(s).standard_normal(k) for s in seeds]).reshape(len(seeds), k)


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


@pytest.mark.parametrize("k", [0, 1, 200])
def test_stream_normals_edge_seeds(k):
    got = stream_normals(EDGE_SEEDS, k)
    assert got.shape == (len(EDGE_SEEDS), k)
    assert got.tobytes() == reference_normals(EDGE_SEEDS, k).tobytes()


def test_stream_normals_no_seeds():
    assert stream_normals([], 5).shape == (0, 5)


@given(
    st.lists(st.integers(0, 2**64 - 1) | st.sampled_from(EDGE_SEEDS), min_size=1, max_size=12),
    st.integers(0, 300),
)
def test_stream_normals_equal_default_rng(seeds, k):
    assert stream_normals(seeds, k).tobytes() == reference_normals(seeds, k).tobytes()
