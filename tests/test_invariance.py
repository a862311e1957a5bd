"""Metamorphic relations of the calibration: a transformation of the
inputs that must leave the results as they were.

Memory layout: a point set read in C order, in Fortran order or through a
strided view is the same rows, so every result is bitwise the same.
"""

import numpy as np
import pytest

from shiftcal.config import preset
from shiftcal.herd import CandidatePool, herd
from shiftcal.kabc import build_embedding
from shiftcal.kern import pairwise_sqdist
from shiftcal.pipeline import prepare

LAYOUTS = {
    "fortran": np.asfortranarray,
    "row-strided": lambda a: np.repeat(a, 2, axis=0)[::2],
    "column-strided": lambda a: np.repeat(a, 2, axis=1)[:, ::2],
    "fortran-strided": lambda a: np.asfortranarray(np.repeat(a, 2, axis=0))[::2],
}


@pytest.fixture(scope="module", params=["linear-shift", "assembly-shift"])
def prep(request):
    return prepare(preset(request.param, n=12, m=40, herd_size=40, n_test=10))


def embed(prep, draws, outputs):
    (embedding,) = build_embedding(draws, outputs, (prep.dataset.y,), prep.beta, None, None,
                                   prep.epsilon)
    return embedding


def same_embedding(a, b) -> bool:
    return (a.weights.tobytes() == b.weights.tobytes()
            and a.theta_gram.tobytes() == b.theta_gram.tobytes()
            and (a.meta["sigma2"], a.kernel.sigma2) == (b.meta["sigma2"], b.kernel.sigma2))


@pytest.mark.parametrize("layout", LAYOUTS)
class TestMemoryLayout:
    def test_distances(self, prep, layout):
        for rows in (prep.draws, prep.outputs):
            relaid = LAYOUTS[layout](rows)
            assert np.array_equal(relaid, rows)
            assert pairwise_sqdist(relaid).tobytes() == pairwise_sqdist(rows).tobytes()

    def test_draws_and_outputs(self, prep, layout):
        reference = embed(prep, prep.draws, prep.outputs)
        relaid = LAYOUTS[layout]
        assert same_embedding(embed(prep, relaid(prep.draws), prep.outputs), reference)
        assert same_embedding(embed(prep, prep.draws, relaid(prep.outputs)), reference)

    def test_pools(self, prep, layout):
        # extra candidates after the draws: the pool's Gram matrix is a theta pass
        embedding = embed(prep, prep.draws, prep.outputs)
        points = np.vstack([prep.draws, 1.01 * prep.draws[:10]])
        reference = herd(embedding, CandidatePool(points), 20)
        herded = herd(embedding, CandidatePool(LAYOUTS[layout](points)), 20)
        assert herded.indices.tobytes() == reference.indices.tobytes()
        assert herded.points.tobytes() == reference.points.tobytes()
        assert herded.objectives.tobytes() == reference.objectives.tobytes()
