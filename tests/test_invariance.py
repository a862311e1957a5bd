"""Metamorphic relations of the calibration: a transformation of the
inputs that must leave the results as they were.

Memory layout: a point set read in C order, in Fortran order or through a
strided view is the same rows, so every result is bitwise the same.

Symmetries of the method, on both shift presets at their own seed and at
seeds 1-5, under the median bandwidth.  Each changes the rounding but not
the arithmetic, so it holds to ``REL`` relative (the largest deviation over
the largest reference value):

- beta -> c beta: the output bandwidth sigma2 scales by c and the weights
  stay as they were;
- a permutation of the prior draws (with their pseudo-outputs) permutes
  the weights;
- a permutation of the training points (inputs, outputs, weights and
  pseudo-output columns) leaves the weights as they were;
- adding one constant to every pseudo-output and observation leaves the
  weights as they were.

Herding over the draws must then pick the same points.  A flip is reported
with the reference's objective gap at that step, and it is allowed only
where that gap is within what the weight tolerance can move a score:
``2 * REL * m * max|w|``, since every kernel value is at most 1.
"""

import dataclasses

import numpy as np
import pytest

from shiftcal.config import preset
from shiftcal.herd import CandidatePool, herd
from shiftcal.kabc import build_embedding
from shiftcal.kern import pairwise_sqdist
from shiftcal.pipeline import prepare
from shiftcal.sim import Dataset
from shiftcal.weights import ImportanceWeights

REL = 1e-12
SCALES = (2.0, 0.37)
SHIFT = 10.0

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


@pytest.fixture(scope="module", params=[(name, seed) for name in ("linear-shift", "assembly-shift")
                                        for seed in range(6)], ids=lambda p: f"{p[0]}-{p[1]}")
def reference(request):
    """A preset's front half at one seed (seed 0 is the presets' own), its
    embedding and its herded draws."""
    name, seed = request.param
    prep = prepare(preset(name, seed=seed))
    (embedding,) = prep.embed()
    herded = herd(embedding, CandidatePool.from_draws(embedding.draws), len(prep.draws))
    return prep, embedding, herded


def relative_gap(values, expected) -> float:
    return float(np.max(np.abs(values - expected)) / np.max(np.abs(expected)))


def check_herd(reference, prep, order=None):
    """Herding over ``prep``'s draws picks the reference's points, the draw
    at ``order[i]`` being the reference's draw i; a flip must be a near tie."""
    _, emb, herded = reference
    (moved,) = prep.embed()
    picks = herd(moved, CandidatePool.from_draws(moved.draws), len(herded)).indices
    picks = picks if order is None else np.asarray(order)[picks]
    flips = np.flatnonzero(picks != herded.indices)
    if flips.size == 0:
        return
    t = int(flips[0])
    gram = emb.gram(emb.draws)
    scores = gram @ emb.weights - gram[herded.indices[:t]].sum(axis=0) / (t + 1)
    gap = float(scores[herded.indices[t]] - scores[picks[t]])
    bound = 2 * REL * len(emb.weights) * float(np.max(np.abs(emb.weights)))
    print(f"[invariance] herded index flips at step {t}: {herded.indices[t]} -> {picks[t]}, "
          f"objective gap {gap:.3e} (bound {bound:.3e})")
    assert gap <= bound


@pytest.mark.parametrize("c", SCALES)
def test_scaling_beta_scales_sigma2_and_keeps_the_weights(reference, c):
    prep, emb, _ = reference
    scaled = dataclasses.replace(prep, beta=ImportanceWeights(c * np.asarray(prep.beta)))
    (moved,) = scaled.embed()
    assert relative_gap(moved.meta["sigma2"], c * emb.meta["sigma2"]) <= REL
    assert moved.kernel.sigma2 == emb.kernel.sigma2
    assert relative_gap(moved.weights, emb.weights) <= REL
    check_herd(reference, scaled)


def test_permuting_the_draws_permutes_the_weights(reference):
    prep, emb, _ = reference
    order = np.random.default_rng(len(prep.draws)).permutation(len(prep.draws))
    permuted = dataclasses.replace(prep, draws=prep.draws[order], outputs=prep.outputs[order])
    (moved,) = permuted.embed()
    assert relative_gap(moved.weights, emb.weights[order]) <= REL
    check_herd(reference, permuted, order)


def test_permuting_the_training_points_keeps_the_weights(reference):
    prep, emb, _ = reference
    ds = prep.dataset
    order = np.random.default_rng(ds.n).permutation(ds.n)
    permuted = dataclasses.replace(
        prep, dataset=Dataset(ds.x[order], ds.y[order], ds.seed, ds.meta),
        beta=ImportanceWeights(np.asarray(prep.beta)[order]), outputs=prep.outputs[:, order],
    )
    (moved,) = permuted.embed()
    assert relative_gap(moved.meta["sigma2"], emb.meta["sigma2"]) <= REL
    assert relative_gap(moved.weights, emb.weights) <= REL
    check_herd(reference, permuted)


def test_translating_outputs_and_observations_keeps_the_weights(reference):
    prep, emb, _ = reference
    ds = prep.dataset
    shifted = dataclasses.replace(prep, dataset=Dataset(ds.x, ds.y + SHIFT, ds.seed, ds.meta),
                                  outputs=prep.outputs + SHIFT)
    (moved,) = shifted.embed()
    assert relative_gap(moved.meta["sigma2"], emb.meta["sigma2"]) <= REL
    assert relative_gap(moved.weights, emb.weights) <= REL
    check_herd(reference, shifted)
