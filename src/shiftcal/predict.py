"""Push-forward predictions at test inputs and RMSE scoring.

The predictive distribution at x is the empirical distribution of
simulator outputs across the posterior samples, a (T, d) array (the
herded points or the MH states); its mean is the point prediction.
Predictions at several inputs are one array shaped (inputs, samples):
row i holds the outputs at input i, and ``mean(axis=1)`` gives the point
predictions.  RMSE compares those means with the truth on a held-out
test input set: the linear benchmark's cubic ignores its keys, and the
assembly truth is a simulator realization keyed
``derive_seed(seed, "truth", x)`` by the scoring seed.
"""

from __future__ import annotations

import numpy as np

from ._seeding import SEED_RANGE, derive_rng, derive_seed, stream_keys
from .sim import Simulator, TruthFn
from .weights import DensitySpec, count_entry, point_rows


def _occurrences(points) -> list[int]:
    """Each parameter row's occurrence count so far (1, 2, ...)."""
    seen: dict[bytes, int] = {}
    counts = []
    for row in map(np.ndarray.tobytes, points):
        seen[row] = seen.get(row, 0) + 1
        counts.append(seen[row])
    return counts


def predict(sim: Simulator, x: float, samples, seed: int = 0) -> np.ndarray:
    """Simulator outputs at x, one per posterior sample (streams as in ``_predict_at``)."""
    return _predict_at(sim, [x], samples, count_entry("seed", seed, *SEED_RANGE))[0]


def _predict_at(sim: Simulator, xs, samples, seed: int) -> np.ndarray:
    """Outputs shaped (inputs, samples), from one sweep per input; each
    sweep runs sample r on the key
    ``stream_keys(derive_seed(seed, "predict"), *theta_r, k)``, built once.

    k counts the occurrences of theta_r so far: repeated parameter vectors
    get fresh realizations, while the output multiset stays invariant under
    sample reordering.  The simulator absorbs x into each key, so inputs
    draw independent streams and a prediction does not depend on which
    other inputs share the call.
    """
    points = point_rows(samples, "posterior samples")
    if len(points) == 0:
        raise ValueError("predictions need at least one posterior sample")
    keys = stream_keys(derive_seed(seed, "predict"), *points.T, _occurrences(points))
    return np.array([sim.sweep([x], keys)(points) for x in xs], dtype=float)


def score_predictions(
    truth: TruthFn, test_inputs, sim: Simulator, samples, seed: int = 0
) -> tuple[np.ndarray, np.ndarray, float]:
    """Predictions (inputs, samples), truth values and the RMSE of the row means.

    Streams are keyed on the input value, not its position, so scores are
    invariant under permutation of the test inputs.
    """
    test_inputs = np.asarray(test_inputs, dtype=float)
    if test_inputs.ndim != 1:
        raise ValueError(f"test inputs must be a 1-d vector, got shape {test_inputs.shape}")
    if test_inputs.size < 1:
        raise ValueError("need at least one test input")
    seed = count_entry("seed", seed, *SEED_RANGE)
    preds = _predict_at(sim, test_inputs, samples, seed)
    keys = np.array([derive_seed(seed, "truth", float(x)) for x in test_inputs], dtype=np.uint64)
    truth_vals = truth(test_inputs, keys)
    errors = truth_vals - preds.mean(axis=1)
    return preds, truth_vals, float(np.sqrt(np.mean(errors * errors)))


def generate_test_inputs(density: DensitySpec, n: int, seed: int) -> np.ndarray:
    """n i.i.d. test input locations from the given density."""
    n, seed = count_entry("n", n, 1), count_entry("seed", seed, *SEED_RANGE)
    return density.sample(n, derive_rng(seed, "test-inputs"))[:, 0]
