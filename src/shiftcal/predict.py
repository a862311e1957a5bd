"""Push-forward predictions at test inputs and RMSE scoring.

The predictive distribution at x is the empirical distribution of
simulator outputs across the herded parameter samples; its mean is the
point prediction.  RMSE compares predictive means against the noise-free
regression function on a held-out test input set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._seeding import derive_rng, derive_seed, stream_keys
from .herd import HerdedSamples
from .sim import Simulator, TruthFn
from .weights import DensitySpec


@dataclass(frozen=True)
class PredictiveSample:
    """Simulator outputs at one test input, one per posterior sample."""

    x: float
    outputs: np.ndarray
    mean: float

    def __post_init__(self):
        outputs = np.asarray(self.outputs, dtype=float)
        object.__setattr__(self, "outputs", outputs)
        if outputs.ndim != 1 or outputs.size == 0:
            raise ValueError("predictive outputs must be a non-empty vector")


def _sample_points(samples) -> np.ndarray:
    if isinstance(samples, HerdedSamples):
        return samples.points
    points = np.asarray(samples, dtype=float)
    return points[:, None] if points.ndim == 1 else points


def _occurrences(points) -> list[int]:
    """Each parameter row's occurrence count so far (1, 2, ...)."""
    seen: dict[bytes, int] = {}
    counts = []
    for row in map(np.ndarray.tobytes, points):
        seen[row] = seen.get(row, 0) + 1
        counts.append(seen[row])
    return counts


def predict(sim: Simulator, x: float, samples, seed: int = 0) -> PredictiveSample:
    """Run the simulator at x once per posterior sample (streams as in ``_predict_at``)."""
    return _predict_at(sim, [x], samples, seed)[0]


def _predict_at(sim: Simulator, xs, samples, seed: int) -> list[PredictiveSample]:
    """One sweep per input; each sweep runs sample r on the key
    ``stream_keys(derive_seed(seed, "predict"), *theta_r, k)``, built once.

    k counts the occurrences of theta_r so far: repeated parameter vectors
    get fresh realizations, while the output multiset stays invariant under
    sample reordering.  The simulator absorbs x into each key, so inputs
    draw independent streams and a prediction does not depend on which
    other inputs share the call.
    """
    points = _sample_points(samples)
    keys = stream_keys(derive_seed(seed, "predict"), *points.T, _occurrences(points))
    preds = []
    for x in xs:
        outputs = sim.sweep([x], keys)(points)
        preds.append(PredictiveSample(x=float(x), outputs=outputs, mean=float(np.mean(outputs))))
    return preds


def score_predictions(
    truth: TruthFn, test_inputs, sim: Simulator, samples, seed: int = 0
) -> tuple[list[PredictiveSample], np.ndarray, float]:
    """Predictions at every test input plus the RMSE of their means.

    Streams are keyed on the input value, not its position, so scores are
    invariant under permutation of the test inputs.
    """
    test_inputs = np.asarray(test_inputs, dtype=float)
    if test_inputs.size < 1:
        raise ValueError("need at least one test input")
    preds = _predict_at(sim, test_inputs, samples, seed)
    keys = np.array([derive_seed(seed, "truth", float(x)) for x in test_inputs], dtype=np.uint64)
    truth_vals = truth(test_inputs, keys)
    errors = truth_vals - np.array([pred.mean for pred in preds])
    return preds, truth_vals, float(np.sqrt(np.mean(errors * errors)))


def generate_test_inputs(density: DensitySpec, n: int, seed: int) -> np.ndarray:
    """n i.i.d. test input locations from the given density."""
    if n < 1:
        raise ValueError(f"need n >= 1 test inputs, got {n}")
    return density.sample(n, derive_rng(seed, "test-inputs"))[:, 0]
