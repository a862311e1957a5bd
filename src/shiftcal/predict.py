"""Push-forward predictions at test inputs and RMSE scoring.

The predictive distribution at x is the empirical distribution of
simulator outputs across the herded parameter samples; its mean is the
point prediction.  RMSE compares predictive means against the noise-free
regression function on a held-out test input set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._seeding import derive_rng, derive_seed
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


def _occurrences(points):
    """Yield each parameter row with its occurrence count so far (1, 2, ...)."""
    seen: dict[bytes, int] = {}
    for theta in points:
        key = theta.tobytes()
        seen[key] = seen.get(key, 0) + 1
        yield theta, seen[key]


def predict(sim: Simulator, x: float, samples, seed: int = 0) -> PredictiveSample:
    """Run the simulator at x once per posterior sample.

    One sweep at x runs sample r on the stream keyed
    ``(seed, "predict", theta_r, k)``, where k counts the occurrences of
    theta_r so far: repeated parameter vectors get fresh realizations,
    while the output multiset stays invariant under sample reordering.
    """
    points = _sample_points(samples)
    outputs = sim.sweep([x], ((seed, "predict"), _occurrences(points), ()))(points)
    return PredictiveSample(x=float(x), outputs=outputs, mean=float(np.mean(outputs)))


def score_predictions(
    truth: TruthFn, test_inputs, sim: Simulator, samples, seed: int = 0
) -> tuple[list[PredictiveSample], np.ndarray, float]:
    """Predictions at every test input plus the RMSE of their means.

    Per-input streams are keyed on the input value, not its position, so
    scores are invariant under permutation of the test inputs.
    """
    test_inputs = np.asarray(test_inputs, dtype=float)
    if test_inputs.size < 1:
        raise ValueError("need at least one test input")
    preds: list[PredictiveSample] = []
    truth_vals = np.empty(test_inputs.size)
    errors = np.empty(test_inputs.size)
    for i, x in enumerate(test_inputs):
        truth_vals[i] = truth(float(x), derive_seed(seed, "truth", float(x)))
        pred = predict(sim, float(x), samples, seed=derive_seed(seed, "pred", float(x)))
        preds.append(pred)
        errors[i] = truth_vals[i] - pred.mean
    return preds, truth_vals, float(np.sqrt(np.mean(errors * errors)))


def rmse(truth: TruthFn, test_inputs, sim: Simulator, samples, seed: int = 0) -> float:
    """Root mean squared error of predictive means against the truth.

    sqrt( (1/n) sum_i ( R(x_i) - mean_j r(x_i, theta_j) )^2 ), with R
    evaluated noise-free at each test input.
    """
    return score_predictions(truth, test_inputs, sim, samples, seed)[2]


def generate_test_inputs(density: DensitySpec, n: int, seed: int) -> np.ndarray:
    """n i.i.d. test input locations from the given density."""
    if n < 1:
        raise ValueError(f"need n >= 1 test inputs, got {n}")
    return density.sample(n, derive_rng(seed, "test-inputs"))
