import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from shiftcal.herd import CandidatePool, herd
from shiftcal.kabc import PosteriorEmbedding
from shiftcal.kern import ParamKernel
from shiftcal.predict import generate_test_inputs, predict, score_predictions
from shiftcal.sim import AssemblyLineSimulator, LinearSimulator, SimulatorError, cubic_truth
from shiftcal.weights import DensitySpec


def herded(points):
    points = np.asarray(points, dtype=float)
    emb = PosteriorEmbedding(points, np.ones(len(points)), ParamKernel(1.0))
    return herd(emb, CandidatePool(points), len(points))


class TestPredict:
    def test_identical_samples_identical_outputs(self):
        sim = LinearSimulator()
        samples = np.array([[1.0, 2.0]] * 4)
        pred = predict(sim, 3.0, samples)
        assert np.array_equal(pred, [7.0] * 4)
        assert pred.mean() == 7.0

    def test_linear_two_samples_mean(self):
        pred = predict(LinearSimulator(), 1.0, np.array([[0.0, 1.0], [0.0, 3.0]]))
        assert sorted(pred) == [1.0, 3.0]
        assert pred.mean() == 2.0

    def test_deterministic_repeat(self):
        sim = AssemblyLineSimulator()
        samples = np.array([[2.0, 0.5, 5.0, 1.0], [3.0, 0.2, 6.0, 0.5]])
        a = predict(sim, 25.0, samples, seed=7)
        b = predict(sim, 25.0, samples, seed=7)
        assert np.array_equal(a, b)

    def test_repeated_parameters_fresh_draws(self):
        # stochastic simulator: a repeated sample vector must get an
        # independent realization, not a copy
        sim = AssemblyLineSimulator()
        samples = np.array([[2.0, 0.5, 5.0, 1.0]] * 2)
        pred = predict(sim, 50.0, samples, seed=3)
        assert pred[0] != pred[1]

    def test_sample_order_invariance_stochastic(self):
        sim = AssemblyLineSimulator()
        rng = np.random.default_rng(0)
        samples = rng.uniform([1, 0.1, 1, 0.1], [4, 1, 8, 1], size=(6, 4))
        fwd = predict(sim, 40.0, samples, seed=11)
        rev = predict(sim, 40.0, samples[::-1], seed=11)
        assert sorted(fwd) == sorted(rev)
        assert fwd.mean() == pytest.approx(rev.mean(), rel=1e-12)

    def test_accepts_herded_samples(self):
        # the scorer takes the herded points, a (T, d) array
        out = herded([[0.0, 1.0], [1.0, 1.0]])
        pred = predict(LinearSimulator(), 2.0, out.points)
        assert pred.shape == (2,)

    @pytest.mark.parametrize("samples", [np.zeros((0, 2)), np.zeros(0)])
    def test_rejects_zero_samples(self, samples):
        with pytest.raises(ValueError, match="at least one posterior sample"):
            predict(LinearSimulator(), 1.0, samples)


def rmse(*args, **kwargs) -> float:
    return score_predictions(*args, **kwargs)[2]


class TestRmse:
    def test_zero_when_predictions_exact(self):
        # simulator with every herded parameter reproducing the truth
        samples = np.array([[0.0, 2.0]] * 3)
        truth = lambda x, seed=0: 2.0 * x
        xs = np.linspace(-3, 3, 9)
        assert rmse(truth, xs, LinearSimulator(), samples) == 0.0

    def test_constant_offset(self):
        samples = np.array([[1.5, 2.0]])
        truth = lambda x, seed=0: 2.0 * x
        xs = np.linspace(-3, 3, 9)
        assert rmse(truth, xs, LinearSimulator(), samples) == pytest.approx(1.5, rel=1e-12)

    def test_hand_arithmetic_two_points(self):
        # errors 3 and 4 -> sqrt((9 + 16) / 2) = sqrt(12.5)
        samples = np.array([[0.0, 0.0]])  # predicts 0 everywhere
        truth = lambda xs, keys: np.array([{1.0: 3.0, 2.0: 4.0}[x] for x in xs])
        value = rmse(truth, [1.0, 2.0], LinearSimulator(), samples)
        assert value == pytest.approx(math.sqrt(12.5), rel=1e-12)

    def test_invariant_under_permutations(self):
        rng = np.random.default_rng(1)
        samples = rng.normal(size=(5, 2))
        xs = rng.normal(size=8)
        base = rmse(cubic_truth, xs, LinearSimulator(), samples)
        assert rmse(cubic_truth, xs[::-1], LinearSimulator(), samples) == pytest.approx(
            base, rel=1e-12
        )
        assert rmse(cubic_truth, xs, LinearSimulator(), samples[::-1]) == pytest.approx(
            base, rel=1e-12
        )

    def test_permutation_invariance_stochastic(self):
        sim = AssemblyLineSimulator()
        rng = np.random.default_rng(2)
        samples = rng.uniform([1, 0.1, 1, 0.1], [4, 1, 8, 1], size=(4, 4))
        xs = np.array([20.0, 35.0, 50.0])
        truth = lambda x, seed=0: 2.5 * x
        base = rmse(truth, xs, sim, samples, seed=5)
        assert rmse(truth, xs[::-1], sim, samples, seed=5) == pytest.approx(base, rel=1e-12)
        assert rmse(truth, xs, sim, samples[::-1], seed=5) == pytest.approx(base, rel=1e-12)

    def test_score_predictions_consistent_with_rmse(self):
        rng = np.random.default_rng(3)
        samples = rng.normal(size=(4, 2))
        xs = rng.normal(size=6)
        preds, truth_vals, value = score_predictions(
            cubic_truth, xs, LinearSimulator(), samples, seed=1
        )
        assert preds.shape == (xs.size, len(samples))
        for x, row in zip(xs, preds):
            assert np.array_equal(row, predict(LinearSimulator(), x, samples, seed=1))
        errors = truth_vals - np.array([np.mean(row) for row in preds])
        assert value == pytest.approx(float(np.sqrt(np.mean(errors**2))), rel=1e-15)
        assert value == rmse(cubic_truth, xs, LinearSimulator(), samples, seed=1)

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError, match="at least one posterior sample"):
            score_predictions(cubic_truth, [1.0, 2.0], LinearSimulator(), np.zeros((0, 2)))

    def test_needs_inputs(self):
        with pytest.raises(ValueError):
            rmse(cubic_truth, [], LinearSimulator(), np.zeros((1, 2)))

    def test_test_inputs_are_a_finite_vector(self):
        samples = [[1.0, 2.0]]
        message = r"^test inputs must be a 1-d vector, got shape \(2, 1\)$"
        with pytest.raises(ValueError, match=message):
            score_predictions(cubic_truth, [[1.0], [2.0]], LinearSimulator(), samples)
        # the error names the input's position, not row 0 of a one-input sweep
        for inputs, row in (([np.nan], 0), ([0.5, np.inf], 1), ([0.5, 1.0, np.inf], 2)):
            message = rf"^linear inputs must be finite, got x=\S+ \(row {row}\)$"
            with pytest.raises(SimulatorError, match=message) as err:
                score_predictions(cubic_truth, inputs, LinearSimulator(), samples)
            assert err.value.row == row
        message = r"^product count must be >= 1, got x=0.5 \(row 1\)$"
        with pytest.raises(SimulatorError, match=message):
            score_predictions(cubic_truth, [3.0, 0.5], AssemblyLineSimulator(), [[1.0] * 4])


class TestGenerateTestInputs:
    def test_degenerate_uniform_constant(self):
        xs = generate_test_inputs(DensitySpec.uniform(2.0, 2.0 + 1e-12), 5, seed=0)
        assert np.allclose(xs, 2.0, atol=1e-9)

    def test_same_seed_identical(self):
        spec = DensitySpec.normal(120.0, 10.0)
        assert np.array_equal(
            generate_test_inputs(spec, 50, seed=4), generate_test_inputs(spec, 50, seed=4)
        )

    def test_mean_statistical_bound(self):
        # standard-error bound: 1000 draws from N(120, 10), mean within
        # 3 * 10/sqrt(1000) of 120
        xs = generate_test_inputs(DensitySpec.normal(120.0, 10.0), 1000, seed=5)
        assert abs(xs.mean() - 120.0) < 3 * 10 / math.sqrt(1000)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            generate_test_inputs(DensitySpec.normal(0, 1), 0, seed=0)


# -- permutation invariance of the prediction streams -------------------------


@st.composite
def prediction_cases(draw):
    """A simulator, test inputs, herded samples with repeats, and two permutations."""
    if draw(st.booleans()):
        sim, elements, xs = LinearSimulator(), st.floats(-3.0, 3.0), st.floats(-2.0, 2.0)
    else:
        sim, elements, xs = AssemblyLineSimulator(), st.floats(0.0, 5.0), st.floats(1.0, 60.0)
    distinct = draw(arrays(float, (draw(st.integers(1, 4)), sim.dim_theta), elements=elements))
    picks = draw(st.lists(st.integers(0, 3), min_size=1, max_size=8))
    samples = distinct[[p % len(distinct) for p in picks]]
    test_inputs = np.array(draw(st.lists(xs, min_size=1, max_size=5)))
    input_order = draw(st.permutations(range(test_inputs.size)))
    sample_order = draw(st.permutations(range(len(samples))))
    return sim, test_inputs, samples, list(input_order), list(sample_order)


class TestPermutationProperties:
    @given(prediction_cases(), st.integers(0, 2**32 - 1))
    def test_rmse_and_output_multisets_invariant(self, case, seed):
        sim, xs, samples, input_order, sample_order = case
        truth = lambda x, seed=0: 2.5 * x + seed % 1000 / 1000  # reads its stream seed
        base, _, base_rmse = score_predictions(truth, xs, sim, samples, seed)
        for test_inputs, points in ((xs[input_order], samples), (xs, samples[sample_order])):
            preds, _, value = score_predictions(truth, test_inputs, sim, points, seed)
            assert value == pytest.approx(base_rmse, rel=1e-12, abs=1e-12)
            by_input = {x: sorted(row) for x, row in zip(xs, base)}
            for x, row in zip(test_inputs, preds):
                assert sorted(row) == by_input[x]
