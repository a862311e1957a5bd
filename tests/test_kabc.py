import json
import math
import re

import numpy as np
import pytest

from shiftcal.kabc import (
    PosteriorEmbedding,
    build_embedding,
    embedding_distance,
    regularization_schedule,
    sample_prior,
    simulate_pseudo_outputs,
)
from shiftcal.kern import DegenerateBandwidthError, ParamKernel
from shiftcal.sim import AssemblyLineSimulator, Dataset, LinearSimulator
from shiftcal.weights import DensitySpec, ImportanceWeights, ordinary_weights


def make_dataset(x, y):
    return Dataset(np.asarray(x, dtype=float), np.asarray(y, dtype=float), seed=0)


def count_solves(monkeypatch, kabc) -> list:
    """Each ``regularized_solve`` call ``build_embedding`` makes from now on."""
    calls, solve = [], kabc.regularized_solve

    def counted(*args):
        calls.append("solve")
        return solve(*args)

    monkeypatch.setattr(kabc, "regularized_solve", counted)
    return calls


def embedding_at(emb, thetas):
    """Oracle: the embedding sum_j w_j k(theta, draws[j]) at each row of ``thetas``."""
    return emb.kernel.cross(thetas, emb.draws) @ emb.weights


class TestPriorSpec:
    def test_uniform_support_containment(self):
        prior = DensitySpec.uniform([0.0, 0.0], [1.0, 1.0])
        draws = sample_prior(prior, 500, seed=0)
        assert draws.shape == (500, 2)
        assert np.all(draws >= 0.0) and np.all(draws <= 1.0)

    def test_degenerate_normal_collapses(self):
        prior = DensitySpec.normal([2.0, -1.0], [0.0, 0.0])
        draws = sample_prior(prior, 10, seed=1)
        assert np.array_equal(draws, np.tile([2.0, -1.0], (10, 1)))

    def test_sample_variance_statistical(self):
        # per-coordinate sample variance of N(0, 5 I) draws within 10% of 5
        prior = DensitySpec.normal([0.0, 0.0], [math.sqrt(5.0)] * 2)
        draws = sample_prior(prior, 10_000, seed=2)
        var = draws.var(axis=0)
        assert np.all(np.abs(var - 5.0) < 0.5)

    def test_reproducible(self):
        prior = DensitySpec.normal([0.0], [1.0])
        assert np.array_equal(sample_prior(prior, 7, seed=3), sample_prior(prior, 7, seed=3))

    def test_log_pdf_uniform(self):
        prior = DensitySpec.uniform([0.0], [2.0])
        assert prior.log_pdf([1.0]) == pytest.approx(math.log(0.5))
        assert prior.log_pdf([3.0]) == -np.inf

    def test_log_pdf_normal_matches_formula(self):
        prior = DensitySpec.normal([1.0, 0.0], [2.0, 0.5])
        theta = np.array([0.0, 1.0])
        expected = sum(
            -0.5 * ((t - mu) / s) ** 2 - math.log(s) - 0.5 * math.log(2 * math.pi)
            for t, mu, s in zip(theta, [1.0, 0.0], [2.0, 0.5])
        )
        assert prior.log_pdf(theta) == pytest.approx(expected, rel=1e-12)

    def test_center_and_box(self):
        uni = DensitySpec.uniform([0.0, 2.0], [4.0, 6.0])
        assert np.array_equal(uni.center(), [2.0, 4.0])
        low, high = DensitySpec.normal([1.0], [2.0]).search_box(n_std=3.0)
        assert low[0] == -5.0 and high[0] == 7.0

    def test_validation(self):
        with pytest.raises(ValueError):
            DensitySpec.uniform([1.0], [0.0])
        with pytest.raises(ValueError):
            DensitySpec.normal([0.0], [-1.0])


class TestSimulatePseudoOutputs:
    def test_zero_parameters_give_zero_outputs(self):
        outputs = simulate_pseudo_outputs(
            LinearSimulator(), np.zeros((1, 2)), np.linspace(-1, 1, 5), seed=0
        )
        assert np.array_equal(outputs, np.zeros((1, 5)))

    def test_single_draw_equals_direct_evaluation(self):
        sim = LinearSimulator()
        xs = np.array([0.0, 1.0, 2.0])
        theta = np.array([1.0, 3.0])
        outputs = simulate_pseudo_outputs(sim, theta[None, :], xs, seed=0)
        assert np.array_equal(outputs[0], sim.sweep(xs)(theta))

    def test_stochastic_batch_reproducible(self):
        sim = AssemblyLineSimulator()
        thetas = np.array([[2.0, 0.5, 5.0, 1.0], [3.0, 0.3, 6.0, 0.5]])
        xs = np.array([10.0, 20.0, 30.0])
        a = simulate_pseudo_outputs(sim, thetas, xs, seed=5)
        b = simulate_pseudo_outputs(sim, thetas, xs, seed=5)
        assert np.array_equal(a, b)
        c = simulate_pseudo_outputs(sim, thetas, xs, seed=6)
        assert not np.array_equal(a, c)

    def test_error_carries_context(self):
        sim = AssemblyLineSimulator()
        with pytest.raises(RuntimeError, match=r"input 1 .* draw 0"):
            simulate_pseudo_outputs(sim, np.array([[2.0, 0.5, 5.0, 1.0]]), [5.0, 0.2], seed=0)

    def test_error_names_failing_draw(self):
        thetas = np.array([[2.0, 0.5, 5.0, 1.0]] * 4)
        thetas[2, 1] = -0.5
        with pytest.raises(RuntimeError, match=r"input 0 .* draw 2 \(theta=\[ ?2\. +-0\.5"):
            simulate_pseudo_outputs(AssemblyLineSimulator(), thetas, [5.0, 8.0], seed=0)

    def test_non_finite_output_rejected(self):
        # 1e308 + 1e308 * 2 overflows: the simulator returns inf without raising
        thetas = np.array([[0.0, 1.0], [1e308, 1e308]])
        with np.errstate(over="ignore"), pytest.raises(
            ValueError, match=r"^pseudo-outputs contain non-finite entries \(row 1\)$"
        ):
            simulate_pseudo_outputs(LinearSimulator(), thetas, [1.0, 2.0], seed=0)


class TestBuildEmbedding:
    @pytest.mark.parametrize(
        "draws,outputs",
        [(np.zeros((3, 2)), np.zeros((4, 5))),   # rows differ
         (np.zeros(3), np.zeros((4, 5))),        # m one-parameter draws, still 3 rows
         (np.zeros((3, 2)), np.zeros(3)),        # outputs are not one row per draw
         (np.zeros((3, 2, 1)), np.zeros((3, 5)))],
    )
    def test_misaligned_inputs_rejected(self, draws, outputs):
        with pytest.raises(ValueError, match=r"^misaligned pseudo-outputs: \("):
            build_embedding(draws, outputs, [np.zeros(5)], ordinary_weights(5), 1.0, 1.0, 0.1)

    @pytest.mark.parametrize("sigma2", [1.0, None])
    def test_zero_draws_rejected_before_any_gram_build(self, monkeypatch, sigma2):
        from shiftcal import kabc

        builds = []
        monkeypatch.setattr(kabc, "_upper_gram", lambda *args: builds.append(args))
        with pytest.raises(ValueError, match=r"^number of prior draws must be >= 1, got 0$"):
            build_embedding(np.empty((0, 2)), np.empty((0, 5)), [np.zeros(5)],
                            ordinary_weights(5), sigma2, sigma2, 0.1)
        assert builds == []

    @pytest.mark.parametrize("sigma2,exponent", [(1e-4, "6250"), (5e-4, "1250")])
    def test_a_dead_data_kernel_fails_before_the_solve(self, monkeypatch, sigma2, exponent):
        # the nearest pseudo-output is 1.25 from the data in squared distance,
        # so every data-kernel value exp(-exponent) underflows to 0, and the
        # solve would return 0 weights; a second, live vector does not help
        from shiftcal import kabc

        draws = np.arange(20.0)
        outputs = np.outer(np.arange(20.0), np.ones(5))
        live, dead = outputs[4] + 0.001, np.full(5, 0.5)
        solves = count_solves(monkeypatch, kabc)
        message = (
            rf"^the data kernel is 0 at every pseudo-output \(exp underflows\): "
            rf"sigma2 = {sigma2!r}, min_j \|\|o_j - y\|\|\^2_beta / \(2 sigma2\) = {exponent}$"
        )
        for observed in ([dead], [live, dead]):
            with pytest.raises(DegenerateBandwidthError, match=message):
                build_embedding(draws, outputs, observed, ordinary_weights(5), sigma2, 1.0, 0.1)
        assert solves == []
        (emb,) = build_embedding(draws, outputs, [live], ordinary_weights(5), sigma2, 1.0, 0.1)
        assert np.any(emb.weights != 0.0)

    @pytest.mark.parametrize("where", ["draws", "outputs"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_inputs_rejected(self, where, bad):
        arrays = {"draws": np.zeros((3, 2)), "outputs": np.zeros((3, 5))}
        arrays[where][1, 0] = bad
        name = {"draws": "prior draws", "outputs": "pseudo-outputs"}[where]
        with pytest.raises(ValueError, match=rf"^{name} contain non-finite entries \(row 1\)$"):
            build_embedding(arrays["draws"], arrays["outputs"], [np.zeros(5)],
                            ordinary_weights(5), 1.0, 1.0, 0.1)

    @pytest.mark.parametrize(
        "change,message",
        [({"observed": []}, "^no observed output vectors$"),
         ({"observed": [np.full(5, np.nan)]}, "^observed outputs contain non-finite entries$"),
         ({"observed": [np.zeros(4)]}, r"^observed outputs must have length 5, got \(4,\)$"),
         ({"epsilon": float("inf")}, "^epsilon must be finite and > 0, got inf$"),
         ({"sigma2": 0.0}, "^sigma2 must be finite and > 0, got 0.0$"),
         ({"sigma2_theta": -1.0}, "^sigma2_theta must be finite and > 0, got -1.0$")],
        ids=["no-observed", "nan-observed", "short-observed", "inf-epsilon", "zero-sigma2",
             "negative-sigma2-theta"],
    )
    def test_bad_arguments_fail_before_the_output_pass(self, monkeypatch, change, message):
        from shiftcal import kern

        rng = np.random.default_rng(2)
        args = {"draws": rng.normal(size=(50, 2)), "outputs": rng.normal(size=(50, 5)),
                "observed": [np.zeros(5)], "beta": ordinary_weights(5), "sigma2": 1.0,
                "sigma2_theta": 1.0, "epsilon": 0.1}
        build_embedding(**args)  # the unchanged arguments run
        products = []
        monkeypatch.setattr(kern, "dsyrk", lambda *a, **k: products.append(a))
        with pytest.raises(ValueError, match=message):
            build_embedding(**{**args, **change})
        assert products == []

    def test_flat_draws_are_one_parameter_draws(self):
        rng = np.random.default_rng(5)
        flat, outputs, y = rng.normal(size=6), rng.normal(size=(6, 4)), rng.normal(size=4)
        beta = ordinary_weights(4)
        (emb,) = build_embedding(flat, outputs, [y], beta, None, None, 0.1)
        (column,) = build_embedding(flat[:, None], outputs, [y], beta, None, None, 0.1)
        assert emb.draws.shape == (6, 1) and emb.meta["m"] == 6
        assert emb.weights.tobytes() == column.weights.tobytes()
        assert emb.kernel == column.kernel

    def test_single_draw_scalar_weight(self):
        dataset = make_dataset([0.0, 1.0], [0.5, 0.5])
        draws = np.array([[0.0, 0.0]])
        outputs = simulate_pseudo_outputs(LinearSimulator(), draws, dataset.x, 0)
        eps = 0.3
        (emb,) = build_embedding(
            draws, outputs, [dataset.y], ordinary_weights(2),
            sigma2=1.0, sigma2_theta=1.0, epsilon=eps,
        )
        k = math.exp(-(0.25 + 0.25) / 2.0)
        assert emb.weights[0] == pytest.approx(k / (1 + eps), rel=1e-12)

    def test_small_sigma_concentrates_on_matching_row(self):
        # observed outputs equal one pseudo-output row; as sigma2 -> 0 the
        # weight mass concentrates on that row
        rng = np.random.default_rng(0)
        thetas = rng.normal(size=(3, 2))
        values = rng.normal(size=(3, 4))
        dataset = make_dataset(np.arange(4), values[1])
        (emb,) = build_embedding(
            thetas, values, [dataset.y], ordinary_weights(4), sigma2=1e-3, sigma2_theta=1.0, epsilon=1e-6
        )
        w = emb.weights
        assert w[1] > 10 * max(abs(w[0]), abs(w[2]))

    def test_benchmark_epsilon_stays_finite(self):
        rng = np.random.default_rng(1)
        thetas = rng.normal(0, math.sqrt(5), size=(30, 2))
        xs = rng.normal(0.5, 0.5, size=20)
        dataset = make_dataset(xs, -xs + xs**3 + rng.normal(0, math.sqrt(2), 20))
        outputs = simulate_pseudo_outputs(LinearSimulator(), thetas, xs, seed=0)
        (emb,) = build_embedding(
            thetas, outputs, [dataset.y], ordinary_weights(20), sigma2=100.0, sigma2_theta=10.0, epsilon=1.0
        )
        assert np.all(np.isfinite(emb.weights))
        assert np.isfinite(embedding_at(emb, [np.zeros(2)])[0])

    def test_weight_mode_reduction(self):
        # ordinary weights and importance weights of identical densities
        # give identical embeddings
        from shiftcal.weights import DensitySpec, importance_weights

        rng = np.random.default_rng(2)
        xs = rng.normal(0.5, 0.5, size=15)
        dataset = make_dataset(xs, -xs + xs**3)
        thetas = rng.normal(0, 1, size=(10, 2))
        outputs = simulate_pseudo_outputs(LinearSimulator(), thetas, xs, seed=0)
        q = DensitySpec.normal(0.5, 0.5)
        (emb_a,) = build_embedding(
            thetas, outputs, [dataset.y], ordinary_weights(15), sigma2=50.0, sigma2_theta=5.0, epsilon=0.5
        )
        (emb_b,) = build_embedding(
            thetas,
            outputs,
            [dataset.y],
            importance_weights(xs, q, q),
            sigma2=50.0,
            sigma2_theta=5.0,
            epsilon=0.5,
        )
        assert np.array_equal(emb_a.weights, emb_b.weights)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        thetas = rng.normal(size=(12, 2))
        values = rng.normal(size=(12, 6))
        dataset = make_dataset(np.arange(6), rng.normal(size=6))
        beta = ordinary_weights(6)
        (emb,) = build_embedding(thetas, values, [dataset.y], beta, 5.0, 2.0, 0.1)
        perm = rng.permutation(12)
        (emb_p,) = build_embedding(thetas[perm], values[perm], [dataset.y], beta, 5.0, 2.0, 0.1)
        assert np.allclose(emb_p.weights, emb.weights[perm], rtol=0, atol=1e-10)
        for theta in rng.normal(size=(5, 2)):
            assert embedding_at(emb_p, [theta])[0] == pytest.approx(
                embedding_at(emb, [theta])[0], abs=1e-10
            )

    def test_observed_vectors_share_one_gram_system(self, monkeypatch):
        # one embedding per vector, each bitwise its own single-vector build;
        # all come from one output pass and one theta pass, and share the
        # theta kernel and the carried theta matrix
        from shiftcal import kern

        rng = np.random.default_rng(4)
        pseudo = rng.normal(size=(20, 2)), rng.normal(size=(20, 5))
        beta = ImportanceWeights(rng.uniform(0.5, 2.0, size=5))
        ys = rng.normal(size=(3, 5))
        singles = [build_embedding(*pseudo, [y], beta, None, None, 0.1) for y in ys]
        assert all(isinstance(one, tuple) and len(one) == 1 for one in singles)
        passes = []
        sweep = kern._sqdist_sweep

        def counted(vectors, weights=None, median=False, out=None):
            passes.append(np.shape(vectors))
            return sweep(vectors, weights, median, out)

        monkeypatch.setattr(kern, "_sqdist_sweep", counted)
        embs = build_embedding(*pseudo, ys, beta, None, None, 0.1, meta={"tag": 1})
        assert passes == [(20, 5), (20, 2)]
        assert isinstance(embs, tuple) and len(embs) == 3
        for emb, (one,) in zip(embs, singles):
            assert emb.weights.tobytes() == one.weights.tobytes()
            assert emb.meta == {**one.meta, "tag": 1} and emb.meta["n"] == 5
            assert emb.kernel is embs[0].kernel and emb.theta_gram is embs[0].theta_gram
            assert emb.kernel == one.kernel
        assert np.array_equal(embs[0].theta_gram, singles[0][0].theta_gram)
        embs[0].meta["tag"] = 2
        assert embs[1].meta["tag"] == 1
        with pytest.raises(ValueError, match="observed outputs must have length 5"):
            build_embedding(*pseudo, [np.zeros(4)], beta, None, None, 0.1)


class TestEmbeddingEval:
    def test_single_atom_maximized_at_center(self):
        atom = np.array([[0.5, -1.0]])
        emb = PosteriorEmbedding(atom, np.array([1.0]), ParamKernel(1.0))
        assert embedding_at(emb, [atom[0]])[0] == 1.0
        assert embedding_at(emb, [[0.0, 0.0]])[0] < 1.0

    def test_zero_draws_rejected(self):
        with pytest.raises(ValueError, match=r"^number of embedding draws must be >= 1, got 0$"):
            PosteriorEmbedding(np.empty((0, 2)), np.empty(0), ParamKernel(1.0))

    def test_one_weight_per_draw(self):
        with pytest.raises(ValueError, match=r"^misaligned embedding: \(3, 2\) vs \(2,\)$"):
            PosteriorEmbedding(np.zeros((3, 2)), np.ones(2), ParamKernel(1.0))

    def test_non_finite_weights_rejected(self):
        with pytest.raises(ValueError, match="^embedding weights contain non-finite entries$"):
            PosteriorEmbedding(np.zeros((3, 2)), [1.0, np.nan, 0.0], ParamKernel(1.0))

    def test_zero_weights_zero_everywhere(self):
        emb = PosteriorEmbedding(np.zeros((3, 1)), np.zeros(3), ParamKernel(1.0))
        for theta in ([0.0], [1.0], [-2.0]):
            assert embedding_at(emb, [theta])[0] == 0.0

    def test_two_atoms_hand_sum(self):
        draws = np.array([[0.0], [2.0]])
        weights = np.array([0.3, -0.4])
        emb = PosteriorEmbedding(draws, weights, ParamKernel(2.0))
        theta = [1.0]
        expected = 0.3 * math.exp(-1 / 4) - 0.4 * math.exp(-1 / 4)
        assert embedding_at(emb, [theta])[0] == pytest.approx(expected, rel=1e-14)

    def test_dimension_mismatch(self):
        emb = PosteriorEmbedding(np.zeros((2, 2)), np.ones(2), ParamKernel(1.0))
        with pytest.raises(ValueError):
            embedding_at(emb, [[0.0]])

    def test_json_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        emb = PosteriorEmbedding(
            rng.normal(size=(5, 3)), rng.normal(size=5), ParamKernel(2.5), meta={"seed": 9}
        )
        path = tmp_path / "embedding.json"
        emb.to_json(path)
        back = PosteriorEmbedding.from_json(path.read_text())
        assert np.array_equal(back.draws, emb.draws)
        assert np.array_equal(back.weights, emb.weights)
        assert back.kernel.sigma2 == emb.kernel.sigma2
        assert back.meta == {"seed": 9}

    def test_one_line_json_text(self):
        # text without a newline is JSON, never mistaken for a file path
        emb = PosteriorEmbedding(np.ones((2, 1)), np.array([0.25, -0.5]), ParamKernel(1.5))
        text = json.dumps(json.loads(emb.to_json()))
        assert "\n" not in text
        back = PosteriorEmbedding.from_json(text)
        assert np.array_equal(back.weights, emb.weights)
        assert back.kernel.sigma2 == 1.5

    @pytest.mark.parametrize("bad", ['"1.5"', "true"])
    def test_json_bandwidth_is_read_as_a_real(self, bad):
        text = '{"draws": [[0.0]], "weights": [1.0], "sigma2_theta": %s}' % bad
        shown = re.escape(repr(json.loads(bad)))
        with pytest.raises(ValueError, match=rf"^sigma2 must be a number, got {shown}$"):
            PosteriorEmbedding.from_json(text)


class TestEmbeddingDistance:
    def test_identical_embeddings(self):
        rng = np.random.default_rng(5)
        emb = PosteriorEmbedding(rng.normal(size=(4, 2)), rng.normal(size=4), ParamKernel(1.0))
        assert embedding_distance(emb, emb) == 0.0

    def test_matches_quadratic_form(self):
        rng = np.random.default_rng(6)
        kern = ParamKernel(1.5)
        draws = rng.normal(size=(6, 2))
        wa, wb = rng.normal(size=6), rng.normal(size=6)
        a = PosteriorEmbedding(draws, wa, kern)
        b = PosteriorEmbedding(draws, wb, kern)
        gram = kern.gram(draws)
        delta = wa - wb
        expected = math.sqrt(delta @ gram @ delta)
        assert embedding_distance(a, b) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("m", [6, 200])
    def test_carried_theta_gram_gives_numpy_bits_without_a_theta_pass(self, monkeypatch, m):
        from dataclasses import replace

        from shiftcal.kern import median_heuristic

        rng = np.random.default_rng(m)
        draws, outputs = rng.normal(size=(m, 2)), rng.normal(size=(m, 5))
        beta = ordinary_weights(5)
        (a,) = build_embedding(draws, outputs, [rng.normal(size=5)], beta, None, None, 0.1)
        (b,) = build_embedding(draws, outputs, [rng.normal(size=5)], beta, None, None, 0.1)
        assert a.kernel.sigma2 == median_heuristic(draws)
        assert np.array_equal(a.theta_gram, a.kernel.gram(draws))
        delta = a.weights - b.weights
        expected = math.sqrt(max(float(delta @ a.kernel.gram(draws) @ delta), 0.0))
        bare = replace(a, theta_gram=None), replace(b, theta_gram=None)
        assert embedding_distance(*bare) == expected
        monkeypatch.setattr(ParamKernel, "gram", None)  # any theta pass fails
        assert embedding_distance(a, b) == expected
        assert embedding_distance(bare[0], b) == expected
        assert repr(a) == repr(bare[0]) and "theta_gram" not in a.to_json()

    def test_dimension_mismatch_rejected_first(self):
        a = PosteriorEmbedding(np.zeros((3, 2)), np.ones(3), ParamKernel(1.0))
        b = PosteriorEmbedding(np.zeros((3, 3)), np.ones(3), ParamKernel(1.0))
        message = r"^embedding dimension 2 does not match embedding dimension 3$"
        for other in (b, PosteriorEmbedding(b.draws, b.weights, ParamKernel(2.0))):
            with pytest.raises(ValueError, match=message):
                embedding_distance(a, other)

    def test_bandwidth_mismatch_rejected(self):
        a = PosteriorEmbedding(np.zeros((1, 1)), np.ones(1), ParamKernel(1.0))
        b = PosteriorEmbedding(np.zeros((1, 1)), np.ones(1), ParamKernel(2.0))
        with pytest.raises(ValueError):
            embedding_distance(a, b)


class TestRegularizationSchedule:
    def test_m_one_returns_constant(self):
        assert regularization_schedule(1, b=2.0, C=0.7) == 0.7

    def test_desk_value(self):
        # direct arithmetic oracle: 512 ** (-2/9) = 2 ** (-2) = 0.25 exactly
        assert regularization_schedule(512, b=2.0, C=1.0) == pytest.approx(0.25, rel=1e-14)

    def test_large_b_limit_is_quarter_power(self):
        # exponent tends to -1/4 as b grows
        value = regularization_schedule(16, b=1e9, C=1.0)
        assert value == pytest.approx(16 ** (-0.25), rel=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            regularization_schedule(0, b=2.0, C=1.0)
        with pytest.raises(ValueError):
            regularization_schedule(10, b=1.0, C=1.0)
        with pytest.raises(ValueError):
            regularization_schedule(10, b=2.0, C=0.0)
