import math

import numpy as np
import pytest

from shiftcal.baseline import (
    MHConfig,
    MHTrace,
    mh_sample,
    weighted_log_likelihood,
)
from shiftcal._seeding import derive_seed
from shiftcal.sim import AssemblyLineSimulator, Dataset, LinearSimulator
from shiftcal.weights import DensitySpec, ordinary_weights


def make_dataset(x, y):
    return Dataset(np.asarray(x, dtype=float), np.asarray(y, dtype=float), seed=0)


class TestWeightedLogLikelihood:
    def test_perfect_fit_is_zero(self):
        xs = np.linspace(-1, 2, 6)
        theta = np.array([0.5, -1.0])
        dataset = make_dataset(xs, 0.5 - xs)
        value = weighted_log_likelihood(
            theta, dataset, ordinary_weights(6), LinearSimulator(), noise_var=2.0
        )
        assert value == 0.0

    def test_single_residual_direct_substitution(self):
        # one point, residual 1, beta 1, noise variance 0.5 -> -1
        dataset = make_dataset([0.0], [1.0])
        value = weighted_log_likelihood(
            np.zeros(2), dataset, ordinary_weights(1), LinearSimulator(), noise_var=0.5
        )
        assert value == -1.0

    def test_linear_in_weights(self):
        rng = np.random.default_rng(0)
        xs = rng.normal(size=8)
        dataset = make_dataset(xs, rng.normal(size=8))
        theta = np.array([0.3, 0.7])
        from shiftcal.weights import ImportanceWeights

        beta = ImportanceWeights(rng.uniform(0.5, 2.0, 8))
        single = weighted_log_likelihood(
            theta, dataset, beta, LinearSimulator(), noise_var=1.0
        )
        double = weighted_log_likelihood(
            theta,
            dataset,
            ImportanceWeights(2 * np.asarray(beta)),
            LinearSimulator(),
            noise_var=1.0,
        )
        assert double == pytest.approx(2 * single, rel=1e-12)

    def test_assembly_sweep_matches_per_input_evaluation(self):
        # one stream per input from derive_seed(seed, "loglik"), whichever
        # way the sweep draws it, and the same formula bit for bit
        rng = np.random.default_rng(1)
        xs = rng.integers(1, 40, size=9).astype(float)
        dataset = make_dataset(xs, 6.0 * xs + rng.normal(size=9))
        beta = rng.uniform(0.5, 2.0, 9)
        sim, theta, seed = AssemblyLineSimulator(), np.array([2.0, 0.5, 5.0, 1.0]), 11
        outputs = np.array([sim.sweep([x], derive_seed(seed, "loglik"))(theta)[0] for x in xs])
        residuals = dataset.y - outputs
        expected = float(-np.sum(beta * residuals * residuals) / (2.0 * 3.0))
        assert weighted_log_likelihood(theta, dataset, beta, sim, 3.0, seed) == expected

    def test_noise_var_validated(self):
        dataset = make_dataset([0.0], [0.0])
        with pytest.raises(ValueError):
            weighted_log_likelihood(
                np.zeros(2), dataset, ordinary_weights(1), LinearSimulator(), noise_var=0.0
            )


class TestMHTrace:
    def test_one_acceptance_flag_per_state(self):
        with pytest.raises(ValueError, match="^misaligned trace fields$"):
            MHTrace(states=np.zeros((3, 1)), accepted=np.zeros(2, dtype=bool), burn_in_steps=0)

    @pytest.mark.parametrize("burn_in, rule", [
        (-1, r"in \[0, 4\), got -1"), (4, r"in \[0, 4\), got 4"),
        (1.5, "an integer, got 1.5"), (True, "an integer, got True"),
        (np.True_, r"an integer, got np\.True_"),
    ])
    def test_burn_in_is_a_count_within_the_chain(self, burn_in, rule):
        with pytest.raises(ValueError, match=f"^burn-in steps must be {rule}$"):
            MHTrace(states=np.zeros((3, 1)), accepted=np.zeros(3, dtype=bool),
                    burn_in_steps=burn_in)

    def test_an_integral_burn_in_is_its_int(self):
        trace = MHTrace(states=np.zeros((3, 1)), accepted=np.zeros(3, dtype=bool),
                        burn_in_steps=np.float64(3.0))
        assert type(trace.burn_in_steps) is int and trace.post_burn_in.shape == (0, 1)


class TestMHSample:
    def test_tiny_proposal_accepts_almost_everything(self):
        target = lambda th: -0.5 * float(th @ th)
        cfg = MHConfig(proposal_std=1e-9, steps=500, noise_var=1.0, seed=0)
        trace = mh_sample(target, np.zeros(1), cfg)
        assert trace.acceptance_ratio > 0.999

    def test_flat_target_inside_box_accepts_all(self):
        prior = DensitySpec.uniform([-100.0], [100.0])
        target = lambda th: prior.log_pdf(th)
        cfg = MHConfig(proposal_std=0.5, steps=400, noise_var=1.0, seed=1)
        trace = mh_sample(target, np.zeros(1), cfg)
        assert trace.acceptance_ratio == 1.0

    def test_standard_normal_moments(self):
        # known-target oracle: N(0,1), long chain
        target = lambda th: -0.5 * float(th @ th)
        cfg = MHConfig(proposal_std=2.4, steps=100_000, noise_var=1.0, seed=2)
        trace = mh_sample(target, np.zeros(1), cfg)
        samples = trace.post_burn_in[:, 0]
        assert abs(samples.mean()) < 0.05
        assert abs(samples.var() - 1.0) < 0.1

    def test_out_of_support_proposals_rejected(self):
        prior = DensitySpec.uniform([0.0], [1.0])
        target = lambda th: prior.log_pdf(th)
        cfg = MHConfig(proposal_std=5.0, steps=300, noise_var=1.0, seed=3)
        trace = mh_sample(target, np.array([0.5]), cfg)
        assert np.all(trace.states >= 0.0) and np.all(trace.states <= 1.0)
        assert trace.acceptance_ratio < 1.0

    def test_reproducible_decisions(self):
        target = lambda th: -0.5 * float(th @ th)
        cfg = MHConfig(proposal_std=1.0, steps=200, noise_var=1.0, seed=4)
        a = mh_sample(target, np.zeros(2), cfg)
        b = mh_sample(target, np.zeros(2), cfg)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.accepted, b.accepted)

    def test_burn_in_split(self):
        target = lambda th: 0.0
        cfg = MHConfig(proposal_std=1.0, steps=100, burn_in=0.1, noise_var=1.0, seed=5)
        trace = mh_sample(target, np.zeros(1), cfg)
        assert trace.burn_in_steps == 10
        assert trace.post_burn_in.shape == (90, 1)
        assert trace.steps == 100

    def test_non_finite_init_rejected(self):
        prior = DensitySpec.uniform([0.0], [1.0])
        cfg = MHConfig(proposal_std=1.0, steps=10, noise_var=1.0, seed=6)
        with pytest.raises(ValueError):
            mh_sample(lambda th: prior.log_pdf(th), np.array([2.0]), cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MHConfig(proposal_std=0.0, steps=10, noise_var=1.0)
        with pytest.raises(ValueError):
            MHConfig(proposal_std=1.0, steps=10, burn_in=1.0, noise_var=1.0)
        with pytest.raises(ValueError):
            MHConfig(proposal_std=1.0, steps=0, noise_var=1.0)

    @pytest.mark.parametrize("steps", [2.5, True, "10", float("nan")])
    def test_steps_must_be_an_integer(self, steps):
        # read by the config's count rule, so a bad count fails here, not in mh_sample
        with pytest.raises(ValueError, match=f"^steps must be an integer, got {steps!r}$"):
            MHConfig(proposal_std=0.1, steps=steps)

    def test_integral_float_steps_are_read_as_an_int(self):
        cfg = MHConfig(proposal_std=0.1, steps=10.0)
        assert cfg.steps == 10 and type(cfg.steps) is int

    @pytest.mark.parametrize("seed", [2.5, True, "x", 2**127])
    def test_seed_is_read_by_the_seed_rule(self, seed):
        # the config's rule: an integer that 16 signed bytes hold
        with pytest.raises(ValueError, match="^seed must be"):
            MHConfig(proposal_std=0.1, steps=5, seed=seed)

    @pytest.mark.parametrize("seed", [7, derive_seed(0, "mh")])
    def test_numpy_and_derived_seeds_keep_their_chain(self, seed):
        target = lambda th: -0.5 * float(th @ th)
        traces = []
        for given in (seed, np.int64(seed) if seed < 2**63 else np.uint64(seed)):
            cfg = MHConfig(proposal_std=0.8, steps=25, seed=given)
            assert cfg.seed == seed and type(cfg.seed) is int
            traces.append(mh_sample(target, np.zeros(2), cfg).states.tobytes())
        assert traces[0] == traces[1]


class TestSimulationBudget:
    def test_budget_is_total_steps(self):
        target = lambda th: 0.0
        trace = mh_sample(
            target, np.zeros(1), MHConfig(proposal_std=1.0, steps=100, noise_var=1.0, seed=7)
        )
        assert trace.steps == 100

    def test_concatenated_chains_add(self):
        target = lambda th: 0.0
        traces = [
            mh_sample(
                target,
                np.zeros(1),
                MHConfig(proposal_std=1.0, steps=s, noise_var=1.0, seed=s),
            )
            for s in (40, 60)
        ]
        assert sum(t.steps for t in traces) == 100


class TestTraceCsv:
    def test_round_trip_shape(self, tmp_path):
        target = lambda th: -0.5 * float(th @ th)
        trace = mh_sample(
            target, np.zeros(2), MHConfig(proposal_std=0.8, steps=25, noise_var=1.0, seed=8)
        )
        path = tmp_path / "trace.csv"
        trace.write_csv(path, config_hash="xyz")
        lines = path.read_text().splitlines()
        assert lines[0] == "# config_hash=xyz"
        assert lines[1] == "step,theta_0,theta_1,accepted"
        assert len(lines) == 27


class TestWlsAgreement:
    def test_posterior_mean_near_weighted_least_squares(self):
        # long chain on the misspecified linear benchmark: the posterior
        # mean must land within 3 posterior standard deviations of the
        # closed-form weighted least-squares solution
        from shiftcal.weights import DensitySpec, importance_weights

        rng = np.random.default_rng(9)
        n = 100
        xs = rng.normal(0.5, 0.5, n)
        ys = -xs + xs**3 + rng.normal(0, math.sqrt(2.0), n)
        dataset = make_dataset(xs, ys)
        beta = importance_weights(xs, DensitySpec.normal(0.5, 0.5), DensitySpec.normal(0.0, 0.3))
        prior = DensitySpec.normal([0.0, 0.0], [math.sqrt(5.0)] * 2)
        sim = LinearSimulator()
        noise_var = 2.0

        def target(theta):
            lp = prior.log_pdf(theta)
            if not np.isfinite(lp):
                return -np.inf
            return weighted_log_likelihood(theta, dataset, beta, sim, noise_var) + lp

        cfg = MHConfig(proposal_std=0.3, steps=50_000, noise_var=noise_var, seed=10)
        trace = mh_sample(target, prior.center(), cfg)

        design = np.stack([np.ones(n), xs], axis=1)
        bmat = np.diag(np.asarray(beta))
        wls = np.linalg.solve(design.T @ bmat @ design, design.T @ bmat @ ys)
        # exact Gaussian posterior covariance (weighted likelihood + prior)
        precision = design.T @ bmat @ design / noise_var + np.eye(2) / 5.0
        post_std = np.sqrt(np.diag(np.linalg.inv(precision)))
        sample_mean = trace.post_burn_in.mean(axis=0)
        assert np.all(np.abs(sample_mean - wls) < 3 * post_std)
