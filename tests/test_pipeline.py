import ast
import json
import logging
import math
import re

import numpy as np
import pytest

from shiftcal._seeding import derive_rng, derive_seed
from shiftcal.baseline import mh_sample, weighted_residual_sum
from shiftcal.config import ExperimentConfig, preset
from shiftcal.herd import CandidatePool
from shiftcal.kabc import build_embedding, embedding_distance
from shiftcal import pipeline
from shiftcal.pipeline import (
    StageError,
    calibrate,
    emit_plot_data,
    mh_acceptance_sweep,
    minimize_weighted_sse,
    prepare,
    resolve_weights,
    rmse_curve,
    run_calibration,
    run_mh_baseline,
    theorem1_check,
)
from shiftcal.predict import generate_test_inputs, score_predictions
from shiftcal.sim import Dataset, generate_dataset


def tiny_linear(**overrides) -> ExperimentConfig:
    return preset("linear-shift", **{"n": 24, "m": 16, "herd_size": 16, "n_test": 24, **overrides})


def csv_table(path) -> np.ndarray:
    """The numeric rows of a CSV artifact, below its hash stamp and header."""
    _, _, *rows = path.read_text().splitlines()
    return np.array([[float(v) for v in row.split(",")] for row in rows])


def reference_mh_baseline(cfg: ExperimentConfig, steps: int):
    """``run_mh_baseline`` whose target builds a fresh sweep and writes out the
    weighted likelihood on every step, so every step draws the sweep's noise
    afresh.  Returns (trace, rmse)."""
    mh_cfg = cfg.mh_config(steps=steps, seed=derive_seed(cfg.seed, "mh"))
    sim, prior = cfg.build_simulator(), cfg.build_prior()
    dataset = generate_dataset(cfg.build_dgp(), cfg.n, derive_seed(cfg.seed, "dataset"))
    beta = resolve_weights(cfg, dataset)
    loglik_seed = derive_seed(derive_seed(cfg.seed, "mh-eval"), "loglik")

    def target(theta):
        log_prior = prior.log_pdf(theta)
        if not np.isfinite(log_prior):
            return -np.inf
        residuals = dataset.y - sim.sweep(dataset.x, loglik_seed)(theta)
        sse = float(np.sum(np.asarray(beta) * residuals * residuals))
        return -sse / (2.0 * mh_cfg.noise_var) + log_prior

    trace = mh_sample(target, prior.center(), mh_cfg)
    test_inputs = generate_test_inputs(cfg.test_density(), cfg.n_test, derive_seed(cfg.seed, "test"))
    _, _, rmse_value = score_predictions(
        cfg.build_truth(), test_inputs, sim, trace.post_burn_in, seed=derive_seed(cfg.seed, "eval")
    )
    return trace, rmse_value


class TestRunCalibration:
    def test_artifacts_written_and_stamped(self, tmp_path):
        cfg = tiny_linear(out_dir=str(tmp_path / "run"))
        result = run_calibration(cfg)
        out = tmp_path / "run"
        for name in (
            "config.json",
            "dataset.csv",
            "dataset.json",
            "weights.csv",
            "embedding.json",
            "herded.csv",
            "predictions.csv",
            "report.json",
        ):
            assert (out / name).exists(), name
        config_hash = cfg.config_hash()
        assert json.loads((out / "report.json").read_text())["config_hash"] == config_hash
        assert json.loads((out / "dataset.json").read_text())["config_hash"] == config_hash
        assert config_hash in (out / "dataset.csv").read_text().splitlines()[0]
        assert config_hash in (out / "weights.csv").read_text().splitlines()[0]
        assert config_hash in (out / "herded.csv").read_text().splitlines()[0]
        assert config_hash in (out / "predictions.csv").read_text().splitlines()[0]
        assert json.loads((out / "embedding.json").read_text())["meta"]["config_hash"] == config_hash
        assert result.rmse >= 0.0
        report = json.loads((out / "report.json").read_text())
        assert "timings" not in report and "wall_clock" not in report
        assert report["rmse"] == result.rmse and report["seed"] == cfg.seed
        assert report["stats"]["epsilon"] == result.epsilon
        assert result.wall_clock and result.predictions.shape == (cfg.n_test, cfg.herd_size)
        table = csv_table(out / "predictions.csv")
        assert table[:, 0].tobytes() == result.test_inputs.tobytes()
        assert table[:, 1:-1].tobytes() == result.predictions.tobytes()
        assert table[:, -1].tobytes() == np.array([np.mean(row) for row in table[:, 1:-1]]).tobytes()

    def test_rerun_overwrites_identically(self, tmp_path):
        cfg = tiny_linear(out_dir=str(tmp_path / "run"))
        run_calibration(cfg)
        first = {
            p.name: p.read_bytes() for p in (tmp_path / "run").iterdir() if p.is_file()
        }
        run_calibration(cfg)
        second = {
            p.name: p.read_bytes() for p in (tmp_path / "run").iterdir() if p.is_file()
        }
        assert first == second

    def test_csv_round_trip_reproduces_rmse(self, tmp_path):
        cfg = tiny_linear(out_dir=str(tmp_path / "run"))
        result = run_calibration(cfg)
        path = tmp_path / "run" / "dataset.csv"
        stamp, header, *rows = path.read_text().splitlines()
        assert stamp == f"# config_hash={cfg.config_hash()}" and header == "x,y"
        x, y = np.array([[float(v) for v in row.split(",")] for row in rows]).T
        side = json.loads(path.with_suffix(".json").read_text())
        dataset = Dataset(x, y, seed=side["seed"], meta=side["meta"])
        replay = calibrate(cfg, dataset=dataset)
        assert abs(replay.rmse - result.rmse) <= 1e-12

    def test_single_draw_pipeline_completes(self, tmp_path):
        cfg = tiny_linear(
            m=1,
            herd_size=1,
            bandwidth={"sigma2": 50.0, "sigma2_theta": 5.0},
            out_dir=str(tmp_path / "tiny"),
        )
        result = run_calibration(cfg)
        emb = json.loads((tmp_path / "tiny" / "embedding.json").read_text())
        assert len(emb["weights"]) == 1
        assert np.isfinite(result.rmse)

    def test_median_bandwidth_needs_two_draws(self):
        # rejected when the config loads, not mid-run; a fixed bandwidth runs
        # at m = 1 (test_single_draw_pipeline_completes)
        with pytest.raises(ValueError, match="^m must be >= 2 under the median bandwidth, got 1$"):
            tiny_linear(m=1, herd_size=1)
        with pytest.raises(ValueError, match="median bandwidth, got 1"):
            tiny_linear().replace(m=1)
        assert tiny_linear(m=2).m == 2

    def test_weight_modes_give_different_rmse(self):
        shift = calibrate(tiny_linear(seed=11))
        ordinary = calibrate(tiny_linear(seed=11, weight_mode="ordinary"))
        assert shift.rmse != ordinary.rmse

    def test_stage_error_names_stage(self, tmp_path):
        beta_path = tmp_path / "beta.csv"
        beta_path.write_text("beta\n1.0\n")  # wrong length
        cfg = tiny_linear(weight_mode="csv", weights_csv=str(beta_path))
        with pytest.raises(StageError, match="weights"):
            calibrate(cfg)

    def test_csv_weight_mode(self, tmp_path):
        beta_path = tmp_path / "beta.csv"
        beta_path.write_text("beta\n" + "\n".join(["1.0"] * 24) + "\n")
        cfg = tiny_linear(weight_mode="csv", weights_csv=str(beta_path), seed=11)
        via_csv = calibrate(cfg)
        via_ordinary = calibrate(tiny_linear(weight_mode="ordinary", seed=11))
        # constant supplied weights reproduce the ordinary run, except the
        # test inputs still follow the shift-mode density here
        assert np.array_equal(np.asarray(via_csv.beta), np.asarray(via_ordinary.beta))

    def test_uniform_q1_inside_q0_drops_points(self):
        # training inputs outside [0, 1] get weight zero and drop out
        cfg = preset("linear-shift", q1={"family": "uniform", "low": 0.0, "high": 1.0})
        result = calibrate(cfg)
        beta = np.asarray(result.beta)
        assert np.any(beta == 0.0) and np.any(beta > 0.0)
        assert np.all((beta > 0.0) == ((result.dataset.x >= 0.0) & (result.dataset.x <= 1.0)))
        assert np.isfinite(result.rmse)

    def test_disjoint_q1_fails_clearly(self):
        cfg = tiny_linear(q1={"family": "uniform", "low": 5.0, "high": 6.0})
        with pytest.raises(StageError, match="weights.*q1 has no mass at any training input"):
            calibrate(cfg)

    def test_schedule_epsilon_used(self):
        cfg = tiny_linear().replace(epsilon=None, epsilon_schedule={"C": 1.0, "b": 2.0})
        result = calibrate(cfg)
        assert result.epsilon == pytest.approx(16 ** (-2.0 / 9.0))


class TestPrepare:
    @pytest.mark.parametrize("name,seed", [("linear-shift", 3), ("assembly-shift", 9)])
    def test_fields_equal_calibrate_and_theorem1_check(self, name, seed):
        cfg = preset(name, seed=seed, n=12, m=40, herd_size=40, n_test=10)
        timings = {}
        prep = prepare(cfg, timings=timings)
        assert list(timings) == ["dataset", "weights", "prior-draws", "pseudo-outputs"]
        result = calibrate(cfg)
        assert list(result.wall_clock) == list(timings) + ["embedding", "herding", "prediction"]
        for field in ("x", "y"):
            assert getattr(prep.dataset, field).tobytes() == getattr(result.dataset, field).tobytes()
        assert np.asarray(prep.beta).tobytes() == np.asarray(result.beta).tobytes()
        assert prep.draws.tobytes() == result.draws.tobytes()
        assert prep.outputs.tobytes() == result.outputs.tobytes()
        assert prep.bandwidth is None and prep.epsilon == result.epsilon
        (embedding,) = prep.embed()
        pool = CandidatePool.from_draws(embedding.draws)
        assert pool.points.tobytes() == result.herded.pool.points.tobytes()
        bandwidths = (embedding.meta["sigma2"], embedding.kernel.sigma2, prep.epsilon)
        emb = result.embedding
        assert bandwidths == (emb.meta["sigma2"], emb.kernel.sigma2, result.epsilon)
        report = theorem1_check(cfg, grid_resolution=9)
        assert (report["sigma2"], report["sigma2_theta"], report["epsilon"]) == bandwidths

    def test_non_finite_pseudo_output_fails_its_stage(self, monkeypatch):
        from shiftcal.sim import LinearSimulator

        def overflowing(self, xs, keys=0):
            return lambda thetas: np.full(len(thetas), np.inf)

        monkeypatch.setattr(LinearSimulator, "sweep", overflowing)
        with pytest.raises(StageError, match="pseudo-outputs contain non-finite entries") as err:
            prepare(tiny_linear())
        assert err.value.stage == "pseudo-outputs"

    def test_embed_releases_distance_buffer(self):
        # no distance matrix is held between stages, and embed is a pure call
        prep = prepare(tiny_linear())
        (first,) = prep.embed()
        assert {k for k, v in vars(prep).items() if isinstance(v, np.ndarray)} == {"draws", "outputs"}
        (again,) = prep.embed()
        assert first.weights.tobytes() == again.weights.tobytes()
        assert (first.meta["sigma2"], first.kernel.sigma2) == (again.meta["sigma2"], again.kernel.sigma2)

    def test_fixed_bandwidths_hold_no_buffer(self):
        prep = prepare(tiny_linear(bandwidth={"sigma2": 2.0, "sigma2_theta": 3.0}))
        assert {k for k, v in vars(prep).items() if isinstance(v, np.ndarray)} == {"draws", "outputs"}
        assert prep.bandwidth == (2.0, 3.0)
        (embedding,) = prep.embed()
        assert (embedding.meta["sigma2"], embedding.kernel.sigma2) == (2.0, 3.0)


class TestRmseCurve:
    def test_single_trial_zero_std(self):
        rows = rmse_curve(tiny_linear(), m_values=[6, 9], trials=1)
        assert [r["m"] for r in rows] == [6, 9]
        assert all(r["rmse_std"] == 0.0 for r in rows)

    def test_consistency_with_single_runs(self):
        cfg = tiny_linear()
        rows = rmse_curve(cfg, m_values=[8], trials=1)
        trial_seed = derive_seed(cfg.seed, "curve", 8, 0)
        single = calibrate(cfg.replace(m=8, herd_size=8, seed=trial_seed))
        assert rows[0]["rmse_mean"] == pytest.approx(single.rmse, rel=1e-15)

    def test_every_budget_is_checked_before_the_first_run(self, monkeypatch):
        def no_run(cfg, dataset=None):
            raise AssertionError("a trial ran before every budget was checked")

        monkeypatch.setattr(pipeline, "calibrate", no_run)
        with pytest.raises(ValueError, match="median bandwidth, got 1"):
            rmse_curve(tiny_linear(), m_values=[20, 1], trials=2)
        fixed = tiny_linear(bandwidth={"sigma2": 50.0, "sigma2_theta": 5.0})
        monkeypatch.undo()
        assert rmse_curve(fixed, m_values=[1], trials=1)[0]["m"] == 1

    def test_mh_columns_present(self):
        cfg = tiny_linear()
        rows = rmse_curve(cfg, m_values=[10], trials=2, include_mh=True)
        assert rows[0]["mh_budget"] == 10
        assert rows[0]["mh_rmse_mean"] > 0

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            rmse_curve(tiny_linear(), m_values=[4], trials=0)

    def test_integral_float_budget_is_the_int_budget(self):
        rows = rmse_curve(tiny_linear(), m_values=[4.0], trials=1)
        assert rows == rmse_curve(tiny_linear(), m_values=[4], trials=1)
        assert type(rows[0]["m"]) is int


class TestMHBaseline:
    def test_smoke_and_budget(self):
        result = run_mh_baseline(tiny_linear(), steps=60)
        assert result.budget == 60
        assert 0.0 <= result.acceptance_ratio <= 1.0
        assert np.isfinite(result.rmse)
        assert result.trace.post_burn_in.shape == (54, 2)

    def test_stage_timings(self, caplog):
        with caplog.at_level(logging.INFO, logger="shiftcal"):
            result = run_mh_baseline(tiny_linear(), steps=20)
        assert list(result.wall_clock) == ["dataset", "weights", "chain", "prediction"]
        assert all(seconds >= 0 for seconds in result.wall_clock.values())
        assert [r.getMessage().split()[1] for r in caplog.records] == list(result.wall_clock)

    def test_deterministic(self):
        a = run_mh_baseline(tiny_linear(), steps=40)
        b = run_mh_baseline(tiny_linear(), steps=40)
        assert np.array_equal(a.trace.states, b.trace.states)
        assert a.rmse == b.rmse

    @pytest.mark.parametrize(
        "name,seed", [("assembly-shift", 105), ("assembly-shift", 7), ("assembly-shift", 31),
                      ("linear-shift", 4)]
    )
    def test_one_sweep_per_chain_matches_per_step_likelihood(self, name, seed):
        cfg = preset(name, seed=seed, n_test=10)
        trace, rmse_value = reference_mh_baseline(cfg, steps=120)
        result = run_mh_baseline(cfg, steps=120)
        assert result.trace.states.tobytes() == trace.states.tobytes()
        assert result.trace.accepted.tobytes() == trace.accepted.tobytes()
        assert result.acceptance_ratio == trace.acceptance_ratio
        assert 0.0 < trace.acceptance_ratio < 1.0
        assert result.rmse == rmse_value

    def test_requires_mh_section(self, monkeypatch):
        bare = tiny_linear().replace(mh=None)

        def no_work(*args, **kwargs):
            raise AssertionError("a run started on a config without an 'mh' section")

        monkeypatch.setattr(pipeline, "weighted_dataset", no_work)
        monkeypatch.setattr(pipeline, "run_mh_baseline", no_work)
        monkeypatch.setattr(pipeline, "calibrate", no_work)
        with pytest.raises(ValueError, match="config has no 'mh' section"):
            run_mh_baseline(bare, steps=10)
        with pytest.raises(ValueError, match="config has no 'mh' section"):
            mh_acceptance_sweep(bare, [0.1, 0.2], steps=10)
        with pytest.raises(ValueError, match="config has no 'mh' section"):
            rmse_curve(bare, [4, 8], trials=1, include_mh=True)

    @pytest.mark.parametrize("scale", [{"var": [0.0, 5.0]}, {"std": [1.0, 0.0]}])
    def test_requires_a_prior_density(self, monkeypatch, scale):
        # a zero std is a point mass: calibrate runs on it, but the chain's
        # target has no log density, so every MH entry point fails before work
        point_mass = tiny_linear(prior={"family": "normal", "mean": [0.0, 0.0], **scale})
        assert np.isfinite(calibrate(point_mass).rmse)

        def no_work(*args, **kwargs):
            raise AssertionError("a run started on a prior without a density")

        for name in ("weighted_dataset", "run_mh_baseline", "calibrate"):
            monkeypatch.setattr(pipeline, name, no_work)
        std = [math.sqrt(v) for v in scale["var"]] if "var" in scale else scale["std"]
        message = f"^prior has std {re.escape(str(std))}: a point mass has no density"
        for call in (lambda: run_mh_baseline(point_mass, steps=10),
                     lambda: mh_acceptance_sweep(point_mass, [0.1, 0.2], steps=10),
                     lambda: rmse_curve(point_mass, [4, 8], trials=1, include_mh=True)):
            with pytest.raises(ValueError, match=message):
                call()


class TestMHSweep:
    @pytest.mark.parametrize(
        "stds,steps,message",
        [([0.1, -0.2], 20, "proposal std must be finite and > 0, got -0.2"),
         ([0.1, float("nan")], 20, "proposal std must be finite and > 0, got nan"),
         ([0.1], 0, "mh.steps must be >= 1, got 0")],
    )
    def test_every_section_is_built_before_the_first_run(self, monkeypatch, stds, steps, message):
        def no_run(*args, **kwargs):
            raise AssertionError("a chain ran before every swept section was built")

        monkeypatch.setattr(pipeline, "run_mh_baseline", no_run)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            mh_acceptance_sweep(tiny_linear(), stds, steps=steps)

    def test_rows_are_single_runs(self):
        cfg = tiny_linear()
        rows = mh_acceptance_sweep(cfg, [0.1, 0.5], steps=30)
        assert [list(row) for row in rows] == [["proposal_std", "acceptance_ratio", "rmse",
                                                "budget"]] * 2
        for row in rows:
            single = run_mh_baseline(cfg.replace(mh={**cfg.mh, "proposal_std": row["proposal_std"]}),
                                     steps=30)
            assert (row["acceptance_ratio"], row["rmse"], row["budget"]) == (
                single.acceptance_ratio, single.rmse, 30)


class TestTheoremCheck:
    def test_well_specified_noiseless_recovers_truth(self):
        # truth generated by the simulator at a grid-aligned parameter with
        # zero noise: the brute-force minimum must be that parameter and
        # the two embeddings must coincide
        cfg = tiny_linear(
            truth={"kind": "simulator", "theta": [1.0, -0.5]},
            noise={"std": 0.0},
            prior={"family": "uniform", "low": [-2.0, -2.0], "high": [2.0, 2.0]},
        )
        report = theorem1_check(cfg, grid_resolution=17)  # step 0.25, node at (1, -0.5)
        assert report["theta_star"] == (1.0, -0.5)
        assert report["loss_star"] == 0.0
        assert not report["on_boundary"]
        assert report["distance"] <= 1e-8

    def test_boundary_flag(self):
        # optimum far outside the prior box lands on the grid edge
        cfg = tiny_linear(
            truth={"kind": "simulator", "theta": [5.0, 5.0]},
            noise={"std": 0.0},
            prior={"family": "uniform", "low": [0.0, 0.0], "high": [1.0, 1.0]},
        )
        report = theorem1_check(cfg, grid_resolution=9)
        assert report["on_boundary"]
        assert report["theta_star"] == (1.0, 1.0)

    @pytest.mark.parametrize("name,seed", [("linear-shift", 3), ("assembly-shift", 9)])
    def test_oracle_equals_per_point_sweeps(self, name, seed):
        # reference: one sweep over the training inputs per point k, every
        # one on the search seed (one realization), and the loss written out
        cfg = preset(name, seed=seed)
        ds = generate_dataset(cfg.build_dgp(), cfg.n, derive_seed(cfg.seed, "dataset"))
        beta = np.asarray(resolve_weights(cfg, ds))
        sim, prior = cfg.build_simulator(), cfg.build_prior()
        search = derive_seed(cfg.seed, "oracle-search")
        if prior.dim <= 2:
            low, high = prior.search_box()
            axes = [np.linspace(low[k], high[k], 9) for k in range(prior.dim)]
            points = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
        else:
            points = prior.sample(64, derive_rng(search, "draws"))
        losses = []
        for theta in points:
            residuals = ds.y - sim.sweep(ds.x, search)(theta)
            losses.append(float(np.sum(beta * residuals * residuals)))
        found, outputs = minimize_weighted_sse(cfg, ds, resolve_weights(cfg, ds),
                                               grid_resolution=9, search_draws=64)
        theta = np.array(found["theta_star"])
        best = int(np.argmin(losses))
        assert found["loss_star"] == losses[best]
        assert theta.tobytes() == points[best].tobytes()
        assert outputs.tobytes() == sim.sweep(ds.x, search)(theta).tobytes()

    @pytest.mark.parametrize("name,seed", [("linear-shift", 3), ("assembly-shift", 9)])
    def test_one_system_equals_two_separate_systems(self, name, seed):
        # oracle: the two embeddings built as two separate Gram systems, each
        # with its own output pass, factorization and theta pass
        cfg = preset(name, seed=seed, n=12, m=30, herd_size=30)
        report = theorem1_check(cfg, grid_resolution=9)
        prep = prepare(cfg)
        found, _ = minimize_weighted_sse(cfg, prep.dataset, prep.beta, grid_resolution=9)
        x = prep.dataset.x
        optimal = cfg.build_simulator().sweep(x, derive_seed(cfg.seed, "oracle-search"))(
            np.array(found["theta_star"]))
        (from_data,), (from_optimal,) = (
            build_embedding(prep.draws, prep.outputs, [y], prep.beta, None, None, prep.epsilon)
            for y in (prep.dataset.y, optimal)
        )
        expected = (embedding_distance(from_data, from_optimal),
                    from_data.meta["sigma2"], from_data.kernel.sigma2)
        got = (report["distance"], report["sigma2"], report["sigma2_theta"])
        assert np.array(got).tobytes() == np.array(expected).tobytes()
        assert report["distance"] > 0

    @pytest.mark.parametrize("name", ["linear-shift", "assembly-shift"])
    @pytest.mark.parametrize("seed", [0, 1, 4])
    def test_loss_star_scores_the_embedded_outputs(self, name, seed, monkeypatch):
        # the outputs the check embeds are theta*'s on the search's one
        # realization, and loss_star is their weighted squared error
        cfg = preset(name, seed=seed, m=30, herd_size=30)
        embedded = []
        embed = pipeline.Prepared.embed

        def spy(self, *ys, meta=None):
            embedded.append(ys)
            return embed(self, *ys, meta=meta)

        monkeypatch.setattr(pipeline.Prepared, "embed", spy)
        report = theorem1_check(cfg, grid_resolution=41)
        ((observed, optimal),) = embedded
        ds, beta = pipeline.weighted_dataset(cfg)
        search = cfg.build_simulator().sweep(ds.x, derive_seed(cfg.seed, "oracle-search"))
        assert optimal.tobytes() == search(np.array(report["theta_star"])).tobytes()
        assert observed.tobytes() == ds.y.tobytes()
        assert report["loss_star"] == weighted_residual_sum(optimal, ds.y, beta)

    def test_wls_match_within_grid_step(self):
        cfg = preset("linear-shift", n=60, m=40, herd_size=40)
        report = theorem1_check(cfg, grid_resolution=81)

        from shiftcal.pipeline import resolve_weights
        from shiftcal.sim import generate_dataset

        ds = generate_dataset(cfg.build_dgp(), cfg.n, derive_seed(cfg.seed, "dataset"))
        beta = np.asarray(resolve_weights(cfg, ds))
        design = np.stack([np.ones(cfg.n), ds.x], axis=1)
        bmat = np.diag(beta)
        wls = np.linalg.solve(design.T @ bmat @ design, design.T @ bmat @ ds.y)
        gap = np.abs(np.asarray(report["theta_star"]) - wls)
        assert np.all(gap <= np.asarray(report["grid_step"]))


class TestEmitPlotData:
    def test_columns_and_grid(self, tmp_path):
        cfg = tiny_linear(out_dir=str(tmp_path / "plots"))
        path = emit_plot_data(cfg, grid_points=13)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        header = lines[1].split(",")
        assert header[:3] == ["x", "truth", "pred_mean"]
        assert len(header) == 3 + cfg.herd_size
        assert len(lines) == 2 + 13
        assert (tmp_path / "plots" / "dataset.csv").exists()
        assert ExperimentConfig.from_json(tmp_path / "plots" / "config.json") == cfg
        table = csv_table(path)
        assert table[:, 2].tobytes() == np.array([np.mean(row) for row in table[:, 3:]]).tobytes()


class TestOneScoringRealization:
    def test_entry_points_score_against_one_truth(self, tmp_path, monkeypatch):
        # the assembly truth is a simulator realization keyed by the scoring
        # seed: calibrate, the MH baseline and the plot data read one realization
        cfg = preset("assembly-shift", seed=1, m=30, herd_size=30, n_test=5,
                     out_dir=str(tmp_path / "plots"))
        grid, plot_truth = csv_table(emit_plot_data(cfg, grid_points=13))[:, :2].T
        scored = []
        score = pipeline.score_predictions

        def spy(*args, **kwargs):
            preds, truth_values, rmse_value = score(*args, **kwargs)
            scored.append(truth_values)
            return preds, truth_values, rmse_value

        monkeypatch.setattr(pipeline, "_test_inputs", lambda cfg: grid)  # the shared inputs
        monkeypatch.setattr(pipeline, "score_predictions", spy)
        result = calibrate(cfg)
        run_mh_baseline(cfg, steps=20)
        assert len(scored) == 2 and scored[0] is result.truth_values
        assert result.truth_values.tobytes() == plot_truth.tobytes()
        assert scored[1].tobytes() == plot_truth.tobytes()


class TestCountArguments:
    """Every count an entry point takes is read by the config's count rule,
    before any stage runs."""

    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda: theorem1_check(tiny_linear(), grid_resolution=1),
             "grid_resolution must be >= 2, got 1"),
            (lambda: theorem1_check(tiny_linear(), grid_resolution=0),
             "grid_resolution must be >= 2, got 0"),
            (lambda: theorem1_check(tiny_linear(), grid_resolution=2.5),
             "grid_resolution must be an integer, got 2.5"),
            (lambda: rmse_curve(tiny_linear(), [4.5], trials=1), "m must be an integer, got 4.5"),
            (lambda: rmse_curve(tiny_linear(), [0], trials=1), "m must be >= 1, got 0"),
            (lambda: rmse_curve(tiny_linear(), [4], trials=True),
             "trials must be an integer, got True"),
            (lambda: emit_plot_data(tiny_linear(), grid_points=2.5),
             "grid_points must be an integer, got 2.5"),
            (lambda: emit_plot_data(tiny_linear(), grid_points=0),
             "grid_points must be >= 1, got 0"),
        ],
    )
    def test_bad_count_fails_before_any_work(self, call, message, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("a stage ran before the counts were checked")

        for name in ("prepare", "calibrate", "weighted_dataset"):
            monkeypatch.setattr(pipeline, name, no_work)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    @pytest.mark.parametrize(
        "counts,message",
        [
            ({"grid_resolution": 1}, "grid_resolution must be >= 2, got 1"),
            ({"search_draws": 0}, "search_draws must be >= 1, got 0"),
            ({"search_draws": 2.5}, "search_draws must be an integer, got 2.5"),
        ],
    )
    def test_search_counts(self, counts, message):
        ds, beta = pipeline.weighted_dataset(tiny_linear())
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            minimize_weighted_sse(tiny_linear(), ds, beta, **counts)


def test_stream_tags_match_the_module_docstring():
    # every derive_seed(cfg.seed, "<tag>", ...) in pipeline.py, keyed to its
    # outermost enclosing function, is the docstring's tag list
    def calls(node, owner=None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                yield child, owner
            is_function = isinstance(child, ast.FunctionDef)
            yield from calls(child, owner or (child.name if is_function else None))

    tree = ast.parse(open(pipeline.__file__).read())
    found: dict[str, set] = {}
    for call, owner in calls(tree):
        if getattr(call.func, "id", None) == "derive_seed" and ast.unparse(call.args[0]) == "cfg.seed":
            tag = call.args[1]
            assert isinstance(tag, ast.Constant), f"untagged stream: {ast.unparse(call)}"
            found.setdefault(tag.value, set()).add(owner)
    documented = {}
    for line in ast.get_docstring(tree).splitlines():
        if match := re.match(r'- ((?:``"[^"]+"``(?:, )?)+): ``(\w+)``', line):
            for tag in re.findall(r'``"([^"]+)"``', match.group(1)):
                assert tag not in documented, f"tag {tag!r} listed twice"
                documented[tag] = {match.group(2)}
    assert found == documented
