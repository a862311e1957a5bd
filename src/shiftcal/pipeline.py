"""End-to-end experiment stages: calibrate, score, sweep, and check.

Everything here is deterministic given the config's master seed: each
stage pulls from its own derived stream.  Artifacts are CSV and JSON
only, every one stamped with the config hash.  Wall-clock timings are
reported in memory and logged but never serialized, so artifact files
are byte-identical across repeated runs.
"""

from __future__ import annotations

import contextlib
import csv
import json
import logging
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from ._seeding import derive_rng, derive_seed
from .baseline import (
    MHTrace,
    log_likelihood_sweep,
    mh_sample,
    simulation_budget,
    weighted_residual_sum,
)
from .config import ExperimentConfig, load_beta_csv
from .herd import CandidatePool, HerdedSamples, herd
from .kabc import (
    PosteriorEmbedding,
    PseudoOutputs,
    build_embedding,
    embedding_distance,
    sample_prior,
    simulate_pseudo_outputs,
)
from .kern import median_heuristic, median_sqdist, pairwise_sqdist
from .predict import PredictiveSample, generate_test_inputs, score_predictions
from .sim import Dataset, generate_dataset
from .weights import ImportanceWeights, importance_weights, ordinary_weights

log = logging.getLogger("shiftcal")


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name for context."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage


@dataclass
class CalibrationResult:
    """Everything one calibration run produced, prior to serialization."""

    dataset: Dataset
    beta: ImportanceWeights
    pseudo: PseudoOutputs
    sigma2: float
    sigma2_theta: float
    epsilon: float
    embedding: PosteriorEmbedding
    herded: HerdedSamples
    test_inputs: np.ndarray
    predictions: list[PredictiveSample]
    truth_values: np.ndarray
    rmse: float
    wall_clock: dict = field(default_factory=dict)


@dataclass(frozen=True)
class RunReport:
    """Summary of a finished run; timings stay in memory only."""

    rmse: float
    seed: int
    config_hash: str
    artifacts: dict
    stats: dict
    wall_clock: dict

    def to_dict(self) -> dict:
        """Every field except the timings."""
        return {k: v for k, v in asdict(self).items() if k != "wall_clock"}


@contextlib.contextmanager
def _timed(timings: dict, stage: str):
    start = time.perf_counter()
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(stage, exc) from exc
    finally:
        timings[stage] = time.perf_counter() - start


def resolve_weights(cfg: ExperimentConfig, dataset: Dataset) -> ImportanceWeights:
    if cfg.weight_mode == "shift":
        return importance_weights(dataset.x, cfg.q0_spec(), cfg.q1_spec())
    if cfg.weight_mode == "ordinary":
        return ordinary_weights(dataset.n)
    return ImportanceWeights(load_beta_csv(cfg.weights_csv, dataset.n))


def resolve_bandwidths(cfg: ExperimentConfig, pseudo: PseudoOutputs, beta: ImportanceWeights):
    """sigma2, sigma2_theta and epsilon of a run, plus the output distances.

    Under the median heuristic the beta-weighted output distance matrix is
    computed here, once, and returned for the Gram matrix to be built in;
    with fixed bandwidths it is None and the Gram step computes it.
    """
    sqdist = None
    if cfg.bandwidth == "median":
        # theta first, so its m x m scratch is freed before the output matrix exists
        sigma2_theta = median_heuristic(pseudo.thetas)
        sqdist = pairwise_sqdist(pseudo.values, np.asarray(beta))
        sigma2 = median_sqdist(sqdist)
    else:
        sigma2 = float(cfg.bandwidth["sigma2"])
        sigma2_theta = float(cfg.bandwidth["sigma2_theta"])
    return sigma2, sigma2_theta, cfg.resolve_epsilon(cfg.m), sqdist


def calibrate(cfg: ExperimentConfig, dataset: Dataset | None = None) -> CalibrationResult:
    """Run the full pipeline in memory and return all intermediates."""
    sim = cfg.build_simulator()
    prior = cfg.build_prior()
    truth = cfg.build_truth()
    timings: dict = {}

    with _timed(timings, "dataset"):
        if dataset is None:
            dataset = generate_dataset(cfg.build_dgp(), cfg.n, derive_seed(cfg.seed, "dataset"))
    with _timed(timings, "weights"):
        beta = resolve_weights(cfg, dataset)
    with _timed(timings, "prior-draws"):
        thetas = sample_prior(prior, cfg.m, derive_seed(cfg.seed, "prior"))
    with _timed(timings, "pseudo-outputs"):
        pseudo = simulate_pseudo_outputs(sim, thetas, dataset.x, derive_seed(cfg.seed, "pseudo"))
    with _timed(timings, "bandwidths"):
        sigma2, sigma2_theta, epsilon, sqdist = resolve_bandwidths(cfg, pseudo, beta)
    with _timed(timings, "embedding"):
        embedding = build_embedding(
            pseudo,
            dataset,
            beta,
            sigma2=sigma2,
            sigma2_theta=sigma2_theta,
            epsilon=epsilon,
            meta={"seed": cfg.seed, "weight_mode": cfg.weight_mode},
            sqdist=sqdist,
        )
        del sqdist  # now holds the Gram matrix; release it before herding
    with _timed(timings, "herding"):
        extra = None
        if cfg.pool_extra:
            extra = sample_prior(prior, cfg.pool_extra, derive_seed(cfg.seed, "pool"))
        pool = CandidatePool.from_draws(thetas, extra=extra)
        herded = herd(embedding, pool, cfg.herd_size)
    with _timed(timings, "prediction"):
        test_inputs = generate_test_inputs(
            cfg.test_density(), cfg.n_test, derive_seed(cfg.seed, "test")
        )
        predictions, truth_values, rmse_value = score_predictions(
            truth, test_inputs, sim, herded, seed=derive_seed(cfg.seed, "eval")
        )

    for stage, seconds in timings.items():
        log.info("stage %-14s %8.3f s", stage, seconds)
    return CalibrationResult(
        dataset=dataset,
        beta=beta,
        pseudo=pseudo,
        sigma2=sigma2,
        sigma2_theta=sigma2_theta,
        epsilon=epsilon,
        embedding=embedding,
        herded=herded,
        test_inputs=test_inputs,
        predictions=predictions,
        truth_values=truth_values,
        rmse=rmse_value,
        wall_clock=timings,
    )


def _write_weights_csv(path: Path, beta: ImportanceWeights, config_hash: str) -> None:
    with path.open("w", newline="") as fh:
        fh.write(f"# config_hash={config_hash}\n")
        fh.write("beta\n")
        for value in np.asarray(beta):
            fh.write(f"{float(value)!r}\n")


def _write_predictions_csv(
    path: Path, predictions: list[PredictiveSample], config_hash: str
) -> None:
    n_samples = predictions[0].outputs.size
    with path.open("w", newline="") as fh:
        fh.write(f"# config_hash={config_hash}\n")
        writer = csv.writer(fh)
        writer.writerow(["x"] + [f"y_{j}" for j in range(1, n_samples + 1)] + ["mean"])
        for pred in predictions:
            row = [repr(float(pred.x))]
            row += [repr(float(v)) for v in pred.outputs]
            row.append(repr(float(pred.mean)))
            writer.writerow(row)


def run_calibration(
    cfg: ExperimentConfig, dataset: Dataset | None = None, write: bool = True
) -> RunReport:
    """Execute the pipeline and write all artifacts under cfg.out_dir."""
    result = calibrate(cfg, dataset=dataset)
    config_hash = cfg.config_hash()
    artifacts: dict = {}
    if write:
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        cfg.write_json(out / "config.json")
        result.dataset.write_csv(
            out / "dataset.csv",
            sidecar={"config_hash": config_hash},
            header_comment=f"config_hash={config_hash}",
        )
        _write_weights_csv(out / "weights.csv", result.beta, config_hash)
        emb = result.embedding
        PosteriorEmbedding(
            draws=emb.draws,
            weights=emb.weights,
            kernel=emb.kernel,
            meta={**emb.meta, "config_hash": config_hash},
        ).to_json(out / "embedding.json")
        result.herded.write_csv(out / "herded.csv", header_comment=f"config_hash={config_hash}")
        _write_predictions_csv(out / "predictions.csv", result.predictions, config_hash)
        artifacts = {
            "config": "config.json",
            "dataset": "dataset.csv",
            "weights": "weights.csv",
            "embedding": "embedding.json",
            "herded": "herded.csv",
            "predictions": "predictions.csv",
            "report": "report.json",
        }
    report = RunReport(
        rmse=result.rmse,
        seed=cfg.seed,
        config_hash=config_hash,
        artifacts=artifacts,
        stats={
            "n": cfg.n,
            "m": cfg.m,
            "herd_size": cfg.herd_size,
            "weight_mode": cfg.weight_mode,
            "sigma2": result.sigma2,
            "sigma2_theta": result.sigma2_theta,
            "epsilon": result.epsilon,
        },
        wall_clock=result.wall_clock,
    )
    if write:
        (Path(cfg.out_dir) / "report.json").write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        )
    return report


# -- MH baseline ------------------------------------------------------------


@dataclass(frozen=True)
class MHBaselineResult:
    trace: MHTrace
    acceptance_ratio: float
    budget: int
    rmse: float
    test_inputs: np.ndarray


def run_mh_baseline(
    cfg: ExperimentConfig,
    steps: int | None = None,
    seed: int | None = None,
    dataset: Dataset | None = None,
) -> MHBaselineResult:
    """Run the MH comparison on the configured problem and score it.

    The chain starts at the prior center and targets the weighted
    log-likelihood plus log-prior; predictions average the simulator
    over all post-burn-in states.
    """
    run_seed = cfg.seed if seed is None else seed
    mh_cfg = cfg.mh_config(steps=steps, seed=derive_seed(run_seed, "mh"))
    sim = cfg.build_simulator()
    prior = cfg.build_prior()
    truth = cfg.build_truth()
    if dataset is None:
        dataset = generate_dataset(cfg.build_dgp(), cfg.n, derive_seed(run_seed, "dataset"))
    beta = resolve_weights(cfg, dataset)

    # One simulator realization for the whole chain: re-drawing noise per
    # evaluation would turn the cached-likelihood chain into a sticky
    # pseudo-marginal sampler, which is not the granted-likelihood setup.
    loglik = log_likelihood_sweep(
        dataset, beta, sim, noise_var=mh_cfg.noise_var, seed=derive_seed(run_seed, "mh-eval")
    )

    def target(theta: np.ndarray) -> float:
        log_prior = prior.log_pdf(theta)
        if not np.isfinite(log_prior):
            return -np.inf
        return loglik(theta) + log_prior

    trace = mh_sample(target, prior.center(), mh_cfg)
    test_inputs = generate_test_inputs(
        cfg.test_density(), cfg.n_test, derive_seed(run_seed, "test")
    )
    _, _, rmse_value = score_predictions(
        truth, test_inputs, sim, trace.post_burn_in, seed=derive_seed(run_seed, "mh-pred")
    )
    return MHBaselineResult(
        trace=trace,
        acceptance_ratio=trace.acceptance_ratio,
        budget=simulation_budget(trace),
        rmse=rmse_value,
        test_inputs=test_inputs,
    )


def mh_acceptance_sweep(cfg: ExperimentConfig, proposal_stds, steps: int | None = None) -> list[dict]:
    """Acceptance ratio per proposal std; tuning aid, no adaptation."""
    rows = []
    for std in proposal_stds:
        swept = cfg.replace(mh={**cfg.mh, "proposal_std": float(std)})
        result = run_mh_baseline(swept, steps=steps)
        rows.append(
            {
                "proposal_std": float(std),
                "acceptance_ratio": result.acceptance_ratio,
                "rmse": result.rmse,
                "budget": result.budget,
            }
        )
    return rows


# -- RMSE-vs-budget curve ----------------------------------------------------


def rmse_curve(
    cfg: ExperimentConfig,
    m_values,
    trials: int,
    include_mh: bool = False,
) -> list[dict]:
    """Mean and spread of RMSE per simulation budget.

    Each (m, trial) cell reruns the full pipeline under a derived seed;
    the herd size follows m.  With ``include_mh`` the MH baseline runs
    at the same budget (m chain steps) on the same per-trial data.
    """
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    rows = []
    for m in m_values:
        cell = cfg.replace(m=int(m), herd_size=int(m))
        scores, mh_scores = [], []
        for trial in range(trials):
            trial_seed = derive_seed(cfg.seed, "curve", int(m), trial)
            run_cfg = cell.replace(seed=trial_seed)
            dataset = generate_dataset(
                run_cfg.build_dgp(), run_cfg.n, derive_seed(trial_seed, "dataset")
            )
            scores.append(calibrate(run_cfg, dataset=dataset).rmse)
            if include_mh:
                mh_scores.append(
                    run_mh_baseline(run_cfg, steps=int(m), dataset=dataset).rmse
                )
        row = {
            "m": int(m),
            "rmse_mean": float(np.mean(scores)),
            "rmse_std": float(np.std(scores)),
            "trials": trials,
        }
        if include_mh:
            row["mh_budget"] = int(m)
            row["mh_rmse_mean"] = float(np.mean(mh_scores))
            row["mh_rmse_std"] = float(np.std(mh_scores))
        rows.append(row)
        log.info("rmse curve m=%d done", m)
    return rows


def write_curve_csv(path, rows: list[dict], config_hash: str) -> None:
    path = Path(path)
    columns = list(rows[0].keys())
    with path.open("w", newline="") as fh:
        fh.write(f"# config_hash={config_hash}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow(
                [repr(float(row[c])) if isinstance(row[c], float) else row[c] for c in columns]
            )


# -- embedding-target equivalence check ---------------------------------------


@dataclass(frozen=True)
class EquivalenceReport:
    """Distance between embeddings built from data and from optimal outputs."""

    theta_star: tuple
    loss_star: float
    method: str
    grid_step: tuple
    on_boundary: bool
    distance: float
    m: int
    sigma2: float
    sigma2_theta: float
    epsilon: float


def minimize_weighted_sse(
    cfg: ExperimentConfig,
    dataset: Dataset,
    beta: ImportanceWeights,
    grid_resolution: int = 101,
    search_draws: int = 4096,
):
    """Brute-force minimizer of the weighted squared error over the prior.

    Dense grid over the prior's box for dimension <= 2, otherwise a
    prior-sample search.  Returns (theta, loss, method, step, on_boundary).
    """
    sim = cfg.build_simulator()
    prior = cfg.build_prior()
    seed = derive_seed(cfg.seed, "oracle-search")
    if prior.dim <= 2:
        low, high = prior.search_box()
        axes = [np.linspace(low[k], high[k], grid_resolution) for k in range(prior.dim)]
        grids = np.meshgrid(*axes, indexing="ij")
        points = np.stack([g.ravel() for g in grids], axis=1)
    else:
        points = prior.sample(search_draws, derive_rng(seed, "draws"))
    # Point k runs on key derive_seed(seed, k): one sweep per training input.
    keys = [(k,) for k in range(len(points))]
    outputs = np.stack([sim.sweep([x], ((seed,), keys, ()))(points) for x in dataset.x], axis=1)
    losses = weighted_residual_sum(outputs, dataset.y, beta)
    best = int(np.argmin(losses))
    if prior.dim > 2:
        return points[best], float(losses[best]), "prior-search", (), False
    idx = np.unravel_index(best, grids[0].shape)
    on_boundary = any(i in (0, grid_resolution - 1) for i in idx)
    step = tuple(float(ax[1] - ax[0]) for ax in axes)
    return points[best], float(losses[best]), "grid", step, on_boundary


def theorem1_check(
    cfg: ExperimentConfig,
    grid_resolution: int = 101,
    dataset: Dataset | None = None,
) -> EquivalenceReport:
    """Compare the data-built embedding against the optimal-output one.

    Finds the prior-supported parameter minimizing the weighted squared
    error by brute force, simulates its outputs at the training inputs,
    and reports the kernel-space distance between the embedding built
    from the observed outputs and the one built from those optimal
    outputs.  The distance shrinking with m is the expected behavior.
    """
    sim = cfg.build_simulator()
    if dataset is None:
        dataset = generate_dataset(cfg.build_dgp(), cfg.n, derive_seed(cfg.seed, "dataset"))
    beta = resolve_weights(cfg, dataset)
    theta_star, loss_star, method, step, on_boundary = minimize_weighted_sse(
        cfg, dataset, beta, grid_resolution=grid_resolution
    )
    if on_boundary:
        log.warning("weighted-error minimum sits on the search-grid boundary; refine the grid")

    optimal_outputs = sim.sweep(dataset.x, derive_seed(cfg.seed, "oracle-outputs"))(theta_star)
    thetas = sample_prior(cfg.build_prior(), cfg.m, derive_seed(cfg.seed, "prior"))
    pseudo = simulate_pseudo_outputs(sim, thetas, dataset.x, derive_seed(cfg.seed, "pseudo"))
    sigma2, sigma2_theta, epsilon, sqdist = resolve_bandwidths(cfg, pseudo, beta)

    from_data = build_embedding(
        pseudo, dataset, beta, sigma2, sigma2_theta, epsilon, sqdist=sqdist
    )
    optimal_dataset = Dataset(dataset.x, optimal_outputs, seed=dataset.seed)
    from_optimal = build_embedding(pseudo, optimal_dataset, beta, sigma2, sigma2_theta, epsilon)

    return EquivalenceReport(
        theta_star=tuple(float(v) for v in np.atleast_1d(theta_star)),
        loss_star=loss_star,
        method=method,
        grid_step=step,
        on_boundary=on_boundary,
        distance=embedding_distance(from_data, from_optimal),
        m=cfg.m,
        sigma2=sigma2,
        sigma2_theta=sigma2_theta,
        epsilon=epsilon,
    )


# -- plot data ----------------------------------------------------------------


def emit_plot_data(cfg: ExperimentConfig, grid_points: int = 121) -> Path:
    """Write predictive draws over an even input grid spanning q0 and q1."""
    result = calibrate(cfg)
    sim = cfg.build_simulator()
    truth = cfg.build_truth()
    config_hash = cfg.config_hash()

    bounds = []
    for spec in (cfg.q0_spec(), cfg.q1_spec()):
        if spec.family == "normal":
            bounds += [spec.loc - 3.0 * spec.scale, spec.loc + 3.0 * spec.scale]
        else:
            bounds += [spec.low, spec.high]
    grid = np.linspace(min(bounds), max(bounds), grid_points)
    if cfg.simulator == "assembly":
        grid = grid[grid >= 1.0]

    predictions, truth_vals, _ = score_predictions(
        truth, grid, sim, result.herded, seed=derive_seed(cfg.seed, "plot")
    )
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "plot_data.csv"
    n_samples = predictions[0].outputs.size
    with path.open("w", newline="") as fh:
        fh.write(f"# config_hash={config_hash}\n")
        writer = csv.writer(fh)
        writer.writerow(
            ["x", "truth", "pred_mean"] + [f"y_{j}" for j in range(1, n_samples + 1)]
        )
        for pred, tv in zip(predictions, truth_vals):
            row = [repr(float(pred.x)), repr(float(tv)), repr(float(pred.mean))]
            row += [repr(float(v)) for v in pred.outputs]
            writer.writerow(row)
    result.dataset.write_csv(
        out / "dataset.csv",
        sidecar={"config_hash": config_hash},
        header_comment=f"config_hash={config_hash}",
    )
    return path
