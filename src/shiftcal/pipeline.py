"""End-to-end experiment stages: calibrate, score, sweep, and check.

Everything here is deterministic given the config's master seed: each
stage pulls from its own derived stream.  Artifacts are CSV and JSON
only, every one stamped with the config hash.  Wall-clock timings are
reported in memory and logged but never serialized, so artifact files
are byte-identical across repeated runs.

Every entry point takes the front half of a run (dataset, weights, prior
draws, pseudo-outputs) from ``prepare``, or only the dataset and weights
from its first half, ``weighted_dataset``.  Median bandwidths are not a
stage of their own: the embedding step reads each from the distances its
kernel matrix is built from.  Each stream tag is derived from a run's seed
in exactly one place:

- ``"dataset"``: ``weighted_dataset``
- ``"prior"``, ``"pseudo"``: ``prepare``
- ``"test"``: ``_test_inputs`` (for ``calibrate`` and ``run_mh_baseline``)
- ``"eval"``: ``calibrate``
- ``"mh"``, ``"mh-eval"``, ``"mh-pred"``: ``run_mh_baseline``
- ``"curve"``: ``rmse_curve``, which derives each trial's seed
- ``"oracle-search"``: ``minimize_weighted_sse``
- ``"oracle-outputs"``: ``theorem1_check``
- ``"plot"``: ``emit_plot_data``
"""

from __future__ import annotations

import contextlib
import logging
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ._seeding import derive_rng, derive_seed, stream_keys
from .baseline import (
    MHTrace,
    log_likelihood_sweep,
    mh_sample,
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
from .predict import generate_test_inputs, score_predictions
from .sim import Dataset, generate_dataset, write_csv_rows, write_json_artifact
from .weights import ImportanceWeights, importance_weights, ordinary_weights

log = logging.getLogger("shiftcal")


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name for context."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage


@dataclass
class Prepared:
    """The front half of a run: everything the embedding is built from.

    ``pool`` holds the prior draws (``pseudo.thetas``), the herding
    candidates.  ``bandwidth`` is the config's fixed (sigma2,
    sigma2_theta), or None under the median heuristic, which each ``embed``
    resolves; the embedding records the values used.
    """

    dataset: Dataset
    beta: ImportanceWeights
    pool: CandidatePool
    pseudo: PseudoOutputs
    bandwidth: tuple[float, float] | None
    epsilon: float

    def embed(self, dataset: Dataset | None = None, meta: dict | None = None) -> PosteriorEmbedding:
        """The posterior embedding of ``dataset`` (default: the prepared one)."""
        return build_embedding(
            self.pseudo, self.dataset if dataset is None else dataset, self.beta,
            *(self.bandwidth or (None, None)), self.epsilon, meta=meta,
        )


@dataclass(kw_only=True)
class CalibrationResult(Prepared):
    """The front half of a calibration run plus everything built from it."""

    embedding: PosteriorEmbedding
    herded: HerdedSamples
    test_inputs: np.ndarray
    predictions: np.ndarray  # (test inputs, herded samples)
    truth_values: np.ndarray
    rmse: float
    wall_clock: dict = field(default_factory=dict)


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


def weighted_dataset(
    cfg: ExperimentConfig, dataset: Dataset | None = None, timings: dict | None = None
) -> tuple[Dataset, ImportanceWeights]:
    """The training data (generated unless given) and its weights."""
    timings = {} if timings is None else timings
    with _timed(timings, "dataset"):
        if dataset is None:
            dataset = generate_dataset(cfg.build_dgp(), cfg.n, derive_seed(cfg.seed, "dataset"))
    with _timed(timings, "weights"):
        beta = resolve_weights(cfg, dataset)
    return dataset, beta


def prepare(
    cfg: ExperimentConfig, dataset: Dataset | None = None, timings: dict | None = None
) -> Prepared:
    """The front half of a run, each stage's seconds recorded in ``timings``."""
    timings = {} if timings is None else timings
    dataset, beta = weighted_dataset(cfg, dataset, timings)
    with _timed(timings, "prior-draws"):
        thetas = sample_prior(cfg.build_prior(), cfg.m, derive_seed(cfg.seed, "prior"))
        pool = CandidatePool.from_draws(thetas)
    with _timed(timings, "pseudo-outputs"):
        pseudo = simulate_pseudo_outputs(
            cfg.build_simulator(), thetas, dataset.x, derive_seed(cfg.seed, "pseudo")
        )
    return Prepared(dataset, beta, pool, pseudo, cfg.fixed_bandwidth(), cfg.resolve_epsilon())


def _test_inputs(cfg: ExperimentConfig) -> np.ndarray:
    return generate_test_inputs(cfg.test_density(), cfg.n_test, derive_seed(cfg.seed, "test"))


def calibrate(cfg: ExperimentConfig, dataset: Dataset | None = None) -> CalibrationResult:
    """Run the full pipeline in memory and return all intermediates."""
    timings: dict = {}
    prep = prepare(cfg, dataset, timings)
    with _timed(timings, "embedding"):
        embedding = prep.embed(meta={"seed": cfg.seed, "weight_mode": cfg.weight_mode})
    with _timed(timings, "herding"):
        herded = herd(embedding, prep.pool, cfg.herd_size)
    with _timed(timings, "prediction"):
        test_inputs = _test_inputs(cfg)
        predictions, truth_values, rmse_value = score_predictions(
            cfg.build_truth(), test_inputs, cfg.build_simulator(), herded,
            seed=derive_seed(cfg.seed, "eval"),
        )

    for stage, seconds in timings.items():
        log.info("stage %-14s %8.3f s", stage, seconds)
    return CalibrationResult(
        **vars(prep),
        embedding=embedding,
        herded=herded,
        test_inputs=test_inputs,
        predictions=predictions,
        truth_values=truth_values,
        rmse=rmse_value,
        wall_clock=timings,
    )


def output_dir(cfg: ExperimentConfig) -> Path:
    """``cfg.out_dir``, created if missing, with the config written into it."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg.write_json(out / "config.json")
    return out


def run_calibration(cfg: ExperimentConfig) -> CalibrationResult:
    """Execute the pipeline, write all artifacts under cfg.out_dir, and
    return the result they were written from."""
    result = calibrate(cfg)
    config_hash = cfg.config_hash()
    out = output_dir(cfg)
    result.dataset.write_csv(out / "dataset.csv", config_hash)
    beta_rows = ([v] for v in np.asarray(result.beta))
    write_csv_rows(out / "weights.csv", config_hash, ["beta"], beta_rows)
    stamped = {**result.embedding.meta, "config_hash": config_hash}
    replace(result.embedding, meta=stamped).to_json(out / "embedding.json")
    result.herded.write_csv(out / "herded.csv", config_hash)
    write_csv_rows(
        out / "predictions.csv",
        config_hash,
        ["x"] + [f"y_{j}" for j in range(1, len(result.herded) + 1)] + ["mean"],
        ([x, *outputs, outputs.mean()]
         for x, outputs in zip(result.test_inputs, result.predictions)),
    )
    names = ("config.json", "dataset.csv", "weights.csv", "embedding.json", "herded.csv",
             "predictions.csv", "report.json")
    write_json_artifact(out / "report.json", {
        "rmse": result.rmse,
        "seed": cfg.seed,
        "config_hash": config_hash,
        "artifacts": {Path(name).stem: name for name in names},
        "stats": {
            "n": cfg.n,
            "m": cfg.m,
            "herd_size": cfg.herd_size,
            "weight_mode": cfg.weight_mode,
            "sigma2": result.embedding.meta["sigma2"],
            "sigma2_theta": result.embedding.kernel.sigma2,
            "epsilon": result.epsilon,
        },
    })
    return result


# -- MH baseline ------------------------------------------------------------


@dataclass(frozen=True)
class MHBaselineResult:
    trace: MHTrace
    acceptance_ratio: float
    budget: int     # simulator sweeps the chain consumed: every step, burn-in included
    rmse: float
    test_inputs: np.ndarray
    wall_clock: dict


def run_mh_baseline(
    cfg: ExperimentConfig, steps: int | None = None, dataset: Dataset | None = None
) -> MHBaselineResult:
    """Run the MH comparison on the configured problem and score it.

    The chain starts at the prior center and targets the weighted
    log-likelihood plus log-prior; predictions average the simulator
    over all post-burn-in states.
    """
    timings: dict = {}
    mh_cfg = cfg.mh_config(steps=steps, seed=derive_seed(cfg.seed, "mh"))
    sim = cfg.build_simulator()
    prior = cfg.build_prior()
    dataset, beta = weighted_dataset(cfg, dataset, timings)

    # One simulator realization for the whole chain: re-drawing noise per
    # evaluation would turn the cached-likelihood chain into a sticky
    # pseudo-marginal sampler, which is not the granted-likelihood setup.
    loglik = log_likelihood_sweep(
        dataset, beta, sim, noise_var=mh_cfg.noise_var, seed=derive_seed(cfg.seed, "mh-eval")
    )

    def target(theta: np.ndarray) -> float:
        log_prior = prior.log_pdf(theta)
        if not np.isfinite(log_prior):
            return -np.inf
        return loglik(theta) + log_prior

    with _timed(timings, "chain"):
        trace = mh_sample(target, prior.center(), mh_cfg)
    with _timed(timings, "prediction"):
        test_inputs = _test_inputs(cfg)
        _, _, rmse_value = score_predictions(
            cfg.build_truth(), test_inputs, sim, trace.post_burn_in,
            seed=derive_seed(cfg.seed, "mh-pred"),
        )

    for stage, seconds in timings.items():
        log.info("stage %-14s %8.3f s", stage, seconds)
    return MHBaselineResult(
        trace=trace,
        acceptance_ratio=trace.acceptance_ratio,
        budget=trace.steps,
        rmse=rmse_value,
        test_inputs=test_inputs,
        wall_clock=timings,
    )


def mh_acceptance_sweep(cfg: ExperimentConfig, proposal_stds, steps: int | None = None) -> list[dict]:
    """Acceptance ratio per proposal std; tuning aid, no adaptation."""
    cfg.mh_config()  # a config without an 'mh' section fails here, before any run
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
    if include_mh:
        cfg.mh_config()  # a config without an 'mh' section fails here, before any run
    rows = []
    for m in m_values:
        scores, mh_scores = [], []
        for trial in range(trials):
            run_cfg = cfg.replace(
                m=int(m), herd_size=int(m), seed=derive_seed(cfg.seed, "curve", int(m), trial)
            )
            result = calibrate(run_cfg)
            scores.append(result.rmse)
            if include_mh:
                mh_scores.append(
                    run_mh_baseline(run_cfg, steps=int(m), dataset=result.dataset).rmse
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
    # Point k runs on key stream_keys(seed, k): one sweep per training input.
    keys = stream_keys(seed, np.arange(len(points)))
    outputs = np.stack([sim.sweep([x], keys)(points) for x in dataset.x], axis=1)
    losses = weighted_residual_sum(outputs, dataset.y, beta)
    best = int(np.argmin(losses))
    if prior.dim > 2:
        return points[best], float(losses[best]), "prior-search", (), False
    idx = np.unravel_index(best, grids[0].shape)
    on_boundary = any(i in (0, grid_resolution - 1) for i in idx)
    step = tuple(float(ax[1] - ax[0]) for ax in axes)
    return points[best], float(losses[best]), "grid", step, on_boundary


def theorem1_check(cfg: ExperimentConfig, grid_resolution: int = 101) -> EquivalenceReport:
    """Compare the data-built embedding against the optimal-output one.

    Finds the prior-supported parameter minimizing the weighted squared
    error by brute force, simulates its outputs at the training inputs,
    and reports the kernel-space distance between the embedding built
    from the observed outputs and the one built from those optimal
    outputs.  The distance shrinking with m is the expected behavior.
    """
    prep = prepare(cfg)
    from_data = prep.embed()
    dataset = prep.dataset
    theta_star, loss_star, method, step, on_boundary = minimize_weighted_sse(
        cfg, dataset, prep.beta, grid_resolution=grid_resolution
    )
    if on_boundary:
        log.warning("weighted-error minimum sits on the search-grid boundary; refine the grid")

    sweep = cfg.build_simulator().sweep(dataset.x, derive_seed(cfg.seed, "oracle-outputs"))
    from_optimal = prep.embed(Dataset(dataset.x, sweep(theta_star), seed=dataset.seed))

    return EquivalenceReport(
        theta_star=tuple(float(v) for v in np.atleast_1d(theta_star)),
        loss_star=loss_star,
        method=method,
        grid_step=step,
        on_boundary=on_boundary,
        distance=embedding_distance(from_data, from_optimal),
        m=cfg.m,
        sigma2=from_data.meta["sigma2"],
        sigma2_theta=from_data.kernel.sigma2,
        epsilon=prep.epsilon,
    )


# -- plot data ----------------------------------------------------------------


def emit_plot_data(cfg: ExperimentConfig, grid_points: int = 121) -> Path:
    """Write predictive draws over an even input grid spanning q0 and q1,
    with the config and the dataset beside them."""
    result = calibrate(cfg)
    config_hash = cfg.config_hash()

    bounds = np.concatenate([cfg.q0_spec().search_box(3.0), cfg.q1_spec().search_box(3.0)])
    grid = np.linspace(bounds.min(), bounds.max(), grid_points)
    if cfg.simulator == "assembly":
        grid = grid[grid >= 1.0]

    predictions, truth_vals, _ = score_predictions(
        cfg.build_truth(), grid, cfg.build_simulator(), result.herded,
        seed=derive_seed(cfg.seed, "plot"),
    )
    out = output_dir(cfg)
    path = out / "plot_data.csv"
    write_csv_rows(
        path,
        config_hash,
        ["x", "truth", "pred_mean"] + [f"y_{j}" for j in range(1, len(result.herded) + 1)],
        ([x, tv, outputs.mean(), *outputs]
         for x, tv, outputs in zip(grid, truth_vals, predictions)),
    )
    result.dataset.write_csv(out / "dataset.csv", config_hash)
    return path
