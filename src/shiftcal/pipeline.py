"""End-to-end experiment stages: calibrate, score, sweep, and check.

Everything here is deterministic given the config's master seed: each
stage pulls from its own derived stream.  Artifacts are CSV and JSON
only, every one stamped with the config hash.  Wall-clock timings are
reported in memory and logged but never serialized, so artifact files
are byte-identical across repeated runs.

Every entry point takes the front half of a run (dataset, weights, and
the prior draws and their pseudo-outputs as plain arrays) from
``prepare``, or only the dataset and weights from its first half,
``weighted_dataset``.  Median bandwidths are not a stage of their own:
the embedding step reads each from the distances its kernel matrix is
built from, and ``Prepared.embed`` solves one Gram system for any number
of observed vectors.  Scorers take plain (T, d) sample arrays: the
herded points or the MH chain's post-burn-in states.  Each stream tag is
derived from a run's seed in exactly one place:

- ``"dataset"``: ``weighted_dataset``
- ``"prior"``, ``"pseudo"``: ``prepare``
- ``"test"``: ``_test_inputs`` (for ``calibrate`` and ``run_mh_baseline``)
- ``"eval"``: ``_score``, the one scoring seed of ``calibrate``,
  ``run_mh_baseline`` and ``emit_plot_data``, so all three score against
  one truth realization
- ``"mh"``, ``"mh-eval"``: ``run_mh_baseline``
- ``"curve"``: ``rmse_curve``, which derives each trial's seed
- ``"oracle-search"``: ``minimize_weighted_sse``

Checks come before work.  An entry point reads its counts and builds
every config it will run (for a multi-run ``study``, every cell's)
before its first stage, so a bad argument is a ``ValueError`` that no
work precedes.  All work runs in named ``_timed`` stages, and a failure
in one is a ``StageError``, a ``RuntimeError`` that names the stage.
"""

from __future__ import annotations

import contextlib
import logging
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ._seeding import derive_rng, derive_seed
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
    build_embedding,
    embedding_distance,
    sample_prior,
    simulate_pseudo_outputs,
)
from .predict import generate_test_inputs, score_predictions
from .sim import Dataset, SimulatorError, generate_dataset, write_csv_rows, write_json_artifact
from .weights import (
    ImportanceWeights,
    count_entry,
    finite_entries,
    importance_weights,
    ordinary_weights,
)

log = logging.getLogger("shiftcal")


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name for context."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage


@dataclass
class Prepared:
    """The front half of a run: everything the embedding is built from.

    ``draws`` (m, d) are the prior draws, which are also the herding
    candidates, and ``outputs`` (m, n) their pseudo-outputs at the training
    inputs.  ``bandwidth`` is the config's fixed (sigma2,
    sigma2_theta), or None under the median heuristic, which each ``embed``
    resolves; the embeddings record the values used.
    """

    dataset: Dataset
    beta: ImportanceWeights
    draws: np.ndarray
    outputs: np.ndarray
    bandwidth: tuple[float, float] | None
    epsilon: float

    def embed(self, *ys, meta: dict | None = None) -> tuple[PosteriorEmbedding, ...]:
        """One posterior embedding per output vector in ``ys`` (default: ``dataset.y``)."""
        return build_embedding(
            self.draws, self.outputs, ys or (self.dataset.y,), self.beta,
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
    """Run one stage: any failure in it is a ``StageError``, and its seconds
    are recorded in ``timings`` and logged as it ends."""
    start = time.perf_counter()
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(stage, exc) from exc
    finally:
        timings[stage] = time.perf_counter() - start
        log.info("stage %-14s %8.3f s", stage, timings[stage])


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
        draws = sample_prior(cfg.build_prior(), cfg.m, derive_seed(cfg.seed, "prior"))
    with _timed(timings, "pseudo-outputs"):
        outputs = simulate_pseudo_outputs(
            cfg.build_simulator(), draws, dataset.x, derive_seed(cfg.seed, "pseudo")
        )
    return Prepared(dataset, beta, draws, outputs, cfg.fixed_bandwidth(), cfg.resolve_epsilon())


def _test_inputs(cfg: ExperimentConfig) -> np.ndarray:
    return generate_test_inputs(cfg.test_density(), cfg.n_test, derive_seed(cfg.seed, "test"))


def _score(cfg: ExperimentConfig, inputs, samples: np.ndarray):
    """``score_predictions`` of the (T, d) ``samples`` at ``inputs``, on the
    run's one scoring seed: every entry point scores against one truth."""
    return score_predictions(
        cfg.build_truth(), inputs, cfg.build_simulator(), samples,
        seed=derive_seed(cfg.seed, "eval"),
    )


def calibrate(cfg: ExperimentConfig, dataset: Dataset | None = None) -> CalibrationResult:
    """Run the full pipeline in memory and return all intermediates."""
    timings: dict = {}
    prep = prepare(cfg, dataset, timings)
    with _timed(timings, "embedding"):
        (embedding,) = prep.embed(meta={"seed": cfg.seed, "weight_mode": cfg.weight_mode})
    with _timed(timings, "herding"):
        herded = herd(embedding, CandidatePool.from_draws(embedding.draws), cfg.herd_size)
    with _timed(timings, "prediction"):
        test_inputs = _test_inputs(cfg)
        predictions, truth_values, rmse_value = _score(cfg, test_inputs, herded.points)
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
    """``cfg.out_dir``, created if missing, with the config written into it.

    A directory that cannot be made or written is a ``ValueError``;
    ``run_calibration`` and ``emit_plot_data`` meet it before their first stage.
    """
    out = Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        cfg.write_json(out / "config.json")
    except OSError as exc:
        raise ValueError(f"output directory {str(out)!r}: {exc.strerror or exc}") from exc
    return out


def run_calibration(cfg: ExperimentConfig) -> CalibrationResult:
    """Execute the pipeline, write all artifacts under cfg.out_dir, and
    return the result they were written from."""
    out = output_dir(cfg)
    result = calibrate(cfg)
    config_hash = cfg.config_hash()
    result.dataset.write_csv(out / "dataset.csv", config_hash)
    beta_rows = np.asarray(result.beta)[:, None].tolist()
    write_csv_rows(out / "weights.csv", config_hash, ["beta"], beta_rows)
    stamped = {**result.embedding.meta, "config_hash": config_hash}
    replace(result.embedding, meta=stamped).to_json(out / "embedding.json")
    result.herded.write_csv(out / "herded.csv", config_hash)
    preds = result.predictions
    write_csv_rows(
        out / "predictions.csv",
        config_hash,
        ["x"] + [f"y_{j}" for j in range(1, len(result.herded) + 1)] + ["mean"],
        np.column_stack((result.test_inputs, preds, preds.mean(axis=1))).tolist(),
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
    over all post-burn-in states, scored as ``calibrate`` scores (``_score``).
    """
    timings: dict = {}
    mh_cfg = cfg.mh_config(steps=steps, seed=derive_seed(cfg.seed, "mh"))
    prior = cfg.build_prior()
    dataset, beta = weighted_dataset(cfg, dataset, timings)

    def target(theta: np.ndarray) -> float:
        log_prior = prior.log_pdf(theta)
        if not np.isfinite(log_prior):
            return -np.inf
        return loglik(theta) + log_prior

    with _timed(timings, "chain"):
        # One simulator realization for the whole chain: re-drawing noise per
        # evaluation would turn the cached-likelihood chain into a sticky
        # pseudo-marginal sampler, which is not the granted-likelihood setup.
        loglik = log_likelihood_sweep(dataset, beta, cfg.build_simulator(), mh_cfg.noise_var,
                                      seed=derive_seed(cfg.seed, "mh-eval"))
        trace = mh_sample(target, prior.center(), mh_cfg)
    with _timed(timings, "prediction"):
        test_inputs = _test_inputs(cfg)
        _, _, rmse_value = _score(cfg, test_inputs, trace.post_burn_in)
    return MHBaselineResult(
        trace=trace,
        acceptance_ratio=trace.acceptance_ratio,
        budget=trace.steps,
        rmse=rmse_value,
        test_inputs=test_inputs,
        wall_clock=timings,
    )


# -- multi-run studies --------------------------------------------------------


def study(cells, measure) -> list[dict]:
    """One row per cell of a multi-run study: the cell's key columns, then
    the columns ``measure(configs)`` returns for the cell's configs.

    ``cells`` yields (key columns, list of configs) pairs.  Every cell is
    built before the first run, so a config that fails to build fails
    before any work.
    """
    cells = list(cells)
    return [{**keys, **measure(configs)} for keys, configs in cells]


def mh_acceptance_sweep(cfg: ExperimentConfig, proposal_stds, steps: int | None = None) -> list[dict]:
    """Acceptance ratio per proposal std; tuning aid, no adaptation."""
    cfg.mh_config(steps=steps)  # no 'mh' section or a bad step count fails here
    proposal_stds = finite_entries("proposal_stds", proposal_stds, "> 0")

    def measure(configs) -> dict:
        (swept,) = configs
        result = run_mh_baseline(swept, steps=steps)
        return {"acceptance_ratio": result.acceptance_ratio, "rmse": result.rmse,
                "budget": result.budget}

    cells = [({"proposal_std": std}, [cfg.replace(mh={**cfg.mh, "proposal_std": std})])
             for std in proposal_stds]
    return study(cells, measure)


def rmse_curve(cfg: ExperimentConfig, m_values, trials: int, include_mh: bool = False) -> list[dict]:
    """Mean and spread of RMSE per simulation budget.

    Each (m, trial) run is the full pipeline under a derived seed; the herd
    size follows m.  With ``include_mh`` the MH baseline runs at the same
    budget (m chain steps) on the same per-trial data.  A budget the
    config rejects (m < 2 under the median bandwidth) fails before any work.
    """
    trials = count_entry("trials", trials, 1)
    if include_mh:
        cfg.mh_config()  # a config without an 'mh' section fails here, before any run

    def run_trial(run_cfg: ExperimentConfig) -> tuple:
        """(RMSE, MH RMSE or None) of one run; its result, which holds an m x m
        theta Gram matrix, is freed on return."""
        result = calibrate(run_cfg)
        if not include_mh:
            return result.rmse, None
        return result.rmse, run_mh_baseline(run_cfg, steps=run_cfg.m, dataset=result.dataset).rmse

    def measure(run_cfgs) -> dict:
        scores, mh_scores = zip(*map(run_trial, run_cfgs))
        row = {"rmse_mean": float(np.mean(scores)), "rmse_std": float(np.std(scores)),
               "trials": trials}
        if include_mh:
            row.update(mh_budget=run_cfgs[0].m, mh_rmse_mean=float(np.mean(mh_scores)),
                       mh_rmse_std=float(np.std(mh_scores)))
        return row

    def trial_cfg(m: int, trial: int) -> ExperimentConfig:
        return cfg.replace(m=m, herd_size=m, seed=derive_seed(cfg.seed, "curve", m, trial))

    budgets = [count_entry("m", m, 1) for m in m_values]
    cells = [({"m": m}, [trial_cfg(m, k) for k in range(trials)]) for m in budgets]
    return study(cells, measure)


# -- embedding-target equivalence check ---------------------------------------


def minimize_weighted_sse(
    cfg: ExperimentConfig,
    dataset: Dataset,
    beta: ImportanceWeights,
    grid_resolution: int = 101,
    search_draws: int = 4096,
):
    """Brute-force minimizer of the weighted squared error over the prior.

    Dense grid over the prior's box for dimension <= 2, otherwise a
    prior-sample search, every candidate on the one simulator realization
    ``sim.sweep(dataset.x, seed)`` draws (common random numbers).  Returns
    (search, outputs): ``search`` holds ``theta_star``, ``loss_star`` (the
    weighted squared error of ``outputs``, theta_star's outputs on that
    realization), ``method``, ``grid_step`` and ``on_boundary``, as JSON values.
    """
    grid_resolution = count_entry("grid_resolution", grid_resolution, 2)
    search_draws = count_entry("search_draws", search_draws, 1)
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
    outputs = np.stack([sim.sweep([x], seed)(points) for x in dataset.x], axis=1)
    losses = weighted_residual_sum(outputs, dataset.y, beta)
    best = int(np.argmin(losses))
    search = {"theta_star": tuple(points[best].tolist()), "loss_star": float(losses[best]),
              "method": "prior-search", "grid_step": (), "on_boundary": False}
    if prior.dim <= 2:
        idx = np.unravel_index(best, grids[0].shape)
        search.update(method="grid", grid_step=tuple(float(ax[1] - ax[0]) for ax in axes),
                      on_boundary=any(i in (0, grid_resolution - 1) for i in idx))
    return search, outputs[best]


def theorem1_check(cfg: ExperimentConfig, grid_resolution: int = 101) -> dict:
    """Compare the data-built embedding against the optimal-output one.

    Finds the prior-supported parameter minimizing the weighted squared
    error by brute force and reports the kernel-space distance between the
    embedding built from the observed outputs and the one built from the
    outputs that won the search, whose weighted squared error is
    ``loss_star``.  The distance shrinking with m is the expected behavior.
    Both are right-hand sides of one Gram system, so the check makes the
    passes ``calibrate`` makes: one output, one Gram solve and one theta.

    Returns the search entries of ``minimize_weighted_sse`` plus
    ``distance``, ``m``, ``sigma2``, ``sigma2_theta`` and ``epsilon``: the
    JSON object ``theorem1.json`` holds, without its stamp.
    """
    count_entry("grid_resolution", grid_resolution, 2)  # before any work
    timings: dict = {}
    prep = prepare(cfg, timings=timings)
    with _timed(timings, "oracle-search"):
        search, optimal = minimize_weighted_sse(
            cfg, prep.dataset, prep.beta, grid_resolution=grid_resolution
        )
    if search["on_boundary"]:
        log.warning("weighted-error minimum sits on the search-grid boundary; refine the grid")
    with _timed(timings, "embedding"):
        from_data, from_optimal = prep.embed(prep.dataset.y, optimal)
        distance = embedding_distance(from_data, from_optimal)
    return {**search, "distance": distance, "m": cfg.m, "sigma2": from_data.meta["sigma2"],
            "sigma2_theta": from_data.kernel.sigma2, "epsilon": prep.epsilon}


# -- plot data ----------------------------------------------------------------


def emit_plot_data(cfg: ExperimentConfig, grid_points: int = 121) -> Path:
    """Write predictive draws over an even input grid spanning q0 and q1,
    with the config and the dataset beside them.  A grid point the
    simulator rejects fails before any stage."""
    grid_points = count_entry("grid_points", grid_points, 1)
    bounds = np.concatenate([cfg.q0_spec().search_box(3.0), cfg.q1_spec().search_box(3.0)])
    grid = np.linspace(bounds.min(), bounds.max(), grid_points)
    try:
        cfg.build_simulator().check_inputs(grid)
    except SimulatorError as exc:
        raise ValueError(f"plot grid: {exc}") from exc
    out = output_dir(cfg)
    result = calibrate(cfg)
    config_hash = cfg.config_hash()
    with _timed(result.wall_clock, "plot-scoring"):
        predictions, truth_vals, _ = _score(cfg, grid, result.herded.points)
    path = out / "plot_data.csv"
    write_csv_rows(
        path,
        config_hash,
        ["x", "truth", "pred_mean"] + [f"y_{j}" for j in range(1, len(result.herded) + 1)],
        np.column_stack((grid, truth_vals, predictions.mean(axis=1), predictions)).tolist(),
    )
    result.dataset.write_csv(out / "dataset.csv", config_hash)
    return path
