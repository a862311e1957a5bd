"""shiftcal: calibrate black-box simulators under covariate shift.

The pipeline estimates a posterior over simulator parameters without a
likelihood: prior draws are pushed through the simulator at the training
inputs, compared to the observed outputs under an importance-weighted
Gaussian kernel, and combined into a kernel mean embedding by a
regularized Gram solve.  Deterministic herding turns the embedding into
parameter samples, and running the simulator at those samples gives
push-forward predictions tuned to the test input distribution.
"""

from .baseline import MHConfig, MHTrace, mh_sample, weighted_log_likelihood
from .config import PRESETS, ExperimentConfig, preset
from .herd import CandidatePool, HerdedSamples, herd, herding_mmd
from .kabc import (
    PosteriorEmbedding,
    build_embedding,
    embedding_distance,
    regularization_schedule,
    sample_prior,
    simulate_pseudo_outputs,
)
from .kern import (
    DegenerateBandwidthError,
    ParamKernel,
    SolveError,
    WeightedOutputKernel,
    gram_and_rhs,
    median_heuristic,
    regularized_solve,
)
from .pipeline import (
    CalibrationResult,
    Prepared,
    calibrate,
    emit_plot_data,
    prepare,
    rmse_curve,
    run_calibration,
    run_mh_baseline,
    theorem1_check,
)
from .predict import generate_test_inputs, predict, score_predictions
from .sim import (
    AssemblyLineSimulator,
    DataGeneratingProcess,
    Dataset,
    LinearSimulator,
    PiecewiseTruth,
    Simulator,
    SimulatorError,
    cubic_truth,
    generate_dataset,
    get_simulator,
)
from .weights import (
    DegenerateWeightError,
    DensitySpec,
    ImportanceWeights,
    importance_weights,
    ordinary_weights,
)

__version__ = "0.1.0"
