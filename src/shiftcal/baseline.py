"""Random-walk Metropolis-Hastings baseline.

The comparison sampler targets the importance-weighted Gaussian
likelihood times the prior.  Unlike the kernel pipeline it is handed the
observation-noise variance, a deliberate advantage; every MH step costs
one full simulator sweep over the training inputs, which is the unit
used for simulation-budget comparisons.  The chain holds one simulator
realization fixed, so the sweep's noise is drawn once per chain
(``log_likelihood_sweep``) and each step only transforms it by theta;
the budget still counts one sweep per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._seeding import SEED_RANGE, derive_rng, derive_seed
from .sim import Dataset, Simulator, write_csv_rows
from .weights import ImportanceWeights, count_entry, finite_entries


@dataclass(frozen=True)
class MHConfig:
    """Random-walk sampler settings."""

    proposal_std: float
    steps: int
    burn_in: float = 0.10
    noise_var: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name, label, bound in (("proposal_std", "proposal std", "> 0"),
                                   ("burn_in", "burn-in fraction", ""),
                                   ("noise_var", "noise variance", "> 0")):
            value = finite_entries(label, getattr(self, name), bound, scalar=True)
            object.__setattr__(self, name, value)
        if not 0 <= self.burn_in < 1:
            raise ValueError(f"burn-in fraction must lie in [0, 1), got {self.burn_in}")
        steps = count_entry("steps", self.steps)
        if steps < 1:
            raise ValueError(f"need at least one step, got {steps}")
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "seed", count_entry("seed", self.seed, *SEED_RANGE))


@dataclass(frozen=True)
class MHTrace:
    """Chain states after every step, plus acceptance bookkeeping."""

    states: np.ndarray      # (steps, d) current parameter after each step
    accepted: np.ndarray    # (steps,) bool
    burn_in_steps: int

    def __post_init__(self):
        if len(self.states) != len(self.accepted):
            raise ValueError("misaligned trace fields")
        if not 0 <= self.burn_in_steps <= len(self.states):
            raise ValueError(f"burn-in steps {self.burn_in_steps} out of range")

    @property
    def steps(self) -> int:
        return len(self.states)

    @property
    def acceptance_count(self) -> int:
        return int(np.sum(self.accepted))

    @property
    def acceptance_ratio(self) -> float:
        return self.acceptance_count / self.steps

    @property
    def post_burn_in(self) -> np.ndarray:
        return self.states[self.burn_in_steps :]

    def write_csv(self, path, config_hash: str | None = None) -> None:
        header = ["step"] + [f"theta_{k}" for k in range(self.states.shape[1])] + ["accepted"]
        steps = enumerate(zip(self.states.tolist(), self.accepted.tolist()), start=1)
        rows = ([s, *state, int(acc)] for s, (state, acc) in steps)
        write_csv_rows(path, config_hash, header, rows)


def weighted_residual_sum(outputs, y, beta):
    """sum_i beta_i (y_i - outputs_i)^2, the importance-weighted squared error.

    Summed along the last axis, so ``outputs`` may hold one vector per row.
    """
    residuals = y - outputs
    return np.sum(np.asarray(beta, dtype=float) * residuals * residuals, axis=-1)


def log_likelihood_sweep(
    dataset: Dataset,
    beta: ImportanceWeights,
    sim: Simulator,
    noise_var: float,
    seed: int = 0,
) -> Callable[[np.ndarray], float]:
    """``weighted_log_likelihood`` as a function of theta alone.

    The simulator sweep over the training inputs is built once, so its
    noise is drawn once and every call only transforms it.
    """
    if not noise_var > 0:
        raise ValueError(f"noise variance must be positive, got {noise_var}")
    outputs = sim.sweep(dataset.x, derive_seed(count_entry("seed", seed, *SEED_RANGE), "loglik"))
    return lambda theta: -weighted_residual_sum(outputs(theta), dataset.y, beta) / (2.0 * noise_var)


def weighted_log_likelihood(
    theta,
    dataset: Dataset,
    beta: ImportanceWeights,
    sim: Simulator,
    noise_var: float,
    seed: int = 0,
) -> float:
    """Log of the importance-weighted Gaussian likelihood, up to a constant.

    -sum_i beta_i (y_i - r(x_i, theta))^2 / (2 noise_var), with one
    simulator sweep over the training inputs.
    """
    return log_likelihood_sweep(dataset, beta, sim, noise_var, seed)(theta)


def mh_sample(target: Callable[[np.ndarray], float], init, cfg: MHConfig) -> MHTrace:
    """Random-walk MH with an isotropic Gaussian proposal.

    ``target`` returns the unnormalized log density (log-likelihood plus
    log-prior); -inf rejects a proposal outright, which is how bounded
    priors exclude out-of-support moves.  The current log density is
    cached, so each step makes exactly one target evaluation.
    """
    current = np.atleast_1d(np.asarray(init, dtype=float))
    current_logp = target(current)
    if not np.isfinite(current_logp):
        raise ValueError(f"target is not finite at the initial point {current}")

    rng = derive_rng(cfg.seed, "mh-chain")
    dim = current.size
    states = np.empty((cfg.steps, dim))
    accepted = np.zeros(cfg.steps, dtype=bool)
    for s in range(cfg.steps):
        proposal = current + cfg.proposal_std * rng.standard_normal(dim)
        proposal_logp = target(proposal)
        if np.log(rng.uniform()) < proposal_logp - current_logp:
            current = proposal
            current_logp = proposal_logp
            accepted[s] = True
        states[s] = current
    return MHTrace(
        states=states,
        accepted=accepted,
        burn_in_steps=int(np.floor(cfg.steps * cfg.burn_in)),
    )

