"""Kernel ABC: from prior draws and simulations to a posterior embedding.

The posterior over simulator parameters is represented by its kernel
mean: a weighted expansion sum_j w_j k_Theta(., theta_j) over m prior
draws, where the weights come from the regularized Gram solve against
the observed data under the importance-weighted output kernel.  Weights
may be negative and need not sum to one; consumers use them as-is.  The
prior is a :class:`~shiftcal.weights.DensitySpec` over R^d (a diagonal
normal or a uniform box), the same type as the input densities.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import dgemv

from ._seeding import derive_rng, derive_seed, stream_keys
from .kern import ParamKernel, WeightedOutputKernel, gaussian_gram, regularized_solve
from .sim import Dataset, Simulator, SimulatorError, write_json_artifact
from .weights import DensitySpec, ImportanceWeights


@dataclass(frozen=True)
class PseudoOutputs:
    """Simulated output vectors at the training inputs, one row per draw."""

    thetas: np.ndarray  # (m, d) parameter draws
    values: np.ndarray  # (m, n) simulator outputs

    def __post_init__(self):
        thetas = np.asarray(self.thetas, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "values", values)
        if thetas.ndim != 2 or values.ndim != 2 or thetas.shape[0] != values.shape[0]:
            raise ValueError(f"misaligned pseudo-outputs: {thetas.shape} vs {values.shape}")
        if not (np.all(np.isfinite(thetas)) and np.all(np.isfinite(values))):
            raise ValueError("pseudo-outputs contain non-finite entries")

    @property
    def m(self) -> int:
        return self.thetas.shape[0]


@dataclass(frozen=True)
class PosteriorEmbedding:
    """Kernel mean of the calibrated parameter posterior.

    Evaluating at theta gives sum_j weights[j] * k(theta, draws[j]).
    ``theta_gram``, when set, is ``kernel.gram(draws)``, kept from the pass
    that chose the bandwidth; it is not serialized.
    """

    draws: np.ndarray
    weights: np.ndarray
    kernel: ParamKernel
    meta: dict = field(default_factory=dict)
    theta_gram: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        draws = np.asarray(self.draws, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "draws", draws)
        object.__setattr__(self, "weights", weights)
        if draws.ndim != 2 or weights.shape != (draws.shape[0],):
            raise ValueError(f"misaligned embedding: {draws.shape} vs {weights.shape}")
        if not (np.all(np.isfinite(draws)) and np.all(np.isfinite(weights))):
            raise ValueError("embedding contains non-finite entries")

    @property
    def m(self) -> int:
        return self.draws.shape[0]

    @property
    def dim(self) -> int:
        return self.draws.shape[1]

    def gram(self, points) -> np.ndarray:
        """The theta kernel matrix over ``points``; the carried one over the draws."""
        if self.theta_gram is not None and np.array_equal(points, self.draws):
            return self.theta_gram
        return self.kernel.gram(points)

    def to_json(self, path=None) -> str:
        payload = {
            "draws": [[float(v) for v in row] for row in self.draws],
            "weights": [float(v) for v in self.weights],
            "sigma2_theta": self.kernel.sigma2,
            "meta": self.meta,
        }
        return write_json_artifact(path, payload)

    @classmethod
    def from_json(cls, text: str) -> "PosteriorEmbedding":
        """Load an embedding from the JSON text ``to_json`` writes."""
        payload = json.loads(text)
        return cls(
            draws=np.asarray(payload["draws"], dtype=float),
            weights=np.asarray(payload["weights"], dtype=float),
            kernel=ParamKernel(float(payload["sigma2_theta"])),
            meta=payload.get("meta", {}),
        )


def sample_prior(prior: DensitySpec, m: int, seed: int) -> np.ndarray:
    """m i.i.d. parameter draws, reproducible under the seed."""
    if m < 1:
        raise ValueError(f"need m >= 1 prior draws, got {m}")
    return prior.sample(m, derive_rng(seed, "prior-draws"))


def simulate_pseudo_outputs(sim: Simulator, thetas, xs, seed: int) -> PseudoOutputs:
    """Run the simulator at every (training input, prior draw) pair.

    One sweep per training input i runs every draw j on its own stream,
    keyed ``stream_keys(derive_seed(seed, "pseudo"), j, i)``, so streams
    stay independent.
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim == 1:
        thetas = thetas[:, None]
    xs = np.asarray(xs, dtype=float)
    values = np.empty((thetas.shape[0], xs.size))
    by_draw = stream_keys(derive_seed(seed, "pseudo"), np.arange(len(thetas)))
    for i, x in enumerate(xs):
        try:
            values[:, i] = sim.sweep([x], stream_keys(by_draw, i))(thetas)
        except Exception as exc:
            j = exc.row if isinstance(exc, SimulatorError) else None
            where = "" if j is None else f" for draw {j} (theta={thetas[j]})"
            raise RuntimeError(f"simulator failed at input {i} (x={x}){where}") from exc
    return PseudoOutputs(thetas=thetas, values=values)


def build_embedding(
    pseudo: PseudoOutputs,
    dataset: Dataset,
    beta: ImportanceWeights,
    sigma2: float | None,
    sigma2_theta: float | None,
    epsilon: float,
    meta: dict | None = None,
) -> PosteriorEmbedding:
    """Solve for the embedding weights given simulations and observations.

    A ``sigma2`` of None is the median heuristic, read from the one
    beta-weighted distance pass that builds the output Gram matrix.  The
    weights are solved, and that matrix freed, before the one theta pass:
    it gives the theta Gram matrix the embedding carries, and, for a
    ``sigma2_theta`` of None, the median over the prior draws.  The values
    used land in ``meta["sigma2"]`` and ``kernel.sigma2``.
    """
    beta = np.asarray(beta, dtype=float)
    gram, sigma2 = gaussian_gram(pseudo.values, sigma2, beta)
    kernel = WeightedOutputKernel(sigma2=sigma2, beta=beta)
    w = regularized_solve(gram, kernel.against(pseudo.values, dataset.y), epsilon)
    del gram  # so the output and theta matrices are never held together
    theta_gram, sigma2_theta = gaussian_gram(pseudo.thetas, sigma2_theta)
    info = {"sigma2": sigma2, "epsilon": epsilon, "n": dataset.n, "m": pseudo.m}
    if meta:
        info.update(meta)
    return PosteriorEmbedding(
        draws=pseudo.thetas,
        weights=w,
        kernel=ParamKernel(sigma2_theta),
        meta=info,
        theta_gram=theta_gram,
    )


def embedding_distance(a: PosteriorEmbedding, b: PosteriorEmbedding) -> float:
    """Kernel-space norm of the difference of two embeddings.

    Both must use the same parameter-kernel bandwidth.  Computed as one
    quadratic form over the theta Gram matrix of the atoms: over shared
    atoms with the weight difference, which avoids cancellation, and the
    matrix either embedding carries (``PosteriorEmbedding.gram``);
    otherwise over both atom sets stacked with coefficients (w_a, -w_b).
    Clamped at zero against round-off.
    """
    if a.kernel.sigma2 != b.kernel.sigma2:
        raise ValueError("embeddings use different parameter-kernel bandwidths")
    if a.draws.shape == b.draws.shape and np.array_equal(a.draws, b.draws):
        coef = a.weights - b.weights
        gram = (b if a.theta_gram is None else a).gram(a.draws)
    else:
        coef = np.concatenate([a.weights, -b.weights])
        gram = a.kernel.gram(np.vstack([a.draws, b.draws]))
    # coef @ gram on scipy's BLAS, bitwise as numpy forms it (trans=0 on the
    # Fortran-ordered view; ``kern.matvec`` is the gram @ coef form).
    sq = float(dgemv(1.0, gram.T, coef) @ coef)
    return float(np.sqrt(max(sq, 0.0)))


def regularization_schedule(m: int, b: float, C: float) -> float:
    """Decay schedule C * m**(-b / (1 + 4b)) for the Gram regularizer.

    ``b`` models how fast the output-kernel spectrum decays; larger b
    pushes the exponent toward -1/4.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if not b > 1:
        raise ValueError(f"decay exponent must exceed 1, got {b}")
    if not C > 0:
        raise ValueError(f"schedule constant must be positive, got {C}")
    return float(C * m ** (-b / (1.0 + 4.0 * b)))
