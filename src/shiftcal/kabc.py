"""Kernel ABC: from prior draws and simulations to a posterior embedding.

The posterior over simulator parameters is represented by its kernel
mean: a weighted expansion sum_j w_j k_Theta(., theta_j) over m prior
draws, where the weights come from the regularized Gram solve against
the observed data under the importance-weighted output kernel, with one
right-hand side per observed output vector (``build_embedding``, which
takes the (m, d) draws and the (m, n) outputs ``simulate_pseudo_outputs``
returns as plain arrays).  Weights may be negative and need not sum to
one; consumers use them as-is.  The prior is a
:class:`~shiftcal.weights.DensitySpec` over R^d (a diagonal normal or a
uniform box), the same type as the input densities.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ._seeding import SEED_RANGE, derive_rng, derive_seed, stream_keys
from .kern import (
    DegenerateBandwidthError,
    ParamKernel,
    WeightedOutputKernel,
    _mirror,
    _upper_gram,
    dgemv,
    regularized_solve,
)
from .sim import Simulator, SimulatorError, write_json_artifact
from .weights import (DensitySpec, ImportanceWeights, count_entry, finite_entries, point_rows,
                      real_array)


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
        draws = point_rows(self.draws, "embedding draws")
        weights = real_array(self.weights, "embedding weights")
        object.__setattr__(self, "draws", draws)
        object.__setattr__(self, "weights", weights)
        if weights.shape != (draws.shape[0],):
            raise ValueError(f"misaligned embedding: {draws.shape} vs {weights.shape}")
        count_entry("number of embedding draws", len(draws), 1)
        if not np.all(np.isfinite(weights)):
            raise ValueError("embedding weights contain non-finite entries")

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
            draws=payload["draws"],
            weights=payload["weights"],
            kernel=ParamKernel(payload["sigma2_theta"]),
            meta=payload.get("meta", {}),
        )


def sample_prior(prior: DensitySpec, m: int, seed: int) -> np.ndarray:
    """m i.i.d. parameter draws, reproducible under the seed."""
    m, seed = count_entry("m", m, 1), count_entry("seed", seed, *SEED_RANGE)
    return prior.sample(m, derive_rng(seed, "prior-draws"))


def simulate_pseudo_outputs(sim: Simulator, thetas, xs, seed: int) -> np.ndarray:
    """Simulator outputs (m, n) at every (prior draw, training input) pair.

    One sweep per training input i runs every draw j on its own stream,
    keyed ``stream_keys(derive_seed(seed, "pseudo"), j, i)``, so streams
    stay independent.
    """
    thetas, xs = point_rows(thetas, "prior draws"), real_array(xs, "training inputs")
    seed = count_entry("seed", seed, *SEED_RANGE)
    values = np.empty((thetas.shape[0], xs.size))
    by_draw = stream_keys(derive_seed(seed, "pseudo"), np.arange(len(thetas)))
    keys = stream_keys(by_draw, np.arange(xs.size)[:, None])  # row i: input i's keys
    for i, x in enumerate(xs):
        try:
            values[:, i] = sim.sweep([x], keys[i])(thetas)
        except Exception as exc:
            j = exc.row if isinstance(exc, SimulatorError) else None
            where = "" if j is None else f" for draw {j} (theta={thetas[j]})"
            raise RuntimeError(f"simulator failed at input {i} (x={x}){where}") from exc
    return point_rows(values, "pseudo-outputs")  # a non-finite output names its draw


def build_embedding(
    draws,
    outputs,
    observed,
    beta: ImportanceWeights,
    sigma2: float | None,
    sigma2_theta: float | None,
    epsilon: float,
    meta: dict | None = None,
) -> tuple[PosteriorEmbedding, ...]:
    """One embedding per vector in ``observed``, all from one Gram system.

    ``draws`` (m, d) are the prior draws, a 1-d vector m one-parameter
    draws, and ``outputs`` (m, n) their simulator outputs at the training
    inputs.  Only the right-hand sides depend on the observations, so the
    vectors share one output pass, one Gram solve and one theta pass.  A
    ``sigma2`` of None is the median heuristic, read from the output pass.
    The observed vectors, the fixed bandwidths and ``epsilon`` are checked
    before the output pass.  A data-kernel vector that is 0 everywhere
    raises ``DegenerateBandwidthError`` before the solve, which would
    return 0 weights.  The output pass forms G's upper triangle only, which
    is all the solve reads.  The weights are solved before the theta pass,
    which builds the theta Gram matrix the embeddings share in G's buffer
    and mirrors it, so a build allocates one m x m matrix; for a
    ``sigma2_theta`` of None it also gives the median over the prior
    draws.  The values used land in ``meta["sigma2"]`` and
    ``kernel.sigma2``.
    """
    draws, outputs = real_array(draws, "prior draws"), real_array(outputs, "pseudo-outputs")
    if draws.ndim not in (1, 2) or outputs.ndim != 2 or len(draws) != len(outputs):
        raise ValueError(f"misaligned pseudo-outputs: {draws.shape} vs {outputs.shape}")
    draws, outputs = point_rows(draws, "prior draws"), point_rows(outputs, "pseudo-outputs")
    count_entry("number of prior draws", len(draws), 1)
    observed = [real_array(y, "observed outputs") for y in observed]
    if not observed:
        raise ValueError("no observed output vectors")
    for y in observed:
        if y.shape != (outputs.shape[1],):
            raise ValueError(f"observed outputs must have length {outputs.shape[1]}, got {y.shape}")
        if not np.all(np.isfinite(y)):
            raise ValueError("observed outputs contain non-finite entries")
    for name, value in (("sigma2", sigma2), ("sigma2_theta", sigma2_theta)):
        if value is not None:
            finite_entries(name, value, "> 0", scalar=True)
    epsilon = finite_entries("epsilon", epsilon, "> 0", scalar=True)
    beta = ImportanceWeights.read(beta)
    gram, sigma2 = _upper_gram(outputs, sigma2, beta)
    kernel = WeightedOutputKernel(sigma2=sigma2, beta=beta)
    rhs = [kernel.against(outputs, y) for y in observed]
    for y, k in zip(observed, rhs):
        if not k.any():  # every weight would be 0, and herding would run on repulsion alone
            raise DegenerateBandwidthError(
                f"the data kernel is 0 at every pseudo-output (exp underflows): "
                f"sigma2 = {sigma2!r}, min_j ||o_j - y||^2_beta / (2 sigma2) = "
                f"{kernel._exponents(outputs, y).min():.6g}"
            )
    weights = regularized_solve(gram, rhs, epsilon)
    theta_gram, sigma2_theta = _upper_gram(draws, sigma2_theta, None, gram)  # in G's buffer
    _mirror(theta_gram)
    theta_kernel = ParamKernel(sigma2_theta)
    info = {"sigma2": sigma2, "epsilon": epsilon, "n": kernel.n, "m": len(draws), **(meta or {})}
    return tuple(
        PosteriorEmbedding(draws, w, theta_kernel, dict(info), theta_gram) for w in weights
    )


def embedding_distance(a: PosteriorEmbedding, b: PosteriorEmbedding) -> float:
    """Kernel-space norm of the difference of two embeddings.

    Both must have the same parameter dimension and kernel bandwidth.
    Computed as one quadratic form over the theta Gram matrix of the atoms:
    over shared atoms with the weight difference, which avoids
    cancellation, and the matrix either embedding carries
    (``PosteriorEmbedding.gram``); otherwise over both atom sets stacked
    with coefficients (w_a, -w_b).  Clamped at zero against round-off.
    """
    if a.dim != b.dim:
        raise ValueError(f"embedding dimension {a.dim} does not match embedding dimension {b.dim}")
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
    m = count_entry("m", m, 1)
    b = finite_entries("decay exponent", b, "> 0", scalar=True)
    if not b > 1:
        raise ValueError(f"decay exponent must exceed 1, got {b}")
    C = finite_entries("schedule constant", C, "> 0", scalar=True)
    return float(C * m ** (-b / (1.0 + 4.0 * b)))
