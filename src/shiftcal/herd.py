"""Kernel herding: deterministic samples from a posterior embedding.

Herding greedily picks points whose empirical kernel mean tracks the
embedding.  The first point maximizes the embedding itself; point t
maximizes the embedding minus (1/t) times the summed kernel similarity
to the t-1 points already chosen.  The argmax runs over a finite
candidate pool that starts with the embedding's own prior draws, since
the simulator setting offers no gradients.  Points may repeat; repeat
frequencies carry probability mass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kabc import PosteriorEmbedding, embedding_distance
from .kern import matvec
from .sim import write_csv_rows
from .weights import count_entry, point_rows


@dataclass(frozen=True)
class CandidatePool:
    """Finite set of parameter vectors over which each argmax is taken."""

    points: np.ndarray

    def __post_init__(self):
        points = point_rows(self.points, "candidates")
        object.__setattr__(self, "points", points)
        if points.shape[0] < 1:
            raise ValueError("candidate pool must be non-empty")

    @classmethod
    def from_draws(cls, draws) -> "CandidatePool":
        """The pool of an embedding's draws; 1-d input is m one-parameter draws."""
        return cls(draws)

    @property
    def size(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class HerdedSamples:
    """Ordered herded parameters with their pool indices and step scores."""

    points: np.ndarray      # (T, d)
    indices: np.ndarray     # (T,) positions in the pool
    objectives: np.ndarray  # (T,) attained argmax values
    pool: CandidatePool

    def __post_init__(self):
        if not (len(self.points) == len(self.indices) == len(self.objectives)):
            raise ValueError("misaligned herded-sample fields")

    def __len__(self) -> int:
        return len(self.points)

    def write_csv(self, path, config_hash: str | None = None) -> None:
        """One parameter vector per row, in herding order."""
        header = [f"theta_{k}" for k in range(self.points.shape[1])]
        write_csv_rows(path, config_hash, header, self.points.tolist())


def herd(emb: PosteriorEmbedding, pool: CandidatePool, T: int) -> HerdedSamples:
    """Draw T deterministic samples from the embedding over the pool.

    The pool must start with the embedding's m draws, as every
    ``CandidatePool.from_draws`` pool does; any candidates after them are
    extra.  The pool Gram matrix comes from ``PosteriorEmbedding.gram``:
    the matrix the embedding carries when the pool is exactly its draws,
    else one theta pass over the pool.  Its first m columns, times the
    weights, give the embedding at every candidate.  Ties in the argmax
    break toward the lowest pool index.
    """
    T = count_entry("T", T, 1)
    if pool.points.shape[1] != emb.dim:
        raise ValueError(
            f"pool dimension {pool.points.shape[1]} does not match embedding dimension {emb.dim}"
        )
    if not np.array_equal(pool.points[: emb.m], emb.draws):
        raise ValueError("herding pool must start with the embedding's draws")
    pool_gram = emb.gram(pool.points)
    mean_vals = matvec(pool_gram[:, : emb.m], emb.weights)  # embedding at every candidate

    indices = np.empty(T, dtype=int)
    objectives = np.empty(T)
    repulsion = np.zeros(pool.size)                     # sum of k(candidate, chosen)
    scores = np.empty(pool.size)                        # mean_vals - repulsion / t
    for t in range(1, T + 1):
        np.divide(repulsion, t, out=scores)
        np.subtract(mean_vals, scores, out=scores)
        pick = int(scores.argmax())                     # first max = lowest index
        indices[t - 1] = pick
        objectives[t - 1] = scores[pick]
        repulsion += pool_gram[pick]                    # a row: the Gram matrix is symmetric
    return HerdedSamples(
        points=pool.points[indices],
        indices=indices,
        objectives=objectives,
        pool=pool,
    )


def herding_mmd(emb: PosteriorEmbedding, samples: HerdedSamples, t: int) -> float:
    """Kernel-space distance between the embedding and the first t samples.

    The ``embedding_distance`` from the embedding to the equal-weight
    expansion over the first t samples.
    """
    t = count_entry("t", t, 1, len(samples) + 1)
    chosen = PosteriorEmbedding(samples.points[:t], np.full(t, 1.0 / t), emb.kernel)
    return embedding_distance(emb, chosen)
