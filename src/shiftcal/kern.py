"""Kernels, bandwidth selection, and the regularized Gram solve.

Two Gaussian-type kernels drive the calibration: one on parameter
vectors, and one on length-n output vectors whose squared distance is
importance-weighted coordinate-wise, so output discrepancies at inputs
that matter for the test distribution count for more.

All pairwise squared distances come from ``pairwise_sqdist``: one BLAS
rank-k update over the centred, weighted rows, exactly symmetric with an
exactly zero diagonal, accurate to rounding in the centred norms (see its
docstring); it touches the whole matrix only in the block loop that adds
the norms, clamps at 0 and mirrors.  The median heuristic takes the lower
middle pair distance from one triangle of that matrix, m(m-1)/2 entries
copied into one buffer and partitioned in place, so no flattened copy of
the matrix is made.  Every kernel matrix comes from ``gaussian_gram``: one
distance pass, the median read from it when no bandwidth is given, then
the Gaussian formed in its buffer, so no distance matrix leaves the
function.  A run makes one output pass and one theta pass: the output
Gram matrix is solved and freed first, then one theta pass gives both the
theta median and the theta Gram matrix, which the embedding carries to
herding (its pool Gram matrix, from which it also reads the embedding at
every candidate) and to ``embedding_distance``.  A herding pool with
candidates after the draws, which no run builds, gets its own theta
matrix (``ParamKernel.gram``).  ``ParamKernel.cross``, the kernel between
two point sets, is never called by a run; the tests evaluate embeddings
with it.

The solve passes plain arrays: ``gram_and_rhs`` returns the Gram matrix G
and the data-kernel vector k, and ``regularized_solve(G, k, eps)`` returns
the weights w of (G + m eps I) w = k (the kernel Bayes' rule step), one
row of w per row of a (k, m) stack k, all from one factorization.  The
factor is made in G's own buffer, which the solve consumes, so a run
holds one m x m matrix at the solve.

Every matrix product on the way from the distances to the herded samples
(the rank-k update in ``pairwise_sqdist``, the solve's residual, herding's
read of the embedding) runs on scipy's BLAS, the library that also does
the Cholesky factorization.  numpy and scipy each load their own OpenBLAS;
after a numpy product, numpy's idle worker threads keep spinning and slow
the factorization that follows (measured on 2 cores: a 2000 x 2000
``cho_factor`` took 120-130 ms in the median straight after a numpy
product, 62-65 ms after scipy's own ``dsyrk``).  Each scipy call whose
result is kept is chosen to give numpy's bits: ``dsyrk`` for A A^T, and
``dgemv`` on the Fortran-ordered view ``A.T`` (``matvec``).  The solve's
residual is ``dsymv`` over the triangle of G that the factor leaves; its
last bits can differ from a full product, and they reach the weights only
through a refinement, which no shipped preset runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.blas import dgemv, dsymv, dsyrk

from .weights import point_rows

SOLVE_RTOL = 1e-10
# Rows per block of ``pairwise_sqdist``'s symmetrizing pass; 128 was fastest
# of 64-512 at m = 2000 on 2 cores.
_SQDIST_BLOCK = 128
_BLOCK_TRIL = np.tril_indices(_SQDIST_BLOCK, -1)


class DegenerateBandwidthError(ValueError):
    """Median pairwise distance is zero; no usable bandwidth exists."""


class SolveError(RuntimeError):
    """Regularized Gram system could not be solved to tolerance."""


def pairwise_sqdist(vectors, weights=None) -> np.ndarray:
    """All-pairs (weighted) squared Euclidean distances, in one BLAS pass.

    Rows are centred on their column means (distances are shift-invariant,
    and centring keeps the norms, hence the cancellation, small), then
    scaled by sqrt(weights).  d_ij = |a_i|^2 + |a_j|^2 - 2 a_i.a_j is read
    from one rank-k update -2 A A^T (``dsyrk``, lower triangle only), norms
    taken from its diagonal; each block of rows is clamped at 0 as it is
    formed, then mirrored.  The result is exactly symmetric with an exactly
    zero diagonal, and scaled rows that compare equal are exactly 0 apart:
    a count of distinct row bytes finds whether any row repeats, and only
    then are the equal pairs found and zeroed.  The absolute error of an
    entry is a small multiple of n * machine-eps * (|a_i|^2 + |a_j|^2) for
    the centred rows; on unimodal data such as the shipped presets' outputs
    that is below 1e-12 times the median distance (measured: ~1e-14).
    """
    mat = point_rows(vectors)
    mat = mat - mat.mean(axis=0)
    if weights is not None:
        w = np.asarray(weights, dtype=float)
        if w.shape != (mat.shape[1],):
            raise ValueError(f"weight length {w.shape} does not match vector length {mat.shape[1]}")
        mat *= np.sqrt(w)
    # dsyrk fills the lower triangle of its Fortran-ordered result, so the
    # transpose is C-ordered with -2 a_i.a_j on and above the diagonal.
    # Each block of rows gets n_i + n_j (formed first, in one buffer reused
    # by every block, so each entry is bitwise what numpy's (-2 A A^T) +
    # (n_i + n_j) gives), is clamped at 0, then is mirrored below the
    # diagonal, which makes the matrix exactly symmetric.  Blocks keep the
    # transposed copy in cache; a whole-matrix transposed add took twice as
    # long.
    out = dsyrk(-2.0, mat.T, trans=1, lower=1).T
    m = len(out)
    norms = out.diagonal() / -2.0
    sums = np.empty((min(m, _SQDIST_BLOCK), m))
    for i in range(0, m, _SQDIST_BLOCK):
        rows = slice(i, i + _SQDIST_BLOCK)
        block = out[rows, i:]
        block += np.add.outer(norms[rows], norms[i:], out=sums[: len(block), : m - i])
        np.maximum(block, 0.0, out=block)
        out[i + _SQDIST_BLOCK:, rows] = out[rows, i + _SQDIST_BLOCK:].T
        diag = out[rows, rows]
        lower = _BLOCK_TRIL if len(diag) == _SQDIST_BLOCK else np.tril_indices(len(diag), -1)
        diag[lower] = diag.T[lower]
    np.fill_diagonal(out, 0.0)
    # The BLAS may sum a_i.a_i and a_i.a_j in different orders, so equal rows
    # are set to 0 explicitly.  Counting distinct row bytes is cheap; adding
    # 0.0 turns -0.0 into 0.0, so rows that compare equal have equal bytes.
    # Only when some row repeats does the float-wise ``np.unique`` run.
    plain = mat + 0.0
    row_bytes = plain.view(np.dtype((np.void, plain.itemsize * plain.shape[1])))
    if len(np.unique(row_bytes)) < len(mat):
        rows = np.unique(mat, axis=0, return_inverse=True)[1]
        out[rows[:, None] == rows[None, :]] = 0.0
    return out


def median_sqdist(sqdist: np.ndarray) -> float:
    """Lower median of the pairwise distances in a ``pairwise_sqdist`` matrix.

    Over an even pair count this is the lower middle value, so the result
    is always an attained distance and runs are deterministic.  Each pair
    is read once: the strict upper triangle, m(m-1)/2 entries, is copied
    row by row into one buffer, which is partitioned in place at the lower
    middle index.  That is half the entries of the matrix, and no flattened
    copy of it is made.
    """
    m = sqdist.shape[0]
    if m < 2:
        raise ValueError(f"median heuristic needs at least 2 vectors, got {m}")
    pairs = np.concatenate([sqdist[i, i + 1:] for i in range(m - 1)])
    k = (len(pairs) - 1) // 2
    pairs.partition(k)
    sigma2 = float(pairs[k])
    if sigma2 <= 0:
        raise DegenerateBandwidthError(
            "median pairwise squared distance is zero; points are (mostly) duplicated"
        )
    return sigma2


def median_heuristic(vectors, weights=None) -> float:
    """Bandwidth sigma^2 = lower median of pairwise (weighted) squared distances."""
    return median_sqdist(pairwise_sqdist(vectors, weights))


def matvec(mat, vec) -> np.ndarray:
    """``mat @ vec`` on scipy's BLAS, bitwise what numpy's product gives.

    ``dgemv`` on the transposed (Fortran-ordered, so uncopied) view with
    ``trans=1`` runs numpy's kernel; ``trans=0`` on ``mat`` itself does not.
    """
    return dgemv(1.0, mat.T, vec, trans=1)


def _check_bandwidth(sigma2) -> None:
    if not 0 < sigma2 < np.inf:
        raise ValueError(f"kernel bandwidth must be positive and finite, got {sigma2}")


def gaussian_gram(vectors, sigma2=None, weights=None) -> tuple[np.ndarray, float]:
    """exp(-d_ij / (2 sigma2)) over ``pairwise_sqdist(vectors, weights)``, and sigma2.

    A ``sigma2`` of None is the median heuristic, read from the same
    distance matrix.  The Gaussian is formed in that matrix's buffer, so a
    zero diagonal becomes exactly 1 and symmetry carries over exactly.
    """
    gram = pairwise_sqdist(vectors, weights)
    if sigma2 is None:
        sigma2 = median_sqdist(gram)
    else:
        _check_bandwidth(sigma2)
    np.divide(gram, -2.0 * sigma2, out=gram)
    return np.exp(gram, out=gram), sigma2


@dataclass(frozen=True)
class ParamKernel:
    """Gaussian kernel on parameter space: exp(-||a - b||^2 / (2 sigma2))."""

    sigma2: float

    def __post_init__(self):
        _check_bandwidth(self.sigma2)

    def cross(self, left, right) -> np.ndarray:
        """Kernel matrix between two point collections, shape (len(left), len(right))."""
        left, right = point_rows(left), point_rows(right)
        if left.shape[1] != right.shape[1]:
            raise ValueError(f"parameter dimension mismatch: {left.shape[1]} vs {right.shape[1]}")
        sq = (
            np.einsum("ij,ij->i", left, left)[:, None]
            + np.einsum("ij,ij->i", right, right)[None, :]
            - 2.0 * left @ right.T
        )
        np.maximum(sq, 0.0, out=sq)
        return np.exp(-sq / (2.0 * self.sigma2))

    def gram(self, points) -> np.ndarray:
        return gaussian_gram(points, self.sigma2)[0]


@dataclass(frozen=True)
class WeightedOutputKernel:
    """Gaussian kernel on output vectors with importance-weighted distance.

    k(Ya, Yb) = exp(-(1 / 2 sigma2) * sum_i beta_i (Ya_i - Yb_i)^2).
    With beta identically 1 this is the plain Gaussian kernel on R^n.
    """

    sigma2: float
    beta: np.ndarray

    def __post_init__(self):
        _check_bandwidth(self.sigma2)
        beta = np.asarray(self.beta, dtype=float)
        object.__setattr__(self, "beta", beta)
        if beta.ndim != 1 or not np.all(np.isfinite(beta)) or np.any(beta < 0):
            raise ValueError("importance weights must be a finite non-negative vector")

    @property
    def n(self) -> int:
        return self.beta.size

    def gram(self, outputs) -> np.ndarray:
        """Kernel matrix over pseudo-output rows, exactly symmetric, unit diagonal."""
        return gaussian_gram(self._check_outputs(outputs), self.sigma2, self.beta)[0]

    def against(self, outputs, observed) -> np.ndarray:
        """Vector of kernel values between each pseudo-output row and the data."""
        outputs = self._check_outputs(outputs)
        observed = np.asarray(observed, dtype=float)
        if observed.shape != (self.n,):
            raise ValueError(f"observed outputs must have length {self.n}, got {observed.shape}")
        diff = outputs - observed
        sq = np.einsum("ij,ij,j->i", diff, diff, self.beta)
        return np.exp(-sq / (2.0 * self.sigma2))

    def _check_outputs(self, outputs) -> np.ndarray:
        outputs = np.asarray(outputs, dtype=float)
        if outputs.ndim != 2 or outputs.shape[1] != self.n:
            raise ValueError(
                f"pseudo-outputs must be shaped (m, {self.n}), got {outputs.shape}"
            )
        return outputs


def gram_and_rhs(pseudo_outputs, observed, kernel: WeightedOutputKernel) -> tuple:
    """The Gram matrix G among the pseudo-output rows and the data-kernel vector k."""
    return kernel.gram(pseudo_outputs), kernel.against(pseudo_outputs, observed)


def regularized_solve(gram, rhs, epsilon: float) -> np.ndarray:
    """Solve (G + m eps I) w = rhs by Cholesky factorization, in G's own buffer.

    ``gram`` holds the output-kernel values among the m pseudo-output
    vectors, exactly symmetric as ``gaussian_gram`` builds them; ``rhs``
    their kernel values against the observed data (one vector, or a (k, m)
    stack that is solved row by row, so each row is bitwise its 1-D
    solve); and ``epsilon`` is the Tikhonov constant.  The shifted matrix
    is symmetric positive definite for any eps > 0.

    No second m x m matrix is made: as LAPACK's ``potrf`` does, the solve
    overwrites ``gram``, whose contents are unspecified after a return or
    a ``SolveError``, so a caller that still needs G passes a copy.  A
    read-only G is copied.  The shift goes onto G's diagonal (the diagonal
    itself is saved), and the factor overwrites G's upper triangle and
    diagonal; the strict lower triangle stays G.  The residual
    (G + m eps I) w - rhs is read from that triangle (``dsymv``) plus a
    diagonal term that puts G's own diagonal and the shift in place of the
    factor's.  One step of iterative refinement is applied to a row if its
    residual exceeds SOLVE_RTOL * max(1, ||row||_inf) or is not finite;
    failure past that raises.
    """
    gram = np.asarray(gram, dtype=float)
    rhs = np.array(rhs, dtype=float)  # a copy: rhs may be a view of G, which changes below
    m = rhs.shape[-1] if rhs.ndim in (1, 2) else -1
    if gram.shape != (m, m):
        raise ValueError(f"inconsistent system shapes: {gram.shape}, {rhs.shape}")
    if not epsilon > 0:
        raise ValueError(f"regularizer must be positive, got {epsilon}")
    shift = m * epsilon
    if not (np.isfinite(shift) and np.all(np.isfinite(gram)) and np.all(np.isfinite(rhs))):
        raise SolveError("non-finite entries in the regularized system")
    if not gram.flags.writeable:
        gram = gram.copy()
    diag = gram.diagonal().copy()
    np.fill_diagonal(gram, diag + shift)
    try:
        # The transposed view is G in Fortran order, which LAPACK factors in
        # place rather than copying; its lower triangle is G's upper one.
        factor = cho_factor(gram.T, lower=True, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise SolveError(f"factorization failed: {exc}") from exc
    # puts G's diagonal plus the shift in place of the factor's; 0 where
    # LAPACK factored a copy (a Fortran-ordered or strided G)
    fix = diag + shift - gram.diagonal()

    def residual(w, b):
        return dsymv(1.0, gram.T, w, lower=0) + fix * w - b

    weights = []
    for b in rhs.reshape(-1, m):  # not one multi-column solve, which may round differently
        w = cho_solve(factor, b, check_finite=False)
        bound = SOLVE_RTOL * max(1.0, float(np.max(np.abs(b))))
        r = residual(w, b)
        # not `>`: a NaN residual must count as over the bound
        if not np.max(np.abs(r)) <= bound:
            w = w - cho_solve(factor, r, check_finite=False)
            r = residual(w, b)
            if not np.max(np.abs(r)) <= bound:
                raise SolveError(
                    f"solve residual {np.max(np.abs(r)):.3e} exceeds bound {bound:.3e}"
                )
        weights.append(w)
    return np.reshape(weights, rhs.shape)
