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
middle pair distance from one triangle of that matrix without copying
the pairs: a strided sample brackets the median's rank, one blockwise
pass counts the pairs below the bracket and collects the few inside it,
and only those are partitioned.  Every kernel matrix comes from
``gaussian_gram``: one distance pass, the median read from it when no
bandwidth is given, then the Gaussian formed in its buffer, so no
distance matrix leaves the function and a build holds one m x m matrix.
A run makes one output pass and one theta pass: the output
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
row of w per row of a (k, m) stack k.  Each row is solved by conjugate
gradients, which only read G and take a number of steps that does not
grow with m (9 on linear-shift, 16-18 on assembly-shift, at m = 200 to
2000).  A row CG cannot solve falls back to a Cholesky factorization made
in G's own buffer.  Either way a run holds one m x m matrix at the solve:
G's finiteness is read from its minimum and maximum, which carry a NaN
through, with no m x m temporary.

Every matrix product on the way from the distances to the herded samples
(the rank-k update in ``pairwise_sqdist``, the solve's products,
herding's read of the embedding) runs on scipy's BLAS, the library that
also does the fallback's Cholesky factorization.  numpy and scipy each
load their own OpenBLAS; after a numpy product, numpy's idle worker
threads keep spinning and slow the scipy call that follows (measured on 2
cores: a 2000 x 2000 ``cho_factor`` took 120-130 ms in the median straight
after a numpy product, 62-65 ms after scipy's own ``dsyrk``).  ``dsyrk``
for A A^T and ``dgemv`` on the Fortran-ordered view ``A.T`` (``matvec``)
give numpy's bits; the solve's ``dsymv`` over one triangle of G and
``ddot`` need not, since the residual contract bounds the weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.blas import ddot, dgemv, dsymv, dsyrk

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
    Non-finite vectors, and weights that are not finite and non-negative,
    are rejected.
    """
    mat = point_rows(vectors)
    bad = ~np.isfinite(mat).all(axis=1)
    if bad.any():
        raise ValueError(f"vectors contain non-finite entries (row {np.argmax(bad)})")
    mat = mat - mat.mean(axis=0)
    if weights is not None:
        w = _importance_weights(weights)
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
    is always an attained distance and runs are deterministic.  The pairs
    are not copied (selection by sampling, Floyd and Rivest, CACM 1975).
    A sample of the matrix at a fixed stride near m / 8, coprime with
    m - 1, m and m + 1 so that it does not keep to a few columns or
    diagonals, is sorted; its entries 2 sqrt(size) ranks either side of
    the median's rank bound a bracket [lo, hi].  One pass over the strict
    upper triangle counts the pairs below lo and collects those in
    [lo, hi] (about 3% of them at m = 2000), and only these are
    partitioned.  If the median falls outside the bracket, the side it
    missed is widened fourfold, up to an open bound, and the pass runs
    again; an open bracket holds every pair, so this ends.  A NaN in the
    matrix and a median that is not finite raise a ValueError.
    """
    m = sqdist.shape[0]
    if m < 2:
        raise ValueError(f"median heuristic needs at least 2 vectors, got {m}")
    k = (m * (m - 1) // 2 - 1) // 2
    stride = max(1, m // 8)
    while math.gcd(stride, (m - 1) * m * (m + 1)) != 1:
        stride += 1
    sample = np.sort(sqdist[np.divmod(np.arange(0, m * m, stride), m)])
    if np.isnan(sample[-1]):  # NaN sorts last; a NaN bound would never close the bracket
        raise ValueError(_NAN_DISTANCE)
    # the median's rank among all m^2 entries (the m diagonal zeros first,
    # then each pair twice), scaled to the sample
    at = (m + 2 * k) * len(sample) // (m * m)
    pad_lo = pad_hi = 2 * math.isqrt(len(sample)) + 1
    while True:
        lo = sample[at - pad_lo] if pad_lo <= at else -np.inf
        hi = sample[at + pad_hi] if at + pad_hi < len(sample) else np.inf
        below, inside = _count_and_collect(sqdist, lo, hi)
        if k < below:
            pad_lo *= 4
        elif k >= below + len(inside):
            pad_hi *= 4
        else:
            break
    sigma2 = float(np.partition(inside, k - below)[k - below])
    if not sigma2 < np.inf:
        raise ValueError(f"median pairwise squared distance is not finite, got {sigma2}")
    if sigma2 <= 0:
        raise DegenerateBandwidthError(
            "median pairwise squared distance is zero; points are (mostly) duplicated"
        )
    return sigma2


_NAN_DISTANCE = "pairwise squared distances hold a NaN"


def _count_and_collect(sqdist, lo, hi) -> tuple[int, np.ndarray]:
    """The count of pairs below ``lo`` and the pairs in [lo, hi], read from
    the strict upper triangle in blocks of rows; a NaN in a block raises.

    A block of rows i.. is read from column i + 1 on, so its pairs are
    those on and above the diagonal of its leading square.  Both masks
    are made in buffers reused by every block; the pairs below ``lo`` are
    also at most ``hi``, so the bracket's mask is the two masks' xor.
    """
    m = len(sqdist)
    below, inside = 0, []
    masks = np.empty((2, min(m, _SQDIST_BLOCK), m - 1), dtype=bool)
    for i in range(0, m - 1, _SQDIST_BLOCK):
        block = sqdist[i:i + _SQDIST_BLOCK, i + 1:]
        if np.isnan(block.max()):
            raise ValueError(_NAN_DISTANCE)
        under, upto = masks[:, : len(block), : m - 1 - i]
        np.less(block, lo, out=under)
        np.less_equal(block, hi, out=upto)
        lower = _BLOCK_TRIL if len(block) == _SQDIST_BLOCK else np.tril_indices(len(block), -1)
        under[lower] = upto[lower] = False
        below += np.count_nonzero(under)
        inside.append(block[np.not_equal(upto, under, out=upto)])
    return below, np.concatenate(inside)


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
        object.__setattr__(self, "beta", _importance_weights(self.beta))

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


def _importance_weights(weights) -> np.ndarray:
    beta = np.asarray(weights, dtype=float)
    if beta.ndim != 1 or not np.all(np.isfinite(beta)) or np.any(beta < 0):
        raise ValueError("importance weights must be a finite non-negative vector")
    return beta


def gram_and_rhs(pseudo_outputs, observed, kernel: WeightedOutputKernel) -> tuple:
    """The Gram matrix G among the pseudo-output rows and the data-kernel vector k."""
    return kernel.gram(pseudo_outputs), kernel.against(pseudo_outputs, observed)


def regularized_solve(gram, rhs, epsilon: float) -> np.ndarray:
    """Solve (G + m eps I) w = rhs by conjugate gradients, Cholesky as the fallback.

    ``gram`` holds the output-kernel values among the m pseudo-output
    vectors, exactly symmetric as ``gaussian_gram`` builds them; ``rhs``
    their kernel values against the observed data (one vector, or a (k, m)
    stack solved row by row, so each row is bitwise its 1-D solve); and
    ``epsilon`` is the Tikhonov constant.

    Each row runs CG (``_conjugate_gradients``) on G's upper triangle, read
    through the Fortran-ordered view ``gram.T`` (free for a C-ordered G,
    copied once otherwise), and is accepted if its true residual
    (G + m eps I) w - rhs, read from the same triangle, is at most
    SOLVE_RTOL * max(1, ||row||_inf) (a NaN is not).  CG only reads G.
    The rows it does not solve go to ``_cholesky_solve``, after every row
    has run CG; it factors G once, in the buffer CG read, as LAPACK's
    ``potrf`` does.  So ``gram``'s contents are unspecified after a return
    or a ``SolveError``, and a caller that still needs G passes a copy.
    """
    gram = np.asarray(gram, dtype=float)
    rhs = np.array(rhs, dtype=float)  # a copy: rhs may be a view of G, which the fallback changes
    m = rhs.shape[-1] if rhs.ndim in (1, 2) else -1
    if gram.shape != (m, m):
        raise ValueError(f"inconsistent system shapes: {gram.shape}, {rhs.shape}")
    if not epsilon > 0:
        raise ValueError(f"regularizer must be positive, got {epsilon}")
    shift = m * epsilon
    # min and max carry a NaN through, and need no m x m temporary
    if not (np.isfinite([shift, gram.min(), gram.max()]).all() and np.isfinite(rhs).all()):
        raise SolveError("non-finite entries in the regularized system")
    # formed once: scipy would copy a G that is not Fortran-ordered on every dsymv
    gram_f = np.asfortranarray(gram.T)
    rows = rhs.reshape(-1, m)
    weights = np.empty_like(rows)
    missed = []
    for i, b in enumerate(rows):  # not one multi-column solve, which may round differently
        w = _conjugate_gradients(gram_f, shift, b)
        if w is not None and _within_bound(dsymv(1.0, gram_f, w, lower=1) + shift * w - b, b):
            weights[i] = w
        else:
            missed.append(i)
    if missed:
        weights[missed] = _cholesky_solve(gram_f, shift, rows[missed])
    return weights.reshape(rhs.shape)


def _bound(b) -> float:
    return SOLVE_RTOL * max(1.0, float(np.max(np.abs(b))))


def _within_bound(residual, b) -> bool:
    # not `>`: a NaN residual must count as over the bound
    return np.max(np.abs(residual)) <= _bound(b)


def _conjugate_gradients(gram_f, shift: float, b):
    """w with (G + shift I) w = b, or None for the Cholesky fallback.

    G has a unit diagonal, so G + shift I has condition number at most
    1 + m / shift, and the step count does not grow with m.  CG starts at
    w = 0 and stops at machine precision, when the recursive residual is
    at most eps_64 * max(1, ||b||_inf).  That test runs before each of at
    most max(1, m // 6) steps, about one factorization's flops, so with
    m < 12 any b != 0 falls back.  None also when a step finds
    p'(G + shift I)p not positive: an indefinite or non-finite system.
    """
    tol = np.finfo(float).eps * max(1.0, float(np.max(np.abs(b))))
    w = np.zeros_like(b)
    r = b.copy()
    p = b.copy()
    rr = ddot(r, r)
    for _ in range(max(1, len(b) // 6)):
        if np.max(np.abs(r)) <= tol:
            return w
        q = dsymv(1.0, gram_f, p, lower=1) + shift * p
        curvature = ddot(p, q)
        if not curvature > 0:  # also catches NaN
            return None
        alpha = rr / curvature
        w += alpha * p
        r -= alpha * q
        rr, rr_old = ddot(r, r), rr
        p = r + (rr / rr_old) * p
    return None


def _cholesky_solve(gram_f, shift: float, rows) -> np.ndarray:
    """One Cholesky factorization of G + shift I in ``gram_f``'s buffer (a
    read-only one is copied), then each row solved, refined once if its
    residual misses the bound, and raised on if it still does.

    The factor overwrites ``gram_f``'s lower triangle and diagonal (G's
    upper); the residual reads G's strict lower triangle (``dsymv``) plus
    a diagonal term that puts G's own diagonal and the shift in place of
    the factor's.
    """
    if not gram_f.flags.writeable:
        gram_f = gram_f.copy(order="F")
    diag = gram_f.diagonal().copy()
    np.fill_diagonal(gram_f, diag + shift)
    try:
        factor = cho_factor(gram_f, lower=True, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise SolveError(f"factorization failed: {exc}") from exc
    fix = diag + shift - gram_f.diagonal()  # 0 where LAPACK factored a copy

    def residual(w, b):
        return dsymv(1.0, gram_f, w, lower=0) + fix * w - b

    weights = []
    for b in rows:
        w = cho_solve(factor, b, check_finite=False)
        r = residual(w, b)
        if not _within_bound(r, b):
            w = w - cho_solve(factor, r, check_finite=False)
            r = residual(w, b)
            if not _within_bound(r, b):
                raise SolveError(
                    f"solve residual {np.max(np.abs(r)):.3e} exceeds bound {_bound(b):.3e}"
                )
        weights.append(w)
    return np.array(weights)
