"""Kernels, bandwidth selection, and the regularized Gram solve.

Two Gaussian-type kernels drive the calibration: one on parameter
vectors, and one on length-n output vectors whose squared distance is
importance-weighted coordinate-wise, so output discrepancies at inputs
that matter for the test distribution count for more.

Every distance matrix comes from one sweep (``_sqdist_sweep``): one BLAS
rank-k update over the centred, weighted rows, written into an
uninitialized m x m buffer (a new ``_square`` or one the caller hands
in), whose upper triangle is then formed block by block in a reusable
buffer (norms added, clamped at 0, the diagonal and the pairs of equal
rows zeroed), accurate to rounding in the centred norms (see
``pairwise_sqdist``).  Under the median heuristic the same sweep counts
the median while each block is in cache: a strided sample, read from the
rank-k update before the sweep, brackets the median's rank; each block's
pairs below the bracket are counted and the few inside it collected, and
only those are partitioned.  ``_upper_gram`` runs that sweep, then a
second one that forms the Gaussian over the upper triangle in the same
buffer; the strict lower triangle stays unspecified.  Every public matrix
(``gaussian_gram``, ``pairwise_sqdist``, and the ``gram`` of both
kernels) is then mirrored, so it is exactly symmetric.  A run allocates
one m x m matrix: the output Gram matrix is formed, upper triangle only,
and solved; then one theta pass in the same buffer gives both the theta
median and the theta Gram matrix, mirrored, which the embedding carries
to herding (its pool Gram matrix, from which it also reads the embedding
at every candidate) and to ``embedding_distance``.  A herding pool with
candidates after the draws, which no run builds, gets its own theta
matrix (``ParamKernel.gram``).  ``ParamKernel.cross``, the kernel between
two point sets, is never called by a run; the tests evaluate embeddings
with it.

The solve passes plain arrays: ``gram_and_rhs`` returns the Gram matrix G
and the data-kernel vector k, and ``regularized_solve(G, k, eps)`` returns
the weights w of (G + m eps I) w = k (the kernel Bayes' rule step), one
row of w per row of a (k, m) stack k.  Each row is solved by conjugate
gradients, which take a number of steps that does not grow with m (9 on
linear-shift, 16-18 on assembly-shift, at m = 200 to 2000).  A row CG
cannot solve falls back to a Cholesky factorization of a copy of
G + m eps I.  Every read of G, the finiteness check included, is of its
upper triangle; the solve never writes G, and both paths accept a row by
one residual rule.  CG holds no m x m matrix beside G, so the solve of a
run that does not fall back adds none: G's finiteness is read from its
upper triangle block by block, with no m x m temporary.

Every matrix product on the way from the distances to the herded samples
(the rank-k update in ``_sqdist_sweep``, the solve's products,
herding's read of the embedding) runs on scipy's BLAS, the library that
also does the fallback's Cholesky factorization.  numpy and scipy each
load their own OpenBLAS; after a numpy product, numpy's idle worker
threads keep spinning and slow the scipy call that follows (measured on 2
cores: a 2000 x 2000 ``cho_factor`` took 120-130 ms in the median straight
after a numpy product, 62-65 ms after scipy's own ``dsyrk``).  ``dsyrk``
for A A^T and ``dgemv`` on the Fortran-ordered view ``A.T`` (``matvec``)
give numpy's bits; the solve's ``dsymv`` over one triangle of G and
``ddot`` need not, since the residual contract bounds the weights.

These routines, and LAPACK's ``dpotrf`` and ``dpotrs`` behind
``cho_factor`` and ``cho_solve``, are scipy's own compiled f2py objects,
taken from its ``_fblas`` and ``_flapack`` extension modules, which are
loaded from their files (``_scipy_extension``) without running
``scipy.linalg``'s package init.  That init pulls in ``numpy.f2py``,
``numpy.testing``, ``unittest`` and the array-API layer; skipping it took
``import shiftcal, shiftcal.cli`` after numpy from 304 to 71 ms, and the
resident set after the import from 56 to 37 MB (medians of 15 fresh
processes, 2 cores, scipy 1.17.1).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec

import numpy as np
import scipy

from .weights import point_rows


def _scipy_extension(name):
    """scipy.linalg's compiled extension module ``name``, loaded from its file.

    ``import scipy`` above has run scipy's distributor init, which is what
    locates the bundled OpenBLAS on some platforms; ``scipy.linalg``'s own
    package init is not run.  A missing module raises an ImportError that
    names the directory searched.
    """
    directory = os.path.join(scipy.__path__[0], "linalg")
    finder = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec(f"scipy.linalg.{name}")
    if spec is None:
        raise ImportError(f"no extension module {name} in {directory}", name=name)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_fblas = _scipy_extension("_fblas")
_flapack = _scipy_extension("_flapack")
ddot, dgemv, dsymv, dsyrk = _fblas.ddot, _fblas.dgemv, _fblas.dsymv, _fblas.dsyrk

SOLVE_RTOL = 1e-10
# Rows per block of the distance and Gaussian sweeps.  At m = 2000 on 2
# cores 128 was fastest of 64-512 for the distances alone, and 48-128
# measured alike with the median counted in the sweep.
_BLOCK = 128
# below the diagonal of a block's leading square; its transpose is above it
_BLOCK_LOWER = np.tril(np.ones((_BLOCK, _BLOCK), dtype=bool), -1)
# odd, so the row-hash multipliers (2k + 1) * _GOLDEN are odd
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


class DegenerateBandwidthError(ValueError):
    """No usable bandwidth: the median pairwise distance is zero, or the
    data kernel is zero at every pseudo-output."""


class SolveError(RuntimeError):
    """Regularized Gram system could not be solved to tolerance."""


def pairwise_sqdist(vectors, weights=None) -> np.ndarray:
    """All-pairs (weighted) squared Euclidean distances, in one BLAS pass.

    Rows are centred on their column means (distances are shift-invariant,
    and centring keeps the norms, hence the cancellation, small), then
    scaled by sqrt(weights).  d_ij = |a_i|^2 + |a_j|^2 - 2 a_i.a_j is read
    from one rank-k update -2 A A^T (``dsyrk``), norms taken from its
    diagonal; ``_sqdist_sweep`` forms the upper triangle block by block,
    and it is mirrored.  The result is exactly symmetric with an exactly
    zero diagonal, and scaled rows that compare equal are exactly 0 apart.
    The absolute error of an entry is a small multiple of
    n * machine-eps * (|a_i|^2 + |a_j|^2) for the centred rows; on unimodal
    data such as the shipped presets' outputs that is below 1e-12 times
    the median distance (measured: ~1e-14).  Non-finite vectors, and
    weights that are not finite and non-negative, are rejected.
    """
    return _mirror(_sqdist_sweep(vectors, weights)[0])


def median_heuristic(vectors, weights=None) -> float:
    """Bandwidth sigma^2 = lower median of pairwise (weighted) squared distances."""
    return _sqdist_sweep(vectors, weights, median=True)[1]


def gaussian_gram(vectors, sigma2=None, weights=None) -> tuple[np.ndarray, float]:
    """exp(-d_ij / (2 sigma2)) over ``pairwise_sqdist(vectors, weights)``, and sigma2.

    ``_upper_gram`` forms it on and above the diagonal, so a zero diagonal
    becomes exactly 1, and it is then mirrored, so the matrix is exactly
    symmetric.
    """
    gram, sigma2 = _upper_gram(vectors, sigma2, weights)
    return _mirror(gram), sigma2


def _upper_gram(vectors, sigma2=None, weights=None, out=None) -> tuple[np.ndarray, float]:
    """The Gaussian of ``gaussian_gram`` on and above the diagonal, in
    ``out`` (a C-ordered m x m buffer) or in a new ``_square``, and sigma2.

    A ``sigma2`` of None is the median heuristic, counted in the sweep that
    forms the distances (``_sqdist_sweep``).  A second sweep forms the
    Gaussian in the same buffer, block by block from the diagonal on; the
    strict lower triangle is unspecified.
    """
    if sigma2 is not None:
        _check_bandwidth(sigma2)
    gram, median = _sqdist_sweep(vectors, weights, sigma2 is None, out)
    sigma2 = median if sigma2 is None else sigma2
    for i in range(0, len(gram), _BLOCK):
        block = gram[i:i + _BLOCK, i:]
        np.divide(block, -2.0 * sigma2, out=block)
        np.exp(block, out=block)
    return gram, sigma2


def _square(m) -> np.ndarray:
    """A new, uninitialized, C-ordered m x m matrix: a build's one m x m allocation."""
    return np.empty((m, m))


def _sqdist_sweep(vectors, weights=None, median=False, out=None) -> tuple[np.ndarray, float | None]:
    """The distances of ``pairwise_sqdist`` on and above the diagonal, formed
    in one sweep over blocks of rows in ``out`` (a C-ordered m x m buffer)
    or in a new ``_square``, and with ``median`` their lower median.

    ``dsyrk`` with beta = 0 writes the lower triangle of the
    Fortran-ordered ``out.T`` without reading it, so ``out`` holds
    -2 a_i.a_j on and above the diagonal and whatever it held below.  Each
    block of rows, from the diagonal on, has the strict lower part of its
    leading square set to 0, since the sweep reads it, and is formed in one
    contiguous buffer reused by every block: n_i + n_j, plus the block (so
    each entry is bitwise what numpy's (-2 A A^T) + (n_i + n_j) gives),
    clamped at 0, its diagonal and the pairs of equal rows set to 0; then
    it is copied back.  Below the diagonal, only each block's leading
    square is written; the strict lower triangle is unspecified.

    The median, the lower middle of the m(m-1)/2 pairs (an attained
    distance), is selected by sampling (Floyd and Rivest, CACM 1975): a
    strided sample (``_sample_at``), formed before the sweep by its own
    formula and so bitwise from the matrix, gives a bracket (``_bracket``);
    each block's pairs below it are counted and those inside it (about 3%
    at m = 2000) collected from the buffer (``_count_block``), and only
    these are partitioned.  A miss is recounted over the formed triangle.
    """
    rows = _scaled_rows(vectors, weights)
    m = len(rows)
    if median and m < 2:
        raise ValueError(f"median heuristic needs at least 2 vectors, got {m}")
    labels = _repeat_labels(rows)
    out = _square(m) if out is None else out
    if rows.size:  # beta = 0: the BLAS writes the triangle without reading it
        out = dsyrk(-2.0, rows.T, beta=0.0, c=out.T, trans=1, lower=1, overwrite_c=1).T
    else:  # no BLAS call on an empty operand, which the BLAS reports as illegal
        out.fill(0.0)
    del rows
    norms = out.diagonal() / -2.0
    buffer = np.empty(min(m, _BLOCK) * m)
    if median:
        sample = _formed_sample(out, norms, labels)
        lo, hi = _bracket(sample, m)
        # only a norm near overflow can make a distance NaN (inf - inf)
        check_nan = not 4.0 * norms.max() < np.inf
        masks = np.empty((2, len(buffer)), dtype=bool)
        below, inside = 0, []
    for i in range(0, m, _BLOCK):
        block = out[i:i + _BLOCK, i:]
        size, width = block.shape
        square = block[:, :size]  # its strict lower part is read below, so it is set
        np.copyto(square, 0.0, where=_BLOCK_LOWER[:size, :size])
        formed = buffer[: size * width].reshape(size, width)
        np.add.outer(norms[i:i + size], norms[i:], out=formed)
        formed += block
        np.maximum(formed, 0.0, out=formed)
        if labels is None:
            formed.reshape(-1)[: size * (width + 1): width + 1] = 0.0
        else:  # the diagonal and every pair of equal rows
            formed[labels[i:i + size, None] == labels[i:]] = 0.0
        block[...] = formed
        if median:
            if check_nan and np.isnan(formed.max()):
                raise ValueError("pairwise squared distances hold a NaN")
            count, values = _count_block(formed, lo, hi, masks)
            below += count
            inside.append(values)
    if not median:
        return out, None
    del buffer, masks  # freed before the pairs inside the bracket are copied together
    return out, _bracketed_median(out, sample, below, np.concatenate(inside))


def _formed_sample(out, norms, labels) -> np.ndarray:
    """The sorted sample at ``_sample_at``, read from the ``dsyrk`` output
    before the sweep and formed as the sweep forms each entry."""
    at = _sample_at(len(out))
    first, last = np.minimum(*at), np.maximum(*at)
    sample = out[first, last] + (norms[first] + norms[last])
    np.maximum(sample, 0.0, out=sample)
    sample[first == last if labels is None else labels[first] == labels[last]] = 0.0
    sample.sort()
    return sample


def _scaled_rows(vectors, weights) -> np.ndarray:
    """The rows centred on their column means and scaled by sqrt(weights),
    in one new buffer, with -0.0 turned into 0.0 so that rows that compare
    equal have equal bytes (the distances keep their bits: a signed zero
    changes no nonzero product or sum, and no distance is -0.0)."""
    mat = point_rows(vectors)
    bad = ~np.isfinite(mat).all(axis=1)
    if bad.any():
        raise ValueError(f"vectors contain non-finite entries (row {np.argmax(bad)})")
    rows = mat - mat.mean(axis=0) if len(mat) else mat.copy()
    if weights is not None:
        w = _importance_weights(weights)
        if w.shape != (mat.shape[1],):
            raise ValueError(f"weight length {w.shape} does not match vector length {mat.shape[1]}")
        rows *= np.sqrt(w)
    rows += 0.0
    return rows


def _repeat_labels(rows) -> np.ndarray | None:
    """None when no two rows are equal, else one label per row, shared by equal rows.

    The BLAS may sum a_i.a_i and a_i.a_j in different orders, so equal
    rows are set 0 apart explicitly.  Rows with equal bytes have equal
    integer hashes (a wrapping integer dot product, which does not round);
    the hashes are sorted, and only if two coincide are the rows compared.
    """
    hashes = rows.view(np.uint64) @ (np.arange(1, 2 * rows.shape[1], 2, dtype=np.uint64) * _GOLDEN)
    hashes.sort()
    if not (hashes[1:] == hashes[:-1]).any():
        return None
    return np.unique(rows, axis=0, return_inverse=True)[1].reshape(-1)


def _sample_at(m) -> tuple[np.ndarray, np.ndarray]:
    """The rows and columns of the sample's entries: every ``stride``-th of
    the m^2, the stride near m / 8 and coprime with m - 1, m and m + 1, so
    that the sample does not keep to a few columns or diagonals."""
    stride = max(1, m // 8)
    while math.gcd(stride, (m - 1) * m * (m + 1)) != 1:
        stride += 1
    return np.divmod(np.arange(0, m * m, stride), m)


def _bracket(sample, m, widen_lo=1, widen_hi=1) -> tuple[float, float]:
    """The sample entries ``widen`` times 2 sqrt(size) ranks either side of
    the median's rank (its rank among all m^2 entries, the m diagonal
    zeros first and then each pair twice, scaled to the sample), or an open
    bound past the sample's end."""
    at = (m + 2 * _median_rank(m)) * len(sample) // (m * m)
    pad = 2 * math.isqrt(len(sample)) + 1
    lo = sample[at - widen_lo * pad] if widen_lo * pad <= at else -np.inf
    hi = sample[at + widen_hi * pad] if at + widen_hi * pad < len(sample) else np.inf
    return lo, hi


def _median_rank(m) -> int:
    return (m * (m - 1) // 2 - 1) // 2


def _bracketed_median(out, sample, below, inside) -> float:
    """The lower median pair of the formed triangle ``out``, given the
    count of pairs below the first bracket and an array of those inside it.
    A miss widens the side it missed fourfold, up to an open bound, and
    recounts; an open bracket holds every pair, so this ends."""
    m = len(out)
    k = _median_rank(m)
    widen_lo = widen_hi = 1
    while not below <= k < below + len(inside):
        if k < below:
            widen_lo *= 4
        else:
            widen_hi *= 4
        below, inside = _count_and_collect(out, *_bracket(sample, m, widen_lo, widen_hi))
    sigma2 = float(np.partition(inside, k - below)[k - below])
    if not sigma2 < np.inf:
        raise ValueError(f"median pairwise squared distance is not finite, got {sigma2}")
    if sigma2 <= 0:
        raise DegenerateBandwidthError(
            "median pairwise squared distance is zero; points are (mostly) duplicated"
        )
    return sigma2


def _count_and_collect(sqdist, lo, hi) -> tuple[int, np.ndarray]:
    """The count of pairs below ``lo`` and the pairs in [lo, hi], read from
    the upper triangle in blocks of rows, each copied contiguous.  The
    sweep has already raised on a NaN distance."""
    m = len(sqdist)
    masks = np.empty((2, min(m, _BLOCK) * m), dtype=bool)
    below, inside = 0, []
    for i in range(0, m - 1, _BLOCK):
        block = np.ascontiguousarray(sqdist[i:i + _BLOCK, i:])
        count, values = _count_block(block, lo, hi, masks)
        below += count
        inside.append(values)
    return below, np.concatenate(inside)


def _count_block(block, lo, hi, masks) -> tuple[int, np.ndarray]:
    """The count of pairs below ``lo`` and the pairs in [lo, hi] in a
    C-contiguous block of rows i.. read from column i on, whose pairs are
    those above the diagonal of its leading square.

    Both masks are made in ``masks``, a (2, k) buffer reused by every
    block; the pairs below ``lo`` are also at most ``hi``, so the bracket's
    mask is the two masks' xor, and ``np.compress`` on the flat block (much
    faster than a boolean index) collects its pairs.
    """
    size, width = block.shape
    under, upto = masks[:, : size * width].reshape(2, size, width)
    np.less(block, lo, out=under)
    np.less_equal(block, hi, out=upto)
    pairs = _BLOCK_LOWER.T[:size, :size]
    under[:, :size] &= pairs
    upto[:, :size] &= pairs
    np.not_equal(upto, under, out=upto)
    return np.count_nonzero(under), np.compress(upto.reshape(-1), block.reshape(-1))


def _mirror(mat) -> np.ndarray:
    """``mat`` with its upper triangle copied below the diagonal, block by
    block of rows; every entry below the diagonal is written."""
    for i in range(0, len(mat), _BLOCK):
        rows = slice(i, i + _BLOCK)
        mat[i + _BLOCK:, rows] = mat[rows, i + _BLOCK:].T
        square = mat[rows, rows]
        np.copyto(square, square.T, where=_BLOCK_LOWER[: len(square), : len(square)])
    return mat


def matvec(mat, vec) -> np.ndarray:
    """``mat @ vec`` on scipy's BLAS, bitwise what numpy's product gives.

    ``dgemv`` on the transposed (Fortran-ordered, so uncopied) view with
    ``trans=1`` runs numpy's kernel; ``trans=0`` on ``mat`` itself does not.
    """
    return dgemv(1.0, mat.T, vec, trans=1)


def _check_bandwidth(sigma2) -> None:
    if not 0 < sigma2 < np.inf:
        raise ValueError(f"kernel bandwidth must be positive and finite, got {sigma2}")


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
        return np.exp(-self._exponents(outputs, observed))

    def _exponents(self, outputs, observed) -> np.ndarray:
        """||o_j - y||^2_beta / (2 sigma2) for each pseudo-output row o_j and
        the data y: the exponents whose exp(-.) ``against`` returns."""
        outputs = self._check_outputs(outputs)
        observed = np.asarray(observed, dtype=float)
        if observed.shape != (self.n,):
            raise ValueError(f"observed outputs must have length {self.n}, got {observed.shape}")
        diff = outputs - observed
        return np.einsum("ij,ij,j->i", diff, diff, self.beta) / (2.0 * self.sigma2)

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
    vectors on and above its diagonal, as ``_upper_gram`` builds them; ``rhs``
    their kernel values against the observed data (one vector, or a (k, m)
    stack solved row by row, so each row is bitwise its 1-D solve); and
    ``epsilon`` is the Tikhonov constant, positive and finite, with m eps
    finite too.

    A non-finite entry on or above G's diagonal, or in ``rhs``, is a
    ``SolveError`` (``_upper_finite``).  Each row runs CG
    (``_conjugate_gradients``) on G's upper triangle, read through the
    Fortran-ordered view ``gram.T`` (free for a C-ordered G, copied once
    otherwise), and is accepted if its true residual (``_residual``, from
    the same triangle) is at most SOLVE_RTOL * max(1, ||row||_inf) (a NaN
    is not).  The rows it does not solve go to ``_cholesky_solve``, after
    every row has run CG.  Nothing reads G's strict lower triangle, which
    may hold anything, NaN included, or writes ``gram`` or ``rhs``.
    """
    gram = np.asarray(gram, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    m = rhs.shape[-1] if rhs.ndim in (1, 2) else -1
    if gram.shape != (m, m):
        raise ValueError(f"inconsistent system shapes: {gram.shape}, {rhs.shape}")
    if m == 0:
        raise ValueError("the regularized system is empty: G is 0 x 0")
    if not 0 < epsilon < np.inf:
        raise ValueError(f"regularizer must be positive and finite, got {epsilon}")
    shift = m * epsilon
    if not shift < np.inf:
        raise ValueError(f"regularizer shift m * epsilon overflows: m = {m}, epsilon = {epsilon}")
    # formed once: scipy would copy a G that is not Fortran-ordered on every dsymv
    gram_f = np.asfortranarray(gram.T)
    if not (_upper_finite(gram_f) and np.isfinite(rhs).all()):
        raise SolveError("non-finite entries in the regularized system")
    rows = rhs.reshape(-1, m)
    weights = np.empty_like(rows)
    missed = []
    for i, b in enumerate(rows):  # not one multi-column solve, which may round differently
        w = _conjugate_gradients(gram_f, shift, b)
        if w is not None and _within_bound(_residual(gram_f, shift, w, b), b):
            weights[i] = w
        else:
            missed.append(i)
    if missed:
        weights[missed] = _cholesky_solve(gram_f, shift, rows[missed])
    return weights.reshape(rhs.shape)


def _upper_finite(gram_f) -> bool:
    """Whether G's upper triangle, the lower triangle of ``gram_f``, is
    finite, read block by block of rows from the diagonal on, with no
    m x m temporary: one boolean buffer is reused by every block."""
    gram = gram_f.T
    buffer = np.empty(min(len(gram), _BLOCK) * len(gram), dtype=bool)
    for i in range(0, len(gram), _BLOCK):
        block = gram[i:i + _BLOCK, i:]
        finite = np.isfinite(block, out=buffer[:block.size].reshape(block.shape))
        size = len(finite)
        finite[:, :size] |= _BLOCK_LOWER[:size, :size]
        if not finite.all():
            return False
    return True


def _residual(gram_f, shift: float, w, b) -> np.ndarray:
    """(G + shift I) w - b, with G read from the lower triangle of ``gram_f``
    (G's upper triangle)."""
    return dsymv(1.0, gram_f, w, lower=1) + shift * w - b


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
    """One Cholesky factorization of G + shift I, made in a copy of G, then
    each row solved, refined once if its residual misses the bound, and
    raised on if it still does.  The copy is one more m x m matrix, held
    only while the fallback runs; ``gram_f`` is read only by the residual.
    """
    lhs = gram_f.copy(order="F")
    np.fill_diagonal(lhs, lhs.diagonal() + shift)
    try:
        factor = cho_factor(lhs, lower=True, overwrite_a=True)
    except np.linalg.LinAlgError as exc:
        raise SolveError(f"factorization failed: {exc}") from exc
    weights = []
    for b in rows:
        w = cho_solve(factor, b)
        r = _residual(gram_f, shift, w, b)
        if not _within_bound(r, b):
            w = w - cho_solve(factor, r)
            r = _residual(gram_f, shift, w, b)
            if not _within_bound(r, b):
                raise SolveError(
                    f"solve residual {np.max(np.abs(r)):.3e} exceeds bound {_bound(b):.3e}"
                )
        weights.append(w)
    return np.array(weights)


def cho_factor(a, lower=False, overwrite_a=False) -> tuple[np.ndarray, bool]:
    """(c, lower), c holding the Cholesky factor of ``a`` in that triangle
    and ``a``'s entries in the other: LAPACK's ``dpotrf``, as
    ``scipy.linalg.cho_factor(..., check_finite=False)`` calls it."""
    c, info = _flapack.dpotrf(a, lower=lower, overwrite_a=overwrite_a, clean=0)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite"
        )
    if info < 0:
        raise ValueError(f"LAPACK reported an illegal value in {-info}-th argument of dpotrf")
    return c, lower


def cho_solve(c_and_lower, b) -> np.ndarray:
    """x with A x = b, from ``cho_factor``'s (c, lower): LAPACK's ``dpotrs``,
    as ``scipy.linalg.cho_solve(..., check_finite=False)`` calls it."""
    c, lower = c_and_lower
    x, info = _flapack.dpotrs(c, b, lower=lower)
    if info != 0:
        raise ValueError(f"LAPACK reported an illegal value in {-info}-th argument of dpotrs")
    return x
