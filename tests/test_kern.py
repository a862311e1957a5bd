import ctypes
import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from shiftcal.kern import (
    DegenerateBandwidthError,
    ParamKernel,
    SolveError,
    WeightedOutputKernel,
    gaussian_gram,
    gram_and_rhs,
    median_heuristic,
    pairwise_sqdist,
    regularized_solve,
)


def unweighted_gaussian(a, b, sigma2):
    # independent reference implementation
    diff = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return math.exp(-float(np.dot(diff, diff)) / (2.0 * sigma2))


def param_kernel(sigma2, theta_a, theta_b) -> float:
    """Scalar oracle of ``ParamKernel(sigma2)``: exp(-||a - b||^2 / (2 sigma2))."""
    a = np.asarray(theta_a, dtype=float)
    b = np.asarray(theta_b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"parameter dimension mismatch: {a.shape} vs {b.shape}")
    diff = a - b
    return float(np.exp(-diff.dot(diff) / (2.0 * sigma2)))


def weighted_kernel(sigma2, beta, ya, yb) -> float:
    """Scalar oracle of ``WeightedOutputKernel(sigma2, beta)``."""
    beta = np.asarray(beta, dtype=float)
    ya = np.asarray(ya, dtype=float)
    yb = np.asarray(yb, dtype=float)
    if ya.shape != yb.shape or ya.shape != beta.shape:
        raise ValueError(f"output vectors and weights must share length {beta.size}")
    diff = ya - yb
    return float(np.exp(-np.sum(beta * diff * diff) / (2.0 * sigma2)))


class TestParamKernel:
    def test_coincident_points(self):
        assert param_kernel(3.0, [1.0, 2.0], [1.0, 2.0]) == 1.0

    def test_distance_at_two_sigma2(self):
        # squared distance equal to 2*sigma2 gives exp(-1)
        assert param_kernel(2.0, [0.0], [2.0]) == pytest.approx(math.exp(-1), rel=1e-15)

    def test_wide_bandwidth_limit_monotone(self):
        a, b = np.array([0.0, 0.0]), np.array([1.0, 1.5])
        values = [param_kernel(s2, a, b) for s2 in (0.5, 2.0, 10.0, 1e3, 1e6)]
        assert all(v2 > v1 for v1, v2 in zip(values, values[1:]))
        assert values[-1] == pytest.approx(1.0, abs=1e-5)

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a, b = rng.normal(size=3), rng.normal(size=3)
            v = param_kernel(1.7, a, b)
            assert v == param_kernel(1.7, b, a)
            assert 0.0 < v <= 1.0
            assert (v == 1.0) == bool(np.array_equal(a, b))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            param_kernel(1.0, [0.0], [0.0, 1.0])
        with pytest.raises(ValueError, match="dimension mismatch"):
            ParamKernel(1.0).cross([[0.0]], [[0.0, 1.0]])

    def test_cross_matches_scalar(self):
        rng = np.random.default_rng(2)
        kern = ParamKernel(0.8)
        left, right = rng.normal(size=(4, 2)), rng.normal(size=(6, 2))
        cross = kern.cross(left, right)
        for i in range(4):
            for j in range(6):
                assert cross[i, j] == pytest.approx(param_kernel(0.8, left[i], right[j]), rel=1e-12)


class TestWeightedOutputKernel:
    def test_coincident(self):
        beta = np.array([1.0, 2.0])
        assert weighted_kernel(1.0, beta, [1.0, 2.0], [1.0, 2.0]) == 1.0

    def test_unit_weights_reduce_to_unweighted(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, b = rng.normal(size=5), rng.normal(size=5)
            sigma2 = rng.uniform(0.5, 3.0)
            ours = weighted_kernel(sigma2, np.ones(5), a, b)
            assert ours == pytest.approx(unweighted_gaussian(a, b, sigma2), rel=1e-15)
            against = WeightedOutputKernel(sigma2, np.ones(5)).against([a], b)[0]
            assert against == pytest.approx(ours, rel=1e-14)

    def test_single_point_direct_substitution(self):
        # beta=2, difference 1, sigma2=1 -> exp(-1)
        assert weighted_kernel(1.0, [2.0], [1.0], [0.0]) == pytest.approx(
            math.exp(-1), rel=1e-15
        )
        assert WeightedOutputKernel(1.0, [2.0]).against([[1.0]], [0.0])[0] == pytest.approx(
            math.exp(-1), rel=1e-15
        )

    def test_symmetric_bounded(self):
        rng = np.random.default_rng(4)
        beta = rng.uniform(0.1, 3.0, size=6)
        for _ in range(30):
            a, b = rng.normal(size=6), rng.normal(size=6)
            v = weighted_kernel(1.3, beta, a, b)
            assert v == weighted_kernel(1.3, beta, b, a)
            assert 0.0 < v <= 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            weighted_kernel(1.0, [1.0, 1.0], [0.0, 1.0], [0.0])
        with pytest.raises(ValueError, match="length 2"):
            WeightedOutputKernel(1.0, [1.0, 1.0]).against([[0.0, 1.0]], [0.0])


class TestMedianHeuristic:
    def test_two_points(self):
        assert median_heuristic(np.array([[0.0], [3.0]])) == 9.0

    def test_three_collinear(self):
        # pairwise squared distances {1, 4, 9}; median is 4
        assert median_heuristic(np.array([[0.0], [1.0], [3.0]])) == 4.0

    def test_lower_median_for_even_pair_count(self):
        # four collinear points 0,1,3,7: distances {1,4,9,16,36,49};
        # lower median is 9
        assert median_heuristic(np.array([[0.0], [1.0], [3.0], [7.0]])) == 9.0

    def test_duplicated_points_error(self):
        with pytest.raises(DegenerateBandwidthError):
            median_heuristic(np.array([[1.0, 2.0], [1.0, 2.0]]))

    def test_weighted_metric(self):
        # with weights, distances are beta-weighted; two vectors only
        vecs = np.array([[0.0, 0.0], [1.0, 2.0]])
        beta = np.array([2.0, 0.5])
        assert median_heuristic(vecs, weights=beta) == pytest.approx(2 * 1 + 0.5 * 4, rel=1e-12)

    def test_needs_two_vectors(self):
        with pytest.raises(ValueError):
            median_heuristic(np.array([[1.0]]))


class TestPairwiseSqdist:
    def test_matches_direct_computation(self):
        rng = np.random.default_rng(5)
        mat = rng.normal(size=(7, 3))
        w = rng.uniform(0.5, 2.0, size=3)
        dist = pairwise_sqdist(mat, w)
        for i in range(7):
            for j in range(7):
                ref = float(np.sum(w * (mat[i] - mat[j]) ** 2))
                assert dist[i, j] == pytest.approx(ref, rel=1e-12, abs=1e-15)
        assert np.array_equal(dist, dist.T)

    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    @pytest.mark.parametrize("shape", [(1, 1), (2, 3), (16, 24), (200, 100), (400, 50), (2000, 2)])
    def test_bitwise_equal_to_numpy_gram_product(self, shape, weighted):
        # The rank-k update runs on scipy's OpenBLAS; this formula runs on
        # numpy's.  A wheel whose two builds sum differently fails here.
        rng = np.random.default_rng(shape[0] * 1000 + shape[1])
        mat = rng.normal(size=shape)
        mat[-1] = mat[0]
        if shape[0] > 3:
            mat[2] = mat[1]
        w = rng.uniform(0.2, 3.0, size=shape[1]) if weighted else None
        dist = pairwise_sqdist(mat, w)
        assert dist.tobytes() == numpy_product_sqdist(mat, w).tobytes()
        assert np.array_equal(dist, dist.T)


class TestInputsAreChecked:
    """Vectors must be finite and weights finite and non-negative, by the
    rule ``WeightedOutputKernel`` applies to beta; each entry point says so."""

    ENTRY_POINTS = {
        "pairwise_sqdist": pairwise_sqdist,
        "median_heuristic": median_heuristic,
        "gaussian_gram": lambda x, w: gaussian_gram(x, None, w),
    }

    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf], ids=["negative", "nan", "inf"])
    def test_weights_must_be_finite_and_non_negative(self, entry, bad):
        x = np.random.default_rng(14).normal(size=(6, 5))
        message = rf"^importance weights must be finite and >= 0, got {bad} at index 0$"
        with pytest.raises(ValueError, match=message):
            self.ENTRY_POINTS[entry](x, [bad, 1.0, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match=message):
            WeightedOutputKernel(1.0, [bad, 1.0])

    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_vectors_must_be_finite(self, entry, bad):
        x = np.random.default_rng(15).normal(size=(6, 5))
        x[3, 2] = bad
        with pytest.raises(ValueError, match=r"^vectors contain non-finite entries \(row 3\)$"):
            self.ENTRY_POINTS[entry](x, None)

    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    def test_weights_must_match_the_vector_length(self, entry):
        x = np.random.default_rng(16).normal(size=(6, 5))
        with pytest.raises(ValueError, match=r"^weight length \(4,\) does not match vector length 5$"):
            self.ENTRY_POINTS[entry](x, np.ones(4))

    def test_outputs_must_match_the_kernel_length(self):
        kernel = WeightedOutputKernel(1.0, np.ones(5))
        message = r"^pseudo-outputs must be shaped \(m, 5\), got \(6, 4\)$"
        for call in (kernel.gram, lambda o: kernel.against(o, np.zeros(5))):
            with pytest.raises(ValueError, match=message):
                call(np.zeros((6, 4)))


class TestEmptyOperands:
    def test_no_rows_or_no_columns_call_no_blas_and_warn_nothing(self, capfd):
        # the BLAS reports an empty operand as an illegal argument through C
        # stdio, and the column means of no rows warn
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert pairwise_sqdist(np.empty((0, 2))).shape == (0, 0)
            assert ParamKernel(1.0).gram(np.empty((0, 2))).shape == (0, 0)
            assert np.array_equal(pairwise_sqdist(np.empty((3, 0))), np.zeros((3, 3)))
            assert np.array_equal(ParamKernel(1.0).gram(np.empty((3, 0))), np.ones((3, 3)))
        ctypes.CDLL(None).fflush(None)  # C stdio buffers what goes to a file
        assert capfd.readouterr() == ("", "")
        assert [str(w.message) for w in caught] == []


def numpy_product_sqdist(mat, weights=None) -> np.ndarray:
    """``pairwise_sqdist`` formed from numpy's ``mat @ mat.T``: the bitwise reference."""
    mat = mat - mat.mean(axis=0)
    if weights is not None:
        mat *= np.sqrt(weights)
    out = mat @ mat.T
    norms = out.diagonal().copy()
    out *= -2.0
    out += np.add.outer(norms, norms)
    np.maximum(out, 0.0, out=out)
    np.fill_diagonal(out, 0.0)
    rows = np.unique(mat, axis=0, return_inverse=True)[1]
    out[rows[:, None] == rows[None, :]] = 0.0
    return out


class TestGramAndRhs:
    def test_single_pseudo_output(self):
        kern = WeightedOutputKernel(1.0, np.ones(2))
        gram, rhs = gram_and_rhs(np.array([[0.0, 0.0]]), np.array([1.0, 1.0]), kern)
        assert np.array_equal(gram, [[1.0]])
        assert rhs[0] == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_identical_rows_rank_one(self):
        kern = WeightedOutputKernel(2.0, np.ones(3))
        pseudo = np.tile([1.0, 2.0, 3.0], (4, 1))
        gram, _ = gram_and_rhs(pseudo, np.zeros(3), kern)
        assert np.array_equal(gram, np.ones((4, 4)))

    def test_two_by_two_hand_case(self):
        # hand evaluation of the weighted kernel on a desk example
        beta = np.array([2.0, 0.5])
        sigma2 = 1.5
        ya, yb = np.array([0.0, 0.0]), np.array([1.0, 2.0])
        observed = np.array([0.5, -1.0])
        g = math.exp(-(2 * 1 + 0.5 * 4) / (2 * 1.5))
        rhs_a = math.exp(-(2 * 0.25 + 0.5 * 1.0) / (2 * 1.5))
        rhs_b = math.exp(-(2 * 0.25 + 0.5 * 9.0) / (2 * 1.5))
        gram, rhs = gram_and_rhs(np.stack([ya, yb]), observed, WeightedOutputKernel(sigma2, beta))
        assert gram[0, 1] == pytest.approx(g, rel=1e-14)
        assert gram[1, 0] == gram[0, 1]
        assert np.array_equal(np.diag(gram), [1.0, 1.0])
        assert rhs[0] == pytest.approx(rhs_a, rel=1e-14)
        assert rhs[1] == pytest.approx(rhs_b, rel=1e-14)

    def test_exact_symmetry_large(self):
        rng = np.random.default_rng(6)
        kern = WeightedOutputKernel(5.0, rng.uniform(0.5, 2.0, size=10))
        gram, _ = gram_and_rhs(rng.normal(size=(40, 10)), rng.normal(size=10), kern)
        assert np.array_equal(gram, gram.T)
        assert np.all((gram > 0) & (gram <= 1.0))


class TestRegularizedSolve:
    def test_scalar_case(self):
        k = 0.7
        w = regularized_solve(np.array([[1.0]]), np.array([k]), epsilon=0.25)
        assert w[0] == pytest.approx(k / 1.25, rel=1e-12)

    def test_dominant_regularizer_limit(self):
        rng = np.random.default_rng(7)
        gram = np.eye(3) * 0.0 + rng.uniform(0, 1, (3, 3))
        gram = (gram + gram.T) / 2
        np.fill_diagonal(gram, 1.0)
        rhs = rng.uniform(0.1, 1.0, 3)
        eps = 1e7
        w = regularized_solve(gram, rhs, eps)
        assert np.allclose(w, rhs / (3 * eps), rtol=1e-6)

    def test_two_by_two_hand_inverse(self):
        g, a, b, eps = 0.6, 0.9, 0.4, 0.05
        w = regularized_solve(np.array([[1.0, g], [g, 1.0]]), np.array([a, b]), eps)
        d = 1.0 + 2 * eps
        det = d * d - g * g
        expected = np.array([(d * a - g * b) / det, (d * b - g * a) / det])
        assert np.allclose(w, expected, rtol=1e-12)

    def test_residual_bound_on_random_systems(self):
        rng = np.random.default_rng(8)
        kern_beta = rng.uniform(0.5, 2.0, size=8)
        for _ in range(20):
            m = int(rng.integers(2, 120))
            outputs = rng.normal(size=(m, 8))
            kern = WeightedOutputKernel(float(rng.uniform(0.5, 20.0)), kern_beta)
            eps = float(10 ** rng.uniform(-6, 0))
            gram, rhs = gram_and_rhs(outputs, rng.normal(size=8), kern)
            w = regularized_solve(gram.copy(), rhs, eps)
            lhs = gram + m * eps * np.eye(m)
            residual = np.max(np.abs(lhs @ w - rhs))
            assert residual <= 1e-10 * max(1.0, np.max(np.abs(rhs)))

    @pytest.mark.parametrize("damp", [1.0, 1.0 + 1e-7])  # 1e-7 off forces a refinement
    def test_stacked_rows_are_bitwise_their_own_solves(self, monkeypatch, damp):
        # at eps = 1e-6 (condition number up to 1e6) CG misses its cap of 8
        # steps, so the stack takes the Cholesky fallback: it is factored once,
        # and each row is solved and refined on its own, so it is bitwise what
        # the 1-D call gives
        from shiftcal import kern

        rng = np.random.default_rng(12)
        kernel = WeightedOutputKernel(4.0, rng.uniform(0.5, 2.0, size=6))
        outputs = rng.normal(size=(50, 6))
        gram = kernel.gram(outputs)
        rhs = np.array([kernel.against(outputs, rng.normal(size=6)) for _ in range(3)])
        calls = []
        cho_factor, cho_solve = kern.cho_factor, kern.cho_solve

        def counted_factor(*args, **kwargs):
            calls.append("factor")
            return cho_factor(*args, **kwargs)

        def damped_solve(*args, **kwargs):
            calls.append("solve")
            return damp * cho_solve(*args, **kwargs)

        monkeypatch.setattr(kern, "cho_factor", counted_factor)
        monkeypatch.setattr(kern, "cho_solve", damped_solve)
        singles = [regularized_solve(gram.copy(), b, 1e-6) for b in rhs]
        calls.clear()
        stacked = regularized_solve(gram.copy(), rhs, 1e-6)
        solves_per_row = 1 if damp == 1.0 else 2
        assert calls == ["factor"] + ["solve"] * (3 * solves_per_row)
        assert stacked.shape == rhs.shape
        assert all(row.tobytes() == one.tobytes() for row, one in zip(stacked, singles))

    def test_non_finite_rejected(self):
        with pytest.raises(SolveError):
            regularized_solve(np.array([[np.nan]]), np.array([1.0]), 0.1)

    @pytest.mark.parametrize("where", ["diagonal", "rhs"])
    def test_non_finite_rejected_on_the_cg_path(self, monkeypatch, where):
        # at m = 50 and eps = 10 CG solves the clean system, so it is the
        # check before the solve that must see the entry CG would read
        from shiftcal import kern

        factorizations = count_calls(monkeypatch, kern, "cho_factor")
        gram, rhs = solve_system(m=50, k=1)
        regularized_solve(gram.copy(), rhs, 10.0)
        assert factorizations == []
        if where == "diagonal":
            gram[17, 17] = np.inf
        else:
            rhs[0, 9] = np.nan
        with pytest.raises(SolveError, match="^non-finite entries in the regularized system$"):
            regularized_solve(gram, rhs, 10.0)

    @pytest.mark.parametrize(
        "gram,rhs,eps",
        [([[1e-10]], [1e308], 1e-300),                       # w overflows to inf
         ([[1.0, 0.0], [0.0, 1e-12]], [1.0, 1e300], 1e-320)],  # w is [nan, inf]
    )
    def test_non_finite_solution_raises(self, gram, rhs, eps):
        # a NaN residual fails the bound test, so it is refined once and raises
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SolveError, match="solve residual nan exceeds bound"):
                regularized_solve(np.array(gram), np.array(rhs), eps)

    def test_epsilon_must_be_positive(self):
        for eps in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"^epsilon must be finite and > 0, got {eps}$"):
                regularized_solve(np.array([[1.0]]), np.array([1.0]), eps)
        # finite, but m eps is not
        message = r"^regularizer shift m \* epsilon overflows: m = 3, epsilon = 1e\+308$"
        with pytest.raises(ValueError, match=message):
            regularized_solve(np.eye(3), np.ones(3), 1e308)

    @pytest.mark.parametrize(
        "gram,rhs",
        [(np.eye(2), np.ones(3)),         # rhs longer than the Gram matrix
         (np.ones((2, 3)), np.ones(2)),   # a non-square Gram matrix
         (np.eye(2), np.ones((2, 1))),    # rows of length 1 against a 2 x 2 matrix
         (np.eye(2), np.ones((1, 2, 2)))],  # rhs neither a vector nor a stack
    )
    def test_shape_mismatch_rejected(self, gram, rhs):
        with pytest.raises(ValueError, match="inconsistent system shapes"):
            regularized_solve(gram, rhs, 0.1)

    def test_empty_system_rejected(self):
        with pytest.raises(ValueError, match="^the regularized system is empty: G is 0 x 0$"):
            regularized_solve(np.empty((0, 0)), np.empty(0), 0.1)

    def test_shape_checked_before_finiteness(self):
        # a malformed system is a ValueError even when it also holds a NaN
        with pytest.raises(ValueError, match="inconsistent system shapes"):
            regularized_solve(np.array([[np.nan]]), np.ones(2), 0.1)


# On ``solve_system``'s rows CG meets its stop rule within its cap (m // 6 =
# 50 steps) at eps = 1e-2, and misses it at eps = 1e-6, where the condition
# number can reach 1e6, so the Cholesky fallback runs.
CG_EPS, FALLBACK_EPS = 1e-2, 1e-6


def solve_system(m=300, k=3, seed=13):
    """A Gram matrix whose size is no multiple of the 128-row block, and k right-hand sides."""
    rng = np.random.default_rng(seed)
    kernel = WeightedOutputKernel(3.0, rng.uniform(0.5, 2.0, size=6))
    outputs = rng.normal(size=(m, 6))
    rhs = np.array([kernel.against(outputs, rng.normal(size=6)) for _ in range(k)])
    return kernel.gram(outputs), rhs


class TestSolveInTheGramBuffer:
    """Both paths only read G, and only its upper triangle: CG, and the
    Cholesky fallback (forced here by eps = 1e-6), which factors a copy."""

    def test_plain_and_stacked_solves_leave_the_gram_unchanged(self, monkeypatch):
        from shiftcal import kern

        factorizations = count_calls(monkeypatch, kern, "cho_factor")
        for eps, rows in itertools.product((CG_EPS, FALLBACK_EPS), (0, slice(None))):
            gram, rhs = solve_system()  # rows: one vector, then the stack
            kept = gram.copy()
            expected = regularized_solve(gram.copy(), rhs[rows], eps).tobytes()
            factorizations.clear()
            assert regularized_solve(gram, rhs[rows], eps).tobytes() == expected
            assert gram.tobytes() == kept.tobytes()
            assert len(factorizations) == (eps == FALLBACK_EPS)

    def test_a_refinement_leaves_the_gram_unchanged(self, monkeypatch):
        from shiftcal import kern

        gram, rhs = solve_system()
        kept = gram.copy()
        calls = []
        cho_solve = kern.cho_solve

        def damped_solve(*args, **kwargs):  # 1e-7 off forces a refinement
            calls.append("solve")
            return (1.0 + 1e-7) * cho_solve(*args, **kwargs)

        monkeypatch.setattr(kern, "cho_solve", damped_solve)
        expected = regularized_solve(kept.copy(), rhs[0], FALLBACK_EPS)
        calls.clear()
        w = regularized_solve(gram, rhs[0], FALLBACK_EPS)
        assert calls == ["solve", "solve"]
        assert w.tobytes() == expected.tobytes()
        assert gram.tobytes() == kept.tobytes()
        lhs = kept + 300 * FALLBACK_EPS * np.eye(300)
        assert np.max(np.abs(lhs @ w - rhs[0])) <= 1e-10 * max(1.0, np.max(np.abs(rhs[0])))

    def test_a_failed_factorization_raises(self):
        gram = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
        with pytest.raises(SolveError, match="factorization failed"):
            regularized_solve(gram, np.ones(2), 1e-3)

    def test_an_exceeded_residual_bound_raises(self, monkeypatch):
        from shiftcal import kern

        gram, rhs = solve_system()
        monkeypatch.setattr(kern, "SOLVE_RTOL", 0.0)
        with pytest.raises(SolveError, match="exceeds bound"):
            regularized_solve(gram, rhs, 1e-3)

    def test_list_fortran_and_read_only_inputs_give_the_same_bits(self):
        for eps in (CG_EPS, FALLBACK_EPS):
            gram, rhs = solve_system()
            before = gram.tobytes()
            expected = regularized_solve(gram.copy(), rhs, eps).tobytes()
            read_only = gram.copy()
            read_only.flags.writeable = False
            fortran = np.asfortranarray(gram)
            for given in (gram.tolist(), fortran, read_only, gram):
                assert regularized_solve(given, rhs, eps).tobytes() == expected
            for given in (read_only, fortran, gram):  # never written, on either path
                assert given.tobytes() == before

    def test_a_not_quite_symmetric_gram_is_solved_from_its_upper_triangle(self):
        # CG and the factor both read G's upper triangle, so the solve is
        # that of the upper triangle's symmetrization
        for eps in (CG_EPS, FALLBACK_EPS):
            gram, rhs = solve_system()
            gram[3, 200] += 1e-13
            upper = np.triu(gram) + np.triu(gram, 1).T
            expected = regularized_solve(upper, rhs[0], eps).tobytes()
            assert regularized_solve(gram, rhs[0], eps).tobytes() == expected

    def test_garbage_below_the_diagonal_is_never_read(self):
        # finite, so it passes the finiteness check; the residual, like CG
        # and the factor, reads G's upper triangle only
        for eps in (CG_EPS, FALLBACK_EPS):
            gram, rhs = solve_system()
            expected = regularized_solve(gram, rhs, eps).tobytes()
            lower = np.tril_indices(len(gram), -1)
            gram[lower] = np.random.default_rng(3).uniform(-50.0, 50.0, size=len(lower[0]))
            assert regularized_solve(gram, rhs, eps).tobytes() == expected

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_below_the_diagonal_are_never_read(self, monkeypatch, bad):
        # the finiteness check reads G's upper triangle, as CG, the factor
        # and the residual do, so the weights keep the clean G's bits
        from shiftcal import kern

        factorizations = count_calls(monkeypatch, kern, "cho_factor")
        for eps in (CG_EPS, FALLBACK_EPS):
            gram, rhs = solve_system()
            expected = regularized_solve(gram, rhs, eps).tobytes()
            gram[40, 3] = gram[299, :299] = bad
            factorizations.clear()
            with np.errstate(all="raise"):
                assert regularized_solve(gram, rhs, eps).tobytes() == expected
            assert len(factorizations) == (eps == FALLBACK_EPS)

    @pytest.mark.parametrize(
        "where",
        [(3, 40), (17, 17), (299, 299), (130, 299), "past an overflow"],
        ids=["upper", "diagonal", "last", "second block", "past an overflow"],
    )
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_on_or_above_the_diagonal_are_rejected(self, where, bad):
        # finite entries near the largest double in row 0 do not stop the
        # blockwise read, which must still see the entry in a later block
        for eps in (CG_EPS, FALLBACK_EPS):
            gram, rhs = solve_system()
            if where == "past an overflow":
                gram[0, 1:3], where = 1e308, (200, 250)
            gram[where] = bad
            with pytest.raises(SolveError, match="^non-finite entries in the regularized system$"):
                regularized_solve(gram, rhs, eps)

    @pytest.mark.parametrize("below", ["finite", "nan"])
    def test_finite_entries_whose_row_sums_overflow_pass_the_check(self, below):
        # both rows sum past the largest double, but the check reads the
        # entries, not their sums; b is below CG's stopping tolerance, so
        # w = 0 is accepted without a step
        gram = np.array([[1e308, 9e307], [9e307, 1e308]])
        if below == "nan":
            gram[1, 0] = np.nan
        with np.errstate(all="raise"):
            w = regularized_solve(gram, np.array([1e-300, 2e-300]), 0.1)
        assert w.tobytes() == np.zeros(2).tobytes()

    def test_one_gram_solved_at_two_regularizers(self):
        # the first solve falls back, and the second reads the same G
        gram, rhs = solve_system()
        for eps in (FALLBACK_EPS, CG_EPS, FALLBACK_EPS):
            fresh = regularized_solve(solve_system()[0], rhs, eps).tobytes()
            assert regularized_solve(gram, rhs, eps).tobytes() == fresh

    def test_rows_of_gram_as_right_hand_sides(self):
        # (G + m eps I)^-1 G: the right-hand sides are views of G itself
        for eps in (CG_EPS, FALLBACK_EPS):
            gram, _ = solve_system()
            kept = gram.copy()
            expected = regularized_solve(kept.copy(), kept.copy(), eps)
            single = regularized_solve(gram, gram[0], eps)
            assert single.tobytes() == expected[0].tobytes()
            assert regularized_solve(gram, gram, eps).tobytes() == expected.tobytes()
            assert gram.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("name", ["linear-shift", "assembly-shift"])
    def test_no_refinement_runs_on_the_shift_presets(self, monkeypatch, name):
        # no Cholesky fallback and no refinement: CG meets the bound on a
        # shipped run, so neither cho_factor nor cho_solve is called
        from shiftcal import kern, pipeline
        from shiftcal.config import preset

        factorizations = count_calls(monkeypatch, kern, "cho_factor")
        solves = count_calls(monkeypatch, kern, "cho_solve")
        pipeline.calibrate(preset(name))
        assert factorizations == solves == []

    def test_peak_memory_of_an_embedding_at_m2000(self, embed_peak_m2000):
        # one m x m matrix at a time: the output Gram build, whose median
        # copies no pairs, then the theta build; the solve adds no second one
        assert embed_peak_m2000 <= 1.6 * 2000 * 2000 * 8

    def test_an_embedding_at_m2000_holds_one_matrix_and_its_row_blocks(self, embed_peak_m2000):
        # measured 1.27, set by the output distance pass: its row-block
        # buffers and copies of the (m, n) outputs; a pair buffer (0.5) or
        # a boolean copy of G (0.125) beside the matrix would not fit
        assert embed_peak_m2000 <= 1.35 * 2000 * 2000 * 8

    def test_an_embedding_at_m2000_makes_no_copy_of_the_outputs_beside_the_matrix(
        self, embed_peak_m2000
    ):
        # measured 1.13: repeated rows are found before dsyrk allocates G,
        # from one centred and scaled copy of the (m, n) outputs, which is
        # freed before the sweep; the sweep adds one 128-row block buffer
        assert embed_peak_m2000 <= 1.2 * 2000 * 2000 * 8

    def test_the_solve_allocates_only_vectors(self):
        # G is read, never copied: its finiteness is read block by block
        # of rows into one boolean buffer (measured 0.010 m^2 * 8 bytes at
        # m = 2000: that buffer and m-vectors)
        m = 2000
        gram, rhs = solve_system(m=m, k=1)
        assert traced_peak(lambda: regularized_solve(gram, rhs, CG_EPS)) <= 0.02 * m * m * 8

    def test_the_fallback_allocates_one_copy_of_g(self):
        # the factor is made in one copy of G (measured 1.013 m^2 * 8 bytes
        # at m = 500, 1.003 at m = 2000); G itself is only read
        m = 500
        gram, rhs = solve_system(m=m, k=1)
        assert traced_peak(lambda: regularized_solve(gram, rhs, FALLBACK_EPS)) <= 1.1 * m * m * 8


@pytest.fixture(scope="module")
def embed_peak_m2000() -> int:
    """Traced peak bytes of ``Prepared.embed`` on linear-shift at m = 2000."""
    from shiftcal import pipeline
    from shiftcal.config import preset

    prepared = pipeline.prepare(preset("linear-shift", m=2000, herd_size=2000))
    return traced_peak(prepared.embed)


def traced_peak(fn) -> int:
    """Peak bytes ``tracemalloc`` sees allocated during ``fn()``, above the start."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def count_calls(monkeypatch, module, name) -> list:
    """Each call of ``module.name`` from now on appends to the returned list."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestConjugateGradients:
    """CG is the main path: its step count does not grow with m, and only
    rows it cannot solve take the Cholesky fallback."""

    @pytest.mark.parametrize("name,most", [("linear-shift", 12), ("assembly-shift", 24)])
    def test_steps_do_not_grow_with_m(self, monkeypatch, name, most):
        # kappa(G + m eps I) <= 1 + 1/eps at any m (measured: 9 steps on
        # linear-shift at eps = 1, 16-18 on assembly-shift at eps = 0.01)
        from shiftcal import kern, pipeline
        from shiftcal.config import preset

        products = count_calls(monkeypatch, kern, "dsymv")
        factorizations = count_calls(monkeypatch, kern, "cho_factor")
        for m in (200, 800, 2000):
            for seed in range(1, 6):
                prepared = pipeline.prepare(preset(name, m=m, seed=seed))
                gram, sigma2 = gaussian_gram(prepared.outputs, None, prepared.beta)
                rhs = WeightedOutputKernel(sigma2, prepared.beta).against(
                    prepared.outputs, prepared.dataset.y
                )
                products.clear()
                regularized_solve(gram, rhs, prepared.epsilon)
                steps = len(products) - 1  # one product per step, one for the true residual
                assert 0 < steps <= most, (m, seed, steps)
        assert factorizations == []

    def test_negative_curvature_stops_cg_at_its_first_step(self, monkeypatch):
        # G = -I: p'(G + m eps I)p < 0 on the first step, so CG hands the row
        # to the fallback after one product, and the factorization fails
        from shiftcal import kern

        products = count_calls(monkeypatch, kern, "dsymv")
        message = r"^factorization failed: 1-th leading minor of the array is not positive definite$"
        with pytest.raises(SolveError, match=message):
            regularized_solve(-np.eye(12), np.ones(12), 1e-6)
        assert products == ["dsymv"]  # a second step would make a second product

    def test_an_ill_conditioned_system_falls_back_and_meets_the_bound(self, monkeypatch):
        from shiftcal import kern

        factorizations = count_calls(monkeypatch, kern, "cho_factor")
        gram, rhs = solve_system()
        lhs = gram + 300 * FALLBACK_EPS * np.eye(300)
        w = regularized_solve(gram, rhs, FALLBACK_EPS)
        assert factorizations == ["cho_factor"]
        for row, b in zip(w, rhs):
            assert np.max(np.abs(lhs @ row - b)) <= 1e-10 * max(1.0, np.max(np.abs(b)))

    def test_converged_rows_keep_their_cg_bits_beside_a_fallback_row(self, monkeypatch):
        # G's top eigenvector is solved in one CG step even at eps = 1e-6,
        # while a kernel row there falls back: the stack factors G once, and
        # each row is bitwise its own 1-D solve, by whichever path it took
        from shiftcal import kern

        gram, rhs = solve_system()
        top = np.linalg.eigh(gram)[1][:, -1]
        stack = np.array([top, rhs[0]])
        kept = gram.copy()
        single = regularized_solve(gram, top, FALLBACK_EPS)
        assert gram.tobytes() == kept.tobytes()  # CG: G read, not written
        fallback = regularized_solve(gram.copy(), rhs[0], FALLBACK_EPS)
        factorizations = count_calls(monkeypatch, kern, "cho_factor")
        stacked = regularized_solve(gram, stack, FALLBACK_EPS)
        assert factorizations == ["cho_factor"]
        assert stacked[0].tobytes() == single.tobytes()
        assert stacked[1].tobytes() == fallback.tobytes()


class TestBandwidthMustBeFinite:
    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan"), 0.0, -1.0])
    def test_every_entry_point_rejects_it(self, bad):
        message = f"^sigma2 must be finite and > 0, got {bad}$"
        with pytest.raises(ValueError, match=message):
            ParamKernel(bad)
        with pytest.raises(ValueError, match=message):
            WeightedOutputKernel(bad, np.ones(2))
        with pytest.raises(ValueError, match=message):
            gaussian_gram(np.array([[0.0, 1.0], [2.0, 3.0]]), sigma2=bad)


# -- properties of the one-pass distances, against explicit differences --------

EPS = np.finfo(float).eps


def explicit_sqdist(vectors, weights=None):
    """Reference: every pair from its own explicit difference vector."""
    mat = np.atleast_2d(np.asarray(vectors, dtype=float).T).T
    w = np.ones(mat.shape[1]) if weights is None else np.asarray(weights, dtype=float)
    diff = mat[:, None, :] - mat[None, :, :]
    return np.einsum("ijk,ijk,k->ij", diff, diff, w)


def lower_median_of_pairs(dist):
    pairs = np.sort(dist[np.triu_indices_from(dist, k=1)])
    return float(pairs[(pairs.size - 1) // 2])


@st.composite
def vector_sets(draw, max_m=30, max_n=20):
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(1, max_n))
    values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    mat = draw(arrays(float, (m, n), elements=values))
    weights = draw(st.none() | arrays(float, n, elements=st.floats(0.0, 10.0)))
    return mat, weights


@st.composite
def sample_sets(draw, min_n=1, max_n=60):
    """Gaussian-like data as a simulator produces it: offset, spread, weights."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(2, 80))
    n = draw(st.integers(min_n, max_n))
    offset = draw(st.floats(-1e6, 1e6))
    scale = draw(st.floats(1e-3, 1e3))
    mat = offset + rng.normal(size=n) + scale * rng.normal(size=(m, n))
    return mat, rng.uniform(0.0, 3.0, size=n), rng


class TestPairwiseSqdistProperties:
    @given(vector_sets())
    def test_symmetric_zero_diagonal_nonnegative(self, case):
        mat, weights = case
        dist = pairwise_sqdist(mat, weights)
        assert np.array_equal(dist, dist.T)
        assert np.all(np.diag(dist) == 0.0)
        assert np.all(dist >= 0.0)

    @given(vector_sets())
    def test_error_within_rounding_of_centred_norms(self, case):
        mat, weights = case
        w = np.ones(mat.shape[1]) if weights is None else weights
        centred = mat - mat.mean(axis=0)
        norms = np.einsum("ij,ij,j->i", centred, centred, w)
        bound = 8 * (mat.shape[1] + 4) * EPS * (norms[:, None] + norms[None, :])
        err = np.abs(pairwise_sqdist(mat, weights) - explicit_sqdist(mat, weights))
        assert np.all(err <= bound)

    @given(sample_sets())
    def test_error_relative_to_median_distance(self, case):
        mat, weights, _ = case
        ref = explicit_sqdist(mat, weights)
        err = np.max(np.abs(pairwise_sqdist(mat, weights) - ref))
        assert err <= 1e-12 * lower_median_of_pairs(ref)

    @given(sample_sets(max_n=120))
    def test_identical_rows_exactly_zero(self, case):
        mat, weights, rng = case
        copies = rng.integers(0, mat.shape[0], size=mat.shape[0])
        mat = mat[copies]
        dist = pairwise_sqdist(mat, weights)
        same = copies[:, None] == copies[None, :]
        assert np.all(dist[same] == 0.0)
        assert np.all(dist[~same] > 0.0)

    @given(st.integers(2, 60), st.integers(50, 150), st.integers(0, 2**32 - 1))
    def test_all_duplicate_rows_degenerate(self, m, n, seed):
        weights = np.random.default_rng(seed).uniform(0.1, 3.0, size=n)
        rows = np.tile(0.1 * np.arange(1, n + 1), (m, 1))
        with pytest.raises(DegenerateBandwidthError):
            median_heuristic(rows, weights=weights)

    @given(sample_sets(max_n=10))
    def test_median_is_lower_median_of_pairs(self, case):
        mat, weights, _ = case
        dist = pairwise_sqdist(mat, weights)
        assert median_heuristic(mat, weights) == lower_median_of_pairs(dist)
        assert gaussian_gram(mat, weights=weights)[1] == lower_median_of_pairs(dist)


def full_matrix_median(sqdist) -> float:
    """The median read from the whole matrix: one ``np.partition`` over all m^2
    entries, where the m diagonal zeros sort first and each pair sits twice."""
    m = len(sqdist)
    k = m + 2 * ((m * (m - 1) // 2 - 1) // 2)
    return float(np.partition(sqdist, k, axis=None)[k])


def sample_stride(m) -> int:
    """The stride of the median's sample over the flattened matrix:
    near m / 8, and coprime with m - 1, m and m + 1, so that it reads every
    column, every diagonal and both triangles alike."""
    stride = max(1, m // 8)
    while math.gcd(stride, (m - 1) * m * (m + 1)) != 1:
        stride += 1
    return stride


class TestMedianOverOneTriangle:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 16, 201, 400])
    def test_equals_the_full_matrix_median(self, m):
        # odd and even pair counts: m(m-1)/2 is 1, 3, 6, 10, 120, 20100, 79800
        rng = np.random.default_rng(m)
        mat, beta = rng.normal(size=(m, 7)), rng.uniform(0.0, 2.0, size=7)
        oracle = full_matrix_median(pairwise_sqdist(mat, beta))
        assert median_heuristic(mat, beta) == oracle
        gram, sigma2 = gaussian_gram(mat, weights=beta)
        assert sigma2 == oracle
        fixed, given = gaussian_gram(mat, oracle, beta)
        assert given == oracle and fixed.tobytes() == gram.tobytes()

    @pytest.mark.parametrize("m", [4, 5, 16, 201, 600, 1000])
    def test_tied_distances(self, m):
        # shuffled integers: pairs k apart all share the distance k^2
        mat = np.random.default_rng(m).permutation(m).astype(float)
        sqdist = pairwise_sqdist(mat)
        assert median_heuristic(mat) == full_matrix_median(sqdist) == gaussian_gram(mat)[1]

    @pytest.mark.parametrize("m", [16, 201, 400, 600, 1000])
    def test_duplicate_rows(self, m):
        rng = np.random.default_rng(m + 1)
        mat = rng.normal(size=(m, 5))[rng.integers(0, m // 2, size=m)]
        sqdist = pairwise_sqdist(mat)
        assert median_heuristic(mat) == full_matrix_median(sqdist) == gaussian_gram(mat)[1]

    @pytest.mark.parametrize("side", ["above", "below"])
    def test_a_bracket_that_misses_is_widened(self, monkeypatch, side):
        # a symmetric, zero-diagonal matrix of distinct pair values in which
        # every pair the sample reads is larger (smaller) than all others, so
        # the median lies below (above) the first bracket; it is handed to
        # the median as the sweep leaves it, with its sample and first count
        from shiftcal import kern

        m = 600
        rows, cols = np.divmod(np.arange(0, m * m, sample_stride(m)), m)
        sampled = np.zeros((m, m), dtype=bool)
        sampled[rows, cols] = sampled[cols, rows] = True
        upper = np.triu_indices(m, 1)
        raised = sampled[upper] if side == "above" else ~sampled[upper]
        sqdist = np.zeros((m, m))
        sqdist[upper] = np.arange(1.0, len(raised) + 1) + len(raised) * raised
        sqdist += sqdist.T
        sample = np.sort(sqdist[rows, cols])
        brackets = [kern._bracket(sample, m)]
        below, inside = kern._count_and_collect(sqdist, *brackets[0])
        collect = kern._count_and_collect

        def spy(matrix, lo, hi):
            brackets.append((lo, hi))
            return collect(matrix, lo, hi)

        monkeypatch.setattr(kern, "_count_and_collect", spy)
        median = kern._bracketed_median(sqdist, sample, below, inside)
        assert median == full_matrix_median(sqdist)
        first_lo, first_hi = brackets[0]
        assert (median < first_lo) if side == "above" else (median > first_hi)
        last_lo, last_hi = brackets[-1]
        assert len(brackets) > 1 and last_lo <= median <= last_hi

    def test_a_nan_or_a_non_finite_median_is_rejected(self):
        # finite vectors can overflow: inf and NaN distances
        with np.errstate(invalid="ignore", over="ignore"):
            for entry in (median_heuristic, lambda x: gaussian_gram(x)[1]):
                with pytest.raises(ValueError, match="^pairwise squared distances hold a NaN$"):
                    entry(np.array([[1e200], [-1e200], [0.0], [3e199]]))
                with pytest.raises(
                    ValueError, match="^median pairwise squared distance is not finite, got inf$"
                ):
                    entry(np.array([[1e200], [-1e200]]))

    def test_every_sweep_rejects_a_nan_distance(self):
        # the fixed-bandwidth sweeps look for a NaN by the median sweep's
        # rule, instead of returning NaN distances or a NaN Gram matrix
        x = np.array([[1e200], [-1e200], [0.0], [3e199]])
        with np.errstate(invalid="ignore", over="ignore"):
            for entry in (pairwise_sqdist, lambda x: gaussian_gram(x, 1.0),
                          ParamKernel(1.0).gram, WeightedOutputKernel(1.0, [1.0]).gram):
                with pytest.raises(ValueError, match="^pairwise squared distances hold a NaN$"):
                    entry(x)

    def test_a_norm_near_overflow_raises_no_floating_point_error(self):
        # 4 times the largest centred norm (about 5e307) overflows, though
        # every distance is finite: the NaN guard compares without a product
        rng = np.random.default_rng(17)
        huge = rng.normal(size=(300, 2)) * 1e150
        huge[7, 0] = 7.1e153
        with np.errstate(all="ignore"):
            quiet_gram, quiet_sigma2 = gaussian_gram(huge)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="raise", invalid="raise"):
                gram, sigma2 = gaussian_gram(huge)
        assert gram.tobytes() == quiet_gram.tobytes() and sigma2 == quiet_sigma2
        assert np.isfinite(gram).all()

    def test_error_messages_kept(self):
        with pytest.raises(
            DegenerateBandwidthError,
            match=r"^median pairwise squared distance is zero; points are \(mostly\) duplicated$",
        ):
            gaussian_gram(np.tile([1.0, -2.0], (6, 1)))
        with pytest.raises(ValueError, match="^median heuristic needs at least 2 vectors, got 1$"):
            gaussian_gram(np.array([[1.0, 2.0]]))

    def test_peak_memory_is_the_distance_matrix_and_one_triangle(self):
        # the median copies only the pairs inside its bracket, not the
        # m(m-1)/2 pairs of a triangle
        m = 600
        mat = np.random.default_rng(12).normal(size=(m, 20))
        assert traced_peak(lambda: gaussian_gram(mat)) <= 1.6 * m * m * 8

    def test_peak_memory_is_the_distance_matrix_and_its_row_blocks(self):
        # measured 1.22 at m = 1000, all of it in the distance pass: the
        # matrix and its row-block buffers; one triangle of pairs adds 0.5
        m = 1000
        mat = np.random.default_rng(12).normal(size=(m, 20))
        assert traced_peak(lambda: gaussian_gram(mat)) <= 1.3 * m * m * 8


class TestDuplicateRowCheck:
    @pytest.mark.parametrize("m", [100, 300])
    def test_signed_zeros_in_a_zero_weight_column(self, m):
        # each row appears twice, the copies scattered, and differing only in
        # a zero-weight column, as +1 and -1: after centring and scaling they
        # differ only by +-0.0, so no two rows have equal bytes, yet each
        # pair is exactly 0 apart (the BLAS alone leaves some pairs at ~1e-11)
        for n in (9, 30, 64):
            for seed in range(4):
                rng = np.random.default_rng(seed)
                order = rng.permutation(m)
                source = order % (m // 2)
                mat = (10.0 * rng.normal(size=(m // 2, n)) + rng.normal(size=n))[source]
                mat[:, 4] = np.where(order < m // 2, 1.0, -1.0)
                beta = rng.uniform(0.5, 2.0, size=n)
                beta[4] = 0.0
                dist = pairwise_sqdist(mat, beta)
                assert dist.tobytes() == numpy_product_sqdist(mat, beta).tobytes()
                same = source[:, None] == source[None, :]
                assert np.all(dist[same] == 0.0) and np.all(dist[~same] > 0.0)

    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    def test_exact_duplicates_scattered(self, weighted):
        # 300 rows drawn from 150 with replacement, offset from the origin
        for n in (9, 30, 64):
            for seed in range(4):
                rng = np.random.default_rng(seed)
                source = rng.integers(0, 150, size=300)
                mat = (10.0 * rng.normal(size=(150, n)) + rng.normal(size=n))[source]
                weights = rng.uniform(0.2, 3.0, size=n) if weighted else None
                dist = pairwise_sqdist(mat, weights)
                assert dist.tobytes() == numpy_product_sqdist(mat, weights).tobytes()
                same = source[:, None] == source[None, :]
                assert np.all(dist[same] == 0.0) and np.all(dist[~same] > 0.0)


class TestSharedDistanceBuffer:
    def test_gram_built_in_the_distance_buffer(self, monkeypatch):
        # gaussian_gram counts the median in the sweep that forms its one
        # distance matrix, then forms the Gaussian in that matrix's buffer
        from shiftcal import kern

        rng = np.random.default_rng(9)
        outputs, beta = rng.normal(size=(30, 6)), rng.uniform(0.5, 2.0, size=6)
        buffers = []
        sweep = kern._sqdist_sweep

        def recorded(vectors, weights=None, median=False, out=None):
            result = sweep(vectors, weights, median, out)
            buffers.append(result[0])
            return result

        monkeypatch.setattr(kern, "_sqdist_sweep", recorded)
        gram, sigma2 = gaussian_gram(outputs, weights=beta)
        assert len(buffers) == 1 and np.shares_memory(gram, buffers[0])
        monkeypatch.undo()
        assert sigma2 == median_heuristic(outputs, beta)
        assert np.array_equal(gram, WeightedOutputKernel(sigma2, beta).gram(outputs))
        assert np.array_equal(gram, gram.T) and np.all(np.diag(gram) == 1.0)
        fixed, given = gaussian_gram(outputs, 4.0, beta)
        assert given == 4.0 and np.array_equal(fixed, WeightedOutputKernel(4.0, beta).gram(outputs))
        with pytest.raises(ValueError, match="^sigma2 must be finite and > 0, got 0.0$"):
            gaussian_gram(outputs, 0.0, beta)

    def test_the_unspecified_triangle_never_reaches_a_result(self, monkeypatch):
        # every m x m matrix kern allocates starts as NaN: a build leaves
        # most of the strict lower triangle unspecified, and the results
        # keep the bits of a zeroed start, with the public matrices
        # mirrored over all of it
        from shiftcal import kern, pipeline
        from shiftcal.config import preset

        rng = np.random.default_rng(17)
        mat, beta = rng.normal(size=(300, 6)), rng.uniform(0.5, 2.0, size=6)
        # a norm near overflow makes the median sweep look for a NaN among
        # the entries it forms, the strict lower part of each block's
        # leading square included
        huge = rng.normal(size=(300, 2)) * 1e150
        huge[7, 0] = 7.1e153
        prepared = [pipeline.prepare(preset("linear-shift", m=300, herd_size=300)),
                    pipeline.prepare(preset("assembly-shift"))]

        def results_from(start):
            monkeypatch.setattr(kern, "_square", lambda m: np.full((m, m), start))
            with np.errstate(all="raise"):
                embeddings = [prep.embed()[0] for prep in prepared]
                matrices = [gaussian_gram(mat, None, beta)[0], pairwise_sqdist(mat, beta),
                            ParamKernel(2.0).gram(mat), *(e.theta_gram for e in embeddings)]
            gram, sigma2 = gaussian_gram(huge)
            return [*matrices, gram], [*(e.weights for e in embeddings), np.array(sigma2)]

        clean, poisoned = results_from(0.0), results_from(np.nan)
        for ours, theirs in zip([*poisoned[0], *poisoned[1]], [*clean[0], *clean[1]]):
            assert ours.tobytes() == theirs.tobytes()
        for matrix in poisoned[0]:
            assert np.array_equal(matrix, matrix.T)

    def test_an_embedding_allocates_one_matrix(self, monkeypatch):
        # the theta pass's dsyrk writes into the output Gram build's buffer
        from shiftcal import kern, pipeline
        from shiftcal.config import preset

        prepared = pipeline.prepare(preset("linear-shift", m=300, herd_size=300))
        squares, targets = [], []
        square, dsyrk = kern._square, kern.dsyrk

        def recorded_square(m):
            squares.append(square(m))
            return squares[-1]

        def recorded_dsyrk(*args, c=None, **kwargs):
            targets.append(c)
            return dsyrk(*args, c=c, **kwargs)

        monkeypatch.setattr(kern, "_square", recorded_square)
        monkeypatch.setattr(kern, "dsyrk", recorded_dsyrk)
        (embedding,) = prepared.embed()
        assert len(squares) == 1 and squares[0].shape == (300, 300)
        assert len(targets) == 2 and all(np.shares_memory(c, squares[0]) for c in targets)
        assert np.shares_memory(embedding.theta_gram, squares[0])

    def test_calibrate_makes_one_output_pass_one_theta_pass_and_no_cross(self, monkeypatch):
        # the theta pass gives the bandwidth median and the Gram matrix the
        # embedding carries to herding, which reads the embedding from it too
        from shiftcal import pipeline
        from shiftcal.config import preset

        calls = record_distance_passes(monkeypatch)
        result = pipeline.calibrate(preset("linear-shift", n=24, m=16, herd_size=16, n_test=24))
        assert calls == [(16, 24), (16, 2)]
        assert result.embedding.kernel.sigma2 == median_heuristic(result.draws)

    def test_extra_pool_candidates_are_no_longer_a_config_key(self, monkeypatch):
        # the herding pool is the prior draws: a config asking for extra
        # candidates fails at load, before any distance pass
        from shiftcal.config import preset

        calls = record_distance_passes(monkeypatch)
        with pytest.raises(ValueError, match="unknown keys in config: pool_extra$"):
            preset("linear-shift", n=24, m=16, herd_size=16, n_test=24, pool_extra=5)
        assert calls == []

    def test_theorem1_check_reads_the_carried_theta_gram(self, monkeypatch):
        # both embeddings come from one output pass, one solve of a two-row
        # stack and one theta pass, as in calibrate; the distance between
        # them reuses the carried theta matrix
        from shiftcal import kabc, pipeline
        from shiftcal.config import preset

        calls = record_distance_passes(monkeypatch)
        solves = []

        def counted_solve(gram, rhs, epsilon):
            solves.append((np.shape(gram), np.shape(rhs)))
            return regularized_solve(gram, rhs, epsilon)

        monkeypatch.setattr(kabc, "regularized_solve", counted_solve)
        pipeline.theorem1_check(preset("linear-shift", n=24, m=16), grid_resolution=5)
        assert calls == [(16, 24), (16, 2)]
        assert solves == [((16, 16), (2, 16))]


def two_pass_gram(mat, weights=None):
    """The Gram build as two passes: the whole distance matrix, the median
    read from all of it, then one whole-matrix divide and exp."""
    dist = pairwise_sqdist(mat, weights)
    sigma2 = full_matrix_median(dist)
    return np.exp(dist / (-2.0 * sigma2)), sigma2


def points_with_sqdist(sqdist) -> np.ndarray:
    """Points whose pairwise squared distances are ``sqdist`` (classical
    multidimensional scaling; ``sqdist`` must be Euclidean)."""
    m = len(sqdist)
    centring = np.eye(m) - 1.0 / m
    values, vectors = np.linalg.eigh(-0.5 * centring @ sqdist @ centring)
    return vectors * np.sqrt(np.maximum(values, 0.0))


class TestOneSweepGramBuild:
    """``gaussian_gram`` forms the distances and counts the median in one
    sweep, then forms the Gaussian in a second one over the upper triangle;
    it gives the bits of the two-pass build."""

    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    @pytest.mark.parametrize("data", ["ties", "duplicates"])
    @pytest.mark.parametrize("m", [2, 3, 127, 128, 129, 257, 1000])
    def test_bitwise_the_two_pass_build(self, m, data, weighted):
        rng = np.random.default_rng(m)
        if data == "ties":  # distinct points of an integer grid: many equal distances
            mat = np.stack([np.arange(m) % 7, np.arange(m) // 7, np.zeros(m)], axis=1)
            mat = mat[rng.permutation(m)].astype(float)
        else:  # each point drawn about 1.5 times, the copies scattered
            source = rng.permutation(np.arange(m) % max(2, 2 * m // 3))
            mat = rng.normal(size=(m, 3))[source]
        weights = np.array([0.5, 2.0, 0.0]) if weighted else None
        assert pairwise_sqdist(mat, weights).tobytes() == numpy_product_sqdist(mat, weights).tobytes()
        expected, median = two_pass_gram(mat, weights)
        gram, sigma2 = gaussian_gram(mat, None, weights)
        assert sigma2 == median == median_heuristic(mat, weights)
        assert gram.tobytes() == expected.tobytes()
        fixed, _ = gaussian_gram(mat, median, weights)
        assert fixed.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("side", ["above", "below"])
    def test_a_missed_bracket_is_recounted_over_the_formed_triangle(self, monkeypatch, side):
        # points whose pairs the sample reads are all farther (nearer) apart
        # than all others, so the median lies below (above) the sweep's
        # bracket and only a recount finds it
        from shiftcal import kern

        m = 300
        rows, cols = np.divmod(np.arange(0, m * m, sample_stride(m)), m)
        sampled = np.zeros((m, m), dtype=bool)
        sampled[rows, cols] = sampled[cols, rows] = True
        upper = np.triu_indices(m, 1)
        raised = sampled[upper] if side == "above" else ~sampled[upper]
        # distinct offsets of at most 1 / m on the regular simplex's 2: still Euclidean
        offsets = np.zeros((m, m))
        offsets[upper] = (np.arange(1.0, len(raised) + 1) / len(raised) + raised) / (2 * m)
        points = points_with_sqdist(2.0 - 2.0 * np.eye(m) + offsets + offsets.T)
        sqdist = pairwise_sqdist(points)
        median = full_matrix_median(sqdist)
        sample = np.sort(sqdist[rows, cols])
        first_lo, first_hi = kern._bracket(sample, m)
        assert (median < first_lo) if side == "above" else (median > first_hi)
        recounts, matrices = [], []
        collect = kern._count_and_collect

        def spy(matrix, lo, hi):
            recounts.append((lo, hi))
            matrices.append(matrix)
            return collect(matrix, lo, hi)

        monkeypatch.setattr(kern, "_count_and_collect", spy)
        gram, sigma2 = gaussian_gram(points)
        assert sigma2 == median and len(recounts) > 0  # the sweep's bracket, then recounts
        last_lo, last_hi = recounts[-1]
        assert last_lo <= median <= last_hi
        assert all(np.shares_memory(matrix, gram) for matrix in matrices)
        assert gram.tobytes() == two_pass_gram(points)[0].tobytes()
        recounts.clear()
        assert gaussian_gram(np.random.default_rng(3).normal(size=(m, 4)))[1] > 0
        assert recounts == []  # a bracket that holds the median is counted once, in the sweep

    def test_a_hash_collision_only_costs_an_exact_comparison(self, monkeypatch):
        # equal rows are found by hashing their bytes; hashes that coincide
        # for distinct rows are resolved by comparing the rows
        from shiftcal import kern

        rng = np.random.default_rng(21)
        mat = rng.normal(size=(150, 9))
        mat[40] = mat[7]
        expected = numpy_product_sqdist(mat)
        monkeypatch.setattr(kern, "_GOLDEN", np.uint64(0))  # every row hashes to 0
        dist = pairwise_sqdist(mat)
        assert dist.tobytes() == expected.tobytes()
        assert dist[7, 40] == 0.0 and np.count_nonzero(dist == 0.0) == 150 + 2


class TestCgReadsTheUpperTriangle:
    def test_the_lower_triangle_is_never_read_by_cg(self, monkeypatch):
        # the finiteness check and CG read only G's upper triangle, so a
        # strict lower triangle of NaN written between them keeps the
        # weights' bits
        from shiftcal import kern

        rng = np.random.default_rng(13)
        outputs, beta = rng.normal(size=(300, 6)), rng.uniform(0.5, 2.0, size=6)
        gram = gaussian_gram(outputs, None, beta)[0]
        rhs = gram[:3].copy()
        expected = regularized_solve(gram.copy(), rhs, CG_EPS).tobytes()
        factorizations = count_calls(monkeypatch, kern, "cho_factor")
        cg = kern._conjugate_gradients

        def poisoned(gram_f, shift, b):  # gram_f's strict upper triangle is G's strict lower
            gram_f[np.triu_indices(len(b), 1)] = np.nan
            return cg(gram_f, shift, b)

        monkeypatch.setattr(kern, "_conjugate_gradients", poisoned)
        assert regularized_solve(gram, rhs, CG_EPS).tobytes() == expected
        assert factorizations == []


def record_distance_passes(monkeypatch) -> list:
    """Shapes of every distance sweep from now on (``kern._sqdist_sweep``,
    which every Gram build enters), and any ``cross`` call."""
    from shiftcal import kern

    calls = []
    sweep = kern._sqdist_sweep
    cross = ParamKernel.cross

    def counted(vectors, weights=None, median=False, out=None):
        calls.append(np.shape(vectors))
        return sweep(vectors, weights, median, out)

    def counted_cross(self, left, right):
        calls.append("cross")
        return cross(self, left, right)

    monkeypatch.setattr(kern, "_sqdist_sweep", counted)
    monkeypatch.setattr(ParamKernel, "cross", counted_cross)
    return calls


class TestRegularizedSolveProperties:
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 150),
        st.floats(0.5, 50.0),
        st.floats(-8.0, 0.0),
    )
    def test_residual_bound(self, seed, m, sigma2, log_eps):
        rng = np.random.default_rng(seed)
        kern = WeightedOutputKernel(sigma2, rng.uniform(0.2, 3.0, size=10))
        eps = 10.0**log_eps
        gram, rhs = gram_and_rhs(rng.normal(size=(m, 10)), rng.normal(size=10), kern)
        gram_before = gram.copy()
        w = regularized_solve(gram, rhs, eps)
        residual = gram_before @ w + m * eps * w - rhs
        assert np.max(np.abs(residual)) <= 1e-10 * max(1.0, np.max(np.abs(rhs)))

    def test_gate_raises_when_bound_exceeded(self, monkeypatch):
        from shiftcal import kern

        rng = np.random.default_rng(10)
        gram, rhs = gram_and_rhs(
            rng.normal(size=(40, 5)), rng.normal(size=5), WeightedOutputKernel(2.0, np.ones(5))
        )
        monkeypatch.setattr(kern, "SOLVE_RTOL", 0.0)
        with pytest.raises(SolveError, match="exceeds bound"):
            regularized_solve(gram, rhs, 1e-3)


class TestScipyRoutinesWithoutScipyLinalg:
    """kern loads scipy's ``_fblas`` and ``_flapack`` from their files, not
    through ``scipy.linalg``, and its routines are scipy's to the bit."""

    def test_import_leaves_scipy_linalg_unloaded(self):
        import shiftcal

        src = str(Path(shiftcal.__file__).resolve().parents[1])
        probe = (
            "import sys, shiftcal, shiftcal.cli; "
            "print(sorted({'scipy.linalg', 'numpy.f2py', 'unittest'} & set(sys.modules)))"
        )
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, check=True)
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("m", [1, 7, 130, 600])
    def test_blas_routines_give_scipy_linalg_bits(self, m):
        from scipy.linalg import blas

        from shiftcal import kern

        rng = np.random.default_rng(m)
        rows = rng.normal(size=(m, 9))
        vec, other = rng.normal(size=m), rng.normal(size=m)
        sym = np.asfortranarray(rng.normal(size=(m, m)))
        for name, args, kwargs in [
            ("dsyrk", (-2.0, rows.T), {"trans": 1, "lower": 1}),
            ("dsymv", (1.0, sym, vec), {"lower": 1}),
            ("dgemv", (1.0, sym.T, vec), {"trans": 1}),
            ("dgemv", (1.0, sym.T, vec), {}),
            ("ddot", (vec, other), {}),
        ]:
            ours = np.asarray(getattr(kern, name)(*args, **kwargs))
            theirs = np.asarray(getattr(blas, name)(*args, **kwargs))
            assert ours.tobytes() == theirs.tobytes(), name

    def test_cholesky_gives_scipy_linalg_bits(self):
        import scipy.linalg

        from shiftcal import kern

        gram, rhs = solve_system(m=300, k=3)
        gram_f = np.asfortranarray(gram.T)
        np.fill_diagonal(gram_f, gram_f.diagonal() + 300 * FALLBACK_EPS)
        a, b = gram_f.copy(order="F"), gram_f.copy(order="F")
        # the arguments ``_cholesky_solve`` passes
        ours = kern.cho_factor(a, lower=True, overwrite_a=True)
        theirs = scipy.linalg.cho_factor(b, lower=True, overwrite_a=True, check_finite=False)
        assert ours[1] is theirs[1] is True
        assert ours[0].tobytes() == theirs[0].tobytes()
        assert ours[0] is a  # factored in place, as scipy's is
        for row in rhs:
            x = kern.cho_solve(ours, row)
            assert x.tobytes() == scipy.linalg.cho_solve(theirs, row, check_finite=False).tobytes()

    def test_a_matrix_that_is_not_positive_definite_raises(self):
        from shiftcal import kern

        gram = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
        with pytest.raises(np.linalg.LinAlgError, match="2-th leading minor"):
            kern.cho_factor(gram.copy(order="F"), lower=True, overwrite_a=True)
        with pytest.raises(SolveError, match="factorization failed: 2-th leading minor"):
            regularized_solve(gram, np.ones(2), 1e-3)

    def test_a_missing_extension_raises_naming_its_directory(self):
        import scipy

        from shiftcal import kern

        directory = os.path.join(scipy.__path__[0], "linalg")
        with pytest.raises(ImportError, match=re.escape(directory)):
            kern._scipy_extension("_no_such_module")
