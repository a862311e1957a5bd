import math

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
    median_sqdist,
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
            w = regularized_solve(gram, rhs, eps)
            lhs = gram + m * eps * np.eye(m)
            residual = np.max(np.abs(lhs @ w - rhs))
            assert residual <= 1e-10 * max(1.0, np.max(np.abs(rhs)))

    def test_non_finite_rejected(self):
        with pytest.raises(SolveError):
            regularized_solve(np.array([[np.nan]]), np.array([1.0]), 0.1)

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError, match="regularizer must be positive"):
            regularized_solve(np.array([[1.0]]), np.array([1.0]), 0.0)

    @pytest.mark.parametrize(
        "gram,rhs",
        [(np.eye(2), np.ones(3)),         # rhs longer than the Gram matrix
         (np.ones((2, 3)), np.ones(2)),   # a non-square Gram matrix
         (np.eye(2), np.ones((2, 1)))],   # rhs not a vector
    )
    def test_shape_mismatch_rejected(self, gram, rhs):
        with pytest.raises(ValueError, match="inconsistent system shapes"):
            regularized_solve(gram, rhs, 0.1)

    def test_shape_checked_before_finiteness(self):
        # a malformed system is a ValueError even when it also holds a NaN
        with pytest.raises(ValueError, match="inconsistent system shapes"):
            regularized_solve(np.array([[np.nan]]), np.ones(2), 0.1)


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
        assert median_sqdist(dist) == lower_median_of_pairs(dist)
        assert median_heuristic(mat, weights) == median_sqdist(dist)


class TestSharedDistanceBuffer:
    def test_gram_built_in_the_distance_buffer(self, monkeypatch):
        # gaussian_gram reads the median from its one distance matrix, then
        # forms the Gaussian in that matrix's buffer
        from shiftcal import kern

        rng = np.random.default_rng(9)
        outputs, beta = rng.normal(size=(30, 6)), rng.uniform(0.5, 2.0, size=6)
        buffers = []

        def recorded(vectors, weights=None):
            buffers.append(pairwise_sqdist(vectors, weights))
            return buffers[-1]

        monkeypatch.setattr(kern, "pairwise_sqdist", recorded)
        gram, sigma2 = gaussian_gram(outputs, weights=beta)
        assert len(buffers) == 1 and np.shares_memory(gram, buffers[0])
        monkeypatch.undo()
        assert sigma2 == median_heuristic(outputs, beta)
        assert np.array_equal(gram, WeightedOutputKernel(sigma2, beta).gram(outputs))
        assert np.array_equal(gram, gram.T) and np.all(np.diag(gram) == 1.0)
        fixed, given = gaussian_gram(outputs, 4.0, beta)
        assert given == 4.0 and np.array_equal(fixed, WeightedOutputKernel(4.0, beta).gram(outputs))
        with pytest.raises(ValueError, match="bandwidth must be positive, got 0.0"):
            gaussian_gram(outputs, 0.0, beta)

    def test_calibrate_makes_one_output_pass_one_theta_pass_and_no_cross(self, monkeypatch):
        # the theta pass gives the bandwidth median and the Gram matrix the
        # embedding carries to herding, which reads the embedding from it too
        from shiftcal import pipeline
        from shiftcal.config import preset

        calls = record_distance_passes(monkeypatch)
        result = pipeline.calibrate(preset("linear-shift", n=24, m=16, herd_size=16, n_test=24))
        assert calls == [(16, 24), (16, 2)]
        assert result.embedding.kernel.sigma2 == median_heuristic(result.pseudo.thetas)

    def test_extra_pool_candidates_are_no_longer_a_config_key(self, monkeypatch):
        # the herding pool is the prior draws: a config asking for extra
        # candidates fails at load, before any distance pass
        from shiftcal.config import preset

        calls = record_distance_passes(monkeypatch)
        with pytest.raises(ValueError, match="unknown keys in config: pool_extra$"):
            preset("linear-shift", n=24, m=16, herd_size=16, n_test=24, pool_extra=5)
        assert calls == []

    def test_theorem1_check_reads_the_carried_theta_gram(self, monkeypatch):
        # one output and one theta pass per embedding; the distance between
        # the two reuses a carried theta matrix
        from shiftcal import pipeline
        from shiftcal.config import preset

        calls = record_distance_passes(monkeypatch)
        pipeline.theorem1_check(preset("linear-shift", n=24, m=16), grid_resolution=5)
        assert calls == [(16, 24), (16, 2), (16, 24), (16, 2)]


def record_distance_passes(monkeypatch) -> list:
    """Shapes of every ``pairwise_sqdist`` call from now on, and any ``cross`` call."""
    from shiftcal import kern

    calls = []
    cross = ParamKernel.cross

    def counted(vectors, weights=None):
        calls.append(np.shape(vectors))
        return pairwise_sqdist(vectors, weights)

    def counted_cross(self, left, right):
        calls.append("cross")
        return cross(self, left, right)

    monkeypatch.setattr(kern, "pairwise_sqdist", counted)
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
        residual = gram @ w + m * eps * w - rhs
        assert np.max(np.abs(residual)) <= 1e-10 * max(1.0, np.max(np.abs(rhs)))
        assert np.array_equal(gram, gram_before)

    def test_gate_raises_when_bound_exceeded(self, monkeypatch):
        from shiftcal import kern

        rng = np.random.default_rng(10)
        gram, rhs = gram_and_rhs(
            rng.normal(size=(40, 5)), rng.normal(size=5), WeightedOutputKernel(2.0, np.ones(5))
        )
        monkeypatch.setattr(kern, "SOLVE_RTOL", 0.0)
        with pytest.raises(SolveError, match="exceeds bound"):
            regularized_solve(gram, rhs, 1e-3)
