import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shiftcal.herd import CandidatePool, herd, herding_mmd
from shiftcal.kabc import PosteriorEmbedding
from shiftcal.kern import ParamKernel


def gauss(a, b, sigma2):
    diff = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return math.exp(-float(diff @ diff) / (2 * sigma2))


def brute_force_herd(draws, weights, sigma2, pool_points, T):
    """Reference reimplementation: plain loops, objectives from scratch."""
    chosen = []
    for t in range(1, T + 1):
        best_idx, best_val = None, -math.inf
        for idx, cand in enumerate(pool_points):
            mean_val = sum(
                w * gauss(cand, draw, sigma2) for w, draw in zip(weights, draws)
            )
            repulsion = sum(gauss(cand, sel, sigma2) for sel in chosen) / t
            val = mean_val - repulsion
            if val > best_val:
                best_idx, best_val = idx, val
        chosen.append(pool_points[best_idx])
    return [tuple(p) for p in chosen]


class TestHerd:
    def test_single_atom_first_pick_is_center(self):
        # the foreign candidate [0, 0] is a zero-weight atom, so the pool
        # starts with the draws and the embedding is the single atom's
        atoms = np.array([[0.0, 0.0], [1.0, -2.0]])
        emb = PosteriorEmbedding(atoms, np.array([0.0, 1.0]), ParamKernel(1.0))
        pool = CandidatePool(np.array([[0.0, 0.0], [1.0, -2.0], [3.0, 3.0]]))
        out = herd(emb, pool, 1)
        assert np.array_equal(out.points[0], [1.0, -2.0])

    def test_two_separated_atoms_alternate(self):
        # equal weights on well-separated atoms: the repulsion term pushes
        # the second pick away from the first
        atoms = np.array([[0.0], [10.0]])
        emb = PosteriorEmbedding(atoms, np.array([0.5, 0.5]), ParamKernel(1.0))
        pool = CandidatePool(atoms)
        out = herd(emb, pool, 2)
        assert np.array_equal(out.points, [[0.0], [10.0]])

    def test_ties_break_to_lowest_pool_index(self):
        pool = CandidatePool(np.array([[5.0], [7.0], [9.0]]))
        emb = PosteriorEmbedding(pool.points, np.zeros(3), ParamKernel(1.0))
        out = herd(emb, pool, 1)  # objective identically zero
        assert out.indices[0] == 0

    def test_matches_brute_force_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            draws = rng.normal(size=(5, 2))
            weights = rng.normal(size=5)
            sigma2 = float(rng.uniform(0.5, 2.0))
            pool_points = np.vstack([draws, rng.normal(size=(7, 2))])
            emb = PosteriorEmbedding(draws, weights, ParamKernel(sigma2))
            out = herd(emb, CandidatePool(pool_points), 10)
            expected = brute_force_herd(draws, weights, sigma2, pool_points, 10)
            assert [tuple(p) for p in out.points] == expected

    @given(st.integers(1, 6), st.integers(1, 3), st.lists(st.integers(0, 20), max_size=8),
           st.integers(1, 12), st.integers(0, 2**32 - 1), st.booleans())
    def test_matches_brute_force_on_random_embeddings(self, m, d, picks, T, seed, foreign):
        # continuous random atoms, signed weights and bandwidth; the pool
        # holds the atoms, fresh points and exact repeats of earlier rows.
        # A fresh point put first joins the embedding as a zero-weight atom,
        # which leaves the embedding the oracle evaluates unchanged.
        rng = np.random.default_rng(seed)
        draws = rng.normal(scale=rng.uniform(0.2, 3.0), size=(m, d))
        weights = rng.normal(size=m)
        sigma2 = float(rng.uniform(0.3, 3.0))
        lead = rng.normal(size=(int(foreign), d))
        pool_points = np.vstack([lead, draws, rng.normal(size=(int(rng.integers(0, 8)), d))])
        pool_points = np.vstack([pool_points, pool_points[[p % len(pool_points) for p in picks]]])
        emb = PosteriorEmbedding(np.vstack([lead, draws]),
                                 np.concatenate([np.zeros(len(lead)), weights]), ParamKernel(sigma2))
        out = herd(emb, CandidatePool(pool_points), T)
        expected = brute_force_herd(draws, weights, sigma2, pool_points, T)
        assert [tuple(p) for p in out.points] == expected

    @pytest.mark.parametrize("extra", [0, 7])
    def test_carried_theta_gram_herds_the_same_bits(self, monkeypatch, extra):
        # the embedding's own theta Gram matrix stands in for the pool's only
        # when the pool is exactly its draws
        from dataclasses import replace

        rng = np.random.default_rng(3)
        draws = rng.normal(size=(40, 2))
        kernel = ParamKernel(0.7)
        carried = PosteriorEmbedding(draws, rng.normal(size=40), kernel,
                                     theta_gram=kernel.gram(draws))
        pool = CandidatePool(np.vstack([draws, rng.normal(size=(extra, 2))]))
        expected = herd(replace(carried, theta_gram=None), pool, 25)
        built = []
        gram = ParamKernel.gram
        monkeypatch.setattr(ParamKernel, "gram", lambda k, p: built.append(len(p)) or gram(k, p))
        out = herd(carried, pool, 25)
        assert built == ([] if extra == 0 else [47])
        assert out.indices.tobytes() == expected.indices.tobytes()
        assert out.objectives.tobytes() == expected.objectives.tobytes()

    def test_each_step_is_exact_argmax(self):
        rng = np.random.default_rng(1)
        draws = rng.normal(size=(6, 2))
        emb = PosteriorEmbedding(draws, rng.normal(size=6), ParamKernel(1.0))
        pool = CandidatePool(np.vstack([draws, rng.normal(size=(10, 2))]))
        out = herd(emb, pool, 8)
        mean_vals = emb.kernel.cross(pool.points, emb.draws) @ emb.weights
        for t in range(1, 9):
            repulsion = np.zeros(pool.size)
            for prev in out.points[: t - 1]:
                repulsion += emb.kernel.cross(pool.points, prev[None, :])[:, 0]
            scores = mean_vals - repulsion / t
            assert out.indices[t - 1] == np.argmax(scores)
            assert out.objectives[t - 1] == pytest.approx(scores.max(), rel=1e-12)

    def test_deterministic(self):
        # the 20 foreign candidates are zero-weight atoms after the draws
        rng = np.random.default_rng(2)
        draws = rng.normal(size=(4, 3))
        weights = rng.normal(size=4)
        atoms = np.vstack([draws, rng.normal(size=(20, 3))])
        emb = PosteriorEmbedding(atoms, np.concatenate([weights, np.zeros(20)]), ParamKernel(2.0))
        pool = CandidatePool.from_draws(atoms)
        a = herd(emb, pool, 15)
        b = herd(emb, pool, 15)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.objectives, b.objectives)

    def test_repeats_allowed(self):
        # a dominant atom keeps winning until repulsion saturates; repeats
        # must be kept in order
        atom = np.array([[0.0]])
        emb = PosteriorEmbedding(atom, np.array([5.0]), ParamKernel(1.0))
        pool = CandidatePool(np.array([[0.0], [0.5]]))
        out = herd(emb, pool, 6)
        assert len(out) == 6
        assert len(np.unique(out.indices)) <= 2

    def test_errors(self):
        emb = PosteriorEmbedding(np.zeros((1, 2)), np.ones(1), ParamKernel(1.0))
        with pytest.raises(ValueError):
            herd(emb, CandidatePool(np.zeros((1, 2))), 0)
        with pytest.raises(ValueError):
            herd(emb, CandidatePool(np.zeros((1, 3))), 1)
        with pytest.raises(ValueError):
            CandidatePool(np.zeros((0, 2)))

    def test_pool_must_start_with_the_draws(self):
        draws = np.array([[0.0], [1.0]])
        emb = PosteriorEmbedding(draws, np.ones(2), ParamKernel(1.0))
        for points in ([[1.0], [0.0]], [[0.0]], [[5.0], [0.0], [1.0]]):
            with pytest.raises(ValueError, match="must start with the embedding's draws"):
                herd(emb, CandidatePool(np.array(points)), 1)


class TestHerdingMmd:
    def test_exact_single_atom_match(self):
        atom = np.array([[0.5]])
        emb = PosteriorEmbedding(atom, np.array([1.0]), ParamKernel(1.0))
        out = herd(emb, CandidatePool(atom), 1)
        assert herding_mmd(emb, out, 1) == pytest.approx(0.0, abs=1e-12)

    def test_zero_weights_leave_sample_norm(self):
        # with all-zero weights the distance is the norm of the sample mean:
        # sqrt((1/t^2) sum_ss' k(s, s'))
        draws = np.array([[0.0], [1.0]])
        emb = PosteriorEmbedding(draws, np.zeros(2), ParamKernel(1.0))
        out = herd(emb, CandidatePool(draws), 2)
        chosen = out.points[:2]
        total = sum(gauss(a, b, 1.0) for a in chosen for b in chosen)
        assert herding_mmd(emb, out, 2) == pytest.approx(math.sqrt(total / 4), rel=1e-12)
        assert herding_mmd(emb, out, 2) > 0

    def test_matches_quadratic_form_oracle(self):
        # independent double-loop evaluation of the squared norm
        rng = np.random.default_rng(3)
        draws = rng.normal(size=(3, 2))
        weights = rng.normal(size=3)
        sigma2 = 1.3
        emb = PosteriorEmbedding(draws, weights, ParamKernel(sigma2))
        pool = CandidatePool(np.vstack([draws, rng.normal(size=(5, 2))]))
        out = herd(emb, pool, 6)
        for t in (1, 3, 6):
            chosen = out.points[:t]
            sq = 0.0
            for wi, di in zip(weights, draws):
                for wj, dj in zip(weights, draws):
                    sq += wi * wj * gauss(di, dj, sigma2)
            for wi, di in zip(weights, draws):
                for s in chosen:
                    sq -= 2.0 / t * wi * gauss(di, s, sigma2)
            for a in chosen:
                for b in chosen:
                    sq += gauss(a, b, sigma2) / t**2
            assert herding_mmd(emb, out, t) == pytest.approx(math.sqrt(max(sq, 0.0)), abs=1e-12)

    def test_t_out_of_range(self):
        emb = PosteriorEmbedding(np.zeros((1, 1)), np.ones(1), ParamKernel(1.0))
        out = herd(emb, CandidatePool(np.zeros((1, 1))), 3)
        with pytest.raises(ValueError):
            herding_mmd(emb, out, 0)
        with pytest.raises(ValueError):
            herding_mmd(emb, out, 4)


class TestHerdedCsv:
    def test_write_in_order(self, tmp_path):
        draws = np.array([[0.0, 1.0], [2.0, 3.0]])
        emb = PosteriorEmbedding(draws, np.array([1.0, 0.9]), ParamKernel(1.0))
        out = herd(emb, CandidatePool(draws), 4)
        path = tmp_path / "herded.csv"
        out.write_csv(path, config_hash="abc")
        lines = path.read_text().splitlines()
        assert lines[0] == "# config_hash=abc"
        assert lines[1] == "theta_0,theta_1"
        assert len(lines) == 6
        first = [float(v) for v in lines[2].split(",")]
        assert np.array_equal(first, out.points[0])
