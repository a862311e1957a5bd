"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured numbers.  Tolerances are fixed here,
not tuned at runtime.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

import shiftcal.cli
from shiftcal._seeding import derive_seed
from shiftcal.baseline import MHConfig, mh_sample
from shiftcal.config import PRESETS, preset
from shiftcal.herd import CandidatePool, herd, herding_mmd
from shiftcal.kabc import PosteriorEmbedding
from shiftcal.kern import ParamKernel, WeightedOutputKernel, gram_and_rhs, regularized_solve
from shiftcal.pipeline import (
    calibrate,
    prepare,
    resolve_weights,
    run_mh_baseline,
    theorem1_check,
)
from shiftcal.predict import generate_test_inputs, score_predictions
from shiftcal.sim import generate_dataset
from shiftcal.weights import importance_weights, ordinary_weights


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"\n[acceptance] criterion {number} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}")


def wls_solution(xs, ys, beta):
    design = np.stack([np.ones(xs.size), xs], axis=1)
    bmat = np.diag(np.asarray(beta))
    return np.linalg.solve(design.T @ bmat @ design, design.T @ bmat @ ys)


def test_criterion_1_reduction_identity():
    """Constant weights and importance weights of identical densities
    produce the same embedding weights and RMSE to 1e-12."""
    base = preset("linear-shift", n=40, m=60, herd_size=60, n_test=40, seed=7)
    ordinary_cfg = base.replace(weight_mode="ordinary")
    degenerate_shift = base.replace(q1=dict(base.q0))  # beta = q0/q0 = 1

    a = calibrate(ordinary_cfg)
    b = calibrate(degenerate_shift)
    weight_gap = float(np.max(np.abs(a.embedding.weights - b.embedding.weights)))
    rmse_gap = abs(a.rmse - b.rmse)
    ok = weight_gap <= 1e-12 and rmse_gap <= 1e-12
    report(1, "reduction identity", ok, f"weight gap {weight_gap:.2e}, rmse gap {rmse_gap:.2e}")
    assert ok


def test_criterion_2_gram_solve_contract():
    """Residual bound on 100 randomized regularized Gram systems, m <= 500."""
    rng = np.random.default_rng(20)
    n = 10
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 501))
        beta = rng.uniform(0.2, 3.0, size=n)
        kernel = WeightedOutputKernel(float(rng.uniform(0.5, 50.0)), beta)
        epsilon = float(10 ** rng.uniform(-6, 0))
        gram, rhs = gram_and_rhs(
            rng.normal(size=(m, n)) * rng.uniform(0.5, 3.0), rng.normal(size=n), kernel
        )
        w = regularized_solve(gram.copy(), rhs, epsilon)
        lhs = gram + m * epsilon * np.eye(m)
        residual = float(np.max(np.abs(lhs @ w - rhs)))
        bound = 1e-10 * max(1.0, float(np.max(np.abs(rhs))))
        worst = max(worst, residual / bound)
    ok = worst <= 1.0
    report(2, "gram solve contract", ok, f"worst residual/bound ratio {worst:.3e} over 100 systems")
    assert ok


def _gauss(a, b, sigma2):
    diff = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return math.exp(-float(diff @ diff) / (2 * sigma2))


def _brute_force_herd(draws, weights, sigma2, pool_points, T):
    chosen = []
    for t in range(1, T + 1):
        best_idx, best_val = None, -math.inf
        for idx, cand in enumerate(pool_points):
            mean_val = sum(w * _gauss(cand, d, sigma2) for w, d in zip(weights, draws))
            repulsion = sum(_gauss(cand, s, sigma2) for s in chosen) / t
            if mean_val - repulsion > best_val:
                best_idx, best_val = idx, mean_val - repulsion
        chosen.append(tuple(pool_points[best_idx]))
    return chosen


def test_criterion_3_herding_oracle_equivalence():
    """herd() matches an independent brute-force reimplementation exactly
    on 20 randomized 5-atom embeddings, T=20."""
    rng = np.random.default_rng(30)
    mismatches = 0
    for _ in range(20):
        draws = rng.normal(size=(5, 2))
        weights = rng.normal(size=5)
        sigma2 = float(rng.uniform(0.5, 3.0))
        pool_points = np.vstack([draws, rng.normal(size=(15, 2))])
        emb = PosteriorEmbedding(draws, weights, ParamKernel(sigma2))
        ours = [tuple(p) for p in herd(emb, CandidatePool(pool_points), 20).points]
        expected = _brute_force_herd(draws, weights, sigma2, pool_points, 20)
        mismatches += ours != expected
    ok = mismatches == 0
    report(3, "herding oracle equivalence", ok, f"{mismatches} mismatching sequences of 20")
    assert ok


def test_criterion_4_herding_decay():
    """On nonnegative-weight embeddings the embedding distance decays:
    mmd(200) <= mmd(1) and sqrt(t)-scaled mmd stays within 3x its
    initial value."""
    rng = np.random.default_rng(40)
    worst_ratio, decay_ok = 0.0, True
    for _ in range(5):
        d = int(rng.integers(1, 4))
        k = int(rng.integers(3, 8))
        atoms = rng.normal(0, 2, (k, d))
        weights = rng.dirichlet(np.ones(k))
        emb = PosteriorEmbedding(atoms, weights, ParamKernel(float(rng.uniform(0.5, 4.0))))
        pool = CandidatePool(
            np.vstack([atoms, atoms[rng.integers(0, k, 400)] + rng.normal(0, 1.0, (400, d))])
        )
        samples = herd(emb, pool, 200)
        mmds = np.array([herding_mmd(emb, samples, t) for t in range(1, 201)])
        decay_ok &= mmds[-1] <= mmds[0]
        scaled = mmds * np.sqrt(np.arange(1, 201))
        worst_ratio = max(worst_ratio, float(scaled.max() / scaled[0]))
    ok = decay_ok and worst_ratio <= 3.0
    report(
        4,
        "herding decay",
        ok,
        f"decay holds: {decay_ok}, worst sqrt(t)-scaled ratio {worst_ratio:.3f} (bound 3)",
    )
    assert ok


def test_criterion_5_embedding_equivalence_trend():
    """Misspecified linear benchmark: the distance between embeddings
    built from observed outputs and from brute-force optimal outputs
    decreases from m=100 to m=800 (5-seed average), and the brute-force
    minimizer matches closed-form weighted least squares within the
    grid step."""
    cfg = preset("linear-shift")
    d100, d800 = [], []
    wls_ok = True
    for s in range(5):
        seed = derive_seed(0, "thm1", s)
        rep_small = theorem1_check(cfg.replace(m=100, seed=seed), grid_resolution=101)
        rep_large = theorem1_check(cfg.replace(m=800, seed=seed), grid_resolution=101)
        d100.append(rep_small["distance"])
        d800.append(rep_large["distance"])

        run_cfg = cfg.replace(seed=seed)
        ds = generate_dataset(run_cfg.build_dgp(), run_cfg.n, derive_seed(seed, "dataset"))
        wls = wls_solution(ds.x, ds.y, resolve_weights(run_cfg, ds))
        gap = np.abs(np.asarray(rep_small["theta_star"]) - wls)
        wls_ok &= bool(np.all(gap <= np.asarray(rep_small["grid_step"])))

    trend_ok = float(np.mean(d800)) < float(np.mean(d100))
    ok = trend_ok and wls_ok
    report(
        5,
        "embedding-target equivalence",
        ok,
        f"mean distance m=100: {np.mean(d100):.5f}, m=800: {np.mean(d800):.5f}, "
        f"wls match within grid step: {wls_ok}",
    )
    assert ok


def test_criterion_6_covariate_shift_benefit():
    """Assembly-line benchmark: covariate-shift weighting beats constant
    weighting on the shifted test region, averaged over 10 seeds."""
    cfg = preset("assembly-shift")
    shift_scores, ordinary_scores = [], []
    for s in range(10):
        seed = derive_seed(0, "shiftbench", s)
        run_cfg = cfg.replace(seed=seed)
        shifted = prepare(run_cfg)
        # constant weighting on the same data and pseudo-outputs: only beta
        # (and with it the output bandwidth) changes, nothing is simulated again
        ordinary = dataclasses.replace(shifted, beta=ordinary_weights(shifted.dataset.n))
        # both weightings are scored on the same shifted-region test set
        test_inputs = generate_test_inputs(
            run_cfg.q1_spec(), run_cfg.n_test, derive_seed(seed, "test")
        )
        for prep, scores in ((shifted, shift_scores), (ordinary, ordinary_scores)):
            (embedding,) = prep.embed()
            samples = herd(embedding, CandidatePool.from_draws(embedding.draws), run_cfg.herd_size)
            _, _, score = score_predictions(
                run_cfg.build_truth(),
                test_inputs,
                run_cfg.build_simulator(),
                samples.points,
                seed=derive_seed(seed, "eval"),
            )
            scores.append(score)
    shift_mean = float(np.mean(shift_scores))
    ordinary_mean = float(np.mean(ordinary_scores))
    ok = shift_mean < ordinary_mean
    report(
        6,
        "covariate-shift benefit",
        ok,
        f"mean test-region rmse with shift weights {shift_mean:.1f} vs ordinary {ordinary_mean:.1f} "
        f"over 10 seeds",
    )
    assert ok


def test_criterion_7_efficiency_ordering():
    """Linear benchmark under covariate shift, 10 paired trials: proposed
    method at simulation budget 400 against the MH baseline (proposal
    width tuned to measure about 40% acceptance) at the same budget."""
    cfg = preset("linear-shift")
    proposed, mh_scores, acceptances = [], [], []
    for t in range(10):
        seed = derive_seed(cfg.seed, "curve", 400, t)
        run_cfg = cfg.replace(m=400, herd_size=400, seed=seed)
        ds = generate_dataset(run_cfg.build_dgp(), run_cfg.n, derive_seed(seed, "dataset"))
        proposed.append(calibrate(run_cfg, dataset=ds).rmse)
        mh_result = run_mh_baseline(run_cfg, steps=400, dataset=ds)
        mh_scores.append(mh_result.rmse)
        acceptances.append(mh_result.acceptance_ratio)
    proposed_mean = float(np.mean(proposed))
    mh_mean = float(np.mean(mh_scores))
    ok = proposed_mean < mh_mean
    report(
        7,
        "efficiency ordering",
        ok,
        f"proposed mean rmse {proposed_mean:.4f} vs MH {mh_mean:.4f} at budget 400 "
        f"(measured MH acceptance {np.mean(acceptances):.2f})",
    )
    assert ok


def test_criterion_8_mh_correctness():
    """Known-target and closed-form oracles for the sampler."""
    # 1-d standard normal target
    target = lambda th: -0.5 * float(th @ th)
    trace = mh_sample(
        target, np.zeros(1), MHConfig(proposal_std=2.4, steps=100_000, noise_var=1.0, seed=80)
    )
    samples = trace.post_burn_in[:, 0]
    mean_err = abs(float(samples.mean()))
    var_err = abs(float(samples.var()) - 1.0)

    # linear benchmark: posterior mean vs closed-form weighted least squares
    cfg = preset("linear-shift", seed=81)
    ds = generate_dataset(cfg.build_dgp(), cfg.n, derive_seed(81, "dataset"))
    beta = resolve_weights(cfg, ds)
    sim = cfg.build_simulator()
    prior = cfg.build_prior()
    noise_var = float(cfg.mh["noise_var"])

    from shiftcal.baseline import weighted_log_likelihood

    def posterior(theta):
        lp = prior.log_pdf(theta)
        if not np.isfinite(lp):
            return -np.inf
        return weighted_log_likelihood(theta, ds, beta, sim, noise_var) + lp

    chain = mh_sample(
        posterior,
        prior.center(),
        MHConfig(proposal_std=0.3, steps=50_000, noise_var=noise_var, seed=82),
    )
    wls = wls_solution(ds.x, ds.y, beta)
    design = np.stack([np.ones(cfg.n), ds.x], axis=1)
    precision = design.T @ np.diag(np.asarray(beta)) @ design / noise_var + np.eye(2) / 5.0
    post_std = np.sqrt(np.diag(np.linalg.inv(precision)))
    wls_gap = np.abs(chain.post_burn_in.mean(axis=0) - wls)

    ok = mean_err < 0.05 and var_err < 0.1 and bool(np.all(wls_gap < 3 * post_std))
    report(
        8,
        "mh correctness",
        ok,
        f"gaussian mean err {mean_err:.4f} (<0.05), var err {var_err:.4f} (<0.1), "
        f"wls gap/3sd {np.max(wls_gap / (3 * post_std)):.3f} (<1)",
    )
    assert ok


def _run_everything(workdir, config_path):
    """One invocation of every CLI subcommand into workdir/<name>."""
    import contextlib
    import os

    @contextlib.contextmanager
    def chdir(path):
        old = os.getcwd()
        os.chdir(path)
        try:
            yield
        finally:
            os.chdir(old)

    cfg = str(config_path)
    with chdir(workdir):
        shiftcal.cli.main(["calibrate", "--config", cfg, "--out", "calibrate"])
        shiftcal.cli.main(
            ["rmse-curve", "--config", cfg, "--out", "curve", "--m-values", "4,6",
             "--trials", "2", "--include-mh"]
        )
        shiftcal.cli.main(["mh-baseline", "--config", cfg, "--out", "mh", "--steps", "40"])
        shiftcal.cli.main(
            ["mh-sweep", "--config", cfg, "--out", "sweep", "--proposal-stds", "0.1,0.4",
             "--steps", "30"]
        )
        shiftcal.cli.main(
            ["theorem1-check", "--config", cfg, "--out", "thm", "--grid-resolution", "15"]
        )
        shiftcal.cli.main(
            ["emit-plot-data", "--config", cfg, "--out", "plots", "--grid-points", "11"]
        )


def test_criterion_9_cli_determinism(tmp_path):
    """Every CLI subcommand with a fixed seed produces byte-identical
    CSV/JSON outputs across two runs."""
    tiny = {
        **PRESETS["linear-shift"],
        "n": 16,
        "m": 8,
        "herd_size": 8,
        "n_test": 16,
        "seed": 13,
        "mh": {"proposal_std": 0.3, "steps": 40, "burn_in": 0.10, "noise_var": 2.0},
    }
    config_path = tmp_path / "tiny.json"
    config_path.write_text(json.dumps(tiny))

    run_a, run_b = tmp_path / "a", tmp_path / "b"
    run_a.mkdir(), run_b.mkdir()
    _run_everything(run_a, config_path)
    _run_everything(run_b, config_path)

    files_a = sorted(p.relative_to(run_a) for p in run_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(run_b) for p in run_b.rglob("*") if p.is_file())
    mismatched = []
    for rel in files_a:
        if (run_a / rel).read_bytes() != (run_b / rel).read_bytes():
            mismatched.append(str(rel))
    ok = files_a == files_b and not mismatched
    report(
        9,
        "cli determinism",
        ok,
        f"{len(files_a)} artifacts compared, mismatched: {mismatched or 'none'}",
    )
    assert ok
