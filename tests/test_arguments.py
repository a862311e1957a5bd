"""The library reads each argument kind by one rule.

Counts and seeds go through ``weights.count_entry``, as in the config: an
integral float is its int, a bool, a string or a fraction is an error.
Point sets go through ``weights.point_rows``: a 1-d vector is m
one-dimensional points.  A guard keeps hand-written count checks out.
"""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import shiftcal
from shiftcal.baseline import log_likelihood_sweep
from shiftcal.config import preset
from shiftcal.herd import CandidatePool, herd, herding_mmd
from shiftcal.kabc import (
    PosteriorEmbedding,
    regularization_schedule,
    sample_prior,
    simulate_pseudo_outputs,
)
from shiftcal.kern import ParamKernel
from shiftcal.predict import generate_test_inputs, predict, score_predictions
from shiftcal.sim import AssemblyLineSimulator, generate_dataset
from shiftcal.weights import ordinary_weights

CFG = preset("assembly-shift")
DGP = CFG.build_dgp()
PRIOR = CFG.build_prior()
SIM = AssemblyLineSimulator()
THETAS = np.array([[2.0, 0.5, 5.0, 1.0], [3.0, 0.4, 6.0, 0.8], [2.0, 0.5, 5.0, 1.0]])
EMB = PosteriorEmbedding(np.linspace(0.0, 1.0, 6)[:, None], np.full(6, 1 / 6), ParamKernel(0.3))
POOL = CandidatePool.from_draws([*EMB.draws[:, 0], -0.5, 0.25, 1.5])
HERDED = herd(EMB, POOL, 5)


def bits(value):
    """A result's arrays as raw bytes and its other fields as their repr."""
    if isinstance(value, (tuple, list)):
        return [bits(v) for v in value]
    if hasattr(value, "__dataclass_fields__"):
        return [bits(getattr(value, f)) for f in value.__dataclass_fields__ if f != "pool"]
    if isinstance(value, (np.ndarray, float)):
        return np.asarray(value).tobytes()
    return repr(value)


# each library count, as a call of that count alone
COUNTS = {
    "herd": ("T", lambda T: herd(EMB, POOL, T)),
    "herding_mmd": ("t", lambda t: herding_mmd(EMB, HERDED, t)),
    "sample_prior": ("m", lambda m: sample_prior(PRIOR, m, 0)),
    "regularization_schedule": ("m", lambda m: regularization_schedule(m, 2.0, 1.0)),
    "generate_test_inputs": ("n", lambda n: generate_test_inputs(CFG.test_density(), n, 0)),
    "generate_dataset": ("n", lambda n: generate_dataset(DGP, n, 0)),
    "ordinary_weights": ("n", lambda n: ordinary_weights(n)),
}

# each library seed, as a call of that seed alone
SEEDS = {
    "sample_prior": lambda s: sample_prior(PRIOR, 3, s),
    "generate_dataset": lambda s: generate_dataset(DGP, 3, s),
    "generate_test_inputs": lambda s: generate_test_inputs(CFG.test_density(), 3, s),
    "simulate_pseudo_outputs": lambda s: simulate_pseudo_outputs(SIM, THETAS, [40.0, 120.0], s),
    "predict": lambda s: predict(SIM, 50.0, THETAS, s),
    "score_predictions": lambda s: score_predictions(DGP.truth, [40.0, 120.0], SIM, THETAS, s),
    "log_likelihood_sweep": lambda s: log_likelihood_sweep(
        generate_dataset(DGP, 4, 0), ordinary_weights(4), SIM, 1.0, s
    )(THETAS[0]),
}


@pytest.mark.parametrize("entry", COUNTS)
@pytest.mark.parametrize("bad", [2.5, True, "3", 0])
def test_counts_follow_the_count_rule(entry, bad):
    name, call = COUNTS[entry]
    rule = r"(an integer|>= 1|in \[1, \d+\))"
    with pytest.raises(ValueError, match=rf"^{name} must be {rule}, got {re.escape(repr(bad))}$"):
        call(bad)


@pytest.mark.parametrize("entry", COUNTS)
def test_an_integral_float_count_is_its_int(entry):
    _, call = COUNTS[entry]
    assert bits(call(3.0)) == bits(call(3))


@pytest.mark.parametrize("entry", SEEDS)
@pytest.mark.parametrize("bad", [2.5, True, "3", 2**127])
def test_seeds_follow_the_seed_rule(entry, bad):
    with pytest.raises(ValueError, match=r"^seed must be (an integer|in \[.*\)), got "):
        SEEDS[entry](bad)


@pytest.mark.parametrize("entry", SEEDS)
def test_integral_and_numpy_seeds_keep_their_bits(entry):
    call = SEEDS[entry]
    assert bits(call(1.0)) == bits(call(1)) == bits(call(np.int64(1)))
    assert bits(call(np.uint64(2**64 - 1))) == bits(call(2**64 - 1))
    assert bits(call(1)) != bits(call(2))


def test_a_flat_embedding_is_its_column_form():
    kernel = ParamKernel(0.5)
    flat = PosteriorEmbedding([0.0, 1.0, 2.0], [0.2, 0.3, 0.5], kernel)
    column = PosteriorEmbedding([[0.0], [1.0], [2.0]], [0.2, 0.3, 0.5], kernel)
    assert flat.draws.shape == (3, 1)
    assert bits(flat.draws) == bits(column.draws)
    assert bits(flat.gram(flat.draws)) == bits(column.gram(column.draws))
    with pytest.raises(ValueError, match="^embedding draws must be a list of vectors"):
        PosteriorEmbedding(np.zeros((3, 1, 1)), np.ones(3), kernel)


def _count_checks(tree):
    """``(function, name)`` for each ``if <parameter> < 1:`` whose body raises."""
    def walk(node, params):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = child.args
                names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
                yield from walk(child, (getattr(child, "name", "<lambda>"), names))
                continue
            test = getattr(child, "test", None)
            if (isinstance(child, ast.If) and params
                    and isinstance(test, ast.Compare) and isinstance(test.left, ast.Name)
                    and test.left.id in params[1] and isinstance(test.ops[0], ast.Lt)
                    and ast.unparse(test.comparators[0]) == "1"
                    and any(isinstance(n, ast.Raise) for s in child.body for n in ast.walk(s))):
                yield params[0], test.left.id
            yield from walk(child, params)

    return list(walk(tree, None))


def test_no_hand_written_count_checks():
    # a count parameter is read by count_entry, not checked by hand
    found = {
        path.name: checks
        for path in sorted(Path(shiftcal.__file__).parent.glob("*.py"))
        if (checks := _count_checks(ast.parse(path.read_text())))
    }
    assert found == {}


def test_the_guard_sees_a_hand_written_check():
    source = (
        "def f(n, steps):\n    if n < 1:\n        raise ValueError(n)\n"
        "def g(k):\n    steps = k\n    if steps < 1:\n        raise ValueError(k)\n"
    )
    assert _count_checks(ast.parse(source)) == [("f", "n")]
