"""The library reads each argument kind by one rule.

Counts and seeds go through ``weights.count_entry``, as in the config: an
integral float is its int, a bool (numpy's too), a string or a fraction is
an error.  Reals go through ``weights.finite_entries``: a bool or a string
is no number, and inf, NaN and a bound miss are errors.  Point sets go
through ``weights.point_rows``: a bool or a string is no coordinate, a
1-d vector is m one-dimensional points, and the first row with a
non-finite entry is named.  Other number arrays (a dataset's x and y,
observed outputs, the solve's G and right-hand side, simulator inputs and
parameter rows, truth and test inputs, density arguments, the MH start)
go through ``weights.real_array``: a bool, a string or None is no number
there either.  A weight vector (``ImportanceWeights``, the output kernel's
beta, the distances' weights, the MH likelihood's beta) goes through
``weights.weight_vector``: finite and >= 0, the bad index named; beta
also needs a positive entry.  An input density is one-dimensional.  Two
guards keep hand-written range checks on counts and reals, and number
arrays read without a reader, out.
"""

import ast
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import shiftcal
from shiftcal.baseline import MHConfig, log_likelihood_sweep, mh_sample, weighted_residual_sum
from shiftcal.config import preset
from shiftcal.herd import CandidatePool, herd, herding_mmd
from shiftcal.kabc import (
    PosteriorEmbedding,
    build_embedding,
    regularization_schedule,
    sample_prior,
    simulate_pseudo_outputs,
)
from shiftcal.kern import (
    ParamKernel,
    WeightedOutputKernel,
    gaussian_gram,
    pairwise_sqdist,
    regularized_solve,
)
from shiftcal.predict import generate_test_inputs, predict, score_predictions
from shiftcal.sim import (AssemblyLineSimulator, DataGeneratingProcess, Dataset, LinearSimulator,
                          cubic_truth, generate_dataset)
from shiftcal.weights import DensitySpec, ImportanceWeights, importance_weights, ordinary_weights

CFG = preset("assembly-shift")
DGP = CFG.build_dgp()
PRIOR = CFG.build_prior()
SIM = AssemblyLineSimulator()
THETAS = np.array([[2.0, 0.5, 5.0, 1.0], [3.0, 0.4, 6.0, 0.8], [2.0, 0.5, 5.0, 1.0]])
EMB = PosteriorEmbedding(np.linspace(0.0, 1.0, 6)[:, None], np.full(6, 1 / 6), ParamKernel(0.3))
POOL = CandidatePool.from_draws([*EMB.draws[:, 0], -0.5, 0.25, 1.5])
HERDED = herd(EMB, POOL, 5)
OUTPUTS = np.array([[1.0, 2.0], [1.5, 2.5], [0.5, 1.0]])
DATA = generate_dataset(DGP, 4, 0)
Q = DensitySpec.normal(0.5, 0.5)
CONSTANT = preset("linear-shift", truth={"kind": "constant", "value": 3.0}).build_truth()


def embed(draws=THETAS, outputs=OUTPUTS, sigma2=1.0, sigma2_theta=1.0, epsilon=0.1):
    n = np.shape(outputs)[1]
    return build_embedding(draws, outputs, [np.ones(n)], ordinary_weights(n),
                           sigma2, sigma2_theta, epsilon)


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


# each library real, as (its name in the error, a call of that real alone)
REALS = {
    "ParamKernel": ("sigma2", lambda v: ParamKernel(v)),
    "WeightedOutputKernel": ("sigma2", lambda v: WeightedOutputKernel(v, np.ones(2))),
    "gaussian_gram": ("sigma2", lambda v: gaussian_gram(THETAS, v)),
    "regularized_solve": ("epsilon", lambda v: regularized_solve(np.eye(3), np.ones(3), v)),
    "log_likelihood_sweep": ("noise variance", lambda v: log_likelihood_sweep(
        generate_dataset(DGP, 4, 0), ordinary_weights(4), SIM, v
    )(THETAS[0])),
    "regularization_schedule b": ("decay exponent", lambda v: regularization_schedule(100, v, 1.0)),
    "regularization_schedule C": ("schedule constant",
                                  lambda v: regularization_schedule(100, 2.0, v)),
    "build_embedding sigma2": ("sigma2", lambda v: embed(sigma2=v)),
    "build_embedding sigma2_theta": ("sigma2_theta", lambda v: embed(sigma2_theta=v)),
    "build_embedding epsilon": ("epsilon", lambda v: embed(epsilon=v)),
    "DensitySpec.search_box": ("n_std", lambda v: Q.search_box(v)),
}

# each library point set, as (its name in the error, a call of that set alone)
POINT_SETS = {
    "CandidatePool": ("candidates", lambda p: CandidatePool(p)),
    "PosteriorEmbedding": ("embedding draws",
                           lambda p: PosteriorEmbedding(p, np.full(3, 1 / 3), ParamKernel(0.3))),
    "build_embedding draws": ("prior draws", lambda p: embed(draws=p)),
    "build_embedding outputs": ("pseudo-outputs", lambda p: embed(outputs=p)),
    "simulate_pseudo_outputs": ("prior draws",
                                lambda p: simulate_pseudo_outputs(SIM, p, [40.0, 120.0], 0)),
    "predict": ("posterior samples", lambda p: predict(SIM, 50.0, p, 0)),
    "pairwise_sqdist": ("vectors", lambda p: pairwise_sqdist(p)),
}


# each library number array, as (its name in the error, a call of that
# array alone, an array it accepts)
NUMBER_ARRAYS = {
    "ImportanceWeights": ("importance weights", lambda v: ImportanceWeights(v), np.ones(2)),
    "Dataset x": ("dataset inputs", lambda v: Dataset(v, [1.0, 2.0], 0), np.ones(2)),
    "Dataset y": ("dataset outputs", lambda v: Dataset([1.0, 2.0], v, 0), np.ones(2)),
    "regularized_solve G": ("G", lambda v: regularized_solve(v, np.ones(2), 0.1), np.eye(2)),
    "regularized_solve rhs": ("the right-hand side",
                              lambda v: regularized_solve(np.eye(2), v, 0.1), np.ones(2)),
    "WeightedOutputKernel beta": ("importance weights",
                                  lambda v: WeightedOutputKernel(1.0, v), np.ones(2)),
    "build_embedding beta": ("importance weights", lambda v: build_embedding(
        THETAS, OUTPUTS, [np.ones(2)], v, 1.0, 1.0, 0.1), np.ones(2)),
    "WeightedOutputKernel.against observed": (
        "observed outputs", lambda v: WeightedOutputKernel(1.0, np.ones(2)).against(OUTPUTS, v),
        np.ones(2)),
    "WeightedOutputKernel.against outputs": (
        "pseudo-outputs", lambda v: WeightedOutputKernel(1.0, np.ones(2)).against(v, [1.0, 2.0]),
        OUTPUTS),
    "log_likelihood_sweep beta": ("importance weights", lambda v: log_likelihood_sweep(
        DATA, v, SIM, 1.0)(THETAS[0]), np.ones(4)),
    "weighted_residual_sum beta": ("importance weights", lambda v: weighted_residual_sum(
        np.ones(2), np.zeros(2), v), np.ones(2)),
    "linear sweep inputs": ("linear inputs",
                            lambda v: LinearSimulator().sweep(v)([[0.0, 1.0]]), np.array([1.5, 2.0])),
    "linear sweep parameters": ("linear parameters",
                                lambda v: LinearSimulator().sweep([2.0])(v), np.array([[0.0, 1.0]])),
    "assembly sweep inputs": ("assembly inputs", lambda v: SIM.sweep(v, 3)(THETAS[0]), np.array([40.0])),
    "check_inputs": ("assembly inputs", lambda v: SIM.check_inputs(v), np.array([40.0, 120.0])),
    "cubic_truth": ("truth inputs", lambda v: cubic_truth(v), np.array([2.0])),
    "piecewise truth": ("assembly inputs", lambda v: DGP.truth(v, 0), np.array([40.0, 120.0])),
    "constant truth": ("truth inputs", lambda v: CONSTANT(v), np.array([1.0, 2.0])),
    "score_predictions": ("test inputs", lambda v: score_predictions(
        cubic_truth, v, LinearSimulator(), [[0.0, 1.0]], 0), np.array([0.5, 1.0])),
    "importance_weights": ("training inputs", lambda v: importance_weights(v, Q, Q),
                           np.array([0.5, 1.0])),
    "DensitySpec.pdf": ("pdf inputs", lambda v: Q.pdf(v), np.array([1.0])),
    "DensitySpec.log_pdf": ("log_pdf point", lambda v: PRIOR.log_pdf(v),
                            np.array([2.0, 0.5, 5.0, 1.0])),
    "mh_sample": ("initial point", lambda v: mh_sample(lambda t: 0.0, v, MHConfig(0.1, 3)),
                  np.array([1.0])),
    "simulate_pseudo_outputs inputs": ("training inputs", lambda v: simulate_pseudo_outputs(
        SIM, THETAS, v, 0), np.array([40.0, 120.0])),
}


def _bools_strings_and_a_mix(good):
    """``good`` as bools, as numeric strings, as a list whose first entry is
    True and last a numeric string (numpy reads it as strings), and None."""
    mixed = good.astype(object)
    mixed.flat[0], mixed.flat[-1] = True, "1"
    return [good > 0, good.astype(str).tolist(), mixed.tolist(), None]


@pytest.mark.parametrize("entry", NUMBER_ARRAYS)
def test_number_arrays_are_numbers(entry):
    name, call, good = NUMBER_ARRAYS[entry]
    assert bits(call(good)) == bits(call(good.tolist()))
    call(good.astype(int).tolist())  # ints are numbers
    for bad in _bools_strings_and_a_mix(good):
        message = rf"^{name} must be numbers, got (bool|<U\d+|object) entries$"
        with pytest.raises(ValueError, match=message):
            call(bad)


@pytest.mark.parametrize("entry", ["ImportanceWeights", "WeightedOutputKernel beta",
                                   "build_embedding beta", "log_likelihood_sweep beta"])
def test_an_all_zero_beta_is_an_error(entry):
    # a zero beta weighs every output away, so every output vector would look like the data
    _, call, good = NUMBER_ARRAYS[entry]
    message = "^importance weights are all zero: q1 has no mass at any training input$"
    with pytest.raises(ValueError, match=message):
        call(np.zeros_like(good))


def test_distance_weights_may_all_be_zero():
    # the same rule without the positive entry: the distances' and the residuals' weights
    assert not pairwise_sqdist(THETAS, np.zeros(4)).any()
    assert weighted_residual_sum(np.ones(2), np.zeros(2), np.zeros(2)) == 0.0


@pytest.mark.parametrize("use", [
    lambda q: generate_test_inputs(q, 3, 0),
    lambda q: generate_dataset(DataGeneratingProcess(cubic_truth, 0.1, q), 3, 0),
    lambda q: q.pdf(0.5),
], ids=["generate_test_inputs", "generate_dataset", "pdf"])
def test_an_input_density_is_one_dimensional(use):
    q = DensitySpec.normal([0.0, 5.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="^an input density must be one-dimensional, this one has 2$"):
        use(q)


@pytest.mark.parametrize("entry", COUNTS)
@pytest.mark.parametrize("bad", [2.5, True, np.True_, "3", 0])
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
@pytest.mark.parametrize("bad", [2.5, True, np.True_, "3", 2**127])
def test_seeds_follow_the_seed_rule(entry, bad):
    with pytest.raises(ValueError, match=r"^seed must be (an integer|in \[.*\)), got "):
        SEEDS[entry](bad)


@pytest.mark.parametrize("entry", SEEDS)
def test_integral_and_numpy_seeds_keep_their_bits(entry):
    call = SEEDS[entry]
    assert bits(call(1.0)) == bits(call(1)) == bits(call(np.int64(1)))
    assert bits(call(np.uint64(2**64 - 1))) == bits(call(2**64 - 1))
    assert bits(call(1)) != bits(call(2))


@pytest.mark.parametrize("entry", REALS)
@pytest.mark.parametrize("bad", [True, np.True_, "1", math.inf, math.nan, 0])
def test_reals_follow_the_real_rule(entry, bad):
    name, call = REALS[entry]
    if isinstance(bad, (bool, np.bool_, str)):
        message = rf"^{name} must be a number, got {re.escape(repr(bad))}$"
    else:
        message = rf"^{name} must be finite and > 0, got {float(bad)}$"
    with pytest.raises(ValueError, match=message):
        call(bad)


@pytest.mark.parametrize("entry", POINT_SETS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_point_sets_name_their_first_non_finite_row(entry, bad):
    name, call = POINT_SETS[entry]
    points = THETAS.copy()
    points[1, 3], points[2, 0] = bad, math.nan
    with pytest.raises(ValueError, match=rf"^{name} contain non-finite entries \(row 1\)$"):
        call(points)


@pytest.mark.parametrize("entry", POINT_SETS)
@pytest.mark.parametrize("bad", [THETAS > 2.0, THETAS.astype(str).tolist()], ids=["bool", "str"])
def test_point_sets_are_numbers(entry, bad):
    name, call = POINT_SETS[entry]
    with pytest.raises(ValueError, match=rf"^{name} must be numbers, got (bool|<U\d+) entries$"):
        call(bad)


def test_a_loaded_embedding_reads_numbers_only():
    payload = json.loads(EMB.to_json())
    assert bits(PosteriorEmbedding.from_json(json.dumps(payload)).draws) == bits(EMB.draws)
    for key, value, name in [("draws", [[str(v)] for v in EMB.draws[:, 0]], "embedding draws"),
                             ("weights", [True] * EMB.m, "embedding weights")]:
        text = json.dumps({**payload, key: value})
        with pytest.raises(ValueError, match=rf"^{name} must be numbers, got (bool|<U\d+) entries$"):
            PosteriorEmbedding.from_json(text)


def test_a_flat_embedding_is_its_column_form():
    kernel = ParamKernel(0.5)
    flat = PosteriorEmbedding([0.0, 1.0, 2.0], [0.2, 0.3, 0.5], kernel)
    column = PosteriorEmbedding([[0.0], [1.0], [2.0]], [0.2, 0.3, 0.5], kernel)
    assert flat.draws.shape == (3, 1)
    assert bits(flat.draws) == bits(column.draws)
    assert bits(flat.gram(flat.draws)) == bits(column.gram(column.draws))
    with pytest.raises(ValueError, match="^embedding draws must be a list of vectors"):
        PosteriorEmbedding(np.zeros((3, 1, 1)), np.ones(3), kernel)


ORDERINGS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
LIMITS = {"0", "0.0", "1", "1.0", "np.inf", "math.inf"}


def _range_check(test, params):
    """The parameter that ``test``, or a comparison inside it, orders
    against 0, 1 or inf (``n < 1``, ``not 0 < x < np.inf``, ...)."""
    for compare in (n for n in ast.walk(test) if isinstance(n, ast.Compare)):
        operands = [compare.left, *compare.comparators]
        if LIMITS & set(map(ast.unparse, operands)) and all(
                isinstance(op, ORDERINGS) for op in compare.ops):
            for operand in operands:
                if isinstance(operand, ast.Name) and operand.id in params:
                    return operand.id
    return None


def _range_checks(tree):
    """``(function, name)`` for each ``if`` whose body raises and whose test
    orders a parameter against 0, 1 or inf.  A parameter rebound to
    ``finite_entries``' result (``b = finite_entries(...)``) is a parameter
    no longer, so a range check on the read real (b > 1) is legal; a count
    is read with its range by ``count_entry(name, value, low, high)``."""
    def walk(node, params):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = child.args
                names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
                yield from walk(child, (getattr(child, "name", "<lambda>"), names))
                continue
            if params and isinstance(child, ast.Assign) and any(
                    isinstance(n, ast.Call) and ast.unparse(n.func).split(".")[-1] == "finite_entries"
                    for n in ast.walk(child.value)):
                params[1].difference_update(
                    n.id for t in child.targets for n in ast.walk(t) if isinstance(n, ast.Name))
            if (isinstance(child, ast.If) and params
                    and (name := _range_check(child.test, params[1]))
                    and any(isinstance(n, ast.Raise) for s in child.body for n in ast.walk(s))):
                yield params[0], name
            yield from walk(child, params)

    return list(walk(tree, None))


def test_no_hand_written_range_checks():
    # a count is read by count_entry and a real by finite_entries, not checked by hand
    found = {
        path.name: checks
        for path in sorted(Path(shiftcal.__file__).parent.glob("*.py"))
        if (checks := _range_checks(ast.parse(path.read_text())))
    }
    assert found == {}


def test_the_guard_sees_a_hand_written_check():
    source = (
        "def f(sigma2, eps, keyed, steps):\n"
        "    if not 0 < sigma2 < np.inf:\n        raise ValueError(sigma2)\n"
        "    if eps <= 0.0:\n        raise ValueError(eps)\n"
        "    if keyed != 1:\n        raise ValueError(keyed)\n"
        "    if steps < 1:\n        raise ValueError(steps)\n"
        "def g(b, C):\n"
        "    b = finite_entries('b', b, '> 0', scalar=True)\n"
        "    if not b > 1:\n        raise ValueError(b)\n"
        "    if not C > 0:\n        warn(C)\n"
        "def h(x, noise_var):\n"
        "    if x > 1 or noise_var < 0:\n        raise ValueError(x)\n"
        "def k(n):\n"
        "    n = count_entry('n', n)\n"
        "    if n < 1:\n        raise ValueError(n)\n"
        "def s(k):\n"
        "    steps = k\n"
        "    if steps < 1:\n        raise ValueError(k)\n"
    )
    assert _range_checks(ast.parse(source)) == [
        ("f", "sigma2"), ("f", "eps"), ("f", "steps"), ("h", "x"), ("k", "n")]


def _float_read(call):
    """The name ``call`` reads as floats, ``np.asarray(name, dtype=float)``,
    ``np.array(name, float)``, ``name.astype(float)`` or ``map(float, name)``,
    else None."""
    func = ast.unparse(call.func)
    dtypes = [ast.unparse(a) for a in call.args[1:2]] + [
        ast.unparse(k.value) for k in call.keywords if k.arg == "dtype"]
    if func in ("np.asarray", "np.array") and call.args and "float" in dtypes:
        operand = call.args[0]
    elif func == "map" and len(call.args) == 2 and ast.unparse(call.args[0]) == "float":
        operand = call.args[1]
    elif func.endswith(".astype") and "float" in map(ast.unparse, call.args):
        operand = call.func.value
    else:
        return None
    return operand.id if isinstance(operand, ast.Name) else None


def _loose_number_arrays(tree):
    """``(function, name)`` for each parameter a function (or a function or
    lambda inside it) reads as floats by hand rather than by a reader."""
    found = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = fn.args
            params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            found.update((getattr(fn, "name", "<lambda>"), name) for call in ast.walk(fn)
                         if isinstance(call, ast.Call) and (name := _float_read(call)) in params)
    return sorted(found)


def test_no_loose_number_arrays():
    # an argument array is read by weights.real_array, point_rows or weight_vector
    found = {
        path.name: reads
        for path in sorted(Path(shiftcal.__file__).parent.glob("*.py"))
        if path.name != "weights.py" and (reads := _loose_number_arrays(ast.parse(path.read_text())))
    }
    assert found == {}


def test_the_guard_sees_a_loose_number_array():
    source = (
        "def f(xs, thetas, beta, init, keys):\n"
        "    xs = np.asarray(xs, dtype=float).reshape(-1)\n"
        "    rows = np.array(thetas, float)\n"
        "    w = beta.astype(float)\n"
        "    start = np.asarray(init)\n"
        "    made = np.asarray(made, dtype=float)\n"
        "    return real_array(keys, 'keys')\n"
        "def g(self, x):\n"
        "    def inner(y):\n"
        "        return np.asarray(x, dtype=float) + y.astype(int) + y.astype(np.float32)\n"
        "    return np.asarray(self.low, dtype=float), inner\n"
        "h = lambda xs, keys=0: np.full(np.asarray(xs, dtype=float).size, 1.0)\n"
        "def k(stds, counts, cells):\n"
        "    return [s for s in map(float, stds)], map(int, counts), map(float, made)\n"
    )
    assert _loose_number_arrays(ast.parse(source)) == [
        ("<lambda>", "xs"), ("f", "beta"), ("f", "thetas"), ("f", "xs"), ("g", "x"),
        ("k", "stds")]
