"""One truth call per input set equals the per-input loop it replaced, bit for bit.

``scalar_truth`` is the reference: the truth of a config's ``truth``
section evaluated one input at a time, a piecewise or simulator truth as a
one-row sweep on that input's own key.  Batching changes neither the
arithmetic nor the streams (row r draws ``stream_keys(key_r, x_r)``), so
datasets, truth values and scores must match exactly.
"""

import math

import numpy as np
import pytest

from shiftcal._seeding import derive_rng, derive_seed
from shiftcal.config import preset
from shiftcal.predict import generate_test_inputs, score_predictions
from shiftcal.sim import (
    ASSEMBLY_BREAKPOINT,
    ASSEMBLY_THETA_HI,
    ASSEMBLY_THETA_LO,
    AssemblyLineSimulator,
    cubic_truth,
    generate_dataset,
)


def scalar_truth(spec: dict, sim):
    """(x, key) -> float for the truth section ``spec``, one input per call."""
    kind = spec["kind"]
    if kind == "cubic":
        return lambda x, key: float(-x + x**3)
    if kind == "constant":
        return lambda x, key: float(spec["value"])
    lo, hi = (spec["theta"],) * 2 if kind == "simulator" else (spec["theta_lo"], spec["theta_hi"])
    breakpoint = spec.get("breakpoint", math.inf)

    def one_row(x, key):
        theta = np.asarray(hi if x >= breakpoint else lo, dtype=float)
        return float(sim.sweep([x], key)(theta[None])[0])

    return one_row


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


# inputs on both sides of the breakpoint and on it; keys on both sides of 2**63
XS = np.array([95.0, 109.5, 110.0, 130.0, 100.0, 110.0, 121.0, 1.0])
KEYS = [2**63 + 1, 5, 2**64 - 1, 2**63 - 1, 0, 2**63, 12345, 2**62]


@pytest.mark.parametrize("as_array", [False, True])
def test_piecewise_straddling_breakpoint_and_2_63(as_array):
    sim = AssemblyLineSimulator()
    spec = {"kind": "piecewise", "theta_lo": ASSEMBLY_THETA_LO, "theta_hi": ASSEMBLY_THETA_HI,
            "breakpoint": ASSEMBLY_BREAKPOINT}
    truth = preset("assembly-shift", truth=spec).build_truth()
    keys = np.array(KEYS, dtype=np.uint64) if as_array else KEYS
    expected = [scalar_truth(spec, sim)(x, key) for x, key in zip(XS, KEYS)]
    assert bits(truth(XS, keys)) == bits(expected)


@pytest.mark.parametrize("name", ["assembly-shift", "linear-shift"])
@pytest.mark.parametrize("kind", ["simulator", "constant"])
def test_simulator_and_constant_kinds(name, kind):
    cfg = preset(name)
    sim = cfg.build_simulator()
    spec = ({"kind": "constant", "value": 2.5} if kind == "constant"
            else {"kind": "simulator", "theta": cfg.build_prior().center().tolist()})
    truth = cfg.replace(truth=spec).build_truth()
    xs = XS if name.startswith("assembly") else XS / 100.0
    expected = [scalar_truth(spec, sim)(x, key) for x, key in zip(xs, KEYS)]
    assert bits(truth(xs, np.array(KEYS, dtype=np.uint64))) == bits(expected)


def test_cubic_matches_python_floats():
    # numpy's vectorized xs**3 and xs*xs*xs each differ from Python's x**3
    # in the last bit on some of these inputs
    xs = np.random.default_rng(0).normal(0.5, 0.5, 20_000)
    assert bits(cubic_truth(xs)) == bits([float(-x + x**3) for x in xs.tolist()])


@pytest.mark.parametrize("name", ["assembly-shift", "linear-shift"])
def test_generate_dataset(name):
    cfg = preset(name)
    dgp, n, seed = cfg.build_dgp(), cfg.n, cfg.seed
    ds = generate_dataset(dgp, n, seed)
    truth = scalar_truth(cfg.truth, cfg.build_simulator())
    xs = dgp.q0.sample(n, derive_rng(seed, "inputs"))[:, 0]
    values = np.array([truth(float(x), derive_seed(seed, "truth", i)) for i, x in enumerate(xs)])
    noise = dgp.noise_std * derive_rng(seed, "noise").standard_normal(n)
    assert bits(ds.x) == bits(xs) and bits(ds.y) == bits(values + noise)


@pytest.mark.parametrize("name", ["assembly-shift", "linear-shift"])
def test_score_predictions(name):
    cfg = preset(name)
    sim, seed = cfg.build_simulator(), 7
    test_inputs = generate_test_inputs(cfg.test_density(), 40, seed)
    samples = cfg.build_prior().sample(6, derive_rng(seed, "samples"))
    preds, truth_vals, rmse = score_predictions(cfg.build_truth(), test_inputs, sim, samples, seed)
    truth = scalar_truth(cfg.truth, sim)
    expected = np.array([truth(float(x), derive_seed(seed, "truth", float(x))) for x in test_inputs])
    assert bits(truth_vals) == bits(expected)
    errors = expected - np.array([np.mean(row) for row in preds])
    assert rmse == float(np.sqrt(np.mean(errors * errors)))
