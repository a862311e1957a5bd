"""Batched assembly simulation equals one-evaluation-at-a-time, bit for bit.

``scalar_makespan`` is the one-evaluation reference: a fresh generator
per call, assembly normals then inspection normals, and a 1-d schedule.
The batched paths must reproduce it exactly, not within a tolerance,
because their arithmetic and random streams are the same.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from shiftcal._seeding import derive_rng, derive_seed
from shiftcal.kabc import simulate_pseudo_outputs
from shiftcal.predict import predict
from shiftcal.sim import AssemblyLineSimulator

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


def scalar_makespan(batch_size, x, theta, seed):
    count = int(round(float(x)))
    rng = derive_rng(seed, "assembly", float(x))
    mean_asm, sd_asm, mean_insp, sd_insp = np.asarray(theta, dtype=float)
    durations = np.maximum(mean_asm + sd_asm * rng.standard_normal(count), 0.0)
    completion = np.cumsum(durations)
    ready = completion[batch_size - 1 :: batch_size]
    if count % batch_size:
        ready = np.append(ready, completion[-1])
    inspect = np.maximum(mean_insp + sd_insp * rng.standard_normal(ready.size), 0.0)
    cum_inspect = np.cumsum(inspect)
    slack = ready - (cum_inspect - inspect)
    return float(cum_inspect[-1] + np.maximum.accumulate(slack)[-1])


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


seeds = st.integers(0, 2**64 - 1)
batch_sizes = st.integers(1, 6)
# x = 1, multiples of every batch size (12, 60) and counts that leave a
# partial batch; non-integer x rounds half to even.
inputs = st.sampled_from([1.0, 2.0, 12.0, 60.0]) | st.integers(1, 70).map(float) | st.floats(1.0, 70.0)


@st.composite
def theta_rows(draw, max_rows=8):
    rows = draw(st.integers(1, max_rows))
    thetas = draw(arrays(float, (rows, 4), elements=st.floats(0.0, 10.0)))
    if draw(st.booleans()):
        thetas[:, [1, 3]] = 0.0  # zero spreads: a deterministic schedule
    return thetas


class TestEvaluateParams:
    @PROPERTY
    @given(batch_sizes, inputs, theta_rows(), seeds)
    def test_shared_seed(self, batch_size, x, thetas, seed):
        sim = AssemblyLineSimulator(batch_size)
        expected = [scalar_makespan(batch_size, x, theta, seed) for theta in thetas]
        assert bits(sim.evaluate_params(x, thetas, seed)) == bits(expected)

    @PROPERTY
    @given(batch_sizes, inputs, theta_rows(), st.data())
    def test_seed_per_row(self, batch_size, x, thetas, data):
        sim = AssemblyLineSimulator(batch_size)
        row_seeds = data.draw(st.lists(seeds, min_size=len(thetas), max_size=len(thetas)))
        expected = [scalar_makespan(batch_size, x, t, s) for t, s in zip(thetas, row_seeds)]
        assert bits(sim.evaluate_params(x, thetas, row_seeds)) == bits(expected)

    @PROPERTY
    @given(batch_sizes, inputs, theta_rows(max_rows=1), seeds)
    def test_evaluate_is_one_row(self, batch_size, x, thetas, seed):
        sim = AssemblyLineSimulator(batch_size)
        assert sim.evaluate(x, thetas[0], seed) == scalar_makespan(batch_size, x, thetas[0], seed)

    def test_no_rows(self):
        assert AssemblyLineSimulator().evaluate_params(5.0, np.empty((0, 4)), 1).shape == (0,)


class TestEvaluateMany:
    @PROPERTY
    @given(batch_sizes, st.lists(inputs, min_size=1, max_size=12), theta_rows(max_rows=1), seeds)
    def test_padded_inputs(self, batch_size, xs, thetas, seed):
        sim = AssemblyLineSimulator(batch_size)
        expected = [scalar_makespan(batch_size, x, thetas[0], seed) for x in xs]
        assert bits(sim.evaluate_many(xs, thetas[0], seed)) == bits(expected)


class TestCallers:
    @PROPERTY
    @given(batch_sizes, st.lists(inputs, min_size=1, max_size=5), theta_rows(), seeds)
    def test_pseudo_outputs(self, batch_size, xs, thetas, seed):
        sim = AssemblyLineSimulator(batch_size)
        expected = [
            [scalar_makespan(batch_size, x, theta, derive_seed(seed, "pseudo", j, i))
             for i, x in enumerate(xs)]
            for j, theta in enumerate(thetas)
        ]
        assert bits(simulate_pseudo_outputs(sim, thetas, xs, seed).values) == bits(expected)

    @PROPERTY
    @given(batch_sizes, inputs, theta_rows(), st.lists(st.integers(0, 7), min_size=1, max_size=10),
           seeds)
    def test_predict(self, batch_size, x, thetas, picks, seed):
        # herded samples repeat points: a repeat gets its occurrence count
        # in its seed, so it draws a fresh realization
        sim = AssemblyLineSimulator(batch_size)
        points = thetas[[p % len(thetas) for p in picks]]
        seen = {}
        expected = []
        for theta in points:
            seen[theta.tobytes()] = seen.get(theta.tobytes(), 0) + 1
            stream = derive_seed(seed, "predict", theta, seen[theta.tobytes()])
            expected.append(scalar_makespan(batch_size, x, theta, stream))
        assert bits(predict(sim, x, points, seed).outputs) == bits(expected)
