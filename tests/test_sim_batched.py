"""Sweeps equal one-evaluation-at-a-time, bit for bit.

``scalar_makespan`` is the one-evaluation reference: the normals of one
stream, column 0 of ``key_normals(stream_keys(key, x))``, assembly normals then
inspection normals, and a 1-d schedule.
Sweeps over many parameter rows, over many inputs, and sweeps that draw
their noise once and reuse it must reproduce it exactly, not within a
tolerance, because their arithmetic and random streams are the same.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from shiftcal._seeding import derive_seed, key_normals, stream_keys
from shiftcal.kabc import simulate_pseudo_outputs
from shiftcal.predict import predict
from shiftcal.sim import (
    _ROW_ADDS_FROM,
    AssemblyLineSimulator,
    LinearSimulator,
    Simulator,
    SimulatorError,
    _prefix_sums,
)


def one_stream(key, x, k):
    return key_normals(stream_keys(key, float(x)), k)[:, 0]


def scalar_makespan(batch_size, x, theta, key):
    count = int(round(float(x)))
    n_batches = -(-count // batch_size)
    z = one_stream(key, x, count + n_batches)
    mean_asm, sd_asm, mean_insp, sd_insp = np.asarray(theta, dtype=float)
    durations = np.maximum(mean_asm + sd_asm * z[:count], 0.0)
    completion = np.cumsum(durations)
    ready = completion[batch_size - 1 :: batch_size]
    if count % batch_size:
        ready = np.append(ready, completion[-1])
    inspect = np.maximum(mean_insp + sd_insp * z[count:], 0.0)
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


def running_max_makespans(batch_size, xs, thetas, key):
    """The schedule over padded batches as a running max, read at each row's
    last real batch: padding follows it, so it never reaches the readout."""
    xs = np.asarray(xs, dtype=float)
    counts = np.rint(xs).astype(np.intp)[:, None]
    n_batches = -(-counts // batch_size)
    width, depth = int(counts.max()), int(n_batches.max())
    z = key_normals(stream_keys(key, xs), width + depth).T  # one row per input
    batch = np.arange(depth)
    last = np.minimum((batch + 1) * batch_size, counts) - 1
    mean_asm, sd_asm, mean_insp, sd_insp = np.hsplit(thetas, 4)
    completion = np.cumsum(np.maximum(mean_asm + sd_asm * z[:, :width], 0.0), axis=1)
    ready = np.take_along_axis(completion, last, axis=1)
    z_insp = np.take_along_axis(z, counts + batch, axis=1)
    inspect = np.maximum(mean_insp + sd_insp * z_insp, 0.0)
    cum_inspect = np.cumsum(inspect, axis=1)
    finish = cum_inspect + np.maximum.accumulate(ready - (cum_inspect - inspect), axis=1)
    return np.take_along_axis(finish, n_batches - 1, axis=1)[:, 0]


def adversarial_thetas(rng, rows):
    """Parameter rows whose inspections are often zero (exactly, or clamped)
    or below an ulp of the ready times, where padded batches tie the real ones."""
    thetas = rng.uniform(0.0, 6.0, size=(rows, 4))
    kind = rng.integers(0, 4, size=rows)
    thetas[kind == 1, 2:] = 0.0                                    # zero inspections
    thetas[kind == 2, 2:] = rng.uniform(0.0, 1e-15, size=((kind == 2).sum(), 2))  # sub-ulp
    thetas[kind == 3, 2] = 0.0                                     # half clamped to zero
    return thetas


class TestEvaluateParams:
    """One input under several parameter rows: the shape of pseudo-output and prediction sweeps."""

    @given(batch_sizes, inputs, theta_rows(), seeds)
    def test_shared_seed(self, batch_size, x, thetas, seed):
        sim = AssemblyLineSimulator(batch_size)
        expected = [scalar_makespan(batch_size, x, theta, seed) for theta in thetas]
        assert bits(sim.sweep([x], seed)(thetas)) == bits(expected)

    @given(batch_sizes, inputs, theta_rows(), st.data())
    def test_seed_per_row(self, batch_size, x, thetas, data):
        # an integer array gives row r its own key
        sim = AssemblyLineSimulator(batch_size)
        keys = np.array(data.draw(st.lists(seeds, min_size=len(thetas), max_size=len(thetas))),
                        dtype=np.uint64)
        expected = [scalar_makespan(batch_size, x, t, key) for t, key in zip(thetas, keys)]
        assert bits(sim.sweep([x], keys)(thetas)) == bits(expected)

    @given(batch_sizes, inputs, theta_rows(max_rows=1), seeds)
    def test_evaluate_is_one_row(self, batch_size, x, thetas, seed):
        sim = AssemblyLineSimulator(batch_size)
        expected = [scalar_makespan(batch_size, x, thetas[0], seed)]
        assert bits(sim.sweep([x], seed)(thetas[0])) == bits(expected)

    def test_no_rows(self):
        assert AssemblyLineSimulator().sweep([5.0], 1)(np.empty((0, 4))).shape == (0,)
        no_keys = np.empty(0, dtype=np.uint64)
        assert AssemblyLineSimulator().sweep([5.0], no_keys)(np.ones((1, 4))).shape == (0,)
        assert AssemblyLineSimulator().sweep([], 3)(np.ones((1, 4))).shape == (0,)


class TestOneInput:
    """A one-input sweep reads columns by slice; with more inputs it gathers them."""

    @given(batch_sizes, inputs, inputs, theta_rows(), seeds)
    def test_equals_rows_of_a_two_input_sweep(self, batch_size, x, other, thetas, seed):
        sim = AssemblyLineSimulator(batch_size)
        two_inputs = sim.sweep([x, other], seed)
        expected = [two_inputs(theta)[0] for theta in thetas]
        assert bits(sim.sweep([x], seed)(thetas)) == bits(expected)

    def test_result_does_not_hold_the_schedule(self):
        # callers keep one result per input; a view would pin each sweep's schedule
        makespans = AssemblyLineSimulator().sweep([40.0], 3)(np.ones((5, 4)))
        assert makespans.flags.owndata

    @pytest.mark.parametrize("batch_size", [1, 3, 4, 6])
    def test_readout_equals_running_max(self, batch_size):
        # the makespan, cum_inspect plus a max over the real batches' slack,
        # is the running-max schedule's last entry bit for bit
        rng = np.random.default_rng(10 + batch_size)
        for _ in range(150):
            x = float(rng.integers(1, 40))
            thetas = adversarial_thetas(rng, int(rng.integers(1, 9)))
            key = int(rng.integers(2**63))
            got = AssemblyLineSimulator(batch_size).sweep([x], key)(thetas)
            assert bits(got) == bits(running_max_makespans(batch_size, [x], thetas, key))
            assert bits(got) == bits([scalar_makespan(batch_size, x, t, key) for t in thetas])


class TestEvaluateMany:
    """Several inputs under one parameter vector: the shape of likelihood and oracle sweeps."""

    @given(batch_sizes, st.lists(inputs, min_size=1, max_size=12), theta_rows(max_rows=1), seeds)
    def test_padded_inputs(self, batch_size, xs, thetas, seed):
        sim = AssemblyLineSimulator(batch_size)
        expected = [scalar_makespan(batch_size, x, thetas[0], seed) for x in xs]
        assert bits(sim.sweep(xs, seed)(thetas)) == bits(expected)

    @given(batch_sizes, st.lists(inputs, min_size=2, max_size=8), st.data())
    def test_row_per_input_and_key(self, batch_size, xs, data):
        # inputs, keys and parameter rows all of length R
        sim = AssemblyLineSimulator(batch_size)
        thetas = data.draw(arrays(float, (len(xs), 4), elements=st.floats(0.0, 10.0)))
        keys = stream_keys(7, np.arange(len(xs)))
        expected = [scalar_makespan(batch_size, x, t, key)
                    for key, x, t in zip(keys, xs, thetas)]
        assert bits(sim.sweep(xs, keys)(thetas)) == bits(expected)

    @pytest.mark.parametrize("batch_size", [1, 3, 4, 6])
    def test_masked_readout_equals_running_max(self, batch_size):
        # padded batches are masked out of the slack max: unmasked, a padded
        # batch's slack can exceed the last real one's by rounding
        rng = np.random.default_rng(batch_size)
        for case in range(150):
            xs = rng.integers(1, 40, size=rng.integers(2, 9)).astype(float)
            thetas = adversarial_thetas(rng, 1 if case % 2 else len(xs))
            key = int(rng.integers(2**63))
            got = AssemblyLineSimulator(batch_size).sweep(xs, key)(thetas)
            assert bits(got) == bits(running_max_makespans(batch_size, xs, thetas, key))


# columns on both sides of the point where ``_prefix_sums`` switches from
# one cumsum to one add per row
CROSSOVER_COLUMNS = [1, _ROW_ADDS_FROM - 1, _ROW_ADDS_FROM, _ROW_ADDS_FROM + 1]


class TestPrefixSums:
    """Sweeps lay out (normal, row) and sum down columns: ``_prefix_sums``
    gives ``np.cumsum(axis=0)``'s bytes at any column count, and sweeps of
    those widths equal the per-row oracle."""

    @pytest.mark.parametrize("columns", [0, *CROSSOVER_COLUMNS])
    @pytest.mark.parametrize("rows", [0, 1, 2, 37])
    def test_bytes_of_cumsum(self, rows, columns):
        # magnitudes spread over 16 decades, so the adds round
        rng = np.random.default_rng(rows * 1000 + columns)
        a = rng.standard_normal((rows, columns)) * np.logspace(-8, 8, columns)
        expected = np.cumsum(a, axis=0)
        got = _prefix_sums(a, out=np.empty_like(a))
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
        assert _prefix_sums(a, out=a) is a and a.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("rows", CROSSOVER_COLUMNS)
    def test_one_input_sweep(self, rows):
        # pseudo-output and prediction sweeps: one input, a key and a theta per row
        thetas = adversarial_thetas(np.random.default_rng(rows), rows)
        keys = stream_keys(11, np.arange(rows))
        got = AssemblyLineSimulator(4).sweep([37.0], keys)(thetas)
        assert bits(got) == bits([scalar_makespan(4, 37.0, t, key) for t, key in zip(thetas, keys)])

    @pytest.mark.parametrize("rows", CROSSOVER_COLUMNS)
    def test_one_key_many_thetas(self, rows):
        # the oracle search: one input on one key under many parameter rows
        thetas = adversarial_thetas(np.random.default_rng(rows + 1), rows)
        got = AssemblyLineSimulator(3).sweep([23.0], 9)(thetas)
        assert bits(got) == bits([scalar_makespan(3, 23.0, t, 9) for t in thetas])

    @pytest.mark.parametrize("rows", CROSSOVER_COLUMNS)
    def test_padded_sweep(self, rows):
        # many inputs, gathered, under one parameter row and under one per input
        rng = np.random.default_rng(rows + 2)
        xs = rng.integers(1, 30, size=rows).astype(float)
        for thetas in (adversarial_thetas(rng, 1), adversarial_thetas(rng, rows)):
            got = AssemblyLineSimulator(4).sweep(xs, 5)(thetas)
            expected = [scalar_makespan(4, x, thetas[r % len(thetas)], 5) for r, x in enumerate(xs)]
            assert bits(got) == bits(expected)


class TestCallers:
    @given(batch_sizes, st.lists(inputs, min_size=1, max_size=5), theta_rows(), seeds)
    def test_pseudo_outputs(self, batch_size, xs, thetas, seed):
        sim = AssemblyLineSimulator(batch_size)
        base = derive_seed(seed, "pseudo")
        expected = [
            [scalar_makespan(batch_size, x, theta, stream_keys(base, j, i))
             for i, x in enumerate(xs)]
            for j, theta in enumerate(thetas)
        ]
        assert bits(simulate_pseudo_outputs(sim, thetas, xs, seed)) == bits(expected)

    @given(batch_sizes, inputs, theta_rows(), st.lists(st.integers(0, 7), min_size=1, max_size=10),
           seeds)
    def test_predict(self, batch_size, x, thetas, picks, seed):
        # herded samples repeat points: a repeat gets its occurrence count
        # in its key, so it draws a fresh realization
        sim = AssemblyLineSimulator(batch_size)
        points = thetas[[p % len(thetas) for p in picks]]
        seen = {}
        expected = []
        for theta in points:
            seen[theta.tobytes()] = seen.get(theta.tobytes(), 0) + 1
            key = stream_keys(derive_seed(seed, "predict"), *theta, seen[theta.tobytes()])
            expected.append(scalar_makespan(batch_size, x, theta, key))
        assert bits(predict(sim, x, points, seed)) == bits(expected)


class ToySimulator(Simulator):
    """A stochastic simulator written only against the base class's stream naming."""

    name = "toy"
    dim_theta = 2

    def sweep(self, xs, keys=0):
        xs = self._inputs(xs, keys)
        noise = key_normals(stream_keys(keys, xs), 1)[0]

        def outputs(thetas):
            thetas = self._theta_rows(thetas, len(noise))
            return thetas[:, 0] * xs + thetas[:, 1] * noise

        return outputs


def toy_output(x, theta, key):
    return theta[0] * x + theta[1] * one_stream(key, x, 1)[0]


input_lists = st.lists(inputs, min_size=0, max_size=12)


class TestSweep:
    @given(batch_sizes, input_lists, theta_rows(max_rows=1), seeds)
    def test_assembly(self, batch_size, xs, thetas, seed):
        sim = AssemblyLineSimulator(batch_size)
        expected = [scalar_makespan(batch_size, x, thetas[0], seed) for x in xs]
        assert bits(sim.sweep(xs, seed)(thetas[0])) == bits(expected)

    @given(input_lists, arrays(float, 2, elements=st.floats(-10.0, 10.0)), seeds)
    def test_linear(self, xs, theta, seed):
        sim = LinearSimulator()
        expected = [theta[0] + theta[1] * x for x in xs]
        assert bits(sim.sweep(xs, seed)(theta)) == bits(expected)

    @given(input_lists, arrays(float, 2, elements=st.floats(-10.0, 10.0)), seeds)
    def test_default_sweep(self, xs, theta, seed):
        sim = ToySimulator()
        expected = [toy_output(x, theta, seed) for x in xs]
        assert bits(sim.sweep(xs, seed)(theta)) == bits(expected)

    @given(batch_sizes, st.lists(inputs, min_size=1, max_size=8), theta_rows(), seeds, st.randoms())
    def test_reused_in_any_order(self, batch_size, xs, thetas, seed, order):
        # the noise is drawn once; each call transforms it and changes nothing
        sim = AssemblyLineSimulator(batch_size)
        sweep = sim.sweep(xs, seed)
        calls = [*range(len(thetas))] * 2
        order.shuffle(calls)
        for j in calls:
            expected = [scalar_makespan(batch_size, x, thetas[j], seed) for x in xs]
            assert bits(sweep(thetas[j])) == bits(expected)

    @pytest.mark.parametrize("sim", [AssemblyLineSimulator(), LinearSimulator(), ToySimulator()])
    def test_theta_shape_checked_per_call(self, sim):
        sweep = sim.sweep([4.0, 9.0], 3)
        with pytest.raises(ValueError, match="parameters, got shape"):
            sweep(np.ones(sim.dim_theta + 1))

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf, -np.inf])
    def test_bad_theta_rejected_by_built_sweep(self, bad):
        sweep = AssemblyLineSimulator().sweep([4.0, 9.0], 3)
        good = np.array([2.0, 0.5, 5.0, 1.0])
        before = sweep(good)
        for i in range(4):
            theta = good.copy()
            theta[i] = bad
            with pytest.raises(ValueError, match="must be (finite|non-negative)"):
                sweep(theta)
        assert bits(sweep(good)) == bits(before)

    @pytest.mark.parametrize("bad", [0.0, 0.4, np.nan, np.inf])
    def test_bad_input_rejected_when_built(self, bad):
        rule = "product count" if np.isfinite(bad) else "inputs must be finite"
        with pytest.raises(ValueError, match=rule):
            AssemblyLineSimulator().sweep([4.0, bad], 3)


@pytest.mark.parametrize("sim", [LinearSimulator(), AssemblyLineSimulator(), ToySimulator()],
                         ids=lambda sim: sim.name)
class TestSweepContract:
    """Every simulator checks the sweep contract the base class defines."""

    def test_key_count_must_match_the_inputs(self, sim):
        with pytest.raises(ValueError, match="^got 2 keys for 3 inputs$"):
            sim.sweep([4.0, 5.0, 6.0], [1, 2])

    def test_parameter_row_count_must_match_the_rows(self, sim):
        with pytest.raises(ValueError, match="^got 2 parameter rows for 3 keyed rows$"):
            sim.sweep([4.0, 5.0, 6.0], 7)(np.ones((2, sim.dim_theta)))
        with pytest.raises(ValueError, match="^got 3 parameter rows for 2 keyed rows$"):
            sim.sweep([4.0], [1, 2])(np.ones((3, sim.dim_theta)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameters_name_their_row(self, sim, bad):
        thetas = np.ones((3, sim.dim_theta))
        thetas[1, -1] = bad
        with pytest.raises(SimulatorError, match=r"parameters must be finite, .*\(row 1\)$") as err:
            sim.sweep([4.0, 5.0, 6.0], 7)(thetas)
        assert err.value.row == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_inputs_name_their_row(self, sim, bad):
        with pytest.raises(SimulatorError, match=rf"^{sim.name} inputs must be finite, "
                                                 rf"got x={bad} \(row 1\)$") as err:
            sim.sweep([4.0, bad, 6.0], 7)
        assert err.value.row == 1
        with pytest.raises(SimulatorError, match=r"\(row 0\)$"):
            sim.sweep([bad], [1, 2])

    def test_one_input_on_many_keys_gives_one_output_per_key(self, sim):
        sweep = sim.sweep([4.0], [1, 2, 3])
        assert sweep(np.ones(sim.dim_theta)).shape == (3,)
        assert sweep(np.ones((3, sim.dim_theta))).shape == (3,)

    def test_zero_rows_give_no_outputs(self, sim):
        assert sim.sweep([4.0], 7)(np.empty((0, sim.dim_theta))).shape == (0,)
        assert sim.sweep([], 7)(np.empty((0, sim.dim_theta))).shape == (0,)
