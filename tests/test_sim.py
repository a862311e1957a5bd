import ast
import csv
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from shiftcal import sim as sim_module
from shiftcal.baseline import MHTrace
from shiftcal.config import preset
from shiftcal.sim import (
    AssemblyLineSimulator,
    DataGeneratingProcess,
    Dataset,
    LinearSimulator,
    SimulatorError,
    cubic_truth,
    generate_dataset,
    get_simulator,
    write_csv_rows,
)
from shiftcal.weights import DensitySpec


def evaluate(sim, x, theta, key=0) -> float:
    """One simulation at input ``x``: a one-row sweep."""
    return float(sim.sweep([x], key)(np.asarray(theta, dtype=float)[None])[0])


class TestLinearSim:
    sim = LinearSimulator()

    def test_intercept_at_zero(self):
        assert evaluate(self.sim, 0.0, (3.0, 7.0)) == 3.0

    def test_identity_slope(self):
        assert evaluate(self.sim, 1.0, (0.0, 1.0)) == 1.0

    def test_direct_substitution(self):
        assert evaluate(self.sim, 2.0, (1.0, -1.0)) == -1.0

    def test_vectorized_paths_agree(self):
        sim = LinearSimulator()
        xs = np.linspace(-2, 2, 7)
        theta = np.array([0.3, -1.2])
        assert np.array_equal(sim.sweep(xs)(theta), [evaluate(sim, x, theta) for x in xs])
        thetas = np.array([[0.0, 1.0], [2.0, -0.5]])
        assert np.array_equal(sim.sweep([1.5])(thetas), [evaluate(sim, 1.5, t) for t in thetas])

    def test_stream_keys_never_resolved(self, monkeypatch):
        def stream_keys(*args):
            raise AssertionError("a noise-free sweep derived its stream keys")

        monkeypatch.setattr(sim_module, "stream_keys", stream_keys)
        assert np.array_equal(LinearSimulator().sweep([2.0], np.arange(5))((1.0, 3.0)), [7.0] * 5)

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            evaluate(self.sim, 0.0, (1.0, 2.0, 3.0))


class TestCubicTruth:
    def test_origin(self):
        assert np.array_equal(cubic_truth([0.0], [7]), [0.0])

    def test_root_at_one(self):
        assert np.array_equal(cubic_truth([1.0, -1.0], [7, 8]), [0.0, 0.0])

    def test_direct_substitution(self):
        assert np.array_equal(cubic_truth(np.array([2.0, -2.0, 3.0])), [6.0, -6.0, 24.0])


class TestAssemblySim:
    sim = AssemblyLineSimulator()

    # hand-stepped schedules with degenerate (zero-spread) service times
    def test_four_products_one_batch(self):
        assert evaluate(self.sim, 4, (2, 0, 5, 0), 11) == 13.0

    def test_eight_products_two_batches(self):
        # batch 1 inspected 8->13; batch 2 ready at 16 > 13, so 16->21
        assert evaluate(self.sim, 8, (2, 0, 5, 0), 22) == 21.0

    def test_single_product_partial_batch(self):
        assert evaluate(self.sim, 1, (2, 0, 5, 0), 33) == 7.0

    def test_inspection_bottleneck(self):
        # theta3 > 4*theta1: batches pile up behind the inspector
        # hand schedule: assembly done 1,2,...,8; inspections 4->14, 14->24
        assert evaluate(self.sim, 8, (1, 0, 10, 0), 5) == 24.0

    def test_closed_form_equivalence_zero_spreads(self):
        # brute-force equivalence of the event loop with the closed form
        # for full batches: theta3 <= 4*theta1 -> x*theta1 + theta3,
        # else 4*theta1 + (x/4)*theta3
        for theta1 in (0.5, 1.0, 2.0, 5.0):
            for theta3 in (1.0, 3.0, 10.0, 30.0):
                for x in range(4, 65, 4):
                    if theta3 <= 4 * theta1:
                        expected = x * theta1 + theta3
                    else:
                        expected = 4 * theta1 + (x // 4) * theta3
                    got = evaluate(self.sim, x, (theta1, 0.0, theta3, 0.0), x)
                    assert got == pytest.approx(expected, rel=1e-12), (theta1, theta3, x)

    def test_nondecreasing_in_x_zero_spreads(self):
        values = [evaluate(self.sim, x, (2.0, 0.0, 5.0, 0.0), 0) for x in range(1, 40)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_reproducible_under_seed(self):
        theta = (2.0, 0.5, 5.0, 1.0)
        a = evaluate(self.sim, 100, theta, 123)
        b = evaluate(self.sim, 100, theta, 123)
        assert a == b
        assert a != evaluate(self.sim, 100, theta, 124)

    def test_output_finite_and_positive(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            theta = rng.uniform([0.1, 0.0, 0.1, 0.0], [5, 2, 10, 2])
            value = evaluate(self.sim, int(rng.integers(1, 200)), theta, int(rng.integers(1e6)))
            assert np.isfinite(value) and value >= 0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            evaluate(self.sim, 0, (2, 0, 5, 0))
        with pytest.raises(ValueError):
            evaluate(self.sim, 4, (2, 0, -5, 0))
        for bad in (0.0, 0.4):
            with pytest.raises(SimulatorError, match=r"product count .* \(row 1\)"):
                self.sim.sweep([4.0, bad])
        for bad in (np.nan, np.inf):
            with pytest.raises(SimulatorError, match=r"inputs must be finite, .* \(row 1\)"):
                self.sim.sweep([4.0, bad])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_theta_rejected(self, bad):
        for i in range(4):
            theta = [2.0, 0.5, 5.0, 1.0]
            theta[i] = bad
            with pytest.raises(ValueError, match="must be finite"):
                evaluate(self.sim, 100.0, theta, 3)
        thetas = np.array([[2.0, 0.5, 5.0, 1.0], [2.0, bad, 5.0, 1.0]])
        with pytest.raises(SimulatorError, match=r"must be finite.*\(row 1\)") as caught:
            self.sim.sweep([100.0], [1, 2])(thetas)
        assert caught.value.row == 1
        with pytest.raises(ValueError, match="must be finite"):
            self.sim.sweep([4.0, 8.0], 0)(thetas[1])

    def test_key_list_straddling_2_63(self):
        # numpy reads this list as float64; its keys must stay exact
        theta, keys = (2.0, 0.5, 5.0, 1.0), [2**63 + 1, 5]
        got = self.sim.sweep([10.0, 12.0], keys)(theta)
        expected = [evaluate(self.sim, x, theta, key) for x, key in zip([10.0, 12.0], keys)]
        assert got.tolist() == expected

    def test_seed_count_must_match_rows(self):
        keys = [1, 2]
        with pytest.raises(ValueError, match="got 2 keys for 3 inputs"):
            self.sim.sweep([4.0, 5.0, 6.0], keys)
        with pytest.raises(ValueError, match="3 parameter rows for 2"):
            self.sim.sweep([4.0], keys)(np.ones((3, 4)))
        with pytest.raises(TypeError, match="integers"):
            self.sim.sweep([4.0], [1.0, 2.0])


def piecewise_truth(theta_lo, theta_hi, breakpoint):
    """The config's piecewise truth over the linear simulator."""
    truth = {"kind": "piecewise", "theta_lo": list(theta_lo), "theta_hi": list(theta_hi),
             "breakpoint": breakpoint}
    return preset("linear-shift", truth=truth).build_truth()


class TestPiecewiseTruth:
    def test_branch_selection(self):
        lo, hi = (0.0, 1.0), (100.0, 0.0)
        # boundary belongs to the shifted regime
        assert np.array_equal(piecewise_truth(lo, hi, 110.0)([109.0, 110.0]), [109.0, 100.0])

    def test_degenerate_piecewise_equals_base(self):
        sim = LinearSimulator()
        theta = (1.5, -2.0)
        xs = np.linspace(-5, 5, 11)
        assert np.array_equal(piecewise_truth(theta, theta, 0.0)(xs), sim.sweep(xs)(theta))

    def test_infinite_breakpoint_rejected(self):
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="breakpoint"):
                piecewise_truth((0, 1), (0, 1), bad)


class TestDataset:
    @pytest.mark.parametrize("x,y", [(np.zeros(3), np.zeros(2)), (np.zeros((2, 1)), np.zeros((2, 1)))])
    def test_inputs_and_outputs_align(self, x, y):
        message = (rf"^inputs and outputs must be aligned 1-d vectors, "
                   rf"got {re.escape(str(x.shape))} / {re.escape(str(y.shape))}$")
        with pytest.raises(ValueError, match=message):
            Dataset(x=x, y=y, seed=0)


class TestGenerateDataset:
    def test_zero_noise_constant_truth(self):
        dgp = DataGeneratingProcess(
            truth=lambda x, seed=0: 5.0, noise_std=0.0, q0=DensitySpec.normal(0.0, 1.0)
        )
        ds = generate_dataset(dgp, 3, seed=0)
        assert np.array_equal(ds.y, [5.0, 5.0, 5.0])

    def test_same_seed_bit_identical(self):
        dgp = DataGeneratingProcess(
            truth=cubic_truth, noise_std=1.0, q0=DensitySpec.normal(0.5, 0.5)
        )
        a = generate_dataset(dgp, 50, seed=9)
        b = generate_dataset(dgp, 50, seed=9)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_input_mean_statistical_bound(self):
        # standard-error bound: mean of 100 draws from N(0.5, 0.5) within
        # 3 * 0.5/sqrt(100) of 0.5
        dgp = DataGeneratingProcess(
            truth=cubic_truth, noise_std=np.sqrt(2.0), q0=DensitySpec.normal(0.5, 0.5)
        )
        ds = generate_dataset(dgp, 100, seed=314)
        assert abs(ds.x.mean() - 0.5) < 3 * 0.5 / 10

    def test_noise_added_once(self):
        dgp = DataGeneratingProcess(
            truth=lambda x, seed=0: 2.0 * x, noise_std=0.5, q0=DensitySpec.uniform(0, 1)
        )
        ds = generate_dataset(dgp, 200, seed=1)
        residuals = ds.y - 2.0 * ds.x
        assert abs(residuals.mean()) < 3 * 0.5 / np.sqrt(200)
        assert abs(residuals.std() - 0.5) < 0.15

    def test_rejects_empty(self):
        dgp = DataGeneratingProcess(
            truth=cubic_truth, noise_std=0.0, q0=DensitySpec.uniform(0, 1)
        )
        with pytest.raises(ValueError):
            generate_dataset(dgp, 0, seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
    def test_bad_noise_std_rejected(self, bad):
        with pytest.raises(ValueError, match="noise_std"):
            DataGeneratingProcess(truth=cubic_truth, noise_std=bad, q0=DensitySpec.uniform(0, 1))


class TestDatasetCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        ds = Dataset(
            x=np.array([0.1, -2.3456789012345678, 1e-17]),
            y=np.array([5.0, np.pi, -1e300]),
            seed=42,
            meta={"truth": "cubic"},
        )
        path = tmp_path / "dataset.csv"
        ds.write_csv(path)
        header, *rows = path.read_text().splitlines()
        assert header == "x,y"
        x, y = np.array([[float(v) for v in row.split(",")] for row in rows]).T
        side = json.loads(path.with_suffix(".json").read_text())
        assert np.array_equal(x, ds.x)
        assert np.array_equal(y, ds.y)
        assert side["seed"] == 42
        assert side["meta"] == {"truth": "cubic"}


def per_value_repr_csv(path, header, rows) -> bytes:
    """The writer's reference: every float written as ``repr(float(v))``."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
    return path.read_bytes()


class TestWriteCsvRows:
    def written(self, tmp_path, header, rows) -> bytes:
        write_csv_rows(tmp_path / "rows.csv", None, header, rows)
        return (tmp_path / "rows.csv").read_bytes()

    def test_edge_floats(self, tmp_path):
        row = np.array([-0.0, 5e-324, 1e-300, 1e16, 0.1, np.inf])
        expected = per_value_repr_csv(tmp_path / "ref.csv", list("abcdef"), [row])
        assert self.written(tmp_path, list("abcdef"), [row.tolist()]) == expected
        assert expected.endswith(b"-0.0,5e-324,1e-300,1e+16,0.1,inf\r\n")

    def test_mh_trace_rows_keep_int_columns(self, tmp_path):
        states = np.array([[0.5, -1.25], [1e-7, 3.0]])
        accepted = np.array([True, False])
        trace = MHTrace(states=states, accepted=accepted, burn_in_steps=0)
        header = ["step", "theta_0", "theta_1", "accepted"]
        rows = [[s, *state, int(acc)] for s, (state, acc) in enumerate(zip(states, accepted), 1)]
        expected = per_value_repr_csv(tmp_path / "ref.csv", header, rows)
        trace.write_csv(tmp_path / "rows.csv")
        assert (tmp_path / "rows.csv").read_bytes() == expected
        assert expected.endswith(b"1,0.5,-1.25,1\r\n2,1e-07,3.0,0\r\n")

    def test_two_dimensional_array(self, tmp_path):
        rows = np.random.default_rng(3).normal(size=(20, 9)) * np.logspace(-20, 20, 9)
        expected = per_value_repr_csv(tmp_path / "ref.csv", list("abcdefghi"), rows)
        assert self.written(tmp_path, list("abcdefghi"), rows.tolist()) == expected

    def test_same_bytes_as_the_csv_module(self, tmp_path):
        floats = np.random.default_rng(5).normal(size=(4, 7)) * np.logspace(-30, 30, 7)
        rows = [[0, -7, 2**70, True, False, -0.0, math.inf, -math.inf, math.nan],
                [5e-324, 1e22, 1e16, 1e-5, 0.1, 123456789.0, -1.5e-310],
                *floats.tolist()]
        header = ["step", "theta_0", "y_1", "mean"]
        with (tmp_path / "ref.csv").open("w", newline="") as fh:
            fh.write("# config_hash=abc\n")
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        write_csv_rows(tmp_path / "rows.csv", "abc", header, rows)
        assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def traced_peak(fn) -> int:
    """Peak bytes ``tracemalloc`` sees allocated during ``fn()``, above the start."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def returned_function_calls(source: str, cls: str, method: str) -> set:
    """Names called in the function that ``cls.method`` defines and returns
    (``np.take`` is ``take``)."""
    tree = ast.parse(source)
    owner = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls)
    body = next(n for n in owner.body if isinstance(n, ast.FunctionDef) and n.name == method).body
    returned = {n.value.id for n in body if isinstance(n, ast.Return) and isinstance(n.value, ast.Name)}
    inner = [n for n in body if isinstance(n, ast.FunctionDef) and n.name in returned]
    assert inner, f"{cls}.{method} returns no function it defines"
    return {getattr(n.func, "attr", getattr(n.func, "id", None))
            for f in inner for n in ast.walk(f) if isinstance(n, ast.Call)}


class TestAssemblySweepCall:
    """A built sweep's per-call path: no whole-array temporaries it can avoid
    and no index work that does not depend on theta."""

    def test_peak_memory_of_one_call(self):
        # R rows of W products: the schedule in one (R, W) buffer and the
        # inspections in (R, W / 4) ones (measured 1.75; 3.43 with one
        # temporary per step)
        rows, width = 400, 120
        sweep = AssemblyLineSimulator().sweep([float(width)], np.arange(rows))
        thetas = np.random.default_rng(0).uniform(0.5, 6.0, size=(rows, 4))
        sweep(thetas)
        assert traced_peak(lambda: sweep(thetas)) <= 2.5 * rows * width * 8

    def test_no_split_or_gather_calls_in_the_returned_function(self):
        # theta's columns are views and the gathers' indices are built with
        # the sweep, so a call splits nothing and gathers by flat index
        calls = returned_function_calls(open(sim_module.__file__).read(),
                                        "AssemblyLineSimulator", "sweep")
        assert "_prefix_sums" in calls
        assert not {"hsplit", "take_along_axis"} & calls

    def test_the_guard_sees_a_split(self):
        source = ("class A:\n    def sweep(self, z):\n        def f(t):\n"
                  "            return np.hsplit(t, 4), np.take_along_axis(z, t, 1)\n"
                  "        return f\n")
        assert {"hsplit", "take_along_axis"} <= returned_function_calls(source, "A", "sweep")


class TestRegistry:
    def test_lookup(self):
        assert isinstance(get_simulator("linear"), LinearSimulator)
        assert isinstance(get_simulator("assembly"), AssemblyLineSimulator)
        assert get_simulator("assembly", batch_size=6).batch_size == 6

    def test_integral_batch_size(self):
        for size in (4.0, np.int64(4)):
            sim = get_simulator("assembly", batch_size=size)
            assert sim.batch_size == 4 and type(sim.batch_size) is int

    @pytest.mark.parametrize("size", [2.5, "4", float("nan"), float("inf"), True, 0, -3, None])
    def test_batch_size_must_be_a_positive_integer(self, size):
        # the config's count rule, ``weights.count_entry``
        rule = ">= 1" if size in (0, -3) else "an integer"
        message = f"^{re.escape(f'batch_size must be {rule}, got {size!r}')}$"
        with pytest.raises(ValueError, match=message):
            get_simulator("assembly", batch_size=size)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="registered"):
            get_simulator("nope")
