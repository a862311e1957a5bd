"""Tests of the benchmark's own code: tracing, output checks, seeding."""

from __future__ import annotations

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

import run
import shiftcal
import shiftcal.cli  # noqa: F401
from tracer import Tracer
from workloads import (
    WORKLOADS,
    Workload,
    check_assembly_mh400,
    check_linear_m2000,
    compare_reruns,
    op_seed,
)


def _namespaces(tracer):
    spaces = list(tracer.modules)
    for mod in tracer.modules:
        spaces += [v for v in vars(mod).values()
                   if isinstance(v, type) and v.__module__.startswith("shiftcal")]
    return spaces


def _small_ops(tmp_path):
    sc = shiftcal
    cfg = sc.config.preset("linear-shift", seed=3, m=30, herd_size=30)
    yield "calibrate", lambda: sc.pipeline.calibrate(cfg)
    yield "mh", lambda: sc.pipeline.run_mh_baseline(
        sc.config.preset("assembly-shift", seed=3), steps=20)
    argv = ["calibrate", "--preset", "assembly-shift", "--m", "20", "--seed", "3",
            "--out", str(tmp_path / "cli")]
    yield "cli", lambda: sc.cli.main(argv)


def test_tracer_restores_every_rebound_name(tmp_path):
    tracer = Tracer(shiftcal)
    spaces = _namespaces(tracer)
    before = [dict(vars(ns)) for ns in spaces]
    for index, (name, op) in enumerate(_small_ops(tmp_path)):
        tracer.install()
        tracer.begin_op(index)
        try:
            op()
        finally:
            tracer.restore()
        tracer.end_op(1.0)
    after = [dict(vars(ns)) for ns in spaces]
    for ns, old, new in zip(spaces, before, after):
        assert old.keys() == new.keys(), ns
        changed = [k for k in old if old[k] is not new[k]]
        assert not changed, (ns, changed)

    calibrate_op, mh_op, cli_op = tracer.ops
    assert calibrate_op["kern.sqdist_calls"] == 3
    assert calibrate_op["herd.steps"] == 30
    assert calibrate_op["sim.evals"] == 30 * 100 + 100 * 30
    assert mh_op["mh.target_calls"] == 21  # the initial point, then one per step
    # All 21 sweeps share one stream seed, so every sweep after the first
    # re-draws the 50 streams of the first.
    assert mh_op["sim.stream_reuse"] == pytest.approx(20 * 50 / mh_op["sim.evals"])
    assert cli_op["sim.calls"] == 20 * 50 + 20 * 50 + 50 + 50
    assert cli_op["pipeline.write_s"] > 0
    assert all(0 <= span[2] <= span[3] for span in tracer.spans)


def test_tracer_counts_nothing_once_restored():
    tracer = Tracer(shiftcal)
    tracer.install()
    tracer.restore()
    tracer.begin_op(0)
    shiftcal.pipeline.calibrate(shiftcal.config.preset("linear-shift", m=20, herd_size=20))
    assert tracer.end_op(1.0)["sim.evals"] == 0


def _linear_result(rmse=0.5, herd_len=5, pool_size=8):
    pool = np.arange(pool_size * 2, dtype=float).reshape(pool_size, 2)
    indices = np.arange(herd_len) % pool_size
    herded = SimpleNamespace(points=pool[indices], indices=indices,
                             pool=SimpleNamespace(points=pool))
    return SimpleNamespace(rmse=rmse, herded=herded)


def test_good_result_passes_checks():
    assert check_linear_m2000(_linear_result(), herd_size=5).problems == []


@pytest.mark.parametrize("result", [
    _linear_result(rmse=float("nan")),
    _linear_result(rmse=float("inf")),
    _linear_result(herd_len=4),
])
def test_corrupted_result_counts_as_failed_op(tmp_path, result):
    workload = Workload("fake", lambda sc, seed, out: result,
                        lambda r: check_linear_m2000(r, herd_size=5), min_ops=1)
    record = run.run_op(shiftcal, workload, 0, 1, tmp_path)
    assert record["problems"]


def test_herded_rows_outside_pool_fail():
    result = _linear_result()
    result.herded.points = result.herded.points + 0.5
    assert check_linear_m2000(result, herd_size=5).problems


def test_raised_exception_counts_as_failed_op(tmp_path):
    def boom(sc, seed, out):
        raise ValueError("simulator failed")

    workload = Workload("fake", boom, check_linear_m2000, min_ops=1)
    record = run.run_op(shiftcal, workload, 0, 1, tmp_path)
    assert "simulator failed" in record["problems"][0]
    assert math.isnan(record["rmse"])


@pytest.mark.parametrize("budget,ratio", [(399, 0.4), (400, 0.0), (400, 1.0)])
def test_mh_checks(budget, ratio):
    trace = SimpleNamespace(steps=400, acceptance_count=int(ratio * 400))
    result = SimpleNamespace(rmse=1.0, budget=budget, acceptance_ratio=ratio, trace=trace)
    assert check_assembly_mh400(result).problems


def test_workload_inputs_are_a_pure_function_of_the_seed():
    for name in WORKLOADS:
        seeds = [op_seed(name, 7, i) for i in range(-1, 20)]
        assert seeds == [op_seed(name, 7, i) for i in range(-1, 20)]
        assert len(set(seeds)) == len(seeds)
        assert set(seeds).isdisjoint(op_seed(name, 8, i) for i in range(-1, 20))
    a = shiftcal.config.preset("linear-shift", seed=op_seed("linear-m2000", 7, 3), m=2000)
    b = shiftcal.config.preset("linear-shift", seed=op_seed("linear-m2000", 7, 3), m=2000)
    assert a.config_hash() == b.config_hash()


def _artifacts(path, weights):
    path.mkdir()
    (path / "herded.csv").write_text("theta_0\n1.0\n")
    (path / "embedding.json").write_text(json.dumps({"draws": [[1.0]], "weights": weights}))


def test_rerun_comparison_tolerates_last_digit_of_embedding_weights(tmp_path):
    _artifacts(tmp_path / "a", [0.1234567890123])
    _artifacts(tmp_path / "b", [0.1234567890124])
    assert compare_reruns(tmp_path / "a", tmp_path / "b") == []
    (tmp_path / "b" / "herded.csv").write_text("theta_0\n2.0\n")
    assert compare_reruns(tmp_path / "a", tmp_path / "b") == ["rerun changed herded.csv"]


def test_tail_needs_ten_samples_beyond():
    assert run.tail([1.0] * 10)["value"] is None
    latencies = [float(i) for i in range(40)]
    result = run.tail(latencies)
    assert result["percentile"] == 75.0
    assert sum(v > result["value"] for v in latencies) == 10
