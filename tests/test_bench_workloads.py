"""The benchmark's output checks still read the package's results.

``bench/workloads.py`` checks each op's outputs by reading fields of the
package's results and artifacts (``herded.pool``, ``result.budget``,
``trace.acceptance_count``, ``report.json``, ``herded.csv``).  Here its
checks run on small configs, so a refactor that renames or drops one of
those reads fails in the main suite, and not only in the benchmark.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path
from types import SimpleNamespace

import shiftcal
import shiftcal.cli
from shiftcal import pipeline
from shiftcal.config import preset

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
SMALL = {"n": 12, "n_test": 10}


def load_workloads_module():
    spec = importlib.util.spec_from_file_location("shiftcal_bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_linear_m2000_check_passes_on_a_small_calibration():
    workloads = load_workloads_module()
    result = pipeline.calibrate(preset("linear-shift", seed=5, m=16, herd_size=16, **SMALL))
    outcome = workloads.check_linear_m2000(result, herd_size=16)
    assert outcome.problems == []
    assert outcome.fingerprint["rmse"] == result.rmse


def test_assembly_mh400_op_and_check_pass_on_a_small_dataset():
    # the op itself, on a package whose presets are small: 400 chain steps
    workloads = load_workloads_module()
    small = SimpleNamespace(
        config=SimpleNamespace(preset=lambda name, **kw: preset(name, **kw, **SMALL)),
        pipeline=pipeline,
    )
    result = workloads.run_assembly_mh400(small, seed=5, out_dir=None)
    outcome = workloads.check_assembly_mh400(result)
    assert outcome.problems == []
    assert outcome.fingerprint["accepted"] == result.trace.acceptance_count


def test_assembly_m400_check_passes_on_small_cli_artifacts(tmp_path):
    # as the benchmark reruns op 0: the first run's directory is moved aside
    workloads = load_workloads_module()
    out, first = tmp_path / "op-0", tmp_path / "op-0.first"
    argv = ["calibrate", "--preset", "assembly-shift", "--seed", "5", "--m", "16",
            "--out", str(out)]
    for _ in range(2):
        if out.exists():
            out.rename(first)
        with contextlib.redirect_stdout(io.StringIO()):
            assert shiftcal.cli.main(argv) == 0
    outcome = workloads.check_assembly_m400(out, herd_size=16)
    assert outcome.problems == []
    assert workloads.compare_reruns(first, out) == []
