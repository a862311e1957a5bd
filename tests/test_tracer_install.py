"""The benchmark's tracer still installs on the package and restores it.

``bench/tracer.py`` rebinds package functions and simulator methods by
name.  A refactor that deletes or renames one of those names makes
``Tracer.install`` fail here, in the main suite, and not only in the
benchmark's own tests.
"""

import importlib.util
from pathlib import Path

import shiftcal
import shiftcal.cli  # noqa: F401  (the tracer hooks the CLI module too)

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("shiftcal_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_then_restore_puts_back_every_original():
    tracer = load_tracer_module().Tracer(shiftcal)
    spaces = list(tracer.modules)
    for mod in tracer.modules:
        spaces += [v for v in vars(mod).values()
                   if isinstance(v, type) and v.__module__.startswith("shiftcal")]
    before = {id(ns): dict(vars(ns)) for ns in spaces}
    tracer.install()
    try:
        patched = [(ns, attr) for ns, attr, _ in tracer._patches]
        assert patched
        assert all(vars(ns)[attr] is not before[id(ns)][attr] for ns, attr in patched)
    finally:
        tracer.restore()
    for ns, attr in patched:
        assert vars(ns)[attr] is before[id(ns)][attr], (ns, attr)
    for ns in spaces:
        assert vars(ns).keys() == before[id(ns)].keys(), ns


def test_a_traced_calibration_counts_the_solve():
    # the solve's counters read kern.regularized_solve by name: a run that
    # stopped calling it there would show no solve time
    from shiftcal import pipeline
    from shiftcal.config import preset

    tracer = load_tracer_module().Tracer(shiftcal)
    tracer.install()
    try:
        tracer.begin_op(0)
        pipeline.calibrate(preset("linear-shift"))
        metrics = tracer.end_op(1.0)
    finally:
        tracer.restore()
    # The tracer reads refinements as kern.cho_solve calls minus solves.  The
    # one solve of a shipped run converges by conjugate gradients and calls
    # no cho_solve, so that formula reads 0 - 1 = -1: no fallback, no refinement.
    assert metrics["kern.solve_refines"] == -1
    assert metrics["kern.solve_s"] > 0
    # The tracer counts kern.pairwise_sqdist calls by name.  A run's two Gram
    # builds (one output pass, one theta pass) enter kern._sqdist_sweep, which
    # forms only the upper triangle, and call no pairwise_sqdist, so it reads 0.
    assert metrics["kern.sqdist_calls"] == 0
