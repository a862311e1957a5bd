"""The benchmark's workloads: what one op runs and how its outputs are checked.

Every op is a user-level call into ``shiftcal`` with a config seed derived
from the workload seed and the op index, so a run's inputs are a pure
function of ``--seed``.  Each op returns an ``OpOutcome`` whose
``problems`` list is empty when every output check passed; a raised
exception or a non-empty list makes the op count as failed.

``shiftcal`` is looked up through module attributes at call time (never
bound with ``from ... import``), so the timing wrappers the tracer installs
are the functions that actually run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


def op_seed(workload: str, seed: int, index: int) -> int:
    """Config seed of op ``index`` in a run of ``workload`` under ``seed``.

    Index -1 is the untimed warm-up op.  A hash rather than ``seed + index``
    keeps runs with neighbouring workload seeds from sharing ops.
    """
    digest = hashlib.blake2b(f"{workload}:{seed}:{index}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "little") & 0x7FFFFFFF


@dataclass
class OpOutcome:
    rmse: float
    problems: list = field(default_factory=list)
    # What must agree between two runs of the same op, whatever the BLAS
    # thread count: the RMSE and the herded pool indices (MH: the accepted
    # count), never the embedding weights' last digits.
    fingerprint: dict = field(default_factory=dict)


def _indices_digest(indices) -> str:
    return hashlib.sha256(np.asarray(indices, dtype=np.int64).tobytes()).hexdigest()[:16]


def check_rmse(rmse, problems: list) -> float:
    rmse = float(rmse)
    if not math.isfinite(rmse):
        problems.append(f"rmse is not finite: {rmse}")
    return rmse


def check_herded(points, pool, indices, herd_size: int, problems: list) -> None:
    """Herded samples number ``herd_size`` and are rows of the candidate pool."""
    points = np.asarray(points, dtype=float)
    pool = np.asarray(pool, dtype=float)
    indices = np.asarray(indices)
    if len(points) != herd_size or len(indices) != herd_size:
        problems.append(f"herded {len(points)} samples / {len(indices)} indices, want {herd_size}")
        return
    if indices.min() < 0 or indices.max() >= len(pool):
        problems.append("herded index outside the candidate pool")
        return
    if not np.array_equal(points, pool[indices]):
        problems.append("herded samples are not rows of the candidate pool")


# -- assembly-m400: `shiftcal calibrate` on the assembly-shift preset ---------


def run_assembly_m400(shiftcal, seed: int, out_dir: Path) -> Path:
    argv = ["calibrate", "--preset", "assembly-shift", "--seed", str(seed), "--out", str(out_dir)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = shiftcal.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"shiftcal calibrate exited with {code}")
    return out_dir


def check_assembly_m400(out_dir: Path, herd_size: int = 400) -> OpOutcome:
    """Check the artifacts ``shiftcal calibrate`` wrote, as a user would read them."""
    problems: list = []
    report = json.loads((out_dir / "report.json").read_text())
    rmse = check_rmse(report["rmse"], problems)
    # pool_extra is 0 in the preset, so the pool is the embedding's prior draws.
    pool = np.asarray(json.loads((out_dir / "embedding.json").read_text())["draws"])
    rows = _read_csv_rows(out_dir / "herded.csv")
    index_of = {tuple(row): k for k, row in enumerate(pool.tolist())}
    indices = [index_of.get(tuple(row), -1) for row in rows.tolist()]
    if -1 in indices:
        problems.append("herded samples are not rows of the candidate pool")
    else:
        check_herded(rows, pool, indices, herd_size, problems)
    return OpOutcome(rmse, problems, {"rmse": rmse, "herded": _indices_digest(indices)})


def _read_csv_rows(path: Path) -> np.ndarray:
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])


def compare_reruns(first: Path, second: Path) -> list:
    """Artifacts of two runs of one op must be byte-identical.

    ``embedding.json`` is the exception: its weights come out of a threaded
    Cholesky solve, whose last digit may change with the BLAS thread count,
    so its draws must match exactly and its weights to a relative 1e-9.
    """
    problems = []
    names = sorted(p.name for p in first.iterdir())
    if names != sorted(p.name for p in second.iterdir()):
        return [f"rerun wrote different files: {names}"]
    for name in names:
        a, b = (first / name).read_bytes(), (second / name).read_bytes()
        if name == "embedding.json":
            ea, eb = json.loads(a), json.loads(b)
            if ea["draws"] != eb["draws"] or not np.allclose(
                ea["weights"], eb["weights"], rtol=1e-9, atol=0.0
            ):
                problems.append("rerun changed the embedding")
        elif a != b:
            problems.append(f"rerun changed {name}")
    return problems


# -- linear-m2000: in-memory calibrate on linear-shift at m = herd_size = 2000 --


def run_linear_m2000(shiftcal, seed: int, out_dir: Path):
    cfg = shiftcal.config.preset("linear-shift", seed=seed, m=2000, herd_size=2000)
    return shiftcal.pipeline.calibrate(cfg)


def check_linear_m2000(result, herd_size: int = 2000) -> OpOutcome:
    problems: list = []
    rmse = check_rmse(result.rmse, problems)
    herded = result.herded
    check_herded(herded.points, herded.pool.points, herded.indices, herd_size, problems)
    return OpOutcome(rmse, problems, {"rmse": rmse, "herded": _indices_digest(herded.indices)})


# -- assembly-mh400: the MH baseline on assembly-shift, 400 steps --------------


MH_STEPS = 400


def run_assembly_mh400(shiftcal, seed: int, out_dir: Path):
    cfg = shiftcal.config.preset("assembly-shift", seed=seed)
    return shiftcal.pipeline.run_mh_baseline(cfg, steps=MH_STEPS)


def check_assembly_mh400(result, steps: int = MH_STEPS) -> OpOutcome:
    problems: list = []
    rmse = check_rmse(result.rmse, problems)
    if result.budget != steps or result.trace.steps != steps:
        problems.append(f"budget {result.budget} / {result.trace.steps} steps, want {steps}")
    if not 0.0 < result.acceptance_ratio < 1.0:
        problems.append(f"acceptance ratio {result.acceptance_ratio} outside (0, 1)")
    accepted = int(result.trace.acceptance_count)
    return OpOutcome(rmse, problems, {"rmse": rmse, "accepted": accepted})


@dataclass(frozen=True)
class Workload:
    """``run(shiftcal, seed, out_dir)`` is the timed op; ``check`` inspects its return."""

    name: str
    run: object
    check: object
    # rmse_mean averages the first min_ops ops, so it is a pure function of
    # the workload seed however many ops fit in the run.
    min_ops: int
    # Rerun op 0 at the end of the run and compare its artifacts.
    rerun_check: bool = False


# Why these three (README.md has the measurements): assembly-m400 spends its
# time in the scalar simulator and stream seeding, linear-m2000 in pairwise
# distances and herding, and assembly-mh400 drives the same simulator one
# theta at a time, re-drawing streams, through the MH baseline.  A change
# to one layer should move one workload and leave another unchanged.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("assembly-m400", run_assembly_m400, check_assembly_m400,
                 min_ops=7, rerun_check=True),
        Workload("linear-m2000", run_linear_m2000, check_linear_m2000, min_ops=20),
        Workload("assembly-mh400", run_assembly_mh400, check_assembly_mh400, min_ops=10),
    )
}
