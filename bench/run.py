"""shiftcal benchmark: one workload, single-client closed loop, checked outputs.

Run from the root of a checkout, which must hold ``src/shiftcal``:

    python3 bench/run.py --workload assembly-m400 --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.  A
fuller record (environment, every op, the spans of a traced run) is
written under ``.bench_out/`` in the checkout.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Set-up is measured in this process and in this many fresh child processes;
# setup_s is the median.  The BLAS start-up stall only shows in a fresh process.
SETUP_CHILDREN = 2
CHILD_TIMEOUT_S = 60
# The loop stops here even if fewer than min_ops ops finished, so a run
# ends within its 180 s limit.
LOOP_LIMIT_S = 110


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="internal: time import and the warm-up op in this fresh process, print JSON, exit",
    )
    return parser.parse_args(argv)


def import_shiftcal():
    """Import ``shiftcal`` from this checkout's ``src``; return (module, seconds)."""
    if not (SRC / "shiftcal" / "__init__.py").is_file():
        raise SystemExit(f"bench: no src/shiftcal under {ROOT}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import shiftcal
    import shiftcal.cli  # noqa: F401  (`shiftcal calibrate` imports it too)

    seconds = time.perf_counter() - start
    if Path(shiftcal.__file__).resolve().parent != SRC / "shiftcal":
        raise SystemExit(f"bench: imported shiftcal from {shiftcal.__file__}, not {SRC}")
    return shiftcal, seconds


def warm_up(shiftcal, workload, seed: int, work: Path) -> dict:
    """Run the untimed warm-up op (index -1) and check it."""
    from workloads import op_seed

    start = time.perf_counter()
    try:
        output = workload.run(shiftcal, op_seed(workload.name, seed, -1), work / "warmup")
        seconds = time.perf_counter() - start
        outcome = workload.check(output)
    except Exception:
        return {"warmup_s": time.perf_counter() - start,
                "problems": [traceback.format_exc(limit=4)], "fingerprint": None}
    return {"warmup_s": seconds, "problems": outcome.problems, "fingerprint": outcome.fingerprint}


def setup_children(args, work: Path) -> list:
    """Import plus warm-up in fresh processes, one after another."""
    results = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_CHILDREN):
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            results.append({"problems": [f"set-up child ran over {CHILD_TIMEOUT_S} s"]})
            continue
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            results.append({"problems": [f"set-up child failed: {proc.stderr.strip()[-500:]}"]})
        else:
            results.append(json.loads(lines[-1]))
    return results


def run_op(shiftcal, workload, index: int, seed: int, out_dir: Path, tracer=None) -> dict:
    """One op of the closed loop: the timed call, then its output checks."""
    record = {"index": index, "seed": seed, "traced": tracer is not None}
    output = error = None
    if tracer is not None:
        tracer.install()
        tracer.begin_op(index)
    start = time.perf_counter()
    try:
        output = workload.run(shiftcal, seed, out_dir)
    except Exception:
        error = traceback.format_exc(limit=4)
    finally:
        record["seconds"] = time.perf_counter() - start
        if tracer is not None:
            tracer.restore()
    if error is None and tracer is not None:
        tracer.end_op(record["seconds"])
    if error is not None:
        record.update(rmse=float("nan"), problems=[error])
        return record
    try:
        outcome = workload.check(output)
    except Exception:
        record.update(rmse=float("nan"), problems=[traceback.format_exc(limit=4)])
        return record
    record.update(rmse=outcome.rmse, problems=outcome.problems, fingerprint=outcome.fingerprint)
    return record


def rerun_op0(shiftcal, workload, ops: list, work: Path) -> list:
    """Rerun op 0 into its own directory and compare the artifacts."""
    from workloads import compare_reruns

    first = work / "op-0"
    kept = work / "op-0.first"
    first.rename(kept)
    again = run_op(shiftcal, workload, 0, ops[0]["seed"], first)
    if again["problems"]:
        return [f"rerun of op 0 failed: {again['problems']}"]
    problems = compare_reruns(kept, first)
    if again["fingerprint"] != ops[0]["fingerprint"]:
        problems.append("rerun of op 0 changed its RMSE or herded indices")
    return problems


def tail(latencies: list) -> dict:
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(latencies)
    if n <= 10:
        return {"value": None, "percentile": None, "samples": n,
                "note": "needs more than 10 ops"}
    ordered = sorted(latencies)
    return {"value": ordered[n - 11], "percentile": 100.0 * (n - 10) / n, "samples": n}


def _blas_info() -> list:
    """Each loaded OpenBLAS: its config string and the thread count in effect."""
    libs = []
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in path and path not in libs:
                libs.append(path)
    info = []
    for path in libs:
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None and "threads" not in entry:
                    threads.argtypes, threads.restype = [], ctypes.c_int
                    config.argtypes, config.restype = [], ctypes.c_char_p
                    entry.update(threads=threads(), config=config().decode())
        info.append(entry)
    return info


def environment() -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "blas": _blas_info(),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    shiftcal, import_s = import_shiftcal()
    from tracer import Tracer
    from workloads import WORKLOADS, op_seed

    if args.workload not in WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    # Metric names and units are declared once, in BENCHMARK.json.
    declared = {
        kind: {m["name"]: m["unit"] for m in metrics}
        for kind, metrics in json.loads((ROOT / "BENCHMARK.json").read_text()).items()
        if kind in ("end_to_end", "per_layer")
    }
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup = warm_up(shiftcal, workload, args.seed, work)
        setup["import_s"] = import_s
        if args.setup_probe:
            print(json.dumps(setup))
            return 0
        setups = [setup] + setup_children(args, work)
        setup_problems = [p for s in setups for p in s["problems"]]
        if any(s.get("fingerprint") != setup["fingerprint"] for s in setups):
            setup_problems.append("warm-up op differs between processes")

        tracer = Tracer(shiftcal) if args.trace else None
        ops = []
        start = time.perf_counter()
        while len(ops) < workload.min_ops or time.perf_counter() - start < args.seconds:
            if time.perf_counter() - start > LOOP_LIMIT_S:
                break
            i = len(ops)
            # A traced run alternates untraced and traced ops, so the tracing
            # overhead is measured on the same machine state.
            traced = tracer if args.trace and i % 2 == 1 else None
            ops.append(run_op(shiftcal, workload, i, op_seed(workload.name, args.seed, i),
                              work / f"op-{i}", traced))
            if i > 0:
                shutil.rmtree(work / f"op-{i}", ignore_errors=True)
        loop_s = time.perf_counter() - start
        if workload.rerun_check and not ops[0]["problems"]:
            ops[0]["problems"] = rerun_op0(shiftcal, workload, ops, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ok = [op for op in ops if not op["problems"]]
    attempted = len(ops) + 1  # the measured ops plus the checked warm-up op
    failed = len(ops) - len(ok) + (1 if setup_problems else 0)
    quality = [op["rmse"] for op in ops[: workload.min_ops] if not op["problems"]]
    short = len(ops) < workload.min_ops
    untraced = [op["seconds"] for op in ok if not op["traced"]]
    setup_s = [s["import_s"] + s["warmup_s"] for s in setups if "warmup_s" in s]

    end_to_end = {
        "ops_per_s": len(ok) / loop_s,
        "op_s_p50": statistics.median(untraced) if untraced else 0.0,
        "setup_s": statistics.median(setup_s),
        "rmse_mean": statistics.fmean(quality) if quality else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "loop_s": loop_s,
        "error_rate": failed / attempted,
        "op_s_tail": tail(untraced),
        "setup": setups,
        "setup_problems": setup_problems,
        "ops": ops,
        "end_to_end": end_to_end,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    if args.trace:
        traced_s = [op["seconds"] for op in ok if op["traced"]]
        values = tracer.summary() if tracer.ops else dict.fromkeys(declared["per_layer"], 0.0)
        values["setup.import_s"] = statistics.median(s["import_s"] for s in setups if "import_s" in s)
        values["setup.warmup_s"] = statistics.median(s["warmup_s"] for s in setups if "warmup_s" in s)
        values["trace.overhead_s"] = (statistics.median(traced_s) - statistics.median(untraced)
                                      if traced_s and untraced else 0.0)
        record["per_layer"] = values
        record["traced_ops"] = tracer.ops
        spans_path = results / f"spans-{workload.name}-seed{args.seed}-{time.time_ns()}.json"
        spans_path.write_text(json.dumps(
            {"fields": ["op", "name", "start", "end", "parent"], "spans": tracer.spans}))
        record["spans_file"] = spans_path.name
    else:
        values = record["end_to_end"]
    units = declared["per_layer" if args.trace else "end_to_end"]
    if set(values) != set(units):
        raise SystemExit(f"bench: metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    name = f"{workload.name}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    (results / name).write_text(json.dumps(record, indent=1, default=str) + "\n")
    for op in ops:
        for problem in op["problems"]:
            print(f"bench: op {op['index']} failed: {problem}", file=sys.stderr)
    for problem in setup_problems:
        print(f"bench: warm-up failed: {problem}", file=sys.stderr)
    if short:
        print(f"bench: only {len(ops)} of {workload.min_ops} ops ran", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not short,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
