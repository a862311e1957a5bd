"""Per-layer timing of ``shiftcal``, taken from outside the package.

``Tracer.install`` rebinds the public functions and methods of each
``shiftcal`` module to timing wrappers, in every module namespace that holds
them (``from .kern import median_heuristic`` copies the name into
``pipeline``, so the copy is rebound too), and ``restore`` puts every
original back.  Nothing under ``src/`` is edited.

Stage-level calls get a span each (name, start, end, parent span, op id),
kept in memory.  The simulator and stream-seeding functions run ~40k times
per op, so they get counters and summed busy time instead.  Every wrapped
call is a frame on one stack, so a frame's self time is its duration minus
the time its child frames covered, and the layer self times of an op add up
to the time spent inside wrapped calls.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import defaultdict

import numpy as np

perf_counter = time.perf_counter

# (module, qualified name, layer key).  Layer keys name the self-time
# metrics; see README.md for which end-to-end metric each should move.
SPANS = [
    ("cli", "main", "cli"),
    ("cli", "cmd_calibrate", "cli"),
    ("config", "preset", "config"),
    ("config", "ExperimentConfig.config_hash", "config"),
    ("config", "ExperimentConfig.write_json", "config"),
    ("config", "ExperimentConfig.replace", "config"),
    ("config", "ExperimentConfig.build_simulator", "config"),
    ("config", "ExperimentConfig.build_truth", "config"),
    ("config", "ExperimentConfig.build_prior", "config"),
    ("config", "ExperimentConfig.build_dgp", "config"),
    ("config", "ExperimentConfig.mh_config", "config"),
    ("pipeline", "run_calibration", "pipeline.run"),
    ("pipeline", "calibrate", "pipeline.calibrate"),
    ("pipeline", "run_mh_baseline", "pipeline.mh"),
    ("pipeline", "resolve_weights", "weights"),
    ("weights", "importance_weights", "weights"),
    ("weights", "ordinary_weights", "weights"),
    ("sim", "generate_dataset", "sim.dataset"),
    ("sim", "Dataset.write_csv", "pipeline.write"),
    ("kabc", "sample_prior", "kabc.pseudo"),
    ("kabc", "simulate_pseudo_outputs", "kabc.pseudo"),
    ("kabc", "build_embedding", "kabc.embed"),
    ("kabc", "PosteriorEmbedding.to_json", "pipeline.write"),
    ("kern", "median_heuristic", "kern.median"),
    ("kern", "pairwise_sqdist", "kern.sqdist"),
    ("kern", "gram_and_rhs", "kern.gram"),
    ("kern", "WeightedOutputKernel.gram", "kern.gram"),
    ("kern", "WeightedOutputKernel.against", "kern.gram"),
    ("kern", "ParamKernel.gram", "kern.gram"),
    ("kern", "ParamKernel.cross", "kern.cross"),
    ("kern", "regularized_solve", "kern.solve"),
    ("herd", "CandidatePool.from_draws", "herd"),
    ("herd", "herd", "herd"),
    ("herd", "HerdedSamples.write_csv", "pipeline.write"),
    ("predict", "generate_test_inputs", "predict"),
    ("predict", "score_predictions", "predict"),
    ("predict", "predict", "predict"),
    ("baseline", "mh_sample", "mh.chain"),
    ("baseline", "weighted_log_likelihood", "mh.loglik"),
]

SIM_METHODS = ("evaluate", "evaluate_many", "evaluate_params")
SEEDING = ("derive_seed", "derive_rng")

class _Frame:
    __slots__ = ("key", "start", "child", "span")

    def __init__(self, key, start, span):
        self.key = key
        self.start = start
        self.child = 0.0
        self.span = span


class Tracer:
    """Spans and counters for one run; install around each traced op."""

    def __init__(self, shiftcal):
        # ``shiftcal.herd`` and ``shiftcal.predict`` are the re-exported
        # functions, so submodules are looked up by their full names.
        self.mod = {
            name: importlib.import_module(f"{shiftcal.__name__}.{name}")
            for name in ("_seeding", "sim", "weights", "kern", "kabc", "herd", "predict",
                         "baseline", "config", "pipeline", "cli")
        }
        self.modules = [shiftcal, *self.mod.values()]
        self.spans: list = []       # [op, name, start, end, parent span index]
        self.ops: list = []         # per-op metric dicts
        self._patches: list = []    # (namespace, attribute, original)
        self._stack: list = []
        self._op = None

    # -- op bookkeeping -----------------------------------------------------

    def begin_op(self, op_id) -> None:
        self._op = op_id
        self._self = defaultdict(float)    # layer key -> self seconds
        self._incl = defaultdict(float)    # selected keys -> inclusive seconds
        self._count = defaultdict(int)
        self._streams: set = set()
        self._values: dict = {}
        self._sim_depth = 0
        self._predict_depth = 0

    def end_op(self, op_seconds: float) -> dict:
        """Per-layer metrics of the op just traced."""
        s, incl, c, v = self._self, self._incl, self._count, self._values
        wall = v.get("wall_clock", {})
        m = {f"stage.{k}_s": float(wall.get(k, 0.0)) for k in (
            "dataset", "weights", "prior-draws", "pseudo-outputs", "bandwidths",
            "embedding", "herding", "prediction")}
        write = incl["pipeline.run"] - incl["pipeline.calibrate"] if c["pipeline.run"] else 0.0
        evals = c["sim.evals"]
        m.update({
            "pipeline.write_s": write,
            "sim.calls": c["sim.calls"],
            "sim.evals": evals,
            "sim.busy_s": s["sim"],
            "sim.evals_per_s": evals / incl["sim"] if incl["sim"] else 0.0,
            "sim.stream_reuse": c["sim.reused"] / evals if evals else 0.0,
            "seeding.calls": c["seeding.calls"],
            "seeding.busy_s": s["seeding"],
            "kern.sqdist_calls": c["kern.sqdist"],
            "kern.sqdist_s": s["kern.sqdist"],
            "kern.sqdist_gflops": c["kern.sqdist_flops"] / s["kern.sqdist"] / 1e9
            if s["kern.sqdist"] else 0.0,
            "kern.median_s": s["kern.median"],
            "kern.gram_s": s["kern.gram"],
            "kern.cross_s": s["kern.cross"],
            "kern.solve_s": s["kern.solve"],
            "kern.solve_refines": c["kern.cho_solve"] - c["kern.solve"],
            "kabc.pseudo_s": s["kabc.pseudo"],
            "kabc.embed_s": s["kabc.embed"],
            "herd.s": s["herd"],
            "herd.steps": v.get("herd.steps", 0),
            "herd.distinct_ratio": v.get("herd.distinct_ratio", 0.0),
            "predict.s": s["predict"],
            "predict.evals": c["predict.evals"],
            "mh.chain_s": incl["mh.chain"],
            "mh.target_calls": c["mh.target"],
            "mh.accept_ratio": v.get("mh.accept_ratio", 0.0),
            "mh.predict_s": incl["mh.predict"],
            "weights.s": s["weights"],
            "config.s": s["config"],
            "cli.s": s["cli"],
        })
        accounted = sum(m[k] for k in m if k.startswith("stage.")) + write
        accounted += m["mh.chain_s"] + m["mh.predict_s"]
        m["trace.unattributed_s"] = op_seconds - accounted
        self.ops.append(m)
        self._op = None
        return m

    def summary(self) -> dict:
        """Per-op median of every per-layer metric over the traced ops."""
        return {k: statistics.median(op[k] for op in self.ops) for k in self.ops[0]}

    # -- frames -------------------------------------------------------------

    def _enter(self, key, span_name=None):
        span = None
        if span_name is not None:
            parent = next((f.span for f in reversed(self._stack) if f.span is not None), None)
            span = len(self.spans)
            self.spans.append([self._op, span_name, 0.0, 0.0, parent])
        frame = _Frame(key, perf_counter(), span)
        self._stack.append(frame)
        if span is not None:
            self.spans[span][2] = frame.start
        return frame

    def _exit(self, frame) -> float:
        end = perf_counter()
        self._stack.pop()
        duration = end - frame.start
        self._self[frame.key] += duration - frame.child
        if self._stack:
            self._stack[-1].child += duration
        if frame.span is not None:
            self.spans[frame.span][3] = end
        return duration

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, fn, key, name):
        tracer = self
        on_exit = self._span_hooks(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            if name == "predict.score_predictions":
                tracer._predict_depth += 1
            if name == "baseline.mh_sample":
                args = (tracer._count_calls(args[0], "mh.target"),) + args[1:]
            frame = tracer._enter(key, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer._exit(frame)
                if name == "predict.score_predictions":
                    tracer._predict_depth -= 1
            on_exit(duration, args, result)
            return result

        return wrapper

    def _span_hooks(self, name):
        """What a span records beyond its time, keyed by the wrapped function."""

        def count(key):
            def hook(duration, args, result):
                self._count[key] += 1
                self._incl[key] += duration
            return hook

        def calibrate(duration, args, result):
            count("pipeline.calibrate")(duration, args, result)
            self._values["wall_clock"] = dict(result.wall_clock)

        def sqdist(duration, args, result):
            self._count["kern.sqdist"] += 1
            mat = np.asarray(args[0])
            m, d = mat.shape[0], (mat.shape[1] if mat.ndim == 2 else 1)
            # Per pair: d subtractions, d multiplications, d - 1 additions.
            self._count["kern.sqdist_flops"] += (3 * d - 1) * m * (m - 1) // 2

        def herd(duration, args, result):
            self._values["herd.steps"] = len(result)
            self._values["herd.distinct_ratio"] = len(np.unique(result.indices)) / args[1].size

        def mh_sample(duration, args, result):
            self._incl["mh.chain"] += duration
            self._values["mh.accept_ratio"] = result.acceptance_ratio

        def score_predictions(duration, args, result):
            if any(f.key == "pipeline.mh" for f in self._stack):
                self._incl["mh.predict"] += duration

        return {
            "pipeline.run_calibration": count("pipeline.run"),
            "pipeline.calibrate": calibrate,
            "kern.pairwise_sqdist": sqdist,
            "kern.regularized_solve": count("kern.solve"),
            "herd.herd": herd,
            "baseline.mh_sample": mh_sample,
            "predict.score_predictions": score_predictions,
        }.get(name, lambda duration, args, result: None)

    def _count_calls(self, fn, key):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._count[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _sim_wrapper(self, fn, method):
        tracer = self

        @functools.wraps(fn)
        def wrapper(sim, *args, **kwargs):
            if tracer._op is None:
                return fn(sim, *args, **kwargs)
            if method == "evaluate":
                n = 1
                if not sim.deterministic:
                    # The stream of one evaluation is drawn from (seed, x).
                    seed = args[2] if len(args) > 2 else kwargs.get("seed", 0)
                    x = args[0] if args else kwargs["x"]
                    key = (seed, float(x))
                    if key in tracer._streams:
                        tracer._count["sim.reused"] += 1
                    else:
                        tracer._streams.add(key)
            elif method == "evaluate_many":
                n = np.size(args[0] if args else kwargs["xs"])
            else:
                n = len(np.atleast_2d(args[1] if len(args) > 1 else kwargs["thetas"]))
            outer = tracer._sim_depth == 0
            if outer:
                tracer._count["sim.calls"] += 1
                tracer._count["sim.evals"] += n
                if tracer._predict_depth:
                    tracer._count["predict.evals"] += n
            tracer._sim_depth += 1
            frame = tracer._enter("sim")
            try:
                return fn(sim, *args, **kwargs)
            finally:
                duration = tracer._exit(frame)
                tracer._sim_depth -= 1
                if outer:
                    tracer._incl["sim"] += duration

        return wrapper

    def _seeding_wrapper(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            if name == "derive_seed":
                tracer._count["seeding.calls"] += 1
            frame = tracer._enter("seeding")
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame)

        return wrapper

    # -- install / restore --------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module, qualname, key in SPANS:
            owner_name, _, attr = qualname.rpartition(".")
            mod = self.mod[module]
            if owner_name:
                owner = getattr(mod, owner_name)
                original = owner.__dict__[attr]
                kind = type(original) if isinstance(original, classmethod) else None
                wrapper = self._span_wrapper(getattr(original, "__func__", original), key,
                                             f"{module}.{qualname}")
                self._patch(owner, attr, kind(wrapper) if kind else wrapper)
            else:
                original = getattr(mod, attr)
                self._rebind(original, self._span_wrapper(original, key, f"{module}.{attr}"))
        sim, seeding, kern = self.mod["sim"], self.mod["_seeding"], self.mod["kern"]
        for cls in vars(sim).values():
            if isinstance(cls, type) and issubclass(cls, sim.Simulator):
                for method in SIM_METHODS:
                    if method in cls.__dict__:
                        self._patch(cls, method, self._sim_wrapper(cls.__dict__[method], method))
        for name in SEEDING:
            original = getattr(seeding, name)
            self._rebind(original, self._seeding_wrapper(original, name))
        # Each cho_solve after the first in a regularized_solve is a
        # refinement retry.
        self._patch(kern, "cho_solve", self._count_calls(kern.cho_solve, "kern.cho_solve"))

    def _rebind(self, original, wrapper) -> None:
        for mod in self.modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def _patch(self, namespace, attr, wrapper) -> None:
        self._patches.append((namespace, attr, namespace.__dict__[attr]))
        setattr(namespace, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)
