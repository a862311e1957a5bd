"""Experiment configuration: schema, presets, hashing, JSON round-trip.

A config is a plain JSON object with one section per pipeline concern.
The input densities q0 and q1 and the prior are read by one parser,
``DensitySpec.from_dict``: a normal takes exactly one of ``std``/``var``
for its second parameter, so files are never ambiguous about scale
conventions, and the noise section uses the same reader.  The
config hash (sha256 of the canonical resolved JSON) is embedded in every
artifact a run writes.  Each part (simulator, truth, densities, prior,
noise, epsilon schedule, ``mh`` section) is parsed once, when the config
is built, so a bad value or an unknown key fails at load, never mid-run.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .baseline import MHConfig
from .kabc import regularization_schedule
from .sim import (
    ASSEMBLY_BREAKPOINT,
    ASSEMBLY_THETA_HI,
    ASSEMBLY_THETA_LO,
    DataGeneratingProcess,
    PiecewiseTruth,
    Simulator,
    TruthFn,
    cubic_truth,
    get_simulator,
    write_json_artifact,
)
from .weights import DensitySpec, finite_entries


def _count(name: str, value) -> int:
    """``value`` as an int; a non-integral value is an error, never truncated.

    Integral floats such as 50.0 are accepted; booleans are not numbers.
    """
    try:
        count = None if isinstance(value, bool) else int(value)
    except (TypeError, ValueError, OverflowError):
        count = None
    if count is None or count != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return count


def _real(name: str, value) -> float:
    if isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _finite_positive(name: str, value) -> float:
    value = _real(name, value)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value}")
    return value


# The keys of each truth kind besides the tag; an unknown kind is left to
# the parser, which names it.  q0, q1 and the prior are only checked to be
# objects here: ``DensitySpec.from_dict`` rejects their unknown keys.
_SECTION_KEYS = {"cubic": set(), "piecewise": {"theta_lo", "theta_hi", "breakpoint"},
                 "simulator": {"theta"}, "constant": {"value"}}


def _check_keys(section: str, spec, allowed) -> None:
    """Reject a section that is not an object or holds a key not in ``allowed``."""
    if not isinstance(spec, dict):
        raise ValueError(f"{section} must be an object, got {spec!r}")
    unknown = sorted(map(str, set(spec) - set(allowed)))
    if unknown:
        raise ValueError(f"unknown keys in {section}: {', '.join(unknown)}")


def _parse_truth(truth: dict, sim: Simulator) -> TruthFn:
    def params(key) -> tuple:
        values = finite_entries(f"truth {key}", truth[key])
        if len(values) != sim.dim_theta:
            raise ValueError(
                f"truth {key} has {len(values)} entries, simulator {sim.name!r} takes {sim.dim_theta}"
            )
        return values

    kind = truth.get("kind")
    if kind == "cubic":
        return cubic_truth
    if kind == "piecewise":
        return PiecewiseTruth(
            base_sim=sim,
            theta_lo=params("theta_lo"),
            theta_hi=params("theta_hi"),
            breakpoint=float(truth["breakpoint"]),
        )
    if kind == "simulator":
        theta = params("theta")
        return lambda x, seed=0: sim.evaluate(x, theta, seed)
    if kind == "constant":
        (value,) = finite_entries("truth value", float(truth["value"]))
        return lambda x, seed=0: value
    raise ValueError(f"unknown truth kind {kind!r}")


def _parse_schedule(epsilon, schedule, m: int) -> tuple | None:
    """``(b, C)`` of an epsilon schedule, or None for a fixed epsilon.

    Either way, epsilon at ``m`` must come out finite and positive.
    """
    if (epsilon is None) == (schedule is None):
        raise ValueError("config needs exactly one of 'epsilon' or 'epsilon_schedule'")
    if schedule is None:
        _finite_positive("epsilon", epsilon)
        return None
    if not isinstance(schedule, dict) or set(schedule) != {"b", "C"}:
        raise ValueError(f"epsilon_schedule needs exactly the keys 'b' and 'C', got {schedule!r}")
    b, C = float(schedule["b"]), float(schedule["C"])
    try:
        _finite_positive("epsilon", regularization_schedule(m, b, C))
    except ValueError as exc:
        raise ValueError(f"epsilon_schedule {schedule}: {exc}") from None
    return b, C


def _parse_bandwidth(bandwidth) -> tuple[float, float] | None:
    """(sigma2, sigma2_theta) of a fixed bandwidth, or None for the median heuristic."""
    if bandwidth == "median":
        return None
    if not isinstance(bandwidth, dict):
        raise ValueError(f"bandwidth must be 'median' or an object, got {bandwidth!r}")
    _check_keys("bandwidth", bandwidth, {"sigma2", "sigma2_theta"})
    if len(bandwidth) < 2:
        keys = sorted(bandwidth)
        raise ValueError(f"fixed bandwidth needs 'sigma2' and 'sigma2_theta', got {keys}")
    return (_finite_positive("fixed bandwidth 'sigma2'", bandwidth["sigma2"]),
            _finite_positive("fixed bandwidth 'sigma2_theta'", bandwidth["sigma2_theta"]))


def _parse_mh(mh: dict, seed: int) -> MHConfig:
    required = {"proposal_std", "steps", "noise_var"}
    if not required <= set(mh) <= required | {"burn_in"}:
        keys = "'proposal_std', 'steps', 'noise_var' and optionally 'burn_in'"
        raise ValueError(f"mh section needs {keys}, got {sorted(mh)}")
    return MHConfig(
        proposal_std=float(mh["proposal_std"]),
        steps=_count("mh.steps", mh["steps"]),
        burn_in=float(mh.get("burn_in", 0.10)),
        noise_var=float(mh["noise_var"]),
        seed=seed,
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved settings for one calibration experiment."""

    simulator: str
    truth: dict
    q0: dict
    q1: dict
    noise: dict
    prior: dict
    n: int
    m: int
    herd_size: int
    n_test: int
    epsilon: float | None
    epsilon_schedule: dict | None
    bandwidth: str | dict
    weight_mode: str
    weights_csv: str | None
    pool_extra: int
    seed: int
    out_dir: str
    simulator_options: dict = field(default_factory=dict)
    mh: dict | None = None

    def __post_init__(self):
        for name in ("n", "m", "herd_size", "n_test"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.pool_extra < 0:
            raise ValueError(f"pool_extra must be >= 0, got {self.pool_extra}")
        if self.weight_mode not in ("shift", "ordinary", "csv"):
            raise ValueError(f"unknown weight mode {self.weight_mode!r}")
        if self.weight_mode == "csv" and not self.weights_csv:
            raise ValueError("weight mode 'csv' requires a 'weights_csv' path")
        for section, tag in (("q0", "family"), ("q1", "family"), ("prior", "family"), ("truth", "kind")):
            spec = getattr(self, section)
            kind = spec.get(tag) if isinstance(spec, dict) else None
            _check_keys(section, spec, {tag} | _SECTION_KEYS.get(kind, set(spec)))
        _check_keys("noise", self.noise, {"std", "var"})
        # Parse every part once, here; the builders below return these objects.
        keep = functools.partial(object.__setattr__, self)
        keep("_bandwidth", _parse_bandwidth(self.bandwidth))
        options = dict(self.simulator_options)
        if "batch_size" in options:
            options["batch_size"] = _count("simulator_options.batch_size", options["batch_size"])
        keep("simulator_options", options)
        keep("_simulator", get_simulator(self.simulator, **options))
        keep("_truth", _parse_truth(self.truth, self._simulator))
        for section in ("q0", "q1"):
            raw = getattr(self, section)
            density = DensitySpec.from_dict(raw, section)
            if density.dim != 1 or 0.0 in density.std:
                raise ValueError(f"{section} must be one-dimensional with std > 0, got {raw}")
            keep(f"_{section}", density)
        keep("_prior", DensitySpec.from_dict(self.prior, "prior"))
        if self._prior.dim != self._simulator.dim_theta:
            raise ValueError(
                f"prior has {self._prior.dim} parameters, simulator {self.simulator!r} "
                f"takes {self._simulator.dim_theta}"
            )
        spec = {"simulator": self.simulator, "truth": self.truth}
        noise = DensitySpec.from_dict({"family": "normal", "mean": 0.0, **self.noise}, "noise")
        keep("_dgp", DataGeneratingProcess(self._truth, noise.std[0], self._q0, spec))
        keep("_schedule", _parse_schedule(self.epsilon, self.epsilon_schedule, self.m))
        keep("_mh", None if self.mh is None else _parse_mh(self.mh, self.seed))

    # -- component builders ------------------------------------------------

    def build_simulator(self) -> Simulator:
        return self._simulator

    def build_truth(self) -> TruthFn:
        return self._truth

    def q0_spec(self) -> DensitySpec:
        return self._q0

    def q1_spec(self) -> DensitySpec:
        return self._q1

    def build_prior(self) -> DensitySpec:
        return self._prior

    def build_dgp(self) -> DataGeneratingProcess:
        return self._dgp

    def fixed_bandwidth(self) -> tuple[float, float] | None:
        """(sigma2, sigma2_theta) of a fixed bandwidth, None under the median heuristic."""
        return self._bandwidth

    def resolve_epsilon(self, m: int | None = None) -> float:
        if self._schedule is None:
            return self.epsilon
        return regularization_schedule(m or self.m, *self._schedule)

    def test_density(self) -> DensitySpec:
        """Test inputs come from q1 under covariate shift, else from q0."""
        return self._q1 if self.weight_mode == "shift" else self._q0

    def mh_config(self, steps: int | None = None, seed: int | None = None) -> MHConfig:
        if self._mh is None:
            raise ValueError("config has no 'mh' section")
        return dataclasses.replace(
            self._mh,
            steps=self._mh.steps if steps is None else _count("mh.steps", steps),
            seed=self._mh.seed if seed is None else seed,
        )

    # -- dict / file round-trip --------------------------------------------

    def to_dict(self) -> dict:
        out = {f.name: copy.deepcopy(getattr(self, f.name)) for f in dataclasses.fields(self)}
        out.pop("epsilon" if self.epsilon is None else "epsilon_schedule")
        return out

    @classmethod
    def from_dict(cls, raw: dict, **overrides) -> "ExperimentConfig":
        data = dict(raw)
        data.update({k: v for k, v in overrides.items() if v is not None})
        # write_json stamps the hash into the file; any other stray key is a typo
        unknown = set(data) - {f.name for f in dataclasses.fields(cls)} - {"config_hash"}
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
        m = _count("m", data["m"])
        n = _count("n", data["n"])
        # absent or null optional keys default; any given value, 0 included, is validated
        herd_size, n_test, epsilon, out_dir = map(
            data.get, ("herd_size", "n_test", "epsilon", "out_dir")
        )
        return cls(
            simulator=data["simulator"],
            simulator_options=data.get("simulator_options") or {},
            truth=data["truth"],
            q0=data["q0"],
            q1=data["q1"],
            noise=data["noise"],
            prior=data["prior"],
            n=n,
            m=m,
            herd_size=m if herd_size is None else _count("herd_size", herd_size),
            n_test=n if n_test is None else _count("n_test", n_test),
            epsilon=None if epsilon is None else _real("epsilon", epsilon),
            epsilon_schedule=data.get("epsilon_schedule"),
            bandwidth=data.get("bandwidth", "median"),
            weight_mode=data.get("weight_mode", "shift"),
            weights_csv=data.get("weights_csv"),
            pool_extra=_count("pool_extra", data.get("pool_extra", 0)),
            seed=_count("seed", data.get("seed", 0)),
            out_dir="out" if out_dir is None else str(out_dir),
            mh=data.get("mh"),
        )

    @classmethod
    def from_json(cls, path, **overrides) -> "ExperimentConfig":
        return cls.from_dict(json.loads(Path(path).read_text()), **overrides)

    def write_json(self, path) -> None:
        payload = self.to_dict()
        payload["config_hash"] = self.config_hash()
        write_json_artifact(path, payload)

    def replace(self, **changes) -> "ExperimentConfig":
        data = self.to_dict()
        for key in ("epsilon", "epsilon_schedule"):
            if key in changes and changes[key] is None:
                data.pop(key, None)
                changes.pop(key)
        data.update(changes)
        return ExperimentConfig.from_dict(data)

    def config_hash(self) -> str:
        """Digest of the resolved experiment, ignoring output location."""
        payload = self.to_dict()
        payload.pop("out_dir", None)
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


# Shipped experiment presets.  Density scale conventions: input densities
# use std, noise and Gaussian priors use var (see README).
PRESETS: dict[str, dict] = {
    "linear-shift": {
        "simulator": "linear",
        "truth": {"kind": "cubic"},
        "q0": {"family": "normal", "mean": 0.5, "std": 0.5},
        "q1": {"family": "normal", "mean": 0.0, "std": 0.3},
        "noise": {"var": 2.0},
        "prior": {"family": "normal", "mean": [0.0, 0.0], "var": [5.0, 5.0]},
        "n": 100,
        "m": 200,
        "epsilon": 1.0,
        "bandwidth": "median",
        "weight_mode": "shift",
        "seed": 0,
        "out_dir": "out/linear-shift",
        # proposal_std tuned with `shiftcal mh-sweep` to measure ~40% acceptance
        # on this benchmark's posterior
        "mh": {"proposal_std": 0.30, "steps": 400, "burn_in": 0.10, "noise_var": 2.0},
    },
    "assembly-shift": {
        "simulator": "assembly",
        "truth": {
            "kind": "piecewise",
            "theta_lo": list(ASSEMBLY_THETA_LO),
            "theta_hi": list(ASSEMBLY_THETA_HI),
            "breakpoint": ASSEMBLY_BREAKPOINT,
        },
        "q0": {"family": "normal", "mean": 100.0, "std": 10.0},
        "q1": {"family": "normal", "mean": 120.0, "std": 10.0},
        "noise": {"var": 30.0},
        "prior": {"family": "uniform", "low": [0.0, 0.0, 0.0, 0.0], "high": [5.0, 2.0, 10.0, 2.0]},
        "n": 50,
        "m": 400,
        "epsilon": 0.01,
        "bandwidth": "median",
        "weight_mode": "shift",
        "seed": 0,
        "out_dir": "out/assembly-shift",
        # proposal_std tuned with `shiftcal mh-sweep` to measure ~40% acceptance
        "mh": {"proposal_std": 0.011, "steps": 400, "burn_in": 0.10, "noise_var": 30.0},
    },
}
PRESETS["linear-ordinary"] = {
    **PRESETS["linear-shift"],
    "weight_mode": "ordinary",
    "out_dir": "out/linear-ordinary",
}
PRESETS["assembly-ordinary"] = {
    **PRESETS["assembly-shift"],
    "weight_mode": "ordinary",
    "out_dir": "out/assembly-ordinary",
}


def preset(name: str, **overrides) -> ExperimentConfig:
    """Load a shipped preset by name."""
    try:
        raw = PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise ValueError(f"unknown preset {name!r}; available: {known}") from None
    return ExperimentConfig.from_dict(raw, **overrides)


def load_beta_csv(path, n: int) -> np.ndarray:
    """Read a precomputed weight column (header 'beta', one value per row)."""
    lines = [ln for ln in Path(path).read_text().splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0].strip() != "beta":
        raise ValueError(f"expected a 'beta' header in {path}")
    values = np.array([float(v) for v in lines[1:]])
    if values.size != n:
        raise ValueError(f"weights file has {values.size} rows, dataset has {n}")
    return values
