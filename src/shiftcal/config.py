"""Experiment configuration: schema, presets, hashing, JSON round-trip.

A config is a plain JSON object with one section per pipeline concern.
Normal densities take exactly one of ``std``/``var`` for their second
parameter, so files are never ambiguous about scale conventions.  The
config hash (sha256 of the canonical resolved JSON) is embedded in every
artifact a run writes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .baseline import MHConfig
from .kabc import PriorSpec, regularization_schedule
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
)
from .weights import DensitySpec


def _count(name: str, value) -> int:
    """``value`` as an int; a non-integral value is an error, never truncated.

    Integral floats such as 50.0 are accepted.
    """
    try:
        count = int(value)
    except (TypeError, ValueError, OverflowError):
        count = None
    if count is None or count != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return count


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
        if (self.epsilon is None) == (self.epsilon_schedule is None):
            raise ValueError("config needs exactly one of 'epsilon' or 'epsilon_schedule'")
        if self.epsilon is not None and not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.weight_mode not in ("shift", "ordinary", "csv"):
            raise ValueError(f"unknown weight mode {self.weight_mode!r}")
        if self.weight_mode == "csv" and not self.weights_csv:
            raise ValueError("weight mode 'csv' requires a 'weights_csv' path")
        if isinstance(self.bandwidth, str):
            if self.bandwidth != "median":
                raise ValueError(f"bandwidth must be 'median' or fixed values, got {self.bandwidth!r}")
        else:
            for key in ("sigma2", "sigma2_theta"):
                if not self.bandwidth.get(key, 0) > 0:
                    raise ValueError(f"fixed bandwidth needs positive {key!r}")
        # Fail early on unresolvable component names.
        self.build_simulator()
        self.build_truth()
        self.q0_spec()
        self.q1_spec()
        self.build_prior()
        self.noise_std()

    # -- component builders ------------------------------------------------

    def build_simulator(self) -> Simulator:
        return get_simulator(self.simulator, **self.simulator_options)

    def build_truth(self) -> TruthFn:
        kind = self.truth.get("kind")
        if kind == "cubic":
            return cubic_truth
        if kind == "piecewise":
            return PiecewiseTruth(
                base_sim=self.build_simulator(),
                theta_lo=tuple(float(v) for v in self.truth["theta_lo"]),
                theta_hi=tuple(float(v) for v in self.truth["theta_hi"]),
                breakpoint=float(self.truth["breakpoint"]),
            )
        if kind == "simulator":
            sim = self.build_simulator()
            theta = tuple(float(v) for v in self.truth["theta"])
            return lambda x, seed=0: sim.evaluate(x, theta, seed)
        if kind == "constant":
            value = float(self.truth["value"])
            return lambda x, seed=0: value
        raise ValueError(f"unknown truth kind {kind!r}")

    def q0_spec(self) -> DensitySpec:
        return DensitySpec.from_dict(self.q0)

    def q1_spec(self) -> DensitySpec:
        return DensitySpec.from_dict(self.q1)

    def noise_std(self) -> float:
        if ("std" in self.noise) == ("var" in self.noise):
            raise ValueError("noise spec needs exactly one of 'std' or 'var'")
        key = "std" if "std" in self.noise else "var"
        value = float(self.noise[key])
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"noise {key} must be finite and >= 0, got {value}")
        return value if key == "std" else math.sqrt(value)

    def build_prior(self) -> PriorSpec:
        return PriorSpec.from_dict(self.prior)

    def build_dgp(self) -> DataGeneratingProcess:
        return DataGeneratingProcess(
            truth=self.build_truth(),
            noise_std=self.noise_std(),
            q0=self.q0_spec(),
            spec={"simulator": self.simulator, "truth": self.truth},
        )

    def resolve_epsilon(self, m: int | None = None) -> float:
        if self.epsilon is not None:
            return self.epsilon
        sched = self.epsilon_schedule
        return regularization_schedule(m or self.m, b=float(sched["b"]), C=float(sched["C"]))

    def test_density(self) -> DensitySpec:
        """Test inputs come from q1 under covariate shift, else from q0."""
        return self.q1_spec() if self.weight_mode == "shift" else self.q0_spec()

    def mh_config(self, steps: int | None = None, seed: int | None = None) -> MHConfig:
        if not self.mh:
            raise ValueError("config has no 'mh' section")
        return MHConfig(
            proposal_std=float(self.mh["proposal_std"]),
            steps=_count("mh.steps", steps if steps is not None else self.mh["steps"]),
            burn_in=float(self.mh.get("burn_in", 0.10)),
            noise_var=float(self.mh["noise_var"]),
            seed=self.seed if seed is None else seed,
        )

    # -- dict / file round-trip --------------------------------------------

    def to_dict(self) -> dict:
        out = {
            "simulator": self.simulator,
            "simulator_options": dict(self.simulator_options),
            "truth": dict(self.truth),
            "q0": dict(self.q0),
            "q1": dict(self.q1),
            "noise": dict(self.noise),
            "prior": dict(self.prior),
            "n": self.n,
            "m": self.m,
            "herd_size": self.herd_size,
            "n_test": self.n_test,
            "bandwidth": self.bandwidth if isinstance(self.bandwidth, str) else dict(self.bandwidth),
            "weight_mode": self.weight_mode,
            "weights_csv": self.weights_csv,
            "pool_extra": self.pool_extra,
            "seed": self.seed,
            "out_dir": self.out_dir,
            "mh": dict(self.mh) if self.mh else None,
        }
        if self.epsilon is not None:
            out["epsilon"] = self.epsilon
        else:
            out["epsilon_schedule"] = dict(self.epsilon_schedule)
        return out

    @classmethod
    def from_dict(cls, raw: dict, **overrides) -> "ExperimentConfig":
        data = dict(raw)
        data.update({k: v for k, v in overrides.items() if v is not None})
        m = _count("m", data["m"])
        n = _count("n", data["n"])
        # absent (or null) sizes default; any given value, 0 included, is validated
        herd_size = data.get("herd_size")
        n_test = data.get("n_test")
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
            epsilon=float(data["epsilon"]) if "epsilon" in data else None,
            epsilon_schedule=data.get("epsilon_schedule"),
            bandwidth=data.get("bandwidth", "median"),
            weight_mode=data.get("weight_mode", "shift"),
            weights_csv=data.get("weights_csv"),
            pool_extra=_count("pool_extra", data.get("pool_extra", 0)),
            seed=_count("seed", data.get("seed", 0)),
            out_dir=str(data.get("out_dir", "out")),
            mh=data.get("mh"),
        )

    @classmethod
    def from_json(cls, path, **overrides) -> "ExperimentConfig":
        return cls.from_dict(json.loads(Path(path).read_text()), **overrides)

    def write_json(self, path) -> None:
        payload = self.to_dict()
        payload["config_hash"] = self.config_hash()
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

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
