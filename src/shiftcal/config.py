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
Every number is read by ``weights.finite_entries`` (reals) or
``weights.count_entry`` (integers), and every section's keys are checked
by ``weights.check_keys``.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._seeding import SEED_RANGE
from .baseline import MHConfig
from .kabc import regularization_schedule
from .sim import (
    ASSEMBLY_BREAKPOINT,
    ASSEMBLY_THETA_HI,
    ASSEMBLY_THETA_LO,
    DataGeneratingProcess,
    Simulator,
    TruthFn,
    cubic_truth,
    get_simulator,
    write_json_artifact,
)
from .weights import DensitySpec, check_keys, count_entry, finite_entries, real_array


# The keys of each truth kind, all required; an unknown kind is named by
# the parser instead.
_TRUTH_KEYS = {"cubic": ("kind",), "piecewise": ("kind", "theta_lo", "theta_hi", "breakpoint"),
               "simulator": ("kind", "theta"), "constant": ("kind", "value")}


def _parse_truth(truth: dict, sim: Simulator) -> TruthFn:
    kind = truth.get("kind") if isinstance(truth, dict) else None
    keys = _TRUTH_KEYS.get(kind, truth) if isinstance(kind, str) else truth
    check_keys("truth", truth, keys, keys)

    def params(key) -> tuple:
        values = finite_entries(f"truth {key}", truth[key])
        if len(values) != sim.dim_theta:
            raise ValueError(
                f"truth {key} has {len(values)} entries, simulator {sim.name!r} takes {sim.dim_theta}"
            )
        return values

    if kind == "cubic":
        return cubic_truth
    if kind == "piecewise":  # theta_lo below the breakpoint, theta_hi at and above it
        lo, hi = params("theta_lo"), params("theta_hi")
        breakpoint = finite_entries("truth breakpoint", truth["breakpoint"], scalar=True)
        return lambda xs, keys=0: sim.sweep(xs, keys)(
            np.where(real_array(xs, "truth inputs").reshape(-1, 1) >= breakpoint, hi, lo)
        )
    if kind == "simulator":
        theta = params("theta")
        return lambda xs, keys=0: sim.sweep(xs, keys)(theta)
    if kind == "constant":
        value = finite_entries("truth value", truth["value"], scalar=True)
        return lambda xs, keys=0: np.full(real_array(xs, "truth inputs").size, value)
    raise ValueError(f"unknown truth kind {kind!r}")


def _parse_schedule(epsilon, schedule, m: int) -> tuple | None:
    """``(b, C)`` of an epsilon schedule, or None for a fixed epsilon.

    A schedule's epsilon at ``m`` must come out finite and positive.
    """
    if (epsilon is None) == (schedule is None):
        raise ValueError("config needs exactly one of 'epsilon' or 'epsilon_schedule'")
    if schedule is None:
        return None
    check_keys("epsilon_schedule", schedule, ("b", "C"), ("b", "C"))
    b, C = (finite_entries(f"epsilon_schedule.{key}", schedule[key], scalar=True) for key in "bC")
    try:
        finite_entries("epsilon", regularization_schedule(m, b, C), "> 0", scalar=True)
    except ValueError as exc:
        raise ValueError(f"epsilon_schedule {schedule}: {exc}") from None
    return b, C


def _parse_bandwidth(bandwidth) -> tuple[float, float] | None:
    """(sigma2, sigma2_theta) of a fixed bandwidth, or None for the median heuristic."""
    if bandwidth == "median":
        return None
    if not isinstance(bandwidth, dict):
        raise ValueError(f"bandwidth must be 'median' or an object, got {bandwidth!r}")
    keys = ("sigma2", "sigma2_theta")
    check_keys("bandwidth", bandwidth, keys, keys)
    return tuple(finite_entries(f"fixed bandwidth '{key}'", bandwidth[key], "> 0", scalar=True)
                 for key in keys)


def _parse_mh(mh: dict, seed: int) -> MHConfig:
    required = ("proposal_std", "steps", "noise_var")
    check_keys("mh", mh, (*required, "burn_in"), required)
    return MHConfig(**{**mh, "steps": count_entry("mh.steps", mh["steps"], 1)}, seed=seed)


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved settings for one calibration experiment.

    Every field is read and checked here, however the config was built;
    None (JSON null) takes the default of ``herd_size`` (``m``),
    ``n_test`` (``n``), ``out_dir`` and ``simulator_options``.
    """

    simulator: str
    truth: dict
    q0: dict
    q1: dict
    noise: dict
    prior: dict
    n: int
    m: int
    herd_size: int | None = None
    n_test: int | None = None
    epsilon: float | None = None
    epsilon_schedule: dict | None = None
    bandwidth: str | dict = "median"
    weight_mode: str = "shift"
    weights_csv: str | None = None
    seed: int = 0
    out_dir: str | None = None
    simulator_options: dict | None = None
    mh: dict | None = None

    def __post_init__(self):
        keep = functools.partial(object.__setattr__, self)
        if self.herd_size is None:
            keep("herd_size", self.m)
        if self.n_test is None:
            keep("n_test", self.n)
        for name in ("n", "m", "herd_size", "n_test"):
            keep(name, count_entry(name, getattr(self, name), 1))
        keep("seed", count_entry("seed", self.seed, *SEED_RANGE))
        keep("out_dir", "out" if self.out_dir is None else self.out_dir)
        for name in ("out_dir", "weights_csv"):
            path = getattr(self, name)
            if path is not None and not isinstance(path, (str, os.PathLike)):
                raise ValueError(f"{name} must be a path, got {path!r}")
            keep(name, None if path is None else os.fspath(path))
        if self.weight_mode not in ("shift", "ordinary", "csv"):
            raise ValueError(f"unknown weight mode {self.weight_mode!r}")
        if self.weight_mode == "csv" and not self.weights_csv:
            raise ValueError("weight mode 'csv' requires a 'weights_csv' path")
        # Parse every part once, here; the builders below return these objects.
        keep("_bandwidth", _parse_bandwidth(self.bandwidth))
        if self._bandwidth is None and self.m < 2:
            raise ValueError(f"m must be >= 2 under the median bandwidth, got {self.m}")
        options = {} if self.simulator_options is None else self.simulator_options
        check_keys("simulator_options", options, options)  # get_simulator names unknown ones
        options = dict(options)
        if "batch_size" in options:
            options["batch_size"] = count_entry(
                "simulator_options.batch_size", options["batch_size"], 1
            )
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
        check_keys("noise", self.noise, ("std", "var"))
        noise = DensitySpec.from_dict({"family": "normal", "mean": 0.0, **self.noise}, "noise")
        spec = {"simulator": self.simulator, "truth": self.truth}
        keep("_dgp", DataGeneratingProcess(self._truth, noise.std[0], self._q0, spec))
        keep("_schedule", _parse_schedule(self.epsilon, self.epsilon_schedule, self.m))
        if self.epsilon is not None:
            keep("epsilon", finite_entries("epsilon", self.epsilon, "> 0", scalar=True))
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

    def resolve_epsilon(self) -> float:
        if self._schedule is None:
            return self.epsilon
        return regularization_schedule(self.m, *self._schedule)

    def test_density(self) -> DensitySpec:
        """Test inputs come from q1 under covariate shift, else from q0."""
        return self._q1 if self.weight_mode == "shift" else self._q0

    def mh_config(self, steps: int | None = None, seed: int | None = None) -> MHConfig:
        """The sampler settings; the MH target needs the prior's log density."""
        if self._mh is None:
            raise ValueError("config has no 'mh' section")
        if 0.0 in self._prior.std:
            raise ValueError(f"prior has std {list(self._prior.std)}: a point mass has no "
                             "density for the MH target")
        return dataclasses.replace(
            self._mh,
            steps=self._mh.steps if steps is None else count_entry("mh.steps", steps, 1),
            seed=self._mh.seed if seed is None else seed,
        )

    # -- dict / file round-trip --------------------------------------------

    def to_dict(self) -> dict:
        out = {f.name: copy.deepcopy(getattr(self, f.name)) for f in dataclasses.fields(self)}
        out.pop("epsilon" if self.epsilon is None else "epsilon_schedule")
        return out

    @classmethod
    def from_dict(cls, raw: dict, **overrides) -> "ExperimentConfig":
        """The config ``raw`` with every non-None override applied."""
        overrides = {k: v for k, v in overrides.items() if v is not None}
        data = {**raw, **overrides} if isinstance(raw, dict) else raw
        fields = dataclasses.fields(cls)
        # write_json stamps the hash into the file; any other stray key is a typo
        check_keys("config", data, {"config_hash", *(f.name for f in fields)},
                   [f.name for f in fields if f.default is dataclasses.MISSING])
        data.pop("config_hash", None)
        return cls(**data)

    @classmethod
    def from_json(cls, path, **overrides) -> "ExperimentConfig":
        return cls.from_dict(json.loads(Path(path).read_text()), **overrides)

    def write_json(self, path) -> None:
        payload = self.to_dict()
        payload["config_hash"] = self.config_hash()
        write_json_artifact(path, payload)

    def replace(self, **changes) -> "ExperimentConfig":
        """A copy with ``changes`` applied, read like a loaded config."""
        return ExperimentConfig.from_dict({**self.to_dict(), **changes})

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
    """Read a precomputed weight column (header 'beta', one value per row);
    a value that is not a number is named by its file and line."""
    lines = [(number, ln) for number, ln in enumerate(Path(path).read_text().splitlines(), 1)
             if ln and not ln.startswith("#")]
    if not lines or lines[0][1].strip() != "beta":
        raise ValueError(f"expected a 'beta' header in {path}")
    values = []
    for number, text in lines[1:]:
        try:
            values.append(float(text))
        except ValueError:
            raise ValueError(f"{path}, line {number}: expected one number, got {text!r}") from None
    values = np.array(values)
    if values.size != n:
        raise ValueError(f"weights file has {values.size} rows, dataset has {n}")
    return values
