import json
import math
import re

import numpy as np
import pytest

from shiftcal.config import PRESETS, ExperimentConfig, load_beta_csv, preset
from shiftcal.pipeline import StageError, calibrate
from shiftcal.sim import (
    ASSEMBLY_THETA_HI,
    ASSEMBLY_THETA_LO,
    AssemblyLineSimulator,
    LinearSimulator,
)


class TestPresets:
    def test_all_presets_resolve(self):
        for name in PRESETS:
            cfg = preset(name)
            assert cfg.n >= 1 and cfg.m >= 1
            cfg.build_simulator()
            cfg.build_truth()
            cfg.build_prior()

    def test_linear_preset_values(self):
        cfg = preset("linear-shift")
        assert isinstance(cfg.build_simulator(), LinearSimulator)
        assert cfg.n == 100
        assert cfg.epsilon == 1.0
        assert cfg.build_dgp().noise_std == pytest.approx(math.sqrt(2.0))
        assert cfg.weight_mode == "shift"

    def test_assembly_preset_values(self):
        cfg = preset("assembly-shift")
        assert isinstance(cfg.build_simulator(), AssemblyLineSimulator)
        # the piecewise truth: theta_lo below x = 110, theta_hi from 110 on
        sim, xs, keys = cfg.build_simulator(), [109.5, 110.0, 130.0], [3, 4, 5]
        expected = sim.sweep(xs, keys)([ASSEMBLY_THETA_LO, ASSEMBLY_THETA_HI, ASSEMBLY_THETA_HI])
        assert cfg.build_truth()(xs, keys).tobytes() == expected.tobytes()
        assert cfg.n == 50 and cfg.m == 400
        assert cfg.epsilon == 0.01
        prior = cfg.build_prior()
        assert prior.family == "uniform" and prior.dim == 4

    def test_ordinary_variants_differ_only_in_weighting(self):
        a, b = preset("linear-shift"), preset("linear-ordinary")
        assert a.weight_mode == "shift" and b.weight_mode == "ordinary"
        assert a.q0 == b.q0 and a.q1 == b.q1

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="available"):
            preset("nope")

    def test_overrides(self):
        cfg = preset("linear-shift", seed=99, m=10)
        assert cfg.seed == 99 and cfg.m == 10


class TestConfigValidation:
    def test_herd_size_defaults_to_m(self):
        cfg = preset("linear-shift", m=37)
        assert cfg.herd_size == 37

    def test_n_test_defaults_to_n(self):
        assert preset("linear-shift").n_test == 100

    @pytest.mark.parametrize("field", ["herd_size", "n_test"])
    def test_zero_size_rejected_not_defaulted(self, field):
        with pytest.raises(ValueError, match=f"{field} must be >= 1, got 0"):
            ExperimentConfig.from_dict({**PRESETS["linear-shift"], field: 0})
        with pytest.raises(ValueError, match=f"{field} must be >= 1, got 0"):
            preset("linear-shift", **{field: 0})

    def test_null_size_takes_default(self):
        cfg = ExperimentConfig.from_dict({**PRESETS["linear-shift"], "herd_size": None})
        assert cfg.herd_size == cfg.m

    def test_null_out_dir_takes_default(self):
        cfg = ExperimentConfig.from_dict({**PRESETS["linear-shift"], "out_dir": None})
        assert cfg.out_dir == "out"
        assert cfg == ExperimentConfig.from_dict({**PRESETS["linear-shift"], "out_dir": "out"})

    def test_null_epsilon_beside_schedule_is_absent(self):
        raw = {**PRESETS["linear-shift"], "epsilon": None, "epsilon_schedule": {"C": 1.0, "b": 2.0}}
        cfg = ExperimentConfig.from_dict({**raw, "m": 512})
        assert cfg.epsilon is None and cfg.resolve_epsilon() == pytest.approx(0.25)
        with pytest.raises(ValueError, match="exactly one of 'epsilon' or 'epsilon_schedule'"):
            ExperimentConfig.from_dict({**PRESETS["linear-shift"], "epsilon": None})

    def test_empty_mh_section_rejected(self):
        with pytest.raises(ValueError, match="missing keys in mh: noise_var, proposal_std, steps$"):
            preset("linear-shift", mh={})

    def test_epsilon_exclusivity(self):
        raw = {**PRESETS["linear-shift"], "epsilon_schedule": {"C": 1.0, "b": 2.0}}
        with pytest.raises(ValueError, match="exactly one"):
            ExperimentConfig.from_dict(raw)
        del raw["epsilon"]
        cfg = ExperimentConfig.from_dict({**raw, "m": 512})
        assert cfg.resolve_epsilon() == pytest.approx(0.25)

    def test_bad_values_rejected(self):
        base = PRESETS["linear-shift"]
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({**base, "m": 0})
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({**base, "epsilon": 0.0})
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({**base, "weight_mode": "magic"})
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({**base, "simulator": "unknown"})
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({**base, "bandwidth": "auto"})
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({**base, "bandwidth": {"sigma2": 1.0}})

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_breakpoint_rejected(self, bad):
        base = PRESETS["assembly-shift"]
        truth = {**base["truth"], "breakpoint": bad}
        with pytest.raises(ValueError, match="breakpoint"):
            ExperimentConfig.from_dict({**base, "truth": truth})

    @pytest.mark.parametrize(
        "noise,field",
        [({"var": -1.0}, "var"), ({"var": math.nan}, "var"), ({"var": math.inf}, "var"),
         ({"std": -0.5}, "std"), ({"std": math.nan}, "std"), ({"std": -math.inf}, "std")],
    )
    def test_bad_noise_rejected_naming_field(self, noise, field):
        with pytest.raises(ValueError, match=f"noise {field} must be finite and >= 0"):
            ExperimentConfig.from_dict({**PRESETS["linear-shift"], "noise": noise})

    def test_zero_noise_accepted(self):
        for noise in ({"var": 0.0}, {"std": 0.0}):
            cfg = ExperimentConfig.from_dict({**PRESETS["linear-shift"], "noise": noise})
            assert cfg.build_dgp().noise_std == 0.0

    @pytest.mark.parametrize(
        "field,value",
        [("n", 50.7), ("m", 200.9), ("herd_size", 10.5), ("n_test", 3.2), ("seed", 1.5),
         ("m", math.nan), ("seed", math.inf), ("n", "50"), ("m", True),
         ("seed", False), ("herd_size", True)],
    )
    def test_non_integral_count_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            preset("linear-shift", **{field: value})

    def test_integral_float_counts_accepted(self):
        cfg = preset("linear-shift", n=50.0, m=np.int64(20), herd_size=10.0, n_test=3.0,
                     seed=np.float64(2.0))
        assert (cfg.n, cfg.m, cfg.herd_size, cfg.n_test, cfg.seed) == (50, 20, 10, 3, 2)
        assert all(type(v) is int for v in (cfg.n, cfg.m, cfg.herd_size, cfg.n_test, cfg.seed))
        assert cfg.config_hash() == preset("linear-shift", n=50, m=20, herd_size=10, n_test=3,
                                           seed=2).config_hash()
        cfg = preset("assembly-shift", simulator_options={"batch_size": 4.0})
        assert cfg.build_simulator().batch_size == 4 and cfg.simulator_options == {"batch_size": 4}
        assert cfg.config_hash() == preset("assembly-shift", simulator_options={"batch_size": 4}).config_hash()

    @pytest.mark.parametrize("seed", [2**127, -(2**127) - 1, 2**200])
    def test_out_of_range_seed_rejected_at_load(self, tmp_path, seed):
        # seeds are hashed as 16 signed bytes, so only [-2**127, 2**127) can run
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**PRESETS["linear-shift"], "seed": seed}))
        message = rf"seed must be in \[{-(2**127)}, {2**127}\), got {seed}$"
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_json(path)
        with pytest.raises(ValueError, match=message):
            preset("linear-shift", seed=seed)

    @pytest.mark.parametrize("seed", [2**127 - 1, -(2**127)])
    def test_seeds_at_the_range_ends_run(self, seed):
        cfg = preset("linear-shift", seed=seed, n=8, m=4, herd_size=4, n_test=4)
        assert cfg.seed == seed
        assert np.isfinite(calibrate(cfg).rmse)

    @pytest.mark.parametrize("steps", [2.7, math.nan, "400"])
    def test_non_integral_mh_steps_rejected(self, steps):
        with pytest.raises(ValueError, match="mh.steps must be an integer"):
            preset("linear-shift", mh={**PRESETS["linear-shift"]["mh"], "steps": steps})
        with pytest.raises(ValueError, match="mh.steps must be an integer"):
            preset("linear-shift").mh_config(steps=steps)
        assert preset("linear-shift").mh_config(steps=50.0).steps == 50

    @pytest.mark.parametrize(
        "changes,message",
        [({"bandwidth": {"sigma2": math.inf, "sigma2_theta": 1.0}}, "'sigma2' must be finite"),
         ({"bandwidth": {"sigma2": 1.0, "sigma2_theta": math.inf}}, "'sigma2_theta' must be finite"),
         ({"bandwidth": {"sigma2": math.nan, "sigma2_theta": 1.0}}, "'sigma2' must be finite"),
         ({"epsilon": math.inf}, "epsilon must be finite and > 0, got inf"),
         ({"epsilon": math.nan}, "epsilon must be finite and > 0, got nan"),
         ({"bandwidth": 5}, "bandwidth must be 'median' or an object"),
         ({"bandwidth": [1, 2]}, "bandwidth must be 'median' or an object"),
         ({"bandwidth": {"sigma2": 1.0, "sigma2_theta": 1.0, "sigma": 2.0}},
          "unknown keys in bandwidth: sigma$"),
         ({"bandwidth": {"sigma2": 1.0}}, "missing keys in bandwidth: sigma2_theta$"),
         ({"bandwidth": {"sigma2_theta": 1.0}}, "missing keys in bandwidth: sigma2$"),
         ({"bandwidth": {"sigma2": True, "sigma2_theta": 1.0}}, "'sigma2' must be a number, got True"),
         ({"epsilon": True}, "epsilon must be a number, got True")],
    )
    def test_non_finite_bandwidth_and_epsilon_rejected(self, changes, message):
        with pytest.raises(ValueError, match=message):
            preset("linear-shift", **changes)

    @pytest.mark.parametrize(
        "name,changes,message",
        [("linear-shift", {"q0": {"family": "normal", "mean": 0, "std": 1, "sd": 3}},
          "unknown keys in q0: sd$"),
         ("linear-shift", {"q1": {"family": "uniform", "low": 0, "high": 1, "mean": 0.5}},
          "unknown keys in q1: mean$"),
         ("linear-shift", {"q1": "normal"}, "q1 must be an object"),
         ("linear-shift", {"prior": {"family": "normal", "mean": [0, 0], "var": [1, 1], "low": [0]}},
          "unknown keys in prior: low$"),
         ("assembly-shift", {"prior": {**PRESETS["assembly-shift"]["prior"], "std": [1.0] * 4}},
          "unknown keys in prior: std$"),
         ("linear-shift", {"noise": {"var": 2.0, "sd": 1.0}}, "unknown keys in noise: sd$"),
         ("linear-shift", {"truth": {"kind": "cubic", "extra": 1}}, "unknown keys in truth: extra$"),
         ("assembly-shift", {"truth": {**PRESETS["assembly-shift"]["truth"], "theta": [1.0] * 4}},
          "unknown keys in truth: theta$"),
         ("assembly-shift", {"simulator_options": {"batch_size": 2, "batch": 3}},
          "unknown simulator_options for 'assembly': batch$"),
         ("linear-shift", {"simulator_options": {"batch_size": 2}},
          "unknown simulator_options for 'linear': batch_size$"),
         ("linear-shift", {"bandwidth": None}, "bandwidth must be 'median' or an object"),
         ("linear-shift", {"q0": {"family": "normal", "mean": 0.5, "var": -1}},
          r"q0 var must be finite and >= 0, got \[-1\.0\]"),
         ("linear-shift", {"q1": {"family": "normal", "mean": math.nan, "std": 0.3}},
          r"q1 mean must be finite, got \[nan\]"),
         ("linear-shift", {"q1": {"family": "uniform", "low": 0, "high": math.inf}},
          r"q1 high must be finite, got \[inf\]"),
         ("linear-shift", {"prior": {"family": "normal", "mean": [0, 0], "var": [-1, 5]}},
          r"prior var must be finite and >= 0, got \[-1\.0, 5\.0\]"),
         ("linear-shift", {"prior": {"family": "normal", "mean": [0, 0], "std": [1, math.nan]}},
          "prior std must be finite and >= 0"),
         ("linear-shift", {"prior": {"family": "normal", "mean": [math.inf, 0], "var": [1, 1]}},
          "prior mean must be finite"),
         ("assembly-shift", {"prior": {"family": "uniform", "low": [0] * 4, "high": [5, 2, math.inf, 2]}},
          "prior high must be finite"),
         ("assembly-shift", {"simulator_options": {"batch_size": 2.5}},
          "simulator_options.batch_size must be an integer"),
         ("assembly-shift", {"simulator_options": {"batch_size": math.nan}},
          "simulator_options.batch_size must be an integer"),
         ("assembly-shift", {"simulator_options": {"batch_size": "4"}},
          "simulator_options.batch_size must be an integer"),
         ("assembly-shift", {"simulator_options": {"batch_size": 0}}, "batch_size must be >= 1, got 0"),
         ("linear-shift", {"prior": {"family": "normal", "mean": [0] * 3, "var": [5] * 3}},
          "prior has 3 parameters, simulator 'linear' takes 2"),
         ("assembly-shift", {"truth": {**PRESETS["assembly-shift"]["truth"], "theta_hi": [3.5, 0.5]}},
          "truth theta_hi has 2 entries, simulator 'assembly' takes 4"),
         ("linear-shift", {"truth": {"kind": "simulator", "theta": [1.0, 2.0, 3.0]}},
          "truth theta has 3 entries, simulator 'linear' takes 2"),
         ("linear-shift", {"truth": {"kind": "constant", "value": math.nan}},
          "truth value must be finite, got nan"),
         ("linear-shift", {"truth": {"kind": "simulator", "theta": [math.nan, 1.0]}},
          r"truth theta must be finite, got \[nan, 1\.0\]"),
         ("assembly-shift", {"truth": {**PRESETS["assembly-shift"]["truth"], "theta_lo": [math.nan, 0.5, 5.0, 1.0]}},
          "truth theta_lo must be finite"),
         ("assembly-shift", {"truth": {**PRESETS["assembly-shift"]["truth"], "theta_hi": [3.5, math.inf, 7.0, 1.0]}},
          "truth theta_hi must be finite"),
         ("linear-shift", {"q0": {"family": "normal", "mean": 0.5, "std": 0}},
          "q0 must be one-dimensional with std > 0"),
         ("linear-shift", {"q1": {"family": "normal", "mean": 0.0, "var": 0.0}},
          "q1 must be one-dimensional with std > 0"),
         ("linear-shift", {"q0": {"family": "uniform", "low": [0, 0], "high": [1, 1]}},
          "q0 must be one-dimensional with std > 0"),
         ("linear-shift", {"q1": {"family": "normal", "mean": [0, 0], "std": [1, 1]}},
          "q1 must be one-dimensional with std > 0"),
         ("linear-shift", {"q1": {"family": "uniform", "low": 1, "high": 0}},
          r"q1 low must be < high, got \[1\.0\] / \[0\.0\]"),
         ("linear-shift", {"prior": {"family": "cauchy"}},
          "prior family must be 'normal' or 'uniform', got 'cauchy'")],
    )
    def test_bad_section_rejected_naming_it(self, name, changes, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_dict({**PRESETS[name], **changes})

    @pytest.mark.parametrize(
        "schedule,message",
        [({"b": 0.5, "C": 1.0}, "decay exponent must exceed 1"),
         ({"b": 2.0, "C": -1.0}, "schedule constant must be finite and > 0, got -1.0"),
         ({"b": math.inf, "C": 1.0}, "epsilon_schedule.b must be finite, got inf"),
         ({"b": 2.0}, "missing keys in epsilon_schedule: C$"),
         ({"b": 2.0, "C": 1.0, "c": 1.0}, "unknown keys in epsilon_schedule: c$")],
    )
    def test_bad_epsilon_schedule_rejected_at_load(self, schedule, message):
        raw = {k: v for k, v in PRESETS["linear-shift"].items() if k != "epsilon"}
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_dict({**raw, "epsilon_schedule": schedule})

    @pytest.mark.parametrize(
        "changes,message",
        [({"proposal_std": -1.0}, "proposal std must be finite and > 0, got -1.0"),
         ({"proposal_std": math.inf}, "proposal std must be finite and > 0, got inf"),
         ({"noise_var": 0.0}, "noise variance must be finite and > 0, got 0.0"),
         ({"noise_var": math.nan}, "noise variance must be finite and > 0, got nan"),
         ({"burn_in": 1.5}, "burn-in fraction"),
         ({"steps": 0}, "mh.steps must be >= 1, got 0"),
         ({"proposal_sd": 0.3}, "unknown keys in mh: proposal_sd$")],
    )
    def test_bad_mh_section_rejected_at_load(self, changes, message):
        with pytest.raises(ValueError, match=message):
            preset("linear-shift", mh={**PRESETS["linear-shift"]["mh"], **changes})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown keys in config: herd_sise, sed$"):
            ExperimentConfig.from_dict({**PRESETS["linear-shift"], "herd_sise": 5, "sed": 1})
        with pytest.raises(ValueError, match="unknown keys in config: herd_sise$"):
            preset("linear-shift", herd_sise=5)
        stamped = {**PRESETS["linear-shift"], "config_hash": "written by write_json"}
        assert ExperimentConfig.from_dict(stamped) == preset("linear-shift")

    def test_parts_parsed_once(self, monkeypatch):
        cfg = preset("assembly-shift")
        sim = cfg.build_simulator()
        assert sim is cfg.build_simulator()
        assert cfg.build_truth() is cfg.build_truth()
        # the piecewise truth sweeps the config's one simulator
        swept, sweep = [], sim.sweep
        monkeypatch.setattr(sim, "sweep", lambda *args: swept.append(args) or sweep(*args))
        cfg.build_truth()([100.0], 7)
        assert swept == [([100.0], 7)]
        assert cfg.build_prior() is cfg.build_prior()
        assert cfg.build_dgp() is cfg.build_dgp() and cfg.build_dgp().truth is cfg.build_truth()
        assert cfg.q0_spec() is cfg.q0_spec() and cfg.q1_spec() is cfg.test_density()

    def test_weight_csv_mode_needs_path(self):
        with pytest.raises(ValueError, match="weights_csv"):
            ExperimentConfig.from_dict({**PRESETS["linear-shift"], "weight_mode": "csv"})

    @pytest.mark.parametrize("field", ["out_dir", "weights_csv"])
    @pytest.mark.parametrize("bad", [{"a": 1}, 5, ["out"], True, b"out"])
    def test_path_fields_take_paths_only(self, field, bad, tmp_path):
        raw = {**PRESETS["linear-shift"], "weight_mode": "csv", "weights_csv": "beta.csv"}
        path = tmp_path / "config.json"
        if not isinstance(bad, bytes):  # JSON has no bytes
            path.write_text(json.dumps({**raw, field: bad}))
            with pytest.raises(ValueError, match=f"{field} must be a path, got "):
                ExperimentConfig.from_json(path)
        with pytest.raises(ValueError, match=f"{field} must be a path, got "):
            ExperimentConfig(**{**raw, field: bad})
        with pytest.raises(ValueError, match=f"{field} must be a path, got "):
            preset("linear-shift", **{"weight_mode": "csv", "weights_csv": "beta.csv", field: bad})

    def test_path_fields_take_strings_and_path_objects(self, tmp_path):
        run, beta = tmp_path / "run", tmp_path / "b.csv"
        raw = {**PRESETS["linear-shift"], "weight_mode": "csv"}
        cfg = ExperimentConfig(**{**raw, "out_dir": run, "weights_csv": beta})
        assert cfg.out_dir == str(run) and cfg.weights_csv == str(beta)
        assert cfg == ExperimentConfig.from_dict(cfg.to_dict())
        # whether the weights file exists is checked when the run reads it
        assert preset("linear-shift", weight_mode="csv", weights_csv="nowhere.csv").weights_csv

    def test_test_density_follows_weight_mode(self):
        shift = preset("linear-shift")
        ordinary = preset("linear-ordinary")
        assert shift.test_density() == shift.q1_spec()
        assert ordinary.test_density() == ordinary.q0_spec()


LINEAR, ASSEMBLY = PRESETS["linear-shift"], PRESETS["assembly-shift"]
NO_EPSILON = {k: v for k, v in LINEAR.items() if k != "epsilon"}


def without(spec: dict, key: str) -> dict:
    return {k: v for k, v in spec.items() if k != key}


def probe(name, raw, message, load=ExperimentConfig.from_dict):
    return pytest.param(load, raw, message, id=name)


def construct(raw: dict) -> ExperimentConfig:
    return ExperimentConfig(**raw)


class TestConfigReader:
    """Every number goes through one reader and every section through one
    key check: a value or section of the wrong type, or a missing key, fails
    at load with a ValueError that names the field."""

    @pytest.mark.parametrize("load,raw,message", [
        # booleans are not numbers
        probe("mh-burn-in-false", {**LINEAR, "mh": {**LINEAR["mh"], "burn_in": False}},
              "burn-in fraction must be a number, got False$"),
        probe("mh-proposal-true", {**LINEAR, "mh": {**LINEAR["mh"], "proposal_std": True}},
              "proposal std must be a number, got True$"),
        probe("mh-steps-true", {**LINEAR, "mh": {**LINEAR["mh"], "steps": True}},
              "mh.steps must be an integer, got True$"),
        probe("schedule-b-true", {**NO_EPSILON, "epsilon_schedule": {"b": True, "C": 1.0}},
              "epsilon_schedule.b must be a number, got True$"),
        probe("breakpoint-true", {**ASSEMBLY, "truth": {**ASSEMBLY["truth"], "breakpoint": True}},
              "truth breakpoint must be a number, got True$"),
        probe("value-true", {**LINEAR, "truth": {"kind": "constant", "value": True}},
              "truth value must be a number, got True$"),
        probe("prior-mean-true", {**LINEAR, "prior": {**LINEAR["prior"], "mean": [True, 0]}},
              r"prior mean must be a list of numbers, got \[True, 0\]$"),
        probe("q0-std-true", {**LINEAR, "q0": {**LINEAR["q0"], "std": True}},
              "q0 std must be a number, got True$"),
        probe("noise-var-false", {**LINEAR, "noise": {"var": False}}, "noise var must be a number, got False$"),
        # numeric strings are not numbers
        probe("epsilon-string", {**LINEAR, "epsilon": "1"}, "epsilon must be a number, got '1'$"),
        probe("n-string", {**LINEAR, "n": "50"}, "n must be an integer, got '50'$"),
        probe("mh-noise-string", {**LINEAR, "mh": {**LINEAR["mh"], "noise_var": "2"}},
              "noise variance must be a number, got '2'$"),
        probe("schedule-c-string", {**NO_EPSILON, "epsilon_schedule": {"b": 2.0, "C": "1"}},
              "epsilon_schedule.C must be a number, got '1'$"),
        probe("sigma2-string", {**LINEAR, "bandwidth": {"sigma2": "1", "sigma2_theta": 1.0}},
              "fixed bandwidth 'sigma2' must be a number, got '1'$"),
        probe("q1-mean-string", {**LINEAR, "q1": {**LINEAR["q1"], "mean": "0"}},
              "q1 mean must be a number, got '0'$"),
        probe("theta-string", {**LINEAR, "truth": {"kind": "simulator", "theta": ["1", 2]}},
              r"truth theta must be a list of numbers, got \['1', 2\]$"),
        probe("value-list", {**LINEAR, "truth": {"kind": "constant", "value": [1.0]}},
              r"truth value must be a number, got \[1\.0\]$"),
        probe("epsilon-huge-integer", {**LINEAR, "epsilon": 10**400}, "epsilon must be finite and > 0"),
        probe("prior-mean-huge-integer", {**LINEAR, "prior": {**LINEAR["prior"], "mean": [0, -10**400]}},
              "prior mean must be finite"),
        # every section is an object
        probe("config-list", [LINEAR], "config must be an object"),
        probe("truth-number", {**LINEAR, "truth": 5}, "truth must be an object, got 5$"),
        probe("q0-number", {**LINEAR, "q0": 3}, "q0 must be an object, got 3$"),
        probe("mh-number", {**LINEAR, "mh": 5}, "mh must be an object, got 5$"),
        probe("noise-string", {**LINEAR, "noise": "2"}, "noise must be an object, got '2'$"),
        probe("schedule-number", {**NO_EPSILON, "epsilon_schedule": 5},
              "epsilon_schedule must be an object, got 5$"),
        probe("simulator-options-number", {**ASSEMBLY, "simulator_options": 5},
              "simulator_options must be an object, got 5$"),
        probe("simulator-options-pairs", {**ASSEMBLY, "simulator_options": [["batch_size", 2]]},
              "simulator_options must be an object"),
        probe("simulator-list", {**LINEAR, "simulator": ["linear"]},
              r"unknown simulator \['linear'\]; registered: assembly, linear$"),
        probe("family-list", {**LINEAR, "q0": {**LINEAR["q0"], "family": ["normal"]}},
              r"q0 family must be 'normal' or 'uniform', got \['normal'\]$"),
        probe("kind-list", {**LINEAR, "truth": {"kind": ["cubic"]}}, r"unknown truth kind \['cubic'\]$"),
        # missing keys are named
        probe("missing-m", without(LINEAR, "m"), "missing keys in config: m$"),
        probe("missing-truth-and-m", without(without(LINEAR, "m"), "truth"),
              "missing keys in config: m, truth$"),
        probe("missing-breakpoint", {**ASSEMBLY, "truth": without(ASSEMBLY["truth"], "breakpoint")},
              "missing keys in truth: breakpoint$"),
        probe("missing-theta", {**LINEAR, "truth": {"kind": "simulator"}}, "missing keys in truth: theta$"),
        probe("missing-mean", {**LINEAR, "q0": without(LINEAR["q0"], "mean")},
              "missing keys in q0: mean$"),
        probe("missing-high", {**ASSEMBLY, "prior": without(ASSEMBLY["prior"], "high")},
              "missing keys in prior: high$"),
        probe("unknown-and-missing", {**LINEAR, "mh": {**without(LINEAR["mh"], "steps"), "step": 400}},
              "unknown keys in mh: step; missing keys in mh: steps$"),
        # a directly built config is read like a loaded one
        probe("direct-n-float", {**LINEAR, "n": 50.5}, "n must be an integer, got 50.5$", construct),
        probe("direct-n-true", {**LINEAR, "n": True}, "n must be an integer, got True$", construct),
        probe("direct-seed-float", {**LINEAR, "seed": 1.5}, "seed must be an integer, got 1.5$",
              construct),
        probe("direct-epsilon-string", {**LINEAR, "epsilon": "1"}, "epsilon must be a number", construct),
    ])
    def test_bad_input_rejected_at_load_naming_field(self, load, raw, message):
        with pytest.raises(ValueError, match=message):
            load(raw)

    def test_direct_construction_equals_loaded(self):
        cfg = construct(LINEAR)
        assert cfg == preset("linear-shift") and cfg.config_hash() == preset("linear-shift").config_hash()


class TestConfigRoundTrip:
    def test_json_round_trip(self, tmp_path):
        cfg = preset("assembly-shift", seed=5)
        path = tmp_path / "config.json"
        cfg.write_json(path)
        back = ExperimentConfig.from_json(path)
        assert back.to_dict() == cfg.to_dict()
        assert back.config_hash() == cfg.config_hash()

    @pytest.mark.parametrize("name,digest", [
        ("assembly-ordinary", "5a10d4935e8fe431"), ("assembly-shift", "9ab802d76aed8d5d"),
        ("linear-ordinary", "80398a67d398b04b"), ("linear-shift", "d5f4e491528c1fba")],
        ids=["assembly-ordinary", "assembly-shift", "linear-ordinary", "linear-shift"])
    def test_preset_hashes_pinned(self, name, digest):
        assert preset(name).config_hash() == digest

    def test_hash_ignores_output_location(self):
        a = preset("linear-shift", out_dir="/tmp/a")
        b = preset("linear-shift", out_dir="/tmp/b")
        assert a.config_hash() == b.config_hash()

    def test_hash_sensitive_to_science(self):
        a = preset("linear-shift")
        assert a.config_hash() != a.replace(m=a.m + 1).config_hash()
        assert a.config_hash() != a.replace(seed=a.seed + 1).config_hash()
        assert a.config_hash() != a.replace(weight_mode="ordinary").config_hash()

    def test_replace_swaps_epsilon_for_schedule(self):
        cfg = preset("linear-shift", m=1, bandwidth={"sigma2": 1.0, "sigma2_theta": 1.0})
        swapped = cfg.replace(epsilon=None, epsilon_schedule={"C": 2.0, "b": 3.0})
        assert swapped.epsilon is None
        assert swapped.resolve_epsilon() == 2.0

    def test_mh_config(self):
        cfg = preset("linear-shift", seed=3)
        mh = cfg.mh_config()
        assert mh.steps == 400 and mh.noise_var == 2.0 and mh.seed == 3
        assert cfg.mh_config(steps=50).steps == 50
        with pytest.raises(ValueError, match="^seed must be an integer, got 2.5$"):
            cfg.mh_config(seed=2.5)


class TestBetaCsv:
    def test_round_trip_of_written_weights(self, tmp_path):
        from shiftcal.pipeline import calibrate, run_calibration

        cfg = preset("linear-shift", n=24, m=16, out_dir=str(tmp_path / "run"))
        run_calibration(cfg)
        path = tmp_path / "run" / "weights.csv"
        lines = path.read_bytes().splitlines(keepends=True)
        assert lines[0].startswith(b"# config_hash=") and lines[1] == b"beta\r\n"
        assert len(lines) == 2 + cfg.n and all(line.endswith(b"\r\n") for line in lines[1:])
        beta = np.asarray(calibrate(cfg).beta)
        assert load_beta_csv(path, cfg.n).tobytes() == beta.tobytes()

    def test_load(self, tmp_path):
        path = tmp_path / "beta.csv"
        path.write_text("# config_hash=abc\nbeta\n1.0\n2.5\n0.25\n")
        values = load_beta_csv(path, 3)
        assert np.array_equal(values, [1.0, 2.5, 0.25])

    def test_length_checked(self, tmp_path):
        path = tmp_path / "beta.csv"
        path.write_text("beta\n1.0\n")
        with pytest.raises(ValueError, match="rows"):
            load_beta_csv(path, 2)

    def test_bad_value_names_file_and_line(self, tmp_path):
        path = tmp_path / "beta.csv"
        path.write_text("# config_hash=abc\nbeta\n1.0\n1,2\n0.5\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, line 4: "
                                             "expected one number, got '1,2'$"):
            load_beta_csv(path, 3)
        cfg = preset("linear-shift", n=3, m=4, weight_mode="csv", weights_csv=str(path))
        with pytest.raises(StageError, match=f"^stage 'weights' failed: {re.escape(str(path))}, "
                                             "line 4: "):
            calibrate(cfg)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "beta.csv"
        path.write_text("weights\n1.0\n")
        with pytest.raises(ValueError, match="header"):
            load_beta_csv(path, 1)
