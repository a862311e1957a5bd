import json
import re
from pathlib import Path

import pytest

from shiftcal import pipeline
from shiftcal.cli import main
from shiftcal.config import PRESETS, ExperimentConfig

TINY = {
    **PRESETS["linear-shift"],
    "n": 16,
    "m": 8,
    "herd_size": 8,
    "n_test": 16,
    "mh": {"proposal_std": 0.3, "steps": 40, "burn_in": 0.10, "noise_var": 2.0},
}


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY))
    return path


def test_calibrate_writes_artifacts(tiny_config, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["calibrate", "--config", str(tiny_config), "--out", str(out)]) == 0
    assert (out / "report.json").exists()
    assert "rmse=" in capsys.readouterr().out


def test_calibrate_preset_with_overrides(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(
        ["calibrate", "--preset", "linear-shift", "--m", "8", "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["stats"]["m"] == 8
    assert report["seed"] == 3


def test_zero_m_rejected(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["calibrate", "--preset", "linear-shift", "--m", "0", "--out", str(tmp_path / "run")])
    assert exc.value.code == 2
    assert "shiftcal: error: preset linear-shift: m must be >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "command,flags",
    [("calibrate", ["--m", "1"]), ("rmse-curve", ["--m-values", "20,1", "--trials", "1"])],
    ids=["calibrate", "rmse-curve"],
)
def test_one_draw_under_the_median_bandwidth_is_a_usage_error(
    tmp_path, capsys, monkeypatch, command, flags
):
    # rejected before any run: rmse-curve builds the config of every budget
    # before it runs its m=20 trials
    def no_run(*args, **kwargs):
        raise AssertionError("a run started at m = 1 under the median bandwidth")

    for name in ("calibrate", "weighted_dataset"):
        monkeypatch.setattr(pipeline, name, no_run)
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main([command, "--preset", "linear-shift", "--out", str(out), *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err == ("shiftcal: error: preset linear-shift: "
                   "m must be >= 2 under the median bandwidth, got 1\n")
    assert not out.exists()


def test_one_draw_under_a_fixed_bandwidth_runs(tmp_path, capsys):
    path, out = tmp_path / "fixed.json", tmp_path / "run"
    path.write_text(json.dumps(
        {**PRESETS["linear-shift"], "bandwidth": {"sigma2": 50.0, "sigma2_theta": 5.0}}
    ))
    assert main(["calibrate", "--config", str(path), "--m", "1", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["stats"]["m"] == 1
    assert report["rmse"] == pytest.approx(2.3067464581445183, rel=1e-12)
    assert main(["rmse-curve", "--config", str(path), "--m-values", "2,1", "--trials", "1",
                 "--out", str(out)]) == 0
    assert "m=     1" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command,flag,value,message",
    [("theorem1-check", "--grid-resolution", "1", "must be >= 2, got 1"),
     ("rmse-curve", "--m-values", ",", "needs at least one value"),
     ("rmse-curve", "--m-values", "4,0", "must be >= 1, got 0"),
     ("rmse-curve", "--trials", "0", "must be >= 1, got 0"),
     ("mh-sweep", "--proposal-stds", ",", "needs at least one value"),
     ("mh-sweep", "--proposal-stds", "0.1,-0.2", "must be finite and > 0, got -0.2"),
     ("mh-sweep", "--steps", "0", "must be >= 1, got 0"),
     ("mh-baseline", "--steps", "0", "must be >= 1, got 0"),
     ("emit-plot-data", "--grid-points", "0", "must be >= 1, got 0")],
)
def test_bad_argument_is_a_usage_error(tmp_path, capsys, command, flag, value, message):
    # argparse names the flag of an empty list; every other check is the
    # pipeline's, and its message names the field the flag sets
    field = {"--grid-resolution": "grid_resolution", "--m-values": "m", "--trials": "trials",
             "--proposal-stds": "proposal std", "--steps": "mh.steps",
             "--grid-points": "grid_points"}[flag]
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main([command, "--preset", "linear-shift", "--out", str(out), f"{flag}={value}"])
    assert exc.value.code == 2
    expected = (f"argument {flag}: {message}" if message.startswith("needs")
                else f"shiftcal: error: preset linear-shift: {field} {message}\n")
    assert expected in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text,message",
    [(None, "No such file or directory$"),
     ("{\"n\": 16,", "Expecting property name enclosed in double quotes"),
     (json.dumps({**TINY, "herd_sise": 8}), "unknown keys in config: herd_sise"),
     (json.dumps({**TINY, "pool_extra": 0}), "unknown keys in config: pool_extra$"),
     (json.dumps({**TINY, "epsilon": "1"}), "epsilon must be a number, got '1'")],
    ids=["missing", "invalid-json", "unknown-key", "removed-key", "bad-value"],
)
def test_bad_config_is_a_usage_error(tmp_path, capsys, text, message):
    path, out = tmp_path / "config.json", tmp_path / "run"
    if text is not None:
        path.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["calibrate", "--config", str(path), "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith("\n") and err.count("\n") == 1
    assert re.match(f"shiftcal: error: config {re.escape(str(path))}: .*{message}", err.rstrip("\n"))
    assert not out.exists()


@pytest.mark.parametrize("seed", [2**127, -(2**127) - 1])
@pytest.mark.parametrize("source", ["preset", "config"])
def test_out_of_range_seed_is_a_usage_error(tiny_config, tmp_path, capsys, source, seed):
    out = tmp_path / "run"
    origin = ["--preset", "linear-shift"] if source == "preset" else ["--config", str(tiny_config)]
    with pytest.raises(SystemExit) as exc:
        main(["calibrate", *origin, "--seed", str(seed), "--out", str(out)])
    assert exc.value.code == 2
    named = "preset linear-shift" if source == "preset" else f"config {tiny_config}"
    err = capsys.readouterr().err
    assert err == f"shiftcal: error: {named}: seed must be in [{-(2**127)}, {2**127}), got {seed}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command,flags",
    [("mh-baseline", []), ("mh-sweep", []), ("rmse-curve", ["--include-mh"])],
    ids=["mh-baseline", "mh-sweep", "rmse-curve"],
)
def test_mh_command_without_mh_section_is_a_usage_error(
    tmp_path, capsys, monkeypatch, command, flags
):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started on a config without an 'mh' section")

    for name in ("calibrate", "weighted_dataset"):
        monkeypatch.setattr(pipeline, name, no_run)
    path, out = tmp_path / "bare.json", tmp_path / "run"
    path.write_text(json.dumps({k: v for k, v in TINY.items() if k != "mh"}))
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(path), "--out", str(out), *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err == f"shiftcal: error: config {path}: config has no 'mh' section\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command,flags",
    [("mh-baseline", []), ("mh-sweep", []), ("rmse-curve", ["--include-mh"])],
    ids=["mh-baseline", "mh-sweep", "rmse-curve"],
)
def test_mh_command_on_a_point_mass_prior_is_a_usage_error(tmp_path, capsys, command, flags):
    path, out = tmp_path / "point-mass.json", tmp_path / "run"
    path.write_text(json.dumps({**TINY, "prior": {"family": "normal", "mean": [0.0, 0.0],
                                                  "var": [0.0, 5.0]}}))
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(path), "--out", str(out), *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err == (f"shiftcal: error: config {path}: prior has std [0.0, {5 ** 0.5}]: "
                   "a point mass has no density for the MH target\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "command,flags,owner,name,passes,stage",
    [("theorem1-check", ["--grid-resolution", "5"], pipeline, "minimize_weighted_sse", 0,
      "oracle-search"),
     ("mh-baseline", ["--steps", "20"], pipeline, "log_likelihood_sweep", 0, "chain"),
     ("emit-plot-data", ["--grid-points", "5"], pipeline, "_score", 1, "plot-scoring")],
    ids=["oracle-search", "mh-likelihood", "plot-scoring"],
)
def test_a_value_error_during_work_is_a_stage_error(
    tiny_config, tmp_path, monkeypatch, command, flags, owner, name, passes, stage
):
    # only a check before work is a usage error; work that fails is named by
    # its stage.  The first ``passes`` calls go through: the plot data scores
    # once in calibrate's prediction stage before its own plot-scoring stage.
    original, calls = getattr(owner, name), []

    def broken(*args, **kwargs):
        calls.append(name)
        if len(calls) <= passes:
            return original(*args, **kwargs)
        raise ValueError("injected")

    monkeypatch.setattr(owner, name, broken)
    with pytest.raises(pipeline.StageError, match=f"^stage '{stage}' failed: injected$") as err:
        main([command, "--config", str(tiny_config), "--out", str(tmp_path / "run"), *flags])
    assert err.value.stage == stage


def test_a_plot_grid_the_simulator_rejects_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # q1's 3-sd box reaches x = -2, below the assembly simulator's x >= 1:
    # the grid is checked before any stage runs
    def no_run(*args, **kwargs):
        raise AssertionError("a stage ran before the plot grid was checked")

    for name in ("calibrate", "prepare", "weighted_dataset"):
        monkeypatch.setattr(pipeline, name, no_run)
    path, out = tmp_path / "low-q1.json", tmp_path / "run"
    path.write_text(json.dumps({**PRESETS["assembly-shift"], "m": 40, "n_test": 20,
                                "q0": {"family": "normal", "mean": 20.0, "std": 3.0},
                                "q1": {"family": "normal", "mean": 10.0, "std": 4.0}}))
    with pytest.raises(SystemExit) as exc:
        main(["emit-plot-data", "--config", str(path), "--out", str(out)])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        f"shiftcal: error: config {path}: plot grid: product count must be >= 1, "
        "got x=-2.0 (row 0)\n"
    )
    assert not out.exists()


def test_rmse_curve_without_mh_section_runs_without_include_mh(tmp_path):
    path, out = tmp_path / "bare.json", tmp_path / "run"
    path.write_text(json.dumps({k: v for k, v in TINY.items() if k != "mh"}))
    assert main(["rmse-curve", "--config", str(path), "--out", str(out),
                 "--m-values", "4", "--trials", "1"]) == 0
    assert (out / "rmse_curve.csv").exists()


SUBCOMMANDS = [
    ("calibrate", []), ("rmse-curve", ["--m-values", "4", "--trials", "1"]),
    ("mh-baseline", ["--steps", "20"]), ("mh-sweep", ["--proposal-stds", "0.1", "--steps", "20"]),
    ("theorem1-check", ["--grid-resolution", "5"]), ("emit-plot-data", ["--grid-points", "5"]),
]


@pytest.mark.parametrize("command,flags", SUBCOMMANDS)
def test_every_subcommand_writes_its_config(tiny_config, tmp_path, command, flags):
    out = tmp_path / "run"
    assert main([command, "--config", str(tiny_config), "--out", str(out), *flags]) == 0
    cfg = ExperimentConfig.from_json(tiny_config, out_dir=str(out))
    assert ExperimentConfig.from_json(out / "config.json") == cfg
    assert json.loads((out / "config.json").read_text())["config_hash"] == cfg.config_hash()


@pytest.mark.parametrize("command,flags", SUBCOMMANDS)
def test_an_unusable_out_is_a_usage_error_before_any_stage(
    tiny_config, tmp_path, capsys, monkeypatch, command, flags
):
    # every stage starts from the weighted dataset, so no stage runs
    out = tmp_path / "taken"
    out.write_text("a file, not a directory")
    stages = []
    monkeypatch.setattr(pipeline, "weighted_dataset", lambda *args: stages.append(args))
    for given in (out, out / "below"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(tiny_config), "--out", str(given), *flags])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            f"shiftcal: error: config {tiny_config}: output directory {str(given)!r}: "
            f"{str(out)!r} is not a directory\n"
        )
    assert stages == []
    assert out.read_text() == "a file, not a directory"


def test_weight_mode_flag_changes_run(tiny_config, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["calibrate", "--config", str(tiny_config), "--out", str(out_a)])
    main(
        [
            "calibrate",
            "--config",
            str(tiny_config),
            "--out",
            str(out_b),
            "--weight-mode",
            "ordinary",
        ]
    )
    rmse_a = json.loads((out_a / "report.json").read_text())["rmse"]
    rmse_b = json.loads((out_b / "report.json").read_text())["rmse"]
    assert rmse_a != rmse_b


def test_rmse_curve_csv(tiny_config, tmp_path):
    out = tmp_path / "curve"
    code = main(
        [
            "rmse-curve",
            "--config",
            str(tiny_config),
            "--out",
            str(out),
            "--m-values",
            "4,6",
            "--trials",
            "2",
            "--include-mh",
        ]
    )
    assert code == 0
    lines = (out / "rmse_curve.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1].split(",")[:3] == ["m", "rmse_mean", "rmse_std"]
    assert len(lines) == 4


def test_mh_baseline_outputs(tiny_config, tmp_path):
    out = tmp_path / "mh"
    code = main(["mh-baseline", "--config", str(tiny_config), "--out", str(out), "--steps", "30"])
    assert code == 0
    report = json.loads((out / "mh_report.json").read_text())
    assert report["budget"] == 30
    assert (out / "trace.csv").exists()


def test_mh_sweep(tiny_config, tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(
        [
            "mh-sweep",
            "--config",
            str(tiny_config),
            "--out",
            str(out),
            "--proposal-stds",
            "0.1,0.5",
            "--steps",
            "30",
        ]
    )
    assert code == 0
    lines = (out / "mh_sweep.csv").read_text().splitlines()
    assert len(lines) == 4
    assert "acceptance" in capsys.readouterr().out


def test_theorem1_check_report(tiny_config, tmp_path):
    out = tmp_path / "thm"
    code = main(
        [
            "theorem1-check",
            "--config",
            str(tiny_config),
            "--out",
            str(out),
            "--grid-resolution",
            "15",
        ]
    )
    assert code == 0
    report = json.loads((out / "theorem1.json").read_text())
    assert {"theta_star", "distance", "config_hash", "on_boundary"} <= set(report)


def test_emit_plot_data(tiny_config, tmp_path):
    out = tmp_path / "plots"
    code = main(
        [
            "emit-plot-data",
            "--config",
            str(tiny_config),
            "--out",
            str(out),
            "--grid-points",
            "11",
        ]
    )
    assert code == 0
    assert (out / "plot_data.csv").exists()


def test_config_and_preset_mutually_exclusive(tiny_config):
    with pytest.raises(SystemExit):
        main(["calibrate", "--config", str(tiny_config), "--preset", "linear-shift"])


def test_requires_source():
    with pytest.raises(SystemExit):
        main(["calibrate"])
