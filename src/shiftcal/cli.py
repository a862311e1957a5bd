"""Command-line experiment runner.

Subcommands cover the full workflow: ``calibrate`` runs the pipeline
and writes artifacts, ``rmse-curve`` sweeps the simulation budget,
``mh-baseline`` and ``mh-sweep`` run the sampler comparison,
``theorem1-check`` runs the brute-force embedding-equivalence check,
and ``emit-plot-data`` produces plot-ready CSV columns.  All outputs
are CSV/JSON and deterministic under a fixed seed.

The config reader and the pipeline check every value before any work;
argparse checks only that a flag parses.  So a ``ValueError`` that
escapes a command is a usage error: one line, ``shiftcal: error:
<config|preset>: <message>``, and exit status 2.  Work that fails
raises ``pipeline.StageError``, which names its stage.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .config import PRESETS, ExperimentConfig, preset
from .pipeline import (
    emit_plot_data,
    mh_acceptance_sweep,
    output_dir,
    rmse_curve,
    run_calibration,
    run_mh_baseline,
    theorem1_check,
)
from .sim import write_csv_rows, write_json_artifact


def _add_common(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", type=Path, help="path to a JSON experiment config")
    source.add_argument(
        "--preset", choices=sorted(PRESETS), help="name of a shipped experiment preset"
    )
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--out", type=Path, default=None, help="output directory override")
    parser.add_argument(
        "--weight-mode",
        choices=["shift", "ordinary"],
        default=None,
        help="covariate-shift weighting or constant weights",
    )


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    """The config the arguments name; a file that cannot be read is a ``ValueError``."""
    overrides = {
        "seed": args.seed,
        "out_dir": str(args.out) if args.out else None,
        "weight_mode": args.weight_mode,
    }
    if getattr(args, "m", None) is not None:
        overrides.update(m=args.m, herd_size=args.m)
    if not args.config:
        return preset(args.preset, **overrides)
    try:
        return ExperimentConfig.from_json(args.config, **overrides)
    except OSError as exc:  # a missing or unreadable file
        raise ValueError(exc.strerror or exc) from exc


def _list_of(item):
    """argparse type: a non-empty comma-separated list of ``item`` values."""

    def comma_list(text: str) -> list:
        values = [item(v) for v in text.split(",") if v.strip()]
        if not values:
            raise argparse.ArgumentTypeError(f"needs at least one value, got {text!r}")
        return values

    return comma_list


def cmd_calibrate(args, cfg: ExperimentConfig) -> int:
    result = run_calibration(cfg)
    print(f"rmse={result.rmse:.6g}  artifacts in {cfg.out_dir}")
    return 0


def _write_rows(cfg: ExperimentConfig, name: str, rows: list[dict]) -> None:
    """A study's rows as the CSV artifact ``name``, one column per key."""
    write_csv_rows(output_dir(cfg) / name, cfg.config_hash(), list(rows[0]), map(dict.values, rows))


def cmd_rmse_curve(args, cfg: ExperimentConfig) -> int:
    rows = rmse_curve(cfg, args.m_values, trials=args.trials, include_mh=args.include_mh)
    _write_rows(cfg, "rmse_curve.csv", rows)
    for row in rows:
        line = f"m={row['m']:>6d}  rmse={row['rmse_mean']:.6g} +- {row['rmse_std']:.3g}"
        if args.include_mh:
            line += f"  mh={row['mh_rmse_mean']:.6g} +- {row['mh_rmse_std']:.3g}"
        print(line)
    return 0


def cmd_mh_baseline(args, cfg: ExperimentConfig) -> int:
    result = run_mh_baseline(cfg, steps=args.steps)
    out = output_dir(cfg)
    result.trace.write_csv(out / "trace.csv", cfg.config_hash())
    write_json_artifact(
        out / "mh_report.json",
        {
            "acceptance_ratio": result.acceptance_ratio,
            "budget": result.budget,
            "rmse": result.rmse,
            "steps": result.trace.steps,
            "burn_in_steps": result.trace.burn_in_steps,
            "seed": cfg.seed,
            "config_hash": cfg.config_hash(),
        },
    )
    print(
        f"mh rmse={result.rmse:.6g}  acceptance={result.acceptance_ratio:.3f}  "
        f"budget={result.budget}"
    )
    return 0


def cmd_mh_sweep(args, cfg: ExperimentConfig) -> int:
    rows = mh_acceptance_sweep(cfg, args.proposal_stds, steps=args.steps)
    _write_rows(cfg, "mh_sweep.csv", rows)
    for row in rows:
        print(
            f"proposal_std={row['proposal_std']:.4g}  "
            f"acceptance={row['acceptance_ratio']:.3f}  rmse={row['rmse']:.6g}"
        )
    return 0


def cmd_theorem1_check(args, cfg: ExperimentConfig) -> int:
    report = theorem1_check(cfg, grid_resolution=args.grid_resolution)
    payload = {**report, "config_hash": cfg.config_hash(), "seed": cfg.seed}
    write_json_artifact(output_dir(cfg) / "theorem1.json", payload)
    print(
        f"theta_star={report['theta_star']}  distance={report['distance']:.6g}"
        + ("  [minimum on grid boundary]" if report["on_boundary"] else "")
    )
    return 0


def cmd_emit_plot_data(args, cfg: ExperimentConfig) -> int:
    path = emit_plot_data(cfg, grid_points=args.grid_points)
    print(f"plot data written to {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftcal",
        description="Calibrate black-box simulators under covariate shift.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="run the full calibration pipeline")
    _add_common(p)
    p.add_argument("--m", type=int, default=None, help="number of prior draws override")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("rmse-curve", help="RMSE versus simulation budget")
    _add_common(p)
    p.add_argument("--m-values", type=_list_of(int), default=[50, 100, 200, 400])
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--include-mh", action="store_true", help="also run the MH baseline per budget")
    p.set_defaults(func=cmd_rmse_curve)

    p = sub.add_parser("mh-baseline", help="run the Metropolis-Hastings comparison")
    _add_common(p)
    p.add_argument("--steps", type=int, default=None, help="chain length override")
    p.set_defaults(func=cmd_mh_baseline)

    p = sub.add_parser("mh-sweep", help="acceptance ratio per proposal std")
    _add_common(p)
    p.add_argument("--proposal-stds", type=_list_of(float), default=[0.03, 0.06, 0.08])
    p.add_argument("--steps", type=int, default=None)
    p.set_defaults(func=cmd_mh_sweep)

    p = sub.add_parser(
        "theorem1-check",
        help="distance between embeddings built from data and from optimal outputs",
    )
    _add_common(p)
    p.add_argument("--grid-resolution", type=int, default=101)
    p.set_defaults(func=cmd_theorem1_check)

    p = sub.add_parser("emit-plot-data", help="predictive draws over an input grid")
    _add_common(p)
    p.add_argument("--grid-points", type=int, default=121)
    p.set_defaults(func=cmd_emit_plot_data)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO,
        format="%(levelname)s %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args, _load_config(args))
    except ValueError as exc:  # a check before work; a failed stage raises StageError
        source = f"config {args.config}" if args.config else f"preset {args.preset}"
        print(f"shiftcal: error: {source}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


if __name__ == "__main__":
    sys.exit(main())
