"""The README's examples still run against the package.

The "Library surface" Python block and the "Config format" JSON example
are read out of README.md and run, and every command line and flag of the
"CLI" section is checked against the CLI's parser, so a rename, a removed
config key or a removed flag fails here rather than only in the
documentation.
"""

import argparse
import json
import re
from pathlib import Path

import pytest

from shiftcal.cli import build_parser
from shiftcal.config import ExperimentConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def section(name: str) -> str:
    """The text under the ``## name`` heading, up to the next one."""
    return README.read_text().split(f"\n## {name}\n", 1)[1].split("\n## ", 1)[0]


def fenced_block(name: str, language: str) -> str:
    """The first ``language`` code block under the ``## name`` heading."""
    body = section(name)
    match = re.search(rf"```{language}\n(.*?)```", body, re.DOTALL)
    assert match, f"no {language} block under '## {name}'"
    return match.group(1)


def test_library_surface_example_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # run_calibration writes under the preset's relative out_dir
    exec(compile(fenced_block("Library surface", "python"), str(README), "exec"), {})
    assert float(capsys.readouterr().out) > 0


def test_config_format_example_loads():
    cfg = ExperimentConfig.from_dict(json.loads(fenced_block("Config format", "json")))
    assert (cfg.simulator, cfg.n, cfg.m) == ("assembly", 50, 400)


def test_cli_section_command_lines_parse():
    lines = [line for line in section("CLI").splitlines() if line.startswith("shiftcal ")]
    assert len(lines) == 6
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(line.split()[1:])
        except SystemExit:
            pytest.fail(f"README command line does not parse: {line}")


def test_cli_section_names_only_existing_flags():
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {flag for p in (parser, *commands.choices.values())
             for action in p._actions for flag in action.option_strings}
    named = set(re.findall(r"(?<![\w-])(--[a-z][a-z0-9-]*|-[a-zA-Z])(?![\w-])", section("CLI")))
    assert named and named <= flags, f"not a flag of any subcommand: {sorted(named - flags)}"
