"""The README's examples still run against the package.

The "Library surface" Python block and the "Config format" JSON example
are read out of README.md and run, so a rename or a removed config key
fails here rather than only in the documentation.
"""

import json
import re
from pathlib import Path

from shiftcal.config import ExperimentConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced_block(section: str, language: str) -> str:
    """The first ``language`` code block under the ``## section`` heading."""
    text = README.read_text()
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(rf"```{language}\n(.*?)```", body, re.DOTALL)
    assert match, f"no {language} block under '## {section}'"
    return match.group(1)


def test_library_surface_example_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # run_calibration writes under the preset's relative out_dir
    exec(compile(fenced_block("Library surface", "python"), str(README), "exec"), {})
    assert float(capsys.readouterr().out) > 0


def test_config_format_example_loads():
    cfg = ExperimentConfig.from_dict(json.loads(fenced_block("Config format", "json")))
    assert (cfg.simulator, cfg.n, cfg.m) == ("assembly", 50, 400)
