"""The README's examples agree with the code: the quick example runs, and every
CLI line and JSON config parses as written."""

import json
import re
import shlex
from pathlib import Path

import pytest

from dystress import cli
from dystress.harness import ExperimentConfig, config_from_dict, sweep_from_dict

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_blocks(language: str) -> list[str]:
    return re.findall(rf"```{language}\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def cli_lines() -> list[str]:
    (block,) = [b for b in readme_blocks("bash") if "dystress simulate" in b]
    return [line for line in block.splitlines() if line.startswith("dystress ")]


def test_quick_example_runs(capsys):
    match = re.search(r"Quick example:\n\n```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert match, "README.md has no quick example block"
    exec(compile(match.group(1), "README.md quick example", "exec"), {})
    assert capsys.readouterr().out.startswith("loss ")


@pytest.mark.parametrize("line", cli_lines())
def test_cli_line_parses(line):
    cli._build_parser().parse_args(shlex.split(line, comments=True)[1:])  # a usage error raises


def test_json_blocks_parse():
    config, sweep = (json.loads(block) for block in readme_blocks("json"))
    assert config_from_dict(config) == ExperimentConfig()
    assert len(sweep_from_dict(sweep).expand(None)) == 6
