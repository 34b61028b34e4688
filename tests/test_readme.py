"""The README's examples agree with the code: the quick example runs, every
CLI line and JSON config parses as written, and every Python name the library
tour shows is defined."""

import importlib
import inspect
import json
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import dystress
from dystress import cli
from dystress.harness import ExperimentConfig, config_from_dict, sweep_from_dict
from dystress.temperature import PROFILE_FORMS

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


def test_profile_names_are_profile_forms():
    match = re.search(r"Profile names:(.*?)\.\s", README.read_text(encoding="utf-8"), re.S)
    assert match, "README.md has no 'Profile names:' sentence"
    spellings = [name for form in PROFILE_FORMS.values() for name in form.names]
    assert re.findall(r"`([^`]+)`", match.group(1)) == spellings


def tour_names() -> set[str]:
    """Each backticked identifier or dotted path in the library tour, without call parentheses."""
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library tour") : text.index("Quick example:")]
    spans = re.findall(r"`([^`]+)`", tour)
    names = (re.fullmatch(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(.*\))?", span) for span in spans)
    return {name.group(1) for name in names if name}


def test_tour_names_are_defined():
    modules = [importlib.import_module(f"dystress.{info.name}") for info in pkgutil.iter_modules(dystress.__path__)]
    classes = [c for m in modules for c in vars(m).values() if inspect.isclass(c) and c.__module__ == m.__name__]

    def defined(name):
        *path, last = name.removeprefix("dystress.").split(".")
        for owner in [dystress, *modules, *classes]:
            for part in path:
                owner = getattr(owner, part, None)
            if hasattr(owner, last) or last in getattr(owner, "__dataclass_fields__", {}):
                return True
        return False

    names = tour_names()
    assert "EmbeddingBatch" in names and "DYSTRESS-CKPT-1" not in names
    assert [name for name in sorted(names) if not defined(name)] == []
