"""The README's quick example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_example_runs(capsys):
    match = re.search(r"Quick example:\n\n```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert match, "README.md has no quick example block"
    exec(compile(match.group(1), "README.md quick example", "exec"), {})
    assert capsys.readouterr().out.startswith("loss ")
