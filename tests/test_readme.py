"""The README's Python examples run as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=lambda source: source.splitlines()[0])
def test_readme_python_block_runs(source, capsys):
    exec(compile(source, str(README), "exec"), {"__name__": "readme_example"})
    capsys.readouterr()
