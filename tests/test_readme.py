"""The README's Python examples run as written, and its trace grammar is
the one trace.log is rendered with."""

import re
from pathlib import Path

import pytest

from vcachesim.metrics import TRACE_FIELDS, TRACE_TIMES

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=lambda source: source.splitlines()[0])
def test_readme_python_block_runs(source, capsys):
    exec(compile(source, str(README), "exec"), {"__name__": "readme_example"})
    capsys.readouterr()


def test_readme_trace_grammar_is_the_rendering_table():
    section = TEXT.split("### Trace grammar\n", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", section, re.M)
    assert {kind: tuple(re.findall(r"`(\w+)`", fields)) for kind, fields in rows} == TRACE_FIELDS
    assert [kind for kind, _ in rows] == list(TRACE_FIELDS)  # in the table's order
    (times,) = re.findall(r"^Time fields: (.*)$", section, re.M)
    assert tuple(re.findall(r"`(\w+)`", times)) == TRACE_TIMES
