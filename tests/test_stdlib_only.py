"""The package stays pure stdlib: every absolute import in src/vcachesim is
a standard-library module, and the package's own modules import each other
relatively."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "vcachesim").glob("*.py"))


def test_every_import_is_stdlib_or_relative():
    assert SOURCES
    outside = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:  # not an import, or a relative one
                continue
            outside += [
                f"{path.name}:{node.lineno} {module}"
                for module in modules
                if module.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []
