"""The package stays pure stdlib: every absolute import in src/vcachesim is
a standard-library module, and the package's own modules import each other
relatively. Every function parameter drives something: some function of its
name in its module reads it."""

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


def test_every_parameter_is_read_by_a_function_of_its_name():
    # a base signature counts as read when an override of the same name in
    # the module reads it (RsuBase.on_content's request_id)
    unread = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        functions = [
            node
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        read: dict[str, set[str]] = {}  # function name -> names its bodies read
        for function in functions:
            read.setdefault(function.name, set()).update(
                node.id
                for node in ast.walk(function)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            )
        for function in functions:
            args = function.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
            params += [arg for arg in (args.vararg, args.kwarg) if arg is not None]
            unread += [
                f"{path.name}:{param.lineno} {function.name}({param.arg})"
                for param in params
                if param.arg != "self" and param.arg not in read[function.name]
            ]
    assert unread == []
