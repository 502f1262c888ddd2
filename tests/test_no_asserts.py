"""The package checks nothing with `assert`: `python -O` strips assert
statements, so a check the program relies on must raise on its own."""

import ast
from pathlib import Path

import goeritz

SOURCES = sorted(Path(goeritz.__file__).parent.rglob("*.py"))


def test_no_module_in_the_package_has_an_assert_statement():
    assert len(SOURCES) > 10
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
