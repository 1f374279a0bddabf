"""No griglab module imports a name at module level that it never uses.

A name counts as used when the module reads it anywhere, or when a string
literal in the module is exactly that name: cli dispatches its command
tables through globals() by function name.  ``from __future__`` imports
are compiler directives, not names.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "griglab"


def unused_imports(source: str) -> list:
    """(line, name) for each module-level import the module never uses."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import_and_a_string_use():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from dataclasses import dataclass\n"
        "from .x import run\n"
        "TABLE = {'r': 'run'}\n"
        "print(sys.argv)\n"
    )
    assert unused_imports(source) == [(2, "os"), (3, "dataclass")]
