"""No griglab module imports a name at module level that it never uses,
and no function body imports a griglab module.

A name counts as used when the module reads it anywhere, or when a string
literal in the module is exactly that name: cli dispatches its command
tables through globals() by function name.  ``from __future__`` imports
are compiler directives, not names.  A function may import a standard
library module that only one path needs (signal, traceback, csv), but a
griglab module goes at the top, where an import cycle shows at once.
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


def griglab_imports_in_functions(source: str) -> list:
    """(line, module) for each import of a griglab module inside a function."""
    out = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ImportFrom) and (
                node.level or node.module.partition(".")[0] == "griglab"
            ):
                out.append((node.lineno, "." * node.level + (node.module or "")))
            elif isinstance(node, ast.Import):
                out += [(node.lineno, a.name) for a in node.names
                        if a.name.partition(".")[0] == "griglab"]
    return sorted(set(out))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_function_imports_a_griglab_module(path):
    assert griglab_imports_in_functions(path.read_text()) == []


def test_the_check_sees_griglab_imports_in_functions_only():
    source = (
        "from .cayley import bfs_ball\n"
        "def f():\n"
        "    import csv\n"
        "    from .cayley import bfs_ball\n"
        "    def g():\n"
        "        import griglab.words, os\n"
        "        from . import marked\n"
        "        from griglab import cli\n"
    )
    assert griglab_imports_in_functions(source) == [
        (4, ".cayley"), (6, "griglab.words"), (7, "."), (8, "griglab")
    ]
