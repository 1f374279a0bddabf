"""The README's commands and group expressions run as written."""

import re
import shlex
from pathlib import Path

import pytest

from griglab.cli import main, parse_group_expr

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"^```\n(.*?)^```", README, re.M | re.S)
COMMANDS = [
    shlex.split(line, comments=True)[1:]
    for block in BLOCKS
    for line in block.splitlines()
    if line.startswith("griglab ")
]
(CONSTRUCTORS,) = re.findall(r"^Group expressions:\n\n```\n(.*?)^```", README, re.M | re.S)
EXPRESSIONS = [
    expr
    for line in CONSTRUCTORS.splitlines()
    for expr in re.split(r"\s{2,}", line.split("#")[0].strip())
    if expr
]


def test_the_readme_lists_commands_and_expressions():
    assert len(COMMANDS) == 11
    assert "gj((012)*, {1,3}, 8)" in EXPRESSIONS and len(EXPRESSIONS) == 9


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(a) for a in COMMANDS])
def test_readme_command_exits_0(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the commands write report files
    assert main(argv) == 0, capsys.readouterr().err


@pytest.mark.parametrize("text", EXPRESSIONS)
def test_readme_expression_parses(text):
    parse_group_expr(text)
