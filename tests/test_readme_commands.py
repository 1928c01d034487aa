"""Every ``forcelab`` line of README's "Command line" block runs as written.

Each line goes through ``cli.main`` in-process and must exit 0; a line
whose comment is a JSON document must print exactly that document.
"""

from __future__ import annotations

import json
import re
import shlex
from pathlib import Path

import pytest

from forcelab import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def command_lines() -> list[str]:
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", text, re.S)
    assert block, "README has no Command line block"
    return [line for line in block.group(1).splitlines()
            if line.startswith("forcelab ")]


def test_block_lists_every_command():
    names = {shlex.split(line, comments=True)[1] for line in command_lines()}
    assert names == set(cli._COMMANDS)


@pytest.mark.parametrize("line", command_lines())
def test_line_runs_as_documented(line, capsys):
    argv = shlex.split(line, comments=True)[1:]
    assert cli.main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    _, _, comment = line.partition(" # ")
    if comment.strip().startswith("{"):
        assert out == json.loads(comment)
