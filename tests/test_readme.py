"""The README's quickstart and command-line block run as written and do what they say."""

import json
import re
import shlex

from pathlib import Path

import pytest

from quadred.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quickstart_block_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    first = capsys.readouterr().out.splitlines()[0]
    # the value its comment gives, 2 sqrt(pi) / 5
    assert first == "0.7089815403622064"


def _command_lines():
    """(command, comment) for each line of the README's command-line block.

    The full-catalog sweeps are left out: they take the longest, and the
    CI workflow runs the same sweep under --jobs 1 and 2.
    """
    block = re.search(r"^## Command line\n\n```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    lines = []
    for line in block.group(1).splitlines():
        command, _, comment = (part.strip() for part in line.partition("#"))
        if command and "--rules all" not in command:
            lines.append((command, comment))
    return lines


COMMAND_LINES = _command_lines()


def test_command_lines_found():
    commands = [command.split()[:2] for command, _ in COMMAND_LINES]
    assert commands.count(["quadred", "list"]) == 3
    assert commands.count(["quadred", "eval"]) == 5
    assert commands.count(["quadred", "verify"]) == 1


@pytest.mark.parametrize("command, comment", COMMAND_LINES, ids=[c for c, _ in COMMAND_LINES])
def test_command_line_exit_code(capsys, command, comment):
    argv = shlex.split(command)
    assert argv[0] == "quadred"
    expected = 1 if "exits 1" in comment else 0
    assert main(argv[1:]) == expected
    capsys.readouterr()


def test_rule_registry_size(capsys):
    # the comment on "quadred list" gives the registry's size
    assert "(36 entries)" in dict(COMMAND_LINES)["quadred list"]
    assert main(["list", "--format", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 36
