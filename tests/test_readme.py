"""The examples in README.md run and print what the README shows.

Every ```python block is run; a ``print`` line with a trailing comment
states its output up to the first colon.  Every command after a ``$``
prompt in a ```sh block is run through the CLI, and its output must be the
text shown below it, field for field.
"""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from ldpkit import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, flags=re.M | re.S)


def _commands():
    """(argv, shown output) for each prompted command in the sh blocks."""
    out = []
    for block in _blocks("sh"):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, shown = chunk.partition("\n")
            while command.endswith("\\"):
                more, _, shown = shown.partition("\n")
                command = command[:-1] + more
            argv = shlex.split(command)
            assert argv[:3] == ["python", "-m", "ldpkit.cli"], command
            out.append((argv[3:], shown.strip()))
    return out


def _fields(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return [line.split(",") for line in text.splitlines()]


@pytest.mark.parametrize("source", _blocks("python"))
def test_python_block_prints_what_it_says(source):
    shown = [re.search(r"#\s*([^:]*)", line).group(1).strip()
             if "#" in line else None
             for line in source.splitlines() if line.startswith("print(")]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        exec(compile(source, "README.md", "exec"), {})
    printed = buf.getvalue().splitlines()
    assert len(printed) == len(shown)
    for got, want in zip(printed, shown):
        if want is not None:
            assert got == want


COMMANDS = _commands()


def test_readme_shows_the_rate_and_mc_commands():
    assert sorted(argv[0] for argv, _ in COMMANDS) == ["mc", "rate"]


@pytest.mark.parametrize("argv, shown", COMMANDS, ids=[argv[0] for argv, _ in COMMANDS])
def test_command_prints_what_the_readme_shows(argv, shown):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    assert _fields(buf.getvalue().strip()) == _fields(shown)
