"""README's CLI examples run as written: every `stardisk ...` line of the
code block under "## CLI" goes through cli.main in a temporary directory
and exits with the code its comment states (exit 0 unless the comment
says "exit N"), so the README cannot name a flag the CLI no longer has."""

import re
import shlex
from pathlib import Path

import pytest

from stardisk import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _examples():
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    examples, code = [], 0
    for line in block.replace("\\\n", " ").splitlines():
        line = line.strip()
        if line.startswith("#"):
            stated = re.search(r"\bexit (\d)\b", line)
            code = int(stated[1]) if stated else code
        elif line.startswith("stardisk "):
            examples.append(pytest.param(shlex.split(line)[1:], code, id=" ".join(line.split())))
            code = 0
    return examples


def test_readme_has_cli_examples():
    assert len(_examples()) == 8


@pytest.mark.parametrize("argv, code", _examples())
def test_readme_cli_example_exits_as_stated(tmp_path, monkeypatch, argv, code):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == code
