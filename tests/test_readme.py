"""The README's examples run: each line of its CLI block is valid bash and
exits 0, and its Library block gives the values its comments state."""

import re
import shlex
import subprocess
from pathlib import Path

import pytest

from liefoliate import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(heading: str, language: str) -> str:
    """The first fenced block of the given language under a level-2 heading."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


CLI_LINES = [line for line in _block("CLI", "sh").splitlines() if line.startswith("liefoliate ")]


def test_the_cli_block_has_its_examples():
    assert len(CLI_LINES) == 11


@pytest.mark.parametrize("line", CLI_LINES)
def test_cli_example_is_valid_bash(line):
    proc = subprocess.run(["bash", "-n", "-c", line], capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("line", CLI_LINES)
def test_cli_example_exits_0(line, capsys):
    assert cli.main(shlex.split(line)[1:]) == 0
    assert capsys.readouterr().out


def test_library_example_gives_the_values_of_its_comments():
    source = _block("Library", "python")
    namespace = {}
    exec(source, namespace)
    stated = [(expr, int(value)) for expr, value in re.findall(r"^(.*?)\s+# (\d+)\b", source, re.MULTILINE)]
    assert [value for _, value in stated] == [16, 4, 18, 3]
    for expr, value in stated:
        assert eval(expr, namespace) == value, expr
