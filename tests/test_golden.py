"""Golden CLI outputs: the stdout of a fixed list of calls, byte for byte.

``golden/cli_digests.json`` maps each call to the sha256 and length of its
UTF-8 stdout.  Each call is checked twice in a row: cold, right after
``clear_caches()``, as in a fresh process, and then warm.  The matrix model
computes ``killing`` and ``check-lie-triple`` exactly and rounds once, so
their digits depend on no library; ``slmodel iwasawa``, ``halfplane`` and
``verify`` are left out because they go through libm's ``sqrt``, ``hypot``,
``exp`` and trigonometric functions, whose last digits may vary between
platforms.

``golden/cli_usage_digests.json`` holds, for the help, version and usage
error calls of ``USAGE``, the exit status and the digests of stdout and
stderr.  argparse wraps its text to the terminal's width, so these run with
``COLUMNS=80``.  After an intended output change, list it in CHANGES.md and
rewrite both files with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

from liefoliate import cli, clear_caches
from liefoliate.cli import main

DIGESTS = Path(__file__).resolve().parent / "golden" / "cli_digests.json"
USAGE_DIGESTS = DIGESTS.with_name("cli_usage_digests.json")

_FOLIATION_SPACES = (
    "SL5", "SL12", "e8(8)", "e6(-14)", "f4(-20)", "su(7,3)", "sp(4,2)",
    "so(9,4)", "so(12,C)", "so(10,H)", "g2(C)", "so(4,4)", "e6(6)",
)
_PARABOLIC_CASES = (
    ("SL5", "1,3"), ("su(4,2)", "1"), ("e6(-14)", "1,2"), ("f4(4)", "2,3"),
    ("so(7,3)", "2"), ("e8(8)", "1,4,6,8"),
)
_ROOT_SYSTEMS = (
    ("A", 4), ("B", 3), ("C", 3), ("D", 5), ("BC", 3), ("BC", 1),
    ("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2),
)

# Calls that argparse reads and the CLI's own matcher (``commands.match``)
# declines: an abbreviated option, the "=" form, a repeated option (the last
# wins), an option before the action.
ARGPARSE_ONLY = (
    ("parabolic", "--spa", "SL5", "--phi", "1"),
    ("parabolic", "--space=SL5", "--phi", "1"),
    ("parabolic", "--space", "SL5", "--format", "table", "--format", "json"),
    ("rootsys", "--family", "A", "show", "--rank", "3"),
)

COMMANDS = (
    *(("foliations", "enumerate", "--space", s, "--format", f)
      for s in _FOLIATION_SPACES for f in ("table", "json")),
    ("foliations", "enumerate", "--space", "e7(-25)", "--codim", "1"),
    ("foliations", "enumerate", "--space", "e7(-25)", "--codim", "1", "--format", "json"),
    ("foliations", "enumerate", "--space", "SL5", "--include-trivial", "--format", "json"),
    *((cmd, "--space", s, "--phi", phi, "--format", f)
      for cmd in ("parabolic", "horospherical")
      for s, phi in _PARABOLIC_CASES for f in ("table", "json")),
    ("catalog", "list"),
    ("catalog", "list", "--format", "json"),
    *(("rootsys", "show", "--family", fam, "--rank", str(r), "--format", f)
      for fam, r in _ROOT_SYSTEMS for f in ("table", "json")),
    *(("rootsys", "dynkin", "--family", fam, "--rank", str(r), "--format", f)
      for fam, r in _ROOT_SYSTEMS for f in ("table", "json", "dot")),
    # the README's examples, and the sl(3) non-example of verify's criterion 9
    ("slmodel", "killing", "--x", "[[1,0],[0,-1]]", "--y", "[[1,0],[0,-1]]"),
    ("slmodel", "check-lie-triple", "--basis", "[[[0,0.5,0],[0.5,0,0],[0,0,0]],[[0,0,0.5],[0,0,0],[0.5,0,0]]]"),
    ("slmodel", "check-lie-triple", "--basis",
     "[[[0,0.5,0],[0.5,0,0],[0,0,0]],[[0,0,0.5],[0,0,0],[0.5,0,0]],[[0,0,0],[0,0,0.5],[0,0.5,0]]]"),
    *ARGPARSE_ONLY,
)


USAGE = (
    ("--help",),
    ("--version",),
    *((command, "--help") for command in cli.COMMANDS),
    *(("slmodel", action, "--help") for action in ("iwasawa", "killing", "check-lie-triple", "halfplane")),
    # usage errors: no command, an unknown one, a missing required option, an invalid choice
    (),
    ("bogus",),
    ("parabolic",),
    ("rootsys", "show", "--family", "Z", "--rank", "3"),
    # arguments before the command that argparse takes as the command and refuses
    ("--", "parabolic", "--space", "SL5"),
    ("-5", "parabolic", "--space", "SL5"),
    # an unknown option, and --version after the command, which the matcher
    # declines and argparse refuses
    ("parabolic", "--space", "SL5", "--bogus", "x"),
    ("parabolic", "--space", "SL5", "--version"),
    # an int option given no integer, as it is given a non-ASCII digit
    ("rootsys", "dynkin", "--family", "A", "--rank", "x"),
)


def _key(argv) -> str:
    return " ".join(argv)


def _stdout(argv) -> tuple[int, bytes]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue().encode("utf-8")


def _digest(out: bytes) -> dict:
    return {"sha256": hashlib.sha256(out).hexdigest(), "bytes": len(out)}


def _usage(argv) -> dict:
    """Exit status and the digests of stdout and stderr of ``liefoliate argv``, at 80 columns."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS="80"), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "stdout": _digest(out.getvalue().encode("utf-8")),
            "stderr": _digest(err.getvalue().encode("utf-8"))}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(DIGESTS.read_text())


def test_golden_file_lists_exactly_the_commands(golden):
    assert sorted(golden) == sorted(_key(argv) for argv in COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=_key)
def test_cli_stdout_matches_golden_digest(golden, argv):
    clear_caches()
    for _ in ("cold", "warm"):
        code, out = _stdout(argv)
        assert code == 0
        assert _digest(out) == golden[_key(argv)]


def test_usage_golden_file_lists_exactly_the_calls():
    assert sorted(json.loads(USAGE_DIGESTS.read_text())) == sorted(_key(("liefoliate", *argv)) for argv in USAGE)


@pytest.mark.parametrize("argv", USAGE, ids=lambda argv: _key(("liefoliate", *argv)))
def test_help_version_and_usage_errors_match_golden_digests(argv):
    assert _usage(argv) == json.loads(USAGE_DIGESTS.read_text())[_key(("liefoliate", *argv))]


if __name__ == "__main__":
    table = {}
    for argv in COMMANDS:
        code, out = _stdout(argv)
        if code:
            sys.exit(f"{_key(argv)} exited {code}")
        table[_key(argv)] = _digest(out)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {DIGESTS}")
    usage = {_key(("liefoliate", *argv)): _usage(argv) for argv in USAGE}
    USAGE_DIGESTS.write_text(json.dumps(usage, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(usage)} digests to {USAGE_DIGESTS}")
